"""The batched engine against the reference Evaluator, and the sweeps built on it.

`reference_evaluator.Evaluator`, which shares no evaluation code with the
engine, is the oracle: every batched extension must equal its per-model
extension, and every sweep report must equal the report of a plain
model-by-model loop (kept below) over the same enumeration.
"""

import gc
import importlib
import random
import sys
import weakref

import pytest

from epiresolve import checker, search
from epiresolve.batch import BATCH_MODELS, Batch, ModelBatches
from epiresolve.checker import PointedModel
from epiresolve.fixtures import fig1, fig1_core
from epiresolve.kripke import Model, as_premodel
from epiresolve.search import FormulaGen, SearchBounds, check_rule_rrc, check_schema
from epiresolve.syntax import And, E, parse

from conftest import model_list
from reference_evaluator import Evaluator

from test_search import break_c1, corrupt_rd1, drop_t_d

AG = {"1", "2"}

# nested resolution and announcement, both ways round, and common
# knowledge under announcements
HANDPICKED = [
    "[p] R{1,2} K1 p",
    "R{1,2} [p] K1 p",
    "R{1} [~K2 p] D{1,2} p",
    "[K1 p] R{1,2} [p] C{1,2} p",
    "R{2} [q] R{1,2} ~K1 q",
    "[p | q] C{1,2} (p -> K2 q)",
    "[~C{1,2} p] C{1} ~p",
    "[[p] K1 p] [q] C{1,2} ~K2 p",
    "C{1,2} [p] K1 p",
    "R{1,2} C{1,2} [K2 q] p",
]


def formulas(atoms, seed, count):
    gen = FormulaGen(["1", "2"], atoms, seed=seed, depth=3, allow_ann=True)
    out = [gen.formula() for _ in range(count)]
    return out + [parse(text, AG) for text in HANDPICKED if set(atoms) >= {"p", "q"} or "q" not in text]


def per_model(batch, bits):
    """Split a batch extension into each model's set of states."""
    return [frozenset(s for i, s in enumerate(sorted(m.states)) if batch.slot(bits, k) >> i & 1)
            for k, m in enumerate(batch.models)]


def assert_agrees(models, fs):
    for batch in ModelBatches(models):
        for f in fs:
            expected = [Evaluator(m).extension(f) for m in batch.models]
            assert per_model(batch, batch.extension(f)) == expected, f


def test_batches_are_consecutive_equal_sized_and_capped():
    models = model_list(4, ("1", "2"), ("p",))
    stream = ModelBatches(models)
    batches = list(stream)
    assert [m for b in batches for m in b.models] == list(models)
    assert all(len({len(m.states) for m in b.models}) == 1 for b in batches)
    assert max(len(b.models) for b in batches) == BATCH_MODELS
    assert not stream.more


def test_agrees_with_evaluator_three_states_two_atoms():
    assert_agrees(model_list(3, ("1", "2"), ("p", "q")), formulas(["p", "q"], seed=11, count=30))


def test_agrees_with_evaluator_four_states_one_atom():
    assert_agrees(model_list(4, ("1", "2"), ("p",)), formulas(["p"], seed=12, count=30))


def test_agrees_with_evaluator_on_named_states():
    # fig1 and its core share states and agents, so they fit in one batch
    fs = formulas(["p", "q"], seed=13, count=200)
    assert_agrees([fig1(), fig1_core()], fs)
    assert_agrees([fig1()], fs)


def test_agrees_with_evaluator_on_multi_byte_slots():
    # nine states need two bytes per model slot
    rng = random.Random(5)
    states = [f"s{i}" for i in range(9)]
    models = []
    for _ in range(6):
        relations = {a: [[s] for s in states] for a in ("1", "2")}
        for a in relations:
            blocks = {}
            for s in states:
                blocks.setdefault(rng.randrange(4), []).append(s)
            relations[a] = list(blocks.values())
        valuation = {p: [s for s in states if rng.random() < 0.5] for p in ("p", "q")}
        models.append(Model.make(states, relations, valuation))
    fs = formulas(["p", "q"], seed=14, count=60)
    assert_agrees(models, fs)
    batch = Batch(models)
    for f in fs:
        bits = batch.extension(f)
        assert batch.zero_slots(bits) == sum(not ext for ext in per_model(batch, bits))


def test_witness_is_first_model_and_least_state():
    models = [fig1_core(), fig1()]
    batch = Batch(models)
    f = parse("K1 p", AG)
    bad = batch.full & ~batch.extension(f)
    k, state = batch.lowest(bad)
    ext = Evaluator(models[k]).extension(f)
    assert Evaluator(models[0]).extension(f) != models[0].states
    assert (k, state) == (0, min(models[0].states - ext))
    assert list(batch.firsts(bad)) == [
        (i, min(m.states - Evaluator(m).extension(f))) for i, m in enumerate(models)]


def test_batch_rejects_mixed_models():
    small = model_list(1, ("1",), ())[0]
    with pytest.raises(ValueError, match="one size"):
        Batch([small, fig1()])
    with pytest.raises(ValueError, match="at least one"):
        Batch([])


# ---------------------------------------------------------------------------
# one error type for undeclared agents


@pytest.mark.parametrize("text", ["K2 p", "D{1,2} p", "C{1,2} p", "R{1,2} p", "C{2} K1 p"])
def test_undeclared_agent_is_a_value_error_everywhere(text):
    m = Model.make(["a", "b"], {"1": [["a", "b"]]}, {"p": ["a"]})
    f = parse(text, AG)
    evaluators = [checker.Evaluator(m).extension, checker.PseudoEvaluator(as_premodel(m)).extension,
                  Batch([m]).extension]
    for extension in evaluators:
        with pytest.raises(ValueError, match="undeclared agent '2'"):
            extension(f)


# ---------------------------------------------------------------------------
# sweeps: batched against a model-by-model reference loop


def reference_first_failures(tracked, models):
    still_valid = set(tracked)
    examined = 0
    for m in models:
        examined += 1
        if not still_valid:
            break
        ev = Evaluator(m)
        for f in list(still_valid):
            ext = ev.extension(f)
            if ext != m.states:
                tracked[f] = PointedModel(m, min(m.states - ext))
                still_valid.discard(f)
    return examined


def reference_rrc_sweep(instances, models):
    premise_hits, found, examined = 0, [], 0
    for m in models:
        examined += 1
        ev = Evaluator(m)
        for j, (phi, everybody, boxed_psi, boxed_c) in enumerate(instances):
            phi_ext = ev.extension(phi)
            if not (phi_ext <= ev.extension(everybody) and phi_ext <= ev.extension(boxed_psi)):
                continue
            premise_hits += 1
            conclusion_ext = ev.extension(boxed_c)
            if not phi_ext <= conclusion_ext:
                found.append((m, j, min(phi_ext - conclusion_ext)))
    return premise_hits, found, examined


def both_ways(monkeypatch, run):
    batched = run().to_dict()
    with monkeypatch.context() as patch:
        patch.setattr(search, "_first_failures", reference_first_failures)
        patch.setattr(search, "_rrc_sweep", reference_rrc_sweep)
        reference = run().to_dict()
    return batched, reference


@pytest.mark.parametrize("system", ["rd", "rcd"])
def test_schema_reports_match_reference(monkeypatch, system):
    bounds = SearchBounds(3, ("1", "2"), ("p",), seed=1, instance_count=6)
    batched, reference = both_ways(monkeypatch, lambda: check_schema(system, bounds))
    assert batched == reference


@pytest.mark.parametrize("system, name, mutant", [("rd", "RD1", corrupt_rd1), ("rd", "T_D", drop_t_d),
                                                   ("rcd", "C1", break_c1)])
def test_mutant_reports_match_reference(monkeypatch, system, name, mutant):
    bounds = SearchBounds(4, ("1", "2"), ("p",), instance_count=10)
    batched, reference = both_ways(monkeypatch, lambda: check_schema(
        system, bounds, override={name: mutant}, schemas=[name], include_rules=False))
    assert batched["schemata"][0]["violations"]
    assert batched == reference


@pytest.mark.parametrize("max_states", [1, 2, 3])
def test_models_examined_when_every_instance_fails(monkeypatch, max_states):
    # at one state, ~p first fails on the last model, so the per-model
    # loop runs out instead of stopping on the model after it
    def never_valid(gen):
        return gen.rng.choice([parse("p"), parse("~p"), parse("K1 p"), parse("~K2 ~p"), And(parse("p"), gen.formula())])

    bounds = SearchBounds(max_states, ("1", "2"), ("p",), instance_count=12)
    batched, reference = both_ways(monkeypatch, lambda: check_schema(
        "rd", bounds, override={"T": never_valid}, schemas=["T"], include_rules=False))
    (result,) = batched["schemata"]
    assert len(result["violations"]) == result["instances"]
    assert "~p" in [v["instance"] for v in result["violations"]]
    assert batched == reference
    if max_states == 1:
        assert batched["models_examined"] == 2


def test_rrc_report_matches_reference(monkeypatch):
    bounds = SearchBounds(4, ("1", "2"), ("p",), seed=2, instance_count=8)
    batched, reference = both_ways(monkeypatch, lambda: check_rule_rrc(bounds))
    assert batched["premise_hits"] > 0
    assert batched == reference


def test_rrc_sweep_violations_match_reference():
    # unsound "conclusions" make violations in many (model, instance) pairs
    gen = FormulaGen(["1", "2"], ["p"], seed=3, depth=2)
    instances = []
    for _ in range(12):
        phi, h = gen.formula(), gen.group()
        instances.append((phi, E(h, phi), gen.formula(), gen.formula()))
    models = model_list(3, ("1", "2"), ("p",))
    batched = search._rrc_sweep(instances, models)
    assert batched[1]
    assert batched == reference_rrc_sweep(instances, models)


# ---------------------------------------------------------------------------
# re-importing the package must not keep old copies alive


def test_reimports_do_not_leak_model_classes():
    saved = {n: mod for n, mod in sys.modules.items() if n == "epiresolve" or n.startswith("epiresolve.")}
    refs = []
    try:
        for _ in range(20):
            for name in [n for n in sys.modules if n == "epiresolve" or n.startswith("epiresolve.")]:
                del sys.modules[name]
            refs.append(weakref.ref(importlib.import_module("epiresolve").Model))
    finally:
        for name in [n for n in sys.modules if n == "epiresolve" or n.startswith("epiresolve.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 1
