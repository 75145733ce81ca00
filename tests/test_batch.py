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
from epiresolve.fixtures import fig1, fig1_core
from epiresolve.kripke import Model, as_premodel
from epiresolve.search import FormulaGen, SearchBounds, check_rule_rrc, check_schema, enumerate_models
from epiresolve.syntax import TRUE, And, parse

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
    return [frozenset(s for i, s in enumerate(sorted(m.states)) if bits >> k * batch.width + i & 1)
            for k, m in enumerate(batch.models)]


def assert_rows(batch, bits):
    """`rows` folds bits to the models holding a state, and `least` finds each one's least state."""
    split = per_model(batch, bits)
    assert batch.rows(bits) == sum(1 << k for k, states in enumerate(split) if states)
    for k, states in enumerate(split):
        if states:
            assert batch.least(bits, k) == min(states)


def assert_agrees(models, fs):
    for batch in ModelBatches(models):
        for f in fs:
            expected = [Evaluator(m).extension(f) for m in batch.models]
            assert per_model(batch, batch.extension(f)) == expected, f


def test_batches_are_consecutive_equal_sized_and_capped():
    models = model_list(4, ("1", "2"), ("p",))
    batches = list(ModelBatches(models))
    assert [m for b in batches for m in b.models] == list(models)
    assert all(len({len(m.states) for m in b.models}) == 1 for b in batches)
    assert max(len(b.models) for b in batches) == BATCH_MODELS


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
        assert_rows(batch, bits)
        assert_rows(batch, batch.full & ~bits)


def test_witness_is_first_model_and_least_state():
    models = [fig1_core(), fig1()]
    batch = Batch(models)
    f = parse("K1 p", AG)
    bad = batch.full & ~batch.extension(f)
    assert batch.rows(bad) == 0b11
    assert [batch.least(bad, k) for k in range(2)] == [
        min(m.states - Evaluator(m).extension(f)) for m in models]
    assert batch.rows(0) == 0


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


def reference_first_failures(formulas, models):
    """`_sweep(formulas, models, first_only=True)`, model by model: each model is a batch of one."""
    still_valid = set(range(len(formulas)))
    for k, m in enumerate(models):
        if not still_valid:
            break
        ev = Evaluator(m)
        bad = {}
        for j in sorted(still_valid):
            ext = ev.extension(formulas[j])
            if ext != m.states:
                bad[j] = m.states - ext
        still_valid -= set(bad)
        yield k, [m], [int(j in bad) for j in range(len(formulas))], lambda j, _, bad=bad: min(bad[j])


def reference_rrc_sweep(formulas, models):
    """`_sweep(formulas, models)`, model by model: every model where each formula fails."""
    for k, m in enumerate(models):
        ev = Evaluator(m)
        bad = [m.states - ev.extension(f) for f in formulas]
        yield k, [m], [int(bool(b)) for b in bad], lambda j, _, bad=bad: min(bad[j])


def reference_sweep(formulas, models, first_only=False):
    return (reference_first_failures if first_only else reference_rrc_sweep)(formulas, models)


def both_ways(monkeypatch, run):
    batched = run().to_dict()
    with monkeypatch.context() as patch:
        patch.setattr(search, "_sweep", reference_sweep)
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

    def run():
        return check_schema("rd", bounds, override={"T": never_valid}, schemas=["T"], include_rules=False)

    bounds = SearchBounds(max_states, ("1", "2"), ("p",), instance_count=12)
    batched, reference = both_ways(monkeypatch, run)
    (result,) = batched["schemata"]
    assert len(result["violations"]) == result["instances"]
    assert "~p" in [v["instance"] for v in result["violations"]]
    assert batched == reference
    models = list(enumerate_models(bounds))
    firsts = [next(k for k, m in enumerate(models) if Evaluator(m).extension(v.instance) != m.states)
              for v in run().schemata[0].violations]
    assert batched["models_examined"] == min(max(firsts) + 2, len(models))
    if max_states == 1:
        assert batched["models_examined"] == 2


def test_rrc_report_matches_reference(monkeypatch):
    bounds = SearchBounds(4, ("1", "2"), ("p",), seed=2, instance_count=8)
    batched, reference = both_ways(monkeypatch, lambda: check_rule_rrc(bounds))
    assert batched["premise_hits"] > 0
    assert batched == reference


def test_rrc_sweep_violations_match_reference(monkeypatch):
    # without E_H phi in the premise the conclusion is unsound: violations
    # in many (model, instance) pairs
    monkeypatch.setattr(search, "E", lambda group, body: TRUE)
    bounds = SearchBounds(3, ("1", "2"), ("p",), seed=3, instance_count=12)
    batched, reference = both_ways(monkeypatch, lambda: check_rule_rrc(bounds))
    violations = batched["violations"]
    assert len(violations) > 40 and len({v["conclusion"] for v in violations}) > 1
    assert batched == reference

    # a plain loop over (model, instance) pairs; each instance sweeps its premise, then its conclusion
    real, swept = search._sweep, []
    monkeypatch.setattr(search, "_sweep", lambda fs, models: swept.append(fs) or real(fs, models))
    report = check_rule_rrc(bounds)
    (formulas,) = swept
    hits, found = 0, []
    for m in enumerate_models(bounds):
        ev = Evaluator(m)
        for premise, conclusion in zip(formulas[::2], formulas[1::2]):
            if ev.extension(premise) == m.states:
                hits += 1
                bad = m.states - ev.extension(conclusion)
                if bad:
                    found.append((m, premise, conclusion, min(bad)))
    assert report.premise_hits == hits
    assert [(v.model, v.premise, v.instance, v.state) for v in report.violations] == found


# ---------------------------------------------------------------------------
# re-importing the package must not keep old copies alive


def test_reimports_do_not_leak_model_classes():
    saved = {n: mod for n, mod in sys.modules.items() if n == "epiresolve" or n.startswith("epiresolve.")}
    refs = []
    try:
        for _ in range(20):
            for name in [n for n in sys.modules if n == "epiresolve" or n.startswith("epiresolve.")]:
                del sys.modules[name]
            package = importlib.import_module("epiresolve")
            # a witness query fills the copy's search store and leaves its class generator suspended
            assert package.find_model(package.parse("p & ~K1 p"), package.SearchBounds(3)).found
            assert package._iso._store(("1",), ("p",))._rows is not None
            refs.append(weakref.ref(package.Model))
    finally:
        for name in [n for n in sys.modules if n == "epiresolve" or n.startswith("epiresolve.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 1
