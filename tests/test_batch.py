"""The batched engine against the reference Evaluator, and the sweeps built on it.

`reference_evaluator.Evaluator`, which shares no evaluation code with the
engine, is the oracle: every extension of a batch of index rows packed by
`_iso._Batch` must equal its per-model extension, and every sweep report
must equal the report of a plain model-by-model loop (kept below) over
`enumerate_models`.
"""

import gc
import importlib
import random
import sys
import weakref
from itertools import islice

import pytest

from epiresolve import checker, search
from epiresolve._iso import _labelled, _model, _slot_bytes, _stream, _values
from epiresolve.batch import BATCH_MODELS
from epiresolve.checker import Context
from epiresolve.kripke import Model, as_premodel
from epiresolve.search import FormulaGen, SearchBounds, check_rule_rrc, check_schema, enumerate_models
from epiresolve.syntax import TRUE, And, parse

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


def packed_batches(n, rows, agents, atoms):
    """(models, root context) of each run of BATCH_MODELS n-state index rows, as `_stream` packs them."""
    rows, start = list(rows), 0
    for batch in _stream([(n, idx, 1) for idx in rows], agents, atoms, BATCH_MODELS):
        yield [_model(n, idx, agents, atoms) for idx in rows[start:start + len(batch)]], Context(batch)
        start += len(batch)


def labelled_batches(max_states, agents, atoms):
    """`packed_batches` over every labelled row up to max_states, in `enumerate_models` order."""
    for n in range(1, max_states + 1):
        yield from packed_batches(n, _labelled(n, len(agents), len(atoms)), agents, atoms)


def per_model(models, bits):
    """Split a batch extension into each model's set of states."""
    width = 8 * _slot_bytes(len(models[0].states))
    return [frozenset(s for i, s in enumerate(sorted(m.states)) if bits >> k * width + i & 1)
            for k, m in enumerate(models)]


def assert_agrees(batches, fs):
    for models, root in batches:
        for f in fs:
            expected = [Evaluator(m).extension(f) for m in models]
            assert per_model(models, root.extension(f)) == expected, f


def test_labelled_batches_are_the_enumeration_in_order():
    bounds = SearchBounds(4, ("1", "2"), ("p",))
    batches = [models for models, _ in labelled_batches(4, ("1", "2"), ("p",))]
    assert [m for models in batches for m in models] == list(enumerate_models(bounds))
    assert all(len({len(m.states) for m in models}) == 1 for models in batches)
    assert max(map(len, batches)) == BATCH_MODELS


def test_agrees_with_evaluator_three_states_two_atoms():
    assert_agrees(labelled_batches(3, ("1", "2"), ("p", "q")), formulas(["p", "q"], seed=11, count=30))


def test_agrees_with_evaluator_four_states_one_atom():
    assert_agrees(labelled_batches(4, ("1", "2"), ("p",)), formulas(["p"], seed=12, count=30))


def test_a_batch_packs_a_relation_when_a_formula_first_reads_it():
    ((models, root),) = packed_batches(3, islice(_labelled(3, 2, 1), 40), ("1", "2"), ("p",))
    root.extension(parse("K1 p", AG))
    assert list(root.alg.rels) == ["1"]
    f = parse("D{1,2} p", AG)  # read by a second root context, which shares the batch's map
    assert per_model(models, Context(root.alg).extension(f)) == [Evaluator(m).extension(f) for m in models]
    assert set(root.alg.rels) == {"1", "2", frozenset({"1", "2"})}


def assert_rows(models, batch, bits):
    """`rows` folds bits to the rows holding a state, and `points` finds each such row, its model and least state."""
    split = per_model(models, bits)
    assert batch.rows(bits) == sum(1 << k for k, states in enumerate(split) if states)
    points = [(k, models[k], min(states)) for k, states in enumerate(split) if states]
    assert list(batch.points(bits)) == points
    among = sum(1 << k for k in range(0, len(models), 3))  # every third row
    assert list(batch.points(bits, among)) == [point for point in points if point[0] % 3 == 0]


def test_agrees_with_evaluator_on_multi_byte_slots():
    # nine states need two bytes per model slot
    rng = random.Random(5)
    bell = len(_values(9)[1])
    rows = [(rng.randrange(bell), rng.randrange(bell), rng.randrange(512), rng.randrange(512)) for _ in range(6)]
    fs = formulas(["p", "q"], seed=14, count=60)
    batches = list(packed_batches(9, rows, ("1", "2"), ("p", "q")))
    assert_agrees(batches, fs)
    ((models, root),) = batches
    for f in fs:
        bits = root.extension(f)
        assert_rows(models, root.alg, bits)
        assert_rows(models, root.alg, root.alive & ~bits)


def test_sweep_rows_and_least_states_match_evaluator():
    bounds = SearchBounds(3, ("1", "2"), ("p",))
    fs = formulas(["p"], seed=15, count=20) + [TRUE]
    seen = []
    for start, batch, bad in search._sweep(fs, bounds):
        models = [batch.model(k) for k in range(len(batch))]
        for j, f in enumerate(fs):
            want = [m.states - Evaluator(m).extension(f) for m in models]
            assert batch.rows(bad[j]) == sum(1 << k for k, states in enumerate(want) if states), f
            assert [state for _, _, state in batch.points(bad[j])] == [min(states) for states in want if states]
        assert bad[-1] == batch.rows(bad[-1]) == 0
        assert start == len(seen)
        seen += models
    assert seen == list(enumerate_models(bounds))


def test_a_finished_batch_is_freed_at_once():
    # a batch refers to no context and its models to no batch: without a cycle it goes with its last reference
    gc.disable()
    try:
        (batch,) = _stream([(2, (0, 1), 1), (2, (1, 2), 1)], ("1",), ("p",))
        ext = Context(batch).extension(parse("R{1} ~K1 p", {"1"}))
        assert [(k, state) for k, _, state in batch.points(ext)] == [(0, "0"), (1, "0")]
        freed = weakref.ref(batch)
        del batch
        assert freed() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one error type for undeclared agents


@pytest.mark.parametrize("text", ["K2 p", "D{1,2} p", "C{1,2} p", "R{1,2} p", "C{2} K1 p"])
def test_undeclared_agent_is_a_value_error_everywhere(text):
    m = Model.make(["a", "b"], {"1": [["a", "b"]]}, {"p": ["a"]})
    f = parse(text, AG)
    # the same model as an index row: one block, p at state 0
    ((_, root),) = packed_batches(2, [(0, 1)], ("1",), ("p",))
    evaluators = [checker.Evaluator(m).extension, checker.PseudoEvaluator(as_premodel(m)).extension,
                  root.extension]
    for extension in evaluators:
        with pytest.raises(ValueError, match="undeclared agent '2'"):
            extension(f)


# ---------------------------------------------------------------------------
# sweeps: batched against a model-by-model reference loop


class OneModel:
    """A model as a batch of one row, its extensions sets of states: what the reference sweeps yield."""

    def __init__(self, m):
        self.m = m

    def __len__(self):
        return 1

    def rows(self, states):
        return int(bool(states))

    def points(self, states, among=-1):
        if states and among & 1:
            yield 0, self.m, min(states)


def reference_first_failures(formulas, bounds):
    """`_sweep(formulas, bounds, first_only=True)`, model by model: each model is a batch of one."""
    still_valid = set(range(len(formulas)))
    for k, m in enumerate(enumerate_models(bounds)):
        if not still_valid:
            break
        ev = Evaluator(m)
        bad = {}
        for j in sorted(still_valid):
            ext = ev.extension(formulas[j])
            if ext != m.states:
                bad[j] = m.states - ext
        still_valid -= set(bad)
        yield k, OneModel(m), [bad.get(j, 0) for j in range(len(formulas))]


def reference_rrc_sweep(formulas, bounds):
    """`_sweep(formulas, bounds)`, model by model: every model where each formula fails."""
    for k, m in enumerate(enumerate_models(bounds)):
        ev = Evaluator(m)
        yield k, OneModel(m), [m.states - ev.extension(f) for f in formulas]


def reference_sweep(formulas, bounds, first_only=False):
    return (reference_first_failures if first_only else reference_rrc_sweep)(formulas, bounds)


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
    monkeypatch.setattr(search, "_sweep", lambda fs, swept_bounds: swept.append(fs) or real(fs, swept_bounds))
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
            # a witness query fills the copy's replay and leaves its stream suspended
            assert package.find_model(package.parse("p & ~K1 p"), package.SearchBounds(3)).found
            assert package._iso._replay((3, ("1",), ("p",)))._rest is not None
            refs.append(weakref.ref(package.Model))
    finally:
        for name in [n for n in sys.modules if n == "epiresolve" or n.startswith("epiresolve.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 1
