"""The evaluation context against the reference evaluators.

`reference_evaluator` builds every resolved and restricted model; the
engine keeps one context per (map from each agent to the group whose meet
it reads, alive set), and reads each relation from the root's map, inside
the alive set.  They must agree on every extension: for
`Evaluator` and for batches of index rows packed by `_iso._Batch` on
every model up to 3 states x 2 agents x 2 atoms, 4 x 2 x 1 and 3 x 3 x 1,
and for `PseudoEvaluator` on those models' embeddings resolved by every
group, on a sample of the 3-state, 3-agent pseudo-models and on pre-models
whose stored group relations are drawn freely.
"""

import gc
import random
import tracemalloc

import pytest

import reference_evaluator as ref
from epiresolve import checker
from epiresolve.checker import Context, Evaluator, PseudoEvaluator
from epiresolve.kripke import Model, PreModel, all_groups, as_premodel, is_pseudo, iterated_relation, resolve_pre
from epiresolve.search import FormulaGen, enumerate_pseudo_models
from epiresolve.syntax import parse, render

from conftest import model_list
from test_batch import HANDPICKED, labelled_batches, packed_batches, per_model

# resolutions over overlapping and disjoint groups of three agents, around
# announcements and all three modalities; repeated groups, a group repeated
# across an announcement, and groups an announcement's context inherits
HANDPICKED_3 = [
    "R{1,2} R{2,3} K1 p",
    "R{2,3} R{1,2} D{1,3} p",
    "R{1} R{2,3} (K2 p | ~K3 ~p)",
    "R{1,2} [p] R{2,3} C{1,3} p",
    "[~K1 p] R{1,3} R{2} C{1,2} ~p",
    "R{3} [K2 p] R{1,2} ~D{1,2,3} p",
    "R{1,2,3} [p] K3 p",
    "R{1,2} R{1,3} R{1,2} R{1,3} K2 p",
    "R{1,2} [p] R{1,2} K3 p",
    "R{1,3} [K1 p] R{1,2} D{2,3} p",
    "R{1} [p] R{1} C{1,2} p",
]

BOUNDS = [(3, ("1", "2"), ("p", "q")), (4, ("1", "2"), ("p",)), (3, ("1", "2", "3"), ("p",))]


def formulas(agents, atoms, seed, count, allow_ann=True):
    gen = FormulaGen(agents, atoms, seed=seed, depth=3, allow_ann=allow_ann)
    out = [gen.formula() for _ in range(count)]
    texts = HANDPICKED if len(agents) == 2 else HANDPICKED_3
    out += [parse(text, agents) for text in texts if set(atoms) >= {"p", "q"} or "q" not in text]
    if not allow_ann:
        out = [f for f in out if "[" not in render(f)]
    return out


def assert_matches(engine, reference, models, fs):
    for m in models:
        got, want = engine(m), reference(m)
        for f in fs:
            assert got.extension(f) == want.extension(f), (render(f), m)


@pytest.mark.parametrize("bounds", BOUNDS, ids=lambda b: f"{b[0]}x{len(b[1])}x{len(b[2])}")
def test_models_match_reference(bounds):
    models = model_list(*bounds)
    fs = formulas(bounds[1], bounds[2], seed=31, count=40)
    assert_matches(Evaluator, ref.Evaluator, models, fs)
    for batch, root in labelled_batches(*bounds):
        evaluators = [ref.Evaluator(m) for m in batch]
        for f in fs:
            assert per_model(batch, root.extension(f)) == [ev.extension(f) for ev in evaluators], render(f)


@pytest.mark.parametrize("bounds", BOUNDS, ids=lambda b: f"{b[0]}x{len(b[1])}x{len(b[2])}")
def test_resolved_premodels_match_reference(bounds):
    fs = formulas(bounds[1], bounds[2], seed=32, count=15, allow_ann=False)
    groups = all_groups(bounds[1])
    premodels = []
    for m in model_list(*bounds):
        pre = as_premodel(m)
        premodels += [pre] + [resolve_pre(pre, g) for g in groups]
    assert_matches(PseudoEvaluator, ref.PseudoEvaluator, premodels, fs)


def test_pseudo_models_match_reference():
    agents = ("1", "2", "3")
    sample = list(enumerate_pseudo_models(3, agents, ["p"]))[::5]
    assert len(sample) > 1000
    assert_matches(PseudoEvaluator, ref.PseudoEvaluator, sample,
                   formulas(agents, ["p"], seed=33, count=40, allow_ann=False))


def free_premodel(rng):
    """A pre-model of 1-3 states and agents 1-3 whose every relation is drawn on its own: a stored group
    relation, a singleton's included, need not be its members' meet nor refine a smaller group's."""
    states = ["a", "b", "c"][:rng.randint(1, 3)]
    agents = [str(i) for i in range(1, rng.randint(1, 3) + 1)]

    def partition():
        blocks = {}
        for s in states:
            blocks.setdefault(rng.randrange(len(states)), []).append(s)
        return list(blocks.values())

    return PreModel.make(states, {a: partition() for a in agents}, {g: partition() for g in all_groups(agents)},
                         {"p": [s for s in states if rng.random() < 0.5]})


def test_free_premodels_match_reference():
    rng = random.Random(34)
    premodels = [free_premodel(rng) for _ in range(150)]
    assert sum(not is_pseudo(pre) for pre in premodels) > 75
    gens = {k: FormulaGen([str(i) for i in range(1, k + 1)], ["p"], seed=34, depth=3) for k in (1, 2, 3)}
    fs = {k: [gen.formula() for _ in range(60)] for k, gen in gens.items()}
    for pre in premodels:
        assert_matches(PseudoEvaluator, ref.PseudoEvaluator, [pre], fs[len(pre.agents)])


def test_agent_named_by_its_own_resolution_reads_the_group_relation():
    # not a pseudo-model: agent 1's relation differs from group {1}'s, so
    # after R{1} agent 1 reads the stored relation of {1}, as resolve_pre
    # does, even though delta({1}, prefix) is {1}
    pre = PreModel.make(["a", "b"], {"1": [["a", "b"]], "2": [["a", "b"]]},
                        {"1": [["a"], ["b"]], "2": [["a", "b"]], "1,2": [["a"], ["b"]]}, {"p": ["a"]})
    for text in ["K1 p", "R{1} K1 p", "R{1} R{1} K1 p", "R{1} R{2} K1 p", "R{1} D{1} p", "R{1} C{1} p"]:
        f = parse(text)
        assert PseudoEvaluator(pre).extension(f) == ref.PseudoEvaluator(pre).extension(f), text
    assert PseudoEvaluator(pre).extension(parse("R{1} R{2} K1 p")) == {"a"}


def test_alternating_resolutions_take_one_step_per_level():
    # 4,000 alternating levels: after three of them every agent reads the grand coalition's meet, so the
    # levels share one context and only the plan frames grow (about 0.6 MB); a context per level needs
    # about 5 MB, and a context that kept and rescanned its whole resolution prefix about 68 MB
    m = Model.make(["a", "b", "c"], {"1": [["a", "b"], ["c"]], "2": [["a"], ["b", "c"]], "3": [["a", "c"], ["b"]]},
                   {"p": ["a", "b"]})
    f = parse("R{1,2} R{1,3} " * 2000 + "K2 p")
    tracemalloc.start()
    try:
        got = Evaluator(m).extension(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rel = iterated_relation(m, ["1,2", "1,3"] * 2000, "2")
    assert got == {s for s in m.states if rel.block_of(s) <= m.valuation["p"]}
    assert peak < 2e6, peak


def test_a_dropped_context_tree_is_freed_at_once():
    # no context refers back to its parent: with a cycle, every evaluated batch would wait for the cyclic GC
    m = Model.make(["a", "b"], {"1": [["a", "b"]], "2": [["a"], ["b"]]}, {"p": ["a"]})
    f = parse("R{1,2} [p] R{1} K2 p")
    gc.disable()
    try:
        assert Evaluator(m).extension(f) == {"a", "b"}
        left = [ctx for ctx in gc.get_objects() if isinstance(ctx, Context) and getattr(ctx.alg, "model", None) is m]
        assert left == []
    finally:
        gc.enable()


def contexts_on(alg) -> list:
    return [ctx for ctx in gc.get_objects() if isinstance(ctx, Context) and ctx.alg is alg]


def test_a_whole_set_announcement_opens_no_context(monkeypatch):
    # an announcement true on every live state keeps the (map, alive) pair, so its body is the root's
    m = Model.make(["a", "b", "c"], {"1": [["a", "b"], ["c"]], "2": [["a"], ["b", "c"]]}, {"p": ["a", "b"]})
    calls = []
    monkeypatch.setattr(checker._Sets, "restrict", staticmethod(lambda rel, alive: calls.append(alive) or rel))
    f = parse("[p | ~p] (K1 p & K2 p & D{1,2} p)")
    ev = Evaluator(m)
    assert ev.extension(f) == ref.Evaluator(m).extension(f)
    assert calls == [] and contexts_on(ev.alg) == [ev]


def test_equal_contexts_reached_by_different_prefixes_are_one():
    # R{i} keeps a model's map, R{1,2} R{1} is R{1,2}, and R{1} R{2} is R{2} R{1}: two contexts in all
    f = parse("R{1} R{2} K1 p & R{2} R{1} K1 p & R{1,2} R{1} K2 p & R{1,2} K2 p")
    m = Model.make(["a", "b", "c"], {"1": [["a", "b"], ["c"]], "2": [["a"], ["b", "c"]]}, {"p": ["a", "b"]})
    ev = Evaluator(m)
    assert ev.extension(f) == ref.Evaluator(m).extension(f)
    assert len(contexts_on(ev.alg)) == 2
    rows = [(0, 1, 1), (1, 0, 2), (1, 1, 3)]  # two states, agents 1 and 2, atom p
    ((models, root),) = packed_batches(2, rows, ("1", "2"), ("p",))
    assert per_model(models, root.extension(f)) == [ref.Evaluator(m).extension(f) for m in models]
    assert len(contexts_on(root.alg)) == 2


@pytest.mark.parametrize("text", ["R{1} K2 p", "R{1} D{1,2} p", "R{1} C{2} p", "R{1} R{2} p",
                                  "[p] K2 p", "[p] D{1,2} p", "[p] C{1,2} p", "[p] R{1,2} p",
                                  "R{1} [p] R{2} p", "[false] K2 p", "[p & ~p] R{2} p"])
def test_undeclared_agent_in_child_contexts(text):
    m = Model.make(["a", "b"], {"1": [["a", "b"]]}, {"p": ["a"]})
    f = parse(text)
    ((_, root),) = packed_batches(2, [(0, 1)], ("1",), ("p",))  # m as an index row
    engines = [Evaluator(m).extension, root.extension]
    if "[" not in text:
        engines.append(PseudoEvaluator(as_premodel(m)).extension)
    for extension in engines:
        with pytest.raises(ValueError, match="undeclared agent '2'"):
            extension(f)


@pytest.mark.parametrize("text", ["[K9 p] p", "[C{1,9} p] p", "R{1} [p] p", "~(p & [p] p)"])
def test_premodel_rejects_announcements_before_their_antecedent(text):
    pre = as_premodel(Model.make(["a", "b"], {"1": [["a", "b"]]}, {"p": ["a"]}))
    with pytest.raises(ValueError, match="pseudo satisfaction is undefined for announcements"):
        PseudoEvaluator(pre).extension(parse(text))
