from dataclasses import replace

import pytest

from epiresolve.checker import (
    Evaluator,
    PointedModel,
    PseudoEvaluator,
    equivalent_on,
    extension,
    points_of,
    satisfies,
    satisfies_pseudo,
)
from epiresolve.kripke import all_groups, as_premodel
from epiresolve.search import FormulaGen
from epiresolve.syntax import (
    FALSE,
    TRUE,
    And,
    Ann,
    Atom,
    C,
    D,
    E,
    Iff,
    K,
    Neg,
    R,
    parse,
    render,
)

from conftest import model_list

AG = {"1", "2"}
p = Atom("p")


def grp(csv):
    return frozenset(csv.split(","))


class TestSatisfies:
    def test_resolution_makes_knowledge(self, FIG1):
        assert satisfies(FIG1, "t", parse("R{1,2}(p & K1 p)", AG)) is True

    def test_moore_sentence_distributed(self, FIG1):
        assert satisfies(FIG1, "t", parse("D{1,2}(p & ~K1 p)", AG)) is True

    def test_truth_constant(self, FIG1):
        assert satisfies(FIG1, "s", TRUE) is True

    def test_unknown_state_rejected(self, FIG1):
        with pytest.raises(ValueError, match="unknown state"):
            satisfies(FIG1, "z", p)

    def test_announcement_vacuous_on_false_antecedent(self, FIG1):
        # s does not satisfy p, so any announcement of p holds there
        assert satisfies(FIG1, "s", parse("[p] false", AG)) is True
        assert satisfies(FIG1, "t", parse("[p] false", AG)) is False

    def test_announcement_restricts(self, FIG1):
        # after announcing p the s-and-u doubt is gone: agent 1 knows p
        assert satisfies(FIG1, "t", parse("K1 p", AG)) is False
        assert satisfies(FIG1, "t", parse("[p] K1 p", AG)) is True

    def test_missing_atom_is_everywhere_false(self, FIG1):
        assert extension(FIG1, Atom("q")) == frozenset()

    def test_nested_announcements(self, FIG1):
        # announcing p, then p again, is as good as announcing it once
        once = parse("[p] K1 p", AG)
        twice = parse("[p] [p] K1 p", AG)
        for s in sorted(FIG1.states):
            assert satisfies(FIG1, s, once) == satisfies(FIG1, s, twice)


class TestSatisfiesPseudo:
    def test_agrees_with_model_on_embedding(self, FIG1):
        f = parse("D{1,2}(p & ~K1 p)", AG)
        assert satisfies_pseudo(as_premodel(FIG1), "t", f) is True

    def test_k_equals_singleton_d_on_pseudo_models(self, FIG1):
        pre = as_premodel(FIG1)
        for s in pre.states:
            assert satisfies_pseudo(pre, s, K("1", p)) == satisfies_pseudo(
                pre, s, D(grp("1"), p)
            )

    def test_common_knowledge_in_core(self, CORE):
        assert satisfies_pseudo(as_premodel(CORE), "t", C(grp("1,2"), p)) is True

    def test_announcements_rejected(self, FIG1):
        # an announcement with an empty extension (false, or an atom that
        # holds nowhere) is rejected too, not read as vacuously true
        for f in (Ann(p, p), Ann(FALSE, p), Ann(Atom("q"), p)):
            with pytest.raises(ValueError, match="announcement"):
                satisfies_pseudo(as_premodel(FIG1), "t", f)


class TestExtension:
    def test_atom(self, FIG1):
        assert extension(FIG1, p) == {"t", "v", "w"}

    def test_nobody_knows_p(self, FIG1):
        assert extension(FIG1, K("1", p)) == frozenset()

    def test_truth(self, FIG1):
        assert extension(FIG1, TRUE) == FIG1.states


class TestEquivalentOn:
    def test_singleton_resolution(self, FIG1):
        f = parse("K1 p & K2 ~p", AG)
        assert equivalent_on(points_of(FIG1), R(grp("1"), f), f) is True

    def test_resolution_commutes_with_negation(self, FIG1):
        lhs = parse("R{1,2} ~p", AG)
        rhs = parse("~R{1,2} p", AG)
        assert equivalent_on(points_of(FIG1), lhs, rhs) is True

    def test_grand_coalition_collapse(self, FIG1):
        lhs = parse("R{1,2} C{1,2} p", AG)
        rhs = parse("R{1,2} D{1,2} p", AG)
        assert equivalent_on(points_of(FIG1), lhs, rhs) is True

    def test_reports_first_disagreement(self, FIG1):
        out = equivalent_on(points_of(FIG1), p, TRUE)
        assert isinstance(out, PointedModel)
        assert out.state == "s"


def _holds_everywhere(models, f):
    for m in models:
        ev = Evaluator(m)
        if ev.extension(f) != m.states:
            return m
    return None


class TestReductionPrinciples:
    """The seven reduction validities, spot-checked at small bounds."""

    def setup_method(self):
        self.models = model_list(2, ("1", "2"), ("p",))
        self.gen = FormulaGen(["1", "2"], ["p"], seed=5, allow_c=True, allow_r=True)

    def _assert_valid(self, make):
        for _ in range(60):
            f = make(self.gen)
            bad = _holds_everywhere(self.models, f)
            assert bad is None, render(f)

    def test_atoms(self):
        self._assert_valid(lambda g: Iff(R(g.group(), p), p))

    def test_conjunction(self):
        self._assert_valid(
            lambda g: (lambda gr, a, b: Iff(R(gr, And(a, b)), And(R(gr, a), R(gr, b))))(
                g.group(), g.formula(), g.formula()
            )
        )

    def test_negation(self):
        self._assert_valid(
            lambda g: (lambda gr, a: Iff(R(gr, Neg(a)), Neg(R(gr, a))))(g.group(), g.formula())
        )

    def test_knowledge_inside(self):
        def make(g):
            gr = g.group()
            i = g.rng.choice(sorted(gr))
            a = g.formula()
            return Iff(R(gr, K(i, a)), D(gr, R(gr, a)))

        self._assert_valid(make)

    def test_knowledge_outside(self):
        def make(g):
            while True:
                gr, i = g.group(), g.agent()
                if i not in gr:
                    break
            a = g.formula()
            return Iff(R(gr, K(i, a)), K(i, R(gr, a)))

        self._assert_valid(make)

    def test_distributed_overlapping(self):
        def make(g):
            gr, h = g.overlapping_pair()
            a = g.formula()
            return Iff(R(gr, D(h, a)), D(gr | h, R(gr, a)))

        self._assert_valid(make)

    def test_distributed_disjoint(self):
        def make(g):
            gr, h = g.disjoint_pair()
            a = g.formula()
            return Iff(R(gr, D(h, a)), D(h, R(gr, a)))

        self._assert_valid(make)


class TestResolutionAndCommonKnowledge:
    def test_disjoint_groups_commute(self):
        models = model_list(2, ("1", "2", "3"), ("p",))
        gen = FormulaGen(["1", "2", "3"], ["p"], seed=9, allow_c=True, allow_r=True)
        for _ in range(40):
            g, h = gen.disjoint_pair()
            a = gen.formula()
            f = Iff(R(g, C(h, a)), C(h, R(g, a)))
            assert _holds_everywhere(models, f) is None, render(f)

    def test_contained_group_collapses(self):
        models = model_list(2, ("1", "2", "3"), ("p",))
        gen = FormulaGen(["1", "2", "3"], ["p"], seed=13, allow_c=True, allow_r=True)
        for _ in range(40):
            h, g = gen.nested_pair()  # h inside g
            i = gen.rng.choice(sorted(g))
            a = gen.formula()
            lhs = R(g, C(h, a))
            for rhs in (R(g, K(i, a)), D(g, R(g, a))):
                f = Iff(lhs, rhs)
                assert _holds_everywhere(models, f) is None, render(f)


def test_monotone_knowledge_chain():
    # common implies mutual implies individual implies distributed knowledge
    gen = FormulaGen(["1", "2"], ["p"], seed=21, allow_c=True, allow_r=True)
    groups = all_groups(["1", "2"])
    for m in model_list(2, ("1", "2"), ("p",)):
        ev = Evaluator(m)
        for _ in range(10):
            a = gen.formula()
            for g in groups:
                c_ext = ev.extension(C(g, a))
                e_ext = ev.extension(E(g, a))
                assert c_ext <= e_ext
                for i in sorted(g):
                    k_ext = ev.extension(K(i, a))
                    assert e_ext <= k_ext
                    assert k_ext <= ev.extension(D(g, a))


def test_embedding_agreement_small():
    gen = FormulaGen(["1", "2"], ["p"], seed=2, depth=3, allow_c=True, allow_r=True)
    formulas = [gen.formula() for _ in range(120)]
    for m in model_list(2, ("1", "2"), ("p",)):
        ev, pev = Evaluator(m), PseudoEvaluator(as_premodel(m))
        for f in formulas:
            assert ev.extension(f) == pev.extension(f), render(f)


def test_a_premodel_without_a_stored_group_relation_is_refused():
    # raw-constructed: PreModel.make stores every group, and D never reads the members' meet instead
    pre = as_premodel(model_list(2, ("1", "2"), ("p",))[7])
    stored = {g: rel for g, rel in pre.group_relations.items() if g != grp("1,2")}
    with pytest.raises(KeyError):
        PseudoEvaluator(replace(pre, group_relations=stored))


@pytest.mark.parametrize("text", ["K2 p", "R{1} K2 p"])
def test_a_raw_model_without_an_agents_relation_is_refused_by_name(text):
    # raw-constructed: Model.make stores every declared agent's relation
    m = model_list(2, ("1", "2"), ("p",))[7]
    lacking = replace(m, relations={"1": m.relations["1"]})
    for raw in (lacking, replace(as_premodel(m), relations=lacking.relations)):
        with pytest.raises(ValueError, match="no relation for agent '2'"):
            extension(raw, parse(text, AG))


def test_evaluation_is_deterministic():
    m = model_list(2, ("1", "2"), ("p",))[7]
    f = parse("R{1,2} (C{1,2} p | [p] K1 p)", AG)
    assert extension(m, f) == extension(m, f)
    assert Evaluator(m).extension(f) == Evaluator(m).extension(f)


def naive_satisfies(m, s, f):
    """Per-state transcription of the satisfaction clauses, no caching.

    Independent of the extension-based evaluator: quantifies over blocks
    state by state and rebuilds updated models on every visit.
    """
    from epiresolve.kripke import common_relation, group_relation, resolve, restrict
    from epiresolve.syntax import Bot, Top

    if isinstance(f, Atom):
        return s in m.valuation.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not naive_satisfies(m, s, f.body)
    if isinstance(f, And):
        return naive_satisfies(m, s, f.left) and naive_satisfies(m, s, f.right)
    if isinstance(f, K):
        return all(naive_satisfies(m, t, f.body) for t in m.relations[f.agent].block_of(s))
    if isinstance(f, D):
        return all(naive_satisfies(m, t, f.body) for t in group_relation(m, f.group).block_of(s))
    if isinstance(f, C):
        return all(naive_satisfies(m, t, f.body) for t in common_relation(m, f.group).block_of(s))
    if isinstance(f, R):
        return naive_satisfies(resolve(m, f.group), s, f.body)
    if isinstance(f, Ann):
        if not naive_satisfies(m, s, f.announced):
            return True
        keep = frozenset(t for t in m.states if naive_satisfies(m, t, f.announced))
        return naive_satisfies(restrict(m, keep), s, f.body)
    raise TypeError(f)


def test_evaluator_agrees_with_naive_recursion():
    gen = FormulaGen(["1", "2"], ["p"], seed=17, depth=3,
                     allow_c=True, allow_r=True, allow_ann=True)
    models = model_list(2, ("1", "2"), ("p",))
    for _ in range(60):
        f = gen.formula()
        for m in models[:: 3]:
            ext = extension(m, f)
            for s in sorted(m.states):
                assert (s in ext) == naive_satisfies(m, s, f), render(f)
