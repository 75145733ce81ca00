import copy
import gc
import os
import pickle
import sys
import threading
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiresolve import syntax
from epiresolve.syntax import (
    FALSE,
    TRUE,
    And,
    Ann,
    Atom,
    Bot,
    C,
    D,
    E,
    Iff,
    Implies,
    K,
    LanguageTag,
    Neg,
    Or,
    ParseError,
    R,
    Top,
    agents,
    as_group,
    atoms,
    closure,
    group_key,
    language_of,
    parse,
    reduce,
    render,
    subformulas,
)

AG = {"1", "2", "3"}
p, q = Atom("p"), Atom("q")


def grp(csv):
    return frozenset(csv.split(","))


class TestParse:
    def test_resolution_over_conjunction(self):
        assert parse("R{1,2}(p & K1 p)", AG) == R(grp("1,2"), And(p, K("1", p)))

    def test_distributed_knowledge(self):
        assert parse("D{1,2}(p & ~K1 p)", AG) == D(grp("1,2"), And(p, Neg(K("1", p))))

    def test_empty_group_rejected(self):
        with pytest.raises(ParseError, match="empty group"):
            parse("R{}(p)", AG)

    def test_undeclared_agent(self):
        with pytest.raises(ParseError, match="undeclared agent '4'"):
            parse("D{1,4} p", AG)
        with pytest.raises(ParseError, match="undeclared agent"):
            parse("K 4 p", AG)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("p & & q", AG)
        assert info.value.position == 4

    def test_precedence(self):
        assert parse("p & q | r", AG) == Or(And(p, q), Atom("r"))
        assert parse("~p & q", AG) == And(Neg(p), q)
        assert parse("K1 p & q", AG) == And(K("1", p), q)
        assert parse("p -> q -> r", AG) == Implies(p, Implies(q, Atom("r")))
        assert parse("p <-> q", AG) == Iff(p, q)
        assert parse("p | q -> r", AG) == Implies(Or(p, q), Atom("r"))

    def test_announcement(self):
        assert parse("[p] K1 p", AG) == Ann(p, K("1", p))
        assert parse("[p & q] r", AG) == Ann(And(p, q), Atom("r"))

    def test_constants(self):
        assert parse("true", AG) == TRUE
        assert parse("false & p", AG) == And(FALSE, p)

    def test_k_spelling_variants(self):
        spaced = parse("K 1 p", AG)
        fused = parse("K1 p", AG)
        assert spaced == fused == K("1", p)

    def test_k_prefixed_atom_stays_atom(self):
        assert parse("King", AG) == Atom("King")

    def test_fused_undeclared_agent_before_a_formula(self):
        # K<id> on an id outside the universe is an atom, and an atom followed
        # by a formula is an error anyway: name the agent instead of the token
        for text in ("K4 p", "K4 (p)", "K4 ~p", "K4 [p] q", "p & K4 K1 q"):
            with pytest.raises(ParseError, match="undeclared agent '4'"):
                parse(text, AG)
        with pytest.raises(ParseError, match="undeclared agent '1'") as info:
            parse("K1 p", frozenset())
        assert info.value.position == 1
        assert parse("K4", AG) == Atom("K4")
        assert parse("Kp & q", AG) == And(Atom("Kp"), q)
        assert parse("K4 -> p", AG) == Implies(Atom("K4"), p)
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse("K4 &", AG)

    def test_inferred_agents(self):
        assert parse("K1 p & D{2,3} q") == And(K("1", p), D(grp("2,3"), q))

    def test_everybody_knows_desugars(self):
        assert parse("E{1,2} p", AG) == And(K("1", p), K("2", p))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse("p q", AG)

    @pytest.mark.parametrize("text, message, position", [
        ("p $", "unexpected character '$'", 2),
        ("p &", "unexpected end of input", 3),
        ("[p]", "unexpected end of input", 3),
        ("(p", "unexpected end of input (expected ')')", 2),
        ("[p", "unexpected end of input (expected ']')", 2),
        ("(p & [q", "unexpected end of input (expected ']')", 7),
        ("D{1", "unexpected end of input (expected '}')", 3),
        ("K", "unexpected end of input (expected an agent id)", 1),
        ("(p q)", "expected ')' but found 'q'", 3),
        ("((p) & q]", "expected ')' but found ']'", 8),
        ("[p q] r", "expected ']' but found 'q'", 3),
        ("D p", "expected '{' but found 'p'", 2),
        ("D{1 2} p", "expected '}' but found '2'", 4),
        ("p q", "unexpected token 'q'", 2),
        ("p )", "unexpected token ')'", 2),
        ("(p))", "unexpected token ')'", 3),
        ("p & )", "unexpected token ')'", 4),
        ("D{} p", "empty group", 1),
        ("K4 p", "undeclared agent '4'", 1),
        ("K 4 p", "undeclared agent '4'", 2),
        ("D{1,4} p", "undeclared agent '4'", 4),
        ("K ( p", "expected an agent id, found '('", 2),
        ("R{1,} p", "expected an agent id, found '}'", 4),
    ])
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse(text, AG)
        assert (info.value.message, info.value.position) == (message, position)

    def test_mixed_chains(self):
        r, s = Atom("r"), Atom("s")
        assert parse("p <-> q <-> r", AG) == Iff(Iff(p, q), r)
        assert parse("p -> q <-> r", AG) == Iff(Implies(p, q), r)
        assert parse("p <-> q -> r", AG) == Iff(p, Implies(q, r))
        assert parse("p | q & r | s", AG) == Or(Or(p, And(q, r)), s)
        assert parse("[p] q & r", AG) == And(Ann(p, q), r)
        assert parse("~[p] q", AG) == Neg(Ann(p, q))

    def test_nesting_depth_is_unbounded(self):
        depth = 100_000
        assert parse("(" * depth + "p" + ")" * depth) is p
        negated = p
        for _ in range(depth):
            negated = Neg(negated)
        assert parse("~" * depth + "p") is negated


class TestRender:
    def test_operator_spellings(self):
        assert render(R(grp("1,2"), p)) == "R{1,2} p"
        assert render(Neg(Neg(p))) == "~~p"
        assert render(Ann(p, K("1", p))) == "[p] K1 p"

    def test_conjunction_parenthesized_under_modal(self):
        f = R(grp("1,2"), And(p, K("1", p)))
        assert render(f) == "R{1,2} (p & K1 p)"

    def test_left_associated_chain_is_flat(self):
        assert render(And(And(p, q), Atom("r"))) == "p & q & r"
        assert render(And(p, And(q, Atom("r")))) == "p & (q & r)"

    def test_deep_right_nested_conjunction_round_trips(self):
        f = p
        for _ in range(900):
            f = And(p, f)
        assert parse(render(f), AG) is f

    def test_100000_levels_round_trip(self):
        f = p
        for k in range(100_000):
            f = [Neg, partial(K, "1"), partial(R, "1,2"), partial(Ann, q), partial(And, q)][k % 5](f)
        assert parse(render(f), AG) is f


def test_postorder_visits_each_distinct_subformula_once_children_first():
    shared = And(p, q)
    f = Ann(shared, Neg(And(shared, K("1", shared))))
    order = syntax._postorder(f)
    assert len(order) == len(set(order)) == len(subformulas(f))
    assert order[-1] is f and order[:3] == [p, q, shared]
    assert all(order.index(c) < order.index(g) for g in order for c in syntax.children(g))


agent_st = st.sampled_from(sorted(AG))
group_st = st.sets(agent_st, min_size=1).map(frozenset)
formula_st = st.recursive(
    st.one_of(st.builds(Atom, st.sampled_from(["p", "q"])), st.just(TRUE), st.just(FALSE)),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(And, kids, kids),
        st.builds(K, agent_st, kids),
        st.builds(D, group_st, kids),
        st.builds(C, group_st, kids),
        st.builds(R, group_st, kids),
        st.builds(Ann, kids, kids),
    ),
    max_leaves=12,
)


@settings(deadline=None)
@given(formula_st)
def test_parse_render_round_trip(f):
    assert parse(render(f), AG) == f


def test_subformulas():
    assert subformulas(K("1", p)) == {K("1", p), p}
    assert subformulas(And(p, Neg(p))) == {And(p, Neg(p)), p, Neg(p)}
    f = R(grp("1,2"), D(grp("2"), p))
    assert subformulas(f) == {f, D(grp("2"), p), p}


def test_atom_and_agent_accessors():
    f = parse("[q] (K1 p & D{2,3} p)", AG)
    assert atoms(f) == {"p", "q"}
    assert agents(f) == {"1", "2", "3"}


def test_group_normalization():
    assert as_group("2,1") == grp("1,2")
    assert group_key(frozenset(["2", "1"])) == "1,2"
    with pytest.raises(ValueError, match="non-empty"):
        as_group("")


class TestLanguage:
    def test_tags(self):
        assert language_of(parse("K1 p & D{1,2} p", AG)) is LanguageTag.ELD
        assert language_of(parse("C{1,2} p", AG)) is LanguageTag.ELCD
        assert language_of(parse("[p] C{1,2} p", AG)) is LanguageTag.PACD
        assert language_of(parse("R{1,2} D{1} p", AG)) is LanguageTag.RD
        assert language_of(parse("R{1,2} C{1,2} p", AG)) is LanguageTag.RCD
        assert language_of(p) is LanguageTag.ELD

    def test_mixing_resolution_and_announcement_has_no_tag(self):
        with pytest.raises(ValueError):
            language_of(parse("[p] R{1,2} p", AG))


class TestInterning:
    def test_equal_formulas_are_one_node(self):
        assert parse("K1 p & ~q") is And(K("1", p), Neg(q))
        assert Top() is TRUE and Bot() is FALSE and Atom("p") is p
        assert parse("E{2,1} p", AG) is E("1,2", p) is And(K("1", p), K("2", p))
        assert parse("p | q") is Or(p, q) is Neg(And(Neg(p), Neg(q)))
        assert parse("p <-> q") is Iff(p, q) is And(Implies(p, q), Implies(q, p))
        assert D("1,2", p) is D({"2", "1"}, p) is D(["2", "1", "2"], p) is parse("D{2,1} p", AG)
        assert C("1,2", p) is not D("1,2", p) is not R("1,2", p)
        assert reduce(parse("R{1,2} (K1 p & K3 q)", AG)) is And(D("1,2", p), K("3", q))
        f = parse("R{1,2} C{1,3} p", AG)
        members = closure(f)
        assert R("1,2", C("1,3", p)) in members and D("1,2,3", f) in members
        # equality is identity and the hash is the node's, so neither recurses
        deep = p
        for _ in range(5000):
            deep = Neg(deep)
        rebuilt = p
        for _ in range(5000):
            rebuilt = Neg(rebuilt)
        assert rebuilt is deep and {deep: 1}[rebuilt] == 1

    def test_copies_and_pickles_are_the_node(self):
        f = parse("R{1,2} (p & ~K1 p) -> [q] C{1,2} (q | D{2,3} true)", AG)
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert copy.deepcopy([f, (f, {f: f})])[1][1][f] is f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f

    def test_nodes_are_immutable(self):
        f = K("1", p)
        for attempt in (lambda: setattr(f, "agent", "2"), lambda: delattr(f, "body"),
                        lambda: setattr(f, "extra", 1)):
            with pytest.raises(AttributeError):
                attempt()
        assert f is K("1", p) and f.agent == "1"

    def test_repr_names_the_fields(self):
        assert repr(p) == "Atom(name='p')"
        assert repr(Neg(TRUE)) == "Neg(body=Top())"
        assert repr(K("1", And(p, FALSE))) == "K(agent='1', body=And(left=Atom(name='p'), right=Bot()))"
        assert repr(D("1", p)) == "D(group=frozenset({'1'}), body=Atom(name='p'))"

    def test_threads_building_the_same_formulas_get_one_node(self):
        workers = (os.cpu_count() or 1) + 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that builds interleave
        try:
            for round_ in range(5):
                barrier = threading.Barrier(workers, timeout=60)
                results = [None] * workers

                def build(k, round_=round_):
                    barrier.wait()
                    results[k] = [R("1,2", And(Atom(f"t{round_}_{i}"), Neg(Atom(f"u{round_}_{i}"))))
                                  for i in range(500)]

                threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                    assert not t.is_alive()
                assert all(len(built) == 500 for built in results)
                for built in results[1:]:
                    assert all(a is b for a, b in zip(built, results[0]))
        finally:
            sys.setswitchinterval(interval)

    def test_the_intern_table_holds_weak_references_only(self):
        def live():
            return sum(ref() is not None for ref in syntax._table.values())

        gc.collect()
        baseline = live()
        kept = [Neg(Atom(f"w{i}")) for i in range(100_000)]
        assert live() >= baseline + 200_000
        del kept
        gc.collect()
        assert live() <= baseline
        # dead entries go once the table has doubled since the last prune: building
        # and dropping as many nodes as that takes leaves at most twice the live ones
        for i in range(syntax._prune_at):
            Atom(f"v{i}")
        assert live() <= baseline
        assert len(syntax._table) <= max(2 * live() + 2, syntax._MIN_PRUNE)


KINDS = (Atom, Top, Bot, Neg, And, K, D, C, R, Ann)


def walked_facts(f):
    """(agents, atoms, kinds) of f by a plain walk over its subformulas."""
    mentioned, names, kinds = set(), set(), set()
    for g in subformulas(f):
        kinds.add(type(g))
        if type(g) is Atom:
            names.add(g.name)
        elif type(g) is K:
            mentioned.add(g.agent)
        elif type(g) in (D, C, R):
            mentioned |= g.group
    return mentioned, names, kinds


def node_facts(f):
    return f._agents, f._atoms, {cls for cls in KINDS if f._kinds & cls._kind}


class TestNodeFacts:
    def test_kinds_have_one_bit_each(self):
        assert sorted(cls._kind for cls in KINDS) == [1 << k for k in range(len(KINDS))]

    @pytest.mark.parametrize("seed", range(6))
    def test_every_node_of_generated_formulas_matches_a_walk(self, seed):
        from epiresolve.search import FormulaGen

        gen = FormulaGen(["1", "2", "3"], ["p", "q", "r"], seed=seed, depth=5, allow_ann=True)
        for _ in range(60):
            f = gen.formula()
            for g in subformulas(f):
                assert node_facts(g) == walked_facts(g), render(g)
            assert atoms(f) == f._atoms and agents(f) == f._agents

    @settings(deadline=None)
    @given(formula_st)
    def test_drawn_formulas_match_a_walk(self, f):
        assert node_facts(f) == walked_facts(f)

    def test_shared_and_deep_formulas(self):
        x = And(K("1", p), D("2,3", q))
        for _ in range(60):  # 2**60 occurrences of the leaves, 64 distinct nodes
            x = And(x, Neg(x))
        assert node_facts(x) == ({"1", "2", "3"}, {"p", "q"}, {Atom, Neg, And, K, D})
        deep = p
        for k in range(100_000):
            deep = [Neg, partial(R, "1,2"), partial(C, "3"), partial(Ann, q), partial(K, "4")][k % 5](deep)
        assert node_facts(deep) == walked_facts(deep) == ({"1", "2", "3", "4"}, {"p", "q"},
                                                          {Atom, Neg, R, C, Ann, K})
        assert language_of(parse("~" * 100_000 + "C{1,2} p")) is LanguageTag.ELCD

    def test_copies_and_pickles_rebuild_the_facts(self):
        text = "R{1,2} (fresh1 & ~K1 fresh2) -> C{1,3} (fresh1 | D{2,3} true)"
        data = pickle.dumps(parse(text, AG))
        gc.collect()
        assert not any(ref() is not None and getattr(ref(), "name", None) == "fresh2"
                       for ref in syntax._table.values())
        f = pickle.loads(data)  # built anew, facts and all
        assert node_facts(f) == walked_facts(f) == ({"1", "2", "3"}, {"fresh1", "fresh2"},
                                                     {Atom, Top, Neg, And, K, D, C, R})
        for again in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert again is f and node_facts(again) == node_facts(f)

    def test_threads_building_one_formula_all_see_the_facts(self):
        workers = (os.cpu_count() or 1) + 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that one thread meets a node another built
        try:
            for round_ in range(3):
                barrier = threading.Barrier(workers, timeout=60)
                seen = [None] * workers

                def build(k, round_=round_):
                    barrier.wait()
                    out = []
                    for i in range(300):
                        g = C("1,3", And(Atom(f"s{round_}_{i}"), K("2", Atom(f"s{round_}_{i + 1}"))))
                        out.append((g, g._agents, g._atoms, g._kinds))
                    seen[k] = out

                threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                    assert not t.is_alive()
                for out in seen:
                    assert len(out) == 300
                    for i, (g, *facts) in enumerate(out):
                        assert g is seen[0][i][0]
                        assert facts == [g._agents, g._atoms, g._kinds]
                        assert node_facts(g) == walked_facts(g)
        finally:
            sys.setswitchinterval(interval)

    def test_equal_facts_are_one_object_and_dead_ones_go_at_a_prune(self):
        while len(syntax._table) + 10 >= syntax._prune_at:  # so that no prune falls between f and g
            Atom(f"room{len(syntax._table)}")
        f, g = parse("K1 p & D{2,3} q & R{1,3} p", AG), parse("D{3,2} q & K1 p & R{3,1} p", AG)
        assert f is not g and f._agents is g._agents and f._atoms is g._atoms and f._kinds is g._kinds
        kept = [Atom(f"z{i}") for i in range(3000)]
        del kept
        gc.collect()
        for i in range(syntax._prune_at):
            Atom(f"y{i}")
        live = [r() for r in syntax._table.values()]
        facts = {fact for h in live if h is not None for fact in (h._agents, h._atoms, h._kinds)}
        assert len(syntax._shared) <= len(facts) + syntax._prune_at
        assert frozenset(["z7"]) not in syntax._shared
