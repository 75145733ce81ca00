import copy
import gc
import os
import pickle
import sys
import threading

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

    def test_inferred_agents(self):
        assert parse("K1 p & D{2,3} q") == And(K("1", p), D(grp("2,3"), q))

    def test_everybody_knows_desugars(self):
        assert parse("E{1,2} p", AG) == And(K("1", p), K("2", p))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse("p q", AG)


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
