"""Reduction normal form: shape of the output and semantic equivalence."""

import pytest

from epiresolve import syntax
from epiresolve.checker import Evaluator
from epiresolve.search import FormulaGen
from epiresolve.syntax import (
    And,
    Atom,
    C,
    D,
    K,
    Neg,
    R,
    parse,
    reduce,
    render,
    subformulas,
)

from conftest import model_list

p = Atom("p")
AG = {"1", "2", "3"}


def grp(csv):
    return frozenset(csv.split(","))


def has_resolution(f):
    return any(isinstance(g, R) for g in subformulas(f))


def test_moore_style_example():
    f = parse("R{1,2}(p & ~K1 p)", AG)
    assert reduce(f) == And(p, Neg(D(grp("1,2"), p)))


def test_singleton_resolution_drops():
    f = parse("R{1} (K2 p & C{1,2} p)", AG)
    assert reduce(f) == parse("K2 p & C{1,2} p", AG)


def test_overlapping_common_knowledge_block_survives():
    f = R(grp("1,2"), C(grp("1,3"), p))
    assert reduce(f) == f


def test_disjoint_common_knowledge_commutes():
    f = R(grp("1,2"), C(grp("3"), K("3", p)))
    assert reduce(f) == C(grp("3"), K("3", p))


def test_nested_group_common_knowledge_reduces():
    # contained groups: R{G} C{H} phi with H inside G becomes D{G} R{G} phi
    f = R(grp("1,2"), C(grp("1,2"), p))
    assert reduce(f) == D(grp("1,2"), p)


def test_immediate_repetition_collapses():
    inner = R(grp("1,2"), C(grp("1,3"), p))
    assert reduce(R(grp("1,2"), inner)) == reduce(inner)


def test_knowledge_cases():
    assert reduce(R(grp("1,2"), K("1", p))) == D(grp("1,2"), p)
    assert reduce(R(grp("1,2"), K("3", p))) == K("3", p)


def test_distributed_cases():
    assert reduce(R(grp("1,2"), D(grp("2,3"), p))) == D(grp("1,2,3"), p)
    assert reduce(R(grp("1,2"), D(grp("3"), p))) == D(grp("3"), p)


def test_iterated_resolution_reduces_inside_out():
    f = parse("R{1,3} R{1,2} K1 p", AG)
    out = reduce(f)
    assert not has_resolution(out)
    assert out == D(grp("1,2,3"), p)


def test_resolution_free_rd_fragment():
    gen = FormulaGen(["1", "2"], ["p"], seed=3, depth=3, allow_c=False, allow_r=True)
    for _ in range(200):
        f = gen.formula()
        assert not has_resolution(reduce(f)), render(f)


def test_reduction_is_equivalent_on_small_models():
    gen = FormulaGen(["1", "2"], ["p"], seed=11, depth=3, allow_c=True, allow_r=True)
    pairs = []
    seen = set()
    for _ in range(80):
        f = gen.formula()
        if f not in seen:
            seen.add(f)
            pairs.append((f, reduce(f)))
    for m in model_list(3, ("1", "2"), ("p",)):
        ev = Evaluator(m)
        for f, rf in pairs:
            assert ev.extension(f) == ev.extension(rf), render(f)


def test_reduction_of_announcements_leaves_them_alone():
    f = parse("[p] K1 p", AG)
    assert reduce(f) == f
    g = parse("R{1,2} [p] p", AG)
    assert reduce(g) == g


def test_shared_subformulas_are_rewritten_once(monkeypatch):
    # 60 doublings of p & p: 62 distinct nodes, 2**60 occurrences
    x = p
    for _ in range(60):
        x = And(x, x)
    calls = []

    def counted(f, kids, rebuild=syntax._rebuild):
        calls.append(f)
        if len(calls) > 1000:
            pytest.fail("reduce rewrites a shared subformula once per occurrence")
        return rebuild(f, kids)

    monkeypatch.setattr(syntax, "_rebuild", counted)
    assert reduce(R(grp("1,2"), x)) is x
    # reduce leaves the resolution-free body alone; the push rewrites every node below R once
    assert len(calls) == 61


def test_resolution_free_subtrees_come_back_without_a_rebuild(monkeypatch):
    calls = []
    rebuild = syntax._rebuild
    monkeypatch.setattr(syntax, "_rebuild", lambda f, kids: calls.append(f) or rebuild(f, kids))
    free = parse("K1 (p & C{1,2} ~q) & [p] D{2,3} q", AG)
    assert reduce(free) is free and calls == []
    f = And(free, R(grp("1,2"), K("3", p)))
    assert reduce(f) is And(free, K("3", p))
    assert calls == [p, K("3", p), f]  # the push's fold below R, then the root: nothing inside free
