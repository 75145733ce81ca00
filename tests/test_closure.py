import time

import pytest

from epiresolve.search import FormulaGen
from epiresolve.syntax import (
    And,
    Ann,
    Atom,
    C,
    D,
    K,
    Neg,
    R,
    children,
    closure,
    delta,
    parse,
    push_modal,
    subformulas,
)

p = Atom("p")


def grp(csv):
    return frozenset(csv.split(","))


def test_atom():
    assert closure(p) == {p, Neg(p)}


def test_individual_knowledge():
    # hand fixpoint: the knowledge modality drags in its singleton
    # distributed-knowledge twin, plus single negations and subformulas
    expected = {
        K("1", p), Neg(K("1", p)),
        D(grp("1"), p), Neg(D(grp("1"), p)),
        p, Neg(p),
    }
    assert closure(K("1", p)) == expected


def test_resolved_atom():
    f = R(grp("1,2"), p)
    assert closure(f) == {f, Neg(f), p, Neg(p)}


def test_announcements_rejected():
    with pytest.raises(ValueError, match="announcement"):
        closure(Ann(p, p))


def test_resolved_knowledge_adds_reduction_counterpart():
    f = parse("R{1,2} K1 p", {"1", "2"})
    cl = closure(f)
    assert push_modal([grp("1,2")], K("1", p)) in cl
    assert parse("D{1,2} R{1,2} p", {"1", "2"}) in cl


def test_common_knowledge_unfolds_to_members_only():
    f = C(grp("1,2"), p)
    cl = closure(parse("C{1,2} p & K3 p", {"1", "2", "3"}))
    assert K("1", f) in cl and K("2", f) in cl
    assert K("3", f) not in cl


def test_resolved_common_knowledge_clause():
    f = parse("R{1,2} C{2,3} p", {"1", "2", "3"})
    cl = closure(f)
    prefix = [grp("1,2")]
    assert D(delta(grp("2,3"), prefix), f) in cl
    for i in ["2", "3"]:
        assert D(delta(grp(i), prefix), f) in cl
    assert R(grp("1,2"), p) in cl


def _strip(f):
    prefix = []
    while isinstance(f, R):
        prefix.append(f.group)
        f = f.body
    return prefix, f


def _required_by_clauses(member, wrap):
    """What the closure definition demands given that `member` is in it."""
    need = set(children(member))
    if not isinstance(member, Neg):
        need.add(Neg(member))
    if isinstance(member, K):
        need.add(D(frozenset([member.agent]), member.body))
    if isinstance(member, D) and len(member.group) == 1:
        (i,) = member.group
        need.add(K(i, member.body))
    if isinstance(member, C):
        need.update(K(i, member) for i in member.group)
    prefix, core = _strip(member)
    if prefix:
        if isinstance(core, Neg):
            need.add(wrap(prefix, core.body))
        elif isinstance(core, And):
            need.update({wrap(prefix, core.left), wrap(prefix, core.right)})
        elif isinstance(core, (K, D)):
            need.add(push_modal(prefix, core))
        elif isinstance(core, C):
            need.add(D(delta(core.group, prefix), member))
            need.update(D(delta(frozenset([i]), prefix), member) for i in core.group)
            need.add(wrap(prefix, core.body))
    return need


def _wrap(prefix, body):
    for g in reversed(prefix):
        body = R(g, body)
    return body


def test_closure_is_a_fixpoint_on_generated_formulas():
    gen = FormulaGen(["1", "2"], ["p"], seed=7, depth=3, allow_c=True, allow_r=True)
    for _ in range(60):
        f = gen.formula()
        cl = closure(f)
        assert f in cl
        assert subformulas(f) <= cl
        for member in cl:
            assert _required_by_clauses(member, _wrap) <= cl, member


def test_closure_of_members_stays_inside():
    f = parse("R{1,2} (C{1,2} p & ~K1 p)", {"1", "2"})
    cl = closure(f)
    for member in sorted(cl, key=str)[:10]:
        assert closure(member) <= cl


def test_closure_is_linear_in_resolution_depth():
    # each R node's clauses come one resolution step from its body's: no prefix is walked or rebuilt per member
    def alternating(levels):
        f = K("1", p)
        for k in range(levels):
            f = R(grp("1,3") if k % 2 else grp("1,2"), f)
        return f

    cl = closure(alternating(40))
    for member in cl:
        assert _required_by_clauses(member, _wrap) <= cl, member
    f = alternating(4000)
    start = time.perf_counter()
    cl = closure(f)
    assert time.perf_counter() - start < 2.0  # about 0.1 s; walking each member's prefix took over 8 s
    assert push_modal(*_strip(f)) in cl
    assert len(cl) == 6 * 4000 + 6
