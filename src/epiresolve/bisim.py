"""Pre-model bisimulation and trans-bisimulation checking.

A bisimulation is the greatest fixpoint of its back-and-forth clauses, so
both kinds share one deletion loop and one validator and differ only in
their labels: (name, left, right) triples of partitions, where zig moves
along left and answers along right, and zag the other way round.
Pre-model bisimulation uses the same labels for both.  Trans-bisimulation
answers zig along closures, because path existence over equivalence
relations collapses to one closure computation.

Every label is a partition, so a clause of a pair reads only counts: zig
for (x, y) on (left, right) asks, for each x' in x's left block, how many
(x', y') in the relation have y' in y's right block, and zag asks the
mirror count.  After one in-place pass of the per-pair check, the
fixpoint keeps those counts keyed by (state, far block) and propagates
deletions instead of rescanning: a deleted pair decrements its keys, and
a key that drops to 0 deletes its near block × far block.  Each pair is
deleted at most once.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Tuple, Union

from .kripke import (
    Model,
    Partition,
    PreModel,
    all_groups,
    as_premodel,
)
from .syntax import group_key

Pair = Tuple[str, str]


def _signature(m, s: str) -> frozenset:
    """The atoms true at s."""
    return frozenset(atom for atom, ss in m.valuation.items() if s in ss)


def _signatures(m) -> dict:
    return {s: _signature(m, s) for s in m.states}


def _known(m, s: str) -> None:
    if s not in m.states:
        raise ValueError(f"unknown state {s!r}")


def _atoms_agree(a, s: str, b, t: str, kind: str) -> bool:
    """After the input checks: do s and t agree on every atom?  If not, nothing links them."""
    _known(a, s)
    _known(b, t)
    if a.agents != b.agents:
        raise ValueError(f"{kind} requires a shared agent set")
    return _signature(a, s) == _signature(b, t)


def _as_pre(m: Union[Model, PreModel]) -> PreModel:
    return m if isinstance(m, PreModel) else as_premodel(m)


def _greatest(a, b, zig: list, zag: list) -> set:
    """The greatest relation between atom-agreeing states that satisfies every clause."""
    sig_a, by_sig = _signatures(a), {}
    for y, sig in _signatures(b).items():
        by_sig.setdefault(sig, []).append(y)
    z = {(x, y) for x in a.states for y in by_sig.get(sig_a[x], ())}
    seeded = len(z)
    for x, y in sorted(z):
        if not (all(any((xp, yp) in z for yp in right.block_of(y))
                    for _, left, right in zig for xp in left.block_of(x)) and
                all(any((xp, yp) in z for xp in left.block_of(x))
                    for _, left, right in zag for yp in right.block_of(y))):
            z.remove((x, y))
    if len(z) == seeded:
        return z
    # clause (i, near, far): state pair[i] needs a partner in the far block of
    # pair[1 - i]; zig reads (x, right block of y), zag (y, left block of x)
    clauses = [(0, left, right) for _, left, right in zig]
    clauses += [(1, right, left) for _, left, right in zag]
    counts = [Counter((p[i], far.block_of(p[1 - i])) for p in z) for i, _, far in clauses]
    # pairs that lost a partner to a deletion later in the pass
    stack = [p for p in z if not all(count.get((s, far.block_of(p[1 - i])))
                                     for (i, near, far), count in zip(clauses, counts)
                                     for s in near.block_of(p[i]))]
    while stack:
        pair = stack.pop()
        if pair not in z:
            continue
        z.remove(pair)
        for (i, near, far), count in zip(clauses, counts):
            key = (pair[i], far.block_of(pair[1 - i]))
            count[key] -= 1
            if not count[key]:
                # no partner left in the far block: every pair of the near
                # block with that far block fails this clause
                for u in near.block_of(pair[i]):
                    stack.extend((u, v) if i == 0 else (v, u) for v in key[1])
    return z


def _violations(a, b, zig: list, zag: list, pairs: Iterable[Pair]) -> list:
    """Clause-by-clause validation of a claimed relation; violations as data."""
    z = set(pairs)
    problems = [] if z else ["relation is empty"]
    sig_a, sig_b = _signatures(a), _signatures(b)
    # with zig = zag each label reports zig then zag; otherwise all zig labels come first
    both = zig is zag
    labels = [(label, True, both) for label in zig]
    labels += [] if both else [(label, False, True) for label in zag]
    partners: tuple = ({}, {})  # x -> its partners y in z, and y -> its partners x
    for x, y in z:
        partners[0].setdefault(x, set()).add(y)
        partners[1].setdefault(y, set()).add(x)
    ordered: dict = {}  # block -> its states, sorted once

    def unmatched(near: frozenset, far: frozenset, side: int) -> list:
        """The states of the near block with no partner in the far block."""
        if near not in ordered:
            ordered[near] = sorted(near)
        return [s for s in ordered[near] if far.isdisjoint(partners[side].get(s, ()))]

    for x, y in sorted(z):
        if x not in a.states or y not in b.states:
            problems.append(f"pair ({x},{y}) mentions unknown states")
            continue
        if sig_a[x] != sig_b[y]:
            problems.append(f"(at) fails for ({x},{y})")
        for (name, left, right), in_zig, in_zag in labels:
            if in_zig:
                for xp in unmatched(left.block_of(x), right.block_of(y), 0):
                    problems.append(f"(zig) fails for ({x},{y}) on {name} toward {xp}")
            if in_zag:
                for yp in unmatched(right.block_of(y), left.block_of(x), 1):
                    problems.append(f"(zag) fails for ({x},{y}) on {name} toward {yp}")
    return problems


def _pre_labels(a: PreModel, b: PreModel) -> list:
    if a.agents != b.agents:
        raise ValueError("bisimulation requires a shared agent set")
    labels = [("agent " + i, a.relations[i], b.relations[i]) for i in sorted(a.agents)]
    labels += [
        ("group " + group_key(g), a.group_relations[g], b.group_relations[g])
        for g in all_groups(a.agents)
    ]
    return labels


def _trans_labels(m: Model, n: PreModel):
    """Zig and zag labels for the trans-bisimulation clauses.

    zag steps along single relations, with groups read as intersections
    on the model side, exactly as the pre-model labels of m's embedding.
    zig for an agent i reaches along the closure of the agent relation
    together with every group relation containing i; zig for a group G of
    size 2 or more reaches along the closure of the relations of all
    supergroups of G.
    """
    if m.agents != n.agents:
        raise ValueError("trans-bisimulation requires a shared agent set")
    groups = all_groups(m.agents)
    embedded = as_premodel(m)
    zig = [
        ("agent " + i, m.relations[i],
         Partition.join_all([n.relations[i]] + [n.group_relations[g] for g in groups if i in g]))
        for i in sorted(m.agents)
    ]
    zig += [
        ("group " + group_key(g), embedded.group_relations[g],
         Partition.join_all([n.group_relations[h] for h in groups if g <= h]))
        for g in groups if len(g) > 1
    ]
    return zig, _pre_labels(embedded, n)


def bisimilar_pre(a: Union[Model, PreModel], s: str, b: Union[Model, PreModel], t: str):
    """Greatest bisimulation between two pre-models, if it links (s, t).

    Genuine models are embedded as pre-models first.  Returns the witness
    relation as a frozenset of state pairs, or None.
    """
    if not _atoms_agree(a, s, b, t, "bisimulation"):
        return None
    a, b = _as_pre(a), _as_pre(b)
    labels = _pre_labels(a, b)
    z = _greatest(a, b, labels, labels)
    return frozenset(z) if (s, t) in z else None


def is_pre_bisimulation(a: Union[Model, PreModel], b: Union[Model, PreModel], pairs: Iterable[Pair]) -> list:
    """Clause-by-clause validation of a claimed bisimulation; violations as data."""
    a, b = _as_pre(a), _as_pre(b)
    labels = _pre_labels(a, b)
    return _violations(a, b, labels, labels, pairs)


def trans_bisimilar(m: Model, s: str, n: Union[Model, PreModel], t: str):
    """Greatest trans-bisimulation between a model and a pre-model, linking (s, t)."""
    if not _atoms_agree(m, s, n, t, "trans-bisimulation"):
        return None
    n = _as_pre(n)
    z = _greatest(m, n, *_trans_labels(m, n))
    return frozenset(z) if (s, t) in z else None


def is_trans_bisimulation(m: Model, n: Union[Model, PreModel], pairs: Iterable[Pair]) -> list:
    """Clause-by-clause validation of a claimed trans-bisimulation."""
    n = _as_pre(n)
    return _violations(m, n, *_trans_labels(m, n), pairs)


def duplicate_state(p: Union[Model, PreModel], x: str, new_id: Optional[str] = None) -> PreModel:
    """Add an indistinguishable copy of a state.

    The copy inherits the valuation of x and joins exactly the blocks
    containing x in every agent and group relation, so identifying the
    two states is a bisimulation.  The fresh id defaults to x with primes
    appended until it is unused.
    """
    p = _as_pre(p)
    _known(p, x)
    if new_id is None:
        new_id = x + "'"
        while new_id in p.states:
            new_id += "'"
    elif new_id in p.states:
        raise ValueError(f"state id {new_id!r} already in use")

    def widened(part: Partition) -> Partition:
        home = part.block_of(x)
        return Partition(frozenset((b | {new_id}) if b == home else b for b in part.blocks))

    return PreModel(
        states=p.states | {new_id},
        agents=p.agents,
        relations={a: widened(part) for a, part in p.relations.items()},
        valuation={atom: (ss | {new_id} if x in ss else ss) for atom, ss in p.valuation.items()},
        group_relations={g: widened(part) for g, part in p.group_relations.items()},
    )


def witness_to_pairs(witness: Optional[frozenset]) -> Optional[list]:
    """Witness relations as sorted JSON-ready pairs."""
    if witness is None:
        return None
    return [list(pair) for pair in sorted(witness)]
