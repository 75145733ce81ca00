"""Pre-model bisimulation and trans-bisimulation checking.

A bisimulation is the greatest fixpoint of its back-and-forth clauses over
labels: (key, left, right) triples of partitions, where zig moves along
left and answers along right, and zag the other way round.  A key is an
agent id or a group, named ("agent 1", "group 1,2") only in messages.
Both kinds share one fixpoint routine and one validator.  Each label is one
equivalence on the disjoint union of the two sides, so the greatest
relation that meets zig and zag on every label is "same block" in the
coarsest stable partition of the union that refines the atom signatures
(Kanellakis & Smolka 1990; Paige & Tarjan 1987), computed by a splitter
worklist.

Pre-model bisimulation zigs and zags on the same labels.  Trans-bisimulation
from a model M into a pre-model N zags along N's single relations but zigs
along closures: for an agent i, C_i closes N's relation for i with every N
group relation containing i; for a group G of two or more agents, C_G
closes N's relations of every H ⊇ G.  Its fixpoint is refinement over the
zig labels (R_ℓ, C_ℓ) alone, because a relation meets the zag clauses
exactly when it meets zag along each C_ℓ, answered along M's R_ℓ:
(⇐) each single N relation lies inside a C_ℓ answered by the same M
relation; the singleton group {i} falls under C_i and R_i.
(⇒) a C_ℓ path is a chain of single steps along relations κ ∋ i (or
κ ⊇ G); each step is answered along R_κ ⊆ R_ℓ, because M's group relations
are meets, and the transitivity of R_ℓ closes the chain.

The validator accepts before it explains.  `_accepts` checks each distinct
label once, and each (left block, right block) that a claimed pair meets
once per label, against the pairs' partner sets, with no names and no
sorting.  Only a relation it rejects goes through the clause-by-clause
message builder, which keeps the zag labels to name each failure.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

from .kripke import (
    Model,
    Partition,
    PreModel,
    _label_name,
    all_groups,
    as_premodel,
)

Pair = Tuple[str, str]


def _signatures(a, b) -> tuple:
    """Each state's atoms as bits, one bit per atom of either side: a's, then b's."""
    bits = {atom: 1 << k for k, atom in enumerate(set(a.valuation) | set(b.valuation))}
    out = ({s: 0 for s in a.states}, {s: 0 for s in b.states})
    for sig, m in zip(out, (a, b)):
        for atom, ss in m.valuation.items():
            for s in ss & m.states:
                sig[s] |= bits[atom]
    return out


def _known(m, s: str) -> None:
    if s not in m.states:
        raise ValueError(f"unknown state {s!r}")


def _atoms_agree(a, s: str, b, t: str, kind: str) -> bool:
    """After the input checks: do s and t agree on every atom?  If not, nothing links them."""
    _known(a, s)
    _known(b, t)
    if a.agents != b.agents:
        raise ValueError(f"{kind} requires a shared agent set")
    return _agree(a, b, [(s, t)])


def _agree(a, b, z) -> bool:
    """Are the pairs' states known, and does each pair agree on every atom?"""
    if not all(x in a.states and y in b.states for x, y in z):
        return False
    sides = [(a.valuation.get(atom, ()), b.valuation.get(atom, ())) for atom in set(a.valuation) | set(b.valuation)]
    return all((x in va) == (y in vb) for va, vb in sides for x, y in z)


def _as_pre(m: Union[Model, PreModel]) -> PreModel:
    return m if isinstance(m, PreModel) else as_premodel(m)


def _refined(a, b, labels: list) -> frozenset:
    """The greatest bisimulation on the labels, zig and zag alike: the cross
    pairs of each block of the coarsest partition of a ⊎ b that refines the
    atom signatures and is stable under every label, so that states in one
    block reach the same blocks.

    The union's states are a's, then b's shifted by |a|.  Each distinct
    label is one relation on the union, its left blocks plus its right
    blocks, as a block id per state and each block's members; singleton
    blocks share the empty block 0, since a state that reaches only itself
    reaches only its own block.  Splitting by block k marks the states
    whose relation block meets k, and splits every other block with marked
    and unmarked states: its smaller half becomes a new block, and both
    halves are queued, the new one on top.  Once the queue is empty no
    block splits another."""
    sig_a, sig_b = _signatures(a, b)
    names = list(a.states), list(b.states)
    na = len(names[0])
    index = {s: k for k, s in enumerate(names[0])}, {s: na + k for k, s in enumerate(names[1])}
    n = na + len(names[1])
    coded: dict = {}
    for _, left, right in labels:
        key = left.blocks, right.blocks
        if key in coded:
            continue
        ids, members = [0] * n, [()]
        for side, part in enumerate((left, right)):
            for block in part.blocks:
                if len(block) > 1:
                    members.append([index[side][s] for s in block])
                    for u in members[-1]:
                        ids[u] = len(members) - 1
        coded[key] = ids, members
    relations = [rel for rel in coded.values() if len(rel[1]) > 1]
    by_sig: dict = {}
    for u, sig in enumerate([sig_a[s] for s in names[0]] + [sig_b[s] for s in names[1]]):
        by_sig.setdefault(sig, set()).add(u)
    blocks = list(by_sig.values())
    block_of = [0] * n
    for k, block in enumerate(blocks):
        for u in block:
            block_of[u] = k
    queue = list(range(len(blocks)))
    queued = [True] * len(blocks)
    while queue:
        k = queue.pop()
        queued[k] = False
        for ids, members in relations:
            hit: dict = {}
            for r in {ids[v] for v in blocks[k]}:
                for u in members[r]:
                    hit.setdefault(block_of[u], []).append(u)
            for j, marked in hit.items():
                block = blocks[j]
                if j == k or len(marked) == len(block):  # all of k reaches k; its marks skip singletons
                    continue
                if 2 * len(marked) <= len(block):
                    half = set(marked)
                    block -= half
                else:
                    half = block.difference(marked)
                    blocks[j] = set(marked)
                for u in half:
                    block_of[u] = len(blocks)
                blocks.append(half)
                queued.append(True)
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
                queue.append(len(blocks) - 1)
    out = []
    for block in blocks:
        right = [names[1][u - na] for u in block if u >= na]
        out.extend((names[0][u], y) for u in block if u < na for y in right)
    return frozenset(out)


def _partners(z: set) -> tuple:
    """x -> its partners y in z, and y -> its partners x."""
    out: tuple = ({}, {})
    for x, y in z:
        out[0].setdefault(x, set()).add(y)
        out[1].setdefault(y, set()).add(x)
    return out


def _accepts(a, b, zig: list, zag: list, z: set) -> bool:
    """Does z meet every clause?  Each distinct label is checked once, with
    bit 1 if it zigs and bit 2 if it zags, and each (left block, right
    block) that some pair meets once per label.  A singleton block needs no
    check: the pair that meets it is its own partner."""
    if not z or not _agree(a, b, z):
        return False
    partners = _partners(z)
    needs: dict = {}
    for bit, labels in ((3, zig),) if zig is zag else ((1, zig), (2, zag)):
        for _, left, right in labels:
            needs.setdefault((left.blocks, right.blocks), [left, right, 0])[2] |= bit
    for left, right, bits in needs.values():
        lo, ro = left._block_index, right._block_index
        for lb, rb in {(lo[x], ro[y]) for x, y in z}:
            if bits & 1 and len(lb) > 1 and any(rb.isdisjoint(partners[0].get(s, ())) for s in lb):
                return False
            if bits & 2 and len(rb) > 1 and any(lb.isdisjoint(partners[1].get(t, ())) for t in rb):
                return False
    return True


def _violations(a, b, zig: list, zag: list, pairs: Iterable[Pair]) -> list:
    """Clause-by-clause validation of a claimed relation; violations as data."""
    z = set(pairs)
    if _accepts(a, b, zig, zag, z):
        return []
    problems = [] if z else ["relation is empty"]
    sig_a, sig_b = _signatures(a, b)
    # with zig = zag each label reports zig then zag; otherwise all zig labels come first
    both = zig is zag
    labels = [(_label_name(key), left.block_of, right.block_of, True, both) for key, left, right in zig]
    if not both:
        labels += [(_label_name(key), left.block_of, right.block_of, False, True) for key, left, right in zag]
    partners = _partners(z)
    for x, y in sorted(z):
        if x not in sig_a or y not in sig_b:
            problems.append(f"pair ({x},{y}) mentions unknown states")
            continue
        if sig_a[x] != sig_b[y]:
            problems.append(f"(at) fails for ({x},{y})")
        for name, left, right, in_zig, in_zag in labels:
            lb, rb = left(x), right(y)
            if in_zig:
                problems.extend(f"(zig) fails for ({x},{y}) on {name} toward {xp}"
                                for xp in sorted(lb) if rb.isdisjoint(partners[0].get(xp, ())))
            if in_zag:
                problems.extend(f"(zag) fails for ({x},{y}) on {name} toward {yp}"
                                for yp in sorted(rb) if lb.isdisjoint(partners[1].get(yp, ())))
    return problems


def _pre_labels(a: PreModel, b: PreModel) -> list:
    if a.agents != b.agents:
        raise ValueError("bisimulation requires a shared agent set")
    labels = [(i, a.relations[i], b.relations[i]) for i in sorted(a.agents)]
    labels += [(g, a.group_relations[g], b.group_relations[g]) for g in all_groups(a.agents)]
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
        (i, m.relations[i],
         Partition.join_all([n.relations[i]] + [n.group_relations[g] for g in groups if i in g]))
        for i in sorted(m.agents)
    ]
    zig += [
        (g, embedded.group_relations[g],
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
    z = _refined(a, b, _pre_labels(a, b))
    return z if (s, t) in z else None


def is_pre_bisimulation(a: Union[Model, PreModel], b: Union[Model, PreModel], pairs: Iterable[Pair]) -> list:
    """Clause-by-clause validation of a claimed bisimulation; violations as data."""
    a, b = _as_pre(a), _as_pre(b)
    labels = _pre_labels(a, b)
    return _violations(a, b, labels, labels, pairs)


def _genuine(m) -> None:
    if isinstance(m, PreModel):
        raise ValueError("trans-bisimulation needs a genuine model (no group_relations) on the left")


def trans_bisimilar(m: Model, s: str, n: Union[Model, PreModel], t: str):
    """Greatest trans-bisimulation between a model and a pre-model, linking (s, t).

    The left side must be a genuine model; a pre-model there is a ValueError.
    The answer is the greatest bisimulation over the zig labels, zig and zag
    alike: zag along n's single relations holds exactly when zag along each
    zig closure does (⇐ each relation lies in a closure answered by the same
    m relation; ⇒ each step of a closure path is answered along a meet
    inside that relation of m, which is transitive).  When n is a
    pseudo-model, every zig closure is the relation itself (a larger group
    refines each smaller group inside it), so the answer equals
    bisimilar_pre(m, s, n, t).
    """
    _genuine(m)
    if not _atoms_agree(m, s, n, t, "trans-bisimulation"):
        return None
    n = _as_pre(n)
    z = _refined(m, n, _trans_labels(m, n)[0])
    return z if (s, t) in z else None


def is_trans_bisimulation(m: Model, n: Union[Model, PreModel], pairs: Iterable[Pair]) -> list:
    """Clause-by-clause validation of a claimed trans-bisimulation; m must be a genuine model."""
    _genuine(m)
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
