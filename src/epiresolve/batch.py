"""Batched evaluation over the disjoint union of many models.

Satisfaction is invariant under disjoint union, so evaluating a formula
once over the union of a batch of models gives every model's extension.
A batch is a run of rows, index tuples into `_iso._values(n)` packed by
`_iso._packed`: the sweeps pack every labelled row of one size, the
search isomorphism-class representatives, rows of several sizes sharing a
batch when their slots are equally wide.  Row k owns a slot of
``8*ceil(n/8)`` bits, and state i of the row is the i-th of
``sorted(states)``; an extension over the whole batch is one Python int.

An agent's relation is kept as one mask per offset d in 1..n-1: bit (k, i)
is set when states i and i+d of model k share a block (never for d past
the model's own size).  The diamond of a set Y is then
``Y | OR_d ((Y >> d) & M_d) | ((Y & M_d) << d)``, and box is the dual.
Intersecting relations ANDs their masks offset by offset.

`_Masks` is the batch algebra of `checker.Context`, which evaluates
models, pre-models and batches alike.  Meet commutes with restriction,
so a relation needs no restricting: box masks with the alive set, and
only common knowledge keeps its fixpoint inside alive.
"""

from __future__ import annotations

from typing import Sequence

# Models per batch.  Larger batches amortize packing further but raise
# peak memory; 256 keeps every mask at a few hundred bytes for n <= 8.
BATCH_MODELS = 256


def _diamond(rel: tuple, y: int) -> int:
    """States with a rel-successor in y; rel is a tuple of (offset, mask)."""
    out = y
    for d, m in rel:
        out |= (y >> d) & m | (y & m) << d
    return out


def _meet(rels: Sequence[tuple]) -> tuple:
    """Intersection of relations: AND the masks offset by offset."""
    masks = dict(rels[0])
    for rel in rels[1:]:
        other = dict(rel)
        masks = {d: m & other[d] for d, m in masks.items() if d in other}
    return tuple((d, m) for d, m in masks.items() if m)


def _pack(chunks) -> int:
    return int.from_bytes(b"".join(chunks), "little")


class _Masks:
    """The batch algebra: a batch's atom and relation masks, packed on first use.

    ``relation_rows(agent)`` gives, for each offset d in 1..n-1, the rows'
    slot patterns of pairs (i, i+d) in one block, and ``atom_rows(name)``
    the rows' slot bits of the atom, read from index columns through
    per-size tables (`_iso._packed`).  They close over the columns, never
    over a batch: evaluation contexts read these masks, and without
    reference cycles a finished batch is freed at once.  The relations are
    kept in ``rels``, which every root context on the batch shares as its map.
    """

    empty = 0

    def __init__(self, agents: frozenset, full: int, relation_rows, atom_rows):
        self.agents, self.full, self._relation_rows, self._atom_rows = agents, full, relation_rows, atom_rows
        self.rels, self._atoms = {}, {}

    def agent(self, agent: str) -> tuple:
        out = self.rels.get(agent)
        if out is None:
            masks = enumerate(map(_pack, self._relation_rows(agent)), 1)
            out = self.rels[agent] = tuple((d, m) for d, m in masks if m)
        return out

    def base(self, g) -> tuple:
        out = self.rels.get(g)
        if out is None:
            out = self.rels[g] = _meet([self.agent(a) for a in sorted(g)])
        return out

    def atom(self, name: str) -> int:
        out = self._atoms.get(name)
        if out is None:
            out = self._atoms[name] = _pack(self._atom_rows(name))
        return out

    restrict = staticmethod(lambda rel, alive: rel)  # box and common_box mask with alive instead
    common = staticmethod(tuple)

    @staticmethod
    def box(rel: tuple, body: int, alive: int) -> int:
        return alive & ~_diamond(rel, alive & ~body)

    @staticmethod
    def common_box(rels: tuple, body: int, alive: int) -> int:
        reach = alive & ~body
        while True:
            grown = reach
            for rel in rels:
                # paths must stay inside alive: restriction does not commute with join
                grown = alive & _diamond(rel, grown)
            if grown == reach:
                return alive & ~reach
            reach = grown
