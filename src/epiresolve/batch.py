"""Batched evaluation over the disjoint union of many models.

Satisfaction is invariant under disjoint union, so evaluating a formula
once over the union of a batch of models gives every model's extension.
A batch is a run of rows, index tuples into `_iso._values(n)`, held and
packed by `_iso._Batch`: the sweeps' labelled rows and the search's
isomorphism-class representatives alike, rows of several sizes sharing a
batch when their slots are equally wide.  Row k owns a slot of
``8*ceil(n/8)`` bits, and state i of the row is the i-th of
``sorted(states)``; an extension over the whole batch is one Python int.

An agent's relation is kept as one mask per offset d in 1..n-1: bit (k, i)
is set when states i and i+d of model k share a block (never for d past
the model's own size).  The diamond of a set Y is then
``Y | OR_d ((Y >> d) & M_d) | ((Y & M_d) << d)``, and box is the dual.
Intersecting relations ANDs their masks offset by offset.

`_Masks` is the batch algebra of `checker.Context`, which evaluates
models, pre-models and batches alike: it meets an agent's masks for a
group, and the context keeps both in the batch's ``rels``.  Meet commutes
with restriction, so a relation needs no restricting: box masks with the
alive set, and only common knowledge keeps its fixpoint inside alive.
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
    """The batch algebra over offset masks; `_iso._Batch` adds a batch's own atom and agent masks."""

    empty = 0
    restrict = staticmethod(lambda rel, alive: rel)  # box and common_box mask with alive instead
    meet = staticmethod(_meet)
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
