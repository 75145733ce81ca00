"""Batched evaluation over the disjoint union of many models.

Satisfaction is invariant under disjoint union, so evaluating a formula
once over the union of a batch of models gives every model's extension.
A `Batch` holds models of one size n and one agent set.  Model k owns a
slot of ``8*ceil(n/8)`` bits, and state i of the model is the i-th of
``sorted(states)``; an extension over the whole batch is one Python int.
`Batch.rows` folds an extension to one bit per model in bulk (whether the
model has a state in it), and `Batch.least` reads one model's least state,
which is all the sweeps need to report a failing model.  The search
(`_iso.py`) packs isomorphism-class representatives the same way, rows of
several sizes sharing a batch when their slots are equally wide.

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

from itertools import groupby, islice
from typing import Iterable, Iterator, Optional, Sequence

from .checker import Context
from .kripke import Model
from .syntax import Formula

# Models per batch.  Larger batches amortize packing further but raise
# peak memory; 256 keeps every mask at a few hundred bytes for n <= 8.
BATCH_MODELS = 256

# a slot's folded byte as a binary digit: b'0' when empty, b'1' otherwise
_BINARY = b"0" + b"1" * 255


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


class _Layout:
    """Per state set: the state order and byte patterns of its partitions and subsets.

    A slot is ``ceil(n/8)`` bytes, and bit i is the state ``sorted(states)[i]``.
    """

    def __init__(self, states: frozenset):
        self.order = sorted(states)
        self.index = {s: i for i, s in enumerate(self.order)}
        self.slot_bytes = (len(self.order) + 7) // 8
        self._parts: dict = {}
        self._sets: dict = {}

    def set_bytes(self, members: frozenset) -> bytes:
        out = self._sets.get(members)
        if out is None:
            out = self._sets[members] = self.set_pattern(members)
        return out

    def partition_bytes(self, part) -> tuple:
        out = self._parts.get(part)
        if out is None:
            out = self._parts[part] = self.pair_patterns(part)
        return out

    def set_pattern(self, members: frozenset) -> bytes:
        """The slot bits of a set of states, uncached."""
        return sum(1 << self.index[s] for s in members).to_bytes(self.slot_bytes, "little")

    def pair_patterns(self, part) -> tuple:
        """For each offset d in 1..n-1, the slot pattern of pairs (i, i+d) in one block, uncached."""
        patterns = [0] * len(self.order)
        for block in part.blocks:
            idx = sorted(self.index[s] for s in block)
            for a, i in enumerate(idx):
                for j in idx[a + 1:]:
                    patterns[j - i] |= 1 << i
        return tuple(p.to_bytes(self.slot_bytes, "little") for p in patterns[1:])


def _pack(chunks) -> int:
    return int.from_bytes(b"".join(chunks), "little")


def _model_rows(models: list, layouts: list) -> tuple:
    """(relation_rows, atom_rows) of labelled models, each read through its layout."""
    def relation_rows(agent: str):
        return zip(*[lo.partition_bytes(m.relations[agent]) for lo, m in zip(layouts, models)])

    def atom_rows(name: str) -> list:
        empty = frozenset()
        return [lo.set_bytes(m.valuation.get(name, empty)) for lo, m in zip(layouts, models)]

    return relation_rows, atom_rows


class _Masks:
    """The batch algebra: a batch's atom and relation masks, packed on first use.

    ``relation_rows(agent)`` gives, for each offset d in 1..n-1, the rows'
    slot patterns of pairs (i, i+d) in one block, and ``atom_rows(name)``
    the rows' slot bits of the atom.  They read labelled models through
    their `_Layout` (the sweeps) or index tuples through per-size tables
    (the search).  They close over the rows, never over a batch: evaluation
    contexts read these masks, and without reference cycles a finished
    batch and its models are freed at once.
    """

    announces = True
    empty = 0

    def __init__(self, agents: frozenset, full: int, relation_rows, atom_rows):
        self.agents = agents
        self.full = full
        self._relation_rows = relation_rows
        self._atom_rows = atom_rows
        self._relations: dict = {}
        self._bases: dict = {}
        self._atoms: dict = {}

    def agent(self, agent: str) -> tuple:
        out = self._relations.get(agent)
        if out is None:
            masks = enumerate(map(_pack, self._relation_rows(agent)), 1)
            out = self._relations[agent] = tuple((d, m) for d, m in masks if m)
        return out

    def base(self, g) -> tuple:
        out = self._bases.get(g)
        if out is None:
            out = self._bases[g] = _meet([self.agent(a) for a in sorted(g)])
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


class Batch:
    """Consecutive models of one size and agent set, evaluated together."""

    def __init__(self, models: Sequence[Model], layouts: Optional[dict] = None):
        if not models:
            raise ValueError("a batch needs at least one model")
        self.models = list(models)
        n = len(self.models[0].states)
        agents = self.models[0].agents
        if any(len(m.states) != n or m.agents != agents for m in self.models):
            raise ValueError("a batch needs models of one size and one agent set")
        layouts = {} if layouts is None else layouts
        for m in self.models:
            if m.states not in layouts:
                layouts[m.states] = _Layout(m.states)
        self._model_layouts = [layouts[m.states] for m in self.models]
        self.slot_bytes = self._model_layouts[0].slot_bytes
        self.width = 8 * self.slot_bytes
        self.full = _pack([lo.set_bytes(m.states) for lo, m in zip(self._model_layouts, self.models)])
        self._root = Context(_Masks(agents, self.full, *_model_rows(self.models, self._model_layouts)),
                             (), self.full, {})

    def extension(self, f: Formula) -> int:
        """The extension of f over the whole batch."""
        return self._root.extension(f)

    def rows(self, bits: int) -> int:
        """One bit per model, folded in bulk: bit k is set when model k has a state in bits."""
        if not bits:
            return 0
        folded = bits  # OR each slot's bytes into its lowest byte
        for j in range(1, self.slot_bytes):
            folded |= bits >> 8 * j
        data = folded.to_bytes(len(self.models) * self.slot_bytes, "little")[::self.slot_bytes]
        return int(data.translate(_BINARY)[::-1], 2)

    def least(self, bits: int, k: int) -> str:
        """The least state of model k in bits, which must hold one."""
        slot = bits >> k * self.width
        return self._model_layouts[k].order[(slot & -slot).bit_length() - 1]


class ModelBatches:
    """Consecutive runs of equally sized models, at most BATCH_MODELS each.

    Batches share their packing caches, so the partitions and subsets that
    `enumerate_models` reuses are packed once per sweep.
    """

    def __init__(self, models: Iterable[Model]):
        self._models = models
        self._layouts: dict = {}

    def __iter__(self) -> Iterator[Batch]:
        for _, run in groupby(self._models, key=lambda m: len(m.states)):
            while batch := list(islice(run, BATCH_MODELS)):
                yield Batch(batch, self._layouts)
