"""Isomorphism classes of the bounded models, packed for batch evaluation and kept per signature.

`find_model` and `find_countermodel` evaluate one model per isomorphism
class, because every operator is invariant under renaming states.  A class
is a row: an index tuple into `_values(n)` (one partition per agent, then
one subset per atom) and its weight, the labelled models in the class.  The
representative is the class's first model in `enumerate_models` order, so
the first witness is the one a model-by-model search would find.  A size
past 7 states, or with no more labelled models than n!, comes model by
model instead, each model a class of weight 1.

Rows are packed straight into the offset masks of `batch.py`, in batches of
4 rows that double up to `BATCH_MODELS`, so that an early witness costs a
small batch and an exhausted search few large ones.  Neither the rows nor
the batches depend on the formula, so the process keeps them per signature
(`_Store`): each size's rows are enumerated once, as compact columns, and
each batch is packed once; every later query over the same agents and atoms
replays them, up to a fixed number of rows.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import groupby, islice, product
from math import factorial
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .batch import BATCH_MODELS, _Layout, _Masks
from .kripke import Model, Partition

if TYPE_CHECKING:
    from .search import SearchBounds


def set_partitions(items: Sequence[str]) -> Iterator[list]:
    """All partitions of the items, deterministically ordered."""
    items = list(items)

    def rec(i, blocks):
        if i == len(items):
            yield [frozenset(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


@lru_cache(maxsize=None)
def _values(n: int) -> tuple:
    """(states, partitions, subsets) an n-state model is built from.

    Partitions come in `set_partitions` order and subsets in bitmask order
    (subset k holds state i when bit i of k is set), so index tuples in
    lexicographic order are `enumerate_models`' order.
    """
    names = [str(i) for i in range(n)]
    parts = [Partition(frozenset(blocks)) for blocks in set_partitions(names)]
    subsets = [frozenset(s for i, s in enumerate(names) if k >> i & 1) for k in range(1 << n)]
    return frozenset(names), parts, subsets


@lru_cache(maxsize=None)
def _actions(n: int) -> tuple:
    """(partition table, subset table) of S_n: row g of a table maps the
    index of each value to the index of its image under permutation g.

    Row 0 is the identity.  Every other permutation is an adjacent
    transposition after an earlier one, so its rows are the earlier rows
    read through the transposition's.
    """
    masks = [frozenset(sum(1 << int(s) for s in b) for b in p.blocks) for p in _values(n)[1]]
    index = {m: k for k, m in enumerate(masks)}

    def swapped(k: int, i: int) -> int:  # bits i and i + 1 of k exchanged
        return k ^ ((k >> i ^ k >> i + 1) & 1) * (3 << i)

    swaps = [([index[frozenset(swapped(b, i) for b in m)] for m in masks],
              [swapped(k, i) for k in range(1 << n)]) for i in range(n - 1)]
    perms = [tuple(range(n))]
    parts, subsets = [array("H", range(len(masks)))], [array("H", range(1 << n))]
    known = set(perms)
    for j, perm in enumerate(perms):  # grows while it is read
        for i, (part_swap, subset_swap) in enumerate(swaps):
            after = tuple(i + 1 if y == i else i if y == i + 1 else y for y in perm)
            if after not in known:
                known.add(after)
                perms.append(after)
                parts.append(array("H", [part_swap[k] for k in parts[j]]))
                subsets.append(array("H", [subset_swap[k] for k in subsets[j]]))
    return parts, subsets


def _signature(bounds: SearchBounds) -> tuple:
    """(agent ids, atom names) of the models within the bounds: agent 1 alone if none is declared."""
    return bounds.agents or ("1",), bounds.atoms or ()


def _model(n: int, idx: tuple, agent_ids: Sequence[str], atom_names: Sequence[str]) -> Model:
    """The n-state model of an index tuple: one partition per agent, then one subset per atom."""
    states, parts, subsets = _values(n)
    return Model(states=states, agents=frozenset(agent_ids),
                 relations={a: parts[k] for a, k in zip(agent_ids, idx)},
                 valuation={p: subsets[k] for p, k in zip(atom_names, idx[len(agent_ids):])})


# the action tables hold n! * (B(n) + 2^n) entries: 5.1 M at 7 states, 177 M at 8
_MAX_CLASS_STATES = 7


def _orbits(group: list, table: list) -> Iterator[tuple]:
    """(v, v's image under each element of the group) for the least value v
    of each orbit of the group (row indices of the table) on the table's
    values.  v's stabilizer is the elements whose image is v."""
    if len(group) == 1:  # the identity alone: every value is its own orbit
        for v in range(len(table[0])):
            yield v, (v,)
        return
    rows = [table[g] for g in group]
    seen = bytearray(len(rows[0]))
    for v in range(len(seen)):
        if not seen[v]:
            moved = [row[v] for row in rows]
            for w in moved:
                seen[w] = 1
            yield v, moved


def _size_classes(n: int, agents: int, atoms: int) -> Iterator[tuple]:
    """(index tuple, labelled models in its isomorphism class) of each class of n-state models.

    An index tuple holds one partition index per agent, then one subset
    index per atom, into `_values(n)`.  Coordinates are chosen one at a
    time, each the least value in its orbit under the stabilizer of the
    choices before it (Read 1978; McKay 1998).  The result is the
    lexicographically least index tuple of its class, so classes come in
    `enumerate_models` order, each represented by its first labelled model,
    and the class has n!/|stabilizer| labelled models.

    A size past `_MAX_CLASS_STATES`, or with no more labelled models than
    n! (the n! table rows would cost more than the models), comes labelled
    instead: every index tuple with weight 1.  The first model satisfying a
    formula is the same either way.
    """
    bell = len(_values(n)[1])
    order = factorial(n)
    if n > _MAX_CLASS_STATES or bell ** agents * 2 ** (n * atoms) <= order:
        for idx in product(*[range(bell)] * agents, *[range(1 << n)] * atoms):
            yield idx, 1
        return
    part_rows, subset_rows = _actions(n)
    tables = [part_rows] * agents + [subset_rows] * atoms
    chosen = [0] * len(tables)
    # depth-first over the levels: (group, orbit iterator) per level chosen so far
    everything = list(range(order))
    stack = [(everything, _orbits(everything, tables[0]))]
    while stack:
        level = len(stack) - 1
        group, orbits = stack[-1]
        for v, moved in orbits:
            chosen[level] = v
            if level + 1 < len(tables):
                stabilizer = [g for g, w in zip(group, moved) if w == v]
                stack.append((stabilizer, _orbits(stabilizer, tables[level + 1])))
                break
            yield tuple(chosen), order // moved.count(v)  # the last level needs only the stabilizer's size
        else:
            stack.pop()


def _classes(bounds: SearchBounds, first: int = 1) -> Iterator[tuple]:
    """(n, index tuple, class weight): one row per class, sizes first..max_states in turn."""
    agent_ids, atom_names = _signature(bounds)
    for n in range(first, bounds.max_states + 1):
        for idx, weight in _size_classes(n, len(agent_ids), len(atom_names)):
            yield n, idx, weight


# The packing tables of the n-state models.  Bit i of a slot is the i-th
# sorted state name, as in the sweeps; the layouts are not kept, so the
# tables hold the only copy of their patterns.
@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple:
    """For each offset d in 1..n-1, every partition's slot pattern of pairs (i, i+d) in one block."""
    states, parts, _ = _values(n)
    return tuple(zip(*map(_Layout(states).pair_patterns, parts)))


@lru_cache(maxsize=None)
def _subset_table(n: int) -> list:
    """Every subset's slot bits, subset k holding state str(j) when bit j of k is set."""
    layout = _Layout(frozenset(str(j) for j in range(n)))
    return [layout.set_pattern(frozenset(str(j) for j in range(n) if k >> j & 1)) for k in range(1 << n)]


def _slot_bytes(n: int) -> int:
    """Bytes per slot of an n-state model in a batch."""
    return (n + 7) // 8


def _batches(rows: Iterable[tuple], size: int = 4) -> Iterator[list]:
    """Rows in batches of `size`, doubling up to BATCH_MODELS; a batch ends early where the slot width changes.

    Witness queries mostly stop within the first 16 classes, where a
    larger first batch, or one that ended at each size, would evaluate
    more batches or more classes past the witness.
    """
    for _, run in groupby(rows, key=lambda row: _slot_bytes(row[0])):
        while batch := list(islice(run, size)):
            yield batch
            size = min(2 * size, BATCH_MODELS)


def _packed(runs: list, columns: Sequence, agent_ids: tuple, atom_names: tuple) -> _Masks:
    """The masks of a batch of rows, the batch's k-th row in slot k.

    A run (n, a, b) is rows a..b-1 of the index columns, all of n states,
    and the runs' slots are equally wide.  Each run packs each column
    through its size's tables, and zeros where an offset is past its size.
    """
    width = _slot_bytes(runs[0][0])
    tables = [(_pair_table(n), _subset_table(n), a, b) for n, a, b in runs]
    top = runs[-1][0]

    def relation_rows(agent: str):
        column = columns[agent_ids.index(agent)]
        for d in range(top - 1):
            yield [b"".join(map(pairs[d].__getitem__, column[a:b])) if d < len(pairs) else bytes(width * (b - a))
                   for pairs, _, a, b in tables]

    def atom_rows(name: str) -> list:
        column = columns[len(agent_ids) + atom_names.index(name)]
        return [b"".join(map(subsets.__getitem__, column[a:b])) for _, subsets, a, b in tables]

    full = int.from_bytes(b"".join(subsets[-1] * (b - a) for _, subsets, a, b in tables), "little")
    return _Masks(frozenset(agent_ids), full, relation_rows, atom_rows)


# Rows kept per signature: 4 + 8 + ... + 128 in the growing batches, then
# 256 full ones.  At 3 agents and 1 atom a row takes 10 bytes.
_STORE_ROWS = 252 + 256 * BATCH_MODELS


class _Store:
    """One signature's class rows drawn so far, and each batch's masks, replayed by every later query.

    The rows are columns: one `array` of indexes per agent, then per atom,
    and one of class weights; the rows of n states are rows
    ends[n - 1]..ends[n] - 1.  A size is drawn only when a query reaches
    it, from one suspended `_size_classes` generator, and the store holds
    no size past `_MAX_CLASS_STATES` and no more than `_STORE_ROWS` rows:
    a query draws the rows past them afresh.  Batch boundaries follow the
    rows, not the query, so a batch's masks are packed once, keyed by its
    rows (start, stop).
    """

    def __init__(self, agent_ids: tuple, atom_names: tuple):
        self.agent_ids, self.atom_names = agent_ids, atom_names
        # up to 7 states, indexes stay below B(7) = 877 and weights at most 7! = 5040
        self.columns = [array("H") for _ in agent_ids + atom_names]
        self.weights = array("H")
        self.ends = [0]  # ends[n]: rows of at most n states, for each size drawn to its end
        self._batches: dict = {}  # (start, stop) -> (runs, masks)
        self._rows: Optional[Iterator] = None  # the rest of size len(ends), while it is drawn
        self._drawing = threading.Lock()  # queries in several threads share the store

    def held(self, stop: int, max_states: int) -> int:
        """Rows of at most max_states states held, after drawing on towards `stop` of them."""
        stop = min(stop, _STORE_ROWS)
        with self._drawing:
            while len(self.weights) < stop and len(self.ends) <= min(max_states, _MAX_CLASS_STATES):
                rows = self._rows or islice(_size_classes(len(self.ends), len(self.agent_ids), len(self.atom_names)),
                                            len(self.weights) - self.ends[-1], None)
                self._rows = None  # a draw cut short by an exception leaves none: the next resumes past the rows held
                want = stop - len(self.weights)
                chunk = list(islice(rows, want))
                if chunk:
                    idxs, weights = zip(*chunk)
                    for column, values in zip(self.columns, zip(*idxs)):
                        column.extend(values)
                    self.weights.extend(weights)
                if len(chunk) < want:
                    self.ends.append(len(self.weights))
                else:
                    self._rows = rows
            return min(stop, self.ends[max_states] if max_states < len(self.ends) else len(self.weights))

    def batch(self, start: int, stop: int) -> tuple:
        """(runs, masks) of rows start..stop-1, packed on first use."""
        out = self._batches.get((start, stop))
        if out is None:
            ends = self.ends + [len(self.weights)]
            runs = [(n, max(start, ends[n - 1]), min(stop, ends[n])) for n in range(1, len(ends))
                    if max(start, ends[n - 1]) < min(stop, ends[n])]
            out = self._batches[start, stop] = runs, _packed(runs, self.columns, self.agent_ids, self.atom_names)
        return out


@lru_cache(maxsize=4)
def _store(agent_ids: tuple, atom_names: tuple) -> _Store:
    """The store of a signature; the process keeps those of the 4 signatures searched last."""
    return _Store(agent_ids, atom_names)


def _query_batches(bounds: SearchBounds) -> Iterator[tuple]:
    """(runs, index columns, weights, masks) of each batch of the rows within the bounds.

    The store's rows come first, in batches of 4 doubling up to
    BATCH_MODELS; rows past the store are drawn and packed afresh.
    """
    store = _store(*_signature(bounds))
    start, size = 0, 4
    while (stop := store.held(start + size, bounds.max_states)) > start:
        runs, masks = store.batch(start, stop)
        yield runs, store.columns, store.weights, masks
        start, size = stop, min(2 * size, BATCH_MODELS)
    first = len(store.ends)
    if first > bounds.max_states:
        return
    rows = islice(_classes(bounds, first), len(store.weights) - store.ends[-1], None)
    for batch in _batches(rows, size):
        sizes = [n for n, _, _ in batch]
        runs = [(n, bisect_left(sizes, n), bisect_right(sizes, n)) for n in dict.fromkeys(sizes)]
        columns = list(zip(*(idx for _, idx, _ in batch)))
        yield runs, columns, [weight for _, _, weight in batch], _packed(runs, columns, *_signature(bounds))
