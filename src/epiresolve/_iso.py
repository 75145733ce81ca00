"""Isomorphism classes of the bounded models, packed for batch evaluation and replayed per bounds.

`find_model` and `find_countermodel` evaluate one model per isomorphism
class, because every operator is invariant under renaming states.  A class
is a row: an index tuple into `_values(n)` (one partition per agent, then
one subset per atom) and its weight, the labelled models in the class.  The
representative is the class's first model in `enumerate_models` order, so
the first witness is the one a model-by-model search would find.  A size
past 7 states, or with no more labelled models than n!, comes model by
model instead, each model a class of weight 1.

`_batches`, the one batcher, cuts rows (n, index tuple, weight) into
batches, and `_stream` makes each a `_Batch`.  A batch packs the offset
masks of `batch.py` from its index columns as a formula reads them, and
decodes an extension back to rows, their models and states.  Rows become
models one size run at a time (`_models`).  The sweeps stream their
labelled rows (`_labelled`), each of weight 1, in batches of
`BATCH_MODELS`.  A search streams the class rows in batches of 4 rows that
double up to `BATCH_MODELS`, so that an early witness costs a small batch
and an exhausted search few large ones.  Neither the rows nor the batches
depend on the formula, so the process keeps each bounds' batches as they
are drawn (`_Replay`), up to a fixed number of rows, and every later query
on the same bounds replays them, with the witness models already decoded.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import islice, product
from math import factorial
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .batch import BATCH_MODELS, _Masks, _pack
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


def _signature(bounds: SearchBounds, agents: Sequence[str] = ("1",), atoms: Sequence[str] = ()) -> tuple:
    """(agent ids, atom names) of the models within the bounds.

    Agents or atoms the bounds leave undeclared (None) are the given
    defaults, sorted.  A declared empty atom list is kept; no declared agent
    means agent 1 alone, since a model has at least one agent.
    """
    agent_ids = tuple(sorted(agents)) if bounds.agents is None else bounds.agents
    return agent_ids or ("1",), tuple(sorted(atoms)) if bounds.atoms is None else bounds.atoms


def _labelled(n: int, agents: int, atoms: int) -> Iterator[tuple]:
    """Every index tuple of n-state models, in `enumerate_models` order."""
    return product(*[range(len(_values(n)[1]))] * agents, *[range(1 << n)] * atoms)


def _models(n: int, index_rows: Iterable, agent_ids: Sequence[str], atom_names: Sequence[str]) -> Iterator[Model]:
    """Each index tuple's n-state model (a partition per agent, then a subset per atom): the one place a row
    becomes a `Model`.  A run of rows reads the size's values and the agent set once."""
    states, parts, subsets = _values(n)
    agents, k, part, subset = frozenset(agent_ids), len(agent_ids), parts.__getitem__, subsets.__getitem__
    for idx in index_rows:
        yield Model(states, agents, dict(zip(agent_ids, map(part, idx))), dict(zip(atom_names, map(subset, idx[k:]))))


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
        for idx in _labelled(n, agents, atoms):
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


def _classes(key: tuple) -> Iterator[tuple]:
    """(n, index tuple, class weight) of each class of (max_states, agent ids, atom names), smallest first."""
    max_states, agent_ids, atom_names = key
    for n in range(1, max_states + 1):
        for idx, weight in _size_classes(n, len(agent_ids), len(atom_names)):
            yield n, idx, weight


# The packing tables of the n-state models: bit i of a slot is the i-th
# sorted state name.
def _slot_index(n: int) -> dict:
    """Each state name's bit in a slot of n states."""
    return {s: i for i, s in enumerate(sorted(map(str, range(n))))}


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple:
    """For each offset d in 1..n-1, every partition's slot pattern of pairs (i, i+d) in one block."""
    index = _slot_index(n)

    def patterns(part: Partition) -> tuple:
        out = [0] * n
        for block in part.blocks:
            idx = sorted(index[s] for s in block)
            for a, i in enumerate(idx):
                for j in idx[a + 1:]:
                    out[j - i] |= 1 << i
        return tuple(p.to_bytes(_slot_bytes(n), "little") for p in out[1:])

    return tuple(zip(*map(patterns, _values(n)[1])))


@lru_cache(maxsize=None)
def _subset_table(n: int) -> list:
    """Every subset's slot bits, subset k holding state str(j) when bit j of k
    is set: the table doubles once per state, with no `_values(n)` partitions."""
    index = _slot_index(n)
    slots = [0]
    for j in range(n):
        slots += [bits | 1 << index[str(j)] for bits in slots]
    return [bits.to_bytes(_slot_bytes(n), "little") for bits in slots]


def _slot_bytes(n: int) -> int:
    """Bytes per slot of an n-state model in a batch."""
    return (n + 7) // 8


def _batches(rows: Iterable[tuple], size: int = 4) -> Iterator[list]:
    """Rows in batches of `size`, doubling up to BATCH_MODELS; a batch ends early where the slot width changes.

    Witness queries mostly stop within the first 16 classes, where a
    larger first batch, or one that ended at each size, would evaluate
    more batches or more classes past the witness.
    """
    rows, held = iter(rows), []
    while batch := held + list(islice(rows, size - len(held))):  # rows come smallest first
        cut = bisect_right(batch, _slot_bytes(batch[0][0]), key=lambda row: _slot_bytes(row[0]))
        batch, held = batch[:cut], batch[cut:]
        yield batch
        size = min(2 * size, BATCH_MODELS)


class _Batch(_Masks):
    """Rows (n, index tuple, weight), smallest n first and every slot equally wide, packed with row k in slot k.

    The batch packs an agent's or an atom's masks when a formula first
    reads them, each index column through its rows' size tables, and it
    decodes an extension back to rows (`rows`, `points`).  Every root
    context on the batch shares and fills its ``rels`` and ``steps``.
    The batch refers to no context, so a finished batch is freed at once.
    """

    _DIGITS = b"0" + b"1" * 255  # a slot's folded byte as a binary digit: b'0' when empty, b'1' otherwise

    def __init__(self, rows: Sequence[tuple], agent_ids: tuple, atom_names: tuple):
        sizes, indexes, self.weights = zip(*rows)
        # a run (n, a, b): rows a..b-1 have n states
        self.runs = [(n, bisect_left(sizes, n), bisect_right(sizes, n)) for n in range(sizes[0], sizes[-1] + 1)]
        self.columns = list(zip(*indexes))
        self.agent_ids, self.atom_names, self.agents = agent_ids, atom_names, frozenset(agent_ids)
        self.map, self.steps = frozenset((a, frozenset((a,))) for a in agent_ids), {}
        self.slot, self.full = _slot_bytes(sizes[0]), _pack(_subset_table(n)[-1] * (b - a) for n, a, b in self.runs)
        self.rels, self._atoms, self._models = {}, {}, {}

    def __len__(self) -> int:
        return len(self.weights)

    def agent(self, agent: str) -> tuple:
        """(d, mask of the pairs (i, i+d) in one of the agent's blocks) for each offset d with a pair."""
        column = self.columns[self.agent_ids.index(agent)]
        masks = ((d, _pack(b"".join(map(_pair_table(n)[d - 1].__getitem__, column[a:b])) if d < n
                           else bytes(self.slot * (b - a)) for n, a, b in self.runs))
                 for d in range(1, self.runs[-1][0]))
        return tuple((d, m) for d, m in masks if m)

    def atom(self, name: str) -> int:
        out = self._atoms.get(name)
        if out is None:
            column = self.columns[len(self.agent_ids) + self.atom_names.index(name)]
            out = self._atoms[name] = _pack(b"".join(map(_subset_table(n).__getitem__, column[a:b]))
                                            for n, a, b in self.runs)
        return out

    def rows(self, bits: int) -> int:
        """One bit per row, folded in bulk: bit k is set when row k has a state in bits."""
        folded = bits  # OR each slot's bytes into its lowest byte
        for j in range(1, self.slot):
            folded |= bits >> 8 * j
        data = folded.to_bytes(len(self) * self.slot, "little")[::self.slot]
        return int(data.translate(self._DIGITS)[::-1], 2)

    def points(self, bits: int, among: int = -1) -> Iterator[tuple]:
        """(k, row k's model, its least state in bits) for each row k with a state in bits and bit k in among."""
        rows = self.rows(bits) & among
        while rows:
            k = (rows & -rows).bit_length() - 1
            m, states = self.model(k), bits >> 8 * self.slot * k
            yield k, m, sorted(m.states)[(states & -states).bit_length() - 1]
            rows &= rows - 1

    def models(self) -> None:
        """Build every row's model, one size run at a time.  `points` builds a reported row's model on its
        own; the sweeps build every row only because the benchmark's RSS reading depends on what a pass
        allocates (ROADMAP item 1), and dropping this call is item 2."""
        for n, a, b in self.runs:
            rows = zip(*(column[a:b] for column in self.columns))
            self._models.update(enumerate(_models(n, rows, self.agent_ids, self.atom_names), a))

    def model(self, k: int) -> Model:
        """Row k's model, built when first asked for and kept: queries replaying the batch share it, since
        `Model` is frozen and no caller changes its dicts.  Threads filling one row store one model."""
        m = self._models.get(k)
        if m is None:
            n = next(n for n, _, b in self.runs if k < b)
            (m,) = _models(n, [tuple(column[k] for column in self.columns)], self.agent_ids, self.atom_names)
            m = self._models.setdefault(k, m)
        return m


def _stream(rows: Iterable[tuple], agent_ids: tuple, atom_names: tuple, size: int = 4) -> Iterator[_Batch]:
    """Rows (n, index tuple, weight), smallest n first, as the batches of `_batches`: the one place they are built."""
    return (_Batch(batch, agent_ids, atom_names) for batch in _batches(rows, size))


# Rows a replay holds: 4 + 8 + ... + 128 in the growing batches, then 256
# full ones; it holds whole batches, so it may hold one batch past this.
_STORE_ROWS = 252 + 256 * BATCH_MODELS


class _Replay:
    """One bounds' stream, its batches kept as a query first reaches them and replayed by every later query.

    Past `_STORE_ROWS` rows the first query continues the suspended stream
    and later ones a fresh stream.  The replay remembers that its stream
    ended, also right after the batch that crossed the cap, so a replayed
    exhaustion enumerates nothing.
    """

    def __init__(self, key: tuple):
        self.key = key
        self.batches: list = []
        self.rows = 0  # rows in the batches held
        self.ended = False
        self._rest: Optional[Iterator] = None  # the suspended stream, past the batches held
        self._drawing = threading.Lock()  # queries in several threads share the replay

    def _fresh(self, k: int) -> Iterator[_Batch]:
        """The key's class rows past those held, the first batch as long as batch k of one stream from row 0."""
        return _stream(islice(_classes(self.key), self.rows, None), *self.key[1:], min(4 << k, BATCH_MODELS))

    def __iter__(self) -> Iterator[_Batch]:
        k = 0
        while True:
            with self._drawing:
                if k == len(self.batches) and not self.ended and self.rows < _STORE_ROWS:
                    rest = self._rest or self._fresh(k)
                    self._rest = None  # a draw cut short leaves none: the next starts past the rows held
                    batch = next(rest, None)
                    if batch is None:
                        self.ended = True
                    else:
                        self.batches.append(batch)
                        self.rows += len(batch)
                        self._rest = rest
            if k == len(self.batches):
                break
            yield self.batches[k]
            k += 1
        if not self.ended:  # past the cap
            with self._drawing:
                rest, self._rest = self._rest, None
            rest = rest or self._fresh(k)
            batch = next(rest, None)
            if batch is None:
                self.ended = True
            else:
                yield batch
                yield from rest


@lru_cache(maxsize=4)  # the 4 bounds searched last: as many as the `search` benchmark queries
def _replay(key: tuple) -> _Replay:
    """The replay of a key (max_states, agent ids, atom names), to which `search` reduces a query's bounds."""
    return _Replay(key)
