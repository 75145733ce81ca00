"""Bounded model search and axiom-schema soundness checks.

Models are enumerated exhaustively and deterministically over canonical
state names 0..n-1.  A bound that comes back exhausted is a certificate
up to that bound only, never a validity proof.

`find_model` and `find_countermodel` evaluate one model per isomorphism
class, because every operator is invariant under renaming states.  The
representative is the class's first model in `enumerate_models` order, so
the first witness is the one a model-by-model search would find, and
`models_examined` counts the labelled models of every class evaluated:
an exhausted search covers every labelled model up to the bound.  A size
past 7 states, or with no more labelled models than n!, is searched model
by model instead, and each of its models counts as its own class.
Representatives are packed straight from their index tuples into the
offset masks of `batch.py`, in batches of 4 rows that double up to
`BATCH_MODELS`, so that an early witness costs a small batch and an
exhausted search few large ones.  Only the witness is built as a `Model`.

The soundness sweeps (`check_schema`, `check_rule_rrc`) still run over
every labelled model.  They evaluate their formulas on batches of
consecutive models at once, over the disjoint union of each batch
(`batch.py`), and report exactly what a model-by-model loop would: the
same first witness per formula and the same model count.  Both paths run
the same evaluation context over different relation algebras.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, islice, product
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .batch import BATCH_MODELS, ModelBatches, _Layout, _Masks
from .checker import Context, PointedModel
from .kripke import Model, Partition, PreModel, all_groups, model_to_dict
from .syntax import (
    TRUE,
    FALSE,
    And,
    Ann,
    Atom,
    C,
    D,
    E,
    Formula,
    Group,
    Iff,
    Implies,
    K,
    Neg,
    Or,
    R,
    agents as formula_agents,
    atoms as formula_atoms,
    render,
)


@dataclass(frozen=True)
class SearchBounds:
    max_states: int = 4
    agents: Optional[tuple] = None  # None: take the query's agents
    atoms: Optional[tuple] = None   # None: take the query's atoms
    seed: int = 0
    instance_count: int = 200

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")
        if self.agents is not None:
            object.__setattr__(self, "agents", tuple(sorted(self.agents)))
        if self.atoms is not None:
            object.__setattr__(self, "atoms", tuple(sorted(self.atoms)))


@dataclass(frozen=True)
class SearchOutcome:
    witness: Optional[PointedModel]
    max_states: int
    models_examined: int  # labelled models covered
    classes_examined: Optional[int] = None  # models evaluated: one per class, or per model of a labelled size

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def verdict(self) -> str:
        return "witness" if self.found else "exhausted"

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "max_states": self.max_states,
               "models_examined": self.models_examined, "classes_examined": self.classes_examined}
        if self.witness is not None:
            out["model"] = model_to_dict(self.witness.model)
            out["state"] = self.witness.state
        return out


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
    return list(bounds.agents or ("1",)), list(bounds.atoms or ())


def enumerate_models(bounds: SearchBounds) -> Iterator[Model]:
    """Every model with 1..max_states states over the bounds' agents and atoms."""
    agent_ids, atom_names = _signature(bounds)
    for n in range(1, bounds.max_states + 1):
        states, parts, subsets = _values(n)
        for combo in product(parts, repeat=len(agent_ids)):
            relations = dict(zip(agent_ids, combo))
            for values in product(subsets, repeat=len(atom_names)):
                yield Model(
                    states=states,
                    agents=frozenset(agent_ids),
                    relations=relations,
                    valuation=dict(zip(atom_names, values)),
                )


def _model(n: int, idx: tuple, agent_ids: Sequence[str], atom_names: Sequence[str]) -> Model:
    """The n-state model of an index tuple: one partition per agent, then one subset per atom."""
    states, parts, subsets = _values(n)
    return Model(states=states, agents=frozenset(agent_ids),
                 relations={a: parts[k] for a, k in zip(agent_ids, idx)},
                 valuation={p: subsets[k] for p, k in zip(atom_names, idx[len(agent_ids):])})


# the action tables hold n! * (B(n) + 2^n) entries: 5.1 M at 7 states, 177 M at 8
_MAX_CLASS_STATES = 7


def _orbits(group: list, table: list) -> Iterator[tuple]:
    """(v, stabilizer of v in group) for the least value v of each orbit of
    the group (row indices of the table) on the table's values."""
    if len(group) == 1:  # the identity alone: every value is its own orbit
        for v in range(len(table[0])):
            yield v, group
        return
    rows = [table[g] for g in group]
    seen = bytearray(len(rows[0]))
    for v in range(len(seen)):
        if not seen[v]:
            moved = [row[v] for row in rows]
            for w in moved:
                seen[w] = 1
            yield v, [g for g, w in zip(group, moved) if w == v]


def _classes(bounds: SearchBounds) -> Iterator[tuple]:
    """(n, index tuple, labelled models in its isomorphism class): one row per class.

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
    agent_ids, atom_names = _signature(bounds)
    for n in range(1, bounds.max_states + 1):
        bell = len(_values(n)[1])
        order = factorial(n)
        if n > _MAX_CLASS_STATES or bell ** len(agent_ids) * 2 ** (n * len(atom_names)) <= order:
            ranges = [range(bell)] * len(agent_ids) + [range(1 << n)] * len(atom_names)
            for idx in product(*ranges):
                yield n, idx, 1
            continue
        part_rows, subset_rows = _actions(n)
        tables = [part_rows] * len(agent_ids) + [subset_rows] * len(atom_names)
        chosen = [0] * len(tables)
        # depth-first over the levels: one orbit iterator per level chosen so far
        stack = [_orbits(list(range(order)), tables[0])]
        while stack:
            level = len(stack) - 1
            for chosen[level], stabilizer in stack[-1]:
                if level + 1 < len(tables):
                    stack.append(_orbits(stabilizer, tables[level + 1]))
                    break
                yield n, tuple(chosen), order // len(stabilizer)
            else:
                stack.pop()


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


def _batches(rows: Iterable[tuple]) -> Iterator[list]:
    """Rows in batches of 4, doubling up to BATCH_MODELS; a batch ends early where the slot width changes.

    Witness queries mostly stop within the first 16 classes, where a
    larger first batch, or one that ended at each size, would evaluate
    more batches or more classes past the witness.
    """
    size = 4
    for _, run in groupby(rows, key=lambda row: _slot_bytes(row[0])):
        while batch := list(islice(run, size)):
            yield batch
            size = min(2 * size, BATCH_MODELS)


def _packed(rows: list, agent_ids: list, atom_names: list) -> tuple:
    """(root context, full mask) over a batch of rows, row k in slot k.

    Rows come in runs of one size; each run packs each coordinate's column
    of indexes through that size's tables, and zeros where an offset is
    past its size.
    """
    width = _slot_bytes(rows[0][0])
    runs = [(_pair_table(n), _subset_table(n), list(zip(*(idx for _, idx, _ in run))))
            for n, run in groupby(rows, key=itemgetter(0))]
    top = rows[-1][0]

    def relation_rows(agent: str):
        j = agent_ids.index(agent)
        for d in range(top - 1):
            yield [b"".join(map(pairs[d].__getitem__, cols[j])) if d < len(pairs) else bytes(width * len(cols[j]))
                   for pairs, _, cols in runs]

    def atom_rows(name: str) -> list:
        j = len(agent_ids) + atom_names.index(name)
        return [b"".join(map(subsets.__getitem__, cols[j])) for _, subsets, cols in runs]

    full = int.from_bytes(b"".join(subsets[-1] * len(cols[0]) for _, subsets, cols in runs), "little")
    return Context(_Masks(frozenset(agent_ids), full, relation_rows, atom_rows), (), full, {}), full


def enumerate_pseudo_models(max_states: int, agents: Sequence[str], atoms: Sequence[str] = ()) -> Iterator[PreModel]:
    """Every pseudo model up to the bound.

    Group relations range over all assignments satisfying the pseudo
    conditions: singletons equal the agent relations, and each larger
    group refines every smaller group inside it.
    """
    agent_ids = sorted(agents)
    atom_names = sorted(atoms)
    groups = all_groups(agent_ids)
    larger = [g for g in groups if len(g) > 1]
    for n in range(1, max_states + 1):
        states, parts, subsets = _values(n)
        for combo in product(parts, repeat=len(agent_ids)):
            relations = dict(zip(agent_ids, combo))
            assigned = {frozenset([a]): relations[a] for a in agent_ids}

            def rec(idx) -> Iterator[dict]:
                if idx == len(larger):
                    yield dict(assigned)
                    return
                g = larger[idx]
                ceilings = [assigned[h] for h in groups if h < g]
                for p in parts:
                    if all(p.refines(c) for c in ceilings):
                        assigned[g] = p
                        yield from rec(idx + 1)
                        del assigned[g]

            for group_relations in rec(0):
                for values in product(subsets, repeat=len(atom_names)):
                    yield PreModel(
                        states=states,
                        agents=frozenset(agent_ids),
                        relations=relations,
                        valuation=dict(zip(atom_names, values)),
                        group_relations=group_relations,
                    )


def _bounds_for_query(bounds: SearchBounds, f: Formula) -> SearchBounds:
    used_agents, used_atoms = formula_agents(f), formula_atoms(f)
    agent_ids = bounds.agents
    if agent_ids is None:
        agent_ids = tuple(sorted(used_agents)) or ("1",)
    atom_names = bounds.atoms
    if atom_names is None:
        atom_names = tuple(sorted(used_atoms))
    for kind, used, declared in (("agent", used_agents, agent_ids), ("atom", used_atoms, atom_names)):
        missing = used - set(declared)
        if missing:
            raise ValueError(f"query mentions {kind} {sorted(missing)[0]!r} outside the search bounds")
    return SearchBounds(bounds.max_states, agent_ids, atom_names, bounds.seed, bounds.instance_count)


def _first_point(f: Formula, bounds: SearchBounds, falsify: bool) -> SearchOutcome:
    bounds = _bounds_for_query(bounds, f)
    agent_ids, atom_names = _signature(bounds)
    examined = classes = 0
    for rows in _batches(_classes(bounds)):
        root, full = _packed(rows, agent_ids, atom_names)
        ext = root.extension(f)
        points = full & ~ext if falsify else ext
        if points:  # the lowest bit: the first row, then its least state
            k, i = divmod((points & -points).bit_length() - 1, 8 * _slot_bytes(rows[0][0]))
            rows = rows[:k + 1]
        examined += sum(size for _, _, size in rows)
        classes += len(rows)
        if points:
            m = _model(*rows[k][:2], agent_ids, atom_names)
            return SearchOutcome(PointedModel(m, sorted(m.states)[i]), bounds.max_states, examined, classes)
    return SearchOutcome(None, bounds.max_states, examined, classes)


def find_model(f: Formula, bounds: SearchBounds = SearchBounds()) -> SearchOutcome:
    """First pointed model satisfying f, or exhaustion up to the bound."""
    return _first_point(f, bounds, falsify=False)


def find_countermodel(f: Formula, bounds: SearchBounds = SearchBounds()) -> SearchOutcome:
    """First pointed model falsifying f; exhaustion is not a validity proof."""
    return _first_point(f, bounds, falsify=True)


# ---------------------------------------------------------------------------
# Seeded formula generation


class FormulaGen:
    """Deterministic random formulas with a depth cap."""

    def __init__(self, agents: Sequence[str], atoms: Sequence[str], seed: int = 0,
                 depth: int = 2, allow_c: bool = True, allow_r: bool = True,
                 allow_ann: bool = False, pool: Optional[dict] = None):
        self.rng = random.Random(seed)
        self.agent_ids = sorted(agents)
        self.atom_names = sorted(atoms)
        self.group_list = all_groups(self.agent_ids)
        self.depth = depth
        # structural interning: equal subtrees share identity, also across
        # generators handed the same pool
        self._pool: dict = {} if pool is None else pool
        ops = ["leaf", "leaf", "neg", "neg", "and", "and", "K", "K", "D", "D"]
        if allow_c:
            ops.append("C")
        if allow_r:
            ops += ["R", "R"]
        if allow_ann:
            ops.append("ann")
        self.ops = ops

    def _make(self, node: Formula) -> Formula:
        return self._pool.setdefault(node, node)

    def agent(self) -> str:
        return self.rng.choice(self.agent_ids)

    def group(self) -> Group:
        return self.rng.choice(self.group_list)

    def disjoint_pair(self) -> tuple:
        while True:
            g, h = self.group(), self.group()
            if not g & h:
                return g, h

    def overlapping_pair(self) -> tuple:
        while True:
            g, h = self.group(), self.group()
            if g & h:
                return g, h

    def nested_pair(self) -> tuple:
        """(G, H) with G a subset of H."""
        h = self.group()
        members = sorted(h)
        g = frozenset(m for m in members if self.rng.random() < 0.5)
        if not g:
            g = frozenset([self.rng.choice(members)])
        return g, h

    def leaf(self) -> Formula:
        roll = self.rng.random()
        if self.atom_names and roll < 0.8:
            return self._make(Atom(self.rng.choice(self.atom_names)))
        return TRUE if roll < 0.9 else FALSE

    def formula(self, depth: Optional[int] = None) -> Formula:
        d = self.depth if depth is None else depth
        if d <= 0:
            return self.leaf()
        op = self.rng.choice(self.ops)
        if op == "leaf":
            return self.leaf()
        if op == "neg":
            return self._make(Neg(self.formula(d - 1)))
        if op == "and":
            return self._make(And(self.formula(d - 1), self.formula(d - 1)))
        if op == "K":
            return self._make(K(self.agent(), self.formula(d - 1)))
        if op == "D":
            return self._make(D(self.group(), self.formula(d - 1)))
        if op == "C":
            return self._make(C(self.group(), self.formula(d - 1)))
        if op == "R":
            return self._make(R(self.group(), self.formula(d - 1)))
        return self._make(Ann(self.formula(d - 1), self.formula(d - 1)))

    def intern(self, node: Formula) -> Formula:
        """Canonicalize a formula built outside the generator, sharing subtrees."""
        rebuilt: Formula
        if isinstance(node, Neg):
            rebuilt = Neg(self.intern(node.body))
        elif isinstance(node, And):
            rebuilt = And(self.intern(node.left), self.intern(node.right))
        elif isinstance(node, K):
            rebuilt = K(node.agent, self.intern(node.body))
        elif isinstance(node, D):
            rebuilt = D(node.group, self.intern(node.body))
        elif isinstance(node, C):
            rebuilt = C(node.group, self.intern(node.body))
        elif isinstance(node, R):
            rebuilt = R(node.group, self.intern(node.body))
        elif isinstance(node, Ann):
            rebuilt = Ann(self.intern(node.announced), self.intern(node.body))
        else:
            rebuilt = node
        return self._make(rebuilt)

    def tautology(self, a: Formula, b: Formula) -> Formula:
        shape = self.rng.randrange(6)
        if shape == 0:
            return Implies(a, a)
        if shape == 1:
            return Or(a, Neg(a))
        if shape == 2:
            return Neg(And(a, Neg(a)))
        if shape == 3:
            return Implies(And(a, b), a)
        if shape == 4:
            return Implies(a, Implies(b, a))
        return Implies(And(Implies(a, b), a), b)

    def valid_biased(self) -> Formula:
        if self.rng.random() < 0.5:
            return self.tautology(self.formula(), self.formula())
        return self.formula()


# ---------------------------------------------------------------------------
# Axiom schemata and rules


def _schema_builders(with_common: bool) -> dict:
    def pc(gen):
        return gen.tautology(gen.formula(), gen.formula())

    def k(gen):
        a, b, i = gen.formula(), gen.formula(), gen.agent()
        return Implies(K(i, Implies(a, b)), Implies(K(i, a), K(i, b)))

    def t(gen):
        a = gen.formula()
        return Implies(K(gen.agent(), a), a)

    def four(gen):
        a, i = gen.formula(), gen.agent()
        return Implies(K(i, a), K(i, K(i, a)))

    def five(gen):
        a, i = gen.formula(), gen.agent()
        return Implies(Neg(K(i, a)), K(i, Neg(K(i, a))))

    def k_d(gen):
        a, b, g = gen.formula(), gen.formula(), gen.group()
        return Implies(D(g, Implies(a, b)), Implies(D(g, a), D(g, b)))

    def t_d(gen):
        a = gen.formula()
        return Implies(D(gen.group(), a), a)

    def five_d(gen):
        a, g = gen.formula(), gen.group()
        return Implies(Neg(D(g, a)), D(g, Neg(D(g, a))))

    def d1(gen):
        a, i = gen.formula(), gen.agent()
        return Iff(K(i, a), D(frozenset([i]), a))

    def d2(gen):
        g, h = gen.nested_pair()
        a = gen.formula()
        return Implies(D(g, a), D(h, a))

    def k_c(gen):
        a, b, g = gen.formula(), gen.formula(), gen.group()
        return Implies(C(g, Implies(a, b)), Implies(C(g, a), C(g, b)))

    def t_c(gen):
        a = gen.formula()
        return Implies(C(gen.group(), a), a)

    def c1(gen):
        a, g = gen.formula(), gen.group()
        return Implies(C(g, a), E(g, C(g, a)))

    def c2(gen):
        a, g = gen.formula(), gen.group()
        return Implies(C(g, Implies(a, E(g, a))), Implies(a, C(g, a)))

    def ra(gen):
        if not gen.atom_names:
            raise ValueError("RA needs at least one atom in the bounds")
        p = Atom(gen.rng.choice(gen.atom_names))
        return Iff(R(gen.group(), p), p)

    def rc(gen):
        a, b, g = gen.formula(), gen.formula(), gen.group()
        return Iff(R(g, And(a, b)), And(R(g, a), R(g, b)))

    def rn(gen):
        a, g = gen.formula(), gen.group()
        return Iff(R(g, Neg(a)), Neg(R(g, a)))

    def rd1(gen):
        g, h = gen.overlapping_pair()
        a = gen.formula()
        return Iff(R(g, D(h, a)), D(g | h, R(g, a)))

    def rd2(gen):
        g, h = gen.disjoint_pair()
        a = gen.formula()
        return Iff(R(g, D(h, a)), D(h, R(g, a)))

    builders = {
        "PC": pc, "K": k, "T": t, "4": four, "5": five,
        "K_D": k_d, "T_D": t_d, "5_D": five_d, "D1": d1, "D2": d2,
    }
    if with_common:
        builders.update({"K_C": k_c, "T_C": t_c, "C1": c1, "C2": c2})
    builders.update({"RA": ra, "RC": rc, "RN": rn, "RD1": rd1, "RD2": rd2})
    return builders


def schema_builders(system: str) -> dict:
    """The schema table of a proof system, as instance builders by name."""
    system = system.lower()
    if system == "rd":
        return _schema_builders(with_common=False)
    if system == "rcd":
        return _schema_builders(with_common=True)
    raise ValueError(f"unknown system {system!r} (expected 'rd' or 'rcd')")


def _rule_builders(system: str) -> dict:
    def mp(gen):
        a, b = gen.valid_biased(), gen.valid_biased()
        return [a, Implies(a, b)], b

    def n(gen):
        a = gen.valid_biased()
        return [a], K(gen.agent(), a)

    def n_r(gen):
        a = gen.valid_biased()
        return [a], R(gen.group(), a)

    def n_c(gen):
        a = gen.valid_biased()
        return [a], C(gen.group(), a)

    rules = {"MP": mp, "N": n, "N_R": n_r}
    if system.lower() == "rcd":
        rules["N_C"] = n_c
    return rules


@dataclass
class SchemaViolation:
    name: str
    instance: Formula
    model: Model
    state: str

    def to_dict(self) -> dict:
        return {"schema": self.name, "instance": render(self.instance),
                "model": model_to_dict(self.model), "state": self.state}


@dataclass
class SchemaResult:
    name: str
    instances: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class RuleResult:
    name: str
    instances: int
    fired: int  # instances whose premises were all valid on the class
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class SchemaReport:
    system: str
    schemata: list
    rules: list
    models_examined: int

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.schemata) and all(r.ok for r in self.rules)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "models_examined": self.models_examined,
            "schemata": [
                {"schema": s.name, "instances": s.instances,
                 "verdict": "ok" if s.ok else "violated",
                 "violations": [v.to_dict() for v in s.violations]}
                for s in self.schemata
            ],
            "rules": [
                {"rule": r.name, "instances": r.instances, "fired": r.fired,
                 "verdict": "ok" if r.ok else "violated",
                 "violations": [v.to_dict() for v in r.violations]}
                for r in self.rules
            ],
        }

    def text(self) -> str:
        lines = [f"system {self.system}: {self.models_examined} models examined"]
        for s in self.schemata:
            if s.ok:
                lines.append(f"  schema {s.name}: ok ({s.instances} instances)")
            else:
                v = s.violations[0]
                lines.append(
                    f"  schema {s.name}: VIOLATED by {render(v.instance)} "
                    f"at state {v.state} of {json.dumps(model_to_dict(v.model))}"
                )
        for r in self.rules:
            status = "ok" if r.ok else "VIOLATED"
            lines.append(f"  rule {r.name}: {status} ({r.instances} instances, {r.fired} fired)")
        return "\n".join(lines)


def _first_failures(tracked: dict, models: Iterable[Model]) -> int:
    """Record in `tracked` the first failing point of every formula; returns models examined.

    Models are evaluated in batches, but the count is the one of a
    model-by-model sweep that stops on the model after the last first
    failure, or runs out.
    """
    still_valid = set(tracked)
    examined = 0
    last_failure = -1  # index of the latest model that was some formula's first failure
    stream = ModelBatches(models)
    for batch in stream:
        for f in list(still_valid):
            bad = batch.full & ~batch.extension(f)
            if bad:
                k, state = batch.lowest(bad)
                tracked[f] = PointedModel(batch.models[k], state)
                last_failure = max(last_failure, examined + k)
                still_valid.discard(f)
        examined += len(batch.models)
        if not still_valid:
            break
    if not still_valid and (last_failure + 1 < examined or stream.more):
        examined = last_failure + 2
    return examined


DEFAULT_SCHEMA_BOUNDS = SearchBounds(max_states=3, agents=("1", "2"), atoms=("p",))


def check_schema(system: str, bounds: SearchBounds = DEFAULT_SCHEMA_BOUNDS,
                 override: Optional[dict] = None, schemas: Optional[Iterable[str]] = None,
                 include_rules: bool = True) -> SchemaReport:
    """Soundness sweep of a proof system over all models within the bounds.

    Every schema gets instance_count seeded instances, deduplicated; the
    rules are checked as validity preservation over the same model class.
    An override swaps in alternative builders by schema name, which is how
    the mutation tests inject deliberately broken schemata; `schemas`
    restricts the sweep to the named subset.
    """
    builders = dict(schema_builders(system))
    if override:
        unknown = set(override) - set(builders)
        if unknown:
            raise ValueError(f"override for unknown schema {sorted(unknown)[0]!r}")
        builders.update(override)
    if schemas is not None:
        wanted = list(schemas)
        unknown = set(wanted) - set(builders)
        if unknown:
            raise ValueError(f"unknown schema {sorted(unknown)[0]!r}")
        builders = {name: builders[name] for name in builders if name in wanted}
    allow_c = system.lower() == "rcd"
    agent_ids = bounds.agents or ("1", "2")
    atom_names = bounds.atoms if bounds.atoms is not None else ("p",)
    base = SearchBounds(bounds.max_states, agent_ids, atom_names, bounds.seed, bounds.instance_count)

    pool: dict = {}
    schema_instances = {}
    for offset, (name, builder) in enumerate(builders.items()):
        gen = FormulaGen(agent_ids, atom_names, seed=base.seed + offset, allow_c=allow_c, pool=pool)
        seen, ordered = set(), []
        for _ in range(base.instance_count):
            inst = gen.intern(builder(gen))
            if inst not in seen:
                seen.add(inst)
                ordered.append(inst)
        schema_instances[name] = ordered

    rule_instances = {}
    rule_table = _rule_builders(system) if include_rules else {}
    for offset, (name, builder) in enumerate(rule_table.items()):
        gen = FormulaGen(agent_ids, atom_names, seed=base.seed + 1000 + offset, allow_c=allow_c, pool=pool)
        seen, ordered = set(), []
        for _ in range(base.instance_count):
            premises, conclusion = builder(gen)
            inst = (tuple(gen.intern(p) for p in premises), gen.intern(conclusion))
            if inst not in seen:
                seen.add(inst)
                ordered.append(inst)
        rule_instances[name] = ordered

    # one pass over the model stream decides class-validity of every formula
    tracked: dict = {}
    for instances in schema_instances.values():
        for inst in instances:
            tracked.setdefault(inst, None)
    for instances in rule_instances.values():
        for premises, conclusion in instances:
            for f in list(premises) + [conclusion]:
                tracked.setdefault(f, None)

    examined = _first_failures(tracked, enumerate_models(base))

    schemata = []
    for name, instances in schema_instances.items():
        violations = [
            SchemaViolation(name, inst, tracked[inst].model, tracked[inst].state)
            for inst in instances
            if tracked[inst] is not None
        ]
        schemata.append(SchemaResult(name, len(instances), violations))

    rules = []
    for name, instances in rule_instances.items():
        fired = 0
        violations = []
        for premises, conclusion in instances:
            if any(tracked[p] is not None for p in premises):
                continue  # a premise fails on the class: vacuous instance
            fired += 1
            if tracked[conclusion] is not None:
                witness = tracked[conclusion]
                violations.append(SchemaViolation(name, conclusion, witness.model, witness.state))
        rules.append(RuleResult(name, len(instances), fired, violations))

    return SchemaReport(system=system.lower(), schemata=schemata, rules=rules,
                        models_examined=examined)


# ---------------------------------------------------------------------------
# The induction rule for resolved common knowledge, checked model-locally


@dataclass
class RrcInstance:
    premise: Formula
    conclusion: Formula
    antecedent: Formula

    def to_dict(self) -> dict:
        return {"antecedent": render(self.antecedent), "premise": render(self.premise),
                "conclusion": render(self.conclusion)}


@dataclass
class RrcViolation:
    instance: RrcInstance
    model: Model
    state: str

    def to_dict(self) -> dict:
        out = self.instance.to_dict()
        out.update({"model": model_to_dict(self.model), "state": self.state})
        return out


@dataclass
class RrcReport:
    instances: int
    premise_hits: int  # (model, instance) pairs whose premise held everywhere
    violations: list
    models_examined: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"rule": "RR_C", "instances": self.instances,
                "premise_hits": self.premise_hits,
                "models_examined": self.models_examined,
                "verdict": "ok" if self.ok else "violated",
                "violations": [v.to_dict() for v in self.violations]}

    def text(self) -> str:
        head = (f"rule RR_C: {'ok' if self.ok else 'VIOLATED'} "
                f"({self.instances} instances, {self.premise_hits} premise hits, "
                f"{self.models_examined} models)")
        lines = [head]
        for v in self.violations[:5]:
            lines.append(f"  violated by {v.instance.to_dict()} at state {v.state}")
        return "\n".join(lines)


def _rrc_sweep(instances: list, models: Iterable[Model]) -> tuple:
    """(premise hits, violations as (model, instance index, state) in model order, models examined).

    An instance is (phi, E_H phi, R_G.. psi, R_G.. C_H psi); it is hit in a
    model where phi implies both premise conjuncts at every state.
    """
    premise_hits = 0
    found = []  # (model index, instance index, model, state)
    examined = 0
    for batch in ModelBatches(models):
        for j, (phi, everybody, boxed_psi, boxed_c) in enumerate(instances):
            phi_ext = batch.extension(phi)
            # the premise holds in every model whose slot of `missed` is empty
            missed = phi_ext & ~(batch.extension(everybody) & batch.extension(boxed_psi))
            premise_hits += batch.zero_slots(missed)
            for k, state in batch.firsts(phi_ext & ~batch.extension(boxed_c)):
                if not batch.slot(missed, k):
                    found.append((examined + k, j, batch.models[k], state))
        examined += len(batch.models)
    found.sort(key=lambda hit: hit[:2])
    return premise_hits, [(m, j, state) for _, j, m, state in found], examined


DEFAULT_RRC_BOUNDS = SearchBounds(max_states=4, agents=("1", "2"), atoms=("p",))


def check_rule_rrc(bounds: SearchBounds = DEFAULT_RRC_BOUNDS, max_prefix: int = 2) -> RrcReport:
    """Model-local check of the induction rule for resolved common knowledge.

    For every enumerated model and every seeded instance (phi, psi, H,
    G_1..G_n): whenever phi -> (E_H phi & R_G1..R_Gn psi) holds at every
    state, phi -> R_G1..R_Gn C_H psi must hold at every state too.
    """
    agent_ids = bounds.agents or ("1", "2")
    atom_names = bounds.atoms if bounds.atoms is not None else ("p",)
    gen = FormulaGen(agent_ids, atom_names, seed=bounds.seed, allow_c=True)

    instances = []
    seen = set()
    for _ in range(bounds.instance_count):
        phi, psi, h = gen.formula(), gen.formula(), gen.group()
        prefix = tuple(gen.group() for _ in range(gen.rng.randint(0, max_prefix)))
        key = (phi, psi, h, prefix)
        if key in seen:
            continue
        seen.add(key)
        boxed_psi: Formula = psi
        boxed_c: Formula = C(h, psi)
        for g in reversed(prefix):
            boxed_psi = R(g, boxed_psi)
            boxed_c = R(g, boxed_c)
        instances.append((phi, gen.intern(E(h, phi)), gen.intern(boxed_psi), gen.intern(boxed_c)))

    enum_bounds = SearchBounds(bounds.max_states, agent_ids, atom_names)
    premise_hits, found, examined = _rrc_sweep(instances, enumerate_models(enum_bounds))
    violations = []
    for m, j, state in found:
        phi, everybody, boxed_psi, boxed_c = instances[j]
        inst = RrcInstance(premise=Implies(phi, And(everybody, boxed_psi)),
                           conclusion=Implies(phi, boxed_c), antecedent=phi)
        violations.append(RrcViolation(inst, m, state))
    return RrcReport(instances=len(instances), premise_hits=premise_hits,
                     violations=violations, models_examined=examined)
