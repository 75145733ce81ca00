"""Kripke models over equivalence relations, group updates, and JSON I/O.

Every accessibility relation is an equivalence relation and is stored as
a partition of the state set, which makes reflexivity, symmetry and
transitivity unviolable by construction.  Intersecting two relations
splits each block by the other partition's block index (their common
refinement); closing a union of relations walks the connected blocks.
Both take time linear in the states, times the number of partitions joined.
The makes and `validate` share one structural check; raw constructors skip it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .syntax import Agent, Group, GroupLike, as_group, delta, group_key


class _lazy:
    """A value computed on first use and kept in the instance dict, which shadows this descriptor
    from then on: `functools.cached_property` without the lock its first use takes on 3.10 and 3.11."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.compute(obj))


@dataclass(frozen=True)
class Partition:
    blocks: frozenset  # frozenset[frozenset[str]]

    @staticmethod
    def of(blocks: Iterable[Iterable[str]], states: Optional[Iterable[str]] = None) -> "Partition":
        """Build from explicit blocks; uncovered states become implied singletons.

        Blocks must be collections of states (a string is not read as its
        characters) and may repeat but not overlap.  A defect raises the
        message `validate` reports for it, without the relation's label.
        """
        out = set()
        for block in blocks:
            if isinstance(block, str):
                raise ValueError(f"block {block!r} is a string, not a list of states")
            try:
                b = frozenset(block)
            except TypeError:
                raise ValueError(f"block {block!r} is not a collection of states") from None
            if not b:
                raise ValueError("empty block")
            out.add(b)
        covered = frozenset().union(*out)
        if sum(map(len, out)) != len(covered):
            counts = Counter(s for b in out for s in b)
            raise ValueError(f"blocks overlap on {min(s for s, c in counts.items() if c > 1)}")
        if states is not None:
            universe = frozenset(states)
            stray = covered - universe
            if stray:
                raise ValueError(f"mentions unknown states {','.join(sorted(stray))}")
            out.update(frozenset([s]) for s in universe - covered)
        return Partition(frozenset(out))

    @staticmethod
    def discrete(states: Iterable[str]) -> "Partition":
        return Partition(frozenset(frozenset([s]) for s in states))

    @_lazy
    def _block_index(self) -> dict:
        return {s: block for block in self.blocks for s in block}

    @_lazy
    def universe(self) -> frozenset:
        return frozenset(self._block_index)

    def block_of(self, state: str) -> frozenset:
        return self._block_index[state]

    def related(self, s: str, t: str) -> bool:
        return t in self._block_index[s]

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement: each block is kept whole if it lies in one block of
        the other, else split by the other's block index.  Linear in the states."""
        index = other._block_index
        out = set()
        for a in self.blocks:
            b = index.get(next(iter(a), None))
            if b is not None and a <= b:
                out.add(a)
                continue
            pieces: dict = {}
            for s in a:
                pieces.setdefault(index.get(s), []).append(s)
            pieces.pop(None, None)
            out.update(map(frozenset, pieces.values()))
        return Partition(frozenset(out))

    def join(self, other: "Partition") -> "Partition":
        return Partition.join_all([self, other])

    @staticmethod
    def join_all(parts: Sequence["Partition"]) -> "Partition":
        """Transitive closure of the union of the relations: connected components
        over blocks, each block entered once from one of its states and its
        unseen states added by a set difference.  Linear in states × partitions."""
        indexes = [part._block_index for part in parts]
        entered: set = set()
        out = set()
        for part in parts:
            for first in part.blocks:
                if first in entered:
                    continue
                component, todo = set(first), list(first)
                while todo:
                    s = todo.pop()
                    for index in indexes:
                        block = index.get(s)
                        if block is not None and block not in entered:
                            entered.add(block)
                            new = block - component
                            component |= new
                            todo.extend(new)
                out.add(first if len(component) == len(first) else frozenset(component))
        return Partition(frozenset(out))

    def refines(self, other: "Partition") -> bool:
        """True when this relation is contained in the other."""
        return all(block <= other.block_of(next(iter(block))) for block in self.blocks)

    def restrict(self, keep: frozenset) -> "Partition":
        return Partition(frozenset(b & keep for b in self.blocks if b & keep))

    def sorted_blocks(self) -> list:
        return sorted([sorted(b) for b in self.blocks])


@dataclass(frozen=True)
class Model:
    states: frozenset
    agents: frozenset
    relations: dict  # Agent -> Partition
    valuation: dict  # atom -> frozenset[str]

    @classmethod
    def make(cls, states, relations, valuation=None, agents=None) -> "Model":
        """The checked constructor: a block list implies its missing singletons,
        a Partition must cover the states exactly."""
        return cls(**_checked(states, agents, relations, valuation))


@dataclass(frozen=True)
class PreModel:
    states: frozenset
    agents: frozenset
    relations: dict        # Agent -> Partition
    valuation: dict        # atom -> frozenset[str]
    group_relations: dict  # Group -> Partition, one entry per non-empty group

    @classmethod
    def make(cls, states, relations, group_relations, valuation=None, agents=None) -> "PreModel":
        """As Model.make; group_relations are keyed by groups or their spellings ("1,2")."""
        return cls(**_checked(states, agents, relations, valuation, group_relations))


# forward references: typing caches Union[...] for good, and real classes in
# it would keep every re-imported copy of this module alive
AnyModel = Union["Model", "PreModel"]


def all_groups(agents: Iterable[Agent]) -> list:
    """Every non-empty group over the agent set, smallest first, as a fresh list."""
    return list(_groups(frozenset(agents)))


@lru_cache(maxsize=64)
def _groups(agents: frozenset) -> tuple:
    ids = sorted(agents)
    return tuple(frozenset(combo) for size in range(1, len(ids) + 1) for combo in combinations(ids, size))


def _label_name(key) -> str:
    """"agent 1" for an agent id, "group 1,2" for a group."""
    return f"group {group_key(key)}" if isinstance(key, frozenset) else f"agent {key}"


def _partition(key, p, states: frozenset) -> Partition:
    """The relation of an agent or group as a partition of states: a block list
    implies its missing singletons, a Partition must cover the states exactly.
    A defect, or no relation (None), raises validate's message."""
    given = isinstance(p, Partition)
    try:
        if p is None:
            raise ValueError("missing relation")
        q = Partition.of(p.blocks if given else p, states)
    except ValueError as exc:
        raise ValueError(f"{_label_name(key)}: {exc}") from None
    if given and len(q.blocks) != len(p.blocks):
        raise ValueError(f"{_label_name(key)} partition does not cover {','.join(sorted(q.universe - p.universe))}")
    return p if given else q


def _structure(states, agents, relations, valuation, group_relations=None) -> tuple:
    """Structural defects in a fixed order, and the fields of the checked structure.

    The one structural check: the makes raise its first message and
    `validate` lists them all.  Each relation is read once, by `_partition`.
    """
    states = frozenset(states)
    agents = frozenset(agents) if agents is not None else frozenset(relations)
    fields = dict(states=states, agents=agents, relations={},
                  valuation={p: frozenset(ss) for p, ss in (valuation or {}).items()})
    problems = [f"{field}: empty" for field in ("states", "agents") if not fields[field]]
    stray = sorted(relations.keys() - agents)
    if stray:
        problems.append(f"relation for undeclared agent {stray[0]!r}")
    for atom, ss in sorted(fields["valuation"].items()):
        if not ss <= states:
            problems.append(f"atom {atom}: valuation contains unknown states {','.join(sorted(ss - states))}")
    wanted = [(fields["relations"], a, relations.get(a)) for a in sorted(agents)]
    if group_relations is not None:
        spelled = {}
        for key in group_relations:
            g = as_group(key)
            stray = sorted(g - agents)
            if stray:
                problems.append(f"group relation for undeclared agent {stray[0]!r} in {group_key(g)!r}")
            elif g in spelled:
                problems.append(f"group {group_key(g)} has two relations, {spelled[g]!r} and {key!r}")
            else:
                spelled[g] = key
        fields["group_relations"] = {}
        wanted += [(fields["group_relations"], g, group_relations[spelled[g]] if g in spelled else None)
                   for g in _groups(agents)]
    for out, key, p in wanted:
        try:
            out[key] = _partition(key, p, states)
        except ValueError as exc:
            problems.append(str(exc))
    return problems, fields


def _checked(*args) -> dict:
    problems, fields = _structure(*args)
    if problems:
        raise ValueError(problems[0])
    return fields


def validate(m: AnyModel) -> list:
    """Invariant violations as data; an empty list means the structure is sound.

    The structural half matters only for raw-constructed structures
    (`Model(...)`, `PreModel(...)`, `Partition(...)`), since the makes
    reject every structural defect.  For pre-models the pseudo-model
    conditions are reported as well, each prefixed with "pseudo:", so
    callers can tell structural defects apart from a merely-not-pseudo
    pre-model.
    """
    problems = _structure(m.states, m.agents, m.relations, m.valuation, getattr(m, "group_relations", None))[0]
    if isinstance(m, PreModel) and not problems:
        for a in sorted(m.agents):
            if m.group_relations[frozenset([a])] != m.relations[a]:
                problems.append(f"pseudo: singleton relation for agent {a} differs from agent relation")
        for small, big in combinations(all_groups(m.agents), 2):
            if small < big and not m.group_relations[big].refines(m.group_relations[small]):
                problems.append(
                    f"pseudo: monotonicity violated for {{{group_key(small)}}}⊆{{{group_key(big)}}}"
                )
    return problems


def is_pseudo(m: PreModel) -> bool:
    return not validate(m)


def require_agents(m: AnyModel, g: GroupLike) -> Group:
    """The group, after checking that every member is one of m's agents."""
    g = as_group(g)
    missing = g - m.agents
    if missing:
        raise ValueError(f"undeclared agent {sorted(missing)[0]!r}")
    return g


def group_relation(m: Model, g: GroupLike) -> Partition:
    """Intersection of the members' relations (blockwise common refinement)."""
    g = require_agents(m, g)
    members = sorted(g)
    out = m.relations[members[0]]
    for a in members[1:]:
        out = out.meet(m.relations[a])
    return out


def common_relation(m: AnyModel, g: GroupLike) -> Partition:
    """Transitive closure of the union of the members' (agent) relations."""
    g = require_agents(m, g)
    return Partition.join_all([m.relations[a] for a in sorted(g)])


def resolve(m: Model, g: GroupLike) -> Model:
    """The group-resolved update: members' relations become the intersection."""
    g = as_group(g)
    shared = group_relation(m, g)
    relations = {a: (shared if a in g else p) for a, p in m.relations.items()}
    return Model(states=m.states, agents=m.agents, relations=relations, valuation=m.valuation)


def resolve_pre(m: PreModel, g: GroupLike) -> PreModel:
    """The resolved update of a pre-model.

    Members take over the stored group relation; a group relation moves to
    the one indexed by the union whenever the groups intersect.
    """
    g = require_agents(m, g)
    shared = m.group_relations[g]
    relations = {a: (shared if a in g else p) for a, p in m.relations.items()}
    group_relations = {
        h: (m.group_relations[h | g] if h & g else p) for h, p in m.group_relations.items()
    }
    return PreModel(states=m.states, agents=m.agents, relations=relations,
                    valuation=m.valuation, group_relations=group_relations)


def as_premodel(m: Model) -> PreModel:
    """Embed a model: every group gets the intersection of its members' relations."""
    group_relations = {g: group_relation(m, g) for g in all_groups(m.agents)}
    return PreModel(states=m.states, agents=m.agents, relations=dict(m.relations),
                    valuation=m.valuation, group_relations=group_relations)


def iterated_relation(m: Model, gs: Sequence[GroupLike], target: Union[Agent, GroupLike]) -> Partition:
    """Relation of the target after a sequence of resolutions, computed in place.

    No intermediate model is materialized: the sequence only ever selects
    an intersection of base relations, and delta names which one.
    """
    core = frozenset([target]) if isinstance(target, str) else as_group(target)
    return group_relation(m, delta(core, gs))


def restrict(m: Model, keep: Iterable[str]) -> Model:
    """The submodel on a non-empty subset of states (blockwise restriction)."""
    keep = frozenset(keep)
    if not keep:
        raise ValueError("cannot restrict a model to an empty state set")
    stray = keep - m.states
    if stray:
        raise ValueError(f"cannot restrict to unknown states {sorted(stray)}")
    relations = {a: p.restrict(keep) for a, p in m.relations.items()}
    valuation = {atom: ss & keep for atom, ss in m.valuation.items()}
    return Model(states=keep, agents=m.agents, relations=relations, valuation=valuation)


# ---------------------------------------------------------------------------
# JSON model files


def model_to_dict(m: AnyModel) -> dict:
    out = {
        "agents": sorted(m.agents),
        "props": sorted(m.valuation),
        "states": sorted(m.states),
        "relations": {a: m.relations[a].sorted_blocks() for a in sorted(m.agents)},
        "valuation": {p: sorted(ss) for p, ss in sorted(m.valuation.items())},
    }
    if isinstance(m, PreModel):
        out["group_relations"] = {
            group_key(g): m.group_relations[g].sorted_blocks() for g in all_groups(m.agents)
        }
    return out


def _typed(value, kind: type, what: str):
    """The decoded value, after checking it has the JSON type the schema asks for."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


# a JSON string or number; true, false and null are not ids
_ID_TYPES = frozenset([str, int, float])


def _ids(value, what: str) -> list:
    """Ids are read as text, so 1 and "1" name the same id."""
    ids = _typed(value, list, what)
    if not _ID_TYPES.issuperset(map(type, ids)):
        bad = next(v for v in ids if type(v) not in _ID_TYPES)
        raise ValueError(f"{what}: {bad!r} is not an id (a JSON string or number)")
    return list(map(str, ids))


def _blocks(value, what: str) -> list:
    blocks = _typed(value, list, what)
    for block in blocks:
        if not isinstance(block, list):
            raise ValueError(f"{what}: block must be a JSON array")
        if not _ID_TYPES.issuperset(map(type, block)):
            raise ValueError(f"{what}: block {block!r} is not a collection of states")
    return [list(map(str, block)) for block in blocks]


def model_from_dict(data: dict) -> AnyModel:
    """Decode the documented model schema; "group_relations" makes it a pre-model.

    A value of the wrong JSON type is a ValueError naming the field; the
    structure itself is checked by the makes.
    """
    _typed(data, dict, "model file")
    try:
        agents = _ids(data["agents"], "agents")
        states = _ids(data["states"], "states")
        raw_relations = _typed(data["relations"], dict, "relations")
    except KeyError as exc:
        raise ValueError(f"model file is missing the {exc.args[0]!r} field") from None
    raw_valuation = _typed(data.get("valuation", {}), dict, "valuation")
    props = _ids(data.get("props", sorted(raw_valuation)), "props")
    stray = set(raw_valuation) - set(props)
    if stray:
        raise ValueError(f"valuation for undeclared atom {sorted(stray)[0]!r}")
    valuation = {p: _ids(raw_valuation.get(p, []), f"valuation of {p}") for p in props}
    relations = {a: _blocks(blocks, f"agent {a}") for a, blocks in raw_relations.items()}
    if "group_relations" not in data:
        return Model.make(states, relations, valuation, agents)
    group_relations = {
        key: _blocks(blocks, f"group {key}")
        for key, blocks in _typed(data["group_relations"], dict, "group_relations").items()
    }
    return PreModel.make(states, relations, group_relations, valuation, agents)


def load_model(path) -> AnyModel:
    """Read a model file; every decoding error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return model_from_dict(json.load(handle))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_model(m: AnyModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(m), handle, indent=2)
        handle.write("\n")
