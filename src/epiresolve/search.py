"""Bounded model search and axiom-schema soundness checks.

Models are enumerated exhaustively and deterministically over canonical
state names 0..n-1.  A bound that comes back exhausted is a certificate
up to that bound only, never a validity proof.

`find_model` and `find_countermodel` evaluate one model per isomorphism
class (`_iso.py`), and `models_examined` counts the labelled models of
every class evaluated: an exhausted search covers every labelled model up
to the bound, and the first witness is the one a model-by-model search
would find.  Each bounds' batches are kept for the process, so a later
query on the same agents, atoms and max_states only evaluates its formula.

The soundness sweeps (`check_schema`, `check_rule_rrc`) share one loop,
`_sweep`, over every labelled model in `enumerate_models` order.
Schemata and class-level rules keep each formula's first failure and stop
once every formula has failed; RR_C counts, per instance, the models where
its premise never fails, and reports those where its conclusion does.
Both report what a model-by-model loop would: the same first witness per
formula and the same model count.  One instantiator, `_instance`, draws
every schema, rule and RR_C instance from one table of rows (`_SCHEMATA`,
`_RULES`, `_RRC`), each naming its metavariables in draw order; `_DRAWS`
draws them and holds each side condition once: nested, overlapping and
disjoint group pairs.

Search and sweeps evaluate a formula once over each batch that
`_iso._stream` packs (`batch.py`), and the batch decodes the extension:
one bit per row, and each row's model and least state.  Both read the
bounds' agents and atoms through one helper (`_iso._signature`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, product, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .batch import BATCH_MODELS
from .checker import Context, PointedModel
from .kripke import Model, PreModel, all_groups, model_to_dict
from ._iso import _labelled, _models, _replay, _signature, _stream, _values, set_partitions
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
            object.__setattr__(self, "agents", tuple(sorted(set(self.agents))))
        if self.atoms is not None:
            object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms))))


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


def enumerate_models(bounds: SearchBounds) -> Iterator[Model]:
    """Every model with 1..max_states states over the bounds' agents and atoms."""
    agent_ids, atom_names = _signature(bounds)
    for n in range(1, bounds.max_states + 1):
        yield from _models(n, _labelled(n, len(agent_ids), len(atom_names)), agent_ids, atom_names)


def enumerate_pseudo_models(max_states: int, agents: Sequence[str], atoms: Sequence[str] = ()) -> Iterator[PreModel]:
    """Every pseudo model up to the bound.

    Group relations range over all assignments satisfying the pseudo
    conditions: singletons equal the agent relations, and each larger
    group refines every smaller group inside it.
    """
    agent_ids = sorted(set(agents))  # a repeated id counts once, as in SearchBounds
    if not agent_ids:  # a pre-model has at least one agent
        raise ValueError("enumerate_pseudo_models needs at least one agent")
    atom_names, agent_set = sorted(set(atoms)), frozenset(agent_ids)
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
                    yield PreModel(states, agent_set, relations, dict(zip(atom_names, values)), group_relations)


def _first_point(f: Formula, bounds: SearchBounds, falsify: bool) -> SearchOutcome:
    agent_ids, atom_names = _signature(bounds, f._agents, f._atoms)
    for kind, used, declared in (("agent", f._agents, agent_ids), ("atom", f._atoms, atom_names)):
        if not used.issubset(declared):
            raise ValueError(f"query mentions {kind} {min(used.difference(declared))!r} outside the search bounds")
    examined = classes = 0
    # seed and instance_count do not change a search: equal signatures and max_states share one replay
    for batch in _replay((bounds.max_states, agent_ids, atom_names)):
        ext = Context(batch).extension(f, checked=True)  # against the bounds, above
        for k, m, state in batch.points(batch.full & ~ext if falsify else ext):  # the first point is the witness
            return SearchOutcome(PointedModel(m, state), bounds.max_states,
                                 examined + sum(batch.weights[:k + 1]), classes + k + 1)
        examined += sum(batch.weights)
        classes += len(batch)
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
    """Deterministic random formulas with a depth cap; equal subtrees are one interned node."""

    def __init__(self, agents: Sequence[str], atoms: Sequence[str], seed: int = 0,
                 depth: int = 2, allow_c: bool = True, allow_r: bool = True,
                 allow_ann: bool = False):
        self.rng = random.Random(seed)
        self.agent_ids = sorted(agents)
        self.atom_names = sorted(atoms)
        self.group_list = all_groups(self.agent_ids)
        self.depth = depth
        ops = ["leaf", "leaf", "neg", "neg", "and", "and", "K", "K", "D", "D"]
        if allow_c:
            ops.append("C")
        if allow_r:
            ops += ["R", "R"]
        if allow_ann:
            ops.append("ann")
        self.ops = ops

    def agent(self) -> str:
        return self.rng.choice(self.agent_ids)

    def group(self) -> Group:
        return self.rng.choice(self.group_list)

    def disjoint_pair(self) -> Optional[tuple]:
        if len(self.agent_ids) < 2:  # no two groups are disjoint: the draw would never end
            return None
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
            return Atom(self.rng.choice(self.atom_names))
        return TRUE if roll < 0.9 else FALSE

    def formula(self, depth: Optional[int] = None) -> Formula:
        d = self.depth if depth is None else depth
        if d <= 0:
            return self.leaf()
        op = self.rng.choice(self.ops)
        if op == "leaf":
            return self.leaf()
        if op == "neg":
            return Neg(self.formula(d - 1))
        if op == "and":
            return And(self.formula(d - 1), self.formula(d - 1))
        if op == "K":
            return K(self.agent(), self.formula(d - 1))
        if op == "D":
            return D(self.group(), self.formula(d - 1))
        if op == "C":
            return C(self.group(), self.formula(d - 1))
        if op == "R":
            return R(self.group(), self.formula(d - 1))
        return Ann(self.formula(d - 1), self.formula(d - 1))

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


# ---------------------------------------------------------------------------
# Axiom schemata and rules: one table of rows, one instantiator

# What each metavariable of a draw spec draws; None means the bounds hold no instance
_DRAWS = {
    "a": FormulaGen.formula, "b": FormulaGen.formula,
    "t": lambda gen: gen.tautology(gen.formula(), gen.formula()),
    "p": lambda gen: Atom(gen.rng.choice(gen.atom_names)) if gen.atom_names else None,
    "i": FormulaGen.agent,
    "G": FormulaGen.group, "H": FormulaGen.group,
    "G<H": FormulaGen.nested_pair,       # G a subset of H
    "G^H": FormulaGen.overlapping_pair,  # G and H overlap
    "G|H": FormulaGen.disjoint_pair,     # G and H disjoint; None with fewer than two agents
    "G*": lambda gen: [gen.group() for _ in range(gen.rng.randint(0, 2))],  # RR_C's prefix G_1..G_n, n <= 2
}
# a rule's premises: a tautology half the time, so that the rules fire
_DRAWS["a'"] = _DRAWS["b'"] = lambda gen: _DRAWS["t"](gen) if gen.rng.random() < 0.5 else gen.formula()


def _resolved(prefix: Sequence[Group], f: Formula) -> Formula:
    """R_G1 .. R_Gn f."""
    return reduce(lambda body, g: R(g, body), reversed(prefix), f)


# Rows (name, systems, draw spec, template): the template builds a schema's
# instance from the drawn values, or a rule's as (premises, conclusion)
_SCHEMATA = (
    ("PC", "rd rcd", "t", lambda t: t),
    ("K", "rd rcd", "a b i", lambda a, b, i: Implies(K(i, Implies(a, b)), Implies(K(i, a), K(i, b)))),
    ("T", "rd rcd", "a i", lambda a, i: Implies(K(i, a), a)),
    ("4", "rd rcd", "a i", lambda a, i: Implies(K(i, a), K(i, K(i, a)))),
    ("5", "rd rcd", "a i", lambda a, i: Implies(Neg(K(i, a)), K(i, Neg(K(i, a))))),
    ("K_D", "rd rcd", "a b G", lambda a, b, g: Implies(D(g, Implies(a, b)), Implies(D(g, a), D(g, b)))),
    ("T_D", "rd rcd", "a G", lambda a, g: Implies(D(g, a), a)),
    ("5_D", "rd rcd", "a G", lambda a, g: Implies(Neg(D(g, a)), D(g, Neg(D(g, a))))),
    ("D1", "rd rcd", "a i", lambda a, i: Iff(K(i, a), D(frozenset([i]), a))),
    ("D2", "rd rcd", "G<H a", lambda g, h, a: Implies(D(g, a), D(h, a))),
    ("K_C", "rcd", "a b G", lambda a, b, g: Implies(C(g, Implies(a, b)), Implies(C(g, a), C(g, b)))),
    ("T_C", "rcd", "a G", lambda a, g: Implies(C(g, a), a)),
    ("C1", "rcd", "a G", lambda a, g: Implies(C(g, a), E(g, C(g, a)))),
    ("C2", "rcd", "a G", lambda a, g: Implies(C(g, Implies(a, E(g, a))), Implies(a, C(g, a)))),
    ("RA", "rd rcd", "p G", lambda p, g: Iff(R(g, p), p)),
    ("RC", "rd rcd", "a b G", lambda a, b, g: Iff(R(g, And(a, b)), And(R(g, a), R(g, b)))),
    ("RN", "rd rcd", "a G", lambda a, g: Iff(R(g, Neg(a)), Neg(R(g, a)))),
    ("RD1", "rd rcd", "G^H a", lambda g, h, a: Iff(R(g, D(h, a)), D(g | h, R(g, a)))),
    ("RD2", "rd rcd", "G|H a", lambda g, h, a: Iff(R(g, D(h, a)), D(h, R(g, a)))),
)
_RULES = (
    ("MP", "rd rcd", "a' b'", lambda a, b: ([a, Implies(a, b)], b)),
    ("N", "rd rcd", "a' i", lambda a, i: ([a], K(i, a))),
    ("N_R", "rd rcd", "a' G", lambda a, g: ([a], R(g, a))),
    ("N_C", "rcd", "a' G", lambda a, g: ([a], C(g, a))),
)
# checked model-locally, by check_rule_rrc
_RRC = ("RR_C", "rcd", "a b H G*",
        lambda phi, psi, h, prefix: ([Implies(phi, And(E(h, phi), _resolved(prefix, psi)))],
                                     Implies(phi, _resolved(prefix, C(h, psi)))))


def _instance(draws: Sequence, template, gen: FormulaGen):
    """The template over the draws' values, drawn in order; None when a draw finds no value in the bounds."""
    values = []
    for draw in draws:
        value = draw(gen)
        if value is None:
            return None
        values += value if type(value) is tuple else (value,)
    return template(*values)


@lru_cache(maxsize=None)  # each sweep job asks; read-only, so callers that change it copy it
def _builders(rows: tuple, system: str) -> dict:
    """The rows of a proof system, as instance builders callable(gen) by name."""
    system = system.lower()
    if system not in ("rd", "rcd"):
        raise ValueError(f"unknown system {system!r} (expected 'rd' or 'rcd')")
    return {name: partial(_instance, [_DRAWS[var] for var in spec.split()], template)
            for name, systems, spec, template in rows if system in systems.split()}


def schema_builders(system: str) -> dict:
    """The schema table of a proof system, as instance builders by name."""
    return dict(_builders(_SCHEMATA, system))


@dataclass
class Violation:
    """A formula that fails at a state of a model: a schema instance, or a rule's conclusion."""

    name: str
    instance: Formula
    model: Model
    state: str
    premise: Optional[Formula] = None  # a model-local rule: its premise, valid on the model

    def about(self) -> dict:
        if self.premise is None:
            return {"schema": self.name, "instance": render(self.instance)}
        # the conclusion is phi -> R..C_H psi, that is ~(phi & ~R..C_H psi)
        return {"antecedent": render(self.instance.body.left), "premise": render(self.premise),
                "conclusion": render(self.instance)}

    def to_dict(self) -> dict:
        return {**self.about(), "model": model_to_dict(self.model), "state": self.state}


_COUNT_LABELS = {"fired": "fired", "premise_hits": "premise hits", "models_examined": "models"}


@dataclass
class Result:
    """A schema or rule checked over the bounded models."""

    kind: str  # "schema" or "rule"
    name: str
    instances: int
    violations: list
    fired: Optional[int] = None  # a rule: instances whose premises were all valid on the class
    premise_hits: Optional[int] = None  # a model-local rule: (model, instance) pairs with a valid premise
    models_examined: Optional[int] = None  # a model-local rule, reported on its own

    @property
    def ok(self) -> bool:
        return not self.violations

    def _counts(self) -> dict:
        return {key: getattr(self, key) for key in _COUNT_LABELS if getattr(self, key) is not None}

    def to_dict(self) -> dict:
        return {self.kind: self.name, "instances": self.instances, **self._counts(),
                "verdict": "ok" if self.ok else "violated",
                "violations": [v.to_dict() for v in self.violations]}

    def text(self) -> str:
        if self.kind == "schema":
            if self.ok:
                return f"schema {self.name}: ok ({self.instances} instances)"
            v = self.violations[0]
            return (f"schema {self.name}: VIOLATED by {render(v.instance)} "
                    f"at state {v.state} of {json.dumps(model_to_dict(v.model))}")
        counts = [f"{self.instances} instances"]
        counts += [f"{n} {_COUNT_LABELS[key]}" for key, n in self._counts().items()]
        lines = [f"rule {self.name}: {'ok' if self.ok else 'VIOLATED'} ({', '.join(counts)})"]
        lines += [f"  violated by {v.about()} at state {v.state}" for v in self.violations[:5]
                  if v.premise is not None]
        return "\n".join(lines)


@dataclass
class Report:
    """A soundness sweep of a proof system: every schema and rule over the same models."""

    system: str
    schemata: list
    rules: list
    models_examined: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.schemata + self.rules)

    def to_dict(self) -> dict:
        return {"system": self.system, "models_examined": self.models_examined,
                "schemata": [s.to_dict() for s in self.schemata], "rules": [r.to_dict() for r in self.rules]}

    def text(self) -> str:
        lines = [f"system {self.system}: {self.models_examined} models examined"]
        return "\n".join(lines + [f"  {r.text()}" for r in self.schemata + self.rules])


def _sweep(formulas: Sequence[Formula], bounds: SearchBounds, first_only: bool = False) -> Iterator[tuple]:
    """Where each formula fails over the labelled models within the bounds, BATCH_MODELS rows at a time.

    Yields (start, batch, bad) per batch, the batch's row 0 being labelled
    model `start` of `enumerate_models(bounds)`: bad[j] is the batch's
    states where formulas[j] fails, which the batch decodes to rows.  With
    first_only, a formula is dropped after the batch of its first failure
    (its bad reads 0 from then on), and the sweep stops once every formula
    has failed.
    """
    agent_ids, atom_names = _signature(bounds)
    rows = chain.from_iterable(zip(repeat(n), _labelled(n, len(agent_ids), len(atom_names)), repeat(1))
                               for n in range(1, bounds.max_states + 1))
    live = set(range(len(formulas)))
    start = 0
    for batch in _stream(rows, agent_ids, atom_names, BATCH_MODELS):
        root = Context(batch)
        bad = [batch.full & ~root.extension(f) if j in live else 0 for j, f in enumerate(formulas)]
        batch.models()  # building only the models reported is ROADMAP item 2
        yield start, batch, bad
        start += len(batch)
        if first_only:
            live.difference_update(j for j, bits in enumerate(bad) if bits)
            if not live:
                return


def _model_count(agent_ids: Sequence[str], atom_names: Sequence[str], max_states: int) -> int:
    """How many labelled models `enumerate_models` yields."""
    return sum(len(parts) ** len(agent_ids) * len(subsets) ** len(atom_names)
               for _, parts, subsets in map(_values, range(1, max_states + 1)))


def _draw(builders: dict, seed: int, system: str, signature: tuple, count: int) -> dict:
    """Up to count seeded instances of each builder, each once, as (premises, conclusion), by name.

    The k-th builder draws from a generator of its own, seeded seed + k.  A
    schema instance has no premises.  A builder returns None when the
    bounds hold no instance of it.
    """
    table = {}
    for offset, (name, builder) in enumerate(builders.items()):
        gen = FormulaGen(*signature, seed=seed + offset, allow_c=system.lower() == "rcd")
        drawn: dict = {}
        for _ in range(count):
            inst = builder(gen)
            if inst is None:
                break
            premises, conclusion = inst if isinstance(inst, tuple) else ((), inst)
            drawn.setdefault((tuple(premises), conclusion), None)
        table[name] = list(drawn)
    return table


# agents and atoms of the soundness sweeps, where the bounds declare none
_SWEEP_SIGNATURE = (("1", "2"), ("p",))
DEFAULT_SCHEMA_BOUNDS = SearchBounds(3, *_SWEEP_SIGNATURE)


def check_schema(system: str, bounds: SearchBounds = DEFAULT_SCHEMA_BOUNDS,
                 override: Optional[dict] = None, schemas: Optional[Iterable[str]] = None,
                 include_rules: bool = True) -> Report:
    """Soundness sweep of a proof system over all models within the bounds.

    Every schema gets instance_count seeded instances, deduplicated; the
    rules are checked as validity preservation over the same model class.
    An override swaps in alternative builders by schema name, which is how
    the mutation tests inject deliberately broken schemata; `schemas`
    restricts the sweep to the named subset.  A schema with no instance in
    the bounds (RD2 with one agent, RA without atoms) is ok with 0 instances.
    """
    builders = schema_builders(system)
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
    agent_ids, atom_names = _signature(bounds, *_SWEEP_SIGNATURE)
    draw = partial(_draw, system=system, signature=(agent_ids, atom_names), count=bounds.instance_count)
    checked = {"schema": draw(builders, bounds.seed),
               "rule": draw(_builders(_RULES, system) if include_rules else {}, bounds.seed + 1000)}

    # one pass over the model stream decides class-validity of every formula
    formulas = list(dict.fromkeys(f for table in checked.values() for instances in table.values()
                                  for premises, conclusion in instances for f in (*premises, conclusion)))
    failed, last = {}, -1  # formula -> (model, state) of its first failure; that model's index
    for start, batch, bad in _sweep(formulas, SearchBounds(bounds.max_states, agent_ids, atom_names), first_only=True):
        for f, bits in zip(formulas, bad):
            if bits:
                k, m, state = next(batch.points(bits))
                failed[f] = m, state
                last = max(last, start + k)
    # a model-by-model sweep stops on the model after the last first failure, or runs out
    examined = _model_count(agent_ids, atom_names, bounds.max_states)
    if len(failed) == len(formulas):
        examined = min(examined, last + 2)

    results = {}
    for kind, table in checked.items():
        results[kind] = []
        for name, instances in table.items():
            # an instance with a premise failing on the class is vacuous
            fired = [c for premises, c in instances if not any(p in failed for p in premises)]
            violations = [Violation(name, c, *failed[c]) for c in fired if c in failed]
            results[kind].append(Result(kind, name, len(instances), violations,
                                        fired=len(fired) if kind == "rule" else None))
    return Report(system.lower(), results["schema"], results["rule"], examined)


# ---------------------------------------------------------------------------
# The induction rule for resolved common knowledge, checked model-locally


DEFAULT_RRC_BOUNDS = SearchBounds(4, *_SWEEP_SIGNATURE)


def check_rule_rrc(bounds: SearchBounds = DEFAULT_RRC_BOUNDS) -> Result:
    """Model-local check of the induction rule for resolved common knowledge.

    For every enumerated model and every seeded instance (phi, psi, H,
    G_1..G_n): whenever the premise phi -> (E_H phi & R_G1..R_Gn psi) holds
    at every state, the conclusion phi -> R_G1..R_Gn C_H psi must hold at
    every state too.
    """
    agent_ids, atom_names = _signature(bounds, *_SWEEP_SIGNATURE)
    (instances,) = _draw(_builders((_RRC,), "rcd"), bounds.seed, "rcd", (agent_ids, atom_names),
                         bounds.instance_count).values()
    formulas = [f for (premise,), conclusion in instances for f in (premise, conclusion)]
    hits, found = 0, []
    for start, batch, bad in _sweep(formulas, SearchBounds(bounds.max_states, agent_ids, atom_names)):
        for j in range(0, len(formulas), 2):
            # a hit is a model where the premise never fails; a violation, a hit where the conclusion does
            failing = batch.rows(bad[j])
            hits += len(batch) - failing.bit_count()
            for k, m, state in batch.points(bad[j + 1], ~failing):
                found.append((start + k, j, Violation("RR_C", formulas[j + 1], m, state, premise=formulas[j])))
    found.sort(key=lambda hit: hit[:2])
    return Result("rule", "RR_C", len(instances), [v for *_, v in found], premise_hits=hits,
                  models_examined=_model_count(agent_ids, atom_names, bounds.max_states))
