"""Satisfaction for models and pseudo satisfaction for pre-models.

One evaluation context serves models, pre-models and batches of models
(`batch.py`), memoizing per formula the set of states where it holds.  No
updated model is built: an iterated resolution only selects an
intersection of base relations, and `delta` names which one.  So a
context is a resolution prefix and an alive set.  ``R_G`` opens a child
with G appended to the prefix, ``[phi]psi`` one whose alive set is phi's
extension.  Group H reads the base relation of ``delta(H, prefix)``, and
agent a its own relation until a resolution in the prefix names it, then
that of ``delta({a}, prefix)``: what `resolve` and `resolve_pre` do step
by step.  C closes the agent relations inside alive.

Relations come from an algebra, picked by what is evaluated: frozensets
and partitions for one model, whose base relation is the meet of the
members' (a pre-model's is the stored one), or a batch's offset masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .kripke import AnyModel, Model, Partition, PreModel, group_relation
from .syntax import And, Ann, Atom, Bot, C, D, Formula, K, Neg, R, Top, delta


@dataclass(frozen=True)
class PointedModel:
    model: AnyModel
    state: str


class _Sets:
    """The single-model algebra: frozensets of states and partitions."""

    __slots__ = ("model", "agents", "full", "_bases")
    announces = True
    empty = frozenset()
    restrict = staticmethod(Partition.restrict)
    common = staticmethod(Partition.join_all)

    def __init__(self, model: AnyModel):
        self.model, self.agents, self.full, self._bases = model, model.agents, model.states, {}

    def agent(self, a: str) -> Partition:
        return self.model.relations[a]

    def base(self, g) -> Partition:
        rel = self._bases.get(g)
        if rel is None:
            rel = self._bases[g] = group_relation(self.model, g)
        return rel

    def atom(self, name: str) -> frozenset:
        return self.model.valuation.get(name, self.empty)

    @staticmethod
    def box(rel: Partition, body: frozenset, alive: frozenset) -> frozenset:
        return frozenset().union(*(b for b in rel.blocks if b <= body))

    common_box = box


class _PreSets(_Sets):
    """Pre-models read stored group relations and have no announcements."""

    __slots__ = ()
    announces = False

    def base(self, g) -> Partition:
        return self.model.group_relations[g]


class Context:
    """Memoized extensions after a resolution prefix, inside an alive set.

    Extensions are combined only with ``&``, ``|`` and ``alive ^ x`` (the
    complement inside alive), which frozensets and ints share.
    """

    __slots__ = ("alg", "prefix", "alive", "_ext", "_rels", "_kids")

    def __init__(self, alg, prefix: tuple, alive, rels: dict):
        self.alg = alg
        self.prefix = prefix  # the resolved groups, outermost first
        self.alive = alive
        self._ext: dict = {}
        self._rels = rels
        self._kids = None

    def _rel(self, key):
        """What K (key its agent), D (key its group) or C (key (group,)) reads, restricted to alive."""
        rel = self._rels.get(key)
        if rel is None:
            alg = self.alg
            if type(key) is tuple:
                rel = alg.common([self._rel(a) for a in sorted(key[0])])
            else:
                agent = type(key) is str
                g = frozenset((key,)) if agent else key
                if not g <= alg.agents:
                    raise ValueError(f"undeclared agent {sorted(g - alg.agents)[0]!r}")
                # an agent keeps its own relation until a resolution names it
                if agent and not any(key in h for h in self.prefix):
                    rel = alg.agent(key)
                else:
                    rel = alg.base(delta(g, self.prefix) if self.prefix else g)
                if self.alive is not alg.full:
                    rel = alg.restrict(rel, self.alive)
            self._rels[key] = rel
        return rel

    def _child(self, key, alive) -> Context:
        """The child that R (key its group) or an announcement (key (announced,)) opens."""
        if self._kids is None:
            self._kids = {}
        child = self._kids.get(key)
        if child is None:
            if type(key) is tuple:
                child = Context(self.alg, self.prefix, alive, {})
            else:  # the resolution gives G's members G's relation here
                child = Context(self.alg, self.prefix + (key,), alive, dict.fromkeys(key, self._rel(key)))
            self._kids[key] = child
        return child

    def extension(self, f: Formula):
        cached = self._ext.get(f)
        if cached is not None:
            return cached
        alive, alg, cls = self.alive, self.alg, type(f)
        if cls is Atom:
            out = alg.atom(f.name)
            if alive is not alg.full:
                out = out & alive
        elif cls is Neg:
            out = alive ^ self.extension(f.body)
        elif cls is And:
            out = self.extension(f.left) & self.extension(f.right)
        elif cls is K:
            out = alg.box(self._rel(f.agent), self.extension(f.body), alive)
        elif cls is D:
            out = alg.box(self._rel(f.group), self.extension(f.body), alive)
        elif cls is C:
            out = alg.common_box(self._rel((f.group,)), self.extension(f.body), alive)
        elif cls is R:
            out = self._child(f.group, alive).extension(f.body)
        elif cls is Ann:
            if not alg.announces:
                raise ValueError("pseudo satisfaction is undefined for announcements")
            announced = self.extension(f.announced)
            if not announced:
                out = alive
            else:
                out = (alive ^ announced) | self._child((announced,), announced).extension(f.body)
        elif cls is Top:
            out = alive
        elif cls is Bot:
            out = alg.empty
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._ext[f] = out
        return out


class Evaluator(Context):
    """Extensions of formulas over one genuine model: the root context of its algebra."""

    __slots__ = ("model",)
    _algebra = _Sets

    def __init__(self, model: AnyModel):
        Context.__init__(self, self._algebra(model), (), model.states, dict(model.relations))
        self.model = model


class PseudoEvaluator(Evaluator):
    """Extensions of announcement-free formulas over one pre-model."""

    __slots__ = ()
    _algebra = _PreSets


def evaluator_for(m: AnyModel):
    return PseudoEvaluator(m) if isinstance(m, PreModel) else Evaluator(m)


def satisfies(m: Model, state: str, f: Formula) -> bool:
    if state not in m.states:
        raise ValueError(f"unknown state {state!r}")
    return state in Evaluator(m).extension(f)


def satisfies_pseudo(m: PreModel, state: str, f: Formula) -> bool:
    if state not in m.states:
        raise ValueError(f"unknown state {state!r}")
    return state in PseudoEvaluator(m).extension(f)


def extension(m: AnyModel, f: Formula) -> frozenset:
    """All states of m where f holds."""
    return evaluator_for(m).extension(f)


def equivalent_on(points: Iterable[PointedModel], f: Formula, g: Formula):
    """True when f and g agree at every point, else the first disagreeing point."""
    evaluators: dict = {}
    for pt in points:
        ev = evaluators.get(id(pt.model))
        if ev is None:
            ev = evaluator_for(pt.model)
            evaluators[id(pt.model)] = ev
        if (pt.state in ev.extension(f)) != (pt.state in ev.extension(g)):
            return pt
    return True


def points_of(m: AnyModel):
    return [PointedModel(m, s) for s in sorted(m.states)]
