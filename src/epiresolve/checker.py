"""Satisfaction for models and pseudo satisfaction for pre-models.

One evaluation context serves models, pre-models and batches of models
(`batch.py`), memoizing per formula the set of states where it holds, in
postorder and on an explicit stack, so formulas of any depth evaluate.  No
updated model is built.  ``R_G`` opens a child context that links to its
parent's relations and to G, ``[phi]psi`` one that keeps its parent's group
and whose alive set is phi's extension.  A child reads each relation from
its parent one step of `resolve` (or `resolve_pre`) away: G's members read
G's, a group meeting G reads its union with G's, so a chain of resolutions
selects the base relation `delta` names at one step per level.  C closes
the agent relations inside alive.

Relations come from an algebra, picked by what is evaluated: frozensets
and partitions for one model, whose base relation is the meet of the
members' (a pre-model's is the stored one), or a batch's offset masks.
The root context's relation map (`Context._rel`) is the algebra's ``rels``,
where the algebra also keeps the relations it computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .kripke import AnyModel, Model, Partition, PreModel, group_relation
from .syntax import And, Ann, Atom, Bot, C, D, Formula, K, Neg, R, Top, _postorder, children


@dataclass(frozen=True)
class PointedModel:
    model: AnyModel
    state: str


def _plan(f: Formula) -> tuple:
    """f's subformulas in its own context (R and announcement bodies have theirs), children first, f last."""
    try:
        return f._plan + (f,)
    except AttributeError:
        plan = tuple(_postorder(f, lambda g: (g.announced,) if type(g) is Ann else () if type(g) is R
                                else children(g)))
        object.__setattr__(f, "_plan", plan[:-1])  # less f itself, which would make the node a reference cycle
        return plan


class _Sets:
    """The single-model algebra: frozensets of states and partitions."""

    __slots__ = ("model", "agents", "full", "rels")
    empty = frozenset()
    restrict = staticmethod(Partition.restrict)
    common = staticmethod(Partition.join_all)

    def __init__(self, model: AnyModel):
        self.model, self.agents, self.full, self.rels = model, model.agents, model.states, dict(model.relations)

    def agent(self, a: str) -> Partition:
        return self.model.relations[a]

    def base(self, g) -> Partition:
        rel = self.rels.get(g)
        if rel is None:
            rel = self.rels[g] = group_relation(self.model, g)
        return rel

    def atom(self, name: str) -> frozenset:
        return self.model.valuation.get(name, self.empty)

    @staticmethod
    def box(rel: Partition, body: frozenset, alive: frozenset) -> frozenset:
        return frozenset().union(*(b for b in rel.blocks if b <= body))

    common_box = box


class _PreSets(_Sets):
    """Pre-models read stored group relations."""

    __slots__ = ()

    def base(self, g) -> Partition:
        return self.model.group_relations[g]


class Context:
    """Memoized extensions after the resolutions and announcements that opened it, inside an alive set.

    Extensions are combined only with ``&``, ``|`` and ``alive ^ x`` (the
    complement inside alive), which frozensets and ints share.
    """

    __slots__ = ("alg", "up", "group", "alive", "_ext", "_rels", "_kids")

    def __init__(self, alg, parent: Context | None = None, group=None, alive=None, rels=None):
        # up is parent's (relation map, group, alive set, up); a link to parent would make the tree a reference cycle
        self.alg, self.group, self._ext, self._kids = alg, group, {}, {}
        if parent is None:  # alg's root
            self.up, self.alive, self._rels = None, alg.full, alg.rels
        else:
            self.up, self.alive, self._rels = (parent._rels, parent.group, parent.alive, parent.up), alive, rels

    def _rel(self, key):
        """What K (key its agent), D (key its group) or C (key (group,)) reads, restricted to alive."""
        rel = self._rels.get(key)
        if rel is None and type(key) is tuple:
            rel = self._rels[key] = self.alg.common([self._rel(a) for a in sorted(key[0])])
        elif rel is None:
            # up to a map holding the key: across R_g, g's members read g's relation, a group meeting g its union
            path, rels, g, alive, up = [], self._rels, self.group, self.alive, self.up
            while rel is None and up is not None:
                path.append((rels, key, alive if alive is not up[2] else None))  # an announcement's child narrows
                if g is not up[1] and (key in g if type(key) is str else key & g):  # not an announcement's child
                    key = g if type(key) is str else key | g
                rels, g, alive, up = up
                rel = rels.get(key)
            if rel is None:  # rels is the root's
                alg, g = self.alg, frozenset((key,)) if type(key) is str else key
                if not g <= alg.agents:
                    raise ValueError(f"undeclared agent {sorted(g - alg.agents)[0]!r}")
                rel = rels[key] = alg.agent(key) if type(key) is str else alg.base(key)
            for rels, key, narrowed in reversed(path):
                rels[key] = rel = rel if narrowed is None else self.alg.restrict(rel, narrowed)
        return rel

    def _child(self, key, alive) -> Context:
        """The child that R (key its group) or an announcement (key (announced,)) opens."""
        if key == self.group:
            return self  # R_G right after R_G, announcements between or not, changes nothing
        child = self._kids.get(key)
        if child is None:
            if type(key) is tuple:  # an announcement's child keeps self's group
                child = self._kids[key] = Context(self.alg, self, self.group, alive, {})
            else:  # G's members read G's relation, and reading it checks that G's agents are declared
                child = self._kids[key] = Context(self.alg, self, key, alive, dict.fromkeys(key, self._rel(key)))
        return child

    def extension(self, f: Formula):
        """The states where f holds.  Each context runs its part of f by its plan; an R or announcement
        node whose body the child context lacks waits on a stack of frames until the body's plan has run there."""
        out = self._ext.get(f)
        if out is not None:
            return out
        frames, ctx, plan, start = [], self, _plan(f), 0
        while True:
            ext, alive, alg = ctx._ext, ctx.alive, ctx.alg
            for i, g in enumerate(islice(plan, start, None) if start else plan, start):
                if g in ext:
                    continue
                cls = type(g)
                if cls is Atom:
                    out = alg.atom(g.name)
                    if alive is not alg.full:
                        out = out & alive
                elif cls is Neg:
                    out = alive ^ ext[g.body]
                elif cls is And:
                    out = ext[g.left] & ext[g.right]
                elif cls is K or cls is D:
                    out = alg.box(ctx._rel(g.agent if cls is K else g.group), ext[g.body], alive)
                elif cls is C:
                    out = alg.common_box(ctx._rel((g.group,)), ext[g.body], alive)
                elif cls is R or cls is Ann and ext[g.announced]:  # the body holds in a child context
                    announced = cls is Ann and ext[g.announced]
                    child = ctx._child((announced,), announced) if announced else ctx._child(g.group, alive)
                    out = child._ext.get(g.body)
                    if out is None:  # come back to g once the body's plan has run in the child
                        frames.append((ctx, plan, i))
                        ctx, plan, start = child, _plan(g.body), 0
                        break
                    if announced:
                        out = (alive ^ announced) | out
                else:  # true, false, or an announcement that holds nowhere
                    out = alg.empty if cls is Bot else alive
                ext[g] = out
            else:
                if not frames:
                    return self._ext[f]
                ctx, plan, start = frames.pop()


class Evaluator(Context):
    """Extensions of formulas over one genuine model: the root context of its algebra."""

    __slots__ = ("model",)
    _algebra = _Sets

    def __init__(self, model: AnyModel):
        Context.__init__(self, self._algebra(model))
        self.model = model


class PseudoEvaluator(Evaluator):
    """Extensions of announcement-free formulas over one pre-model."""

    __slots__ = ()
    _algebra = _PreSets

    def extension(self, f: Formula):
        if f._kinds & Ann._kind:  # before any part of f is evaluated
            raise ValueError("pseudo satisfaction is undefined for announcements")
        return Context.extension(self, f)


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
