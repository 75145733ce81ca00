"""Satisfaction for models and pseudo satisfaction for pre-models.

One evaluation context serves models, pre-models and batches of models
(`batch.py`), memoizing per formula the set of states where it holds, in
postorder and on an explicit stack, so formulas of any depth evaluate.  No
updated model is built.  A context is a map from each agent to the group
whose meet it reads, and an alive set: ``R_G`` maps G's members to the
union of what they read, so a chain of resolutions selects the group
`delta` names, and ``[phi]psi`` narrows alive to phi's extension.  The
root keeps one table from (map, alive) to a context, so equal contexts
reached by different prefixes evaluate once.

Relations come from an algebra: frozensets and partitions for one model
or pre-model, or a batch's offset masks.  Every one is reflexive, so a K,
D or C whose body is empty or all of alive reads none.  The others read
the root's relation map, the algebra's ``rels``, restricted to alive
inside an announcement (one model keeps a copy per alive set); C closes
the agent relations inside alive.  One model's relation map starts with
its agents' relations, a pre-model's also with its stored group
relations, and a batch's starts empty.  `Context._root` alone fills it:
with an agent's relation on first use, and with a group's as one meet,
of the kept relation of the group less its largest member with that
member's.  A pre-model's root maps each agent to its own id.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .kripke import AnyModel, Model, Partition, PreModel, all_groups
from .syntax import And, Ann, Atom, Bot, C, D, Formula, K, Neg, R, Top, _postorder, children

_SELF = "self"  # what _kids holds for a key that opens the context itself; a link to itself would be a cycle


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
    """The single-model algebra: frozensets of states and partitions.

    It has no ``agent``: ``rels`` starts with every declared agent's
    relation, which `Model.make` stores; a raw model lacking one is
    rejected here, by name.  ``rels`` also keeps each restricted copy.
    """

    __slots__ = ("model", "agents", "map", "steps", "full", "rels")
    empty = frozenset()
    meet = staticmethod(Partition.meet)
    common = staticmethod(Partition.join_all)

    def __init__(self, model: AnyModel):
        self.model, self.agents, self.full, self.rels = model, model.agents, model.states, dict(model.relations)
        if not self.agents <= self.rels.keys():
            raise ValueError(f"no relation for agent {min(self.agents - self.rels.keys())!r}")
        self.map, self.steps = frozenset((a, frozenset((a,))) for a in model.agents), {}

    def atom(self, name: str) -> frozenset:
        return self.model.valuation.get(name, self.empty)

    def restrict(self, rel: Partition, name, alive: frozenset) -> Partition:
        """rel, the root's relation for name, restricted to alive: one copy per (name, alive) for every context."""
        return self.rels.get((name, alive)) or self.rels.setdefault((name, alive), rel.restrict(alive))

    @staticmethod
    def box(rel: Partition, body: frozenset, alive: frozenset) -> frozenset:
        return frozenset().union(*filter(body.issuperset, rel.blocks))

    common_box = box


class Context:
    """Memoized extensions in one (map, alive set); ``map`` pairs each agent with the root key it reads.

    ``_kids`` maps what R (a group) or an announcement ((announced,)) opens here to the context it opens.
    The root's ``_kids`` is also the table: it maps each context below the root by its map, or by (map,
    alive) inside an announcement, keys that never equal a group or an (announced,).  A context refers
    only to contexts below it, so a dropped tree is freed at once.  Extensions are combined only with
    ``&``, ``|`` and ``alive ^ x`` (the complement inside alive), which frozensets and ints share.
    """

    __slots__ = ("alg", "map", "alive", "_ext", "_rels", "_kids")

    def __init__(self, alg, map=None, alive=None, rels=None):
        self.alg, self._ext, self._kids = alg, {}, {}
        if map is None:  # alg's root, whose relation map is the algebra's
            self.map, self.alive, self._rels = alg.map, alg.full, alg.rels
        else:
            self.map, self.alive, self._rels = map, alive, rels

    def _union(self, g: frozenset) -> frozenset:
        """The root key of what group g reads here: the union of what its members read (an own id as a singleton)."""
        return frozenset().union(*[(k,) if type(k) is str else k for a, k in self.map if a in g])

    def _rel(self, key):
        """What K (key its agent), D (key its group) or C (key (group,)) reads, restricted to alive.
        Only a box whose body is neither empty nor alive reads one: every relation here is reflexive."""
        rel = self._rels.get(key)
        if rel is None:
            alg = self.alg
            if type(key) is tuple:
                rel = alg.common([self._rel(a) for a in sorted(key[0])])
            else:
                name = dict(self.map)[key] if type(key) is str else self._union(key)
                rel = self._root(name) if self.alive is alg.full else alg.restrict(self._root(name), name, self.alive)
            self._rels[key] = rel
        return rel

    def _root(self, name):
        """The root's relation for an agent, or a group's: the meet of the kept relation of the group less
        its largest member with that member's.  A pre-model's root holds every group's, and meets none."""
        rels = self.alg.rels
        rel = rels.get(name)
        if rel is None:
            if type(name) is str:
                return rels.setdefault(name, self.alg.agent(name))
            rest = name - {last := max(name)}
            rel = rels.setdefault(name, self.alg.meet(self._root(rest), self._root(last))) if rest else self._root(last)
        return rel

    def _child(self, key, table):
        """What R (key its group) or an announcement (key (announced,)) opens: _SELF, or a context below."""
        if type(key) is tuple:  # the map stays, alive narrows
            map, alive, rels = _SELF if key[0] == self.alive else self.map, key[0], {}
        else:  # G's members read the union of what they read; the algebra keeps each step for all its roots
            step = key if self.map is self.alg.map else (self.map, key)  # from the root's map, keyed by G alone
            map, alive, rels = self.alg.steps.get(step), self.alive, dict.fromkeys(key, self._rel(key))
            if map is None:
                map = frozenset((a, self._union(key) if a in key else k) for a, k in self.map)
                map = self.alg.steps[step] = _SELF if map == self.map else map
        if map is not _SELF:
            map = table.setdefault(map if alive is self.alg.full else (map, alive), Context(self.alg, map, alive, rels))
        self._kids[key] = map
        return map

    def extension(self, f: Formula, checked: bool = False):
        """The states where f holds.  Each context runs its part of f by its plan; an R or announcement
        node whose body the child context lacks waits on a stack of frames until the body's plan has run there."""
        out = self._ext.get(f)
        if out is not None:
            return out
        if not (checked or f._agents <= self.alg.agents):  # checked: the caller has checked f's agents
            raise ValueError(f"undeclared agent {min(f._agents - self.alg.agents)!r}")
        frames, ctx, plan, start, table = [], self, _plan(f), 0, self._kids
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
                elif cls is K or cls is D or cls is C:
                    out = ext[g.body]
                    if out and out != alive:  # a reflexive relation keeps an empty or a full body as it is
                        box = alg.common_box if cls is C else alg.box
                        out = box(ctx._rel(g.agent if cls is K else g.group if cls is D else (g.group,)), out, alive)
                elif cls is R or cls is Ann and ext[g.announced]:  # the body holds in ctx or a context below it
                    key = g.group if cls is R else (ext[g.announced],)
                    child = ctx._kids.get(key) or ctx._child(key, table)
                    child = ctx if child is _SELF else child
                    out = child._ext.get(g.body)
                    if out is None:  # come back to g once the body's plan has run in the child
                        frames.append((ctx, plan, i))
                        ctx, plan, start = child, _plan(g.body), 0
                        break
                    if cls is Ann:
                        out = (alive ^ key[0]) | out
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

    def __init__(self, model: AnyModel):
        Context.__init__(self, _Sets(model))
        self.model = model


class PseudoEvaluator(Evaluator):
    """Extensions of announcement-free formulas over one pre-model, whose D reads the stored group relations."""

    __slots__ = ()

    def __init__(self, model: PreModel):
        Evaluator.__init__(self, model)
        self.map = frozenset((a, a) for a in model.agents)  # its own relation, until a resolution names it
        for g in all_groups(model.agents):  # PreModel.make stores every group's relation; a raw pre-model
            self._rels[g] = model.group_relations[g]  # lacking one fails here, and its D never reads a meet

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
