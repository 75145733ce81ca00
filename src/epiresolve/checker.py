"""Satisfaction for models and pseudo satisfaction for pre-models.

One evaluator serves both.  Evaluation is extension-based: it computes,
per formula, the set of states where it holds, memoizing per formula and
materializing resolved and announcement-restricted models at most once
per group or antecedent.  The caches are confined to the evaluator, so
the semantics stays pure.  PseudoEvaluator changes three hooks: D reads
the stored group relation, R follows the pre-model update, and
announcements are rejected before their antecedent is evaluated.  C
closes the agent relations in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .kripke import (
    AnyModel,
    Model,
    Partition,
    PreModel,
    common_relation,
    group_relation,
    require_agents,
    resolve,
    resolve_pre,
    restrict,
)
from .syntax import And, Ann, Atom, Bot, C, D, Formula, K, Neg, R, Top


@dataclass(frozen=True)
class PointedModel:
    model: AnyModel
    state: str


class Evaluator:
    """Extensions of formulas over one genuine model."""

    _update = staticmethod(resolve)  # the update that R follows

    def __init__(self, model: AnyModel):
        self.model = model
        self._ext: dict = {}
        self._group: dict = {}
        self._common: dict = {}
        self._resolved: dict = {}
        self._restricted: dict = {}

    def _group_partition(self, g) -> Partition:
        if g not in self._group:
            self._group[g] = group_relation(self.model, g)
        return self._group[g]

    def _common_partition(self, g) -> Partition:
        if g not in self._common:
            self._common[g] = common_relation(self.model, g)
        return self._common[g]

    def _resolved_evaluator(self, g) -> "Evaluator":
        if g not in self._resolved:
            self._resolved[g] = type(self)(self._update(self.model, g))
        return self._resolved[g]

    def _announce(self, f: Ann) -> frozenset:
        announced = self.extension(f.announced)
        if not announced:
            return self.model.states
        sub = self._restricted.get(announced)
        if sub is None:
            sub = Evaluator(restrict(self.model, announced))
            self._restricted[announced] = sub
        return (self.model.states - announced) | sub.extension(f.body)

    def _boxed(self, part: Partition, body: frozenset) -> frozenset:
        return frozenset().union(*(b for b in part.blocks if b <= body)) if part.blocks else frozenset()

    def extension(self, f: Formula) -> frozenset:
        cached = self._ext.get(f)
        if cached is not None:
            return cached
        states = self.model.states
        if isinstance(f, Atom):
            out = self.model.valuation.get(f.name, frozenset())
        elif isinstance(f, Top):
            out = states
        elif isinstance(f, Bot):
            out = frozenset()
        elif isinstance(f, Neg):
            out = states - self.extension(f.body)
        elif isinstance(f, And):
            out = self.extension(f.left) & self.extension(f.right)
        elif isinstance(f, K):
            part = self.model.relations.get(f.agent)
            if part is None:
                raise ValueError(f"undeclared agent {f.agent!r}")
            out = self._boxed(part, self.extension(f.body))
        elif isinstance(f, D):
            out = self._boxed(self._group_partition(f.group), self.extension(f.body))
        elif isinstance(f, C):
            out = self._boxed(self._common_partition(f.group), self.extension(f.body))
        elif isinstance(f, R):
            out = self._resolved_evaluator(f.group).extension(f.body)
        elif isinstance(f, Ann):
            out = self._announce(f)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._ext[f] = out
        return out


class PseudoEvaluator(Evaluator):
    """Extensions of announcement-free formulas over one pre-model."""

    _update = staticmethod(resolve_pre)

    def _group_partition(self, g) -> Partition:
        return self.model.group_relations[require_agents(self.model, g)]

    def _announce(self, f: Ann) -> frozenset:
        raise ValueError("pseudo satisfaction is undefined for announcements")


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
