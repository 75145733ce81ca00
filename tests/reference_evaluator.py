"""The frozenset evaluators as they stood before `checker.Context`.

A reference for the engine tests: it builds every resolved and restricted
model with `resolve`, `resolve_pre` and `restrict`, and closes C with
`common_relation`, where the engine's contexts read each relation one
resolution step from their parent's.
It shares no evaluation code with `checker`, so a test against it does
not compare the engine with itself.
"""

from epiresolve.kripke import (
    PreModel,
    common_relation,
    group_relation,
    require_agents,
    resolve,
    resolve_pre,
    restrict,
)
from epiresolve.syntax import And, Ann, Atom, Bot, C, D, K, Neg, R, Top


class Evaluator:
    """Extensions of formulas over one genuine model."""

    _update = staticmethod(resolve)  # the update that R follows

    def __init__(self, model):
        self.model = model
        self._ext = {}
        self._group = {}
        self._common = {}
        self._resolved = {}
        self._restricted = {}

    def _group_partition(self, g):
        if g not in self._group:
            self._group[g] = group_relation(self.model, g)
        return self._group[g]

    def _common_partition(self, g):
        if g not in self._common:
            self._common[g] = common_relation(self.model, g)
        return self._common[g]

    def _resolved_evaluator(self, g):
        if g not in self._resolved:
            self._resolved[g] = type(self)(self._update(self.model, g))
        return self._resolved[g]

    def _announce(self, f):
        announced = self.extension(f.announced)
        if not announced:
            return self.model.states
        sub = self._restricted.get(announced)
        if sub is None:
            sub = Evaluator(restrict(self.model, announced))
            self._restricted[announced] = sub
        return (self.model.states - announced) | sub.extension(f.body)

    def _boxed(self, part, body):
        return frozenset().union(*(b for b in part.blocks if b <= body)) if part.blocks else frozenset()

    def extension(self, f):
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

    def _group_partition(self, g):
        return self.model.group_relations[require_agents(self.model, g)]

    def _announce(self, f):
        raise ValueError("pseudo satisfaction is undefined for announcements")


def evaluator_for(m):
    return PseudoEvaluator(m) if isinstance(m, PreModel) else Evaluator(m)
