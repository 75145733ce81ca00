"""Reference semantics, written from the definitions and sharing no code with
the checker, plus the planned size of an exhaustive model search.

A structure is a state set, one labelling per agent (state -> block label,
two states are indistinguishable when their labels are equal) and a
valuation.  K and D read labels and tuples of labels (the meet), C is
reachability over the union of the members' relations, R replaces every
member's labelling by the meet of the group, and an announcement restricts
the state set.  Formula nodes are told apart by class name, so nothing of
the program's evaluator is imported.
"""

from __future__ import annotations

from itertools import combinations


def bell(n: int) -> int:
    """Number of partitions of an n-element set (Bell number)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def planned_models(max_states: int, n_agents: int, n_atoms: int) -> int:
    """Labelled models enumerated up to the bound: sum of B(n)^agents * 2^(n*atoms)."""
    return sum(bell(n) ** n_agents * 2 ** (n * n_atoms) for n in range(1, max_states + 1))


class Structure:
    def __init__(self, states, labels, valuation):
        self.states = frozenset(states)
        self.labels = labels          # agent -> {state: hashable label}
        self.valuation = valuation    # atom -> frozenset of states
        self.memo = {}

    @classmethod
    def of_model(cls, model):
        labels = {}
        for agent in model.agents:
            lab = {}
            for idx, block in enumerate(sorted(sorted(b) for b in model.relations[agent].blocks)):
                for s in block:
                    lab[s] = idx
            labels[agent] = lab
        return cls(model.states, labels, {p: frozenset(ss) for p, ss in model.valuation.items()})

    def meet_labels(self, group) -> dict:
        members = sorted(group)
        return {s: tuple(self.labels[a][s] for a in members) for s in self.states}

    def reachable_labels(self, group) -> dict:
        """Component id of every state under the union of the members' relations."""
        members = sorted(group)
        by_label = {}
        for a in members:
            for s, lab in self.labels[a].items():
                by_label.setdefault((a, lab), []).append(s)
        comp = {}
        for start in sorted(self.states):
            if start in comp:
                continue
            comp[start] = start
            todo = [start]
            while todo:
                s = todo.pop()
                for a in members:
                    for t in by_label[(a, self.labels[a][s])]:
                        if t not in comp:
                            comp[t] = start
                            todo.append(t)
        return comp

    def box(self, labelling: dict, body: frozenset) -> frozenset:
        """States all of whose label-mates lie in body."""
        bad = {labelling[s] for s in self.states - body}
        return frozenset(s for s in self.states if labelling[s] not in bad)

    def resolved(self, group) -> "Structure":
        shared = self.meet_labels(group)
        labels = {a: (shared if a in group else lab) for a, lab in self.labels.items()}
        return Structure(self.states, labels, self.valuation)

    def restricted(self, keep: frozenset) -> "Structure":
        labels = {a: {s: lab[s] for s in keep} for a, lab in self.labels.items()}
        return Structure(keep, labels, {p: ss & keep for p, ss in self.valuation.items()})

    def extension(self, f) -> frozenset:
        hit = self.memo.get(f)
        if hit is not None:
            return hit
        kind = type(f).__name__
        if kind == "Atom":
            out = self.valuation.get(f.name, frozenset()) & self.states
        elif kind == "Top":
            out = self.states
        elif kind == "Bot":
            out = frozenset()
        elif kind == "Neg":
            out = self.states - self.extension(f.body)
        elif kind == "And":
            out = self.extension(f.left) & self.extension(f.right)
        elif kind == "K":
            out = self.box(self.labels[f.agent], self.extension(f.body))
        elif kind == "D":
            out = self.box(self.meet_labels(f.group), self.extension(f.body))
        elif kind == "C":
            out = self.box(self.reachable_labels(f.group), self.extension(f.body))
        elif kind == "R":
            out = self.resolved(f.group).extension(f.body)
        elif kind == "Ann":
            announced = self.extension(f.announced)
            if not announced:
                out = self.states
            else:
                out = (self.states - announced) | self.restricted(announced).extension(f.body)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.memo[f] = out
        return out


def ref_extension(model, f) -> frozenset:
    return Structure.of_model(model).extension(f)


def ref_holds(model, state, f) -> bool:
    return state in ref_extension(model, f)


def ref_meet_blocks(model, group) -> list:
    """Blocks of the intersection of the members' relations, sorted."""
    labels = Structure.of_model(model).meet_labels(group)
    blocks = {}
    for s, lab in labels.items():
        blocks.setdefault(lab, []).append(s)
    return sorted(sorted(b) for b in blocks.values())


def groups_of(agents) -> list:
    """Every non-empty group, smallest first."""
    ids = sorted(agents)
    return [frozenset(c) for size in range(1, len(ids) + 1) for c in combinations(ids, size)]
