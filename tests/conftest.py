import functools

import pytest

from epiresolve import PreModel, SearchBounds, all_groups, enumerate_models, fig1, fig1_core


@functools.lru_cache(maxsize=None)
def model_list(max_states, agents, atoms):
    bounds = SearchBounds(max_states=max_states, agents=agents, atoms=atoms)
    return tuple(enumerate_models(bounds))


# the pre-model CI writes to wide.json: both agents discrete, while the stored relation of
# group 1,2 links s and t, so its D{1,2} p is false at s where the members' meet makes it true
WIDE = PreModel.make(["s", "t"], {"1": [["s"], ["t"]], "2": [["s"], ["t"]]},
                     {"1": [["s"], ["t"]], "2": [["s"], ["t"]], "1,2": [["s", "t"]]}, {"p": ["s"]})


def free_premodel(rng):
    """A pre-model of 1-3 states and agents 1-3 whose every relation is drawn on its own: a stored group
    relation, a singleton's included, need not be its members' meet nor refine a smaller group's."""
    states = ["a", "b", "c"][:rng.randint(1, 3)]
    agents = [str(i) for i in range(1, rng.randint(1, 3) + 1)]

    def partition():
        blocks = {}
        for s in states:
            blocks.setdefault(rng.randrange(len(states)), []).append(s)
        return list(blocks.values())

    return PreModel.make(states, {a: partition() for a in agents}, {g: partition() for g in all_groups(agents)},
                         {"p": [s for s in states if rng.random() < 0.5]})


@pytest.fixture(scope="session")
def FIG1():
    return fig1()


@pytest.fixture(scope="session")
def CORE():
    return fig1_core()
