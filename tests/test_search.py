import hashlib
import importlib.util
import json
import os
import random
import sys
import threading
import time
from itertools import islice, permutations, product
from math import factorial
from pathlib import Path

import pytest

import reference_evaluator as ref
from epiresolve import _iso, search
from conftest import model_list
from epiresolve.checker import Context, satisfies
from epiresolve.batch import BATCH_MODELS
from epiresolve.kripke import all_groups, group_relation, validate
from epiresolve._iso import _batches, _classes, _models, _pair_table, _replay, _subset_table, _values
from epiresolve.search import (
    FormulaGen,
    SearchBounds,
    SearchOutcome,
    check_rule_rrc,
    check_schema,
    enumerate_models,
    enumerate_pseudo_models,
    find_countermodel,
    find_model,
    schema_builders,
    set_partitions,
)
from epiresolve.syntax import FALSE, TRUE, And, Atom, C, D, E, Iff, Implies, K, Neg, Or, R, parse, reduce

AG3 = {"1", "2", "3"}


def grp(csv):
    return frozenset(csv.split(","))


def test_set_partition_counts_follow_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        assert len(list(set_partitions([str(i) for i in range(n)]))) == bell


def test_enumeration_count_two_states_one_agent_one_atom():
    bounds = SearchBounds(max_states=2, agents=("1",), atoms=("p",))
    models = list(enumerate_models(bounds))
    assert len(models) == 10


def test_enumeration_is_duplicate_free_and_deterministic():
    bounds = SearchBounds(max_states=3, agents=("1", "2"), atoms=("p",))
    first = list(enumerate_models(bounds))
    second = list(enumerate_models(bounds))
    assert first == second
    seen = []
    for m in first:
        assert m not in seen[-50:]  # spot check adjacent duplicates
        seen.append(m)
    assert len(first) == 2 + 16 + 200


def test_enumeration_order_is_partitions_then_subsets():
    # sizes in turn, then each agent's partition and each atom's subset in `_values` order, the last fastest
    bounds = SearchBounds(max_states=3, agents=("1", "2"), atoms=("p", "q"))
    expected = [(n, parts, subsets) for n in range(1, 4)
                for parts in product(_values(n)[1], repeat=2) for subsets in product(_values(n)[2], repeat=2)]
    assert [(len(m.states), (m.relations["1"], m.relations["2"]), (m.valuation["p"], m.valuation["q"]))
            for m in enumerate_models(bounds)] == expected


def test_single_state_models_are_reflexive_points():
    bounds = SearchBounds(max_states=1, agents=("1",), atoms=("p",))
    models = list(enumerate_models(bounds))
    assert len(models) == 2
    assert all(m.relations["1"].block_of("0") == frozenset(["0"]) for m in models)


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_states=0)


def test_bounds_keep_each_agent_and_atom_once():
    bounds = SearchBounds(3, ("2", "1", "1"), ("p", "p"))
    assert (bounds.agents, bounds.atoms) == (("1", "2"), ("p",))
    f = parse("K1 p -> p")
    once = find_countermodel(f, SearchBounds(3, ("1",), ("p",)))
    assert once.models_examined == 50
    assert find_countermodel(f, SearchBounds(3, ("1", "1"), ("p", "p"))) == once


@pytest.mark.parametrize("count", [0, -3])
def test_bounds_need_an_instance(count):
    # no instances would report every schema sound while checking nothing
    with pytest.raises(ValueError, match="instance_count must be at least 1"):
        SearchBounds(instance_count=count)


class TestFindModel:
    def test_moore_distributed_witness(self):
        f = parse("D{1,2}(p & ~K1 p)", {"1", "2"})
        out = find_model(f, SearchBounds(max_states=2))
        assert out.found and len(out.witness.model.states) <= 2
        assert satisfies(out.witness.model, out.witness.state, f)
        assert validate(out.witness.model) == []

    def test_contradiction_exhausts(self):
        out = find_model(parse("p & ~p"), SearchBounds(max_states=3))
        assert not out.found
        assert out.verdict == "exhausted"

    def test_exhaustion_is_monotone(self):
        f = parse("p & ~p")
        for k in (1, 2, 3):
            assert not find_model(f, SearchBounds(max_states=k)).found

    def test_resolved_moore_matches_its_reduction(self):
        f = parse("R{1,2}(p & ~K1 p)", {"1", "2"})
        for k in (1, 2, 3):
            direct = find_model(f, SearchBounds(max_states=k))
            reduced = find_model(reduce(f), SearchBounds(max_states=k))
            assert direct.found == reduced.found

    def test_agents_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside the search bounds"):
            find_model(parse("K3 p", AG3), SearchBounds(max_states=2, agents=("1", "2")))

    @pytest.mark.parametrize("find", [find_model, find_countermodel])
    def test_atoms_outside_bounds_rejected(self, find):
        # q would be false everywhere: "exhausted" would certify a satisfiable formula unsatisfiable
        with pytest.raises(ValueError, match="query mentions atom 'q' outside the search bounds"):
            find(parse("q"), SearchBounds(3, ("1",), ("p",)))
        with pytest.raises(ValueError, match="atom 'q'"):
            find(parse("p & K1 q"), SearchBounds(2, ("1",), ("p",)))
        with pytest.raises(ValueError, match="atom 'p'"):
            find(parse("K1 p"), SearchBounds(2, ("1",), ()))


class TestFindCountermodel:
    def test_axiom_instances_have_none(self):
        for text in ("D{1,2} p -> p", "K1 p -> p"):
            out = find_countermodel(parse(text, {"1", "2"}), SearchBounds(max_states=3))
            assert not out.found

    def test_overlapping_resolution_and_common_knowledge(self):
        lhs = parse("R{1,2} C{1,3} p", AG3)
        rhs = parse("C{1,3} R{1,2} p", AG3)
        out = find_countermodel(Iff(lhs, rhs), SearchBounds(max_states=5, agents=tuple(sorted(AG3))))
        assert out.found
        w = out.witness
        assert satisfies(w.model, w.state, lhs) != satisfies(w.model, w.state, rhs)

    def test_witness_is_deterministic(self):
        f = parse("K1 p -> K1 K1 ~p", {"1"})
        a = find_countermodel(f, SearchBounds(max_states=3))
        b = find_countermodel(f, SearchBounds(max_states=3))
        assert a == b


def signature(agents, atoms):
    return tuple(str(i) for i in range(1, agents + 1)), ("p", "q")[:atoms]


def renamed(m, perm):
    """The model's relations and valuation with state i renamed perm[i], as a sortable key."""
    def image(states):
        return tuple(sorted(perm[int(s)] for s in states))
    return (tuple(tuple(sorted(image(b) for b in m.relations[a].blocks)) for a in sorted(m.agents)),
            tuple(image(m.valuation[p]) for p in sorted(m.valuation)))


def key(m):
    return len(m.states), renamed(m, range(len(m.states)))


def canonical(m):
    return len(m.states), min(renamed(m, perm) for perm in permutations(range(len(m.states))))


# (states, agents, atoms): the largest bound of each signature that is covered
CLASS_BOUNDS = [(5, 1, 0), (5, 1, 1), (5, 2, 0), (5, 2, 1), (4, 3, 0), (4, 3, 1), (3, 1, 2), (3, 2, 2)]


def classes(bounds):
    """`_classes` of bounds that declare their agents and atoms."""
    return _classes((bounds.max_states, bounds.agents, bounds.atoms))


def representatives(bounds):
    """(model, class size) of every row of `_classes`."""
    agent_ids, atom_names = list(bounds.agents), list(bounds.atoms)
    return [(m, size) for n, idx, size in classes(bounds) for m in _models(n, [idx], agent_ids, atom_names)]


class TestIsomorphismClasses:
    @pytest.mark.parametrize("states,agents,atoms", CLASS_BOUNDS)
    def test_class_sizes_sum_to_the_labelled_count(self, states, agents, atoms):
        agent_ids, atom_names = signature(agents, atoms)
        bounds = SearchBounds(states, agent_ids, atom_names)
        per_size = {}
        for n, idx, size in classes(bounds):
            assert len(idx) == agents + atoms
            per_size[n] = per_size.get(n, 0) + size
        bell = {n: sum(1 for _ in set_partitions(range(n))) for n in range(1, states + 1)}
        # every smaller bound is a prefix of this one, so each size is checked on its own
        assert per_size == {n: bell[n] ** agents * 2 ** (n * atoms) for n in range(1, states + 1)}

    @pytest.mark.parametrize("states,agents,atoms", [(4, 2, 1), (4, 1, 2), (3, 3, 1), (3, 2, 2)])
    def test_class_size_is_n_factorial_over_automorphisms(self, states, agents, atoms):
        agent_ids, atom_names = signature(agents, atoms)
        for m, size in representatives(SearchBounds(states, agent_ids, atom_names)):
            n = len(m.states)
            itself = renamed(m, range(n))
            automorphisms = sum(renamed(m, perm) == itself for perm in permutations(range(n)))
            assert size == factorial(n) // automorphisms

    @pytest.mark.parametrize("states,agents,atoms", [(4, 2, 1), (3, 3, 1), (3, 2, 2)])
    def test_every_labelled_model_has_exactly_one_representative(self, states, agents, atoms):
        agent_ids, atom_names = signature(agents, atoms)
        labelled = model_list(states, agent_ids, atom_names)
        position = {key(m): k for k, m in enumerate(labelled)}
        first = {}  # canonical form -> (index of its first labelled model, labelled models)
        for k, m in enumerate(labelled):
            form = canonical(m)
            k0, count = first.get(form, (k, 0))
            first[form] = (k0, count + 1)
        reps = representatives(SearchBounds(states, agent_ids, atom_names))
        assert len({canonical(m) for m, _ in reps}) == len(reps) == len(first)
        for m, size in reps:
            # each representative is the first labelled model of its class
            assert first[canonical(m)] == (position[key(m)], size)
        assert [position[key(m)] for m, _ in reps] == sorted(position[key(m)] for m, _ in reps)


def labelled_first_point(f, models, falsify):
    for k, m in enumerate(models):
        ext = ref.Evaluator(m).extension(f)
        points = m.states - ext if falsify else ext
        if points:
            return k, m, min(points)
    return None


@pytest.mark.parametrize("states", [1, 3])
@pytest.mark.parametrize("text", ["p", "~p", "p | ~p", "p & ~p"])
@pytest.mark.parametrize("find", [find_model, find_countermodel])
def test_no_declared_agents_search_agent_1_as_a_labelled_loop_does(states, text, find):
    # the packed columns must follow the agent the models are built over
    bounds = SearchBounds(states, (), ("p",))
    labelled = list(enumerate_models(bounds))
    assert {m.agents for m in labelled} == {frozenset({"1"})}
    # a query may name agent 1, the agent the models are built over
    for f in (parse(text), parse("K1 " + text)):
        out = find(f, bounds)
        first = labelled_first_point(f, labelled, falsify=find is find_countermodel)
        if first is None:
            assert (out.verdict, out.models_examined) == ("exhausted", len(labelled))
        else:
            assert (out.witness.model, out.witness.state) == first[1:]


# generated formulas mostly have a one-state witness; these need two or three states
MULTI_STATE = {
    2: ["K1 p -> K2 p", "D{1,2} p -> C{1,2} p", "p & K1 ~K1 p", "~K1 R{1,2} p & p",
        "[~D{1} ~p] R{1,2} p", "K2 K1 p & D{1} R{1} p & (K2 K2 p & ~C{1,2} p)"],
    3: ["R{1,2} C{1,3} p <-> C{1,3} R{1,2} p", "~D{1,3} K2 p & p", "[~D{2} ~p] R{1,3} p",
        "K1 R{3} p & (R{1,2} p & K2 p) & ~D{2,3} D{1,3} p"],
}


@pytest.mark.parametrize("states,agents,seed", [(3, 2, 0), (3, 3, 1), (4, 2, 2)])
def test_find_verdicts_match_a_labelled_loop(states, agents, seed):
    agent_ids = signature(agents, 0)[0]
    bounds = SearchBounds(states, agent_ids, ("p",))
    labelled = model_list(states, agent_ids, ("p",))
    class_size = {}
    for m in labelled:
        class_size[canonical(m)] = class_size.get(canonical(m), 0) + 1
    gen = FormulaGen(agent_ids, ["p"], seed=seed, depth=3, allow_c=True, allow_r=True, allow_ann=True)
    formulas = [parse(text, set(agent_ids)) for text in MULTI_STATE[agents]]
    formulas += [gen.formula() for _ in range(40 if states == 3 else 12)]
    for f in formulas:
        for falsify, find in ((False, find_model), (True, find_countermodel)):
            out = find(f, bounds)
            expected = labelled_first_point(f, labelled, falsify)
            assert out.found == (expected is not None)
            if expected is None:
                assert out.models_examined == len(labelled)
                assert out.classes_examined == len(class_size)
                continue
            k, m, state = expected
            w = out.witness
            assert (w.model, w.state) == (m, state)
            assert validate(w.model) == []
            assert (state in ref.Evaluator(w.model).extension(f)) != falsify
            # every class evaluated counts whole, the witness's class included
            seen = {canonical(x) for x in labelled[:k + 1]}
            assert out.classes_examined == len(seen)
            assert out.models_examined == sum(class_size[c] for c in seen)


def balanced(op, parts):
    """op folded over the parts as a balanced tree, so that nesting stays shallow."""
    while len(parts) > 1:
        parts = [op(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


def characteristic(m, state):
    """A formula true exactly at points bisimilar to (m, state) for every group relation.

    Its 2n rounds decide bisimilarity against any model of at most n
    states.  When m is connected and no two of its states are bisimilar, a
    model of at most n states with such a point is isomorphic to m, so a
    search first meets the formula in m's own class.
    """
    groups = all_groups(sorted(m.agents))
    blocks = {(g, s): sorted(group_relation(m, g).block_of(s)) for g in groups for s in m.states}
    chi = {s: balanced(And, [Atom(p) if s in m.valuation[p] else Neg(Atom(p)) for p in sorted(m.valuation)]
                       or [TRUE]) for s in m.states}
    for _ in range(2 * len(m.states)):
        chi = {s: balanced(And, [chi[s]] + [x for g in groups for x in
                                            [Neg(D(g, Neg(chi[u]))) for u in blocks[g, s]]
                                            + [D(g, balanced(Or, [chi[u] for u in blocks[g, s]]))]])
               for s in m.states}
    return chi[state]


def assert_batched_witness(bounds, rows, row, labelled):
    """The search meets row's characteristic formula at row, as a labelled loop does."""
    n, idx, _ = rows[row]
    (m,) = _models(n, [idx], list(bounds.agents), list(bounds.atoms))
    state = max(m.states)
    f = characteristic(m, state)
    _, first, first_state = labelled_first_point(f, labelled, falsify=False)
    assert (first, first_state) == (m, state)
    for out in (find_model(f, bounds), find_countermodel(Neg(f), bounds)):
        assert (out.witness.model, out.witness.state) == (m, state)
        assert out.classes_examined == row + 1
        assert out.models_examined == sum(size for _, _, size in rows[:row + 1])


BATCH_BOUNDS = SearchBounds(3, ("1", "2"), ("p", "q"))


# Rows whose representative is connected with no two states bisimilar: the
# first and last rows of batches at each growth step, and a row of each
# size in the batch where sizes change.
@pytest.mark.parametrize("row", [0, 3, 5, 12, 27, 28, 32, 50, 251, 252])
def test_witnesses_at_batch_edges_match_a_labelled_loop(row):
    rows = list(classes(BATCH_BOUNDS))
    batches = list(_batches(rows))
    assert [len(b) for b in batches] == [4, 8, 16, 32, 64, 128, 136]
    assert [n for n, _, _ in batches[3]] == [2] * 16 + [3] * 16
    assert_batched_witness(BATCH_BOUNDS, rows, row, model_list(3, ("1", "2"), ("p", "q")))


def test_witness_inside_a_full_batch_at_five_states_three_agents():
    bounds = SearchBounds(5, ("1", "2", "3"), ("p",))
    rows = list(islice(classes(bounds), 600))
    sizes = [len(b) for b in islice(_batches(rows), 7)]
    assert sizes == [4, 8, 16, 32, 64, 128, BATCH_MODELS] and sum(sizes[:6]) == 252
    # row 302 is 4-state, inside the batch of rows 252-507
    assert_batched_witness(bounds, rows, 302, enumerate_models(bounds))


def test_exhaustion_at_nine_states_packs_two_byte_slots():
    bounds = SearchBounds(9, ("1",), ())
    widths = [{(n + 7) // 8 for n, _, _ in b} for b in _batches(classes(bounds))]
    assert all(len(w) == 1 for w in widths) and set().union(*widths) == {1, 2}
    f = parse("~K1 true")
    assert labelled_first_point(f, model_list(9, ("1",), ()), falsify=False) is None
    out = find_model(f, bounds)
    assert out.verdict == "exhausted"
    assert out.models_examined == out.classes_examined == 26442


def test_slot_bit_i_is_the_i_th_sorted_state_name():
    # at 11 states, sorted names run 0, 1, 10, 2, ..., 9
    names = sorted(str(j) for j in range(11))
    assert names[:4] == ["0", "1", "10", "2"]
    slots = _subset_table(11)
    for k in range(1 << 11):  # subset k holds state str(j) when bit j of k is set
        members = {str(j) for j in range(11) if k >> j & 1}
        bits = int.from_bytes(slots[k], "little")
        assert len(slots[k]) == 2
        assert {names[i] for i in range(11) if bits >> i & 1} == members
    for n in (4, 9):
        order = sorted(str(j) for j in range(n))
        for offset, patterns in enumerate(_pair_table(n), 1):
            for part, pattern in zip(_values(n)[1], patterns):
                bits = int.from_bytes(pattern, "little")
                assert {i for i in range(n) if bits >> i & 1} == {
                    i for i in range(n - offset) if part.block_of(order[i]) == part.block_of(order[i + offset])}


def test_sizes_without_tables_or_with_few_models_come_labelled():
    # one agent, no atoms: B(n) <= n! from 3 states on, and 8 states is past the tables
    bounds = SearchBounds(8, ("1",), ())
    assert representatives(bounds) == [(m, 1) for m in enumerate_models(bounds)]
    # one agent, one atom: reduced up to 7 states, labelled at 8
    weights = {}
    for n, _, size in classes(SearchBounds(8, ("1",), ("p",))):
        if n < 7:
            continue
        weights.setdefault(n, set()).add(size)
        if n == 8:
            break
    assert weights[7] != {1} and weights[8] == {1}


def test_searches_beyond_seven_states_exhaust_with_the_labelled_count():
    out = find_model(parse("~K1 true"), SearchBounds(max_states=8))
    bell = [sum(1 for _ in set_partitions(range(n))) for n in range(1, 9)]
    assert out.verdict == "exhausted"
    assert out.models_examined == out.classes_examined == sum(bell) == 5295
    found = find_countermodel(parse("K1 p -> p & ~K1 p"), SearchBounds(max_states=9))
    assert found.found and validate(found.witness.model) == []


def test_search_outcome_classes_are_optional_and_serialized():
    assert SearchOutcome(None, 3, 10).classes_examined is None
    out = find_model(parse("p & ~p"), SearchBounds(max_states=2))
    assert out.to_dict() == {"verdict": "exhausted", "max_states": 2,
                             "models_examined": 10, "classes_examined": 8}


# Queries over bounds sharing replays: larger then smaller bounds, a
# witness then an exhaustion on the same bounds, the same counts under
# other names, sizes searched labelled (one agent, no atoms, from 3 states
# on) and a size past the tables (8 states).
STORE_QUERIES = [
    (find_countermodel, "K1 p -> p", SearchBounds(4, ("1", "2"), ("p",))),
    (find_model, "p & ~K1 p", SearchBounds(4, ("1", "2"), ("p",))),
    (find_countermodel, "K1 p -> K2 p", SearchBounds(2, ("1", "2"), ("p",))),
    (find_model, "C{1,2} p & ~p", SearchBounds(3, ("1", "2"), ("p",))),
    (find_countermodel, "D{1,2} p -> C{1,2} p", SearchBounds(3, ("1", "2"), ("p",))),
    (find_countermodel, "Ka p -> Kb p", SearchBounds(3, ("a", "b"), ("p",))),
    (find_countermodel, "Ka p -> p", SearchBounds(4, ("a", "b"), ("p",))),
    (find_model, "~K1 true", SearchBounds(5, ("1",), ())),
    (find_model, "K1 ~K1 true", SearchBounds(3, ("1",), ())),
    (find_model, "~K1 true", SearchBounds(8, ("1",), ())),
    (find_countermodel, "K1 p -> p & ~K1 p", SearchBounds(4, ("1",), ("p",))),
    (find_countermodel, "R{1,2} C{1,3} p <-> C{1,3} R{1,2} p", SearchBounds(5, ("1", "2", "3"), ("p",))),
    (find_countermodel, "K1 p -> p", SearchBounds(3, ("1", "2", "3"), ("p",))),
    (find_model, "p & ~K2 p", SearchBounds(4, ("1", "2", "3"), ("p",))),
]


def run_store_queries(order, queries=STORE_QUERIES):
    outcomes = {}
    for k in order:
        find, text, bounds = queries[k]
        outcomes[k] = find(parse(text, set(bounds.agents)), bounds)
    return outcomes


@pytest.fixture
def cold_outcomes():
    """Each query's outcome from empty replays; the replays are emptied again afterwards."""
    outcomes = {}
    for k in range(len(STORE_QUERIES)):
        _replay.cache_clear()
        outcomes.update(run_store_queries([k]))
    yield outcomes
    _replay.cache_clear()


def planned_models():
    """`planned_models` of the benchmark's reference module, which shares no code with the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.planned_models


def test_model_count_is_the_planned_count():
    planned = planned_models()
    for states, agents, atoms in product(range(1, 6), range(1, 4), range(3)):
        agent_ids, atom_names = signature(agents, atoms)
        assert search._model_count(agent_ids, atom_names, states) == planned(states, agents, atoms)


def test_exhausted_store_queries_examine_the_planned_count(cold_outcomes):
    planned = planned_models()
    exhausted = 0
    for k, (_, _, bounds) in enumerate(STORE_QUERIES):
        if not cold_outcomes[k].found:
            exhausted += 1
            assert cold_outcomes[k].models_examined == planned(bounds.max_states, len(bounds.agents),
                                                                len(bounds.atoms))
    assert exhausted >= 5


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_outcomes_do_not_depend_on_what_the_store_holds(cold_outcomes, seed):
    order = list(range(len(STORE_QUERIES)))
    if seed is None:
        order.reverse()  # smaller bounds first, exhaustion before the witness
    else:
        random.Random(seed).shuffle(order)
    _replay.cache_clear()
    assert run_store_queries(order) == cold_outcomes
    assert run_store_queries(range(len(STORE_QUERIES))) == cold_outcomes
    assert cold_outcomes[0].models_examined == 3818 and cold_outcomes[5].found


@pytest.mark.parametrize("cap", [1, 7, 30, 300])
def test_queries_past_the_store_cap_stay_right(cold_outcomes, monkeypatch, cap):
    monkeypatch.setattr(_iso, "_STORE_ROWS", cap)
    _replay.cache_clear()
    assert run_store_queries(range(len(STORE_QUERIES))) == cold_outcomes
    assert run_store_queries(reversed(range(len(STORE_QUERIES)))) == cold_outcomes
    # the last query exhausts 357 rows; the replay holds whole batches up to the first boundary at or past the cap
    replay = _replay((4, ("1", "2"), ("p",)))
    assert replay.rows >= cap > replay.rows - len(replay.batches[-1])
    assert replay.rows == sum(map(len, replay.batches))


@pytest.mark.parametrize("cap", [None, 300])
def test_a_replayed_exhaustion_enumerates_no_class(monkeypatch, cap):
    find, text, bounds = STORE_QUERIES[0]
    if cap is not None:  # the batch that crosses the cap ends the stream of these bounds' 357 rows
        monkeypatch.setattr(_iso, "_STORE_ROWS", cap)
    _replay.cache_clear()
    first = find(parse(text), bounds)
    assert not first.found
    drawn, calls = _iso._size_classes, []
    monkeypatch.setattr(_iso, "_size_classes", lambda *args: calls.append(args) or drawn(*args))
    # seed and instance_count do not change a search, so these bounds share the replay too
    for again in (bounds, SearchBounds(4, ("2", "1", "2"), ("p",), seed=7, instance_count=3)):
        assert find(parse(text), again) == first
    assert calls == []
    _replay.cache_clear()


def test_a_repeated_query_builds_its_witness_model_once(monkeypatch):
    built, real = [], _iso._models

    def counted(n, rows, *names):  # every row that becomes a model
        for m in real(n, rows, *names):
            built.append(m)
            yield m

    monkeypatch.setattr(_iso, "_models", counted)
    _replay.cache_clear()
    f, bounds = parse("p & ~K1 p"), SearchBounds(3, ("1",), ("p",))
    first = find_model(f, bounds)
    # the replayed batch keeps the row's model: later queries with the same witness row share it
    for again in (find_model(f, bounds), find_countermodel(Neg(f), bounds)):
        assert again == first and again.witness.model is first.witness.model
    assert len(built) == 1
    _replay.cache_clear()


def test_a_draw_cut_short_resumes_where_the_store_ends(cold_outcomes, monkeypatch):
    drawn = _iso._size_classes

    def interrupted(n, agents, atoms):
        for k, row in enumerate(drawn(n, agents, atoms)):
            if n == 4 and k == 100:
                raise KeyboardInterrupt
            yield row

    _replay.cache_clear()
    monkeypatch.setattr(_iso, "_size_classes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_store_queries([0])
    monkeypatch.setattr(_iso, "_size_classes", drawn)
    assert run_store_queries(range(len(STORE_QUERIES))) == cold_outcomes


def test_threads_sharing_the_stores_get_the_cold_outcomes(cold_outcomes, monkeypatch):
    drawn = _iso._size_classes

    def yielding(n, agents, atoms):
        for row in drawn(n, agents, atoms):
            time.sleep(0)  # let another thread run inside every draw
            yield row

    monkeypatch.setattr(_iso, "_size_classes", yielding)
    workers = (os.cpu_count() or 1) + 2
    for seed in range(2):  # each round, every thread meets empty replays with the same query order
        order = list(range(len(STORE_QUERIES)))
        random.Random(seed).shuffle(order)
        results, errors = [], []
        start = threading.Barrier(workers, timeout=60)

        def work():
            try:
                start.wait()
                results.append(run_store_queries(order))
            except Exception as exc:  # reported below, with every other thread's outcome
                errors.append(exc)

        _replay.cache_clear()
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [cold_outcomes] * workers


# Queries where a resolution's child context reads what a root context
# also reads (K1 under R{1,2}, then K1 at the root), on two bounds.  Were a
# child's reads left in the root's map, K2 p & ~K1 p would read as the
# unsatisfiable D{1,2} p & ~D{1,2} p after a query under R{1,2}.
ROOT_QUERIES = [
    (find_model, text, SearchBounds(4, agents, ("p",)))
    for agents, texts in ((("1", "2", "3"), ["R{1,2} (p & ~K1 p)", "K2 p & ~K1 p", "R{1,3} ~K3 p & K1 p",
                                              "~C{1,2} p & p & K3 p", "R{1,2} D{2,3} p & ~D{2,3} p"]),
                          (("1", "2"), ["R{1,2} ~K2 p & p", "K1 p & ~K2 p", "K2 p & ~C{1,2} p"]))
    for text in texts
]


@pytest.fixture
def cold_root_outcomes():
    """Each root query's outcome from empty replays; the replays are emptied again afterwards."""
    outcomes = {}
    for k in range(len(ROOT_QUERIES)):
        _replay.cache_clear()
        outcomes.update(run_store_queries([k], ROOT_QUERIES))
    yield outcomes
    _replay.cache_clear()


def root_batches(bounds) -> list:
    return _replay((bounds.max_states, bounds.agents, bounds.atoms)).batches


def fill_root_relations(batch, rng) -> None:
    """Empty a batch's shared root relations, or fill some or all of what a root context reads."""
    if rng.random() < 0.3:
        batch.rels.clear()
        return
    root = Context(batch)
    groups = all_groups(sorted(batch.agents))
    keys = sorted(batch.agents) + groups + [(g,) for g in groups]
    for key in rng.sample(keys, rng.randint(1, len(keys))):
        root._rel(key)


@pytest.mark.parametrize("seed", range(6))
def test_outcomes_do_not_depend_on_what_the_root_relations_hold(cold_root_outcomes, seed):
    rng = random.Random(seed)
    order = list(range(len(ROOT_QUERIES))) * 3
    rng.shuffle(order)  # queries on the other bounds come between two on the same bounds
    _replay.cache_clear()
    for k in order:
        for batch in root_batches(ROOT_QUERIES[k][2]):
            fill_root_relations(batch, rng)
        assert run_store_queries([k], ROOT_QUERIES) == {k: cold_root_outcomes[k]}
    for _, _, bounds in ROOT_QUERIES:
        # what a root context reads: at most each agent's, each group's and each group's common relation
        assert all(len(batch.rels) <= len(bounds.agents) + 2 * (2 ** len(bounds.agents) - 1)
                   for batch in root_batches(bounds))


def test_threads_filling_the_root_relations_get_the_cold_outcomes(cold_root_outcomes):
    workers = (os.cpu_count() or 1) + 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that fills of one relation interleave
    try:
        for seed in range(3):  # each round, every thread meets held batches with emptied root relations
            order = list(range(len(ROOT_QUERIES)))
            random.Random(seed).shuffle(order)
            run_store_queries(order, ROOT_QUERIES)
            for _, _, bounds in ROOT_QUERIES:
                for batch in root_batches(bounds):
                    batch.rels.clear()
            results, errors = [], []
            start = threading.Barrier(workers, timeout=60)

            def work(k):
                try:
                    start.wait()
                    results.append(run_store_queries(order[k:] + order[:k], ROOT_QUERIES))
                except Exception as exc:  # reported below, with every other thread's outcome
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert results == [cold_root_outcomes] * workers
    finally:
        sys.setswitchinterval(interval)


SMALL = SearchBounds(max_states=2, agents=("1", "2"), atoms=("p",), instance_count=60)


class TestCheckSchema:
    def test_rd_sound_at_small_bounds(self):
        report = check_schema("rd", SMALL)
        assert report.ok
        names = [s.name for s in report.schemata]
        assert names == ["PC", "K", "T", "4", "5", "K_D", "T_D", "5_D", "D1", "D2",
                         "RA", "RC", "RN", "RD1", "RD2"]

    def test_rcd_sound_at_small_bounds(self):
        report = check_schema("rcd", SMALL)
        assert report.ok
        names = [s.name for s in report.schemata]
        for extra in ("K_C", "T_C", "C1", "C2"):
            assert extra in names

    def test_rules_fire_nonvacuously(self):
        report = check_schema("rcd", SMALL)
        for rule in report.rules:
            assert rule.fired > 0
            assert rule.ok

    def test_report_serializes(self):
        report = check_schema("rd", SearchBounds(max_states=1, agents=("1", "2"),
                                                 atoms=("p",), instance_count=20))
        data = report.to_dict()
        assert data["system"] == "rd"
        assert report.text().startswith("system rd")

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            schema_builders("s5")


MUTATION_BOUNDS = SearchBounds(max_states=3, agents=("1", "2"), atoms=("p",), instance_count=40)


def _mutated(system, name, builder):
    report = check_schema(system, MUTATION_BOUNDS, override={name: builder},
                          schemas=[name], include_rules=False)
    (result,) = report.schemata
    return result


def corrupt_rd1(gen):
    g, h = gen.overlapping_pair()
    a = gen.formula()
    return Iff(R(g, D(h, a)), D(g & h, R(g, a)))  # union swapped for intersection


def drop_t_d(gen):
    a = gen.formula()
    return Implies(a, D(gen.group(), a))  # the truth axiom, direction dropped


def break_c1(gen):
    a, g = gen.formula(), gen.group()
    return Implies(E(g, a), E(g, C(g, a)))  # mutual knowledge is not enough


class TestMutationsAreCaught:
    def test_corrupted_rd1(self):
        result = _mutated("rd", "RD1", corrupt_rd1)
        assert result.violations
        v = result.violations[0]
        assert len(v.model.states) <= 4
        assert not satisfies(v.model, v.state, v.instance)

    def test_dropped_t_d(self):
        result = _mutated("rd", "T_D", drop_t_d)
        assert result.violations
        v = result.violations[0]
        assert not satisfies(v.model, v.state, v.instance)

    def test_broken_c1(self):
        result = _mutated("rcd", "C1", break_c1)
        assert result.violations
        v = result.violations[0]
        assert len(v.model.states) <= 4
        assert not satisfies(v.model, v.state, v.instance)


def test_rrc_small_bounds_clean():
    report = check_rule_rrc(SearchBounds(max_states=2, agents=("1", "2"),
                                         atoms=("p",), instance_count=60))
    assert report.ok
    assert report.premise_hits > 0
    assert report.to_dict()["verdict"] == "ok"


def test_enumerate_pseudo_models_all_pseudo_and_counted():
    models = list(enumerate_pseudo_models(2, ["1", "2"]))
    assert len(models) == 6
    for pre in models:
        assert validate(pre) == []
    again = list(enumerate_pseudo_models(2, ["1", "2"]))
    assert models == again


def test_enumerate_pseudo_models_counts_a_repeated_id_once():
    once = list(enumerate_pseudo_models(2, ["1"], ["p"]))
    assert len(once) == 10
    assert list(enumerate_pseudo_models(2, ["1", "1"], ["p"])) == once
    assert list(enumerate_pseudo_models(2, ["1"], ["p", "p"])) == once
    pair = list(enumerate_pseudo_models(2, ["1", "2"], ["p"]))
    assert list(enumerate_pseudo_models(2, ["2", "1", "2"], ["p", "p"])) == pair


def test_formula_gen_is_seed_deterministic():
    a = FormulaGen(["1", "2"], ["p"], seed=42)
    b = FormulaGen(["1", "2"], ["p"], seed=42)
    assert [a.formula() for _ in range(30)] == [b.formula() for _ in range(30)]


# ---------------------------------------------------------------------------
# the report shape: key order and text lines of one entry of each kind


def test_schema_entry_shape():
    report = check_schema("rd", SearchBounds(2, ("1", "2"), ("p",), instance_count=3),
                          override={"T_D": drop_t_d}, schemas=["T_D"], include_rules=False)
    model = ('{"agents": ["1", "2"], "props": ["p"], "states": ["0", "1"], '
             '"relations": {"1": [["0", "1"]], "2": [["0", "1"]]}, "valuation": {"p": ["0"]}}')
    instance = "~(D{1,2} true & ~p & ~D{1,2} (D{1,2} true & ~p))"
    assert json.dumps(report.to_dict()) == (
        '{"system": "rd", "models_examined": 18, "schemata": [{"schema": "T_D", "instances": 3, '
        '"verdict": "violated", "violations": [{"schema": "T_D", '
        f'"instance": "{instance}", "model": {model}, "state": "1"}}]}}], "rules": []}}')
    assert report.text().split("\n") == [
        "system rd: 18 models examined",
        f"  schema T_D: VIOLATED by {instance} at state 1 of {model}",
    ]


def test_rule_entry_shape(monkeypatch):
    builders = search._rule_builders
    monkeypatch.setattr(search, "_rule_builders", lambda system: {
        "MP": builders(system)["MP"], "BAD": lambda gen: ([TRUE], K(gen.agent(), Atom("p")))})
    report = check_schema("rd", SearchBounds(1, ("1", "2"), ("p",), instance_count=1), schemas=["T"])
    model = ('{"agents": ["1", "2"], "props": ["p"], "states": ["0"], '
             '"relations": {"1": [["0"]], "2": [["0"]]}, "valuation": {"p": []}}')
    assert json.dumps(report.to_dict()) == (
        '{"system": "rd", "models_examined": 2, "schemata": [{"schema": "T", "instances": 1, '
        '"verdict": "ok", "violations": []}], "rules": [{"rule": "MP", "instances": 1, "fired": 0, '
        '"verdict": "ok", "violations": []}, {"rule": "BAD", "instances": 1, "fired": 1, '
        '"verdict": "violated", "violations": [{"schema": "BAD", "instance": "K1 p", '
        f'"model": {model}, "state": "0"}}]}}]}}')
    assert report.text().split("\n") == [
        "system rd: 2 models examined",
        "  schema T: ok (1 instances)",
        "  rule MP: ok (1 instances, 0 fired)",
        "  rule BAD: VIOLATED (1 instances, 1 fired)",
    ]


def test_rrc_entry_shape(monkeypatch):
    # without E_H phi the premise no longer gives C_H: the rule turns unsound.
    # At two states the two models of one class both violate it.
    monkeypatch.setattr(search, "E", lambda group, body: TRUE)
    report = check_rule_rrc(SearchBounds(2, ("1", "2"), ("p",), instance_count=1))
    instance = ('{"antecedent": "K2 p", "premise": "~(K2 p & ~(true & K2 K2 p))", '
                '"conclusion": "~(K2 p & ~C{1,2} K2 K2 p)"')
    model = ('{"agents": ["1", "2"], "props": ["p"], "states": ["0", "1"], '
             '"relations": {"1": [["0", "1"]], "2": [["0"], ["1"]]}, "valuation": {"p": ["%s"]}}')
    assert json.dumps(report.to_dict()) == (
        '{"rule": "RR_C", "instances": 1, "premise_hits": 18, "models_examined": 18, '
        '"verdict": "violated", "violations": ['
        f'{instance}, "model": {model % 0}, "state": "0"}}, '
        f'{instance}, "model": {model % 1}, "state": "1"}}]}}')
    shown = instance.replace('"', "'") + "}"
    assert report.text().split("\n") == [
        "rule RR_C: VIOLATED (1 instances, 18 premise hits, 18 models)",
        f"  violated by {shown} at state 0",
        f"  violated by {shown} at state 1",
    ]


# ---------------------------------------------------------------------------
# the sweep reports, pinned: a change to the sweep's packing or loop must
# leave every report byte-identical


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


PINNED_REPORTS = {
    ("rd", 0): ("54f177b2930e4b37820091ef05e1bb5ae6fbd2b180d45914eb7dda7de950412c",
                "8ef6964b5d140839447e15b0bbab3e4173f547b3e1f817c6527faf21cbd96a92"),
    ("rd", 1): ("239a8d8ab77ff48b728b1079a9c2610d145e305e44570f1c6859d9e60d91f8e2",
                "e518edcd915025bdc52eab6f30b48c2e307fecaff42f6caafd1779b378fa762a"),
    ("rcd", 0): ("fa90d658e0bc6fa2e6583586cc693ce780d1ed44fdec9458e7c3c1980b5e34ca",
                 "bc45d9bdf3d3f246b7cbccd235474f64f5318f92deea923e7dabd6b7a5cb66f8"),
    ("rcd", 1): ("68adf06a4450a771dacfd77c86b961b24aa654a7da40fdf2ccdef264bb05d791",
                 "902d7e649d6ee36afee11b6c516fbf9c297c06c9f4434b992bd3178bf772bd30"),
}


@pytest.mark.parametrize("system, seed", list(PINNED_REPORTS))
def test_schema_reports_are_pinned(system, seed):
    report = check_schema(system, SearchBounds(3, ("1", "2"), ("p",), seed=seed))
    assert (sha256(json.dumps(report.to_dict(), indent=2)), sha256(report.text())) == PINNED_REPORTS[system, seed]


def test_rrc_report_is_pinned():
    report = check_rule_rrc(SearchBounds(3, ("1", "2"), ("p",)))
    assert (sha256(json.dumps(report.to_dict(), indent=2)), sha256(report.text())) == (
        "ab1bf42f32063a3e81bf888eacebc3e919a9f112a7a63bccd455a4abb4131cb0",
        "cc9b3017eb3a7cb67f453fe46c0c85af2cc89e30bf7b5b68fad773c79113dd90")


# ---------------------------------------------------------------------------
# the sweeps and the search read the bounds' agents and atoms alike


@pytest.mark.parametrize("agents, atoms, models", [(None, None, 18), (("1", "2"), ("p",), 18),
                                                   ((), ("p",), 10), (("1",), (), 3), ((), (), 3)])
def test_sweeps_cover_the_models_the_search_covers(agents, atoms, models):
    # None takes the sweeps' agents 1, 2 and atom p; a declared empty list is
    # kept, and no agent means agent 1 alone, as in find_model
    bounds = SearchBounds(2, agents, atoms, instance_count=4)
    assert check_schema("rd", bounds).models_examined == models
    assert check_rule_rrc(bounds).models_examined == models
    if agents is not None and atoms is not None:
        query = And(Atom(atoms[0]), Neg(Atom(atoms[0]))) if atoms else FALSE
        assert find_model(query, bounds).models_examined == models
        assert len(list(enumerate_models(bounds))) == models


def test_schemata_without_instances_in_the_bounds_are_ok():
    report = check_schema("rcd", SearchBounds(2, ("1",), (), instance_count=20))
    counts = {s.name: s.instances for s in report.schemata}
    assert counts["RD2"] == 0 and counts["RA"] == 0
    assert all(n > 0 for name, n in counts.items() if name not in ("RD2", "RA"))
    assert report.ok and all(rule.fired > 0 for rule in report.rules)
    assert "  schema RD2: ok (0 instances)" in report.text().split("\n")

