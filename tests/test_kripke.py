import copy
import pickle
import random
import re

import pytest

from epiresolve.kripke import (
    Model,
    Partition,
    PreModel,
    all_groups,
    as_premodel,
    common_relation,
    group_relation,
    is_pseudo,
    iterated_relation,
    load_model,
    model_from_dict,
    model_to_dict,
    resolve,
    resolve_pre,
    restrict,
    save_model,
    validate,
)
from epiresolve.checker import satisfies
from epiresolve.syntax import as_group, delta, parse

from conftest import model_list


def grp(csv):
    return frozenset(csv.split(","))


def blocks(part):
    return part.sorted_blocks()


class TestValidate:
    def test_fig1_is_sound(self, FIG1):
        assert validate(FIG1) == []

    def test_missing_cover_reported(self, FIG1):
        broken = Model(
            states=FIG1.states,
            agents=FIG1.agents,
            relations={"1": Partition(frozenset([frozenset(["u"])])), "2": FIG1.relations["2"]},
            valuation=FIG1.valuation,
        )
        assert any("agent 1 partition does not cover" in v and "s" in v for v in validate(broken))

    def test_pseudo_monotonicity_violation(self):
        pre = PreModel.make(
            states=["a", "b"],
            relations={"1": [["a"], ["b"]], "2": [["a"], ["b"]]},
            group_relations={"1": [["a"], ["b"]], "2": [["a"], ["b"]], "1,2": [["a", "b"]]},
        )
        assert "pseudo: monotonicity violated for {1}⊆{1,2}" in validate(pre)
        assert not is_pseudo(pre)

    def test_pseudo_singleton_violation(self):
        pre = PreModel.make(
            states=["a", "b"],
            relations={"1": [["a", "b"]], "2": [["a"], ["b"]]},
            group_relations={"1": [["a"], ["b"]], "2": [["a"], ["b"]], "1,2": [["a"], ["b"]]},
        )
        assert any(v.startswith("pseudo: singleton relation for agent 1") for v in validate(pre))


def _sound_spec(pre):
    spec = {"states": ["s", "t", "u"], "agents": ["1", "2"],
            "relations": {"1": [["s", "t"], ["u"]], "2": [["s"], ["t"], ["u"]]},
            "valuation": {"p": ["s"]}}
    if pre:
        spec["group_relations"] = {"1": [["s", "t"], ["u"]], "2": [["s"], ["t"], ["u"]],
                                   "1,2": [["s"], ["t"], ["u"]]}
    return spec


def _set(field, key, value):
    def edit(spec):
        spec[field][key] = value
    return edit


def _drop(field, key):
    def edit(spec):
        del spec[field][key]
    return edit


def _empty(field):
    def edit(spec):
        spec[field] = []
        for rels in ("relations", "group_relations"):
            if rels in spec:
                spec[rels] = {} if field == "agents" else {k: [] for k in spec[rels]}
        spec["valuation"] = {}
    return edit


# (defect, edit of the sound spec, message, whether block lists can carry it:
# a block list implies the singletons it omits, so it cannot leave a state uncovered)
AGENT_DEFECTS = [
    ("uncovered state", _set("relations", "1", [["s", "t"]]), "agent 1 partition does not cover u", False),
    ("overlapping blocks", _set("relations", "1", [["s", "t"], ["t", "u"]]), "agent 1: blocks overlap on t", True),
    ("stray state", _set("relations", "2", [["s"], ["t"], ["u", "z"]]), "agent 2: mentions unknown states z", True),
    ("empty block", _set("relations", "1", [["s", "t"], ["u"], []]), "agent 1: empty block", True),
    ("missing relation", _drop("relations", "2"), "agent 2: missing relation", True),
    ("undeclared agent", _set("relations", "9", [["s", "t", "u"]]), "relation for undeclared agent '9'", True),
    ("valuation outside the states", _set("valuation", "p", ["s", "z"]),
     "atom p: valuation contains unknown states z", True),
    ("empty states", _empty("states"), "states: empty", True),
    ("empty agents", _empty("agents"), "agents: empty", True),
]
GROUP_DEFECTS = [
    ("group uncovered state", _set("group_relations", "1,2", [["s"], ["t"]]),
     "group 1,2 partition does not cover u", False),
    ("group overlapping blocks", _set("group_relations", "1,2", [["s", "t"], ["t"], ["u"]]),
     "group 1,2: blocks overlap on t", True),
    ("group stray state", _set("group_relations", "2", [["s"], ["t"], ["u", "z"]]),
     "group 2: mentions unknown states z", True),
    ("group empty block", _set("group_relations", "1,2", [["s"], ["t"], ["u"], []]), "group 1,2: empty block", True),
    ("group missing relation", _drop("group_relations", "1,2"), "group 1,2: missing relation", True),
    ("group undeclared agent", _set("group_relations", "1,9", [["s", "t", "u"]]),
     "group relation for undeclared agent '9' in '1,9'", True),
]
CASES = [(False, *d) for d in AGENT_DEFECTS] + [(True, *d) for d in AGENT_DEFECTS + GROUP_DEFECTS]


def _raw_partition(blocks):
    return Partition(frozenset(map(frozenset, blocks)))


def _raw(spec):
    """The unchecked structure the spec describes, every block as written."""
    fields = dict(states=frozenset(spec["states"]), agents=frozenset(spec["agents"]),
                  relations={a: _raw_partition(b) for a, b in spec["relations"].items()},
                  valuation={p: frozenset(ss) for p, ss in spec["valuation"].items()})
    if "group_relations" not in spec:
        return Model(**fields)
    return PreModel(**fields, group_relations={as_group(k): _raw_partition(b)
                                               for k, b in spec["group_relations"].items()})


def _make(spec, as_partitions):
    read = _raw_partition if as_partitions else list
    relations = {a: read(b) for a, b in spec["relations"].items()}
    if "group_relations" not in spec:
        return Model.make(spec["states"], relations, spec["valuation"], spec["agents"])
    groups = {k: read(b) for k, b in spec["group_relations"].items()}
    return PreModel.make(spec["states"], relations, groups, spec["valuation"], spec["agents"])


class TestConstruction:
    @pytest.mark.parametrize("pre", [False, True])
    @pytest.mark.parametrize("as_partitions", [False, True])
    def test_sound_spec_is_accepted(self, pre, as_partitions):
        spec = _sound_spec(pre)
        assert _make(spec, as_partitions) == _raw(spec)
        assert validate(_raw(spec)) == []

    @pytest.mark.parametrize("as_partitions", [False, True])
    @pytest.mark.parametrize("pre, defect, edit, message, in_blocks", CASES,
                             ids=[f"{'pre' if c[0] else 'model'}-{c[1]}" for c in CASES])
    def test_make_raises_validates_first_message(self, pre, defect, edit, message, in_blocks, as_partitions):
        spec = _sound_spec(pre)
        edit(spec)
        assert validate(_raw(spec))[0] == message
        if as_partitions or in_blocks:
            with pytest.raises(ValueError) as info:
                _make(spec, as_partitions)
            assert str(info.value) == message
        else:
            _make(spec, as_partitions)  # the omitted singleton is implied

    def test_partition_missing_a_state_is_rejected(self):
        # once accepted: K1 p was false at t although p holds at every state
        with pytest.raises(ValueError, match="agent 1 partition does not cover t"):
            Model.make(["s", "t"], {"1": Partition.of([["s"]])}, {"p": ["s", "t"]})
        m = Model.make(["s", "t"], {"1": [["s"]]}, {"p": ["s", "t"]})
        assert satisfies(m, "t", parse("K1 p"))

    def test_all_groups_is_a_fresh_list(self):
        first = all_groups(["2", "1"])
        first.append("spoiled")
        assert all_groups(["1", "2"]) == [grp("1"), grp("2"), grp("1,2")]


class TestPartitionOf:
    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError, match="blocks overlap on t"):
            Model.make(["s", "t", "u"], {"1": [["s", "t"], ["t", "u"]]})

    def test_repeated_block_is_one_block(self):
        assert Partition.of([["s", "t"], ["t", "s"]]) == Partition.of([["s", "t"]])

    def test_string_block_rejected(self):
        # "st" would otherwise be read as the block {s, t}
        with pytest.raises(ValueError, match="string"):
            Partition.of(["st"], ["s", "t"])


class TestDerivedRelations:
    def test_group_relation_is_the_core(self, FIG1):
        assert blocks(group_relation(FIG1, grp("1,2"))) == [["s"], ["t", "v"], ["u"], ["w"]]

    def test_singleton_group_is_the_agent_relation(self, FIG1):
        assert group_relation(FIG1, grp("1")) == FIG1.relations["1"]
        assert blocks(group_relation(FIG1, grp("1"))) == [["s", "t", "v", "w"], ["u"]]

    def test_common_relation_merges_everything(self, FIG1):
        assert blocks(common_relation(FIG1, grp("1,2"))) == [["s", "t", "u", "v", "w"]]

    def test_common_relation_after_collapse(self, CORE):
        assert blocks(common_relation(CORE, grp("1,2"))) == [["s"], ["t", "v"], ["u"], ["w"]]

    def test_common_relation_singleton(self, FIG1):
        assert common_relation(FIG1, grp("2")) == FIG1.relations["2"]

    def test_group_relation_is_antitone(self):
        for m in model_list(3, ("1", "2", "3"), ()):
            parts = {g: group_relation(m, g) for g in all_groups(m.agents)}
            for small in parts:
                for big in parts:
                    if small < big:
                        assert parts[big].refines(parts[small])


def reference_meet(p, q):
    """The definition: every non-empty intersection of a block of p with a block of q."""
    return Partition(frozenset(a & b for a in p.blocks for b in q.blocks if a & b))


def reference_join(parts):
    """Plain fixpoint closure of the union: every state takes the least label
    found in any block holding it, until no label changes."""
    label = {s: s for p in parts for b in p.blocks for s in b}
    changed = True
    while changed:
        changed = False
        for p in parts:
            for b in p.blocks:
                low = min(label[s] for s in b)
                for s in b:
                    if label[s] != low:
                        label[s], changed = low, True
    classes = {}
    for s, low in label.items():
        classes.setdefault(low, set()).add(s)
    return Partition(frozenset(map(frozenset, classes.values())))


def random_partition(rng, states):
    count = rng.randint(1, len(states))
    buckets = {}
    for s in states:
        buckets.setdefault(rng.randrange(count), []).append(s)
    return Partition.of(buckets.values())


def partition_cases(seed):
    """Random partitions of 1-80 states, with identical, discrete and single-block ones."""
    rng = random.Random(seed)
    states = [f"w{k}" for k in range(rng.randint(1, 80))]
    p = random_partition(rng, states)
    return rng, states, [p, p, random_partition(rng, states),
                         Partition.discrete(states), Partition.of([states])]


class TestRelationAlgebraReference:
    def test_meet_is_pairwise_intersection(self):
        for seed in range(150):
            _, _, cases = partition_cases(seed)
            for p in cases:
                for q in cases:
                    assert p.meet(q) == reference_meet(p, q)
            assert cases[0].meet(cases[1]) == cases[0]

    def test_join_all_is_closure_of_union(self):
        for seed in range(150):
            rng, _, cases = partition_cases(seed)
            for count in range(1, 5):
                parts = [rng.choice(cases) for _ in range(count)]
                assert Partition.join_all(parts) == reference_join(parts)
            assert Partition.join_all(cases[:2]) == cases[0]

    def test_join_all_of_nothing_is_empty(self):
        assert Partition.join_all([]) == Partition(frozenset())

    def test_different_universes(self):
        # meet keeps the states both sides have, join_all keeps every state
        for seed in range(150):
            rng, states, _ = partition_cases(seed)
            cut = rng.randint(0, len(states))
            left = random_partition(rng, states[:cut] or states)
            right = random_partition(rng, states[cut // 2:])
            assert left.meet(right) == reference_meet(left, right)
            assert left.meet(right).universe == left.universe & right.universe
            assert Partition.join_all([left, right]) == reference_join([left, right])
            assert Partition.join_all([left, right]).universe == left.universe | right.universe

    def test_lazy_index_keeps_equality_hash_and_pickling(self):
        # _block_index and universe are plain attributes, filled in on first use
        part = Partition(frozenset([frozenset(["s", "t"]), frozenset(["u"])]))
        fresh = pickle.loads(pickle.dumps(part))
        assert part.block_of("t") == frozenset(["s", "t"]) and part.universe == frozenset("stu")
        assert {"_block_index", "universe"} <= vars(part).keys() and not vars(fresh).keys() - {"blocks"}
        assert fresh == part and hash(fresh) == hash(part) and pickle.loads(pickle.dumps(part)) == part
        assert fresh.related("s", "t") and copy.deepcopy(part).universe == part.universe
        with pytest.raises(AttributeError, match="has no attribute 'missing'"):
            part.missing

    def test_derived_relations_on_a_large_model(self):
        rng = random.Random(800)
        states = [f"w{k}" for k in range(800)]
        relations = {}
        for a in ("1", "2", "3"):
            buckets = {}
            for s in states:
                buckets.setdefault(rng.randrange(200), []).append(s)
            relations[a] = list(buckets.values())
        m = Model.make(states, relations)
        for g in all_groups(m.agents):
            parts = [m.relations[a] for a in sorted(g)]
            core = parts[0]
            for p in parts[1:]:
                core = reference_meet(core, p)
            assert group_relation(m, g) == core
            assert common_relation(m, g) == reference_join(parts)
            updated = resolve(m, g)
            for a in m.agents:
                assert updated.relations[a] == (core if a in g else m.relations[a])


class TestResolve:
    def test_fig1_resolves_to_core(self, FIG1, CORE):
        assert resolve(FIG1, grp("1,2")) == CORE

    def test_singleton_resolution_is_identity(self, FIG1):
        assert resolve(FIG1, grp("1")) == FIG1

    def test_idempotent_on_fig1(self, FIG1, CORE):
        assert resolve(resolve(FIG1, grp("1,2")), grp("1,2")) == CORE

    def test_idempotent_and_disjoint_commute(self):
        groups = all_groups(["1", "2", "3"])
        for m in model_list(4, ("1", "2", "3"), ()):
            for g in groups:
                once = resolve(m, g)
                assert resolve(once, g) == once
            for g in groups:
                for h in groups:
                    if not (g & h):
                        assert resolve(resolve(m, g), h) == resolve(resolve(m, h), g)

    def test_grand_coalition_levels_all_relations(self):
        everyone = grp("1,2")
        for m in model_list(3, ("1", "2"), ()):
            core = group_relation(m, everyone)
            updated = resolve(m, everyone)
            assert all(updated.relations[a] == core for a in updated.agents)
            assert common_relation(updated, everyone) == core


class TestResolvePre:
    def test_embedding_matches_model_update(self, FIG1, CORE):
        assert resolve_pre(as_premodel(FIG1), grp("1,2")) == as_premodel(CORE)

    def test_singleton_is_identity_on_pseudo_models(self, FIG1):
        pre = as_premodel(FIG1)
        assert resolve_pre(pre, grp("2")) == pre

    def test_update_commutes_with_the_embedding(self):
        for m in model_list(3, ("1", "2"), ("p",))[:120]:
            for g in all_groups(m.agents):
                assert as_premodel(resolve(m, g)) == resolve_pre(as_premodel(m), g)

    def test_update_preserves_pseudo_validation(self):
        for m in model_list(3, ("1", "2"), ()):
            pre = as_premodel(m)
            for g in all_groups(m.agents):
                assert validate(resolve_pre(pre, g)) == []


class TestAsPremodel:
    def test_group_entry_is_the_core(self, FIG1):
        pre = as_premodel(FIG1)
        assert blocks(pre.group_relations[grp("1,2")]) == [["s"], ["t", "v"], ["u"], ["w"]]

    def test_is_pseudo_for_enumerated_models(self):
        for m in model_list(3, ("1", "2"), ()):
            assert validate(as_premodel(m)) == []

    def test_singleton_entries_match_agent_relations(self, FIG1):
        pre = as_premodel(FIG1)
        for a in FIG1.agents:
            assert pre.group_relations[frozenset([a])] == FIG1.relations[a]


class TestIteratedRelation:
    def test_fig1_single_step(self, FIG1):
        part = iterated_relation(FIG1, [grp("1,2")], "1")
        assert blocks(part) == [["s"], ["t", "v"], ["u"], ["w"]]

    def test_empty_sequence(self, FIG1):
        assert iterated_relation(FIG1, [], "2") == FIG1.relations["2"]
        assert iterated_relation(FIG1, [], grp("1,2")) == group_relation(FIG1, grp("1,2"))

    def test_matches_sequential_update_for_group_target(self):
        seq = [grp("1,2"), grp("1,3")]
        for m in model_list(3, ("1", "2", "3"), ())[:400]:
            pre = as_premodel(m)
            for g in seq:
                pre = resolve_pre(pre, g)
            assert iterated_relation(m, seq, grp("2")) == pre.group_relations[grp("2")]


def triple_update_case(m, sequence, agent):
    """Per-agent closed form of a triple update, via the index function."""
    return group_relation(m, delta(frozenset([agent]), sequence))


def test_triple_update_case_analysis():
    # all triples of groups over three agents against three actual resolves
    groups = all_groups(["1", "2", "3"])
    for m in model_list(2, ("1", "2", "3"), ()):
        for g1 in groups:
            m1 = resolve(m, g1)
            for g2 in groups:
                m2 = resolve(m1, g2)
                for g3 in groups:
                    m3 = resolve(m2, g3)
                    for agent in m.agents:
                        assert m3.relations[agent] == triple_update_case(m, [g1, g2, g3], agent)


def test_triple_update_couples_through_later_groups():
    # agent 1 sits out G2={2,3} but G3={1,3} drags G2's refinement in:
    # the result intersects all three relations, not just those of 1 and 3
    m = Model.make(
        states=["a", "b"],
        relations={"1": [["a", "b"]], "2": [["a"], ["b"]], "3": [["a", "b"]]},
    )
    out = resolve(resolve(resolve(m, grp("1")), grp("2,3")), grp("1,3"))
    assert out.relations["1"] == group_relation(m, grp("1,2,3"))
    assert delta(grp("1"), [grp("1"), grp("2,3"), grp("1,3")]) == grp("1,2,3")


class TestRestrict:
    def test_blockwise_restriction(self, FIG1):
        sub = restrict(FIG1, {"t", "v"})
        assert sub.states == {"t", "v"}
        assert blocks(sub.relations["1"]) == [["t", "v"]]
        assert blocks(sub.relations["2"]) == [["t", "v"]]
        assert sub.valuation["p"] == {"t", "v"}

    def test_full_restriction_is_identity(self, FIG1):
        assert restrict(FIG1, FIG1.states) == FIG1

    def test_single_state(self, FIG1):
        sub = restrict(FIG1, {"s"})
        assert blocks(sub.relations["1"]) == [["s"]]
        assert sub.valuation["p"] == frozenset()

    def test_empty_keep_rejected(self, FIG1):
        with pytest.raises(ValueError, match="empty"):
            restrict(FIG1, set())


class TestJson:
    def test_round_trip(self, FIG1, tmp_path):
        path = tmp_path / "m.json"
        save_model(FIG1, path)
        assert load_model(path) == FIG1

    def test_round_trip_premodel(self, FIG1, tmp_path):
        pre = as_premodel(FIG1)
        path = tmp_path / "pre.json"
        save_model(pre, path)
        again = load_model(path)
        assert isinstance(again, PreModel)
        assert again == pre

    def test_singleton_blocks_may_be_omitted(self):
        data = {
            "agents": ["1", "2"],
            "props": ["p"],
            "states": ["s", "t", "u", "v", "w"],
            "relations": {"1": [["s", "t", "v", "w"]], "2": [["t", "u", "v"]]},
            "valuation": {"p": ["t", "v", "w"]},
        }
        m = model_from_dict(data)
        assert m.relations["1"].block_of("u") == frozenset(["u"])
        assert m.relations["2"].block_of("s") == frozenset(["s"])

    def test_group_relations_marker_makes_premodel(self, FIG1):
        data = model_to_dict(as_premodel(FIG1))
        assert isinstance(model_from_dict(data), PreModel)

    def test_missing_group_rejected(self, FIG1):
        data = model_to_dict(as_premodel(FIG1))
        del data["group_relations"]["1,2"]
        with pytest.raises(ValueError, match="group 1,2: missing relation"):
            model_from_dict(data)

    def test_undeclared_valuation_atom_rejected(self):
        data = {
            "agents": ["1"], "props": [], "states": ["s"],
            "relations": {"1": []}, "valuation": {"q": ["s"]},
        }
        with pytest.raises(ValueError, match="undeclared atom 'q'"):
            model_from_dict(data)

    def test_group_relation_for_undeclared_agent_rejected(self):
        # once loaded, resolve_pre on {1,2} would look up {1,2,9} and fail with a KeyError
        data = {
            "agents": ["1", "2"], "props": ["p"], "states": ["s", "t"],
            "relations": {"1": [["s", "t"]], "2": [["s"], ["t"]]}, "valuation": {"p": ["s"]},
            "group_relations": {"1": [["s", "t"]], "2": [["s"], ["t"]], "1,2": [["s"], ["t"]],
                                "1,9": [["s"], ["t"]]},
        }
        with pytest.raises(ValueError, match="group relation for undeclared agent '9' in '1,9'"):
            model_from_dict(data)
        with pytest.raises(ValueError, match="undeclared agent '9' in '1,9'"):
            PreModel.make(data["states"], data["relations"], data["group_relations"], agents=data["agents"])

    def test_group_spelled_twice_rejected(self):
        # the later spelling used to replace the earlier one without a word
        data = {
            "agents": ["1", "2"], "props": ["p"], "states": ["s", "t"],
            "relations": {"1": [["s", "t"]], "2": [["s"], ["t"]]}, "valuation": {"p": ["s"]},
            "group_relations": {"1": [["s", "t"]], "2": [["s"], ["t"]], "1,2": [["s"], ["t"]],
                                "2,1": [["s", "t"]]},
        }
        with pytest.raises(ValueError, match="group 1,2 has two relations, '1,2' and '2,1'"):
            model_from_dict(data)

    def test_valuation_outside_states_rejected(self):
        data = {"agents": ["1"], "props": ["p"], "states": ["s"], "relations": {"1": []},
                "valuation": {"p": ["z", "s", "y"]}}
        with pytest.raises(ValueError, match="atom p: valuation contains unknown states y,z"):
            model_from_dict(data)
        with pytest.raises(ValueError, match="atom p: valuation contains unknown states z"):
            PreModel.make(["s"], {"1": []}, {"1": []}, {"p": ["z"]})

    def test_relation_for_undeclared_agent_rejected(self):
        data = {"agents": ["1"], "props": [], "states": ["s"], "relations": {"1": [], "9": [["s"]]}}
        with pytest.raises(ValueError, match="relation for undeclared agent '9'"):
            model_from_dict(data)

    def test_numbers_and_strings_are_the_same_ids(self):
        data = {
            "agents": [1, "2"], "props": ["p"], "states": [1, "2", 3.5],
            "relations": {"1": [[1, 2]], "2": [["1"], [3.5, "2"]]},
            "valuation": {"p": [1, "3.5"]},
        }
        m = model_from_dict(data)
        assert m.states == {"1", "2", "3.5"} and m.agents == {"1", "2"}
        assert blocks(m.relations["1"]) == [["1", "2"], ["3.5"]]
        assert blocks(m.relations["2"]) == [["1"], ["2", "3.5"]]
        assert m.valuation["p"] == {"1", "3.5"}

    @pytest.mark.parametrize("field, value, message", [
        ("states", ["s", ["t"]], "states: ['t'] is not an id"),
        ("states", ["s", {"t": 1}], "states: {'t': 1} is not an id"),
        ("agents", [["1"]], "agents: ['1'] is not an id"),
        ("agents", [{"1": 1}], "agents: {'1': 1} is not an id"),
        ("props", [["p"]], "props: ['p'] is not an id"),
        ("valuation", {"p": [["s"]]}, "valuation of p: ['s'] is not an id"),
        ("relations", {"1": [["s", ["t"]]]}, "agent 1: block ['s', ['t']] is not a collection"),
        ("relations", {"1": [["s", {"t": 1}]]}, "agent 1: block ['s', {'t': 1}] is not a collection"),
        ("states", ["s", True], "states: True is not an id"),
        ("states", ["s", None], "states: None is not an id"),
    ])
    def test_array_and_object_ids_rejected(self, field, value, message):
        data = {"agents": ["1"], "props": ["p"], "states": ["s", "t"],
                "relations": {"1": []}, "valuation": {}}
        data[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_dict(data)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="missing the 'states' field"):
            model_from_dict({"agents": ["1"], "relations": {}})

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_model(path)

    def test_bundled_files_match_fixtures(self, FIG1, CORE):
        from epiresolve.fixtures import fixture_path

        assert load_model(fixture_path("fig1.json")) == FIG1
        assert load_model(fixture_path("core.json")) == CORE
