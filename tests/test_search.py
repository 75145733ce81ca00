import pytest

from epiresolve.checker import satisfies
from epiresolve.kripke import validate
from epiresolve.search import (
    FormulaGen,
    SearchBounds,
    check_rule_rrc,
    check_schema,
    enumerate_models,
    enumerate_pseudo_models,
    find_countermodel,
    find_model,
    schema_builders,
    set_partitions,
)
from epiresolve.syntax import C, D, E, Iff, Implies, R, parse, reduce

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


def test_single_state_models_are_reflexive_points():
    bounds = SearchBounds(max_states=1, agents=("1",), atoms=("p",))
    models = list(enumerate_models(bounds))
    assert len(models) == 2
    assert all(m.relations["1"].block_of("0") == frozenset(["0"]) for m in models)


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_states=0)


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


def test_formula_gen_is_seed_deterministic():
    a = FormulaGen(["1", "2"], ["p"], seed=42)
    b = FormulaGen(["1", "2"], ["p"], seed=42)
    assert [a.formula() for _ in range(30)] == [b.formula() for _ in range(30)]
