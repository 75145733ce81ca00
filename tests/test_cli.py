import json
import os
import sys

import pytest

from epiresolve.cli import main
from epiresolve.fixtures import fixture_path
from epiresolve.kripke import as_premodel, model_from_dict, save_model
from epiresolve.syntax import parse, render

from conftest import model_list

FIG1_JSON = fixture_path("fig1.json")
CORE_JSON = fixture_path("core.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_true_formula(self, capsys):
        code, out, _ = run(capsys, "check", "--model", FIG1_JSON, "--state", "t",
                           "--formula", "R{1,2}(p & K1 p)")
        assert (code, out.strip()) == (0, "true")

    def test_false_formula(self, capsys):
        code, out, _ = run(capsys, "check", "--model", FIG1_JSON, "--state", "t",
                           "--formula", "K1 p")
        assert (code, out.strip()) == (1, "false")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", "--model", FIG1_JSON, "--state", "t",
                           "--formula", "D{1,2}(p & ~K1 p)", "--json")
        payload = json.loads(out)
        assert payload["result"] is True
        # the reported formula round-trips through the grammar
        assert render(parse(payload["formula"], {"1", "2"})) == payload["formula"]

    def test_premodel_file_uses_pseudo_satisfaction(self, capsys, tmp_path, FIG1):
        path = tmp_path / "pre.json"
        save_model(as_premodel(FIG1), path)
        code, out, _ = run(capsys, "check", "--model", str(path), "--state", "t",
                           "--formula", "D{1,2}(p & ~K1 p)")
        assert (code, out.strip()) == (0, "true")

    def test_unknown_state_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--model", FIG1_JSON, "--state", "zz",
                           "--formula", "p")
        assert code == 2 and "unknown state" in err

    def test_bad_formula_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--model", FIG1_JSON, "--state", "t",
                           "--formula", "R{}(p)")
        assert code == 2 and "empty group" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--model", "no-such.json", "--state", "t",
                           "--formula", "p")
        assert code == 2

    @pytest.mark.parametrize("data, message", [
        ([], "model file must be a JSON object"),
        ({"agents": 5, "states": ["t"], "relations": {}}, "agents must be a JSON array"),
        ({"agents": ["1"], "states": "t", "relations": {"1": []}}, "states must be a JSON array"),
        ({"agents": ["1"], "states": ["s", "t"], "relations": {"1": ["st"]}},
         "agent 1: block must be a JSON array"),
        ({"agents": ["1"], "states": ["s", "t"], "relations": {"1": "st"}},
         "agent 1 must be a JSON array"),
        ({"agents": ["1"], "states": ["s", "t"], "relations": {"1": [[["s", "t"]]]}},
         "is not a collection of states"),
        ({"agents": ["1"], "states": ["t"], "relations": []}, "relations must be a JSON object"),
        ({"agents": ["1"], "states": ["t"], "relations": {"1": []}, "valuation": {"p": "t"}},
         "valuation of p must be a JSON array"),
        ({"agents": ["1"], "states": ["t"], "relations": {"1": []}, "group_relations": []},
         "group_relations must be a JSON object"),
        ({"agents": ["1"], "states": ["s", "t", "u"], "relations": {"1": [["s", "t"], ["t", "u"]]}},
         "blocks overlap on t"),
        ({"agents": ["1"], "states": [["t"]], "relations": {"1": []}},
         "states: ['t'] is not an id"),
    ])
    def test_malformed_model_file_is_usage_error(self, capsys, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, "check", "--model", str(path), "--state", "t",
                           "--formula", "p")
        assert code == 2
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_numeric_ids_read_as_text(self, capsys, tmp_path):
        path = tmp_path / "numeric.json"
        path.write_text(json.dumps({"agents": [1], "states": [1, 2],
                                    "relations": {"1": [[1, 2]]}, "valuation": {"p": [1, 2]}}),
                        encoding="utf-8")
        code, out, err = run(capsys, "check", "--model", str(path), "--state", "1",
                             "--formula", "K1 p")
        assert (code, out.strip(), err) == (0, "true", "")

    @pytest.mark.parametrize("depth", [3000, 600, 900])
    def test_deep_nesting_is_usage_error(self, capsys, depth):
        # 3000 levels exhaust the parser; 600 and 900 parse, and evaluate because
        # interned nodes hash and compare without recursing
        code, out, err = run(capsys, "check", "--model", FIG1_JSON, "--state", "t",
                             "--formula", "~" * depth + "p")
        if depth == 3000:
            assert (code, out, err) == (2, "", "error: formula nested too deeply\n")
        else:
            assert (code, out, err) == (0, "true\n", "")

    @pytest.mark.parametrize("command", [["reduce"], ["closure"], ["search", "--max-states", "1"]])
    def test_deep_nesting_in_other_commands(self, capsys, command):
        code, out, err = run(capsys, *command, "--formula", "~" * 3000 + "p")
        assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


class TestResolve:
    def test_writes_the_communication_core(self, capsys, tmp_path):
        out_path = tmp_path / "core.json"
        code, _, _ = run(capsys, "resolve", "--model", FIG1_JSON, "--group", "1,2",
                         "--out", str(out_path))
        assert code == 0
        with open(out_path, encoding="utf-8") as fh:
            written = json.load(fh)
        with open(CORE_JSON, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert written == golden

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "resolve", "--model", FIG1_JSON, "--group", "1,2")
        assert code == 0
        assert model_from_dict(json.loads(out)) == model_from_dict(json.load(open(CORE_JSON)))

    def test_unknown_agent(self, capsys):
        code, _, err = run(capsys, "resolve", "--model", FIG1_JSON, "--group", "1,9")
        assert code == 2 and "undeclared agent" in err


class TestReduce:
    def test_moore_example(self, capsys):
        code, out, _ = run(capsys, "reduce", "--formula", "R{1,2}(p & ~K1 p)",
                           "--agents", "1,2")
        assert (code, out.strip()) == (0, "p & ~D{1,2} p")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "reduce", "--formula", "R{1,2} K1 p",
                           "--agents", "1,2", "--json")
        payload = json.loads(out)
        assert payload == {"input": "R{1,2} K1 p", "reduced": "D{1,2} p"}


def test_delta_command(capsys):
    code = main(["delta", "--target", "2", "--sequence", "1,2;1,3"])
    out = capsys.readouterr().out
    assert (code, out.strip()) == (0, "1,2")


def test_delta_empty_sequence(capsys):
    code = main(["delta", "--target", "1,3", "--sequence", ""])
    out = capsys.readouterr().out
    assert (code, out.strip()) == (0, "1,3")


def test_closure_command(capsys):
    code = main(["closure", "--formula", "K1 p", "--agents", "1,2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sorted(payload["members"]) == ["D{1} p", "K1 p", "p", "~D{1} p", "~K1 p", "~p"]


class TestBisim:
    def test_self_bisimulation(self, capsys):
        code, out, _ = run(capsys, "bisim", "--left", FIG1_JSON, "--left-state", "s",
                           "--right", FIG1_JSON, "--right-state", "s", "--json")
        payload = json.loads(out)
        assert code == 0 and ["s", "s"] in payload["witness"]

    def test_atom_mismatch_gives_none(self, capsys):
        code, out, _ = run(capsys, "bisim", "--left", FIG1_JSON, "--left-state", "t",
                           "--right", FIG1_JSON, "--right-state", "u")
        assert (code, out.strip()) == (1, "none")

    def test_trans_mode(self, capsys, tmp_path, FIG1):
        pre_path = tmp_path / "pre.json"
        save_model(as_premodel(FIG1), pre_path)
        code, out, _ = run(capsys, "bisim", "--left", FIG1_JSON, "--left-state", "t",
                           "--right", str(pre_path), "--right-state", "t")
        assert code == 0
        code, _, _ = run(capsys, "bisim", "--trans", "--left", FIG1_JSON,
                         "--left-state", "t", "--right", str(pre_path),
                         "--right-state", "t")
        assert code == 0

    def test_trans_requires_genuine_model_on_the_left(self, capsys, tmp_path, FIG1):
        pre_path = tmp_path / "pre.json"
        save_model(as_premodel(FIG1), pre_path)
        code, _, err = run(capsys, "bisim", "--trans", "--left", str(pre_path),
                           "--left-state", "t", "--right", str(pre_path),
                           "--right-state", "t")
        assert code == 2 and "genuine model" in err

    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("flag", ["--left-state", "--right-state"])
    def test_unknown_state_is_usage_error(self, capsys, flag, trans):
        states = {"--left-state": "s", "--right-state": "s", flag: "zzz"}
        code, out, err = run(capsys, "bisim", *(["--trans"] if trans else []),
                             "--left", FIG1_JSON, "--left-state", states["--left-state"],
                             "--right", FIG1_JSON, "--right-state", states["--right-state"])
        assert (code, out) == (2, "")
        assert "unknown state 'zzz'" in err


def test_consecutive_calls_share_no_values(capsys, tmp_path, FIG1):
    # one parser serves every call; no flag or subcommand value may carry over
    pre_path = str(tmp_path / "pre.json")
    save_model(as_premodel(FIG1), pre_path)
    check = ["check", "--model", FIG1_JSON, "--state", "t", "--formula", "p"]
    code, out, _ = run(capsys, *check, "--json")
    assert code == 0 and json.loads(out)["result"] is True
    assert run(capsys, *check) == (0, "true\n", "")
    code, out, _ = run(capsys, "reduce", "--formula", "K1 p", "--json")
    assert code == 0 and json.loads(out)["reduced"] == "K1 p"
    assert run(capsys, "reduce", "--formula", "K1 p") == (0, "K1 p\n", "")
    bisim = ["bisim", "--left", pre_path, "--left-state", "t", "--right", pre_path,
             "--right-state", "t"]
    code, _, err = run(capsys, *bisim, "--trans")
    assert code == 2 and "genuine model" in err
    code, out, _ = run(capsys, *bisim)
    assert code == 0 and ["t", "t"] in json.loads(out)
    assert run(capsys, "delta", "--target", "1", "--sequence", "1,2") == (0, "1,2\n", "")


class TestSearch:
    def test_witness_json_revalidates(self, capsys):
        code, out, _ = run(capsys, "search", "--formula", "D{1,2}(p & ~K1 p)",
                           "--max-states", "2", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "witness"
        from epiresolve.checker import satisfies

        model = model_from_dict(payload["model"])
        assert satisfies(model, payload["state"], parse("D{1,2}(p & ~K1 p)", {"1", "2"}))

    def test_exhausted_exit_code(self, capsys):
        code, out, _ = run(capsys, "search", "--formula", "p & ~p", "--max-states", "2")
        assert code == 1 and "exhausted" in out

    @pytest.mark.parametrize("flags", [[], ["--countermodel"]])
    def test_atom_outside_bounds_is_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "search", "--formula", "q", "--atoms", "p", *flags)
        assert (code, out) == (2, "")
        assert "atom 'q' outside the search bounds" in err

    @pytest.mark.parametrize("formula,code", [("p", 0), ("p & ~p", 1)])
    def test_no_declared_agents_search_agent_1(self, capsys, formula, code):
        from test_search import labelled_first_point

        got, out, _ = run(capsys, "search", "--formula", formula, "--agents", ",", "--atoms", "p",
                          "--max-states", "2", "--json")
        payload = json.loads(out)
        first = labelled_first_point(parse(formula), model_list(2, ("1",), ("p",)), falsify=False)
        assert got == code
        if first is None:
            assert payload["verdict"] == "exhausted" and payload["models_examined"] == 10
        else:
            assert (model_from_dict(payload["model"]), payload["state"]) == first[1:]

    def test_countermodel_flag(self, capsys):
        code, out, _ = run(capsys, "search", "--formula", "K1 p -> p",
                           "--countermodel", "--max-states", "3")
        assert code == 1 and "exhausted" in out

    def test_repeated_agents_and_atoms_count_once(self, capsys):
        query = ["search", "--formula", "K1 p -> p", "--countermodel", "--max-states", "3"]
        once = run(capsys, *query, "--agents", "1", "--atoms", "p")
        assert once == (1, "exhausted up to 3 states (50 models examined, 22 evaluated)\n", "")
        assert run(capsys, *query, "--agents", "1,1", "--atoms", "p,p") == once

    @pytest.mark.parametrize("agents", ["", " ", ","])
    def test_empty_agent_option_declares_no_agent(self, capsys, agents):
        # any given --agents text declares a list; an empty one searches agent 1 alone
        code, out, err = run(capsys, "search", "--formula", "K1 p -> p", "--countermodel",
                             "--max-states", "3", "--agents", agents)
        assert (code, out, err) == (1, "exhausted up to 3 states (50 models examined, 22 evaluated)\n", "")


def test_axioms_command_small(capsys):
    code = main(["axioms", "--system", "rd", "--max-states", "2", "--instances", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("system rd")


def test_axioms_json(capsys):
    code = main(["axioms", "--system", "rd", "--max-states", "1", "--instances", "10",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(entry["verdict"] == "ok" for entry in payload["schemata"])


def test_axioms_with_rrc(capsys):
    code = main(["axioms", "--system", "rcd", "--max-states", "2", "--instances", "20",
                 "--rrc", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["rrc"]["verdict"] == "ok"


@pytest.mark.parametrize("system", ["rd", "rcd"])
def test_axioms_with_one_agent_sweeps_rd2_with_no_instance(capsys, system):
    # RD2 needs two disjoint groups: with one agent it has no instance, and the rest is swept
    code, out, err = run(capsys, "axioms", "--system", system, "--agents", "1", "--max-states", "2")
    assert (code, err) == (0, "")
    assert out.startswith(f"system {system}: 10 models examined\n")
    assert "  schema RD2: ok (0 instances)\n" in out
    assert "  schema RD1: ok (" in out and "  schema RD1: ok (0 instances)" not in out


def test_axioms_without_atoms_sweeps_ra_with_no_instance(capsys):
    code, out, err = run(capsys, "axioms", "--system", "rd", "--atoms", ",", "--max-states", "2")
    assert (code, err) == (0, "")
    assert out.startswith("system rd: 5 models examined\n")
    assert "  schema RA: ok (0 instances)\n" in out


@pytest.mark.parametrize("flags, models", [([], 18), (["--agents", "1,2", "--atoms", "p"], 18),
                                           (["--agents", ","], 10), (["--agents", ",", "--atoms", ","], 3),
                                           (["--agents", ""], 10), (["--agents", " "], 10),
                                           (["--agents", "", "--atoms", ""], 3)])
def test_axioms_sweep_the_models_search_would(capsys, flags, models):
    # no declared agent means agent 1 alone, as in search; undeclared means agents 1, 2 and atom p;
    # any given option text declares a list, the empty text too
    code, out, _ = run(capsys, "axioms", "--system", "rcd", "--max-states", "2", "--instances", "5",
                       "--rrc", *flags)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"system rcd: {models} models examined"
    assert lines[-1].endswith(f" premise hits, {models} models)")


@pytest.mark.parametrize("buffering", [1, -1])
def test_closed_stdout_exits_141_silently(capsys, monkeypatch, buffering):
    # a pipe whose reader has gone: a line-buffered write raises BrokenPipeError,
    # a block-buffered one when main flushes
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=buffering) as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["axioms", "--system", "rd", "--max-states", "1", "--instances", "5"])
        assert (code, capsys.readouterr().err) == (141, "")
        closed.write("the exit flush goes to devnull\n")


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("rrc", [[], ["--rrc"]])
def test_axioms_without_instances_is_usage_error(capsys, count, rrc):
    code, out, err = run(capsys, "axioms", "--system", "rd", "--max-states", "1",
                         "--instances", count, *rrc)
    assert code == 2 and out == ""
    assert "instance_count must be at least 1" in err


CORPUS = [
    ("t", "R{1,2}(p & K1 p)"),
    ("t", "R{1,2}(p & ~K1 p)"),
    ("t", "R{1,2} C{1,2} p"),
    ("s", "R{1,2} ~K2 ~p"),
    ("v", "R{1,2} D{1,2} p"),
    ("w", "R{1} K1 p"),
    ("u", "R{1,2} (K1 ~p & ~p)"),
]


@pytest.mark.parametrize("state,formula", CORPUS)
def test_reduce_then_check_matches_direct_check(capsys, state, formula):
    for model_path in (FIG1_JSON, CORE_JSON):
        direct = main(["check", "--model", model_path, "--state", state,
                       "--formula", formula])
        capsys.readouterr()
        reduced = main(["reduce", "--formula", formula, "--agents", "1,2"])
        reduced_formula = capsys.readouterr().out.strip()
        assert reduced == 0
        indirect = main(["check", "--model", model_path, "--state", state,
                         "--formula", reduced_formula])
        capsys.readouterr()
        assert direct == indirect
