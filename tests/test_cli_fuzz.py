"""Fuzzing the command line: every input gets an exit code in {0, 1, 2}.

Formula text, model files and flags are drawn at small bounds, well formed
or not; some formulas sit under thousands of prefix operators.  A crash
exits 70 with its traceback, never with a code in that set, so it cannot
pass for a "false" (1) or an input error (2).
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiresolve.cli import main

AGENTS = ["1", "2", "3"]
STATES = ["a", "b", "c"]
# "9" is never declared, "r" never valued
agent = st.sampled_from(["1", "2", "9"])
group = st.lists(st.sampled_from(["1", "2", "3", "9"]), max_size=3).map(lambda g: "{" + ",".join(g) + "}")


def _extend(inner):
    return st.one_of(
        inner.map(lambda f: f"~{f}"),
        st.tuples(inner, st.sampled_from(["&", "|", "->", "<->"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(agent, inner).map(lambda t: f"K{t[0]} {t[1]}"),
        st.tuples(st.sampled_from(["D", "C", "E", "R"]), group, inner).map(lambda t: f"{t[0]}{t[1]} {t[2]}"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]}] {t[1]}"),
    )


shallow_text = st.one_of(
    st.recursive(st.sampled_from(["p", "q", "r", "true", "false"]), _extend, max_leaves=6),
    st.text(alphabet="pqK129DCER{},[]()~&|-<> ", max_size=14),
)
# one prefix operator repeated 1,000-3,000 times: no command may depend on Python's recursion limit
prefix = st.sampled_from(["~", "K1 ", "K9 ", "D{1,2} ", "C{1,2} ", "R{1,2} ", "R{1,9} ", "[p] ", "[K1 q] "])
formula_text = st.one_of(
    shallow_text,
    st.tuples(prefix, st.integers(1000, 3000), shallow_text).map(lambda t: t[0] * t[1] + t[2]),
)


@st.composite
def model_data(draw, agents):
    """A model file's contents: usually a sound model or pre-model, sometimes not."""
    states = ["a"] + draw(st.lists(st.sampled_from(STATES[1:]), max_size=2, unique=True))

    def partition():
        labels = draw(st.lists(st.integers(0, 2), min_size=len(states), max_size=len(states)))
        return [[s for s, k in zip(states, labels) if k == label] for label in sorted(set(labels))]

    data = {"agents": agents, "states": states,
            "relations": {a: partition() for a in agents},
            "valuation": {p: draw(st.lists(st.sampled_from(states), unique=True)) for p in ("p", "q")}}
    if draw(st.booleans()):
        subsets = [[a for k, a in enumerate(agents) if mask >> k & 1] for mask in range(1, 1 << len(agents))]
        data["group_relations"] = {",".join(g): partition() for g in subsets}
    damage = draw(st.sampled_from([None] * 12 + ["agents", "states", "relations", "valuation", "stray", "drop"]))
    if damage == "stray":
        data["relations"][agents[0]] = [["zz"]]
    elif damage == "drop":
        del data["relations"][agents[0]]
    elif damage is not None:
        data[damage] = draw(st.sampled_from(["1", 7, None, {"x": 1}, [[True]]]))
    return data


state = st.sampled_from(STATES + ["zz"])
small = st.sampled_from(["1", "2", "0", "-1"])
COMMANDS = ["check", "resolve", "reduce", "delta", "closure", "bisim", "search", "axioms"]


@st.composite
def argv(draw, command, files):
    left, right = files
    if command == "check":
        args = ["--model", left, "--state", draw(state), "--formula", draw(formula_text)]
    elif command == "resolve":
        args = ["--model", left, "--group", draw(st.sampled_from(["1", "2", "1,2", "1,3", "9", ""]))]
    elif command in ("reduce", "closure"):
        args = ["--formula", draw(formula_text)] + draw(st.sampled_from([[], ["--agents", "1,2"]]))
    elif command == "delta":
        args = ["--target", draw(group).strip("{}"),
                "--sequence", ";".join(g.strip("{}") for g in draw(st.lists(group, max_size=3)))]
    elif command == "bisim":
        args = ["--left", left, "--left-state", draw(state), "--right", right,
                "--right-state", draw(state)] + draw(st.sampled_from([[], ["--trans"]]))
    elif command == "search":
        args = ["--formula", draw(formula_text), "--max-states", draw(small)]
        args += draw(st.sampled_from([[], ["--countermodel"]])) + draw(st.sampled_from([[], ["--agents", "1,2"]]))
    else:
        args = ["--system", draw(st.sampled_from(["rd", "rcd"])), "--max-states", draw(small),
                "--instances", draw(small)] + draw(st.sampled_from([[], ["--rrc"]]))
    return [command] + args + draw(st.sampled_from([[], ["--json"]]))


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_input_gets_an_exit_code(command, data):
    agents = data.draw(st.lists(st.sampled_from(AGENTS), min_size=1, max_size=3, unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name in ("left.json", "right.json"):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data.draw(model_data(agents)), handle)
            files.append(path)
        args = data.draw(argv(command, files))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in (0, 1, 2), (args, code)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == bool(err.getvalue()), (args, err.getvalue())
