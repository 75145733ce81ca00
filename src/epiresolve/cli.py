"""Command-line surface: check, resolve, reduce, delta, closure, bisim, search, axioms.

Exit codes: 0 for true / success / witness found, 1 for false / none /
violations reported, 2 for usage or input errors, 70 for a fault in the
program (its traceback goes to stderr), 141 for a closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import lru_cache

from .bisim import bisimilar_pre, trans_bisimilar, witness_to_pairs
from .checker import satisfies
from .kripke import load_model, model_to_dict, resolve, save_model
from .search import (
    DEFAULT_RRC_BOUNDS,
    DEFAULT_SCHEMA_BOUNDS,
    SearchBounds,
    check_rule_rrc,
    check_schema,
    find_countermodel,
    find_model,
)
from .syntax import as_group, closure, delta, group_key, parse, reduce, render


def _split_csv(text):
    """The ids of a comma-joined option; None only when it is absent, so "", " " and "," declare none."""
    return None if text is None else tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_sequence(text):
    """Semicolon-separated groups, each a comma-joined agent list."""
    return [as_group(chunk) for chunk in text.split(";") if chunk.strip()]


def cmd_check(args) -> int:
    m = load_model(args.model)
    f = parse(args.formula, agents=m.agents)
    result = satisfies(m, args.state, f)  # which refuses an unknown state
    if args.json:
        print(json.dumps({"state": args.state, "formula": render(f), "result": result}))
    else:
        print("true" if result else "false")
    return 0 if result else 1


def cmd_resolve(args) -> int:
    m = load_model(args.model)
    out = resolve(m, args.group)
    if args.out:
        save_model(out, args.out)
    else:
        print(json.dumps(model_to_dict(out), indent=2))
    return 0


def cmd_reduce(args) -> int:
    universe = _split_csv(args.agents)
    f = parse(args.formula, agents=universe)
    reduced = reduce(f)
    if args.json:
        print(json.dumps({"input": render(f), "reduced": render(reduced)}))
    else:
        print(render(reduced))
    return 0


def cmd_delta(args) -> int:
    target, sequence = as_group(args.target), _parse_sequence(args.sequence)
    result = group_key(delta(target, sequence))
    out = {"target": group_key(target), "sequence": [group_key(g) for g in sequence], "result": result}
    print(json.dumps(out) if args.json else result)
    return 0


def cmd_closure(args) -> int:
    universe = _split_csv(args.agents)
    f = parse(args.formula, agents=universe)
    members = sorted(render(g) for g in closure(f))
    if args.json:
        print(json.dumps({"formula": render(f), "members": members}))
    else:
        for member in members:
            print(member)
    return 0


def cmd_bisim(args) -> int:
    left = load_model(args.left)
    right = load_model(args.right)
    if args.trans:
        witness = trans_bisimilar(left, args.left_state, right, args.right_state)
    else:
        witness = bisimilar_pre(left, args.left_state, right, args.right_state)
    pairs = witness_to_pairs(witness)
    if args.json:
        print(json.dumps({"witness": pairs}))
    else:
        print("none" if pairs is None else json.dumps(pairs))
    return 0 if pairs is not None else 1


def cmd_search(args) -> int:
    agents = _split_csv(args.agents)
    bounds = SearchBounds(max_states=args.max_states, agents=agents, atoms=_split_csv(args.atoms))
    f = parse(args.formula, agents=agents or None)  # no declared agent: models over agent 1, which K1 names
    outcome = find_countermodel(f, bounds) if args.countermodel else find_model(f, bounds)
    examined = f"{outcome.models_examined} models examined, {outcome.classes_examined} evaluated"
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2))
    elif outcome.found:
        kind = "countermodel" if args.countermodel else "witness"
        print(f"{kind} at state {outcome.witness.state} ({examined})")
        print(json.dumps(model_to_dict(outcome.witness.model), indent=2))
    else:
        print(f"exhausted up to {outcome.max_states} states ({examined})")
    return 0 if outcome.found else 1


def cmd_axioms(args) -> int:
    bounds = SearchBounds(
        max_states=args.max_states if args.max_states is not None else DEFAULT_SCHEMA_BOUNDS.max_states,
        agents=_split_csv(args.agents),
        atoms=_split_csv(args.atoms),
        seed=args.seed,
        instance_count=args.instances,
    )
    report = check_schema(args.system, bounds)
    ok = report.ok
    payload = report.to_dict()
    text = report.text()
    if args.rrc:
        rrc_bounds = SearchBounds(
            max_states=args.max_states if args.max_states is not None else DEFAULT_RRC_BOUNDS.max_states,
            agents=bounds.agents, atoms=bounds.atoms, seed=args.seed,
            instance_count=args.instances,
        )
        rrc = check_rule_rrc(rrc_bounds)
        ok = ok and rrc.ok
        payload["rrc"] = rrc.to_dict()
        text += "\n" + rrc.text()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiresolve",
        description="Epistemic logic workbench with resolution operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a state of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("resolve", help="apply the group-resolved update to a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--group", required=True, help="comma-joined agent ids, e.g. 1,2")
    p.add_argument("--out", help="write the resulting model here instead of stdout")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("reduce", help="rewrite a formula to reduction normal form")
    p.add_argument("--formula", required=True)
    p.add_argument("--agents", help="declared agent universe, comma-joined")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("delta", help="group index of an iterated resolution")
    p.add_argument("--target", required=True, help="agent id or comma-joined group")
    p.add_argument("--sequence", required=True,
                   help="semicolon-separated groups, e.g. \"1,2;1,3\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("closure", help="closure set of an announcement-free formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--agents")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("bisim", help="bisimulation witness between two pointed structures")
    p.add_argument("--left", required=True)
    p.add_argument("--left-state", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--right-state", required=True)
    p.add_argument("--trans", action="store_true",
                   help="check a trans-bisimulation from a genuine model to a pre-model")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("search", help="bounded satisfiability or countermodel search")
    p.add_argument("--formula", required=True)
    p.add_argument("--countermodel", action="store_true")
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--agents")
    p.add_argument("--atoms")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("axioms", help="soundness sweep of the RD or RCD schemata")
    p.add_argument("--system", required=True, choices=["rd", "rcd"])
    p.add_argument("--max-states", type=int, default=None)
    p.add_argument("--agents")
    p.add_argument("--atoms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--rrc", action="store_true",
                   help="also run the induction-rule check for resolved common knowledge")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_axioms)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """Built once per process: each parse_args call fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader has gone: exit as SIGPIPE would (128 + 13), flushing to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault in the program must never read as an answer: EX_SOFTWARE
        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())
