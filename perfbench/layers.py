"""Per-layer figures for the traced run.

After the traced pass, the workload's inputs are replayed through each
layer's public functions one call at a time, so every layer gets a cost
measured from outside, also where the jobs reach it only through another
layer (formula evaluation inside a sweep, relation algebra inside a CLI
call).  A workload that holds no input of some kind (bisim has no
formulas, only query has model files and CLI calls) replays that layer on
inputs derived from its own models, or on seeded control formulas; the
job-side counts there stay 0, and the timing is a control that should
not move.  Replay sizes are capped by count and by a cost proxy, never by
the clock, so every run replays the same calls.
"""

from __future__ import annotations

import os
from statistics import median, quantiles
from time import perf_counter

from reference import groups_of
from workloads import check_direct, run_cli

MAX_FORMULAS = 300
MAX_CLOSURES = 100
MAX_FILES = 20
MAX_MODELS, MODEL_STATE_BUDGET = 200, 20000
MAX_PREMODELS = 100
MAX_PAIRS, PAIR_COST_BUDGET = 600, 1_500_000   # cost proxy: states x subformulas
MAX_BISIM, BISIM_COST_BUDGET = 60, 8000        # cost proxy: states x states
MAX_CLI = 40


def p50(values):
    return median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return p50(values)
    return quantiles(values, n=10, method="inclusive")[8]


def capped(items, limit, cost=None, budget=None):
    out, spent = [], 0
    for item in items:
        if len(out) >= limit:
            break
        if cost is not None:
            c = cost(item)
            if out and spent + c > budget:
                continue
            spent += c
        out.append(item)
    return out


def timed_drain(tracer, name, iterator) -> int:
    rec = tracer.begin(name)
    count = sum(1 for _ in iterator)
    tracer.end(rec)
    return count


def replay(plain, traced, tracer, inputs, rng, workdir) -> dict:
    """Run every layer's public functions on the workload's inputs; returns raw counts."""
    models = inputs.get("models", [])
    agents = tuple(inputs.get("agents") or sorted(models[0].agents))
    formulas = list(inputs.get("formulas", []))
    if not formulas:
        gen = plain.FormulaGen(sorted(models[0].agents), sorted(models[0].valuation), seed=rng.randrange(1 << 30),
                               depth=2, allow_ann=True)
        formulas = [gen.formula() for _ in range(60)]
    raw = {}

    # syntax
    distinct = list(dict.fromkeys(formulas))
    rng.shuffle(distinct)
    chosen = distinct[:MAX_FORMULAS]
    texts = [traced.render(f) for f in chosen]
    for text in texts:
        traced.parse(text, agents)
    for f in chosen:
        traced.reduce(f)
    plain_closure = [f for f in chosen
                     if not any(type(g).__name__ == "Ann" for g in plain.subformulas(f))][:MAX_CLOSURES]
    for f in plain_closure:
        traced.closure(f)
    raw["syntax.parse.calls"] = raw["syntax.render.calls"] = raw["syntax.reduce.calls"] = len(chosen)
    raw["syntax.closure.calls"] = len(plain_closure)
    raw["syntax.nodes"] = len(frozenset().union(*(plain.subformulas(f) for f in formulas)))

    # kripke
    files = list(inputs.get("files", []))
    if not files:
        for k, m in enumerate(models[:MAX_FILES]):
            path = os.path.join(workdir, f"replay{k}.json")
            traced.save_model(m, path)
            files.append(path)
    for path in files[:MAX_FILES]:
        traced.load_model(path)
    chosen_models = capped(models, MAX_MODELS, lambda m: len(m.states), MODEL_STATE_BUDGET)
    for m in chosen_models:
        traced.validate(m)
        names = sorted(m.states)
        traced.restrict(m, rng.sample(names, max(1, len(names) // 2)))
        for g in groups_of(m.agents):
            if len(g) > 1:
                traced.group_relation(m, g)
                traced.common_relation(m, g)
                traced.resolve(m, g)
    premodels = inputs.get("premodels") or [plain.as_premodel(m) for m in chosen_models[:MAX_PREMODELS]]
    for pre in capped(premodels, MAX_PREMODELS, lambda m: len(m.states), MODEL_STATE_BUDGET):
        traced.validate(pre)
        for g in groups_of(pre.agents):
            traced.resolve_pre(pre, g)

    # checker: one fresh evaluation per (model, formula)
    pairs = [(m, f, len(plain.subformulas(f))) for m in chosen_models for f in chosen
             if plain.agents(f) <= m.agents]
    rng.shuffle(pairs)
    pairs = capped(pairs, MAX_PAIRS, lambda x: len(x[0].states) * x[2], PAIR_COST_BUDGET)
    for m, f, _ in pairs:
        traced.extension(m, f)
    raw["checker.extension.calls"] = len(pairs)
    raw["checker.extension.nodes"] = sum(n for _, _, n in pairs)

    # search: enumeration drained on its own
    model_agents = tuple(sorted(models[0].agents))
    enum_bounds = inputs.get("enum_bounds") or [plain.SearchBounds(3, model_agents, ())]
    raw["search.enumerate.models"] = sum(
        timed_drain(tracer, "search.enumerate_models", plain.enumerate_models(b)) for b in enum_bounds)
    pseudo_bounds = inputs.get("pseudo_bounds") or [(3, ("1", "2"), ())]
    raw["search.enumerate_pseudo.models"] = sum(
        timed_drain(tracer, "search.enumerate_pseudo_models", plain.enumerate_pseudo_models(*b))
        for b in pseudo_bounds)

    # bisim: the workload's pairs, then duplicated states of its small structures
    structures = list(inputs.get("premodels", [])) + [m for m in models if len(m.states) <= 50]
    rng.shuffle(structures)
    dup_pairs = []
    for m in structures[:MAX_BISIM]:
        x = sorted(m.states)[rng.randrange(len(m.states))]
        dup_pairs.append((m, x, traced.duplicate_state(m, x), x + "'"))
    bisim_pairs = capped(list(inputs.get("bisim_pairs", [])) + dup_pairs, MAX_BISIM,
                         lambda q: len(q[0].states) * len(q[2].states), BISIM_COST_BUDGET)
    for left, s, right, t in bisim_pairs:
        z = traced.bisimilar_pre(left, s, right, t)
        traced.is_pre_bisimulation(left, right, z or ())
    genuine = [m for m in structures if not hasattr(m, "group_relations")]
    genuine += [q[0] for q in inputs.get("bisim_pairs", []) if q[0] not in genuine]
    for m in capped(genuine, MAX_BISIM, lambda m: len(m.states) ** 2, BISIM_COST_BUDGET):
        s = sorted(m.states)[0]
        traced.trans_bisimilar(m, s, plain.as_premodel(m), s)

    # cli: each call through main, then the same work without the CLI
    calls = inputs.get("cli_calls")
    if not calls:
        calls = []
        for path, m in zip(files, models):
            for f in chosen[:3]:
                if plain.agents(f) <= m.agents:
                    state, text = sorted(m.states)[0], plain.render(f)
                    calls.append((["check", "--model", path, "--state", state, "--formula", text],
                                  lambda a, path=path, state=state, text=text: check_direct(a, path, state, text)))
    overheads = []
    for argv, direct in calls[:MAX_CLI]:
        t0 = perf_counter()
        run_cli(traced, argv)
        t1 = perf_counter()
        rec = tracer.begin("replay.direct")
        direct(traced)
        tracer.end(rec)
        overheads.append((t1 - t0) - (perf_counter() - t1))
    raw["cli.overheads"] = overheads
    return raw


def per_layer_metrics(pass_tracer, replay_tracer, raw, counts, overhead_s) -> dict:
    """Every per-layer metric, from the traced pass, its job counts and the replay."""
    def us(name, stat=p50):
        return stat(replay_tracer.durations(name)) * 1e6

    def ms(name, stat=p50):
        return stat(replay_tracer.durations(name)) * 1e3

    busy = pass_tracer.busy_by_layer()
    for layer, seconds in replay_tracer.busy_by_layer().items():
        busy[layer] = busy.get(layer, 0.0) + seconds
    extension_s = sum(replay_tracer.durations("checker.extension"))
    enum_s = sum(replay_tracer.durations("search.enumerate_models"))
    pseudo_s = sum(replay_tracer.durations("search.enumerate_pseudo_models"))
    planned = counts.get("planned", 0)
    out = {
        "syntax.parse.calls": raw["syntax.parse.calls"],
        "syntax.parse.us_p50": us("syntax.parse"),
        "syntax.render.calls": raw["syntax.render.calls"],
        "syntax.render.us_p50": us("syntax.render"),
        "syntax.reduce.calls": raw["syntax.reduce.calls"],
        "syntax.reduce.us_p50": us("syntax.reduce"),
        "syntax.closure.calls": raw["syntax.closure.calls"],
        "syntax.closure.us_p50": us("syntax.closure"),
        "syntax.nodes": raw["syntax.nodes"],
        "syntax.busy_s": busy.get("syntax", 0.0),
        "kripke.load_model.ms_p50": ms("kripke.load_model"),
        "kripke.group_relation.us_p50": us("kripke.group_relation"),
        "kripke.common_relation.us_p50": us("kripke.common_relation"),
        "kripke.resolve.us_p50": us("kripke.resolve"),
        "kripke.resolve_pre.us_p50": us("kripke.resolve_pre"),
        "kripke.restrict.us_p50": us("kripke.restrict"),
        "kripke.validate.us_p50": us("kripke.validate"),
        "kripke.busy_s": busy.get("kripke", 0.0),
        "checker.extension.calls": raw["checker.extension.calls"],
        "checker.extension.us_per_pair": extension_s * 1e6 / max(1, raw["checker.extension.calls"]),
        "checker.extension.us_per_node": extension_s * 1e6 / max(1, raw["checker.extension.nodes"]),
        "checker.busy_s": busy.get("checker", 0.0),
        "search.models_examined": counts.get("models_examined", 0),
        "search.examined_ratio": counts.get("models_examined", 0) / planned if planned else 0.0,
        "search.enumerate.models_per_s": raw["search.enumerate.models"] / enum_s,
        "search.enumerate_pseudo.models_per_s": raw["search.enumerate_pseudo.models"] / pseudo_s,
        "search.rrc.premise_hits": counts.get("premise_hits", 0),
        "search.busy_s": busy.get("search", 0.0),
        "bisim.bisimilar_pre.ms_p50": ms("bisim.bisimilar_pre"),
        "bisim.bisimilar_pre.ms_p90": ms("bisim.bisimilar_pre", p90),
        "bisim.trans_bisimilar.ms_p50": ms("bisim.trans_bisimilar"),
        "bisim.trans_bisimilar.ms_p90": ms("bisim.trans_bisimilar", p90),
        "bisim.validate.us_p50": us("bisim.is_pre_bisimulation"),
        "bisim.duplicate_state.us_p50": us("bisim.duplicate_state"),
        "bisim.witness_pairs": counts.get("witness_pairs", 0),
        "bisim.busy_s": busy.get("bisim", 0.0),
        "cli.main.ms_p50": ms("cli.main"),
        "cli.overhead_ms_p50": p50(raw["cli.overheads"]) * 1e3,
        "cli.busy_s": busy.get("cli", 0.0),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(pass_tracer.spans),
    }
    return out
