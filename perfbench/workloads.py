"""The four workloads: seeded inputs built through the public API, and one
pass of jobs, each with the answer it must give.

Why each workload exists, and which layer it loads and which it spares,
is recorded in BENCHMARK.json.  Every workload keeps its input sizes fixed
and lets the seed choose only contents of equal cost (names, fills of
fixed formula templates, block assignments, job order), so that runs with
different seeds measure the same amount of work.  `tiny` shrinks every
size for the self-check.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stdout
from itertools import combinations, islice

from reference import groups_of, planned_models, ref_extension, ref_holds, ref_meet_blocks


class Job:
    """One closed-loop call: `run(api)` gives a result, `check(result)` judges it."""

    __slots__ = ("kind", "run", "check", "counts")

    def __init__(self, kind, run, check, counts=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.counts = counts


class Workload:
    def __init__(self, name, jobs, replay, expect=None):
        self.name = name
        self.jobs = jobs
        self.replay = replay  # inputs the traced run replays through each layer
        self.expect = expect or (lambda: None)  # fills in expected answers, untimed


def run_cli(api, argv):
    """cli.main in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = api.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# sweep: soundness sweeps at the default model bounds, plus the c10 mutants

# The three deliberately broken schemata of acceptance criterion c10.
def corrupt_rd1(api, gen):
    g, h = gen.overlapping_pair()
    a = gen.formula()
    return api.Iff(api.R(g, api.D(h, a)), api.D(g & h, api.R(g, a)))


def drop_t_d(api, gen):
    a = gen.formula()
    return api.Implies(a, api.D(gen.group(), a))


def break_c1(api, gen):
    a, g = gen.formula(), gen.group()
    return api.Implies(api.E(g, a), api.E(g, api.C(g, a)))


def build_sweep(api, seed, tiny=False):
    rng = random.Random(seed)
    agents, atoms = ("1", "2"), ("p",)
    # Many small sweeps rather than one per system at the default instance
    # count: at least 100 jobs, and a pass short enough to repeat.  Their
    # instances come from the fixed instance seeds 0, 1, 2, ... (0 is the
    # CLI's): instance cost varies by ~10% between seeds, so the benchmark
    # seed only orders the jobs.
    rounds, per_schema = (1, 2) if tiny else (3, 3)
    rrc_jobs, rrc_instances = (2, 2) if tiny else (3, 3)
    schema_states = 2 if tiny else 3   # check_schema's default bound
    rrc_states = 3 if tiny else 4      # check_rule_rrc's default bound
    # c10's bound and instance seed, at any size; its first 10 instances
    # already catch every mutant
    mutant_states, mutant_instances = 4, 10

    def schema_job(system, bounds, schemas, include_rules):
        return Job(
            "schema" if schemas else "rules",
            lambda a: a.check_schema(system, bounds, schemas=schemas, include_rules=include_rules),
            lambda report: report.ok,
            lambda report: {"models_examined": report.models_examined,
                            "planned": planned_models(bounds.max_states, len(agents), len(atoms))},
        )

    jobs, replay_bounds = [], []
    for instance_seed in range(rounds):
        for system in ("rd", "rcd"):
            bounds = api.SearchBounds(schema_states, agents, atoms, seed=instance_seed,
                                      instance_count=per_schema)
            replay_bounds.append((system, bounds))
            for name in api.schema_builders(system):
                jobs.append(schema_job(system, bounds, [name], False))
            jobs.append(schema_job(system, bounds, [], True))

    for instance_seed in range(rrc_jobs):
        bounds = api.SearchBounds(rrc_states, agents, atoms, seed=instance_seed,
                                  instance_count=rrc_instances)
        jobs.append(Job(
            "rrc",
            lambda a, b=bounds: a.check_rule_rrc(b),
            lambda report: report.ok,
            lambda report, b=bounds: {"models_examined": report.models_examined,
                                      "planned": planned_models(b.max_states, len(agents), len(atoms)),
                                      "premise_hits": report.premise_hits},
        ))

    mutant_bounds = api.SearchBounds(mutant_states, agents, atoms, instance_count=mutant_instances)

    def mutant_caught(report):
        (result,) = report.schemata
        return bool(result.violations) and all(
            len(v.model.states) <= mutant_states and not ref_holds(v.model, v.state, v.instance)
            for v in result.violations)

    for system, name, broken in [("rd", "RD1", corrupt_rd1), ("rd", "T_D", drop_t_d),
                                 ("rcd", "C1", break_c1)]:
        jobs.append(Job(
            "mutant",
            lambda a, s=system, n=name, f=broken: a.check_schema(
                s, mutant_bounds, override={n: lambda gen: f(api, gen)}, schemas=[n],
                include_rules=False),
            mutant_caught,
            lambda report: {"models_examined": report.models_examined,
                            "planned": planned_models(mutant_states, len(agents), len(atoms))},
        ))
    rng.shuffle(jobs)

    # instances drawn the way a one-schema sweep draws them, for the
    # per-layer replay
    formulas = []
    for system, bounds in replay_bounds:
        for builder in api.schema_builders(system).values():
            gen = api.FormulaGen(agents, atoms, seed=bounds.seed, allow_c=system == "rcd")
            formulas.extend(builder(gen) for _ in range(per_schema))
    enum_bounds = [api.SearchBounds(schema_states, agents, atoms),
                   api.SearchBounds(rrc_states, agents, atoms)]
    models = list(api.enumerate_models(enum_bounds[0]))
    return Workload("sweep", jobs, {"formulas": formulas, "agents": agents, "models": models,
                                    "enum_bounds": enum_bounds})


# ---------------------------------------------------------------------------
# search: find_model / find_countermodel queries, exhaustive and early-witness

# Valid formulas: find_countermodel must examine every planned model.
VALID = [
    "K{i} {f} -> {f}",
    "K{i} {f} -> K{i} K{i} {f}",
    "~K{i} {f} -> K{i} ~K{i} {f}",
    "D{G} {f} -> {f}",
    "K{i} {f} -> D{G} {f}",
    "C{G} {f} -> K{i} {f}",
    "R{G} {a} <-> {a}",
    "R{G} ~{f} <-> ~R{G} {f}",
    "[{a}] K{i} {a}",
]
# Unsatisfiable formulas: find_model must examine every planned model.
UNSAT = [
    "K{i} {f} & ~{f}",
    "K{i} {f} & ~D{G} {f}",
    "C{G} {f} & ~{f}",
]
# Satisfiable / falsifiable within two or three states: an early witness.
SAT = [
    "{a} & ~K{i} {a}",
    "~{a} & ~K{i} ~{a}",
    "D{G} {a} & ~K{i} {a}",
    "R{G}({a} & ~K{i} {a})",
    "{a} & ~C{G} {a}",
]
FALSIFIABLE = [
    "K{i} {a} -> K{j} {a}",
    "{a} -> K{i} {a}",
    "D{G} {a} -> C{G} {a}",
    "K{i} {a} -> C{G} {a}",
]
# Acceptance criterion c06: a countermodel after 16 models at 5 states.
C06 = "R{1,2} C{1,3} p <-> C{1,3} R{1,2} p"


def fill(template, rng, agents, atoms, plain=False):
    """Instantiate a template; G always contains i, and j differs from i.

    `plain` makes the subformula f a bare atom, so that only names vary.
    """
    i = rng.choice(agents)
    j = rng.choice([x for x in agents if x != i])
    others = [x for x in agents if x != i]
    group = sorted([i] + rng.sample(others, rng.randint(1, len(others))))
    a = rng.choice(atoms)
    inner = a if plain else rng.choice([a, "~" + a, f"K{j} {a}", f"D{{{','.join(group)}}} {a}"])
    return template.format(i=i, j=j, G="{" + ",".join(group) + "}", a=a, f="(" + inner + ")")


def build_search(api, seed, tiny=False):
    """Every template a fixed number of times; the seed fills in names and order.

    The exhaustive queries set wall_s; they are few enough (about 2% of
    the jobs) that job_p50_ms and job_p90_ms both fall among the
    early-witness queries, where an engine that evaluates past the first
    witness shows.  Those are many, so that their percentiles hardly
    depend on the seed's fills.
    """
    rng = random.Random(seed)
    two, three, one_atom = ("1", "2"), ("1", "2", "3"), ("p",)
    if tiny:
        anchors, exhaustive_bound = [], (3, two, one_atom)
        early_bounds, repeats = [(3, two, one_atom)], 1
    else:
        # the 5-state and 3-agent anchors carry most of the exhaustive cost
        anchors, exhaustive_bound = [(5, two, one_atom), (4, three, one_atom)], (4, two, one_atom)
        early_bounds, repeats = [(5, two, one_atom), (4, three, one_atom), (5, three, one_atom)], 24

    specs = []  # (text, agents, bounds, mode, expect_found)
    for bound in anchors:
        specs.append((fill(VALID[0], rng, bound[1], bound[2], plain=True), bound[1], bound,
                      "countermodel", False))
    for templates, mode in ((VALID, "countermodel"), (UNSAT, "model")):
        for template in templates:
            specs.append((fill(template, rng, exhaustive_bound[1], exhaustive_bound[2]),
                          exhaustive_bound[1], exhaustive_bound, mode, False))
    for bound in early_bounds:
        for templates, mode in ((SAT, "model"), (FALSIFIABLE, "countermodel")):
            for template in templates * repeats:
                specs.append((fill(template, rng, bound[1], bound[2]), bound[1], bound, mode, True))
    if not tiny:
        specs.append((C06, three, (5, three, one_atom), "countermodel", True))
    rng.shuffle(specs)

    jobs, formulas, all_bounds, enum_bounds = [], [], [], []
    for text, agents, (states, bound_agents, atoms), mode, expect_found in specs:
        f = api.parse(text, agents)
        bounds = api.SearchBounds(states, bound_agents, atoms)
        formulas.append(f)
        if bounds not in all_bounds:
            all_bounds.append(bounds)
        # the replay drains only the enumerations that queries exhaust
        if not expect_found and bounds not in enum_bounds:
            enum_bounds.append(bounds)
        planned = planned_models(states, len(bound_agents), len(atoms))

        def check(out, f=f, mode=mode, expect_found=expect_found, planned=planned):
            if not expect_found:
                return not out.found and out.models_examined == planned
            if not out.found:
                return False
            w = out.witness
            return ref_holds(w.model, w.state, f) == (mode == "model")

        find = "find_model" if mode == "model" else "find_countermodel"
        jobs.append(Job(
            "exhaustive" if not expect_found else "witness",
            lambda a, find=find, f=f, b=bounds: getattr(a, find)(f, b),
            check,
            lambda out, planned=planned: {"models_examined": out.models_examined, "planned": planned},
        ))
    models = [m for bounds in all_bounds for m in islice(api.enumerate_models(bounds), 40)]
    return Workload("search", jobs, {"formulas": formulas, "agents": three, "models": models,
                                     "enum_bounds": enum_bounds})


# ---------------------------------------------------------------------------
# bisim: c09-style pseudo-model jobs and chain models


def chain_model(api, n, prefix):
    """States in a line, agent 1 and agent 2 linking alternate neighbours, p at one end.

    Every state sits at its own distance from the p end, so no two states
    are bisimilar, and the fixpoint needs about n rounds to see it.
    """
    states = [f"{prefix}{k:03d}" for k in range(n)]
    blocks_1 = [states[k:k + 2] for k in range(0, n, 2)]
    blocks_2 = [states[:1]] + [states[k:k + 2] for k in range(1, n, 2)]
    return api.Model.make(states, {"1": blocks_1, "2": blocks_2}, {"p": states[:1]})


def build_bisim(api, seed, tiny=False):
    rng = random.Random(seed)
    agents = ("1", "2")
    groups = groups_of(agents)
    pseudo = list(api.enumerate_pseudo_models(2 if tiny else 3, agents, ("p",)))
    suffix = "'" + rng.choice("abcdefgh")

    def c09_job(pre, x):
        def run(a):
            dup = a.duplicate_state(pre, x, x + suffix)
            z = a.bisimilar_pre(pre, x, dup, x + suffix)
            if z is None:
                return None, None
            return z, [a.is_pre_bisimulation(a.resolve_pre(pre, g), a.resolve_pre(dup, g), z)
                       for g in groups]
        return Job("c09", run,
                   lambda out: out[0] is not None and (x, x + suffix) in out[0] and not any(out[1]),
                   lambda out: {"witness_pairs": len(out[0] or ())})

    jobs = [c09_job(pre, x) for pre in pseudo for x in sorted(pre.states)]

    def bisim_job(kind, fn, left, s, right, t, expect):
        return Job(kind, lambda a: getattr(a, fn)(left, s, right, t),
                   lambda z: (z is not None and (s, t) in z) if expect else z is None,
                   lambda z: {"witness_pairs": len(z or ())})

    prefix = rng.choice("abcdefgh")
    sizes = (4, 6, 8) if tiny else (16, 32, 48, 64)
    chains, pairs = [], []
    for n in sizes:
        m = chain_model(api, n, prefix)
        pm = api.as_premodel(m)
        names = sorted(m.states)
        x = names[n // 2]  # the fixpoint's cost depends on where the copy sits
        dup = api.duplicate_state(m, x)
        s, t = rng.sample(names, 2)
        chains.append(m)
        pairs.append((m, x, dup, x + "'"))
        jobs.append(bisim_job("chain", "bisimilar_pre", m, x, dup, x + "'", True))
        if n < sizes[-1]:
            jobs.append(bisim_job("chain", "bisimilar_pre", m, s, m, t, False))
            jobs.append(bisim_job("chain", "trans_bisimilar", m, x, pm, x, True))
        if n < sizes[-2]:
            jobs.append(bisim_job("chain", "trans_bisimilar", m, s, pm, t, False))
    rng.shuffle(jobs)
    largest = max(len(pre.states) for pre in pseudo)
    premodels = [pre for pre in pseudo if len(pre.states) == largest]
    return Workload("bisim", jobs, {"models": chains, "premodels": premodels, "bisim_pairs": pairs,
                                    "pseudo_bounds": [(2 if tiny else 3, agents, ("p",))]})


# ---------------------------------------------------------------------------
# query: an interactive session through cli.main on large model files


def random_model(api, rng, n, agents, atoms):
    states = [f"w{k}" for k in range(n)]
    relations = {}
    for agent in agents:
        blocks = {}
        for s in states:
            blocks.setdefault(rng.randrange(max(2, n // 4)), []).append(s)
        relations[agent] = list(blocks.values())
    valuation = {p: [s for s in states if rng.random() < 0.5] for p in atoms}
    return api.Model.make(states, relations, valuation)


def random_formula(api, rng, nodes, agents, atoms, resolutions=2, announcements=1):
    """A formula with exactly `nodes` nodes and at most the given R and [..] counts.

    Each R or announcement makes the evaluator build a new model (a meet
    of partitions or a restriction), so their counts are capped to keep
    the cost of a formula close to proportional to its size.
    """
    # positional, so that a permutation of `agents` renames the same shape
    groups = [frozenset(c) for size in range(2, len(agents) + 1) for c in combinations(agents, size)]
    budget = {"R": resolutions, "ann": announcements}

    def grow(n):
        if n <= 1:
            return api.Atom(rng.choice(atoms))
        ops = ["neg", "K", "D", "C"] + (["and"] * 4 if n > 2 else [])
        ops += [op for op in ("R", "ann") if budget[op] and (op == "R" or n > 2)
                and rng.random() < 4.0 / nodes]
        op = rng.choice(ops)
        if op in budget:
            budget[op] -= 1
        if op in ("and", "ann"):
            left = rng.randint(1, n - 2)
            a, b = grow(left), grow(n - 1 - left)
            return api.And(a, b) if op == "and" else api.Ann(a, b)
        body = grow(n - 1)
        if op == "neg":
            return api.Neg(body)
        if op == "K":
            return api.K(rng.choice(agents), body)
        return {"D": api.D, "C": api.C, "R": api.R}[op](rng.choice(groups), body)

    return grow(nodes)


def check_direct(api, path, state, text):
    m = api.load_model(path)
    api.validate(m)
    return api.satisfies(m, state, api.parse(text, m.agents))


def closure_ok(api, f, members, agents):
    """Structural clauses of the closure set: f, children and single negations."""
    parsed = {api.parse(text, agents) for text in members}
    if f not in parsed:
        return False
    for g in parsed:
        if type(g).__name__ != "Neg" and api.Neg(g) not in parsed:
            return False
        for child in (getattr(g, name) for name in ("body", "left", "right", "announced")
                      if hasattr(g, name)):
            if child not in parsed:
                return False
    return True


def build_query(api, seed, workdir, tiny=False):
    rng = random.Random(seed)
    agents, atoms = ("1", "2", "3"), ("p", "q")
    # Formula shapes are fixed per slot; the seed renames their agents and
    # atoms and draws the models, so every seed evaluates the same amount.
    named_agents, named_atoms = tuple(rng.sample(agents, 3)), tuple(rng.sample(atoms, 2))

    def formula(slot, size, **caps):
        shape = random.Random(f"query-{slot}-{size}")
        return random_formula(api, shape, size, named_agents, named_atoms, **caps)
    universe = ",".join(agents)
    sizes = (8, 12) if tiny else (50, 200, 400, 800)
    check_nodes = (20, 40) if tiny else tuple(range(20, 201, 10))
    reduce_nodes = (20,) if tiny else (30, 80, 120)
    closure_nodes = (12,) if tiny else (20, 40)
    jobs, formulas, models, files = [], [], [], []
    cli_calls = []  # (argv, the same work through the library without the CLI)
    pending = []  # (job index, model, state, formula): expected answers come later
    out_path = os.path.join(workdir, "resolved.json")

    for k, n in enumerate(sizes):
        path = os.path.join(workdir, f"model{k}.json")
        api.save_model(random_model(api, rng, n, agents, atoms), path)
        m = api.load_model(path)
        models.append(m)
        files.append(path)
        names = sorted(m.states)

        for size in check_nodes:
            text = api.render(formula(f"check{k}", size))
            f = api.parse(text, agents)
            formulas.append(f)
            state = rng.choice(names)
            pending.append((len(jobs), m, state, f))
            argv = ["check", "--model", path, "--state", state, "--formula", text]
            jobs.append(Job("check", lambda a, argv=argv: run_cli(a, argv), None))
            cli_calls.append((argv, lambda a, path=path, state=state, text=text: check_direct(
                a, path, state, text)))

        for size in reduce_nodes:
            text = api.render(formula(f"reduce{k}", size, announcements=0))
            f = api.parse(text, agents)
            formulas.append(f)

            def reduced_ok(out, m=m, f=f, seen={}):
                code, printed = out
                if code != 0:
                    return False
                if printed not in seen:
                    seen[printed] = ref_extension(m, api.parse(printed.strip(), agents)) == \
                        ref_extension(m, f)
                return seen[printed]

            argv = ["reduce", "--formula", text, "--agents", universe]
            jobs.append(Job("reduce", lambda a, argv=argv: run_cli(a, argv), reduced_ok))
            cli_calls.append((argv, lambda a, text=text: a.render(a.reduce(a.parse(text, agents)))))

        for size in closure_nodes:
            text = api.render(formula(f"closure{k}", size, announcements=0))
            f = api.parse(text, agents)
            formulas.append(f)

            def closure_checked(out, f=f, seen={}):
                code, printed = out
                if code != 0:
                    return False
                if printed not in seen:
                    seen[printed] = closure_ok(api, f, printed.splitlines(), agents)
                return seen[printed]

            argv = ["closure", "--formula", text, "--agents", universe]
            jobs.append(Job("closure", lambda a, argv=argv: run_cli(a, argv), closure_checked))
            cli_calls.append((argv, lambda a, text=text: sorted(
                a.render(g) for g in a.closure(a.parse(text, agents)))))

        group = sorted(rng.choice([g for g in groups_of(agents) if len(g) > 1]))
        expected_meet = ref_meet_blocks(m, group)

        def resolve_run(a, argv=["resolve", "--model", path, "--group", ",".join(group),
                                 "--out", out_path]):
            code, _ = run_cli(a, argv)
            return code, a.load_model(out_path)

        def resolved_ok(out, m=m, group=group, expected=expected_meet):
            code, r = out
            return code == 0 and all(
                r.relations[x].sorted_blocks() == (expected if x in group else m.relations[x].sorted_blocks())
                for x in agents)

        jobs.append(Job("resolve", resolve_run, resolved_ok))
        cli_calls.append((["resolve", "--model", path, "--group", ",".join(group), "--out", out_path],
                          lambda a, path=path, group=group: a.save_model(
                              a.resolve(a.load_model(path), group), out_path)))

    # bisimulation on the smallest model: a duplicated state, and two states
    # that disagree on an atom
    small, small_path = models[0], files[0]
    x = sorted(small.states)[rng.randrange(len(small.states))]
    dup_path = os.path.join(workdir, "duplicate.json")
    api.save_model(api.duplicate_state(small, x), dup_path)
    files.append(dup_path)
    p_true = sorted(small.valuation["p"])
    p_false = sorted(small.states - small.valuation["p"])
    s, t = rng.choice(p_true), rng.choice(p_false)
    for argv, expect in [(["bisim", "--left", small_path, "--left-state", x, "--right", dup_path,
                           "--right-state", x + "'"], 0),
                         (["bisim", "--left", small_path, "--left-state", s, "--right", small_path,
                           "--right-state", t], 1)]:
        jobs.append(Job("bisim", lambda a, argv=argv: run_cli(a, argv),
                        lambda out, expect=expect: out[0] == expect))
        cli_calls.append((argv, lambda a, argv=argv: a.bisimilar_pre(
            a.load_model(argv[2]), argv[4], a.load_model(argv[6]), argv[8])))

    order = list(range(len(jobs)))
    rng.shuffle(order)

    def expect():
        """Expected check answers from the reference evaluator (untimed)."""
        for idx, m, state, f in pending:
            want = "true" if ref_holds(m, state, f) else "false"
            jobs[idx].check = lambda out, want=want: out == ((0 if want == "true" else 1), want + "\n")

    return Workload("query", [jobs[i] for i in order],
                    {"formulas": formulas, "agents": agents, "models": models, "files": files,
                     "cli_calls": cli_calls}, expect)


BUILDERS = {"sweep": build_sweep, "search": build_search, "bisim": build_bisim, "query": build_query}


def build(api, name, seed, workdir, tiny=False) -> Workload:
    if name == "query":
        return build_query(api, seed, workdir, tiny)
    return BUILDERS[name](api, seed, tiny)
