"""Acceptance suite: one test per criterion, at the stated bounds.

Every check is exact (boolean agreement); each test prints one PASS line
when it completes (run with -s to see them).  The heavyweight criteria
enumerate every model up to the bound, so the whole module takes a few
minutes.
"""

from epiresolve.bisim import bisimilar_pre, duplicate_state, is_pre_bisimulation, trans_bisimilar
from epiresolve.checker import Evaluator, PseudoEvaluator, satisfies
from epiresolve.fixtures import fig1, fig1_core
from epiresolve.kripke import (
    all_groups,
    as_premodel,
    iterated_relation,
    resolve,
    resolve_pre,
    validate,
)
from epiresolve.search import (
    FormulaGen,
    SearchBounds,
    check_rule_rrc,
    check_schema,
    enumerate_pseudo_models,
    find_countermodel,
    find_model,
)
from epiresolve.syntax import (
    And,
    Atom,
    C,
    D,
    Iff,
    K,
    Neg,
    R,
    delta,
    parse,
    reduce,
    render,
    subformulas,
)

from conftest import model_list

from test_search import break_c1, corrupt_rd1, drop_t_d


def ok(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS ({detail})")


def grp(csv):
    return frozenset(csv.split(","))


def test_c01_fig1_golden():
    m, core = fig1(), fig1_core()
    assert resolve(m, grp("1,2")) == core
    assert satisfies(m, "t", parse("R{1,2}(p & K1 p)", m.agents)) is True
    assert satisfies(m, "t", parse("D{1,2}(p & ~K1 p)", m.agents)) is True
    ok(1, "resolution yields the core; both satisfaction facts hold at t")


def _biconditional_suite(criterion, schemata, models, gen, per_schema=200):
    checked = 0
    for name, make in schemata:
        pairs, seen = [], set()
        for _ in range(per_schema):
            pair = make(gen)
            key = pair
            if key not in seen:
                seen.add(key)
                pairs.append((pair[0], pair[1]))
        for m in models:
            ev = Evaluator(m)
            for lhs, rhs in pairs:
                assert ev.extension(lhs) == ev.extension(rhs), (
                    name, render(lhs), render(rhs), m)
        checked += len(pairs)
    return checked


def test_c02_resolution_validities_two_agents():
    gen = FormulaGen(["1", "2"], ["p"], seed=0, depth=2, allow_c=True, allow_r=True)
    everyone = grp("1,2")

    def singleton(g):
        return frozenset([g.agent()])

    def member_pair(g):
        gr = g.group()
        return gr, g.rng.choice(sorted(gr))

    def outside_pair(g):
        while True:
            gr, i = g.group(), g.agent()
            if i not in gr:
                return gr, i

    schemata = [
        ("no-op for singletons", lambda g: (lambda gr, a: (R(gr, a), a))(singleton(g), g.formula())),
        ("atoms", lambda g: (lambda gr: (R(gr, Atom("p")), Atom("p")))(g.group())),
        ("conjunction", lambda g: (lambda gr, a, b: (R(gr, And(a, b)), And(R(gr, a), R(gr, b))))(
            g.group(), g.formula(), g.formula())),
        ("negation", lambda g: (lambda gr, a: (R(gr, Neg(a)), Neg(R(gr, a))))(g.group(), g.formula())),
        ("knowledge inside", lambda g: (lambda pair, a: (R(pair[0], K(pair[1], a)),
                                                         D(pair[0], R(pair[0], a))))(
            member_pair(g), g.formula())),
        ("knowledge outside", lambda g: (lambda pair, a: (R(pair[0], K(pair[1], a)),
                                                          K(pair[1], R(pair[0], a))))(
            outside_pair(g), g.formula())),
        ("distributed overlapping", lambda g: (lambda gh, a: (R(gh[0], D(gh[1], a)),
                                                              D(gh[0] | gh[1], R(gh[0], a))))(
            g.overlapping_pair(), g.formula())),
        ("distributed disjoint", lambda g: (lambda gh, a: (R(gh[0], D(gh[1], a)),
                                                           D(gh[1], R(gh[0], a))))(
            g.disjoint_pair(), g.formula())),
        ("grand coalition", lambda g: (lambda a: (R(everyone, C(everyone, a)),
                                                  R(everyone, D(everyone, a))))(g.formula())),
        ("disjoint resolutions commute", lambda g: (lambda gh, a: (R(gh[0], R(gh[1], a)),
                                                                   R(gh[1], R(gh[0], a))))(
            g.disjoint_pair(), g.formula())),
        ("repetition collapses", lambda g: (lambda gr, a: (R(gr, R(gr, a)), R(gr, a)))(
            g.group(), g.formula())),
    ]
    models = model_list(4, ("1", "2"), ("p",))
    checked = _biconditional_suite(2, schemata, models, gen)
    ok(2, f"{len(schemata)} schemata, {checked} distinct instances, {len(models)} models")


def test_c03_resolution_and_common_knowledge_three_agents():
    gen = FormulaGen(["1", "2", "3"], ["p"], seed=0, depth=2, allow_c=True, allow_r=True)

    def disjoint(g):
        gr, h = g.disjoint_pair()
        a = g.formula()
        return R(gr, C(h, a)), C(h, R(gr, a))

    def contained_knowledge(g):
        h, gr = g.nested_pair()
        i = g.rng.choice(sorted(gr))
        a = g.formula()
        return R(gr, C(h, a)), R(gr, K(i, a))

    def contained_distributed(g):
        h, gr = g.nested_pair()
        a = g.formula()
        return R(gr, C(h, a)), D(gr, R(gr, a))

    schemata = [
        ("commute when disjoint", disjoint),
        ("contained group, knowledge form", contained_knowledge),
        ("contained group, distributed form", contained_distributed),
    ]
    models = model_list(3, ("1", "2", "3"), ("p",))
    checked = _biconditional_suite(3, schemata, models, gen)
    ok(3, f"{checked} instances with side conditions enforced, {len(models)} models")


def test_c04_iterated_relation_matches_sequential_updates():
    agents = ("1", "2", "3")
    groups = all_groups(agents)
    group_targets = groups
    agent_targets = list(agents)

    index = {}
    sequences = [()]
    for length in range(3):
        sequences += [seq + (g,) for seq in sequences if len(seq) == length for g in groups]
    for seq in sequences:
        for a in agent_targets:
            index[(seq, a)] = delta(frozenset([a]), seq)
        for g in group_targets:
            index[(seq, g)] = delta(g, seq)

    models = model_list(4, agents, ())
    spot = 0
    for m in models:
        base = as_premodel(m)
        meets = base.group_relations

        def verify(pre, seq):
            for a in agent_targets:
                assert pre.relations[a] == meets[index[(seq, a)]], (seq, a)
            for g in group_targets:
                assert pre.group_relations[g] == meets[index[(seq, g)]], (seq, g)

        stack = [(base, ())]
        while stack:
            pre, seq = stack.pop()
            verify(pre, seq)
            if len(seq) < 3:
                stack.extend((resolve_pre(pre, g), seq + (g,)) for g in groups)

        seq = sequences[spot % len(sequences)]
        target = (agent_targets + group_targets)[spot % 10]
        expected = index[(seq, target if isinstance(target, frozenset) else target)]
        assert iterated_relation(m, list(seq), target) == meets[expected]
        spot += 1
    ok(4, f"{len(sequences)} sequences x 10 targets over {len(models)} models")


def test_c05_reducer_on_the_resolution_distributed_fragment():
    gen = FormulaGen(["1", "2"], ["p"], seed=0, depth=3, allow_c=False, allow_r=True)
    pairs, seen = [], set()
    for _ in range(500):
        f = gen.formula()
        if f in seen:
            continue
        seen.add(f)
        rf = reduce(f)
        assert not any(isinstance(g, R) for g in subformulas(rf)), render(f)
        pairs.append((f, rf))
    models = model_list(4, ("1", "2"), ("p",))
    for m in models:
        ev = Evaluator(m)
        for f, rf in pairs:
            assert ev.extension(f) == ev.extension(rf), render(f)
    ok(5, f"{len(pairs)} formulas reduced to resolution-free equivalents, {len(models)} models")


def test_c06_overlapping_groups_are_not_reducible():
    lhs = parse("R{1,2} C{1,3} p", {"1", "2", "3"})
    rhs = parse("C{1,3} R{1,2} p", {"1", "2", "3"})
    out = find_countermodel(Iff(lhs, rhs), SearchBounds(max_states=5, agents=("1", "2", "3")))
    assert out.found
    w = out.witness
    assert validate(w.model) == []
    assert satisfies(w.model, w.state, lhs) != satisfies(w.model, w.state, rhs)
    ok(6, f"countermodel with {len(w.model.states)} states at state {w.state} "
          f"after {out.models_examined} models")


def test_c07_pseudo_embedding_agreement():
    gen = FormulaGen(["1", "2"], ["p"], seed=0, depth=3, allow_c=True, allow_r=True)
    formulas, seen = [], set()
    for _ in range(500):
        f = gen.formula()
        if f not in seen:
            seen.add(f)
            formulas.append(f)
    models = model_list(4, ("1", "2"), ("p",))
    for m in models:
        ev = Evaluator(m)
        pev = PseudoEvaluator(as_premodel(m))
        for f in formulas:
            assert ev.extension(f) == pev.extension(f), render(f)
    ok(7, f"{len(formulas)} formulas agree on {len(models)} models, every state")


def test_c08_resolution_preserves_pseudo_models():
    groups = all_groups(["1", "2"])
    count = 0
    for pre in enumerate_pseudo_models(3, ["1", "2"]):
        assert validate(pre) == []
        for g in groups:
            assert validate(resolve_pre(pre, g)) == [], (pre, g)
        count += 1
    ok(8, f"{count} pseudo models, every group update validated")


def test_c09_bisimulation_invariance():
    groups = all_groups(["1", "2"])
    survived = 0
    for pre in enumerate_pseudo_models(3, ["1", "2"], ["p"]):
        for x in sorted(pre.states):
            dup = duplicate_state(pre, x)
            z = bisimilar_pre(pre, x, dup, x + "'")
            assert z is not None
            for g in groups:
                assert is_pre_bisimulation(resolve_pre(pre, g), resolve_pre(dup, g), z) == []
                survived += 1

    gen = FormulaGen(["1", "2"], ["p"], seed=0, depth=3, allow_c=True, allow_r=True)
    formulas = [gen.formula() for _ in range(500)]
    samples = list(model_list(3, ("1", "2"), ("p",)))[::37]
    agreed = 0
    for m in samples:
        pre = as_premodel(m)
        s = min(m.states)
        assert trans_bisimilar(m, s, pre, s) is not None
        dup = duplicate_state(pre, s)
        assert bisimilar_pre(pre, s, dup, s + "'") is not None
        ev, pev, dev = Evaluator(m), PseudoEvaluator(pre), PseudoEvaluator(dup)
        for f in formulas:
            direct = ev.extension(f)
            assert direct == pev.extension(f)
            assert (s in direct) == (s + "'" in dev.extension(f))
            agreed += 1
    ok(9, f"{survived} resolved witnesses revalidated; {agreed} formula agreements")


def test_c10_axiom_soundness_and_mutations():
    rd = check_schema("rd")
    assert rd.ok, rd.text()
    rcd = check_schema("rcd")
    assert rcd.ok, rcd.text()

    four = SearchBounds(max_states=4, agents=("1", "2"), atoms=("p",), instance_count=40)
    for system, name, builder in [("rd", "RD1", corrupt_rd1),
                                  ("rd", "T_D", drop_t_d),
                                  ("rcd", "C1", break_c1)]:
        report = check_schema(system, four, override={name: builder},
                              schemas=[name], include_rules=False)
        (result,) = report.schemata
        assert result.violations, f"mutated {name} was not caught"
        v = result.violations[0]
        assert len(v.model.states) <= 4
        assert not satisfies(v.model, v.state, v.instance)
    ok(10, f"rd/rcd clean at defaults ({rd.models_examined} models); all 3 mutations caught")


def test_c11_resolved_common_knowledge_induction_rule():
    report = check_rule_rrc()
    assert report.ok, report.text()
    assert report.premise_hits > 0
    ok(11, f"{report.instances} instances, {report.premise_hits} premise hits, "
           f"{report.models_examined} models, zero violations")


def test_c12_moore_resolution_verdict_is_documented():
    f = parse("R{1,2}(p & ~K1 p)", {"1", "2"})
    rf = reduce(f)
    verdicts = []
    for k in range(1, 6):
        direct = find_model(f, SearchBounds(max_states=k))
        reduced = find_model(rf, SearchBounds(max_states=k))
        assert direct.found == reduced.found, f"bound {k}"
        verdicts.append((k, direct.verdict))
        if direct.found:
            w = direct.witness
            assert satisfies(w.model, w.state, f)
    ok(12, "verdicts per bound: " + ", ".join(f"{k}:{v}" for k, v in verdicts)
          + f"; reduced form: {render(rf)}")
