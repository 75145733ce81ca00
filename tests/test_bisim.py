import random

from epiresolve.bisim import (
    _accepts,
    _pre_labels,
    _trans_labels,
    bisimilar_pre,
    duplicate_state,
    is_pre_bisimulation,
    is_trans_bisimulation,
    trans_bisimilar,
    witness_to_pairs,
)
from epiresolve.checker import PseudoEvaluator, extension
from epiresolve.kripke import Model, Partition, PreModel, all_groups, as_premodel, is_pseudo, resolve_pre, validate
from epiresolve.search import FormulaGen, enumerate_pseudo_models

import pytest


def grp(csv):
    return frozenset(csv.split(","))


def reference_greatest(a, b, zig, zag):
    """The plain round-based greatest fixpoint: rescan every pair until none is deleted."""
    def agree(x, y):
        return all((x in a.valuation.get(p, ())) == (y in b.valuation.get(p, ()))
                   for p in set(a.valuation) | set(b.valuation))

    z = {(x, y) for x in a.states for y in b.states if agree(x, y)}
    changed = True
    while changed:
        changed = False
        for x, y in list(z):
            ok = all(any((xp, yp) in z for yp in right.block_of(y))
                     for _, left, right in zig for xp in left.block_of(x)) and \
                all(any((xp, yp) in z for xp in left.block_of(x))
                    for _, left, right in zag for yp in right.block_of(y))
            if not ok:
                z.discard((x, y))
                changed = True
    return z


def reference_violations(a, b, zig, zag, pairs):
    """The validator as it stood before partner sets: sorts every near block per
    pair and scans the far block with `any`."""
    def signatures(m):
        return {s: frozenset(atom for atom, ss in m.valuation.items() if s in ss) for s in m.states}

    z = set(pairs)
    problems = [] if z else ["relation is empty"]
    sig_a, sig_b = signatures(a), signatures(b)
    both = zig is zag
    labels = [(label, True, both) for label in zig]
    labels += [] if both else [(label, False, True) for label in zag]
    for x, y in sorted(z):
        if x not in a.states or y not in b.states:
            problems.append(f"pair ({x},{y}) mentions unknown states")
            continue
        if sig_a[x] != sig_b[y]:
            problems.append(f"(at) fails for ({x},{y})")
        for (key, left, right), in_zig, in_zag in labels:
            name = "agent " + key if isinstance(key, str) else "group " + ",".join(sorted(key))
            if in_zig:
                for xp in sorted(left.block_of(x)):
                    if not any((xp, yp) in z for yp in right.block_of(y)):
                        problems.append(f"(zig) fails for ({x},{y}) on {name} toward {xp}")
            if in_zag:
                for yp in sorted(right.block_of(y)):
                    if not any((xp, yp) in z for xp in left.block_of(x)):
                        problems.append(f"(zag) fails for ({x},{y}) on {name} toward {yp}")
    return problems


def assert_validators_match_reference(a, b, pairs):
    """Both validators equal the reference, and the accept path says yes exactly when it finds nothing."""
    pa, pb = (x if isinstance(x, PreModel) else as_premodel(x) for x in (a, b))
    labels = _pre_labels(pa, pb)
    expected = reference_violations(pa, pb, labels, labels, pairs)
    assert is_pre_bisimulation(a, b, pairs) == expected
    assert _accepts(pa, pb, labels, labels, set(pairs)) == (not expected)
    if not isinstance(a, PreModel):
        zig, zag = _trans_labels(a, pb)
        expected = reference_violations(a, pb, zig, zag, pairs)
        assert is_trans_bisimulation(a, b, pairs) == expected
        assert _accepts(a, pb, zig, zag, set(pairs)) == (not expected)


def random_blocks(rng, states):
    labels = [rng.randrange(len(states)) for _ in states]
    return [[s for s, k in zip(states, labels) if k == c] for c in set(labels)]


def random_model(rng, n, agents, atoms, prefix="s"):
    states = [f"{prefix}{k}" for k in range(n)]
    return Model.make(states, {i: random_blocks(rng, states) for i in agents},
                      {p: rng.sample(states, rng.randrange(n + 1)) for p in atoms})


def random_premodel(rng, n, agents, atoms, prefix="s"):
    m = random_model(rng, n, agents, atoms, prefix)
    states = sorted(m.states)
    return PreModel.make(states, {i: m.relations[i].sorted_blocks() for i in agents},
                         {",".join(sorted(g)): random_blocks(rng, states) for g in all_groups(agents)},
                         {p: sorted(ss) for p, ss in m.valuation.items()})


def chain(n):
    """States in a line, agents 1 and 2 linking alternate neighbours, p at one end."""
    states = [f"c{k:03d}" for k in range(n)]
    return Model.make(states, {"1": [states[k:k + 2] for k in range(0, n, 2)],
                               "2": [states[:1]] + [states[k:k + 2] for k in range(1, n, 2)]},
                      {"p": states[:1]})


def assert_pre_matches_reference(a, b):
    pa, pb = (x if isinstance(x, PreModel) else as_premodel(x) for x in (a, b))
    labels = _pre_labels(pa, pb)
    ref = frozenset(reference_greatest(pa, pb, labels, labels))
    s, t = min(ref, default=(min(a.states), min(b.states)))
    assert bisimilar_pre(a, s, b, t) == (ref or None)


def assert_trans_matches_reference(m, n):
    pn = n if isinstance(n, PreModel) else as_premodel(n)
    ref = frozenset(reference_greatest(m, pn, *_trans_labels(m, pn)))
    s, t = min(ref, default=(min(m.states), min(n.states)))
    z = trans_bisimilar(m, s, n, t)
    assert z == (ref or None)
    return z


class TestBisimilarPre:
    def test_reflexive(self, FIG1):
        pre = as_premodel(FIG1)
        z = bisimilar_pre(pre, "s", pre, "s")
        assert z is not None
        assert {(x, x) for x in pre.states} <= z
        assert is_pre_bisimulation(pre, pre, z) == []

    def test_atom_disagreement(self, FIG1):
        pre = as_premodel(FIG1)
        assert bisimilar_pre(pre, "t", pre, "u") is None

    def test_duplicate_state_is_bisimilar(self, FIG1):
        pre = as_premodel(FIG1)
        dup = duplicate_state(pre, "t")
        z = bisimilar_pre(pre, "t", dup, "t'")
        assert z is not None and ("t", "t'") in z

    def test_mismatched_agents_rejected(self, FIG1):
        pre = as_premodel(FIG1)
        other = enumerate_pseudo_models(1, ["1", "3"]).__next__()
        with pytest.raises(ValueError, match="agent set"):
            bisimilar_pre(pre, "s", other, "0")
        with pytest.raises(ValueError, match="agent set"):
            is_pre_bisimulation(pre, other, {("s", "0")})


class TestDuplicateState:
    def test_adds_exactly_one_state(self, FIG1):
        pre = as_premodel(FIG1)
        dup = duplicate_state(pre, "t")
        assert len(dup.states) == len(pre.states) + 1
        assert validate(dup) == []

    def test_copy_joins_every_home_block(self, FIG1):
        pre = as_premodel(FIG1)
        dup = duplicate_state(pre, "t")
        for part in list(dup.relations.values()) + list(dup.group_relations.values()):
            assert part.related("t", "t'")
        assert "t'" in dup.valuation["p"]

    def test_identity_mapping_is_a_bisimulation(self, FIG1):
        pre = as_premodel(FIG1)
        dup = duplicate_state(pre, "v")
        z = {(s, s) for s in pre.states} | {("v", "v'")}
        assert is_pre_bisimulation(pre, dup, z) == []

    def test_unknown_state_rejected(self, FIG1):
        with pytest.raises(ValueError, match="unknown state"):
            duplicate_state(as_premodel(FIG1), "z")

    def test_explicit_id(self, FIG1):
        dup = duplicate_state(as_premodel(FIG1), "t", new_id="t2")
        assert "t2" in dup.states


class TestAtomDisagreement:
    """States that disagree on an atom are told apart by their signatures alone."""

    @pytest.mark.parametrize("kind", [bisimilar_pre, trans_bisimilar])
    def test_answered_without_the_fixpoint(self, monkeypatch, FIG1, kind):
        import epiresolve.bisim as bisim

        pre = as_premodel(FIG1)
        assert kind(FIG1, "s", pre, "t") is None  # p is false at s and true at t
        with monkeypatch.context() as patch:
            patch.setattr(bisim, "_refined", lambda *args: pytest.fail("fixpoint ran"))
            assert kind(FIG1, "s", pre, "t") is None
            assert kind(FIG1, "t", pre, "s") is None

    @pytest.mark.parametrize("kind", [bisimilar_pre, trans_bisimilar])
    def test_input_errors_come_first(self, FIG1, kind):
        pre = as_premodel(FIG1)
        with pytest.raises(ValueError, match="unknown state 'zz'"):
            kind(FIG1, "zz", pre, "t")
        with pytest.raises(ValueError, match="unknown state 'zz'"):
            kind(FIG1, "s", pre, "zz")
        lone = Model.make(["a"], {"1": [["a"]]}, {"p": ["a"]})
        with pytest.raises(ValueError, match="requires a shared agent set"):
            kind(lone, "a", pre, "s")


class TestTransBisimilar:
    def test_embedding_is_trans_bisimilar(self, FIG1):
        z = trans_bisimilar(FIG1, "s", as_premodel(FIG1), "s")
        assert z is not None
        assert {(x, x) for x in FIG1.states} <= z
        assert is_trans_bisimulation(FIG1, as_premodel(FIG1), z) == []

    def test_core_not_trans_bisimilar_to_original(self, FIG1, CORE):
        # K1 p holds at t in the core but fails at t before resolution
        assert trans_bisimilar(CORE, "t", as_premodel(FIG1), "t") is None

    def test_atom_mismatch(self, FIG1):
        assert trans_bisimilar(FIG1, "t", as_premodel(FIG1), "u") is None

    def test_duplicated_premodel_side(self, FIG1):
        dup = duplicate_state(as_premodel(FIG1), "t")
        z = trans_bisimilar(FIG1, "t", dup, "t'")
        assert z is not None
        assert is_trans_bisimulation(FIG1, dup, z) == []


def test_validators_reject_bad_relations(FIG1):
    pre = as_premodel(FIG1)
    assert is_pre_bisimulation(pre, pre, set()) == ["relation is empty"]
    # t and u disagree on p, so the atom clause fails
    assert any("(at)" in v for v in is_pre_bisimulation(pre, pre, {("t", "u")}))
    assert any("(at)" in v for v in is_trans_bisimulation(FIG1, pre, {("t", "u")}))
    # the pair (s, s) alone breaks zig: s can see t but t is unmatched
    assert any("(zig)" in v for v in is_pre_bisimulation(pre, pre, {("s", "s")}))
    # trans-bisimulation violations name the agent or group of the clause
    trans = is_trans_bisimulation(FIG1, pre, {("t", "t")})
    assert "(zig) fails for (t,t) on agent 1 toward s" in trans
    assert "(zig) fails for (t,t) on group 1,2 toward v" in trans
    assert "(zag) fails for (t,t) on group 1 toward s" in trans
    assert not any("on label" in v for v in trans)


def test_witness_serialization(FIG1):
    pre = as_premodel(FIG1)
    z = bisimilar_pre(pre, "s", pre, "s")
    pairs = witness_to_pairs(z)
    assert pairs == sorted(pairs)
    assert ["s", "s"] in pairs
    assert witness_to_pairs(None) is None


def test_resolution_preserves_duplicated_witnesses():
    # the duplicated-state witness survives every resolution, re-checked
    # clause by clause rather than re-searched
    for pre in enumerate_pseudo_models(2, ["1", "2"], ["p"]):
        for x in sorted(pre.states):
            dup = duplicate_state(pre, x)
            z = bisimilar_pre(pre, x, dup, x + "'")
            assert z is not None
            for g in all_groups(pre.agents):
                assert is_pre_bisimulation(resolve_pre(pre, g), resolve_pre(dup, g), z) == []


def test_bisimilar_points_agree_on_generated_formulas(FIG1):
    gen = FormulaGen(["1", "2"], ["p"], seed=4, depth=3, allow_c=True, allow_r=True)
    pre = as_premodel(FIG1)
    dup = duplicate_state(pre, "t")
    ev_pre, ev_dup = PseudoEvaluator(pre), PseudoEvaluator(dup)
    for _ in range(150):
        f = gen.formula()
        assert ("t" in ev_pre.extension(f)) == ("t'" in ev_dup.extension(f))


def test_trans_bisimilar_points_agree_on_generated_formulas(FIG1):
    # the embedding pairs each state with itself; satisfaction transfers
    gen = FormulaGen(["1", "2"], ["p"], seed=6, depth=3, allow_c=True, allow_r=True)
    pre = as_premodel(FIG1)
    pev = PseudoEvaluator(pre)
    for _ in range(150):
        f = gen.formula()
        assert extension(FIG1, f) == pev.extension(f)


class TestGreatestFixpointReference:
    """Witnesses equal those of the plain round-based fixpoint kept above."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_models_and_premodels(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 14)
            agents = [str(i) for i in range(1, rng.randint(1, 3) + 1)]
            atoms = ["p", "q"][:rng.randint(1, 2)]
            m = random_model(rng, n, agents, atoms)
            pre = random_premodel(rng, n, agents, atoms, "r")
            x = rng.choice(sorted(m.states))
            other = random_model(rng, rng.randint(1, 14), agents, atoms, "o")
            for a, b in [(m, m), (m, duplicate_state(m, x)), (m, other), (pre, pre),
                         (pre, duplicate_state(pre, "r0")), (m, pre)]:
                assert_pre_matches_reference(a, b)
            for n_side in [m, duplicate_state(m, x), pre, other]:
                assert_trans_matches_reference(m, n_side)

    def test_resolved_premodels(self):
        rng = random.Random(11)
        for _ in range(30):
            agents = [str(i) for i in range(1, rng.randint(2, 3) + 1)]
            m = random_model(rng, rng.randint(2, 12), agents, ["p", "q"])
            pre = as_premodel(m)
            for g in all_groups(agents):
                resolved = resolve_pre(pre, g)
                assert_pre_matches_reference(pre, resolved)
                assert_pre_matches_reference(resolved, duplicate_state(resolved, min(m.states)))
                assert_trans_matches_reference(m, resolved)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_chains(self, n):
        m = chain(n)
        names = sorted(m.states)
        dup = duplicate_state(m, names[n // 2])
        assert_pre_matches_reference(m, dup)
        assert_pre_matches_reference(m, m)
        assert_trans_matches_reference(m, dup)
        assert_trans_matches_reference(m, as_premodel(m))

    def test_sides_share_partitions_over_differently_built_state_sets(self):
        # the right side reuses the left side's Partition objects, but its
        # states come from a frozenset built in the opposite order and p
        # sits at the other end, so each side codes the same partitions
        # against its own state indexes
        m = chain(40)
        names = sorted(m.states)
        flipped = Model(states=frozenset(reversed(names)), agents=m.agents, relations=m.relations,
                        valuation={"p": frozenset(names[-1:])})
        pre = as_premodel(m)
        flipped_pre = PreModel(states=flipped.states, agents=m.agents, relations=pre.relations,
                               valuation=flipped.valuation, group_relations=pre.group_relations)
        for a, b in [(m, flipped), (pre, flipped_pre), (flipped_pre, pre), (flipped, flipped_pre)]:
            assert_pre_matches_reference(a, b)
        assert_trans_matches_reference(m, flipped_pre)
        assert_trans_matches_reference(flipped, pre)
        mid = names[20]
        assert bisimilar_pre(pre, mid, flipped_pre, mid) is None
        assert bisimilar_pre(pre, mid, pre, mid) == frozenset((s, s) for s in names)

    def test_c09_duplicate_pairs(self):
        for pre in enumerate_pseudo_models(3, ["1", "2"], ["p"]):
            for x in sorted(pre.states):
                dup = duplicate_state(pre, x)
                labels = _pre_labels(pre, dup)
                assert bisimilar_pre(pre, x, dup, x + "'") == frozenset(
                    reference_greatest(pre, dup, labels, labels))

    def test_non_monotone_premodels(self):
        # random group relations: zig closes them, zag steps along them one at a time
        rng = random.Random(23)
        tried = 0
        while tried < 100:
            agents = [str(i) for i in range(1, rng.randint(1, 3) + 1)]
            n = random_premodel(rng, rng.randint(2, 10), agents, ["p"], "r")
            if is_pseudo(n):
                continue
            assert_trans_matches_reference(random_model(rng, rng.randint(1, 10), agents, ["p"]), n)
            tried += 1

    def test_perturbed_embeddings(self):
        # an embedding whose group relations are widened by an agent relation or
        # made discrete is no pseudo-model, but often keeps a trans witness
        rng = random.Random(24)
        linked = 0
        for _ in range(150):
            agents = [str(i) for i in range(1, rng.randint(2, 3) + 1)]
            m = random_model(rng, rng.randint(2, 10), agents, ["p"])
            pre = as_premodel(m)
            groups = dict(pre.group_relations)
            for g in rng.sample(all_groups(agents), rng.randint(1, 2)):
                groups[g] = (Partition.discrete(m.states) if rng.random() < 0.5
                             else groups[g].join(m.relations[rng.choice(agents)]))
            n = PreModel(states=m.states, agents=m.agents, relations=pre.relations,
                         valuation=m.valuation, group_relations=groups)
            for right in (n, duplicate_state(n, min(n.states))):
                z = assert_trans_matches_reference(m, right)
                if z:
                    assert is_trans_bisimulation(m, right, z) == []
                    linked += not is_pseudo(n)
        assert linked >= 100


class TestValidatorReference:
    """Problem lists equal those of the validator kept above, in order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_relations(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(40):
            agents = [str(i) for i in range(1, rng.randint(1, 3) + 1)]
            atoms = ["p", "q"][:rng.randint(1, 2)]
            m = random_model(rng, rng.randint(1, 10), agents, atoms)
            for b in (m, random_model(rng, rng.randint(1, 10), agents, atoms, "o"),
                      random_premodel(rng, rng.randint(1, 10), agents, atoms, "r")):
                pairs = [(x, y) for x in sorted(m.states) for y in sorted(b.states)]
                for keep in (0.2, 0.6, 1.0):
                    claimed = {pair for pair in pairs if rng.random() < keep}
                    assert_validators_match_reference(m, b, claimed)
                    assert_validators_match_reference(m, b, claimed | {("s0", "zzz")})
                witness = bisimilar_pre(m, min(m.states), b, min(b.states))
                if witness:
                    assert_validators_match_reference(m, b, witness)

    def test_c09_pairs(self):
        for pre in enumerate_pseudo_models(3, ["1", "2"], ["p"]):
            for x in sorted(pre.states):
                dup = duplicate_state(pre, x)
                z = bisimilar_pre(pre, x, dup, x + "'")
                short = z - {min(z)}
                assert_validators_match_reference(pre, dup, z)
                assert_validators_match_reference(pre, dup, short)
                for g in all_groups(pre.agents):
                    assert_validators_match_reference(resolve_pre(pre, g), resolve_pre(dup, g), z)

    def test_c09_witnesses_one_pair_off(self):
        # each resolved c09 witness with each single pair removed, and with
        # the first foreign pair added
        for pre in enumerate_pseudo_models(3, ["1", "2"], ["p"]):
            for x in sorted(pre.states):
                dup = duplicate_state(pre, x)
                z = bisimilar_pre(pre, x, dup, x + "'")
                foreign = sorted((s, t) for s in pre.states for t in dup.states if (s, t) not in z)[:1]
                for g in all_groups(pre.agents):
                    left, right = resolve_pre(pre, g), resolve_pre(dup, g)
                    assert_validators_match_reference(left, right, z | set(foreign))
                    for pair in z:
                        assert_validators_match_reference(left, right, z - {pair})

    @pytest.mark.parametrize("agent_1, group_12, true_at", [
        # group 1,2 is coarser than groups 1 and 2: every zig closure is the
        # whole state set, and zig and zag share only the group 1,2 label
        ([["s", "t"], ["u"]], [["s", "t", "u"]], ["s"]),
        ([["s", "t"], ["u"]], [["s", "t", "u"]], []),
        # group 1 is coarser than the discrete agent 1: zig on agent 1 answers
        # along group 1's blocks, which zag on group 1 shares, while zag on
        # agent 1 answers along the discrete relation alone
        ([["s"], ["t"], ["u"]], [["s"], ["t"], ["u"]], ["s"]),
    ])
    def test_non_monotone_premodel_shares_a_label(self, agent_1, group_12, true_at):
        # every relation on three states is compared with the reference
        states = ["s", "t", "u"]
        r1, r2 = [["s", "t"], ["u"]], [["s"], ["t", "u"]]
        m = Model.make(states, {"1": r1, "2": r2}, {"p": true_at})
        n = PreModel.make(states, {"1": agent_1, "2": r2}, {"1": r1, "2": r2, "1,2": group_12}, {"p": true_at})
        zig, zag = _trans_labels(m, n)
        blocks = [{(left.blocks, right.blocks) for _, left, right in labels} for labels in (zig, zag)]
        assert blocks[0] & blocks[1] and blocks[0] != blocks[1]
        pairs = [(x, y) for x in states for y in states]
        accepted = 0
        for k in range(1 << len(pairs)):
            claimed = {pair for i, pair in enumerate(pairs) if k >> i & 1}
            assert_validators_match_reference(m, n, claimed)
            accepted += not is_trans_bisimulation(m, n, claimed)
        assert accepted > 0 or (group_12 == [states] and true_at)
        if agent_1 != r1:
            # the identity meets zig along the closures, not along agent 1 itself
            identity = {(s, s) for s in states}
            assert is_trans_bisimulation(m, n, identity) == []
            assert "(zig) fails for (s,s) on agent 1 toward t" in is_pre_bisimulation(m, n, identity)

    def test_labels_with_equal_blocks_each_name_their_failures(self):
        # agent 1 and group 1 hold equal blocks: the accept path checks them
        # once, yet each names its own failures, agents first
        m = Model.make(["s", "t"], {"1": [["s", "t"]], "2": [["s"], ["t"]]}, {})
        pre = as_premodel(m)
        assert pre.relations["1"].blocks == pre.group_relations[grp("1")].blocks
        expected = ["(zig) fails for (s,s) on agent 1 toward t", "(zag) fails for (s,s) on agent 1 toward t",
                    "(zig) fails for (s,s) on group 1 toward t", "(zag) fails for (s,s) on group 1 toward t"]
        assert is_pre_bisimulation(pre, pre, {("s", "s")}) == expected
        assert_validators_match_reference(m, pre, {("s", "s")})


class TestTransBisimilarity:
    def test_premodel_on_the_left_is_rejected(self, FIG1):
        pre = as_premodel(FIG1)
        resolved = resolve_pre(pre, grp("1,2"))
        with pytest.raises(ValueError, match="genuine model"):
            trans_bisimilar(resolved, "t", pre, "t")
        with pytest.raises(ValueError, match="genuine model"):
            trans_bisimilar(pre, "t", pre, "t")
        with pytest.raises(ValueError, match="genuine model"):
            is_trans_bisimulation(resolved, pre, {("t", "t")})

    @pytest.mark.parametrize("agents", [["1"], ["1", "2"]])
    def test_equals_bisimilarity_on_pseudo_models(self, agents):
        # on a pseudo-model each larger group refines the smaller ones, so
        # every zig closure is the relation itself
        rng = random.Random(len(agents))
        linked = 0
        for n in enumerate_pseudo_models(3, agents, ["p"]):
            for right in [n] + [duplicate_state(n, x) for x in sorted(n.states)]:
                m = random_model(rng, rng.randint(1, 4), agents, ["p"])
                s = rng.choice(sorted(m.states))
                for t in sorted(right.states):
                    z = bisimilar_pre(m, s, right, t)
                    assert trans_bisimilar(m, s, right, t) == z
                    linked += z is not None
        assert linked


def test_long_chain_exact_answer():
    # every chain state is told apart by its distance from p, so the only
    # link besides the identity is the duplicated state's
    m = chain(256)
    names = sorted(m.states)
    x = names[128]
    identity = frozenset((s, s) for s in names)
    assert bisimilar_pre(m, x, duplicate_state(m, x), x + "'") == identity | {(x, x + "'")}
    assert trans_bisimilar(m, x, as_premodel(m), x) == identity
