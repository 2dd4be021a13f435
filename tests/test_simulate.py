import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import qclab

from qclab.core import (
    ArityMismatch,
    Dist,
    HypothesisViolated,
    QclabError,
    Relation,
    Subcube,
    TruthTable,
    ZeroConditioningMass,
    and_fn,
    identity1,
    subcube_prob,
    xor_fn,
)
from qclab import lattice
from qclab.compose import build_instance
from qclab.dtree import DecisionTree, InternalNode, Leaf, make_tree
from qclab.simulate import (
    AprimeSimulator,
    ChainReport,
    _Compiled,
    _instance_checks,
    _threshold,
    exact_p,
    exact_q,
    run_Aprime,
    snip_labels,
    success_chain,
    verify_lilsnip,
    verify_simileaf,
)
from qclab.walk import CHUNK, TreeWalker

from _oracles import (
    brute_gamma_z,
    brute_reach_probs,
    brute_simulation_law,
    brute_snip_labels,
    loop_run,
    loop_run_stream,
    random_relation,
    random_tree,
    random_truth_table,
    split_assignments,
)


def rel(g):
    return Relation.from_function(g)


def xor_instance(n=2, epsilon=F(1, 4), theta=F(1, 2)):
    """Inner XOR on 2 bits under uniform: c = 2, all biases zero."""
    f = rel(xor_fn(n)) if n > 1 else rel(identity1())
    return build_instance(
        f, xor_fn(2), Dist.uniform(2), Dist.uniform(n),
        epsilon=epsilon, theta=theta,
    )


def tilted_and_instance():
    """Inner AND with a tilted distribution: balanced overall, biased cubes."""
    mu = Dist.from_weights([1, 1, 1, 3])
    return build_instance(
        rel(identity1()), and_fn(2), mu, Dist.uniform(1),
        epsilon=F(1, 4), theta=F(1, 2),
    )


def and_uniform_instance(n=1):
    """Inner AND on 2 bits under uniform at eps = 1/8: c = 2, and the
    restriction to g = 1 is the point mass on 11."""
    f = rel(xor_fn(n)) if n > 1 else rel(identity1())
    return build_instance(
        f, and_fn(2), Dist.uniform(2), Dist.uniform(n),
        epsilon=F(1, 8), theta=F(3, 4),
    )


def random_instances(rng, count):
    """Random instances with n <= 2 and m in {2, 3}.  They cycle through
    inner distributions with zero-mass points, with a common denominator of
    at least 2^62, and with both."""
    instances = []
    while len(instances) < count:
        kind = len(instances) % 3
        n, m = rng.randint(1, 2), rng.randint(2, 3)
        top = 7 if kind == 0 else 1 << 70
        weights = [rng.randrange(1, top) for _ in range(1 << m)]
        if kind != 1:
            for x in rng.sample(range(1 << m), 1 << (m - 2)):
                weights[x] = 0
        try:
            inst = build_instance(
                random_relation(rng, n, 2), random_truth_table(rng, m),
                Dist.from_weights(weights),
                Dist.from_weights([rng.randrange(1, 4) for _ in range(1 << n)]),
                epsilon=rng.choice([F(1, 8), F(1, 4), F(1, 3), F(7, 16)]),
                theta=rng.choice([F(0), F(1, 8), F(1, 2), F(3, 4)]),
            )
        except QclabError:
            continue
        instances.append(inst)
    assert any(lattice.int_weights(i.mu)[1] >= lattice.INT64_LIMIT for i in instances)
    assert any(0 in i.mu.probs for i in instances)
    return instances


def full_parity_tree(arity):
    def build(vars_left, acc):
        if not vars_left:
            return acc
        v = vars_left[0]
        return (v, build(vars_left[1:], acc), build(vars_left[1:], acc ^ 1))

    return make_tree(arity, build(list(range(arity)), 0))


class TestRunAprime:
    def test_shallow_tree_never_queries_z(self):
        inst = xor_instance()
        # one query per copy stays below c = 2 everywhere
        tree = make_tree(4, (0, (2, 0, 1), (2, 1, 0)))
        for z in range(4):
            for seed in range(20):
                trace = run_Aprime(inst, tree, z, seed)
                assert trace.z_queries == ()

    def test_threshold_bookkeeping(self):
        inst = xor_instance(n=1)
        # both copy-0 bits queried on every path: z read at the 2nd query
        tree = full_parity_tree(2)
        for z in (0, 1):
            trace = run_Aprime(inst, tree, z, seed=5)
            assert trace.z_queries == (0,)
            assert trace.per_copy_codims == (2,)
            assert trace.path_length == 2

    def test_determinism(self):
        inst = xor_instance()
        tree = full_parity_tree(4)
        assert run_Aprime(inst, tree, 2, 99) == run_Aprime(inst, tree, 2, 99)

    def test_budget_invariant(self):
        rng = random.Random(61)
        inst = xor_instance()
        for _ in range(10):
            tree = random_tree(rng, 4, 4, 2)
            budget = tree.depth() // inst.inner_complexity
            for z in range(4):
                for seed in range(5):
                    trace = run_Aprime(inst, tree, z, seed)
                    assert len(trace.z_queries) <= budget
                    assert len(set(trace.z_queries)) == len(trace.z_queries)
                    assert sum(trace.per_copy_codims) == trace.path_length


    def test_walk_into_dead_node_raises(self):
        # on z = 1 the second copy-0 query is sampled from the point mass on
        # 11, which has no mass on x0 = 0
        inst = and_uniform_instance()
        tree = make_tree(2, (0, (1, 0, 1), 1))
        sim = AprimeSimulator(inst, tree, 1)
        seen = set()
        for seed in range(24):
            dead = random.Random(seed).getrandbits(128) >= 1 << 127  # Pr[x0 = 1] = 1/2
            seen.add(dead)
            if dead:
                with pytest.raises(ZeroConditioningMass, match="during simulation"):
                    sim.run(seed)
            else:
                assert sim.run(seed).leaf_id == 2
        assert seen == {False, True}
        with pytest.raises(ZeroConditioningMass, match="during simulation"):
            sim.run_stream(50, seed=0)

    def test_threshold_matches_fraction_rule(self):
        rng = random.Random(97)
        probs = [F(0), F(1)]
        for bits in (3, 64, 200):
            for _ in range(100):
                den = rng.randrange(1, 1 << bits)
                probs.append(F(rng.randrange(den + 1), den))
        for p1 in probs:
            k = rng.randrange(1, 5)  # compile passes unreduced masses
            t = _threshold(k * p1.numerator, k * p1.denominator)
            for draw in (t - 1, t):
                if 0 <= draw < 1 << 128:
                    assert (draw < t) == (draw * p1.denominator < p1.numerator << 128)
        assert _threshold(0, 3) == 0
        assert _threshold(3, 3) == 1 << 128


def public_entries(inst, tree, z):
    """Every public simulator entry, called on one instance, tree and z."""
    return {
        "exact_p": lambda: exact_p(inst, tree, z),
        "exact_q": lambda: exact_q(inst, tree, z),
        "snip_labels": lambda: snip_labels(inst, tree),
        "success_chain": lambda: success_chain(inst, tree),
        "verify_simileaf": lambda: verify_simileaf(inst, tree, z),
        "verify_lilsnip": lambda: verify_lilsnip(inst, tree, z),
        "AprimeSimulator": lambda: AprimeSimulator(inst, tree, z),
        "run_Aprime": lambda: run_Aprime(inst, tree, z, 0),
    }


class TestInvalidInput:
    # xor2 of xor2 at eps = 7/16, theta = 1/2 meets every verifier's
    # hypotheses, so each raise below comes from the tree or z
    inst = xor_instance(epsilon=F(7, 16), theta=F(1, 2))

    def test_valid_tree_passes_every_entry(self):
        for call in public_entries(self.inst, full_parity_tree(4), 3).values():
            call()

    @pytest.mark.parametrize("root, violation", [
        # variable 0 queried twice on a path: its laws summed to 3/2
        (InternalNode(0, InternalNode(0, Leaf(0, 0), Leaf(1, 1)), Leaf(1, 2)), "ReadOnce:0"),
        # two leaves sharing id 0: their laws merged and summed to 1/2
        (InternalNode(0, Leaf(0, 0), Leaf(1, 0)), "DuplicateLeafId:0"),
    ])
    def test_invalid_trees_raise(self, root, violation):
        tree = DecisionTree(4, root)
        for call in public_entries(self.inst, tree, 1).values():
            with pytest.raises(QclabError, match=f"invalid decision tree: {violation}"):
                call()

    def test_wrong_arity_raises_one_arity_mismatch(self):
        tree = make_tree(3, (0, 0, 1))
        messages = set()
        for call in public_entries(self.inst, tree, 1).values():
            with pytest.raises(ArityMismatch) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"tree arity does not match the instance"}

    @pytest.mark.parametrize("z", [4, -1])
    def test_out_of_range_z_raises(self, z):
        # z = 4 read as z = 0, and z = -1 as all ones
        entries = public_entries(self.inst, full_parity_tree(4), z)
        for name in ("exact_p", "exact_q", "verify_simileaf", "verify_lilsnip",
                     "AprimeSimulator", "run_Aprime"):
            with pytest.raises(QclabError, match=f"input {z} out of range"):
                entries[name]()


def stride_tree(rng, arity, stride, depth):
    """A random tree whose leaves all lie at positive multiples of
    ``stride``, at most ``depth`` (itself a multiple of ``stride``, at most
    ``arity``)."""
    counter = [0]

    def build(d, used):
        if d and d % stride == 0 and (d == depth or rng.random() < 0.4):
            counter[0] += 1
            return Leaf(rng.randrange(2), counter[0] - 1)
        var = rng.choice([v for v in range(arity) if v not in used])
        return InternalNode(var, build(d + 1, used | {var}), build(d + 1, used | {var}))

    return DecisionTree(arity, build(0, frozenset())).require_valid()


def outcome(walk, *args):
    try:
        return walk(*args)
    except ZeroConditioningMass as exc:
        return str(exc)


class _Words:
    """Stands in for ``random.Random``: ``getrandbits(128 * k)`` returns the
    next k of the given 128-bit words, placed as k successive draws are."""

    def __init__(self, words):
        self.words = list(words)

    def getrandbits(self, bits):
        k = bits // 128
        take, self.words = self.words[:k], self.words[k:]
        return sum(w << (128 * i) for i, w in enumerate(take))


class TestBulkWalk:
    def test_bulk_draw_is_successive_draws(self):
        for k in (1, 3, 1000):
            bulk, one = random.Random(k), random.Random(k)
            raw = bulk.getrandbits(128 * k).to_bytes(16 * k, "little")
            words = np.frombuffer(raw, "<u8").reshape(k, 2).tolist()
            assert [(hi << 64) | lo for lo, hi in words] == [one.getrandbits(128) for _ in range(k)]

    def test_threshold_edges_compare_exactly(self):
        edges = (0, 1, 2**64 - 1, 2**64, 2**128 - 1, 2**128)
        for t in edges:
            draws = sorted({d for x in edges for d in (x - 1, x) if 0 <= d < 1 << 128})
            walker = TreeWalker([(t, 1, 2), "child0", "child1"])
            ends = np.concatenate(list(walker.ends(_Words(draws), len(draws))))
            assert ends.tolist() == [2 if d < t else 1 for d in draws]

    def test_streams_match_the_per_walk_loop(self):
        rng = random.Random(131)
        instances = random_instances(rng, 9) + [and_uniform_instance(n=2), tilted_and_instance()]
        seen = set()
        for inst in instances:
            arity = inst.total_arity
            trees = [random_tree(rng, arity, arity, 2), full_parity_tree(arity),
                     stride_tree(rng, arity, 2, arity - arity % 2)]
            for tree in trees:
                for z in range(1 << inst.n):
                    try:
                        sim = AprimeSimulator(inst, tree, z)
                    except ZeroConditioningMass:
                        continue
                    walker = sim._walker
                    seen.add(("stride", walker.stride > 1, walker.max_step > 1))
                    thresholds = {node[0] for node in walker.payload if type(node) is tuple}
                    seen |= thresholds & {0, 1 << 128}
                    for samples in (0, 1, 3 * CHUNK + 5):
                        seed = rng.randrange(1 << 30)
                        got = outcome(sim.run_stream, samples, seed)
                        assert got == outcome(loop_run_stream, sim, samples, seed)
                        seen.add(type(got))
                    for seed in range(3):
                        assert outcome(sim.run, seed) == outcome(loop_run, sim, seed)
        assert seen == {("stride", False, True), ("stride", True, True), ("stride", False, False),
                        ("stride", True, False), 0, 1 << 128, dict, str}

    def test_one_compiled_shape_serves_every_z(self):
        # qclab simulate compiles the tree once and runs every z on it, in
        # any order; each run matches the simulator compiled for its own z
        rng = random.Random(137)
        for inst in random_instances(rng, 6) + [and_uniform_instance(n=2)]:
            tree = random_tree(rng, inst.total_arity, inst.total_arity, 2)
            compiled = _Compiled(inst, tree)
            zs = list(range(1 << inst.n))
            for z in zs + zs[::-1]:
                try:
                    sim = AprimeSimulator(inst, tree, z)
                except ZeroConditioningMass:
                    with pytest.raises(ZeroConditioningMass):
                        compiled.walker(z)
                    continue
                for seed in range(4):
                    trace = outcome(compiled.run, z, seed)
                    assert trace == outcome(sim.run, seed)
                    assert isinstance(trace, str) or (trace.z, trace.rng_seed) == (z, seed)
                stream = outcome(compiled.walker(z).counts, random.Random(z), 200)
                assert stream == outcome(sim._walker.counts, random.Random(z), 200)

    def test_memory_stays_bounded_without_numpy_random(self):
        code = """if True:
            import sys, tracemalloc
            from fractions import Fraction
            from qclab import AprimeSimulator, Dist, Relation, build_instance, make_tree, xor_fn
            inst = build_instance(Relation.from_function(xor_fn(2)), xor_fn(2), Dist.uniform(2),
                                  Dist.uniform(2), epsilon=Fraction(1, 4), theta=Fraction(1, 2))
            tree = make_tree(4, (0, (1, (2, 0, 1), (3, 1, 0)), (2, (3, 0, 1), 1)))
            sim = AprimeSimulator(inst, tree, 1)

            def peak(samples):
                tracemalloc.start()
                sim.run_stream(samples, 7)
                out = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                return out

            print(peak(10_000), peak(200_000), "numpy.random" in sys.modules)
        """
        env = dict(os.environ, PYTHONPATH=str(Path(qclab.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        small, large = int(out[0]), int(out[1])
        assert out[2] == "False"
        assert large <= small + 16_384, (small, large)


class TestExactQ:
    def test_single_leaf(self):
        inst = xor_instance()
        assert exact_q(inst, make_tree(4, 1), 0) == {0: F(1)}

    def test_below_threshold_is_z_independent(self):
        inst = xor_instance()
        tree = make_tree(4, (0, 0, 1))  # one copy-0 query, under c = 2
        laws = [exact_q(inst, tree, z) for z in range(4)]
        assert all(law == laws[0] for law in laws)
        assert laws[0] == {0: F(1, 2), 1: F(1, 2)}

    def test_sums_to_one(self):
        rng = random.Random(67)
        inst = tilted_and_instance()
        for _ in range(10):
            tree = random_tree(rng, 2, 2, 2)
            for z in (0, 1):
                assert sum(exact_q(inst, tree, z).values()) == 1

    def test_matches_stepwise_enumeration(self):
        rng = random.Random(71)
        for inst in (xor_instance(), tilted_and_instance()):
            arity = inst.total_arity
            for _ in range(15):
                tree = random_tree(rng, arity, arity, 2)
                for z in range(1 << inst.n):
                    law = exact_q(inst, tree, z)
                    oracle = brute_simulation_law(inst, tree, z)
                    for lid, value in law.items():
                        assert value == oracle.get(lid, F(0))

    def test_prefix_without_restricted_mass_raises(self):
        inst = and_uniform_instance(n=2)
        tree = make_tree(4, (2, (3, 0, 1), (3, 1, 0)))  # both copy-1 bits
        for z in (0, 1):  # g = 0 has mass on x2 = 0 and on x2 = 1
            assert sum(exact_q(inst, tree, z).values()) == 1
        for z in (2, 3):  # g = 1 has none on x2 = 0
            with pytest.raises(ZeroConditioningMass, match="no mass on a copy-1 prefix"):
                exact_q(inst, tree, z)

    def test_zero_restriction_raises_where_used(self):
        inst = replace(and_uniform_instance(), mu=Dist.from_weights([1, 1, 1, 0]))
        tree = full_parity_tree(2)
        assert sum(exact_q(inst, tree, 0).values()) == 1
        for law in (exact_q, exact_p, AprimeSimulator):
            with pytest.raises(ZeroConditioningMass, match=r"Pr\[g=1\] = 0"):
                law(inst, tree, 1)
        assert set(snip_labels(inst, tree)) == {0, 1, 2, 3}

    def test_monte_carlo_agreement(self):
        inst = tilted_and_instance()
        tree = full_parity_tree(2)
        z = 1
        law = exact_q(inst, tree, z)
        samples = 20000
        counts = AprimeSimulator(inst, tree, z).run_stream(samples, seed=2024)
        for lid, prob in law.items():
            p = float(prob)
            sigma = (p * (1 - p) / samples) ** 0.5
            assert abs(counts.get(lid, 0) / samples - p) <= max(4 * sigma, 1e-9)


class TestExactP:
    def test_matches_flat_reach_probs(self):
        rng = random.Random(83)
        for inst in random_instances(rng, 9):
            for _ in range(3):
                tree = random_tree(rng, inst.total_arity, inst.total_arity, 2)
                for z in range(1 << inst.n):
                    flat = brute_reach_probs(tree, brute_gamma_z(inst, z))
                    assert exact_p(inst, tree, z) == flat


class TestSnipLabels:
    def test_flags_match_point_sums(self):
        rng = random.Random(89)
        cases = [
            (inst, random_tree(rng, inst.total_arity, inst.total_arity, 2))
            for inst in random_instances(rng, 9) for _ in range(3)
        ]
        # mu puts no mass on x1 = 0, a subcube of fewer than c = 2 answers
        dead_half = build_instance(
            rel(identity1()), xor_fn(3), Dist.from_weights([0, 1] * 4), Dist.uniform(1),
            epsilon=F(1, 4), theta=F(1, 2),
        )
        assert dead_half.inner_complexity == 2
        cases.append((dead_half, full_parity_tree(3)))
        zero_mass_seen = 0
        for inst, tree in cases:
            for theta in (inst.theta, F(0), F(1, 3)):
                assert snip_labels(inst, tree, theta) == brute_snip_labels(inst, tree, theta)
            zero_mass_seen += any(
                len(assigns) < inst.inner_complexity
                and subcube_prob(inst.mu, Subcube.from_mapping(inst.m, dict(assigns))) == 0
                for _, path in tree.leaf_paths()
                for k in range(len(path) + 1)
                for assigns in split_assignments(inst.block, path[:k])
            )
        # some path subcube that the flags must skip for want of mass
        assert zero_mass_seen

    def test_zero_threshold_flags_everything_touched_early(self):
        inst = tilted_and_instance()
        tree = make_tree(2, (0, 0, 1))
        flags = snip_labels(inst, tree, theta=F(0))
        assert all(f == (1,) for f in flags.values())

    def test_above_one_threshold_flags_nothing(self):
        inst = tilted_and_instance()
        tree = full_parity_tree(2)
        flags = snip_labels(inst, tree, theta=F(3, 2))
        assert all(f == (1 - 1,) for f in flags.values())

    def test_untouched_copy_unflagged(self):
        inst = xor_instance()
        tree = make_tree(4, (0, 0, 1))  # copy 1 never queried, bias 0 at root
        flags = snip_labels(inst, tree, theta=F(1, 8))
        assert all(f[1] == 0 for f in flags.values())

    def test_biased_cube_flagged(self):
        # AND2 under uniform at eps=1/8 has complexity 2; the x1=0 subcube is
        # constant-0, so its bias 1 crosses a 3/4 threshold while the root
        # bias 1/2 does not
        inst = build_instance(
            rel(identity1()), and_fn(2), Dist.uniform(2), Dist.uniform(1),
            epsilon=F(1, 8), theta=F(3, 4),
        )
        assert inst.inner_complexity == 2
        tree = full_parity_tree(2)
        flags = snip_labels(inst, tree)
        flagged = {lid for lid, f in flags.items() if f[0]}
        unflagged = set(flags) - flagged
        assert flagged and unflagged


class TestVerifySimileaf:
    def test_zero_bias_instance_is_exact(self):
        inst = xor_instance(theta=F(0))
        tree = full_parity_tree(4)
        report = verify_simileaf(inst, tree, z=1, theta=F(0))
        assert report.passed
        p = exact_p(inst, tree, 1)
        q = exact_q(inst, tree, 1)
        assert p == q

    def test_parametric_bounds_hold(self):
        rng = random.Random(73)
        inst = tilted_and_instance()
        for _ in range(10):
            tree = random_tree(rng, 2, 2, 2)
            for z in (0, 1):
                assert verify_simileaf(inst, tree, z).passed

    def test_hypothesis_guard(self):
        mu = Dist.from_weights([1, 1, 1, 5])
        inst = build_instance(
            rel(identity1()), and_fn(2), mu, Dist.uniform(1),
            epsilon=F(1, 4), theta=F(1, 8),
        )
        with pytest.raises(HypothesisViolated):
            verify_simileaf(inst, full_parity_tree(2), 0)


def snippy_instance():
    """m=3 inner function with complexity 2 at eps=7/16 whose full-support
    distribution leaves a codim-1 subcube with bias >= 1/2; theta = 1/2
    matches 2*sqrt(1/16)."""
    g = TruthTable(3, (0, 1, 0, 1, 1, 1, 1, 0))
    mu = Dist.from_weights([1, 1, 3, 6, 2, 1, 5, 8])
    return build_instance(
        rel(identity1()), g, mu, Dist.uniform(1),
        epsilon=F(7, 16), theta=F(1, 2),
    )


class TestVerifyLilsnip:
    def test_snip_free(self):
        # eps = 7/16 gives delta0 = 1/16, so theta = 1/2 matches 2*sqrt(delta0)
        inst = xor_instance(epsilon=F(7, 16), theta=F(1, 2))
        tree = full_parity_tree(4)
        report = verify_lilsnip(inst, tree, z=0)
        assert report.total_snipped_mass == 0
        assert report.passed

    def test_snipped_mass_bounded(self):
        inst = snippy_instance()
        assert inst.inner_complexity == 2
        snipped_seen = False
        for root_var in range(3):
            order = [root_var] + [v for v in range(3) if v != root_var]

            def build(vars_left, acc=0):
                if not vars_left:
                    return acc
                return (vars_left[0], build(vars_left[1:]), build(vars_left[1:]))

            tree = make_tree(3, build(order))
            for z in (0, 1):
                report = verify_lilsnip(inst, tree, z)
                assert report.passed
                if report.total_snipped_mass > 0:
                    snipped_seen = True
        assert snipped_seen

    def test_shared_laws_match_the_public_verifiers(self):
        # the per-z loop of `qclab verify`, which computes snip flags once
        # and exact_p once per z
        rng = random.Random(23)
        instances = [snippy_instance(), xor_instance(epsilon=F(7, 16), theta=F(1, 2)),
                     xor_instance(n=1, epsilon=F(7, 16), theta=F(1, 2))]
        tight = False  # q leaves the fixed 8/9..10/9 band of p somewhere
        for inst in instances:
            for tree in [full_parity_tree(inst.total_arity)] + [
                random_tree(rng, inst.total_arity, inst.total_arity, 2) for _ in range(3)
            ]:
                expected = [
                    (z, verify_simileaf(inst, tree, z), verify_lilsnip(inst, tree, z))
                    for z in range(1 << inst.n)
                ]
                assert list(_instance_checks(inst, tree)) == expected
                tight |= any(not sim.fixed_constants_hold for _, sim, _ in expected)
        assert tight
        for inst, message in ((xor_instance(theta=F(3, 4)), "theta must be at most 1/2"),
                              (xor_instance(epsilon=F(7, 16), theta=F(1, 4)), "2*sqrt")):
            with pytest.raises(HypothesisViolated, match=message):
                list(_instance_checks(inst, full_parity_tree(4)))

    def test_theta_mismatch_guard(self):
        inst = xor_instance(epsilon=F(7, 16), theta=F(1, 4))
        with pytest.raises(HypothesisViolated):
            verify_lilsnip(inst, full_parity_tree(4), 0)


def chain_by_leaves(inst, tree) -> ChainReport:
    """success_chain from the public per-leaf laws, one Fraction term per
    leaf and z."""
    c = inst.inner_complexity
    snips = snip_labels(inst, tree, inst.theta)
    z_queries = {
        leaf.leaf_id: sum(len(a) >= c for a in split_assignments(inst.block, path))
        for leaf, path in tree.leaf_paths()
    }
    outer = sim = snipped = expected = F(0)
    for z in range(1 << inst.n):
        w = inst.lam.prob(z)
        if w == 0:
            continue
        p, q = exact_p(inst, tree, z), exact_q(inst, tree, z)
        for leaf, _ in tree.leaf_paths():
            lid = leaf.leaf_id
            if leaf.label in inst.f.accepted[z]:
                outer += w * p[lid]
                sim += w * q[lid]
            if any(snips[lid]):
                snipped += w * p[lid]
            expected += w * q[lid] * z_queries[lid]
    bound = max(F(0), 1 - 4 * inst.theta) ** inst.n * (outer - snipped)
    return ChainReport(outer, sim, bound, sim >= bound, max(z_queries.values()), expected,
                       tree.depth() // c)


class TestSuccessChain:
    def test_matches_per_leaf_sums(self):
        def outcome(chain, inst, tree):
            try:
                return chain(inst, tree)
            except ZeroConditioningMass as exc:
                return str(exc)

        rng = random.Random(29)
        reports = 0
        for inst in random_instances(rng, 30):
            for depth in (inst.total_arity, 2):
                tree = random_tree(rng, inst.total_arity, depth, 2)
                got = outcome(success_chain, inst, tree)
                assert got == outcome(chain_by_leaves, inst, tree)
                reports += isinstance(got, ChainReport)
        assert reports >= 40

    def test_constant_algorithm(self):
        inst = xor_instance()
        tree = make_tree(4, 0)  # always answers 0
        report = success_chain(inst, tree)
        expected = sum(
            (inst.lam.prob(z) for z in range(4) if 0 in inst.f.accepted[z]), F(0)
        )
        assert report.success_outer == expected
        assert report.success_sim == expected
        assert report.worst_z_queries == 0
        assert report.passed

    def test_full_tree_chain(self):
        inst = xor_instance()
        tree = full_parity_tree(4)
        report = success_chain(inst, tree)
        assert report.success_sim >= report.lower_bound
        assert report.worst_z_queries <= report.budget
        assert report.passed

    def test_snip_free_bound_matches_factor(self):
        inst = xor_instance(theta=F(1, 16))
        tree = full_parity_tree(4)
        report = success_chain(inst, tree)
        assert report.lower_bound == (1 - 4 * F(1, 16)) ** 2 * report.success_outer
