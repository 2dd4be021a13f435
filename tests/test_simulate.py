import gc
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from functools import partial
from fractions import Fraction as F
from math import gcd
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
from qclab.simulate import AprimeSimulator, ChainReport, Simulation, _threshold
from qclab.walk import CHUNK

from _oracles import (
    _loop_walk,
    Blocks,
    brute_gamma_z,
    brute_reach_probs,
    brute_simulation_law,
    brute_snip_labels,
    compiled_nodes,
    fraction_simileaf,
    loop_q,
    loop_run,
    loop_run_stream,
    node_walker,
    random_relation,
    random_tree,
    random_truth_table,
    snip_dict,
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


def balanced_instances(rng, count):
    """Random instances whose inner distribution gives g = 0 and g = 1 equal
    mass, so that every theta meets simileaf's full-cube guard."""
    instances = []
    while len(instances) < count:
        n, m = rng.randint(1, 2), rng.randint(2, 3)
        g = random_truth_table(rng, m)
        weights = [rng.randrange(7) for _ in range(1 << m)]
        mass = [sum(w for x, w in enumerate(weights) if g.outputs[x] == b) for b in (0, 1)]
        try:
            inst = build_instance(
                random_relation(rng, n, 2), g,
                Dist.from_weights([w * mass[1 - g.outputs[x]] for x, w in enumerate(weights)]),
                Dist.from_weights([rng.randrange(1, 4) for _ in range(1 << n)]),
                epsilon=rng.choice([F(1, 8), F(1, 4), F(1, 3), F(7, 16)]),
                theta=rng.choice([F(1, 16), F(1, 8), F(1, 2)]),
            )
        except QclabError:  # no mass on one value of g, or complexity 0
            continue
        instances.append(inst)
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
        sim = Simulation(inst, tree)
        for z in range(4):
            for seed in range(20):
                trace = sim.run(z, seed)
                assert trace.z_queries == ()

    def test_threshold_bookkeeping(self):
        inst = xor_instance(n=1)
        # both copy-0 bits queried on every path: z read at the 2nd query
        tree = full_parity_tree(2)
        for z in (0, 1):
            trace = Simulation(inst, tree).run(z, seed=5)
            assert trace.z_queries == (0,)
            assert trace.per_copy_codims == (2,)
            assert trace.path_length == 2

    def test_determinism(self):
        inst = xor_instance()
        tree = full_parity_tree(4)
        assert Simulation(inst, tree).run(2, 99) == Simulation(inst, tree).run(2, 99)

    def test_budget_invariant(self):
        rng = random.Random(61)
        inst = xor_instance()
        for _ in range(10):
            tree = random_tree(rng, 4, 4, 2)
            budget = tree.depth() // inst.inner_complexity
            sim = Simulation(inst, tree)
            for z in range(4):
                for seed in range(5):
                    trace = sim.run(z, seed)
                    assert len(trace.z_queries) <= budget
                    assert len(set(trace.z_queries)) == len(trace.z_queries)
                    assert sum(trace.per_copy_codims) == trace.path_length


    def test_walk_into_dead_node_raises(self):
        # on z = 1 the second copy-0 query is sampled from the point mass on
        # 11, which has no mass on x0 = 0
        inst = and_uniform_instance()
        tree = make_tree(2, (0, (1, 0, 1), 1))
        sim = Simulation(inst, tree)
        seen = set()
        for seed in range(24):
            dead = random.Random(seed).getrandbits(128) >= 1 << 127  # Pr[x0 = 1] = 1/2
            seen.add(dead)
            if dead:
                with pytest.raises(ZeroConditioningMass, match="during simulation"):
                    sim.run(1, seed)
            else:
                assert sim.run(1, seed).leaf_id == 2
        assert seen == {False, True}
        with pytest.raises(ZeroConditioningMass, match="during simulation"):
            AprimeSimulator(inst, tree, 1).run_stream(50, seed=0)

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
        "p": lambda: Simulation(inst, tree).p(z),
        "q": lambda: Simulation(inst, tree).q(z),
        "snips": lambda: Simulation(inst, tree).snips(),
        "chain": lambda: Simulation(inst, tree).chain(),
        "simileaf": lambda: Simulation(inst, tree).simileaf(z),
        "lilsnip": lambda: Simulation(inst, tree).lilsnip(z),
        "walker": lambda: Simulation(inst, tree).walker(z),
        "run": lambda: Simulation(inst, tree).run(z, 0),
        "AprimeSimulator": lambda: AprimeSimulator(inst, tree, z),
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
        # the tree raises when it is made, so no simulator entry can see it
        with pytest.raises(QclabError, match=f"invalid decision tree: {violation}"):
            DecisionTree(4, root)

    def test_wrong_arity_raises_one_arity_mismatch(self):
        tree = make_tree(3, (0, 0, 1))
        messages = set()
        for call in public_entries(self.inst, tree, 1).values():
            with pytest.raises(ArityMismatch) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"tree arity does not match the instance"}

    @pytest.mark.parametrize("labels, bad", [((7, 1), 7), ((0, -1), -1), ((2, 3), 2)])
    def test_label_outside_f_alphabet_raises(self, labels, bad):
        # such a leaf is never accepted: the chain read "passed" on it
        tree = make_tree(4, (0, labels[0], labels[1]))
        for call in public_entries(self.inst, tree, 1).values():
            with pytest.raises(QclabError, match=f"^tree label {bad} is outside f's alphabet 0..1$"):
                call()

    @pytest.mark.parametrize("z", [4, -1])
    def test_out_of_range_z_raises(self, z):
        # z = 4 read as z = 0, and z = -1 as all ones
        entries = public_entries(self.inst, full_parity_tree(4), z)
        for name in ("p", "q", "simileaf", "lilsnip", "walker", "run", "AprimeSimulator"):
            with pytest.raises(QclabError, match=f"input {z} out of range"):
                entries[name]()

    def test_negative_seed_raises(self):
        # Random(-s) replays Random(s), so seed -1 would walk seed 1's draws
        sim = Simulation(self.inst, full_parity_tree(4))
        compiled = AprimeSimulator(self.inst, full_parity_tree(4), 3)
        runs = (lambda seed: sim.run(3, seed), lambda seed: compiled.run_stream(10, seed))
        for run in runs:
            for seed in (-1, -5):
                with pytest.raises(QclabError, match=f"^seed must be at least 0, got {seed}$"):
                    run(seed)
            run(0)  # the least seed allowed
        assert sum(compiled.run_stream(10, 0).values()) == 10


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
            walker = node_walker([(t, 1, 2), "child0", "child1"], 1)
            ends = np.concatenate(list(walker.ends(_Words(draws), len(draws))))
            assert ends.tolist() == [2 if d < t else 1 for d in draws]

    def test_streams_match_the_per_walk_loop(self):
        rng = random.Random(131)
        instances = random_instances(rng, 9) + [and_uniform_instance(n=2), tilted_and_instance()]
        seen = set()
        for inst in instances:
            arity = inst.total_arity
            for tree in (random_tree(rng, arity, arity, 2), full_parity_tree(arity)):
                compiled = Simulation(inst, tree)
                depths = {len(path) for _, path in tree.leaf_paths()}
                for z in range(1 << inst.n):
                    try:
                        sim = AprimeSimulator(inst, tree, z)
                    except ZeroConditioningMass:
                        continue
                    seen.add(("mixed depths", len(depths) > 1))
                    nodes = compiled_nodes(compiled, z)
                    thresholds = {node[0] for node in nodes if type(node) is tuple}
                    seen |= thresholds & {0, 1 << 128}
                    for samples in (0, 1, 3 * CHUNK + 5):
                        seed = rng.randrange(1 << 30)
                        got = outcome(sim.run_stream, samples, seed)
                        assert got == outcome(loop_run_stream, sim, samples, seed)
                        seen.add(type(got))
                    for seed in range(3):
                        trace = outcome(compiled.run, z, seed)
                        assert trace == outcome(loop_run, compiled, z, seed)
        assert seen == {("mixed depths", False), ("mixed depths", True), 0, 1 << 128, dict, str}

    def test_each_walk_reads_the_tree_depth_in_words(self):
        # leaves at depths 1 and 2, so D = 2: walk 1 ends at depth 1 and
        # leaves word 1 unread, and walk 2 starts at word 2; read from word
        # 1, walk 2 would end at node 2
        inst = xor_instance()
        tree = make_tree(4, (0, (2, 0, 1), 1))
        sim = Simulation(inst, tree)
        nodes = compiled_nodes(sim, 0)
        assert [node[0] for node in nodes[:2]] == [1 << 127] * 2  # x0 then x2, each 1/2
        low, high = 0, (1 << 128) - 1
        words = [low, high, high, low]
        ends = np.concatenate(list(sim.walker(0).ends(_Words(words), 2))).tolist()
        assert ends == [4, 3]
        source = _Words(words)
        assert [_loop_walk(nodes, sim.depth, source) for _ in ends] == [nodes[4], nodes[3]]

    def test_one_compiled_shape_serves_every_z(self):
        # qclab simulate compiles the tree once and runs every z on it, in
        # any order; each run matches the simulator compiled for its own z
        rng = random.Random(137)
        for inst in random_instances(rng, 6) + [and_uniform_instance(n=2)]:
            tree = random_tree(rng, inst.total_arity, inst.total_arity, 2)
            compiled = Simulation(inst, tree)
            zs = list(range(1 << inst.n))
            for z in zs + zs[::-1]:
                own = Simulation(inst, tree)
                try:
                    walker = own.walker(z)
                except ZeroConditioningMass:
                    with pytest.raises(ZeroConditioningMass):
                        compiled.walker(z)
                    continue
                for seed in range(4):
                    trace = outcome(compiled.run, z, seed)
                    assert trace == outcome(own.run, z, seed)
                    assert isinstance(trace, str) or (trace.z, trace.rng_seed) == (z, seed)
                stream = outcome(compiled.walker(z).counts, random.Random(z), 200)
                assert stream == outcome(walker.counts, random.Random(z), 200)

    def test_dropped_simulation_dies_without_the_cyclic_collector(self):
        # the compiled tree is freed on its last reference, not when the
        # collector next runs
        gc.disable()
        try:
            sim = Simulation(snippy_instance(), full_parity_tree(3))
            sim.chain(), sim.simileaf(1), sim.run(0, 5)
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()

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
        assert Simulation(inst, make_tree(4, 1)).q(0) == {0: F(1)}

    def test_below_threshold_is_z_independent(self):
        inst = xor_instance()
        tree = make_tree(4, (0, 0, 1))  # one copy-0 query, under c = 2
        laws = [Simulation(inst, tree).q(z) for z in range(4)]
        assert all(law == laws[0] for law in laws)
        assert laws[0] == {0: F(1, 2), 1: F(1, 2)}

    def test_sums_to_one(self):
        rng = random.Random(67)
        inst = tilted_and_instance()
        for _ in range(10):
            tree = random_tree(rng, 2, 2, 2)
            for z in (0, 1):
                assert sum(Simulation(inst, tree).q(z).values()) == 1

    def test_matches_stepwise_enumeration(self):
        rng = random.Random(71)
        for inst in (xor_instance(), tilted_and_instance()):
            arity = inst.total_arity
            for _ in range(15):
                tree = random_tree(rng, arity, arity, 2)
                sim = Simulation(inst, tree)
                for z in range(1 << inst.n):
                    law = sim.q(z)
                    oracle = brute_simulation_law(inst, tree, z)
                    for lid, value in law.items():
                        assert value == oracle.get(lid, F(0))

    def test_prefix_without_restricted_mass_raises(self):
        inst = and_uniform_instance(n=2)
        tree = make_tree(4, (2, (3, 0, 1), (3, 1, 0)))  # both copy-1 bits
        sim = Simulation(inst, tree)
        for z in (0, 1):  # g = 0 has mass on x2 = 0 and on x2 = 1
            assert sum(sim.q(z).values()) == 1
        for z in (2, 3):  # g = 1 has none on x2 = 0
            assert sum(sim.p(z).values()) == 1
            with pytest.raises(ZeroConditioningMass, match="no mass on a copy-1 prefix"):
                sim.q(z)

    def test_zero_restriction_raises_where_used(self):
        inst = replace(and_uniform_instance(), mu=Dist.from_weights([1, 1, 1, 0]))
        tree = full_parity_tree(2)
        sim = Simulation(inst, tree)
        assert sum(sim.q(0).values()) == 1
        for law in (sim.q, sim.p, sim.walker, partial(AprimeSimulator, inst, tree)):
            with pytest.raises(ZeroConditioningMass, match=r"Pr\[g=1\] = 0"):
                law(1)
        assert set(snip_dict(sim)) == {0, 1, 2, 3}

    def test_monte_carlo_agreement(self):
        inst = tilted_and_instance()
        tree = full_parity_tree(2)
        z = 1
        law = Simulation(inst, tree).q(z)
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
                sim = Simulation(inst, tree)
                for z in range(1 << inst.n):
                    flat = brute_reach_probs(tree, brute_gamma_z(inst, z))
                    assert sim.p(z) == flat


class TestLawRows:
    def test_rows_match_the_brute_laws(self):
        # the rows gather each leaf's masses per copy; the oracles walk the
        # tree or sum the flat distribution, and the loop raises where q does
        rng = random.Random(89)
        seen = set()
        for inst in random_instances(rng, 12):
            seen.add(("den^n >= 2^63", inst.g_masses[2] ** inst.n >= 1 << 63))
            for _ in range(3):
                tree = random_tree(rng, inst.total_arity, inst.total_arity, 2)
                sim = Simulation(inst, tree)
                ids = sim.leaf_ids
                for z in range(1 << inst.n):
                    expected = outcome(loop_q, sim, z)
                    rows = outcome(sim.rows, z)
                    seen.add(type(rows))
                    if isinstance(expected, str):
                        assert rows == expected
                        continue
                    p_nums, p_dens, q_nums, q_dens = rows
                    flat = brute_reach_probs(tree, brute_gamma_z(inst, z))
                    law = brute_simulation_law(inst, tree, z)
                    q = [F(n, d) for n, d in zip(q_nums, q_dens)]
                    assert [F(n, d) for n, d in zip(p_nums, p_dens)] == [flat[i] for i in ids]
                    assert q == [law.get(i, F(0)) for i in ids] == [expected[i] for i in ids]
                    assert all(gcd(n, d) == 1 for n, d in zip(p_nums + q_nums, p_dens + q_dens))
                    seen.add(("p = 0 somewhere", 0 in p_nums))
        assert {("den^n >= 2^63", True), ("p = 0 somewhere", True), tuple, str} <= seen


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
                flags = snip_dict(Simulation(inst, tree), theta)
                assert flags == brute_snip_labels(inst, tree, theta)
            zero_mass_seen += any(
                len(assigns) < inst.inner_complexity
                and subcube_prob(inst.mu, Subcube.from_mapping(inst.m, dict(assigns))) == 0
                for _, path in tree.leaf_paths()
                for k in range(len(path) + 1)
                for assigns in split_assignments(Blocks(inst.n, inst.m), path[:k])
            )
        # some path subcube that the flags must skip for want of mass
        assert zero_mass_seen

    def test_zero_threshold_flags_everything_touched_early(self):
        inst = tilted_and_instance()
        tree = make_tree(2, (0, 0, 1))
        flags = snip_dict(Simulation(inst, tree), theta=F(0))
        assert all(f == (1,) for f in flags.values())

    def test_above_one_threshold_flags_nothing(self):
        inst = tilted_and_instance()
        tree = full_parity_tree(2)
        flags = snip_dict(Simulation(inst, tree), theta=F(3, 2))
        assert all(f == (1 - 1,) for f in flags.values())

    def test_untouched_copy_unflagged(self):
        inst = xor_instance()
        tree = make_tree(4, (0, 0, 1))  # copy 1 never queried, bias 0 at root
        flags = snip_dict(Simulation(inst, tree), theta=F(1, 8))
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
        flags = snip_dict(Simulation(inst, tree))
        flagged = {lid for lid, f in flags.items() if f[0]}
        unflagged = set(flags) - flagged
        assert flagged and unflagged


class TestVerifySimileaf:
    def test_zero_bias_instance_is_exact(self):
        inst = xor_instance(theta=F(0))
        tree = full_parity_tree(4)
        sim = Simulation(inst, tree)
        assert sim.simileaf(z=1, theta=F(0)).passed
        assert sim.p(1) == sim.q(1)

    def test_parametric_bounds_hold(self):
        rng = random.Random(73)
        inst = tilted_and_instance()
        for _ in range(10):
            tree = random_tree(rng, 2, 2, 2)
            for z in (0, 1):
                assert Simulation(inst, tree).simileaf(z).passed

    def test_matches_the_fraction_check(self):
        # at theta 0 every leaf is snipped, so a Simulation that flags no
        # copy is asked too: then every leaf with q != p is a violation
        class Unsnipped(Simulation):
            def snips(self, theta=None):
                return np.zeros_like(super().snips(theta))

        def answer(check, *args):
            try:
                return repr(check(*args))
            except QclabError as exc:
                return repr(exc)

        rng = random.Random(97)
        instances = random_instances(rng, 12) + balanced_instances(rng, 12)
        seen = {"violations": 0, "fixed band left": 0}
        for inst in instances:
            for _ in range(3):
                tree = random_tree(rng, inst.total_arity, inst.total_arity, 2)
                for sim in (Simulation(inst, tree), Unsnipped(inst, tree)):
                    for z in range(1 << inst.n):
                        for theta in (None, F(0)):
                            got = answer(sim.simileaf, z, theta)
                            assert got == answer(fraction_simileaf, sim, z, theta)
                            seen["violations"] += "violations=((" in got
                            seen["fixed band left"] += "fixed_constants_hold=False" in got
        assert all(seen.values()), seen

    def test_hypothesis_guard(self):
        mu = Dist.from_weights([1, 1, 1, 5])
        inst = build_instance(
            rel(identity1()), and_fn(2), mu, Dist.uniform(1),
            epsilon=F(1, 4), theta=F(1, 8),
        )
        with pytest.raises(HypothesisViolated):
            Simulation(inst, full_parity_tree(2)).simileaf(0)


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
        report = Simulation(inst, tree).lilsnip(z=0)
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
                report = Simulation(inst, tree).lilsnip(z)
                assert report.passed
                if report.total_snipped_mass > 0:
                    snipped_seen = True
        assert snipped_seen

    def test_shared_laws_match_the_public_verifiers(self):
        # one Simulation asked in any order, and asked again, answers as a
        # fresh Simulation per call: the records it keeps change no answer
        asks = [lambda sim, z: sim.p(z), lambda sim, z: sim.q(z),
                lambda sim, z: sim.simileaf(z), lambda sim, z: sim.lilsnip(z),
                lambda sim, z: sim.chain()]

        def answer(ask, sim, z):
            try:
                return repr(ask(sim, z))
            except QclabError as exc:
                return repr(exc)

        rng, order = random.Random(23), random.Random(29)
        instances = [snippy_instance(), xor_instance(epsilon=F(7, 16), theta=F(1, 2)),
                     xor_instance(n=1, epsilon=F(7, 16), theta=F(1, 2))]
        tight = False  # q leaves the fixed 8/9..10/9 band of p somewhere
        for inst in instances:
            for tree in [full_parity_tree(inst.total_arity)] + [
                random_tree(rng, inst.total_arity, inst.total_arity, 2) for _ in range(3)
            ]:
                shared = Simulation(inst, tree)
                zs = list(range(1 << inst.n))
                for z in zs[::-1] + zs + zs:
                    order.shuffle(asks)
                    for ask in asks:
                        assert answer(ask, shared, z) == answer(ask, Simulation(inst, tree), z)
                    tight |= not shared.simileaf(z).fixed_constants_hold
        assert tight
        for inst, message in ((xor_instance(theta=F(3, 4)), "theta must be at most 1/2"),
                              (xor_instance(epsilon=F(7, 16), theta=F(1, 4)), "2*sqrt")):
            simulation = Simulation(inst, full_parity_tree(4))
            with pytest.raises(HypothesisViolated, match=message):
                for z in range(1 << inst.n):  # as `qclab verify --tree` asks
                    simulation.simileaf(z)
                    simulation.lilsnip(z)

    def test_theta_mismatch_guard(self):
        inst = xor_instance(epsilon=F(7, 16), theta=F(1, 4))
        with pytest.raises(HypothesisViolated):
            Simulation(inst, full_parity_tree(4)).lilsnip(0)


def chain_by_leaves(inst, tree) -> ChainReport:
    """``Simulation.chain`` from the public per-leaf laws, one Fraction
    term per leaf and z."""
    c = inst.inner_complexity
    snips = brute_snip_labels(inst, tree, inst.theta)
    z_queries = {
        leaf.leaf_id: sum(len(a) >= c for a in split_assignments(Blocks(inst.n, inst.m), path))
        for leaf, path in tree.leaf_paths()
    }
    outer = sim = snipped = expected = F(0)
    for z in range(1 << inst.n):
        w = inst.lam.prob(z)
        if w == 0:
            continue
        p, q = Simulation(inst, tree).p(z), Simulation(inst, tree).q(z)
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
                got = outcome(lambda inst, tree: Simulation(inst, tree).chain(), inst, tree)
                assert got == outcome(chain_by_leaves, inst, tree)
                reports += isinstance(got, ChainReport)
        assert reports >= 40

    def test_constant_algorithm(self):
        inst = xor_instance()
        tree = make_tree(4, 0)  # always answers 0
        report = Simulation(inst, tree).chain()
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
        report = Simulation(inst, tree).chain()
        assert report.success_sim >= report.lower_bound
        assert report.worst_z_queries <= report.budget
        assert report.passed

    def test_snip_free_bound_matches_factor(self):
        inst = xor_instance(theta=F(1, 16))
        tree = full_parity_tree(4)
        report = Simulation(inst, tree).chain()
        assert report.lower_bound == (1 - 4 * F(1, 16)) ** 2 * report.success_outer
