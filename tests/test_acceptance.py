"""Acceptance suite: the ten headline checks, one test and one printed
pass/fail line each.  Everything verdict-bearing is exact rational
arithmetic; Monte-Carlo agreement is the only statistical check and gets a
single retry."""

import random
from fractions import Fraction as F

import pytest

from qclab.core import (
    Dist,
    Relation,
    TruthTable,
    and_fn,
    bias,
    identity1,
    maj3,
    xor_fn,
)
from qclab.complexity import best_success, dist_complexity, rand_complexity
from qclab.compose import build_instance, xor_stack
from qclab.dtree import make_tree
from qclab.simulate import AprimeSimulator, Simulation
from qclab.sweeps import sweep_fullbias, sweep_rbias, sweep_unbias

from _oracles import (
    Blocks,
    brute_best_success,
    brute_simulation_law,
    random_dist,
    random_full_support_dist,
    random_relation,
    random_tree,
    random_truth_table,
)

SEED = 20240824


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def full_tree(arity, order=None):
    order = list(range(arity)) if order is None else list(order)

    def build(vars_left, acc=0):
        if not vars_left:
            return acc
        return (vars_left[0], build(vars_left[1:], acc), build(vars_left[1:], acc ^ 1))

    return make_tree(arity, build(order))


def _random_instance(rng, with_full_support=True):
    """A random composed instance with nm <= 10 and positive inner complexity."""
    while True:
        m = rng.choice([1, 2, 3])
        n = rng.choice([1, 2, 3])
        g = random_truth_table(rng, m)
        if len(set(g.outputs)) == 1:
            continue
        mu = (
            random_full_support_dist(rng, m)
            if with_full_support else random_dist(rng, m)
        )
        eps = rng.choice([F(1, 4), F(1, 3), F(7, 16)])
        f = random_relation(rng, n, 2)
        try:
            return build_instance(f, g, mu, Dist.uniform(n), epsilon=eps, theta=F(1, 2))
        except Exception:
            continue


@pytest.fixture(scope="module")
def simulation_fixtures():
    """50 random instances with a random outer tree each, shared between the
    simulator-exactness and query-budget criteria."""
    rng = random.Random(SEED)
    fixtures = []
    for _ in range(50):
        inst = _random_instance(rng)
        tree = random_tree(rng, inst.total_arity, inst.total_arity, 2)
        fixtures.append((inst, tree))
    return fixtures


def test_criterion_1_unbias_sweep():
    result = sweep_unbias()
    report(
        "1 (claim unbias sweep)",
        result.passed and result.cases > 0,
        f"{result.cases} subcube checks, {len(result.violations)} violations",
    )


def test_criterion_2_rbias_sweep():
    result = sweep_rbias()
    report(
        "2 (claim shallow-high-bias-leaf sweep)",
        result.passed and result.cases > 0,
        f"{result.cases} leaf-event checks, {len(result.violations)} violations",
    )


def test_criterion_3_fullbias_sweep():
    result = sweep_fullbias()
    report(
        "3 (positive-complexity bias proposition sweep)",
        result.passed and result.cases > 0,
        f"{result.cases} checks, {len(result.violations)} violations",
    )


def test_criterion_4_dp_vs_enumeration():
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(500):
        arity = rng.choice([2, 3, 4])
        if rng.random() < 0.5:
            h = random_relation(rng, arity, rng.choice([2, 3]))
        else:
            h = random_truth_table(rng, arity)
        mu = random_dist(rng, arity)
        depth = rng.randrange(min(arity, 3) + 1)
        dp = best_success(h, mu, depth).success
        if dp != brute_best_success(h, mu, depth):
            mismatches += 1
    report(
        "4 (exact DP vs tree enumeration)",
        mismatches == 0,
        f"500 fixtures, {mismatches} mismatches",
    )


def test_criterion_5_minimax_consistency():
    rng = random.Random(SEED)
    eps = F(1, 3)
    functions = [identity1(), xor_fn(2), and_fn(2), maj3()]
    failures = []
    for g in functions:
        result = rand_complexity(g, eps)
        certified = dist_complexity(g, result.hard_dist, eps)
        if certified < result.depth or result.certified_depth != certified:
            failures.append((g.outputs, "certificate"))
        for _ in range(100):
            mu = random_dist(rng, g.arity)
            if dist_complexity(g, mu, eps) > result.depth:
                failures.append((g.outputs, "sampled mu exceeded depth"))
                break
    report(
        "5 (minimax consistency)",
        not failures,
        f"4 functions x 100 distributions, failures: {failures}",
    )


def test_criterion_6_simulator_exactness(simulation_fixtures):
    mismatches = 0
    for inst, tree in simulation_fixtures:
        sim = Simulation(inst, tree)
        for z in range(1 << inst.n):
            law = sim.q(z)
            oracle = brute_simulation_law(inst, tree, z)
            if any(v != oracle.get(lid, F(0)) for lid, v in law.items()):
                mismatches += 1
    mc_failures = 0
    samples = 100_000
    for idx, (inst, tree) in enumerate(simulation_fixtures[:10]):
        z = 0
        law = Simulation(inst, tree).q(z)
        sim = AprimeSimulator(inst, tree, z)
        for attempt in range(2):  # one retry allowed
            counts = sim.run_stream(samples, seed=SEED + idx + 1000 * attempt)
            ok = True
            for lid, prob in law.items():
                p = float(prob)
                sigma = (p * (1 - p) / samples) ** 0.5
                if abs(counts.get(lid, 0) / samples - p) > max(4 * sigma, 1e-12):
                    ok = False
            if ok:
                break
        else:
            mc_failures += 1
    report(
        "6 (simulator exactness)",
        mismatches == 0 and mc_failures == 0,
        f"50 instances enumerated exactly ({mismatches} mismatches), "
        f"10 Monte-Carlo runs at {samples} samples ({mc_failures} outside 4 sigma)",
    )


def test_criterion_7_query_budget(simulation_fixtures):
    rng = random.Random(SEED + 7)
    violations = 0
    traces = 0
    for inst, tree in simulation_fixtures:
        budget = tree.depth() // inst.inner_complexity
        simulation = Simulation(inst, tree)
        for z in range(1 << inst.n):
            for _ in range(4):
                trace = simulation.run(z, rng.randrange(1 << 30))
                traces += 1
                if len(trace.z_queries) > budget:
                    violations += 1
        chain = simulation.chain()
        if chain.worst_z_queries > chain.budget:
            violations += 1
    report(
        "7 (inner-query budget)",
        violations == 0,
        f"{traces} traces plus exact worst cases, {violations} over budget",
    )


def _hypothesis_instances():
    """Instances with theta = 2*sqrt(delta0), eps >= 1/4, full-cube bias
    <= theta, nm <= 10."""
    instances = []
    xor_rel = Relation.from_function(xor_fn(2))
    id_rel = Relation.from_function(identity1())
    # delta0 = 1/16: theta = 1/2
    for n in (1, 2):
        f = id_rel if n == 1 else xor_rel
        instances.append(build_instance(
            f, xor_fn(2), Dist.uniform(2), Dist.uniform(n),
            epsilon=F(7, 16), theta=F(1, 2),
        ))
    # delta0 = 1/16 with snipped leaves: a searched full-support m=3 fixture
    # with a codimension-1 subcube of bias >= 1/2
    g = TruthTable(3, (0, 1, 0, 1, 1, 1, 1, 0))
    mu = Dist.from_weights([1, 1, 3, 6, 2, 1, 5, 8])
    instances.append(build_instance(
        id_rel, g, mu, Dist.uniform(1), epsilon=F(7, 16), theta=F(1, 2),
    ))
    # delta0 = 1/256: theta = 1/8, near-balanced inner distribution
    mu = Dist.from_weights([65, 64, 64, 65])
    for n in (1, 2):
        f = id_rel if n == 1 else xor_rel
        instances.append(build_instance(
            f, xor_fn(2), mu, Dist.uniform(n),
            epsilon=F(127, 256), theta=F(1, 8),
        ))
    return instances


def test_criterion_8_simileaf_lilsnip_chain():
    rng = random.Random(SEED + 8)
    violations = []
    checked = 0
    snipped_leaves = 0
    for inst in _hypothesis_instances():
        arity = inst.total_arity
        # full trees rooted at every variable so each codim-1 subcube shows
        # up as a path node, plus a few random shapes
        trees = [
            full_tree(arity, [v] + [u for u in range(arity) if u != v])
            for v in range(arity)
        ]
        trees += [random_tree(rng, arity, arity, 2) for _ in range(3)]
        for tree in trees:
            simulation = Simulation(inst, tree)
            for z in range(1 << inst.n):
                sim = simulation.simileaf(z)
                lil = simulation.lilsnip(z)
                checked += sim.checked_leaves
                snipped_leaves += sim.snipped_leaves
                if not sim.passed:
                    violations.append(("simileaf", z, sim.violations))
                if not lil.passed:
                    violations.append(("lilsnip", z))
            chain = simulation.chain()
            if chain.success_sim < chain.lower_bound:
                violations.append(("chain", chain))
    report(
        "8 (parametric leaf distortion and snipped mass)",
        not violations and snipped_leaves > 0,
        f"{checked} snip-free leaves checked, {snipped_leaves} snipped, "
        f"violations: {violations}",
    )


def test_criterion_9_xor_stack():
    rng = random.Random(SEED + 9)
    table_errors = 0
    for m, t in ((1, 12), (1, 5), (2, 6), (2, 3), (3, 4), (4, 3)):
        g = random_truth_table(rng, m)
        stacked = xor_stack(g, t)
        block = Blocks(t, m)
        for x in range(1 << (t * m)):
            expected = 0
            for i in range(t):
                expected ^= g.outputs[block.extract(x, i)]
            if stacked.outputs[x] != expected:
                table_errors += 1
    eps = F(1, 2) - F(1, 16)
    depths = [rand_complexity(xor_stack(identity1(), t), eps).depth for t in (1, 2, 3)]
    monotone = depths == sorted(depths)
    report(
        "9 (XOR stack)",
        table_errors == 0 and monotone,
        f"tables exact up to 12 bits ({table_errors} errors), "
        f"depths at eps=7/16 for t=1,2,3: {depths}",
    )


def test_criterion_10_known_values():
    r_id = rand_complexity(identity1(), F(1, 3)).depth
    r_xor = rand_complexity(xor_fn(2), F(1, 3)).depth
    d_and = dist_complexity(and_fn(2), Dist.uniform(2), F(1, 3))
    ok = (r_id, r_xor, d_and) == (1, 2, 0)
    report(
        "10 (known values)",
        ok,
        f"randomized depth(identity)={r_id}, randomized depth(xor2)={r_xor}, "
        f"uniform distributional depth(and2)={d_and}",
    )
