"""The randomized simulation of an outer tree by an inner-query-frugal
algorithm, snip labeling, and exact verifiers for the finite claims the
composition argument rests on.

Simulation semantics (per copy i, with c = inner complexity):

* the first ``c - 1`` branch outcomes in copy i are sampled from the
  conditional marginals of the unrestricted inner distribution;
* at the c-th query into copy i the input bit ``z_i`` is read, and that and
  all later copy-i outcomes are sampled from the conditional marginals of
  the inner distribution restricted to ``g = z_i``.

Branch decisions compare an exact rational threshold against a 128-bit
uniform integer drawn from a seeded Mersenne Twister, so the only sampling
bias is below 2^-128 per branch and identical seeds give identical traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import lattice
from .core import (
    ArityMismatch,
    Dist,
    HypothesisViolated,
    QclabError,
    Subcube,
    TruthTable,
    ZeroConditioningMass,
    bias,
    subcube_prob,
)
from .complexity import dist_complexity
from .compose import ComposedInstance
from .dtree import DecisionTree, Leaf

ZERO = Fraction(0)
ONE = Fraction(1)


def _cube_mass(dist: Dist, assigns: dict) -> Fraction:
    return subcube_prob(dist, Subcube.from_mapping(dist.arity, assigns))


# ---------------------------------------------------------------------------
# the simulation


@dataclass(frozen=True)
class SimulationTrace:
    z: int
    leaf_id: int
    output: int
    z_queries: tuple[int, ...]       # copy indices in query order
    per_copy_codims: tuple[int, ...]
    path_length: int
    rng_seed: int


class _CNode:
    __slots__ = ("copy", "p1", "query_z", "dead", "child0", "child1")

    def __init__(self, copy, p1, query_z, dead, child0, child1):
        self.copy = copy
        self.p1 = p1
        self.query_z = query_z
        self.dead = dead
        self.child0 = child0
        self.child1 = child1


class _CLeaf:
    __slots__ = ("label", "leaf_id", "per_copy_codims", "path_length")

    def __init__(self, label, leaf_id, per_copy_codims, path_length):
        self.label = label
        self.leaf_id = leaf_id
        self.per_copy_codims = per_copy_codims
        self.path_length = path_length


class AprimeSimulator:
    """Compiled simulation of one outer tree on one input ``z``.

    All branch thresholds are precomputed once, so repeated runs only walk
    the tree and draw random bits.
    """

    def __init__(self, inst: ComposedInstance, tree: DecisionTree, z: int):
        if tree.arity != inst.total_arity:
            raise QclabError("tree arity does not match the instance")
        if not 0 <= z < (1 << inst.n):
            raise QclabError(f"input {z} out of range")
        tree.require_valid()
        self.inst = inst
        self.tree = tree
        self.z = z
        self.c = inst.inner_complexity
        mu_z = [inst.mu_z((z >> i) & 1) for i in range(inst.n)]

        def compile_node(node, assigns, counts, depth):
            if isinstance(node, Leaf):
                codims = tuple(counts)
                return _CLeaf(node.label, node.leaf_id, codims, depth)
            i, j = inst.block.copy_of(node.query_var)
            nth = counts[i] + 1  # this is the nth query into copy i
            regime = inst.mu if nth <= self.c - 1 else mu_z[i]
            denom = _cube_mass(regime, assigns[i])
            dead = denom == 0
            p1 = None
            if not dead:
                hi = dict(assigns[i])
                hi[j] = 1
                p1 = _cube_mass(regime, hi) / denom
            children = []
            for b, child in ((0, node.child0), (1, node.child1)):
                sub = [dict(a) for a in assigns]
                sub[i][j] = b
                sub_counts = list(counts)
                sub_counts[i] += 1
                children.append(compile_node(child, sub, sub_counts, depth + 1))
            return _CNode(i, p1, nth == self.c, dead, children[0], children[1])

        self.root = compile_node(
            tree.root, [dict() for _ in range(inst.n)], [0] * inst.n, 0
        )

    def _walk(self, rng: random.Random, seed: int) -> SimulationTrace:
        node = self.root
        z_queries: list[int] = []
        while isinstance(node, _CNode):
            if node.dead:
                raise ZeroConditioningMass(
                    "conditioning event has zero probability during simulation"
                )
            if node.query_z:
                z_queries.append(node.copy)
            p1 = node.p1
            draw = rng.getrandbits(128)
            go1 = draw * p1.denominator < p1.numerator << 128
            node = node.child1 if go1 else node.child0
        return SimulationTrace(
            z=self.z,
            leaf_id=node.leaf_id,
            output=node.label,
            z_queries=tuple(z_queries),
            per_copy_codims=node.per_copy_codims,
            path_length=node.path_length,
            rng_seed=seed,
        )

    def run(self, seed: int) -> SimulationTrace:
        return self._walk(random.Random(seed), seed)

    def run_stream(self, samples: int, seed: int) -> dict[int, int]:
        """Leaf-id frequency counts over ``samples`` runs sharing one seeded
        random stream."""
        rng = random.Random(seed)
        counts: dict[int, int] = {}
        for _ in range(samples):
            trace = self._walk(rng, seed)
            counts[trace.leaf_id] = counts.get(trace.leaf_id, 0) + 1
        return counts


def run_Aprime(inst: ComposedInstance, tree: DecisionTree, z: int, seed: int) -> SimulationTrace:
    return AprimeSimulator(inst, tree, z).run(seed)


def best_fixed_seed(
    inst: ComposedInstance, tree: DecisionTree, seed_budget: int
) -> tuple[int, Fraction]:
    """Empirical derandomization: run the simulation once per seed on every
    outer input and keep the seed with the highest weighted success.

    The returned success rate is an observed upper-bound artifact, not an
    exact quantity; one run per (seed, z) is all that a fixed seed gets.
    """
    if seed_budget < 1:
        raise QclabError("seed budget must be >= 1")
    sims = {
        z: AprimeSimulator(inst, tree, z)
        for z in range(1 << inst.n)
        if inst.lam.prob(z) > 0
    }
    best_seed, best_rate = 0, Fraction(-1)
    for seed in range(seed_budget):
        rate = ZERO
        for z, sim in sims.items():
            trace = sim.run(seed)
            if trace.output in inst.f.accepted[z]:
                rate += inst.lam.prob(z)
        if rate > best_rate:
            best_seed, best_rate = seed, rate
    return best_seed, best_rate


# ---------------------------------------------------------------------------
# exact leaf distributions


def exact_q(inst: ComposedInstance, tree: DecisionTree, z: int) -> dict[int, Fraction]:
    """Exact probability of the simulation on ``z`` terminating at each leaf.

    Per copy the probability factors as: mass of the first
    ``min(d, c - 1)`` outcomes under the unrestricted distribution, times
    the conditional mass of the remaining outcomes under the restricted
    distribution (an empty remainder contributes 1).
    """
    c = inst.inner_complexity
    mu = inst.mu
    mu_z = [inst.mu_z((z >> i) & 1) for i in range(inst.n)]
    out: dict[int, Fraction] = {}
    for leaf, path in tree.leaf_paths():
        q = ONE
        for i, assigns in enumerate(inst.block.split_assignments(path)):
            prefix = dict(assigns[: c - 1])
            full = dict(assigns)
            mu_prefix = _cube_mass(mu, prefix)
            if mu_prefix == 0:
                q = ZERO
                break
            factor = mu_prefix
            if len(assigns) >= c:
                rest_denom = _cube_mass(mu_z[i], prefix)
                if rest_denom == 0:
                    raise ZeroConditioningMass(
                        f"restricted distribution has no mass on a copy-{i} prefix"
                    )
                factor *= _cube_mass(mu_z[i], full) / rest_denom
            q *= factor
            if q == 0:
                break
        out[leaf.leaf_id] = q
    return out


def exact_p(inst: ComposedInstance, tree: DecisionTree, z: int) -> dict[int, Fraction]:
    """Exact leaf-reach probabilities of the outer tree on an input drawn
    from the per-z product distribution."""
    from .dtree import reach_probs_product

    mu_z = [inst.mu_z((z >> i) & 1) for i in range(inst.n)]
    return reach_probs_product(tree, inst.block, mu_z)


# ---------------------------------------------------------------------------
# snip labeling


def snip_labels(
    inst: ComposedInstance, tree: DecisionTree, theta: Optional[Fraction] = None
) -> dict[int, tuple[int, ...]]:
    """Per-leaf, per-copy flags: a copy is flagged when some path node shows
    that copy at codimension below the inner complexity with bias at least
    ``theta``.  Path subcubes with zero inner-distribution mass are skipped:
    no probability ever flows through them."""
    theta = inst.theta if theta is None else Fraction(theta)
    c = inst.inner_complexity
    out: dict[int, tuple[int, ...]] = {}

    def copy_flag(assigns: dict) -> bool:
        if len(assigns) >= c:
            return False
        cube = Subcube.from_mapping(inst.m, assigns)
        if subcube_prob(inst.mu, cube) == 0:
            return False
        return bias(inst.g, inst.mu, cube) >= theta

    def walk(node, assigns: list[dict], flags: tuple[int, ...]):
        if isinstance(node, Leaf):
            out[node.leaf_id] = flags
            return
        i, j = inst.block.copy_of(node.query_var)
        for b, child in ((0, node.child0), (1, node.child1)):
            sub = [dict(a) for a in assigns]
            sub[i][j] = b
            new_flags = flags
            if not flags[i] and copy_flag(sub[i]):
                new_flags = flags[:i] + (1,) + flags[i + 1:]
            walk(child, sub, new_flags)

    root_flags = tuple(
        1 if copy_flag({}) else 0 for _ in range(inst.n)
    )
    walk(tree.root, [dict() for _ in range(inst.n)], root_flags)
    return out


@dataclass(frozen=True)
class LeafReport:
    leaf_id: int
    p: Fraction
    q: Fraction
    snip_flags: tuple[int, ...]
    bias_trace: tuple

    @property
    def snip(self) -> int:
        return 1 if any(self.snip_flags) else 0


def leaf_reports(
    inst: ComposedInstance, tree: DecisionTree, z: int, theta: Optional[Fraction] = None
) -> dict[int, LeafReport]:
    """Assemble the per-leaf record: reach probabilities under both laws,
    snip flags, and the per-path-node per-copy bias trace."""
    p = exact_p(inst, tree, z)
    q = exact_q(inst, tree, z)
    snips = snip_labels(inst, tree, theta)
    traces: dict[int, tuple] = {}

    def node_biases(assigns: list[dict]) -> tuple:
        row = []
        for a in assigns:
            cube = Subcube.from_mapping(inst.m, a)
            if subcube_prob(inst.mu, cube) == 0:
                row.append(None)
            else:
                row.append(bias(inst.g, inst.mu, cube))
        return tuple(row)

    def walk(node, assigns, trace):
        trace = trace + (node_biases(assigns),)
        if isinstance(node, Leaf):
            traces[node.leaf_id] = trace
            return
        i, j = inst.block.copy_of(node.query_var)
        for b, child in ((0, node.child0), (1, node.child1)):
            sub = [dict(a) for a in assigns]
            sub[i][j] = b
            walk(child, sub, trace)

    walk(tree.root, [dict() for _ in range(inst.n)], ())
    return {
        lid: LeafReport(lid, p[lid], q[lid], snips[lid], traces[lid])
        for lid in p
    }


# ---------------------------------------------------------------------------
# claim verifiers


def _g_masses(g: TruthTable, mu: Dist) -> tuple[list, list, int]:
    """Mass of g=0 and of g=1 on every subcube of the lattice, as integer
    numerators over the common denominator of ``mu``."""
    if g.arity != mu.arity:
        raise ArityMismatch(f"arity mismatch: {g.arity} != {mu.arity}")
    weights, den = lattice.int_weights(mu)
    ones = np.array(g.outputs, dtype=bool)
    m0, m1 = lattice.masses(np.stack((weights * ~ones, weights * ones)), g.arity).tolist()
    return m0, m1, den


@dataclass(frozen=True)
class UnbiasReport:
    delta: Fraction
    checked: int
    violations: tuple
    min_ratio: Optional[Fraction]
    max_ratio: Optional[Fraction]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_unbias(g: TruthTable, mu: Dist, delta) -> UnbiasReport:
    """Check, over every subcube with positive mass and bias at most delta,
    that the unrestricted mass of the subcube is within a (1 +- 4*delta)
    factor of its mass under either restriction of the distribution."""
    delta = Fraction(delta)
    if not 0 < delta <= Fraction(1, 2):
        raise HypothesisViolated("delta must lie in (0, 1/2]")
    m0, m1, den = _g_masses(g, mu)
    mass_b = (m0[0], m1[0])  # index 0 is the full cube
    if Fraction(abs(mass_b[0] - mass_b[1]), den) > delta:
        raise HypothesisViolated("full-cube bias exceeds delta")
    hi = 1 + 4 * delta
    lo = 1 - 4 * delta
    violations = []
    checked = 0
    ratios = []
    for index, (c0, c1) in enumerate(zip(m0, m1)):
        if c0 + c1 == 0 or Fraction(abs(c0 - c1), c0 + c1) > delta:
            continue
        checked += 1
        pc = Fraction(c0 + c1, den)
        fixed = lattice.assignment(index, g.arity)
        for b, cube_b in ((0, c0), (1, c1)):
            pb = Fraction(cube_b, mass_b[b])
            ratios.append(pc / pb)
            if pc > hi * pb:
                violations.append((fixed, b, "upper", pc, pb))
            if pc < lo * pb:
                violations.append((fixed, b, "lower", pc, pb))
    return UnbiasReport(
        delta, checked, tuple(violations), min(ratios, default=None), max(ratios, default=None)
    )


@dataclass(frozen=True)
class RbiasReport:
    eps: Fraction
    delta: Fraction
    c: int
    prob_mu: Fraction
    prob_mu_b: tuple[Fraction, Fraction]
    part_a_holds: bool
    part_b_holds: tuple[bool, bool]

    @property
    def passed(self) -> bool:
        return self.part_a_holds and all(self.part_b_holds)


def verify_rbias(g: TruthTable, mu: Dist, eps, tree: DecisionTree) -> RbiasReport:
    """For a function with positive distributional complexity c, check that
    shallow high-bias leaves of the tree carry little mass: below sqrt(delta)
    under the distribution itself, below 4*sqrt(delta) under either
    restriction, with delta = 1/2 - eps.  Irrational thresholds are compared
    through exact squares.  Leaf output labels are ignored."""
    eps = Fraction(eps)
    if not Fraction(1, 4) <= eps < Fraction(1, 2):
        raise HypothesisViolated("eps must lie in [1/4, 1/2)")
    if tree.arity != g.arity:
        raise QclabError("tree arity does not match the function")
    delta = Fraction(1, 2) - eps
    c = dist_complexity(g, mu, eps)
    if c == 0:
        raise HypothesisViolated("distributional complexity is zero")
    m0, m1, den = _g_masses(g, mu)
    mass_b = (m0[0], m1[0])
    event = [0, 0]  # g=0 and g=1 mass numerators of the shallow high-bias leaves
    for _, path in tree.leaf_paths():
        fixed = dict(path)
        if len(fixed) >= c:
            continue
        index = lattice.index_of(fixed.items())
        mass = m0[index] + m1[index]
        if mass == 0:
            continue
        leaf_bias = Fraction(m0[index] - m1[index], mass)
        if leaf_bias * leaf_bias < 4 * delta:  # bias < 2*sqrt(delta)
            continue
        event[0] += m0[index]
        event[1] += m1[index]
    event_mu = Fraction(event[0] + event[1], den)
    event_b = [Fraction(event[b], mass_b[b]) for b in (0, 1)]
    part_a = event_mu * event_mu < delta  # event_mu < sqrt(delta)
    part_b = tuple(e * e < 16 * delta for e in event_b)
    return RbiasReport(
        eps=eps, delta=delta, c=c,
        prob_mu=event_mu, prob_mu_b=(event_b[0], event_b[1]),
        part_a_holds=part_a, part_b_holds=part_b,
    )


@dataclass(frozen=True)
class SimileafReport:
    theta: Fraction
    lower_factor: Fraction
    upper_factor: Fraction
    checked_leaves: int
    snipped_leaves: int
    violations: tuple
    fixed_constants_hold: bool  # informational: the fixed 8/9 and 10/9 bounds

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_simileaf(
    inst: ComposedInstance, tree: DecisionTree, z: int, theta: Optional[Fraction] = None
) -> SimileafReport:
    """On every snip-free leaf, check that the simulation's termination
    probability is within the parametric per-copy distortion factors
    ``max(0, 1 - 4*theta)^n`` and ``(1 + 4*theta)^n`` of the outer tree's
    reach probability."""
    theta = inst.theta if theta is None else Fraction(theta)
    if theta > Fraction(1, 2):
        raise HypothesisViolated("theta must be at most 1/2")
    if bias(inst.g, inst.mu, Subcube.full(inst.m)) > theta:
        raise HypothesisViolated("full-cube bias exceeds theta")
    n = inst.n
    lower = max(ZERO, 1 - 4 * theta) ** n
    upper = (1 + 4 * theta) ** n
    p = exact_p(inst, tree, z)
    q = exact_q(inst, tree, z)
    snips = snip_labels(inst, tree, theta)
    violations = []
    checked = 0
    fixed_ok = True
    for lid, pv in p.items():
        if any(snips[lid]):
            continue
        checked += 1
        qv = q[lid]
        if not lower * pv <= qv <= upper * pv:
            violations.append((lid, pv, qv))
        if not Fraction(8, 9) * pv <= qv <= Fraction(10, 9) * pv:
            fixed_ok = False
    return SimileafReport(
        theta=theta,
        lower_factor=lower,
        upper_factor=upper,
        checked_leaves=checked,
        snipped_leaves=sum(1 for f in snips.values() if any(f)),
        violations=tuple(violations),
        fixed_constants_hold=fixed_ok,
    )


@dataclass(frozen=True)
class LilsnipReport:
    delta0: Fraction
    per_copy_mass: tuple[Fraction, ...]
    total_snipped_mass: Fraction
    per_copy_holds: tuple[bool, ...]
    aggregate_holds: bool
    coarse_aggregate_bound: Fraction  # informational: 4/n

    @property
    def passed(self) -> bool:
        return all(self.per_copy_holds) and self.aggregate_holds


def verify_lilsnip(inst: ComposedInstance, tree: DecisionTree, z: int) -> LilsnipReport:
    """Check the snipped-mass bounds: per copy at most ``4*sqrt(delta0)``,
    in aggregate at most ``n * 4 * sqrt(delta0)`` with
    ``delta0 = 1/2 - epsilon``.  Requires the instance threshold to equal
    ``2 * sqrt(delta0)`` (checked through squares)."""
    eps = inst.epsilon
    if eps < Fraction(1, 4):
        raise HypothesisViolated("epsilon must be at least 1/4")
    delta0 = Fraction(1, 2) - eps
    if inst.theta * inst.theta != 4 * delta0:
        raise HypothesisViolated("instance theta is not 2*sqrt(1/2 - epsilon)")
    p = exact_p(inst, tree, z)
    snips = snip_labels(inst, tree, inst.theta)
    per_copy = []
    for i in range(inst.n):
        per_copy.append(sum((p[lid] for lid, f in snips.items() if f[i]), ZERO))
    total = sum((p[lid] for lid, f in snips.items() if any(f)), ZERO)
    per_copy_holds = tuple(s * s <= 16 * delta0 for s in per_copy)
    aggregate_holds = total * total <= 16 * inst.n**2 * delta0
    return LilsnipReport(
        delta0=delta0,
        per_copy_mass=tuple(per_copy),
        total_snipped_mass=total,
        per_copy_holds=per_copy_holds,
        aggregate_holds=aggregate_holds,
        coarse_aggregate_bound=Fraction(4, inst.n),
    )


@dataclass(frozen=True)
class ChainReport:
    success_outer: Fraction        # outer tree on the mixture distribution
    success_sim: Fraction          # simulation, averaged over the outer input
    lower_bound: Fraction          # parametric bound from the claim chain
    bound_holds: bool
    worst_z_queries: int
    expected_z_queries: Fraction
    budget: int

    @property
    def passed(self) -> bool:
        return self.bound_holds and self.worst_z_queries <= self.budget


def success_chain(inst: ComposedInstance, tree: DecisionTree) -> ChainReport:
    """Exact end-to-end accounting of the simulation's success probability
    against the outer tree's, plus the inner-query budget."""
    n = inst.n
    theta = inst.theta
    lower_factor = max(ZERO, 1 - 4 * theta) ** n
    c = inst.inner_complexity
    success_outer = ZERO
    success_sim = ZERO
    snipped = ZERO
    expected_zq = ZERO
    worst_zq = 0
    snips = snip_labels(inst, tree, theta)
    for z in range(1 << n):
        w = inst.lam.prob(z)
        if w == 0:
            continue
        p = exact_p(inst, tree, z)
        q = exact_q(inst, tree, z)
        acc = inst.f.accepted[z]
        for leaf, path in tree.leaf_paths():
            lid = leaf.leaf_id
            correct = leaf.label in acc
            if correct:
                success_outer += w * p[lid]
                success_sim += w * q[lid]
            if any(snips[lid]):
                snipped += w * p[lid]
            zq = sum(
                1 for assigns in inst.block.split_assignments(path)
                if len(assigns) >= c
            )
            worst_zq = max(worst_zq, zq)
            expected_zq += w * q[lid] * zq
    bound = lower_factor * (success_outer - snipped)
    return ChainReport(
        success_outer=success_outer,
        success_sim=success_sim,
        lower_bound=bound,
        bound_holds=success_sim >= bound,
        worst_z_queries=worst_zq,
        expected_z_queries=expected_zq,
        budget=tree.depth() // c,
    )
