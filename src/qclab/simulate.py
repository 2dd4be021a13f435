"""The randomized simulation of an outer tree by an inner-query-frugal
algorithm, snip labeling, and exact verifiers for the finite claims the
composition argument rests on.

Simulation semantics (per copy i, with c = inner complexity):

* the first ``c - 1`` branch outcomes in copy i are sampled from the
  conditional marginals of the unrestricted inner distribution;
* at the c-th query into copy i the input bit ``z_i`` is read, and that and
  all later copy-i outcomes are sampled from the conditional marginals of
  the inner distribution restricted to ``g = z_i``.

Every law is a ratio of entries of the instance's lattice tables
``g_masses``, the masses of g=0 and of g=1 on each inner subcube: a
subcube's mass is the sum of its two entries, its mass restricted to g=b is
entry b over entry b of the full cube, and its bias is their difference
over their sum.  Each outer tree is compiled once, in one walk that
carries, per copy, the ``lattice.index_of`` index of the copy's subcube
after each of its answers; the exact laws, the snip flags, the success
chain and the random walks are all read off that one compiled tree.

Branch decisions compare a 128-bit uniform integer drawn from a seeded
Mersenne Twister against the exact branch probability scaled by 2^128, so
the only sampling bias is below 2^-128 per branch and identical seeds give
identical traces.  Streams are drawn in bulk from the same Mersenne Twister
words and walked with numpy (``walk.TreeWalker``); every count and trace
is the one the walk-at-a-time loop gives, for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod
from typing import Optional

from .core import (
    ArityMismatch,
    HypothesisViolated,
    QclabError,
    ZeroConditioningMass,
    subcube_prob,  # noqa: F401  -- unused; perfbench's tracer self-test checks this binding
)
from .compose import ComposedInstance
from .dtree import DecisionTree, Leaf
from .walk import TreeWalker

ZERO = Fraction(0)


def _restricted(inst: ComposedInstance, z: int) -> list[list]:
    """Per copy i, the mass table of g = bit i of ``z``, which copy i is
    conditioned on."""
    if not 0 <= z < (1 << inst.n):
        raise QclabError(f"input {z} out of range")
    tables = [inst.g_masses[(z >> i) & 1] for i in range(inst.n)]
    for i, table in enumerate(tables):
        if table[0] == 0:
            raise ZeroConditioningMass(f"Pr[g={(z >> i) & 1}] = 0")
    return tables


def _threshold(num: int, den: int) -> int:
    """The ceiling of ``2^128 * num / den``: an integer draw lies below it
    exactly when it lies below the branch probability num/den times 2^128."""
    return -((-(num << 128)) // den)


@dataclass(frozen=True)
class SimulationTrace:
    z: int
    leaf_id: int
    output: int
    z_queries: tuple[int, ...]       # copy indices in query order
    per_copy_codims: tuple[int, ...]
    path_length: int
    rng_seed: int


class _Compiled:
    """The simulation of ``tree`` on ``inst``, compiled once, in one
    preorder walk.  The walk carries each copy's history: the lattice index
    of the copy's subcube after each of its answers so far, starting from
    the full cube, so entry k fixes its first k answers.

    ``payload`` holds each leaf's trace (for z = 0 with seed 0; a run sets
    both) and ``None`` at each branch.  ``branches`` lists each branch's
    position, the copy it samples from the restricted law (-1 while the
    copy has had fewer than c answers), its subcube's index before and
    after answering 1, its child 1 and the end of its subtree.  ``leaves``
    lists each leaf with its per-copy histories, from which the exact laws
    and the snip flags are read; interior histories are prefixes of these.
    ``walker(z)`` adds the thresholds and dead nodes of one z.  The flags
    are kept per theta; p and q are kept for the last z asked for, since
    every caller goes z by z.  A tree of the wrong arity, or one that
    ``DecisionTree.validate`` rejects, is rejected here, before any law."""

    def __init__(self, inst: ComposedInstance, tree: DecisionTree):
        if tree.arity != inst.total_arity:
            raise ArityMismatch("tree arity does not match the instance")
        tree.require_valid()
        self.inst, self.tree = inst, tree
        c = inst.inner_complexity
        m0, m1, _ = inst.g_masses
        self.mass = [a + b for a, b in zip(m0, m1)]
        self.payload: list = []
        self.branches: list = []
        self.leaves: list = []
        self._snips: dict = {}
        self._z, self._at_z = None, {}

        def compile_node(node, state, z_queries) -> None:
            k = len(self.payload)
            self.payload.append(None)
            if isinstance(node, Leaf):
                codims = tuple([len(hist) - 1 for hist in state])
                self.payload[k] = SimulationTrace(
                    0, node.leaf_id, node.label, z_queries, codims, sum(codims), 0
                )
                self.leaves.append((node, state))
                return
            i, j = inst.block.copy_of(node.query_var)
            hist = state[i]
            cube, nth = hist[-1], len(hist)  # nth: this answer's number in copy i
            if nth == c:
                z_queries += (i,)
            step = 3**j
            entry = [k, i if nth >= c else -1, cube, cube + 2 * step]
            self.branches.append(entry)
            for child, below in ((node.child0, cube + step), (node.child1, cube + 2 * step)):
                compile_node(child, state[:i] + (hist + (below,),) + state[i + 1:], z_queries)
                entry.append(len(self.payload))

        compile_node(tree.root, ((0,),) * inst.n, ())

    def walker(self, z: int) -> TreeWalker:
        """The walker of the simulation on ``z``: a branch whose subcube has
        no mass under its sampling law is dead (``None``), and so, never
        reached, is everything below it."""
        restricted = _restricted(self.inst, z)
        nodes = list(self.payload)
        skip = 0
        for k, copy, cube, cube1, one, end in self.branches:
            if k < skip:
                continue
            table = self.mass if copy < 0 else restricted[copy]
            if table[cube] == 0:
                nodes[k:end] = [None] * (end - k)
                skip = end
            else:
                nodes[k] = (_threshold(table[cube1], table[cube]), k + 1, one)
        return TreeWalker(nodes)

    def run(self, z: int, seed: int) -> SimulationTrace:
        return _run(self.walker(z), z, seed)

    def q_terms(self, restricted: list) -> list[tuple[int, int]]:
        """Per leaf, the simulation's probability of its leaf as an
        unreduced ``(numerator, denominator)`` pair."""
        c = self.inst.inner_complexity
        m0, m1, den = self.inst.g_masses
        out = []
        for _, state in self.leaves:
            num, dnm = 1, den ** self.inst.n
            for i, hist in enumerate(state):
                prefix = hist[:c][-1]  # after its first c - 1 answers, or all if fewer
                num *= m0[prefix] + m1[prefix]
                if num and len(hist) > c:
                    table = restricted[i]
                    if table[prefix] == 0:
                        raise ZeroConditioningMass(
                            f"restricted distribution has no mass on a copy-{i} prefix"
                        )
                    num *= table[hist[-1]]
                    dnm *= table[prefix]
                if num == 0:
                    break
            out.append((num, dnm))
        return out

    def p_terms(self, restricted: list) -> tuple[list[int], int]:
        """Per leaf, the numerator of the outer tree's probability of its
        leaf, and the denominator they share."""
        den = prod(table[0] for table in restricted)
        nums = [prod(t[h[-1]] for t, h in zip(restricted, state)) for _, state in self.leaves]
        return nums, den

    def _law(self, kind: str, z: int, compute):
        if z != self._z:
            self._z, self._at_z = z, {}
        if kind not in self._at_z:
            self._at_z[kind] = compute()
        return self._at_z[kind]

    def p(self, z: int) -> dict[int, Fraction]:
        def compute():
            nums, den = self.p_terms(_restricted(self.inst, z))
            return {leaf.leaf_id: Fraction(num, den) for (leaf, _), num in zip(self.leaves, nums)}

        return self._law("p", z, compute)

    def q(self, z: int) -> dict[int, Fraction]:
        def compute():
            terms = self.q_terms(_restricted(self.inst, z))
            return {
                leaf.leaf_id: Fraction(num, dnm)
                for (leaf, _), (num, dnm) in zip(self.leaves, terms)
            }

        return self._law("q", z, compute)

    def snips(self, theta: Fraction) -> dict[int, tuple[int, ...]]:
        """Per leaf, per copy, whether the copy is snipped at ``theta`` (see
        ``snip_labels``)."""
        if theta not in self._snips:
            c = self.inst.inner_complexity
            m0, m1, _ = self.inst.g_masses

            def flagged(hist) -> int:
                for cube in hist[:c]:  # the subcubes of fewer than c answers
                    mass, gap = m0[cube] + m1[cube], abs(m0[cube] - m1[cube])
                    if mass and gap * theta.denominator >= theta.numerator * mass:
                        return 1
                return 0

            self._snips[theta] = {
                leaf.leaf_id: tuple(flagged(hist) for hist in state) for leaf, state in self.leaves
            }
        return self._snips[theta]


def _run(walker: TreeWalker, z: int, seed: int) -> SimulationTrace:
    end = next(walker.ends(random.Random(seed), 1))[0]
    return replace(walker.payload[end], z=z, rng_seed=seed)


class AprimeSimulator:
    """Compiled simulation of one outer tree on one input ``z``.

    Every branch compiles to its threshold and every leaf to its trace, in
    a ``TreeWalker``, so repeated runs only draw random words and walk the
    tree's arrays.  A node whose subcube has no mass under its sampling law
    compiles to ``None``, and a walk that reaches it raises.  Only the
    thresholds and dead nodes depend on ``z`` (see ``_Compiled``).
    """

    def __init__(self, inst: ComposedInstance, tree: DecisionTree, z: int):
        self.inst = inst
        self.tree = tree
        self.z = z
        self.c = inst.inner_complexity
        self._walker = _Compiled(inst, tree).walker(z)

    def run(self, seed: int) -> SimulationTrace:
        return _run(self._walker, self.z, seed)

    def run_stream(self, samples: int, seed: int) -> dict[int, int]:
        """Leaf-id frequency counts over ``samples`` runs sharing one seeded
        random stream."""
        counts = self._walker.counts(random.Random(seed), samples)
        return {self._walker.payload[k].leaf_id: n for k, n in enumerate(counts) if n}


def run_Aprime(inst: ComposedInstance, tree: DecisionTree, z: int, seed: int) -> SimulationTrace:
    return AprimeSimulator(inst, tree, z).run(seed)


# ---------------------------------------------------------------------------
# exact leaf distributions and snip labeling


def exact_q(inst: ComposedInstance, tree: DecisionTree, z: int) -> dict[int, Fraction]:
    """Exact probability of the simulation on ``z`` terminating at each leaf.

    Per copy the probability factors as: mass of the first
    ``min(d, c - 1)`` outcomes under the unrestricted distribution, times
    the conditional mass of the remaining outcomes under the restricted
    distribution (an empty remainder contributes 1).
    """
    return _Compiled(inst, tree).q(z)


def exact_p(inst: ComposedInstance, tree: DecisionTree, z: int) -> dict[int, Fraction]:
    """Exact leaf-reach probabilities of the outer tree on an input drawn
    from the per-z product distribution."""
    return _Compiled(inst, tree).p(z)


def snip_labels(
    inst: ComposedInstance, tree: DecisionTree, theta: Optional[Fraction] = None
) -> dict[int, tuple[int, ...]]:
    """Per-leaf, per-copy flags: a copy is flagged when some path node shows
    that copy at codimension below the inner complexity with bias at least
    ``theta``.  Path subcubes with zero inner-distribution mass are skipped:
    no probability ever flows through them."""
    return _Compiled(inst, tree).snips(inst.theta if theta is None else Fraction(theta))


# ---------------------------------------------------------------------------
# claim verifiers


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
    return _simileaf(_Compiled(inst, tree), z, theta)


def _simileaf(laws: _Compiled, z: int, theta: Optional[Fraction]) -> SimileafReport:
    inst = laws.inst
    theta = inst.theta if theta is None else Fraction(theta)
    if theta > Fraction(1, 2):
        raise HypothesisViolated("theta must be at most 1/2")
    m0, m1, den = inst.g_masses
    if Fraction(abs(m0[0] - m1[0]), den) > theta:
        raise HypothesisViolated("full-cube bias exceeds theta")
    n = inst.n
    lower = max(ZERO, 1 - 4 * theta) ** n
    upper = (1 + 4 * theta) ** n
    p, q, snips = laws.p(z), laws.q(z), laws.snips(theta)
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
    return _lilsnip(_Compiled(inst, tree), z)


def _lilsnip(laws: _Compiled, z: int) -> LilsnipReport:
    inst = laws.inst
    eps = inst.epsilon
    if eps < Fraction(1, 4):
        raise HypothesisViolated("epsilon must be at least 1/4")
    delta0 = Fraction(1, 2) - eps
    if inst.theta * inst.theta != 4 * delta0:
        raise HypothesisViolated("instance theta is not 2*sqrt(1/2 - epsilon)")
    p, snips = laws.p(z), laws.snips(inst.theta)
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


def _instance_checks(inst: ComposedInstance, tree: DecisionTree):
    """``(z, verify_simileaf, verify_lilsnip)`` at the instance's theta for
    every z of positive outer mass, on one compiled tree: its snip flags
    are computed once and exact_p once per z."""
    laws = _Compiled(inst, tree)
    for z in range(1 << inst.n):
        if inst.lam.prob(z) != 0:
            yield z, _simileaf(laws, z, None), _lilsnip(laws, z)


@dataclass(frozen=True)
class ChainReport:
    """End-to-end success accounting.  ``passed`` also compares
    ``worst_z_queries`` with ``budget = depth // c``, which holds by
    construction: a path of length at most ``depth`` has at most
    ``depth // c`` copies with ``c`` or more queries."""

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


def _sum_terms(terms) -> Fraction:
    """The exact sum of ``(numerator, denominator)`` terms: numerators over
    one denominator are added as integers, then each group once as a
    Fraction."""
    by_den: dict[int, int] = {}
    for num, den in terms:
        by_den[den] = by_den.get(den, 0) + num
    return sum((Fraction(num, den) for den, num in by_den.items()), ZERO)


def success_chain(inst: ComposedInstance, tree: DecisionTree) -> ChainReport:
    """Exact end-to-end accounting of the simulation's success probability
    against the outer tree's, plus the inner-query budget."""
    return _chain(_Compiled(inst, tree))


def _chain(laws: _Compiled) -> ChainReport:
    inst, leaves = laws.inst, laws.leaves
    c = inst.inner_complexity
    success_outer = success_sim = snipped = expected_zq = ZERO
    snips = laws.snips(inst.theta)
    z_queries = [sum(len(h) > c for h in state) for _, state in leaves]
    snipped_leaves = [any(snips[leaf.leaf_id]) for leaf, _ in leaves]
    for z in range(1 << inst.n):
        w = inst.lam.prob(z)
        if w == 0:
            continue
        restricted = _restricted(inst, z)
        p_nums, p_den = laws.p_terms(restricted)
        q_terms = laws.q_terms(restricted)
        acc = [leaf.label in inst.f.accepted[z] for leaf, _ in leaves]
        # per z, numerators over a shared denominator add as integers first
        success_outer += w * Fraction(sum(n for n, a in zip(p_nums, acc) if a), p_den)
        snipped += w * Fraction(sum(n for n, s in zip(p_nums, snipped_leaves) if s), p_den)
        success_sim += w * _sum_terms(t for t, a in zip(q_terms, acc) if a)
        expected_zq += w * _sum_terms((n * k, d) for (n, d), k in zip(q_terms, z_queries))
    bound = max(ZERO, 1 - 4 * inst.theta) ** inst.n * (success_outer - snipped)
    return ChainReport(
        success_outer=success_outer,
        success_sim=success_sim,
        lower_bound=bound,
        bound_holds=success_sim >= bound,
        worst_z_queries=max(z_queries),
        expected_z_queries=expected_zq,
        budget=laws.tree.depth() // c,
    )
