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
over their sum.  ``Simulation(inst, tree)`` compiles an outer tree once,
in one walk, into one row per leaf of ``lattice.index_of`` subcube
indices (per copy, its subcubes after 0..c-1 answers, then its last), and
then into tables that each z only reads: its laws are gathers and row
products over exact integers (numpy object arrays), and its walker a
selection of rows.  The methods give the exact laws ``p(z)`` of the outer
tree and ``q(z)`` of the simulation (``rows(z)`` in lowest terms), the
(leaves x n) snip flag array ``snips(theta)``, the verifiers
``simileaf(z)`` and ``lilsnip(z)``, the success accounting ``chain()``,
and the random walks ``walker(z)`` and ``run(z, seed)``, all over those
rows.  ``AprimeSimulator`` keeps the walker of one z for ``run_stream``;
it and the unused ``subcube_prob`` import stay because the benchmark
harness constructs, patches and checks them.

Branch decisions compare a 128-bit uniform integer drawn from a seeded
Mersenne Twister against the exact branch probability scaled by 2^128, so
the only sampling bias is below 2^-128 per branch and identical seeds give
identical traces.  Every walk reads exactly D words, D the tree's depth:
walk k of a stream reads words [kD, (k+1)D) and follows them from the root
until a leaf absorbs it, so a run, one walk, reads the words a walk that
stops at its leaf reads.  Streams are drawn in bulk and walked with numpy
(``walk.TreeWalker``); every count and trace is the one the
walk-at-a-time loop over the same words gives, for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Optional

import numpy as np

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
_WORD = (1 << 64) - 1


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


@dataclass(frozen=True)
class LilsnipReport:
    delta0: Fraction
    per_copy_mass: tuple[Fraction, ...]
    total_snipped_mass: Fraction
    per_copy_holds: tuple[bool, ...]
    aggregate_holds: bool

    @property
    def passed(self) -> bool:
        return all(self.per_copy_holds) and self.aggregate_holds


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


class Simulation:
    """The simulation of ``tree`` on ``inst``, compiled once, in one
    preorder walk.  The walk carries one row per copy: the lattice indices
    of the copy's subcubes after 0..c-1 answers (its window), padded with
    the last of them, then its last subcube, so the window's last entry is
    the prefix that its later answers are conditioned on.

    ``payload`` holds each leaf's trace (for z = 0 with seed 0; a run sets
    both) and ``None`` at each branch.  ``branches`` lists each branch's
    position, the copy it samples from the restricted law (-1 while the
    copy has had fewer than c answers), its subcube's index before and
    after answering 1, and its two children.
    ``leaf_ids`` and ``labels`` hold the leaves' ids and labels in
    preorder, and ``cubes`` their rows, a (leaves x n x c+1) index array
    that the laws and snip flags read; ``mass`` is each subcube's inner
    mass.  On first use, what the laws and walks of every z share is
    compiled once more, into ``_law_tables`` and ``_walk_tables``.  The
    integer terms of p and q are kept per z (see ``_terms``) for the
    object's life.  ``depth`` is the tree's depth, the words each walk
    reads, and ``budget`` the inner-query budget ``depth // c``.  A
    tree of the wrong arity, or with a leaf label outside f's alphabet, is
    rejected here, before any law; every ``DecisionTree`` is valid when it
    is made."""

    def __init__(self, inst: ComposedInstance, tree: DecisionTree):
        if tree.arity != inst.total_arity:
            raise ArityMismatch("tree arity does not match the instance")
        self.inst, self.tree = inst, tree
        self.depth = tree.depth()
        self.budget = self.depth // inst.inner_complexity
        self.mass = np.array(inst.g_masses[0], dtype=object) + inst.g_masses[1]
        self.payload: list = []
        self.branches: list = []
        rows: list = []
        self._records: dict = {}
        c = inst.inner_complexity
        self._compile(tree.root, ((0,) * (c + 1),) * inst.n, (0,) * inst.n, (), rows)
        self.cubes = np.array(rows, np.intp)
        traces = [trace for trace in self.payload if trace is not None]
        self.leaf_ids = [trace.leaf_id for trace in traces]
        self.labels = np.array([trace.output for trace in traces], dtype=object)
        stray = (self.labels < 0) | (self.labels >= inst.f.alphabet_size)
        if stray.any():
            raise QclabError(f"tree label {self.labels[stray.argmax()]} is outside "
                             f"f's alphabet 0..{inst.f.alphabet_size - 1}")

    def _compile(self, node, state, codims, z_queries, rows) -> None:
        # a method, not a closure: a self-referencing closure would keep
        # the compiled tree alive until the cyclic collector runs
        k = len(self.payload)
        self.payload.append(None)
        if isinstance(node, Leaf):
            self.payload[k] = SimulationTrace(
                0, node.leaf_id, node.label, z_queries, codims, sum(codims), 0
            )
            rows.append(state)
            return
        c = self.inst.inner_complexity
        i, j = divmod(node.query_var, self.inst.m)
        row, nth = state[i], codims[i] + 1  # nth: this answer's number in copy i
        cube = row[-1]
        if nth == c:
            z_queries += (i,)
        step = 3**j
        entry = [k, i if nth >= c else -1, cube, cube + 2 * step]
        self.branches.append(entry)
        kept = row[:min(nth, c)]  # the window entries this answer leaves as they are
        child_codims = codims[:i] + (nth,) + codims[i + 1:]
        for child, below in ((node.child0, cube + step), (node.child1, cube + 2 * step)):
            entry.append(len(self.payload))
            child_state = state[:i] + (kept + (below,) * (c + 1 - len(kept)),) + state[i + 1:]
            self._compile(child, child_state, child_codims, z_queries, rows)

    @cached_property
    def _walk_tables(self) -> tuple:
        """Per node, the copy whose bit of z picks its row (0 where the rows
        agree); per row, the nodes' children and threshold words; and per
        node, whether it is a leaf (see ``TreeWalker``).  In row b
        a branch samples from the unrestricted mass table, or from g = b's
        if its copy has been read; where that table gives its subcube no
        mass, it is dead and absorbs."""
        size = len(self.payload)
        k, copy, cube, cube1, zero, one = np.array(self.branches, np.intp).reshape(-1, 6).T
        tables = np.array([self.mass, *self.inst.g_masses[:2]], dtype=object)
        law = np.where(copy < 0, 0, [[1], [2]])
        den = tables[law, cube]
        dead = den == 0
        t = _threshold(tables[law, cube1], np.where(dead, 1, den))
        child = np.tile(np.arange(size).repeat(2), (2, 1))
        certain = t == 1 << 128  # its kept words are 0, so child 0 must be child 1
        child[:, 2 * k] = np.where(dead, k, np.where(certain, one, zero))
        child[:, 2 * k + 1] = np.where(dead, k, one)
        words = np.zeros((2, 2, size), np.uint64)
        words[:, :, k] = [(t >> shift & _WORD).astype(np.uint64) for shift in (64, 0)]
        node_copy = np.zeros(size, np.intp)
        node_copy[k] = np.maximum(copy, 0)
        leaf = np.array([trace is not None for trace in self.payload])
        return node_copy, child, *words, leaf

    def walker(self, z: int) -> TreeWalker:
        """The walker of the simulation on ``z``: each node reads its row of
        ``_walk_tables`` off the bit of z its copy is conditioned on."""
        _restricted(self.inst, z)  # z's range, and mass on each value of g
        copy, child, hi, lo, leaf = self._walk_tables
        bit, nodes = (z >> copy) & 1, np.arange(len(copy))
        return TreeWalker(self.payload, child[bit.repeat(2), np.arange(2 * len(bit))],
                          hi[bit, nodes], lo[bit, nodes], leaf, self.depth)

    def run(self, z: int, seed: int) -> SimulationTrace:
        """One walk of the simulation on ``z``, on the stream of ``seed``."""
        end = next(self.walker(z).ends(_rng(seed), 1))[0]
        return replace(self.payload[end], z=z, rng_seed=seed)

    @cached_property
    def _law_tables(self) -> tuple:
        """Per leaf (rows) and copy (columns): the index of the copy's last
        subcube; the index of its prefix, the subcube after its first
        ``c - 1`` answers, or all if fewer, and the prefix's mass; and
        whether the copy went deeper than its prefix, so that its later
        answers follow the restricted law.  A read-once path never returns
        to a subcube, so it went deeper exactly when its last subcube is not
        its prefix."""
        last, prefix = self.cubes[..., -1], self.cubes[..., -2]
        return last, prefix, self.mass[prefix], last != prefix

    def q_terms(self, restricted: list) -> tuple[np.ndarray, np.ndarray]:
        """Per leaf, the simulation's probability of its leaf as unreduced
        numerators and denominators."""
        last, prefix, mass, deep = self._law_tables
        tables, copies = np.array(restricted, dtype=object), np.arange(self.inst.n)
        below, above = tables[copies, last], tables[copies, prefix]
        factors = mass * np.where(deep, below, 1)
        # multiplied copy by copy, a leaf's probability stops at its first
        # factor 0, and only there can it meet a prefix of restricted mass 0
        first = (factors == 0).argmax(axis=1)
        leaves = np.arange(len(first))
        raised = deep[leaves, first] & (above[leaves, first] == 0) & (mass[leaves, first] != 0)
        if raised.any():
            raise ZeroConditioningMass(
                f"restricted distribution has no mass on a copy-{first[raised.argmax()]} prefix"
            )
        dens = np.multiply.reduce(np.where(deep & (above != 0), above, 1), axis=1)
        return np.multiply.reduce(factors, axis=1), self.inst.g_masses[2] ** self.inst.n * dens

    def p_terms(self, restricted: list) -> tuple[np.ndarray, int]:
        """Per leaf, the numerator of the outer tree's probability of its
        leaf, and the denominator they share."""
        last = self._law_tables[0]
        tables = np.array(restricted, dtype=object)[np.arange(self.inst.n), last]
        return np.multiply.reduce(tables, axis=1), prod(table[0] for table in restricted)

    def _terms(self, z: int, q: bool = False) -> list:
        """The record of ``z``: ``[p numerators, their denominator, q
        numerators and denominators]``, each computed once.  The q terms are
        computed when first asked for (``q=True``), since only they can find
        a prefix without restricted mass, and p does without them."""
        record = self._records.get(z)
        if record is None:
            record = self._records[z] = [*self.p_terms(_restricted(self.inst, z)), None]
        if q and record[2] is None:
            record[2] = self.q_terms(_restricted(self.inst, z))
        return record

    def rows(self, z: int) -> tuple[list[int], ...]:
        """``p(z)`` and ``q(z)`` in lowest terms, as integer rows in the
        order of ``leaf_ids``: p's numerators and denominators, then q's."""
        p_nums, p_den, q_terms = self._terms(z, q=True)
        rows = []
        for nums, dens in ((p_nums, p_den), q_terms):
            common = np.gcd(nums, dens)
            rows += [(nums // common).tolist(), (dens // common).tolist()]
        return tuple(rows)

    def p(self, z: int) -> dict[int, Fraction]:
        """Exact leaf-reach probabilities of the outer tree on an input drawn
        from the per-z product distribution."""
        nums, den, _ = self._terms(z)
        return {lid: Fraction(num, den) for lid, num in zip(self.leaf_ids, nums)}

    def q(self, z: int) -> dict[int, Fraction]:
        """Exact probability of the simulation on ``z`` terminating at each
        leaf.

        Per copy the probability factors as: mass of the first
        ``min(d, c - 1)`` outcomes under the unrestricted distribution,
        times the conditional mass of the remaining outcomes under the
        restricted distribution (an empty remainder contributes 1).
        """
        nums, dens = self._terms(z, q=True)[2]
        return {lid: Fraction(n, d) for lid, n, d in zip(self.leaf_ids, nums, dens)}

    def snips(self, theta: Optional[Fraction] = None) -> np.ndarray:
        """Per leaf (rows) and copy (columns), whether the copy is snipped:
        whether some subcube of its window, reached in fewer than c answers
        on the leaf's path, has bias at least ``theta`` (the instance's by
        default).  Subcubes with zero inner-distribution mass are skipped:
        no probability ever flows through them."""
        theta = self.inst.theta if theta is None else Fraction(theta)
        m0, m1, _ = self.inst.g_masses
        gap, mass = abs(np.array(m0, dtype=object) - m1), self.mass
        biased = (mass > 0) & (gap * theta.denominator >= theta.numerator * mass)
        return biased[self.cubes[..., :-1]].any(-1)

    def simileaf(self, z: int, theta: Optional[Fraction] = None) -> SimileafReport:
        """On every snip-free leaf, check that the simulation's termination
        probability is within the parametric per-copy distortion factors
        ``max(0, 1 - 4*theta)^n`` and ``(1 + 4*theta)^n`` of the outer
        tree's reach probability."""
        inst = self.inst
        theta = inst.theta if theta is None else Fraction(theta)
        if theta > Fraction(1, 2):
            raise HypothesisViolated("theta must be at most 1/2")
        m0, m1, den = inst.g_masses
        if Fraction(abs(m0[0] - m1[0]), den) > theta:
            raise HypothesisViolated("full-cube bias exceeds theta")
        n = inst.n
        lower = max(ZERO, 1 - 4 * theta) ** n
        upper = (1 + 4 * theta) ** n
        nums, den, (q_nums, q_dens) = self._terms(z, q=True)
        checked = ~self.snips(theta).any(1)
        # with p = pn/den and q = qn/qd, a bound q >= (a/b)*p holds iff
        # a*pn*qd <= b*qn*den: integers throughout, and a Fraction only for
        # a violation
        pq, qp = nums * q_dens, q_nums * den
        held = ((lower.numerator * pq <= lower.denominator * qp)
                & (upper.denominator * qp <= upper.numerator * pq))
        fixed = (8 * pq <= 9 * qp) & (9 * qp <= 10 * pq)
        violations = tuple(
            (self.leaf_ids[k], Fraction(nums[k], den), Fraction(q_nums[k], q_dens[k]))
            for k in np.flatnonzero(checked & ~held)
        )
        return SimileafReport(
            theta=theta,
            lower_factor=lower,
            upper_factor=upper,
            checked_leaves=int(checked.sum()),
            snipped_leaves=int(len(checked) - checked.sum()),
            violations=violations,
            fixed_constants_hold=bool(fixed[checked].all()),
        )

    def lilsnip(self, z: int) -> LilsnipReport:
        """Check the snipped-mass bounds: per copy at most
        ``4*sqrt(delta0)``, in aggregate at most ``n * 4 * sqrt(delta0)``
        with ``delta0 = 1/2 - epsilon``.  Requires the instance threshold to
        equal ``2 * sqrt(delta0)`` (checked through squares)."""
        inst = self.inst
        eps = inst.epsilon
        if eps < Fraction(1, 4):
            raise HypothesisViolated("epsilon must be at least 1/4")
        delta0 = Fraction(1, 2) - eps
        if inst.theta * inst.theta != 4 * delta0:
            raise HypothesisViolated("instance theta is not 2*sqrt(1/2 - epsilon)")
        nums, den, _ = self._terms(z)
        flags = self.snips()
        per_copy = tuple(Fraction(s, den) for s in np.where(flags, nums[:, None], 0).sum(0))
        total = Fraction(nums[flags.any(1)].sum(), den)
        return LilsnipReport(
            delta0=delta0,
            per_copy_mass=per_copy,
            total_snipped_mass=total,
            per_copy_holds=tuple(s * s <= 16 * delta0 for s in per_copy),
            aggregate_holds=total * total <= 16 * inst.n**2 * delta0,
        )

    def chain(self) -> ChainReport:
        """Exact end-to-end accounting of the simulation's success
        probability against the outer tree's, plus the inner-query
        budget."""
        inst = self.inst
        success_outer = success_sim = snipped = expected_zq = ZERO
        snipped_leaves = self.snips().any(1)
        z_queries = self._law_tables[3].sum(axis=1)  # per leaf, the bits of z it reads
        # per z, whether it accepts each label the leaves carry, then each leaf
        labels, of_leaf = np.unique(self.labels, return_inverse=True)
        accepts = np.array([[label in acc for label in labels] for acc in inst.f.accepted])
        for z, acc in enumerate(accepts[:, of_leaf]):
            w = inst.lam.prob(z)
            if w == 0:
                continue
            p_nums, p_den, (q_nums, q_dens) = self._terms(z, q=True)
            # per z, numerators over one common denominator add as integers first
            common = lcm(*q_dens)
            q_nums = q_nums * (common // q_dens)
            success_outer += w * Fraction(p_nums[acc].sum(), p_den)
            snipped += w * Fraction(p_nums[snipped_leaves].sum(), p_den)
            success_sim += w * Fraction(q_nums[acc].sum(), common)
            expected_zq += w * Fraction((q_nums * z_queries).sum(), common)
        bound = max(ZERO, 1 - 4 * inst.theta) ** inst.n * (success_outer - snipped)
        return ChainReport(
            success_outer=success_outer,
            success_sim=success_sim,
            lower_bound=bound,
            bound_holds=success_sim >= bound,
            worst_z_queries=int(z_queries.max()),
            expected_z_queries=expected_zq,
            budget=self.budget,
        )


def _rng(seed: int) -> random.Random:
    """The random stream of a run; Random(-s) replays Random(s), so a
    negative seed is refused."""
    if seed < 0:
        raise QclabError(f"seed must be at least 0, got {seed}")
    return random.Random(seed)


class AprimeSimulator:
    """Compiled simulation of one outer tree on one input ``z``.

    Every branch compiles to its threshold and every leaf to its trace, in
    a ``TreeWalker``, so a stream of walks only draws random words and
    walks the tree's arrays.  A node whose subcube has no mass under its
    sampling law compiles dead, and a walk that reaches it raises.  Only
    the thresholds and dead nodes depend on ``z`` (see ``Simulation``).
    """

    def __init__(self, inst: ComposedInstance, tree: DecisionTree, z: int):
        self.inst = inst
        self.tree = tree
        self.z = z
        self._walker = Simulation(inst, tree).walker(z)

    def run_stream(self, samples: int, seed: int) -> dict[int, int]:
        """Leaf-id frequency counts over ``samples`` runs sharing one seeded
        random stream."""
        counts = self._walker.counts(_rng(seed), samples)
        return {self._walker.payload[k].leaf_id: n for k, n in enumerate(counts) if n}
