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
in one walk, into three (leaves x n) arrays: per leaf and copy, the
``lattice.index_of`` index of the copy's prefix (its subcube after its
first c - 1 answers, or all of them if fewer) and of its last subcube,
and whether it is snipped at the instance's theta.  What the walks of
every z share is compiled into tables that each z only reads: its laws
are gathers and row products over exact integers (numpy object arrays),
and its walker a selection of rows.  The methods give the exact laws
``p(z)`` of the outer tree and ``q(z)`` of the simulation (``rows(z)`` in
lowest terms), the verifiers ``simileaf(z)`` and ``lilsnip(z)``, the
success accounting ``chain()``, and the random walks ``walker(z)`` and
``run(z, seed)``, all over those arrays.  ``AprimeSimulator`` keeps the
walker of one z for ``run_stream``; it and the unused ``subcube_prob``
import stay because the benchmark harness constructs, patches and checks
them.

Branch decisions compare a 128-bit uniform integer drawn from a seeded
Mersenne Twister against the exact branch probability scaled by 2^128, so
the only sampling bias is below 2^-128 per branch and identical seeds give
identical traces.  A run is one walk in Python (``walk.TreeWalker.walk``):
it draws one ``getrandbits(128)`` word per branch on its path, and never
loads numpy.random.  In a stream every walk reads exactly D words, D the
tree's depth: walk k reads words [kD, (k+1)D) and follows them from the
root until a leaf absorbs it, so a run reads the words the first walk of
its seed's stream reads.  Streams take their words from numpy's MT19937
replaying the seed's ``random.Random`` bit for bit, and are walked with
numpy (``walk.TreeWalker``); every count and trace is the one the
walk-at-a-time loop over the same words gives, for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

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
    preorder walk.  The walk carries a triple per copy: the lattice index
    of its prefix, the subcube its later answers are conditioned on; the
    index of its last subcube; and whether it is snipped, whether some
    subcube it reached in fewer than c answers has bias at least the
    instance's theta.  An answer before the c-th moves the prefix and the
    last subcube to the new subcube and ORs in that subcube's bias flag; a
    later answer moves only the last subcube.

    ``payload`` holds each leaf's trace (for z = 0 with seed 0; a run sets
    both) and ``None`` at each branch.  ``branches`` lists each branch's
    position, the copy it samples from the restricted law (-1 while the
    copy has had fewer than c answers), its subcube's index before and
    after answering 1, and its two children.
    ``leaf_ids`` and ``labels`` hold the leaves' ids and labels in
    preorder, ``prefix`` and ``last`` their (leaves x n) index arrays, and
    ``snipped`` their (leaves x n) snip flags; ``mass`` is each subcube's
    inner mass.  On first use, what the walks of every z share is compiled
    once more, into ``_walk_tables``.  The integer terms of p and q are
    kept per z (see ``_terms``) for the object's life.  ``depth`` is the
    tree's depth, the words each walk reads, and ``budget`` the
    inner-query budget ``depth // c``.  A tree of the wrong arity, or with
    a leaf label outside f's alphabet, is rejected here, before any law;
    every ``DecisionTree`` is valid when it is made."""

    def __init__(self, inst: ComposedInstance, tree: DecisionTree):
        if tree.arity != inst.total_arity:
            raise ArityMismatch("tree arity does not match the instance")
        self.inst, self.tree = inst, tree
        self.depth = tree.depth()
        self.budget = self.depth // inst.inner_complexity
        m0, m1, _ = inst.g_masses
        self.mass = np.array(m0, dtype=object) + m1
        gap, theta = abs(np.array(m0, dtype=object) - m1), inst.theta
        # per subcube, whether it is biased: no probability flows through
        # a subcube without mass, so it never is
        self._biased = ((self.mass > 0)
                        & (gap * theta.denominator >= theta.numerator * self.mass)).tolist()
        self.payload: list = []
        self.branches: list = []
        rows: list = []
        self._records: dict = {}
        self._compile(tree.root, ((0, 0, self._biased[0]),) * inst.n, (0,) * inst.n, (), rows)
        self.prefix, self.last, snipped = np.array(rows, np.intp).transpose(2, 0, 1)
        self.snipped = snipped.astype(bool)
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
        prefix, cube, snipped = state[i]
        nth = codims[i] + 1  # this answer's number in copy i
        if nth == c:
            z_queries += (i,)
        step = 3**j
        entry = [k, i if nth >= c else -1, cube, cube + 2 * step]
        self.branches.append(entry)
        child_codims = codims[:i] + (nth,) + codims[i + 1:]
        for child, below in ((node.child0, cube + step), (node.child1, cube + 2 * step)):
            entry.append(len(self.payload))
            if nth < c:
                copy = (below, below, snipped or self._biased[below])
            else:
                copy = (prefix, below, snipped)
            child_state = state[:i] + (copy,) + state[i + 1:]
            self._compile(child, child_state, child_codims, z_queries, rows)

    @cached_property
    def _walk_tables(self) -> tuple:
        """Per node, the copy whose bit of z picks its row (0 where the rows
        agree); and per row, the nodes' children, threshold words and dead
        flags (see ``TreeWalker``).  In row b a branch samples from the
        unrestricted mass table, or from g = b's if its copy has been read;
        where that table gives its subcube no mass, it is dead and
        absorbs."""
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
        dead_nodes = np.zeros((2, size), bool)
        dead_nodes[:, k] = dead
        node_copy = np.zeros(size, np.intp)
        node_copy[k] = np.maximum(copy, 0)
        return node_copy, child, *words, dead_nodes

    def walker(self, z: int) -> TreeWalker:
        """The walker of the simulation on ``z``: each node reads its row of
        ``_walk_tables`` off the bit of z its copy is conditioned on."""
        _restricted(self.inst, z)  # z's range, and mass on each value of g
        copy, child, hi, lo, dead = self._walk_tables
        bit, nodes = (z >> copy) & 1, np.arange(len(copy))
        return TreeWalker(child[bit.repeat(2), np.arange(2 * len(bit))],
                          hi[bit, nodes], lo[bit, nodes], dead[bit, nodes], self.depth)

    def run(self, z: int, seed: int) -> SimulationTrace:
        """One walk of the simulation on ``z``, on the stream of ``seed``;
        it reads one word per branch on its path."""
        end = self.walker(z).walk(_rng(seed))
        return replace(self.payload[end], z=z, rng_seed=seed)

    def q_terms(self, restricted: list) -> tuple[np.ndarray, np.ndarray]:
        """Per leaf, the simulation's probability of its leaf as unreduced
        numerators and denominators.  A copy whose last subcube is not its
        prefix went deeper (a read-once path never returns to a subcube),
        so its later answers follow the restricted law."""
        last, prefix = self.last, self.prefix
        mass, deep = self.mass[prefix], last != prefix
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
        tables = np.array(restricted, dtype=object)[np.arange(self.inst.n), self.last]
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

    def simileaf(self, z: int) -> SimileafReport:
        """On every snip-free leaf, check that the simulation's termination
        probability is within the parametric per-copy distortion factors
        ``max(0, 1 - 4*theta)^n`` and ``(1 + 4*theta)^n`` of the outer
        tree's reach probability, theta the instance's."""
        inst = self.inst
        theta = inst.theta
        if theta > Fraction(1, 2):
            raise HypothesisViolated("theta must be at most 1/2")
        m0, m1, den = inst.g_masses
        if Fraction(abs(m0[0] - m1[0]), den) > theta:
            raise HypothesisViolated("full-cube bias exceeds theta")
        n = inst.n
        lower = max(ZERO, 1 - 4 * theta) ** n
        upper = (1 + 4 * theta) ** n
        nums, den, (q_nums, q_dens) = self._terms(z, q=True)
        checked = ~self.snipped.any(1)
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
        flags = self.snipped
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
        snipped_leaves = self.snipped.any(1)
        z_queries = (self.last != self.prefix).sum(axis=1)  # per leaf, the bits of z it reads
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

    Every branch compiles to its threshold in a ``TreeWalker``, so a
    stream of walks only draws random words and walks the tree's arrays;
    the ``Simulation``'s payload maps each end node to its leaf.  A node
    whose subcube has no mass under its sampling law compiles dead, and a
    walk that reaches it raises.  Only the thresholds and dead nodes depend
    on ``z`` (see ``Simulation``).
    """

    def __init__(self, inst: ComposedInstance, tree: DecisionTree, z: int):
        self.inst = inst
        self.tree = tree
        self.z = z
        simulation = Simulation(inst, tree)
        self._payload, self._walker = simulation.payload, simulation.walker(z)

    def run_stream(self, samples: int, seed: int) -> dict[int, int]:
        """Leaf-id frequency counts over ``samples`` runs sharing one seeded
        random stream."""
        counts = self._walker.counts(_rng(seed), samples)
        return {self._payload[k].leaf_id: n for k, n in enumerate(counts) if n}
