"""Exact distributional query complexity by dynamic programming over
subcubes, and randomized query complexity via best-response dynamics on the
input-vs-algorithm zero-sum game.

The DP runs on the subcube lattice of :mod:`qclab.lattice` and is exact:
distribution masses are integer numerators over one common denominator, in
numpy int64 only while that denominator is below 2^62 and in Python ints
above it, so every comparison is exact integer arithmetic.  The game
solver is approximate but bracketed, and every accept/reject decision it
makes is backed by an exact quantity (a best-response value below the target
rejects a depth; the rejecting distribution is an exact certificate for the
next depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Union

import numpy as np

from . import lattice
from .core import (
    CapExceeded,
    Dist,
    HypothesisViolated,
    QclabError,
    Relation,
    TruthTable,
    Unachievable,
    caps,
)
from .dtree import DecisionTree, InternalNode, Leaf

Problem = Union[Relation, TruthTable]

WEIGHT_DENOM_LIMIT = 10**6
ETA = Fraction(1, 8)  # multiplicative-weights step of the game solver


def _as_relation(h: Problem) -> Relation:
    if isinstance(h, TruthTable):
        return Relation.from_function(h)
    return h


@dataclass(frozen=True)
class DPResult:
    success: Fraction
    witness: DecisionTree


class _TreeDP:
    """Optimal depth-bounded trees for a fixed (h, mu), solved once over the
    subcube lattice; depths are added on demand.

    Tie-breaking is deterministic: answering beats querying at equal value,
    lower variable index beats higher, lower label beats higher.
    """

    def __init__(self, h: Relation, mu: Dist):
        if h.arity != mu.arity:
            raise QclabError("relation and distribution arity mismatch")
        if h.arity > caps()["dp"]:
            raise CapExceeded(f"arity {h.arity} exceeds the DP cap")
        self.arity = h.arity
        weights, self.den = lattice.int_weights(mu)
        accepts = np.array([[r in acc for acc in h.accepted] for r in range(h.alphabet_size)])
        self.label_mass = lattice.masses(weights * accepts, h.arity)
        self._deeper = lattice.layers(self.label_mass.max(axis=0), h.arity)
        self.values: list[np.ndarray] = []

    def _layer(self, depth: int) -> np.ndarray:
        while len(self.values) <= depth:
            self.values.append(next(self._deeper))
        return self.values[depth]

    def value(self, depth: int) -> int:
        """Best success numerator (over ``den``) of depth-``depth`` trees."""
        return int(self._layer(min(depth, self.arity))[0])

    def witness(self, depth: int) -> DecisionTree:
        root = self._node(0, min(depth, self.arity), count())
        return DecisionTree(self.arity, root)

    def _node(self, index: int, d: int, leaf_ids):
        # a method, not a closure: a self-referencing closure would keep
        # the lattice arrays alive until the cyclic collector runs
        best = self._layer(d)[index]
        if self.values[0][index] < best:  # some query beats every answer
            below = self.values[d - 1]
            var = next(
                v for v in range(self.arity)
                if index // 3**v % 3 == 0  # v is free here
                and below[index + 3**v] + below[index + 2 * 3**v] == best
            )
            step = 3**var
            return InternalNode(
                var,
                self._node(index + step, d - 1, leaf_ids),
                self._node(index + 2 * step, d - 1, leaf_ids),
            )
        counts = self.label_mass[:, index].tolist()
        return Leaf(counts.index(max(counts)), next(leaf_ids))


def best_success(h: Problem, mu: Dist, depth: int, with_witness: bool = True) -> DPResult:
    """Exact maximum success probability of depth-bounded deterministic trees
    on ``h`` under ``mu``, with an optimal witness tree."""
    if depth < 0:
        raise QclabError("depth must be >= 0")
    rel = _as_relation(h)
    dp = _TreeDP(rel, mu)
    witness = dp.witness(depth) if with_witness else None
    return DPResult(success=Fraction(dp.value(depth), dp.den), witness=witness)


def dist_complexity(h: Problem, mu: Dist, eps) -> int:
    """Smallest depth whose best depth-bounded success is >= 1 - eps."""
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise HypothesisViolated("eps must lie in [0, 1/2)")
    rel = _as_relation(h)
    dp = _TreeDP(rel, mu)
    target_num = (1 - eps).numerator * dp.den
    target_den = (1 - eps).denominator
    for d in range(rel.arity + 1):
        if dp.value(d) * target_den >= target_num:
            return d
    raise Unachievable("full-depth success below 1 - eps")


@dataclass(frozen=True)
class GameResult:
    depth: int
    lower_value: Fraction
    upper_value: Fraction
    hard_dist: Dist
    best_tree: DecisionTree
    iterations: int
    limit_hit: bool = False


@dataclass(frozen=True)
class _GameStatus:
    accepted: bool
    decided: bool
    lower: Fraction
    upper: Fraction
    iterations: int
    tree: DecisionTree
    reject_mu: Dist | None  # exact witness: every depth-d tree fails on it
    final_mu: Dist


def _limited_dist(weights: list[Fraction]) -> Dist:
    """Snap weights to bounded denominators, then normalize exactly.  The
    result is a genuine distribution, which is all soundness needs."""
    total = sum(weights)
    approx = [(w / total).limit_denominator(WEIGHT_DENOM_LIMIT) for w in weights]
    s = sum(approx)
    if s == 0:
        n = len(weights)
        return Dist(n.bit_length() - 1, tuple([Fraction(1, n)] * n))
    probs = [a / s for a in approx]
    return Dist((len(weights)).bit_length() - 1, tuple(probs))


def _solve_game(
    rel: Relation,
    depth: int,
    target: Fraction,
    tol: Fraction,
    max_iter: int,
) -> _GameStatus:
    n_inputs = 1 << rel.arity
    weights = [Fraction(1)] * n_inputs
    payoff_sums = [0] * n_inputs
    br_value_sum = Fraction(0)
    shrink = 1 - ETA
    mu_t = Dist.uniform(rel.arity)
    tree = None
    for t in range(1, max_iter + 1):
        dp = best_success(rel, mu_t, depth)
        tree = dp.witness
        br_value_sum += dp.success
        upper = br_value_sum / t
        correct = [1 if rel.accepts(x, tree.output(x)) else 0 for x in range(n_inputs)]
        for x in range(n_inputs):
            payoff_sums[x] += correct[x]
        lower = Fraction(min(payoff_sums), t)
        if dp.success < target:
            # exact rejection: even the best depth-d tree fails under mu_t
            return _GameStatus(False, True, lower, upper, t, tree, mu_t, mu_t)
        if lower >= target - tol:
            return _GameStatus(True, True, lower, upper, t, tree, None, mu_t)
        for x in range(n_inputs):
            if correct[x]:
                weights[x] *= shrink
        top = max(weights)
        weights = [(w / top).limit_denominator(WEIGHT_DENOM_LIMIT) for w in weights]
        mu_t = _limited_dist(weights)
    lower = Fraction(min(payoff_sums), max_iter)
    upper = br_value_sum / max_iter
    return _GameStatus(False, False, lower, upper, max_iter, tree, None, mu_t)


def rand_complexity(
    h: Problem,
    eps,
    tol=Fraction(1, 100),
    max_iter: int = 5000,
) -> GameResult:
    """Approximate randomized query complexity via the minimax principle.

    Depths are searched from 0 upward.  A depth is rejected only on an exact
    witness distribution under which every depth-bounded tree has success
    strictly below 1 - eps; that witness then certifies, exactly, that the
    complexity exceeds the rejected depth.  A depth is accepted once the
    averaged best-response mixture achieves at least 1 - eps - tol on every
    input.  If neither happens within ``max_iter`` rounds the depth is
    accepted with ``limit_hit`` set.
    """
    eps = Fraction(eps)
    tol = Fraction(tol)
    if not 0 <= eps < Fraction(1, 2):
        raise HypothesisViolated("eps must lie in [0, 1/2)")
    if tol <= 0:
        raise QclabError("tol must be positive")
    if max_iter < 1:
        raise QclabError("max_iter must be at least 1")
    rel = _as_relation(h)
    target = 1 - eps
    cert_mu: Dist | None = None
    for depth in range(rel.arity + 1):
        status = _solve_game(rel, depth, target, tol, max_iter)
        if status.accepted or not status.decided:
            hard = cert_mu if cert_mu is not None else status.final_mu
            return GameResult(
                depth=depth,
                lower_value=status.lower,
                upper_value=status.upper,
                hard_dist=hard,
                best_tree=status.tree,
                iterations=status.iterations,
                limit_hit=not status.decided,
            )
        cert_mu = status.reject_mu
    raise Unachievable("no depth accepted up to the full arity")


def hard_distribution(g: Problem, eps, tol=Fraction(1, 100), max_iter: int = 5000) -> Dist:
    """Adversary distribution whose exact distributional complexity certifies
    the depth reported by :func:`rand_complexity`."""
    result = rand_complexity(g, eps, tol, max_iter)
    certified = dist_complexity(g, result.hard_dist, eps)
    if certified < result.depth:
        raise QclabError(
            f"certificate failed: distributional complexity {certified} "
            f"below game depth {result.depth}"
        )
    return result.hard_dist
