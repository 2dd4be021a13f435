"""Exact distributional query complexity by dynamic programming over
subcubes, and randomized query complexity via best-response dynamics on the
input-vs-algorithm zero-sum game.

The DP runs on the subcube lattice of :mod:`qclab.lattice` and is exact:
it takes integer point weights over one common denominator, in numpy
int64 only while that denominator is below 2^62 and in Python ints above
it, so every comparison is exact integer arithmetic.  The game solver is
approximate but bracketed, and every accept/reject decision it makes is
backed by an exact quantity (a best-response value below the target
rejects a depth; the rejecting distribution is an exact certificate for the
next depth).  Its multiplicative weights are Python ints on one fixed grid,
the largest always ``ONE_WEIGHT``, and each round's distribution, the
weights over their sum, goes to the DP as int64 point weights; a
:class:`Dist` is built only for a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Union

import numpy as np

from . import lattice
from .core import (
    DP_CAP,
    CapExceeded,
    Dist,
    HypothesisViolated,
    QclabError,
    Relation,
    TruthTable,
    Unachievable,
)
from .dtree import DecisionTree, InternalNode, Leaf

Problem = Union[Relation, TruthTable]

ETA = Fraction(1, 8)  # multiplicative-weights step of the game solver
# the game's weights are integers on this grid, the largest always equal to
# it: their sum is at most 2^DP_CAP * ONE_WEIGHT = 2^52, so the DP runs on int64
ONE_WEIGHT = 1 << 40


def _as_relation(h: Problem) -> Relation:
    if isinstance(h, TruthTable):
        return Relation.from_function(h)
    return h


@dataclass(frozen=True)
class DPResult:
    success: Fraction
    witness: DecisionTree


class _TreeDP:
    """Optimal depth-bounded trees for a fixed problem and input weights,
    solved once over the subcube lattice; depths are added on demand.

    ``accepts[r, x]`` says whether label ``r`` is correct on input ``x``, and
    ``weights`` are integer point weights over ``den``.  Tie-breaking is
    deterministic: answering beats querying at equal value, lower variable
    index beats higher, lower label beats higher.
    """

    def __init__(self, accepts: np.ndarray, weights: np.ndarray, den: int):
        self.arity = accepts.shape[1].bit_length() - 1
        if self.arity > DP_CAP:
            raise CapExceeded(f"arity {self.arity} exceeds the DP cap")
        self.den = den
        self.label_mass = lattice.masses(weights * accepts, self.arity)
        self._deeper = lattice.layers(self.label_mass.max(axis=0), self.arity)
        self.values: list[np.ndarray] = []

    def _layer(self, depth: int) -> np.ndarray:
        while len(self.values) <= depth:
            self.values.append(next(self._deeper))
        return self.values[depth]

    def value(self, depth: int) -> int:
        """Best success numerator (over ``den``) of depth-``depth`` trees."""
        return int(self._layer(min(depth, self.arity))[0])

    def min_depth(self, eps: Fraction) -> int:
        """Smallest depth whose best success is at least ``1 - eps``."""
        target = 1 - eps
        for d in range(self.arity + 1):
            if self.value(d) * target.denominator >= target.numerator * self.den:
                return d
        raise Unachievable("full-depth success below 1 - eps")

    def result(self, depth: int, with_witness: bool = True) -> DPResult:
        """Best success of depth-``depth`` trees, with an optimal one."""
        witness = self.witness(depth) if with_witness else None
        return DPResult(success=Fraction(self.value(depth), self.den), witness=witness)

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


def _accepts(h: Relation) -> np.ndarray:
    """Which labels each input accepts, shape ``(alphabet_size, 2^arity)``."""
    return np.array([[r in acc for acc in h.accepted] for r in range(h.alphabet_size)])


def _tree_dp(h: Relation, mu: Dist) -> _TreeDP:
    if h.arity != mu.arity:
        raise QclabError("relation and distribution arity mismatch")
    return _TreeDP(_accepts(h), *lattice.int_weights(mu))


def best_success(h: Problem, mu: Dist, depth: int, with_witness: bool = True) -> DPResult:
    """Exact maximum success probability of depth-bounded deterministic trees
    on ``h`` under ``mu``, with an optimal witness tree."""
    if depth < 0:
        raise QclabError("depth must be >= 0")
    return _tree_dp(_as_relation(h), mu).result(depth, with_witness)


def _checked_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise HypothesisViolated("eps must lie in [0, 1/2)")
    return eps


def dist_complexity(h: Problem, mu: Dist, eps) -> int:
    """Smallest depth whose best depth-bounded success is >= 1 - eps."""
    eps = _checked_eps(eps)
    return _tree_dp(_as_relation(h), mu).min_depth(eps)


def dist_solution(h: Problem, mu: Dist, eps) -> tuple[int, DPResult]:
    """:func:`dist_complexity` and :func:`best_success` at that depth, from
    one DP."""
    eps = _checked_eps(eps)
    dp = _tree_dp(_as_relation(h), mu)
    depth = dp.min_depth(eps)
    return depth, dp.result(depth)


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
    # the last distribution; on a rejection, an exact witness that every
    # depth-d tree fails
    mu: Dist


def _solve_game(
    accepts: np.ndarray,
    depth: int,
    target: Fraction,
    tol: Fraction,
    max_iter: int,
) -> _GameStatus:
    rows = accepts.tolist()
    n_inputs = accepts.shape[1]
    shrink = 1 - ETA
    bound = target - tol
    weights = [ONE_WEIGHT] * n_inputs
    den = sum(weights)
    payoff_sums = [0] * n_inputs
    br_values = []  # best-response value of each round, as (numerator, den)

    def status(accepted: bool, decided: bool, t: int) -> _GameStatus:
        return _GameStatus(
            accepted, decided,
            lower=Fraction(min(payoff_sums), t),
            upper=sum(Fraction(v, d) for v, d in br_values) / t,
            iterations=t, tree=tree,
            mu=Dist(tree.arity, tuple(Fraction(w, den) for w in weights)),
        )

    for t in range(1, max_iter + 1):
        dp = _TreeDP(accepts, lattice.weight_array(weights, den), den)
        tree = dp.witness(depth)
        value = dp.value(depth)
        br_values.append((value, den))
        correct = [rows[tree.output(x)][x] for x in range(n_inputs)]
        payoff_sums = [s + c for s, c in zip(payoff_sums, correct)]
        if value * target.denominator < target.numerator * den:
            # exact rejection: even the best depth-d tree fails under this
            # round's distribution
            return status(False, True, t)
        if min(payoff_sums) * bound.denominator >= bound.numerator * t:
            return status(True, True, t)
        weights = [
            w * shrink.numerator // shrink.denominator if c else w
            for w, c in zip(weights, correct)
        ]
        top = max(weights)
        weights = [w * ONE_WEIGHT // top for w in weights]
        den = sum(weights)
    return status(False, False, max_iter)


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

    Weights are integers, the largest equal to ``ONE_WEIGHT``.  Each round
    shrinks the weight of every input the best response answers correctly
    to floor(w * (1 - ETA)), then rescales every weight to
    floor(w * ONE_WEIGHT / max), so a weight that floors to 0 stays 0.  The
    next distribution is the weights over their sum; it goes to the DP as
    int64 point weights, and a :class:`Dist` is built only for the
    certificate of a depth.
    """
    eps = _checked_eps(eps)
    tol = Fraction(tol)
    if tol <= 0:
        raise QclabError("tol must be positive")
    if max_iter < 1:
        raise QclabError("max_iter must be at least 1")
    rel = _as_relation(h)
    accepts = _accepts(rel)
    target = 1 - eps
    cert_mu: Dist | None = None
    for depth in range(rel.arity + 1):
        status = _solve_game(accepts, depth, target, tol, max_iter)
        if status.accepted or not status.decided:
            hard = cert_mu if cert_mu is not None else status.mu
            return GameResult(
                depth=depth,
                lower_value=status.lower,
                upper_value=status.upper,
                hard_dist=hard,
                best_tree=status.tree,
                iterations=status.iterations,
                limit_hit=not status.decided,
            )
        cert_mu = status.mu
    raise Unachievable("no depth accepted up to the full arity")


def hard_distribution(g: Problem, eps, tol=Fraction(1, 100), max_iter: int = 5000) -> Dist:
    """Adversary distribution whose exact distributional complexity certifies
    the depth reported by :func:`rand_complexity`."""
    result = rand_complexity(g, eps, tol, max_iter)
    _certify(dist_complexity(g, result.hard_dist, eps), result.depth)
    return result.hard_dist


def _certify(certified: int, depth: int) -> None:
    """Raise unless the hard distribution's exact distributional complexity
    ``certified`` reaches the game's ``depth``."""
    if certified < depth:
        raise QclabError(
            f"certificate failed: distributional complexity {certified} "
            f"below game depth {depth}"
        )
