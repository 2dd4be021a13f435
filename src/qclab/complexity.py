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
:class:`Dist` is built only for a certificate.  A round builds no tree:
the best response is scored by walking the DP's choices with the inputs
that reach each node, by the same tie-break rule as the witness tree,
which is built once per depth from the last round's DP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import count
from typing import Callable, Union

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
        query, k = self._choice(index, d)
        if query:
            step = 3**k
            return InternalNode(
                k,
                self._node(index + step, d - 1, leaf_ids),
                self._node(index + 2 * step, d - 1, leaf_ids),
            )
        return Leaf(k, next(leaf_ids))

    def _choice(self, index: int, d: int) -> tuple[bool, int]:
        """What the optimal depth-``d`` tree does on subcube ``index``, for
        the witness and the best-response walk alike: ``(False, label)``
        answers the lowest label of largest mass unless some query beats
        every answer; then ``(True, var)`` queries the lowest variable whose
        two halves sum to the best value."""
        best = self._layer(d)[index]
        if self.values[0][index] < best:  # some query beats every answer
            below = self.values[d - 1]
            return True, next(
                v for v in range(self.arity)
                if index // 3**v % 3 == 0  # v is free here
                and below[index + 3**v] + below[index + 2 * 3**v] == best
            )
        counts = self.label_mass[:, index].tolist()
        return False, counts.index(max(counts))

    def correct(self, depth: int, rows: list[list[bool]]) -> list[bool]:
        """``rows[label][x]`` at the label the depth-``depth`` witness gives
        each input ``x``, found by passing each node the inputs that reach
        it; no tree is built and no input is evaluated."""
        correct = [False] * (1 << self.arity)
        stack = [(0, min(depth, self.arity), range(1 << self.arity))]
        while stack:
            index, d, inputs = stack.pop()
            query, k = self._choice(index, d)
            if query:
                bit, step = 1 << k, 3**k
                stack.append((index + step, d - 1, [x for x in inputs if not x & bit]))
                stack.append((index + 2 * step, d - 1, [x for x in inputs if x & bit]))
            else:
                row = rows[k]
                for x in inputs:
                    correct[x] = row[x]
        return correct


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
    # the game's DP of hard_dist, which certificates reuse; None when the
    # game never solved it (a first depth that ends on limit_hit)
    hard_dp: _TreeDP | None = field(default=None, repr=False, compare=False)


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
    dp: _TreeDP | None  # the DP of mu, None on limit_hit


def _solve_game(
    accepts: np.ndarray,
    depth: int,
    target: Fraction,
    tol: Fraction,
    max_iter: int,
    first_round: Callable[[], _TreeDP],
) -> _GameStatus:
    rows = accepts.tolist()
    n_inputs = accepts.shape[1]
    shrink_num, shrink_den = (1 - ETA).as_integer_ratio()
    bound = target - tol
    weights = [ONE_WEIGHT] * n_inputs
    den = sum(weights)
    payoff_sums = [0] * n_inputs
    br_values = []  # best-response value of each round, as (numerator, den)

    def status(accepted: bool, decided: bool, t: int) -> _GameStatus:
        # the rounds' denominators differ, so add the pairs unreduced and
        # reduce once
        num, dnm = 0, 1
        for v, d in br_values:
            num, dnm = num * d + v * dnm, dnm * d
        return _GameStatus(
            accepted, decided,
            lower=Fraction(min(payoff_sums), t),
            upper=Fraction(num, dnm * t),
            iterations=t, tree=dp.witness(depth),
            mu=Dist(dp.arity, tuple(Fraction(w, den) for w in weights)),
            dp=dp if decided else None,
        )

    for t in range(1, max_iter + 1):
        if t == 1:
            dp = first_round()
        else:
            dp = _TreeDP(accepts, lattice.weight_array(weights, den), den)
        value = dp.value(depth)
        br_values.append((value, den))
        correct = dp.correct(depth, rows)
        payoff_sums = [s + c for s, c in zip(payoff_sums, correct)]
        if value * target.denominator < target.numerator * den:
            # exact rejection: even the best depth-d tree fails under this
            # round's distribution
            return status(False, True, t)
        if min(payoff_sums) * bound.denominator >= bound.numerator * t:
            return status(True, True, t)
        weights = [w * shrink_num // shrink_den if c else w for w, c in zip(weights, correct)]
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
    certificate of a depth.  Every depth starts from uniform weights, so
    their first rounds share one DP.
    """
    eps = _checked_eps(eps)
    tol = Fraction(tol)
    if tol <= 0:
        raise QclabError("tol must be positive")
    if max_iter < 1:
        raise QclabError("max_iter must be at least 1")
    rel = _as_relation(h)
    accepts = _accepts(rel)
    uniform = [ONE_WEIGHT] * accepts.shape[1]
    # every depth's game starts from these weights: the first round to run
    # solves their DP and later first rounds reuse it
    first_round = cache(partial(
        _TreeDP, accepts, lattice.weight_array(uniform, sum(uniform)), sum(uniform),
    ))
    target = 1 - eps
    cert: _GameStatus | None = None
    for depth in range(rel.arity + 1):
        status = _solve_game(accepts, depth, target, tol, max_iter, first_round)
        if status.accepted or not status.decided:
            hard = cert if cert is not None else status
            return GameResult(
                depth=depth,
                lower_value=status.lower,
                upper_value=status.upper,
                hard_dist=hard.mu,
                best_tree=status.tree,
                iterations=status.iterations,
                limit_hit=not status.decided,
                hard_dp=hard.dp,
            )
        cert = status
    raise Unachievable("no depth accepted up to the full arity")


def hard_distribution(g: Problem, eps, tol=Fraction(1, 100), max_iter: int = 5000) -> Dist:
    """Adversary distribution whose exact distributional complexity certifies
    the depth reported by :func:`rand_complexity`."""
    result = rand_complexity(g, eps, tol, max_iter)
    _certify(_hard_complexity(g, result, eps), result.depth)
    return result.hard_dist


def _hard_complexity(h: Problem, result: GameResult, eps) -> int:
    """Exact distributional complexity of the game's hard distribution, on
    the DP the game already solved for it when there is one."""
    dp = result.hard_dp
    if dp is None:
        dp = _tree_dp(_as_relation(h), result.hard_dist)
    return dp.min_depth(_checked_eps(eps))


def _certify(certified: int, depth: int) -> None:
    """Raise unless the hard distribution's exact distributional complexity
    ``certified`` reaches the game's ``depth``."""
    if certified < depth:
        raise QclabError(
            f"certificate failed: distributional complexity {certified} "
            f"below game depth {depth}"
        )
