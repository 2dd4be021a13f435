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
next depth).  :func:`rand_complexity` returns that certificate with its
result: the hard distribution and its exact distributional complexity,
read off the DP the game already solved for it.  The multiplicative
weights are Python ints on one fixed grid, the largest always
``ONE_WEIGHT``, and each round's distribution, the weights over their sum,
goes to the DP as int64 point weights; a :class:`Dist` is built only at the
end of a depth.  A round builds no tree: the best response is scored by
walking the DP's choices from the full cube, by the same tie-break rule as
the witness tree, which is built once per depth from the last round's DP.
The walk reads the DP's values as Python ints and carries each node's
subcube as its lattice index and its fixed bits; each leaf scores the
points of its subcube, read off a cached table of the subsets of its free
variables.  A round whose largest weight is still ``ONE_WEIGHT`` skips the
rescale, which would change no weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
TOL = Fraction(1, 100)  # a depth is accepted once its mixture is this close to 1 - eps
MAX_ITER = 5000  # rounds per depth before the game accepts it with limit_hit


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

    ``accepts`` is ``(labels, table)`` as :func:`_accepts` gives it:
    ``table[r, x]`` says whether ``labels[r]`` is correct on input ``x``.
    The DP works on rows ``r``, and the witness's leaves answer
    ``labels[r]``.  ``weights`` are integer point weights over ``den``.
    Tie-breaking is deterministic: answering beats querying at equal value,
    lower variable index beats higher, lower label beats higher.
    """

    def __init__(self, accepts: tuple[list[int], np.ndarray], weights: np.ndarray, den: int):
        self.labels, table = accepts
        self.arity = table.shape[1].bit_length() - 1
        if self.arity > DP_CAP:
            raise CapExceeded(f"arity {self.arity} exceeds the DP cap")
        self.den = den
        self.label_mass = lattice.masses(weights * table, self.arity)
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

    def result(self, depth: int) -> DPResult:
        """Best success of depth-``depth`` trees, with an optimal one."""
        return DPResult(Fraction(self.value(depth), self.den), self.witness(depth))

    def witness(self, depth: int) -> DecisionTree:
        depth = min(depth, self.arity)
        self._layer(depth)
        root = self._node(0, depth, count())
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
        return Leaf(self.labels[k], next(leaf_ids))

    def _choice(self, index: int, d: int) -> tuple[bool, int]:
        """What the optimal depth-``d`` tree does on subcube ``index``, for
        the witness and the best-response walk alike: ``(False, row)``
        answers the label of the lowest row of largest mass unless some
        query beats every answer; then ``(True, var)`` queries the lowest
        variable whose two halves sum to the best value.  The layers up to
        ``d`` must be solved.  Values are read as Python ints, which compare
        far faster than numpy scalars."""
        best = self.values[d].item(index)
        if self.values[0].item(index) < best:  # some query beats every answer
            below = self.values[d - 1]
            step = 1
            for v in range(self.arity):
                # v is free here and its two halves reach the best value
                if (index // step % 3 == 0
                        and below.item(index + step) + below.item(index + 2 * step) == best):
                    return True, v
                step *= 3
        counts = self.label_mass[:, index].tolist()
        return False, counts.index(max(counts))

    def correct(self, depth: int, rows: list[list[bool]]) -> list[bool]:
        """``rows[r][x]`` at the row ``r`` of the label the depth-``depth``
        witness gives each input ``x``.  The walk carries each node's
        subcube as its lattice index and as the bits it fixes and the
        variables it leaves free; a leaf's points are its fixed bits joined
        with each subset of its free variables.  No tree is built and no
        input is evaluated."""
        depth = min(depth, self.arity)
        self._layer(depth)
        correct = [False] * (1 << self.arity)
        subsets = lattice.subsets(self.arity)
        stack = [(0, depth, 0, (1 << self.arity) - 1)]
        while stack:
            index, d, fixed, free = stack.pop()
            query, k = self._choice(index, d)
            if query:
                bit, step = 1 << k, 3**k
                free ^= bit
                stack.append((index + step, d - 1, fixed, free))
                stack.append((index + 2 * step, d - 1, fixed | bit, free))
            else:
                row = rows[k]
                for s in subsets[free]:
                    x = fixed | s
                    correct[x] = row[x]
        return correct


def _accepts(h: Relation) -> tuple[list[int], np.ndarray]:
    """The labels the DP may answer, and a table of which of them each
    input accepts, one row per label.  The labels are 0 and every accepted
    label, in increasing order.  Any other label has mass 0 on every
    subcube and loses ties to label 0, so it is never answered; 0 stays, to
    answer a subcube of mass 0.  So the rows grow with the number of
    accepted labels, not with their values or the alphabet size, which a
    relation file may set to anything."""
    labels = sorted(set().union({0}, *h.accepted))
    return labels, np.array([[r in acc for acc in h.accepted] for r in labels])


def _tree_dp(h: Relation, mu: Dist) -> _TreeDP:
    if h.arity != mu.arity:
        raise QclabError("relation and distribution arity mismatch")
    return _TreeDP(_accepts(h), *lattice.int_weights(mu))


def best_success(h: Problem, mu: Dist, depth: int) -> DPResult:
    """Exact maximum success probability of depth-bounded deterministic trees
    on ``h`` under ``mu``, with an optimal witness tree."""
    if depth < 0:
        raise QclabError("depth must be >= 0")
    return _tree_dp(_as_relation(h), mu).result(depth)


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
    limit_hit: bool
    # the exact D^{hard_dist}_eps: at least ``depth`` when the certificate holds
    certified_depth: int


def _solve_game(
    accepts: tuple[list[int], np.ndarray], depth: int, eps: Fraction, uniform_dp: _TreeDP,
) -> GameResult:
    """One depth of the game, whose first round, on uniform weights, plays
    ``uniform_dp``.  Its ``hard_dist`` is the last distribution and
    ``certified_depth`` that distribution's exact D_eps, read off the last
    round's DP; so a game that ends without ``limit_hit`` rejected ``depth``
    exactly when ``certified_depth > depth``."""
    rows = accepts[1].tolist()
    n_inputs = len(rows[0])
    shrink_num, shrink_den = (1 - ETA).as_integer_ratio()
    target = 1 - eps
    bound = target - TOL
    weights = [ONE_WEIGHT] * n_inputs
    den = sum(weights)
    payoff_sums = [0] * n_inputs
    br_values = []  # best-response value of each round, as (numerator, den)

    def result(t: int, limit_hit: bool = False) -> GameResult:
        # the rounds' denominators differ, so add the pairs unreduced and
        # reduce once
        num, dnm = 0, 1
        for v, d in br_values:
            num, dnm = num * d + v * dnm, dnm * d
        # on limit_hit the last round moved the weights, so their DP is new
        cert_dp = _TreeDP(accepts, lattice.weight_array(weights, den), den) if limit_hit else dp
        return GameResult(
            depth,
            lower_value=Fraction(min(payoff_sums), t),
            upper_value=Fraction(num, dnm * t),
            hard_dist=Dist(dp.arity, tuple(Fraction(w, den) for w in weights)),
            best_tree=dp.witness(depth),
            iterations=t,
            limit_hit=limit_hit,
            certified_depth=cert_dp.min_depth(eps),
        )

    dp = uniform_dp
    for t in range(1, MAX_ITER + 1):
        if t > 1:
            dp = _TreeDP(accepts, lattice.weight_array(weights, den), den)
        value = dp.value(depth)
        br_values.append((value, den))
        correct = dp.correct(depth, rows)
        payoff_sums = [s + c for s, c in zip(payoff_sums, correct)]
        if value * target.denominator < target.numerator * den:
            # exact rejection: even the best depth-d tree fails under this
            # round's distribution
            return result(t)
        if min(payoff_sums) * bound.denominator >= bound.numerator * t:
            return result(t)
        weights = [w * shrink_num // shrink_den if c else w for w, c in zip(weights, correct)]
        top = max(weights)
        if top != ONE_WEIGHT:  # else the rescale is the identity
            weights = [w * ONE_WEIGHT // top for w in weights]
        den = sum(weights)
    return result(MAX_ITER, limit_hit=True)


def rand_complexity(h: Problem, eps) -> GameResult:
    """Randomized query complexity via the minimax principle, with an exact
    certificate.

    Depths are searched from 0 upward.  A depth is rejected only on an exact
    witness distribution under which every depth-bounded tree has success
    strictly below 1 - eps; that witness then certifies, exactly, that the
    complexity exceeds the rejected depth.  A depth is accepted once the
    averaged best-response mixture achieves at least 1 - eps - ``TOL`` on
    every input.  If neither happens within ``MAX_ITER`` rounds the depth is
    accepted with ``limit_hit`` set.

    The result's ``hard_dist`` is the last rejected depth's witness (the
    first depth's last distribution when none was rejected) and
    ``certified_depth`` its exact distributional complexity, read off the
    DP the game solved for it.  A depth that ends on ``limit_hit`` solves
    one more DP, of the weights its last round moved.

    Weights are integers, the largest equal to ``ONE_WEIGHT``.  Each round
    shrinks the weight of every input the best response answers correctly
    to floor(w * (1 - ETA)), then rescales every weight to
    floor(w * ONE_WEIGHT / max), so a weight that floors to 0 stays 0.  The
    next distribution is the weights over their sum; it goes to the DP as
    int64 point weights, and a :class:`Dist` is built only at the end of a
    depth.  Every depth starts from uniform weights, so their first rounds
    share one DP.
    """
    eps = _checked_eps(eps)
    rel = _as_relation(h)
    accepts = _accepts(rel)
    uniform = [ONE_WEIGHT] * (1 << rel.arity)
    # every depth's game starts from these weights, so its first round
    # plays this one DP
    uniform_dp = _TreeDP(accepts, lattice.weight_array(uniform, sum(uniform)), sum(uniform))
    rejected = None  # the last rejected depth's game
    for depth in range(rel.arity + 1):
        game = _solve_game(accepts, depth, eps, uniform_dp)
        if game.limit_hit or game.certified_depth <= depth:
            if rejected is None:
                return game
            return replace(game, hard_dist=rejected.hard_dist,
                           certified_depth=rejected.certified_depth)
        rejected = game
    raise Unachievable("no depth accepted up to the full arity")
