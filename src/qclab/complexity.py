"""Exact distributional query complexity by dynamic programming over
subcubes, and randomized query complexity via best-response dynamics on the
input-vs-algorithm zero-sum game.

The DP runs on the subcube lattice of :mod:`qclab.lattice` and is exact:
it takes integer point weights over one common denominator, in numpy
int64 only while that denominator is below 2^62 and in Python ints above
it.  Every subcube's best answer takes the place of the last label's
masses, and :func:`lattice.solve`, the one home of the optimal-tree
recurrence, solves a depth d into one buffer over the 3^m subcubes: it
writes only the levels d - 1 up to the full cube, so a subcube that fixes
k variables ends with its best depth-(d - k) value.  The game solver is
approximate but bracketed, and every accept/reject decision it makes is
backed by an exact quantity (a best-response value below the target
rejects a depth; the rejecting distribution is an exact certificate for
the next depth).  :func:`rand_complexity` returns that
certificate, the hard distribution and its exact distributional
complexity, read off the DP the game already solved for it.  The
multiplicative weights are Python ints on one fixed grid, the largest
always ``ONE_WEIGHT``, and go to the DP as int64 point weights.  A round
builds no tree: it scores the best response by walking the DP's choices
from the full cube by the witness tree's tie-break rule.  A call builds
its result, hard distribution and witness tree once, after its last
depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Union

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
    solved on the subcube lattice for one depth at a time.

    ``accepts`` is ``(labels, table)`` as :func:`_accepts` gives it:
    ``table[r, x]`` says whether ``labels[r]`` is correct on input ``x``.
    The DP works on rows ``r``, and the witness's leaves answer
    ``labels[r]``.  ``weights`` are integer point weights over ``den``.
    Tie-breaking is deterministic: answering beats querying at equal value,
    lower variable index beats higher, lower label beats higher.  ``_query``
    and ``_row`` keep that rule for the witness and the best-response walk
    alike.
    """

    def __init__(self, accepts: tuple[list[int], np.ndarray], weights: np.ndarray, den: int):
        self.labels, table = accepts
        self.arity = table.shape[1].bit_length() - 1
        if self.arity > DP_CAP:
            raise CapExceeded(f"arity {self.arity} exceeds the DP cap")
        self.den = den
        self.label_mass = lattice.masses(weights * table, self.arity)
        # the last row gives way to every cell's best answer, V_0, so a
        # leaf answers the lowest row whose mass equals it, which is the
        # last row when no other does
        self.answers = self.label_mass[-1]
        for row in self.label_mass[:-1]:
            np.maximum(self.answers, row, out=self.answers)
        # after _solve(d), a cell of level k < d holds V_{d-k}, the best
        # success of depth-(d - k) trees on it; no solve touches the others
        self.values = np.empty_like(self.answers)
        self.depth = 0

    def _solve(self, depth: int) -> None:
        """Solve ``min(depth, arity)`` into ``values`` unless it is solved,
        by :func:`lattice.solve`, the one home of the tree recurrence."""
        depth = min(depth, self.arity)
        if depth != self.depth:
            lattice.solve(self.answers, self.values, self.arity, depth)
            self.depth = depth

    def value(self, depth: int) -> int:
        """Best success numerator (over ``den``) of depth-``depth`` trees."""
        self._solve(depth)
        return int((self.values if self.depth else self.answers)[0])

    def min_depth(self, eps: Fraction) -> int:
        """Smallest depth whose best success is at least ``1 - eps``.  The
        value grows with the depth, so the search walks from the solved
        depth: down while the depth below meets the target, else up until
        one does, at the latest at full depth, where every input's own
        subcube answers a label it accepts and the value is ``den``."""
        target = 1 - eps

        def meets(d: int) -> bool:
            return (d >= self.arity
                    or self.value(d) * target.denominator >= target.numerator * self.den)

        d = self.depth
        if meets(d):
            while d and meets(d - 1):
                d -= 1
            return d
        while not meets(d + 1):
            d += 1
        return d + 1

    def result(self, depth: int) -> DPResult:
        """Best success of depth-``depth`` trees, with an optimal one."""
        return DPResult(Fraction(self.value(depth), self.den), self.witness(depth))

    def witness(self, depth: int) -> DecisionTree:
        self._solve(depth)
        root = self._node(0, (1 << self.arity) - 1, self.depth, count())
        return DecisionTree(self.arity, root)

    def _node(self, index: int, free: int, left: int, leaf_ids):
        # a method, not a closure: a self-referencing closure would keep
        # the lattice arrays alive until the cyclic collector runs
        var = self._query(index, free, left)
        if var < 0:
            return Leaf(self.labels[self._row(index)], next(leaf_ids))
        step = 3**var
        free ^= 1 << var
        return InternalNode(var, self._node(index + step, free, left - 1, leaf_ids),
                            self._node(index + 2 * step, free, left - 1, leaf_ids))

    def _query(self, index: int, free: int, left: int) -> int:
        """The variable the solved depth's optimal tree queries on subcube
        ``index``, which leaves the variables of mask ``free`` free with
        ``left`` queries to go, or -1 where it answers.  It answers unless
        some query beats the cell's best answer, and then queries the
        lowest free variable whose two halves sum to the best value.  Values
        are read as Python ints, which compare far faster than numpy
        scalars."""
        if left:
            best = self.values.item(index)
            if self.answers.item(index) < best:
                # the halves' values: V_{left-1}, the answers when left is 1
                halves = self.values if left > 1 else self.answers
                while free:
                    bit = free & -free
                    var = bit.bit_length() - 1
                    step = 3**var
                    if halves.item(index + step) + halves.item(index + 2 * step) == best:
                        return var
                    free ^= bit
        return -1

    def _row(self, index: int) -> int:
        """The row a leaf on subcube ``index`` answers: the lowest of
        largest mass, the first entry of the cell's column that equals its
        last, the best answer."""
        masses = self.label_mass[:, index].tolist()
        return masses.index(masses[-1])

    def correct(self, depth: int, rows: list[list[bool]]) -> list[bool]:
        """``rows[r][x]`` at the row ``r`` of the label the depth-``depth``
        witness gives each input ``x``.  The walk carries each node's
        subcube as its lattice index, the bits it fixes, the variables it
        leaves free and the queries left; it reads the answers and values
        the solve left, and only a leaf reads its label masses.  A leaf's
        points are its fixed bits joined with each subset of its free
        variables.  No tree is built and no input is evaluated."""
        self._solve(depth)
        correct = [False] * (1 << self.arity)
        subsets = lattice.subsets(self.arity)
        query = self._query
        stack = [(0, 0, (1 << self.arity) - 1, self.depth)]
        while stack:
            index, fixed, free, left = stack.pop()
            var = query(index, free, left)
            if var < 0:
                row = rows[self._row(index)]
                for s in subsets[free]:
                    x = fixed | s
                    correct[x] = row[x]
            else:
                bit, step = 1 << var, 3**var
                free ^= bit
                stack.append((index + step, fixed, free, left - 1))
                stack.append((index + 2 * step, fixed | bit, free, left - 1))
        return correct


def _accepts(h: Relation) -> tuple[list[int], np.ndarray]:
    """The labels the DP may answer, and a table of which of them each
    input accepts, one row per label.  The labels are 0 and every accepted
    label, in increasing order.  Any other label has mass 0 on every
    subcube and loses ties to label 0, so it is never answered; 0 stays, to
    answer a subcube of mass 0.  So the rows grow with the number of
    accepted labels, not with their values or the alphabet size, which a
    relation file may set to anything.  The table has one column per
    distinct accepted set, gathered into one per input."""
    column = {acc: i for i, acc in enumerate(dict.fromkeys(h.accepted))}
    labels = sorted(set().union({0}, *column))
    distinct = np.array([[r in acc for acc in column] for r in labels])
    return labels, np.take(distinct, [column[acc] for acc in h.accepted], axis=1)


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


class _Game(NamedTuple):
    """The state one depth's game ends in: the last round's DP, the
    weights and their sum as the game left them, each input's payoff sum,
    each round's best-response value as ``(numerator, den)``, and how it
    ended.  A game is ``rejected`` exactly when its last round's value is
    below ``1 - eps``; the weights are then that round's, and the payoffs
    and values, which no result reads, stop before it."""

    dp: _TreeDP
    weights: list[int]
    den: int
    payoff_sums: list[int]
    br_values: list[tuple[int, int]]
    rejected: bool
    limit_hit: bool


def _solve_game(
    accepts: tuple[list[int], np.ndarray], depth: int, eps: Fraction, uniform_dp: _TreeDP,
) -> _Game:
    """Play one depth of the game until it rejects, accepts or reaches
    ``MAX_ITER`` rounds, and return the state it ends in, from which
    :func:`rand_complexity` builds its result.  The first round, on uniform
    weights, plays ``uniform_dp``; a rejecting round stops before it scores
    its best response."""
    rows = accepts[1].tolist()
    n_inputs = len(rows[0])
    shrink_num, shrink_den = (1 - ETA).as_integer_ratio()
    target_num, target_den = (1 - eps).as_integer_ratio()
    bound_num, bound_den = (1 - eps - TOL).as_integer_ratio()
    weights = [ONE_WEIGHT] * n_inputs
    den = sum(weights)
    payoff_sums = [0] * n_inputs
    br_values = []
    dp = uniform_dp
    for t in range(1, MAX_ITER + 1):
        if t > 1:
            dp = _TreeDP(accepts, lattice.weight_array(weights, den), den)
        value = dp.value(depth)
        if value * target_den < target_num * den:
            # exact rejection: even the best depth-d tree fails under this
            # round's distribution
            return _Game(dp, weights, den, payoff_sums, br_values, True, False)
        br_values.append((value, den))
        correct = dp.correct(depth, rows)
        payoff_sums = [s + c for s, c in zip(payoff_sums, correct)]
        if min(payoff_sums) * bound_den >= bound_num * t:
            return _Game(dp, weights, den, payoff_sums, br_values, False, False)
        weights = [w * shrink_num // shrink_den if c else w for w, c in zip(weights, correct)]
        top = max(weights)
        if top != ONE_WEIGHT:  # else the rescale is the identity
            weights = [w * ONE_WEIGHT // top for w in weights]
        den = sum(weights)
    return _Game(dp, weights, den, payoff_sums, br_values, False, True)


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
    DP the game solved for it when it rejected.  A first depth that ends on
    ``limit_hit`` solves one more DP, of the weights its last round moved.

    Weights are integers, the largest equal to ``ONE_WEIGHT``.  Each round
    shrinks the weight of every input the best response answers correctly
    to floor(w * (1 - ETA)), then rescales every weight to
    floor(w * ONE_WEIGHT / max), so a weight that floors to 0 stays 0.  The
    next distribution is the weights over their sum; it goes to the DP as
    int64 point weights.  A depth's game returns its raw state, and the one
    :class:`GameResult`, its :class:`Dist` and its witness tree are built
    once per call, from the accepted depth's game.  Every depth starts from
    uniform weights, so their first rounds share one DP.
    """
    eps = _checked_eps(eps)
    rel = _as_relation(h)
    accepts = _accepts(rel)
    uniform = [ONE_WEIGHT] * (1 << rel.arity)
    # every depth's game starts from these weights, so its first round
    # plays this one DP
    uniform_dp = _TreeDP(accepts, lattice.weight_array(uniform, sum(uniform)), sum(uniform))
    hard = None  # the hard distribution's weights, their sum and exact D_eps
    # a depth whose best tree meets 1 - eps is not rejected, and the full
    # depth's best tree succeeds everywhere, so the loop ends
    for depth in count():
        game = _solve_game(accepts, depth, eps, uniform_dp)
        if not game.rejected:
            break
        # D_eps is read off the rejecting round's DP, which then dies with
        # its depth instead of living through the next depth's game
        hard = game.weights, game.den, game.dp.min_depth(eps)
        del game
    best_tree = game.dp.witness(depth)
    if hard is None:  # this first depth's last distribution
        # on limit_hit the last round moved the weights, so their DP is new
        cert_dp = (_TreeDP(accepts, lattice.weight_array(game.weights, game.den), game.den)
                   if game.limit_hit else game.dp)
        hard = game.weights, game.den, cert_dp.min_depth(eps)
    weights, den, certified_depth = hard
    # the rounds' denominators differ, so add the pairs unreduced and
    # reduce once
    num, dnm = 0, 1
    for v, d in game.br_values:
        num, dnm = num * d + v * dnm, dnm * d
    t = len(game.br_values)
    return GameResult(
        depth,
        lower_value=Fraction(min(game.payoff_sums), t),
        upper_value=Fraction(num, dnm * t),
        hard_dist=Dist(rel.arity, tuple(Fraction(w, den) for w in weights)),
        best_tree=best_tree,
        iterations=t,
        limit_hit=game.limit_hit,
        certified_depth=certified_depth,
    )
