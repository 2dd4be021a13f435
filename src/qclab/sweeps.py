"""Exhaustive small-case sweeps of the bias claims.

These sweeps cover every Boolean function on up to 3 bits, a rational grid
of distributions, and (where relevant) every canonical read-once tree of
bounded depth.  Subcube masses and complexities come from the lattice
kernel of :mod:`qclab.lattice`, solved for every function at once.

Each sweep does that work once per orbit of the grid under the cube's
2^m m! automorphisms (permute the variables, flip bits), and exactly so:
every function is swept, so an automorphism maps the swept functions onto
themselves; the grid holds every permutation of each of its points; and
the tree shapes are closed under the automorphisms.  So every point of an
orbit has its representative's case count, and has violations exactly
where the representative has them.  The output complement g -> not g
swaps the masses of g=0 and g=1, and every check is symmetric under that
swap (unbias's up to its value b), so each representative is swept only
on the functions with g = 0 on the top point and counts twice.  Only an
orbit whose representative fails is swept again, point by point on every
function, to list its violations.  The sampled 4-bit unbias fixtures run
as one batch, one row of point weights per fixture.

Distribution masses are integer numerators over one common total and all
comparisons are numpy int64 comparisons; each sweep checks before it runs
that its largest product stays below 2^63, so nothing can wrap and the
verdicts are exact.  The rbias leaf-event sums are the one float64 step,
so that they run through BLAS: their terms are nonnegative integers and
every partial sum is at most the grid total, which is checked to be below
2^53, so each is exact and converts back to int64 unchanged.  Irrational
square-root thresholds are compared through squares.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, lcm

import numpy as np

from . import lattice
from .core import CapExceeded

# grid denominator per arity: the 3-bit cube already has 3^3 subcubes and
# 256 functions, so its grid is coarser to keep sweeps in budget
GRID_DENOMINATOR = {1: 6, 2: 5, 3: 4}
UNBIAS_DENOMINATOR = 6


def grid_weight_vectors(points: int, max_denominator: int) -> tuple[list[tuple[int, ...]], int]:
    """All distributions on ``points`` outcomes whose probabilities have
    denominator at most ``max_denominator``, as unique integer weight
    vectors over the common total lcm(1..max_denominator), by least
    denominator q and then lexicographically.  The parts of q are the gaps
    between ``points - 1`` bars among ``q + points - 1`` slots; those whose
    gcd is 1 are the ones no smaller denominator gives."""
    total = lcm(*range(1, max_denominator + 1))
    _check_int64(total)  # every weight is at most the total
    out = []
    for q in range(1, max_denominator + 1):
        slots, bars = q + points - 1, points - 1
        cuts = np.fromiter(chain.from_iterable(combinations(range(slots), bars)), np.int64)
        parts = np.diff(cuts.reshape(comb(slots, bars), bars), prepend=-1, append=slots) - 1
        new = np.gcd.reduce(parts, axis=1) == 1
        out.extend(map(tuple, (parts[new] * (total // q)).tolist()))
    return out, total


def all_output_tables(m: int) -> list[tuple[int, ...]]:
    size = 1 << m
    return list(map(tuple, ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1).tolist()))


def readonce_leaves(m: int, depth: int) -> np.ndarray:
    """Leaf subcubes of every canonical read-once tree shape of bounded
    depth, as a 0/1 matrix of shape (3^m, shapes): column s marks the
    lattice indices of the leaves of shape s."""

    def rec(avail: tuple, d: int, index: int) -> list[tuple[int, ...]]:
        shapes = [(index,)]
        if d > 0:
            for i, v in enumerate(avail):
                rest = avail[:i] + avail[i + 1:]
                low = rec(rest, d - 1, index + 3**v)
                high = rec(rest, d - 1, index + 2 * 3**v)
                shapes += [s0 + s1 for s0 in low for s1 in high]
        return shapes

    shapes = rec(tuple(range(m)), min(depth, m), 0)
    incidence = np.zeros((3**m, len(shapes)), dtype=np.int64)
    for s, leaves in enumerate(shapes):
        incidence[list(leaves), s] = 1
    return incidence


def _check_int64(bound: int) -> None:
    """Every int64 product of a sweep is at most ``bound``; refuse to run
    where one could wrap."""
    if bound >= 1 << 63:
        raise CapExceeded(f"sweep products up to {bound} would overflow int64")


def _check_float64(bound: int) -> None:
    """Every float64 sum of a sweep is an integer of at most ``bound``;
    refuse to run where one could round."""
    if bound >= 1 << 53:
        raise CapExceeded(f"sweep sums up to {bound} are not exact in float64")


def _check_arity(max_m: int) -> None:
    """The grids stop at 3 bits; refuse a larger arity bound."""
    if max_m > max(GRID_DENOMINATOR):
        raise CapExceeded(f"sweeps cover at most {max(GRID_DENOMINATOR)} bits, got max_m={max_m}")


def _orbit_sweep(m: int, mus: list[tuple[int, ...]], point) -> tuple[int, list]:
    """Run ``point`` once per orbit of the cube's automorphisms on the grid
    ``mus``, and again at every point of each orbit that fails.

    ``point(g_rows, w)`` sweeps the functions ``g_rows`` (bit x of row k is
    g(x)) at the point ``w``; it returns a case count and a list of int
    arrays whose rows are violations, each naming a row of ``g_rows``,
    sorted by every column, first to last.  A point first seen is its
    orbit's representative and is swept on the half of the functions with
    g = 0 on the top point; each grid point of its orbit counts twice its
    cases.  Returns the case total and ``(w, rows)`` for each point of a
    failing orbit, in grid order, with ``rows`` from ``point`` on all the
    functions, so that each names a function by its index.
    """
    points, _ = lattice.automorphisms(m)
    tables = np.array(all_output_tables(m), dtype=np.int64)
    group = np.arange(len(points))[:, None]
    unseen, failing, cases = set(mus), set(), 0
    for w in mus:
        if w in unseen:
            n, found = point(tables[:len(tables) // 2], w)
            images = np.empty_like(points)
            images[group, points] = w
            orbit = unseen.intersection(map(tuple, images.tolist()))
            unseen -= orbit
            cases += 2 * n * len(orbit)
            if found:
                failing |= orbit
    return cases, [(w, np.vstack(point(tables, w)[1]).tolist()) for w in mus if w in failing]


@dataclass(frozen=True)
class SweepReport:
    name: str
    cases: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def sweep_unbias(
    deltas=(Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)),
    max_denominator: int = UNBIAS_DENOMINATOR,
    sampled_m4: int = 200,
    seed: int = 20240811,
    max_m: int = 3,
) -> SweepReport:
    """The restriction-mass inequality Pr_mu[C] <= (1 + 4 delta) Pr_mu_b[C]
    over every subcube C, exhaustively for all functions on 1 to ``max_m``
    bits, plus ``sampled_m4`` sampled 4-bit fixtures.

    The lower twin Pr_mu[C] >= (1 - 4 delta) Pr_mu_b[C] is not checked
    because it cannot fail: full-cube bias at most delta gives
    Pr[g=b] >= (1 - delta)/2 and cube bias at most delta gives
    Pr[C, g=b] <= (1 + delta)/2 Pr[C], so Pr_mu[C]/Pr_mu_b[C] >=
    (1 - delta)/(1 + delta) >= 1 - 4 delta for every delta >= 0.
    """
    _check_arity(max_m)
    total4 = lcm(*range(1, max_denominator + 1))  # the grid total of every arity
    _check_int64(total4**2 * max(d.denominator + 4 * d.numerator for d in deltas))
    loosest = max(deltas)
    labels = [str(d) for d in deltas]
    consts = [(d.numerator, d.denominator) for d in deltas]

    def run(m: int, g_rows: np.ndarray, w, total: int):
        """Cases and violation rows (delta index, b, row of g_rows, subcube)
        under point weights ``w``, one row for all functions or one each."""
        wv = np.asarray(w, dtype=np.int64)
        M1 = (g_rows * wv).sum(axis=-1)       # g=1 masses of the full cube
        gap = np.abs(total - 2 * M1)          # |M0 - M1|
        # only functions meeting the loosest hypothesis can be checked
        sel = np.nonzero(gap * loosest.denominator <= loosest.numerator * total)[0]
        if not sel.size:
            return 0, []
        rows, gap, M1 = g_rows[sel], gap[sel], M1[sel]
        wv = wv[sel] if wv.ndim > 1 else wv
        M0 = total - M1
        m1 = lattice.masses(rows * wv, m)     # g=1 masses, (n_sel, n_cubes)
        mt = np.broadcast_to(lattice.masses(wv, m), m1.shape)  # subcube masses
        m0 = mt - m1
        cube_gap = np.abs(m0 - m1)
        positive = mt > 0
        cases, found = 0, []
        for d, (nd, dd) in enumerate(consts):
            hyp = gap * dd <= nd * total
            if not hyp.any():
                continue
            low_bias = (cube_gap * dd <= nd * mt) & positive
            gi, ci = np.nonzero(low_bias & hyp[:, None])  # row-major
            cases += gi.size
            lhs_c = mt[gi, ci] * dd
            for b, (mb_cube, Mb) in enumerate(((m0, M0), (m1, M1))):
                # Pr_mu[C] <= (1 + 4 delta) Pr_mu_b[C]
                bad = np.nonzero(lhs_c * Mb[gi] > (dd + 4 * nd) * mb_cube[gi, ci] * total)[0]
                if bad.size:
                    found.append(np.column_stack((
                        np.full(bad.size, d), np.full(bad.size, b), sel[gi[bad]], ci[bad])))
        return cases, found

    cases, violations = 0, []
    fixings = {m: [lattice.assignment(c, m) for c in range(3**m)] for m in range(1, 5)}
    for m in range(1, max_m + 1):
        tables = all_output_tables(m)
        mus, total = grid_weight_vectors(1 << m, max_denominator)
        n, found = _orbit_sweep(m, mus, lambda g_rows, w: run(m, g_rows, w, total))
        cases += n
        violations.extend((m, tables[g], w, labels[d], fixings[m][c])
                          for w, rows in found for d, _, g, c in rows)

    # single (function, distribution) pairs, no orbit to share: one batch
    rng = _random.Random(seed)
    tables, mus = [], []
    for _ in range(sampled_m4):
        tables.append(tuple(rng.randrange(2) for _ in range(16)))
        q = rng.randrange(1, max_denominator + 1)
        cuts = sorted(rng.randrange(q + 1) for _ in range(15))
        mus.append(tuple((b - a) * (total4 // q) for a, b in zip([0] + cuts, cuts + [q])))
    n, found = run(4, *np.array((tables, mus), dtype=np.int64).reshape(2, -1, 16), total4)
    cases += n
    if found:
        rows = np.vstack(found)
        rows = rows[np.lexsort(rows.T[[3, 1, 0, 2]])].tolist()  # by fixture, delta, b, subcube
        violations.extend((4, tables[i], mus[i], labels[d], fixings[4][c]) for d, _, i, c in rows)

    return SweepReport("unbias", cases, tuple(violations))


def sweep_rbias(
    eps_list=(Fraction(1, 4), Fraction(1, 2) - Fraction(1, 16)),
    max_m: int = 3,
    tree_depth: int = 3,
) -> SweepReport:
    """Both shallow-high-bias-leaf mass bounds, over every function with
    positive complexity, the distribution grid, and every canonical
    read-once tree of bounded depth."""
    _check_arity(max_m)
    cases, violations = 0, []
    labels = [str(eps) for eps in eps_list]
    consts = []
    for eps in eps_list:
        delta = Fraction(1, 2) - eps
        consts.append(((1 - eps).numerator, (1 - eps).denominator,
                       delta.numerator, delta.denominator))
    for m in range(1, max_m + 1):
        tables = all_output_tables(m)
        mus, total = grid_weight_vectors(1 << m, GRID_DENOMINATOR[m])
        _check_float64(total)
        for _, de, nd, dd in consts:
            _check_int64(total**2 * max(de, dd, 16 * nd))
        codim = np.array([len(lattice.assignment(i, m)) for i in range(3**m)])
        incidence = readonce_leaves(m, tree_depth).astype(np.float64)

        def point(g_rows, w):
            """Cases and violation rows (eps index, function, complexity),
            one per violating (function, tree) pair."""
            wv = np.array(w, dtype=np.int64)
            mt = lattice.masses(wv, m)
            m1 = lattice.masses(g_rows * wv, m)   # (n_g, n_cubes)
            m0 = mt[None, :] - m1
            # best depth-d success of every function, d = 0..m
            roots = np.array([v[:, 0] for v in lattice.layers(np.maximum(m0, m1), m)])
            cases, found = 0, []
            for e, (ne, de, nd, dd) in enumerate(consts):
                # distributional complexity: the first depth reaching 1 - eps
                c_arr = np.argmax(roots * de >= ne * total, axis=0)
                live = np.nonzero(c_arr)[0]
                if not live.size:
                    continue
                lm0, lm1 = m0[live], m1[live]
                shallow = codim[None, :] < c_arr[live, None]
                high_bias = (lm0 - lm1) ** 2 * dd >= 4 * nd * mt[None, :] ** 2
                active = shallow & high_bias & (mt[None, :] > 0)
                # leaf-event masses of every (function, shape) pair, exact in
                # float64: sums of leaf masses of one tree, each <= total
                events = np.stack((active * lm0, active * lm1)).astype(np.float64) @ incidence
                event_0, event_1 = events.astype(np.int64)
                event_mu = event_0 + event_1
                cases += live.size * incidence.shape[1]
                ok_a = event_mu**2 * dd < nd * total**2
                ok_b0 = event_0**2 * dd < 16 * nd * lm0[:, :1] ** 2
                ok_b1 = event_1**2 * dd < 16 * nd * lm1[:, :1] ** 2
                gi = live[np.nonzero(~(ok_a & ok_b0 & ok_b1))[0]]
                if gi.size:
                    found.append(np.column_stack((np.full(gi.size, e), gi, c_arr[gi])))
            return cases, found

        n, found = _orbit_sweep(m, mus, point)
        cases += n
        violations.extend((m, tables[g], w, labels[e], c) for w, rows in found for e, g, c in rows)
    return SweepReport("rbias", cases, tuple(violations))


def sweep_fullbias(
    eps_list=(Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)),
    max_m: int = 3,
) -> SweepReport:
    """Whenever the distributional complexity is positive, the minority
    value mass must exceed eps and the full-cube bias stay below 1-2*eps."""
    _check_arity(max_m)
    cases, violations = 0, []
    labels = [str(eps) for eps in eps_list]
    consts = [(1 - eps, eps, 1 - 2 * eps) for eps in eps_list]
    for m in range(1, max_m + 1):
        tables = all_output_tables(m)
        mus, total = grid_weight_vectors(1 << m, GRID_DENOMINATOR[m])
        for c in consts:
            _check_int64(total * max(f.denominator for f in c))

        def point(g_rows, w):
            """Cases and violation rows (eps index, function)."""
            M1 = g_rows @ np.array(w, dtype=np.int64)
            M0 = total - M1
            cases, found = 0, []
            for e, (success, eps, bound) in enumerate(consts):
                positive_c = np.maximum(M0, M1) * success.denominator < success.numerator * total
                cases += int(positive_c.sum())
                min_ok = np.minimum(M0, M1) * eps.denominator > eps.numerator * total
                bias_ok = np.abs(M0 - M1) * bound.denominator < bound.numerator * total
                gi = np.nonzero(positive_c & ~(min_ok & bias_ok))[0]
                if gi.size:
                    found.append(np.column_stack((np.full(gi.size, e), gi)))
            return cases, found

        n, found = _orbit_sweep(m, mus, point)
        cases += n
        violations.extend((m, tables[g], w, labels[e]) for w, rows in found for e, g in rows)
    return SweepReport("fullbias", cases, tuple(violations))
