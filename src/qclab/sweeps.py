"""Exhaustive small-case sweeps of the bias claims.

These sweeps cover every Boolean function on up to 3 bits, a rational grid
of distributions, and (where relevant) every canonical read-once tree of
bounded depth.  Subcube masses come from :func:`lattice.masses` and
complexities from :func:`lattice.solve`, the exact DP's own tree
recurrence, for every function at once.  The grid is one int64 array, a
point's weights per row, built by numpy expansion of each denominator's
compositions.

Each sweep does that work once per orbit of the grid under the cube's
2^m m! automorphisms (permute the variables, flip bits), and exactly so:
every function is swept, so an automorphism maps the swept functions onto
themselves; the grid holds every permutation of each of its points; and
the tree shapes are closed under the automorphisms.  So every point of an
orbit has its representative's case count, and has violations exactly
where the representative has them.  The orbits come from one integer key
per image of a point (``_orbit_partition``).  The output complement
g -> not g swaps the masses of g=0 and g=1, and every check is symmetric
under that swap (unbias's up to its value b), so each representative is
swept only on the functions with g = 0 on the top point and counts
twice.  The representatives go to the numpy kernels in blocks, one row of
point weights each, as many as keep a block within ``BLOCK_CELLS`` cells.
Only an orbit whose representative fails is swept again, point by point on
every function, to list its violations.

The unbias sweep works per restriction class, the pair of a subcube C and
g's values on C's points: C's masses of g = 0 and g = 1 depend on nothing
else.  At 3 bits a point has 257 classes against 3,456 (function,
subcube) pairs on the functions it sweeps, and at 4 bits it would have
34,791 against 2,654,208.  Each block counts its cases by class and
screens every class with a bound that no class fails at delta <= 1/2;
only a block that the screen does not clear, the points of a failing
orbit and the sampled 4-bit fixtures (one batch, a point with one function
each) go to the kernel that compares every pair.

The rbias sweep bounds before it enumerates trees.  Each (function, eps)
row first sums the masses of g=0 and of g=1 over every active subcube
(shallow, of high bias); no leaf set's event can exceed these sums, and
each check only tightens as the event grows, so a row whose sums pass
passes on every tree shape.  Only the rows that the sums fail get the
event mass of every shape, as one matrix product.

Distribution masses are integer numerators over one common total and all
comparisons are numpy int64 comparisons; each sweep checks before it runs
that its largest product stays below 2^63, so nothing can wrap and the
verdicts are exact.  For rbias that includes the squared sums over every
active subcube, which reach 2^m times the total, as each point lies in
2^m subcubes.  The rbias event product, unbias's class masses, the orbit
keys and :func:`lattice.masses`' small products run in float64, so that
they run through BLAS: their terms are nonnegative integers and every
partial sum is at most an integer that is known to be below 2^53 (the
grid total, or the largest key), so each is exact and converts back to
int64 unchanged.  Irrational square-root thresholds are compared through
squares.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

from . import lattice
from .core import CapExceeded

# grid denominator per arity: the 3-bit cube already has 3^3 subcubes and
# 256 functions, so its grid is coarser to keep sweeps in budget
GRID_DENOMINATOR = {1: 6, 2: 5, 3: 4}
UNBIAS_DENOMINATOR = 6
# _orbit_sweep hands its sweep as many orbit representatives at a time as
# keep representatives * cells within this many cells, where a point's cells
# are functions * 3^m lattice cells for rbias and fullbias (4 points at 3
# bits, where larger blocks raise the peak memory for little time) and its
# functions and restriction classes for unbias (42 points at 3 bits)
BLOCK_CELLS = 1 << 14


def grid_weight_vectors(points: int, max_denominator: int) -> tuple[np.ndarray, int]:
    """All distributions on ``points`` outcomes whose probabilities have
    denominator at most ``max_denominator``, as the rows of one int64 array
    of unique weight vectors over the common total lcm(1..max_denominator),
    by least denominator q and then lexicographically.  Every composition of
    each q is built by expanding its leading parts one at a time, each row
    into every value its remainder allows, in increasing order; those whose
    gcd is 1 are the ones no smaller denominator gives."""
    total = lcm(*range(1, max_denominator + 1))
    _check_int64(total)  # every weight is at most the total
    q = np.arange(1, max_denominator + 1)
    parts, rest = np.empty((len(q), 0), dtype=np.int64), q
    for _ in range(points - 1):
        counts = rest + 1  # a row's next part runs from 0 to its remainder
        rows = np.repeat(np.arange(len(rest)), counts)
        part = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        parts, rest, q = np.column_stack((parts[rows], part)), rest[rows] - part, q[rows]
    parts = np.column_stack((parts, rest))
    new = np.gcd.reduce(parts, axis=1) == 1
    return parts[new] * (total // q[new])[:, None], total


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
    incidence[list(chain.from_iterable(shapes)),
              np.repeat(np.arange(len(shapes)), list(map(len, shapes)))] = 1
    return incidence


def _check_int64(bound: int) -> None:
    """Every int64 product of a sweep is at most ``bound``; refuse to run
    where one could wrap."""
    if bound >= 1 << 63:
        raise CapExceeded(f"sweep products up to {bound} would overflow int64")


def _check_float64(bound: int) -> None:
    """Every float64 sum of a sweep is an integer of at most ``bound``;
    refuse to run where one could round."""
    if bound >= lattice.FLOAT64_LIMIT:
        raise CapExceeded(f"sweep sums up to {bound} are not exact in float64")


def _check_arity(max_m: int) -> None:
    """The grids stop at 3 bits; refuse a larger arity bound."""
    if max_m > max(GRID_DENOMINATOR):
        raise CapExceeded(f"sweeps cover at most {max(GRID_DENOMINATOR)} bits, got max_m={max_m}")


def _orbit_partition(m: int, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits of the cube's automorphisms on the grid ``mus`` (one
    point's weights per row), numbered in order of first sight: the row of
    each orbit's first point, each orbit's number of grid points, and the
    orbit of each grid point.

    Each image gets one integer key: with each weight replaced by its rank
    among the grid's B distinct weights, the image reads as the base-B
    number of its ranks, point 0 first, and each point's least key over the
    group names its orbit.  The keys are below B^(2^m), which
    ``_check_int64`` bounds: 153^8 < 2^63 on the finest grid the sweeps
    accept (3 bits, denominator 22), where keys of the raw weights would
    wrap.  Below ``lattice.FLOAT64_LIMIT`` the keys are one float64 product,
    which runs through BLAS and is exact there, as every partial sum is an
    integer of at most its key; above it they are one int64 product.  The
    grid need not be closed under the automorphisms; an orbit then holds
    only its points in the grid.
    """
    points, _ = lattice.automorphisms(m)
    # the distinct weights (all at least 0) by a sort, several times faster
    # here than np.unique with its inverse
    flat = np.sort(mus, axis=None)
    values = flat[np.flatnonzero(np.diff(flat, prepend=-1))]
    largest = len(values) ** (1 << m) - 1
    _check_int64(largest)
    dtype = np.float64 if largest < lattice.FLOAT64_LIMIT else np.int64
    powers = (len(values) ** ((1 << m) - 1 - points.T)).astype(dtype)
    keys = (np.searchsorted(values, mus).astype(dtype) @ powers).min(axis=1).astype(np.int64)
    _, first, orbit, sizes = np.unique(keys, return_index=True,
                                       return_inverse=True, return_counts=True)
    by_sight = np.argsort(first)
    return first[by_sight], sizes[by_sight], np.argsort(by_sight)[orbit.reshape(-1)]


def _orbit_sweep(m: int, mus: np.ndarray, point, cells: int | None = None,
                 every=None) -> tuple[int, list]:
    """Run ``point`` once per orbit of the cube's automorphisms on the grid
    ``mus``, on blocks of orbit representatives, and again at every point of
    each orbit that fails.

    ``point(g_rows, weights)`` sweeps the functions ``g_rows`` (bit x of row
    k is g(x)) at each row of the point weights ``weights``, shape
    ``(R, 2^m)``.  It returns the case count of each of the R points and a
    list of int arrays whose rows are violations: the first column names a
    row of ``weights``, a later one a row of ``g_rows``, and for a block of
    one the rows are sorted by every column, first to last.  The first point
    of each orbit (``_orbit_partition``) is its representative; the
    representatives are swept in grid order, as many at a time as keep
    ``cells`` per point (by default the swept functions times 3^m) within
    ``BLOCK_CELLS``, on the half of the functions with g = 0 on the top
    point, and each counts twice for each grid point of its orbit.  The
    points of a failing orbit are swept by ``every``, which keeps
    ``point``'s contract and defaults to it.  Returns the case total and
    ``(w, rows)`` for each point of a failing orbit, in grid order, with
    ``rows`` from a block of one on all the functions, less the first
    column, so that each names a function by its index.
    """
    tables = np.array(all_output_tables(m), dtype=np.int64)
    half = tables[:len(tables) // 2]
    first, sizes, orbit = _orbit_partition(m, mus)
    size = max(1, BLOCK_CELLS // (cells or len(half) * 3**m))
    cases, failing = 0, np.zeros(len(first), dtype=bool)
    for start in range(0, len(first), size):
        n, found = point(half, mus[first[start:start + size]])
        cases += 2 * int(np.dot(n, sizes[start:start + size]))
        for rows in found:
            failing[start + rows[:, 0]] = True
    bad, every = mus[failing[orbit]], every or point
    return cases, [(tuple(w), np.vstack(every(tables, row[None])[1])[:, 1:].tolist())
                   for w, row in zip(bad.tolist(), bad)]


@dataclass(frozen=True)
class SweepReport:
    name: str
    cases: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def _unbias_direct(m: int, g_rows: np.ndarray, weights: np.ndarray, total: int, consts):
    """Case counts and violation rows (point, delta index, b, function,
    subcube) of the unbias check at each ``(nd, dd)`` of ``consts``, for
    the functions ``g_rows`` at each of the point weights ``weights``,
    shape ``(R, 2^m)``: ``g_rows`` has shape ``(1, F, 2^m)`` for the same F
    functions at every point, or ``(R, F, 2^m)``.  It compares every
    (point, function, subcube) triple that meets the hypotheses."""
    gw = g_rows * weights[:, None, :]
    M1 = gw.sum(axis=-1)                  # g=1 masses of the full cube
    gap = np.abs(total - 2 * M1)          # |M0 - M1|
    cases = np.zeros(len(weights), dtype=np.int64)
    # only functions meeting the loosest hypothesis can be checked
    nl, dl = max(consts, key=lambda c: Fraction(*c))
    ri, ki = np.nonzero(gap * dl <= nl * total)
    if not ri.size:
        return cases, []
    gap, M1 = gap[ri, ki], M1[ri, ki]
    M0 = total - M1
    m1 = lattice.masses(gw[ri, ki], m)    # g=1 masses, (n_sel, n_cubes)
    mt = lattice.masses(weights, m)[ri]   # subcube masses
    m0 = mt - m1
    cube_gap = np.abs(m0 - m1)
    positive = mt > 0
    found = []
    for d, (nd, dd) in enumerate(consts):
        hyp = gap * dd <= nd * total
        if not hyp.any():
            continue
        low_bias = (cube_gap * dd <= nd * mt) & positive
        gi, ci = np.nonzero(low_bias & hyp[:, None])  # row-major
        cases += np.bincount(ri[gi], minlength=len(weights))
        lhs_c = mt[gi, ci] * dd
        for b, (mb_cube, Mb) in enumerate(((m0, M0), (m1, M1))):
            # Pr_mu[C] <= (1 + 4 delta) Pr_mu_b[C]
            bad = np.nonzero(lhs_c * Mb[gi] > (dd + 4 * nd) * mb_cube[gi, ci] * total)[0]
            if bad.size:
                found.append(np.column_stack((ri[gi[bad]], np.full(bad.size, d),
                                              np.full(bad.size, b), ki[gi[bad]], ci[bad])))
    return cases, found


def _restriction_classes(m: int, g_rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The restriction classes of the m-bit functions ``g_rows`` (bit x of
    row k is g(x)): the distinct pairs of a subcube C and g's values on C's
    points, by subcube and then by those values.

    Returns ``(table, cubes, ones)``: ``table[k, c]`` is the class of
    function k on subcube c, ``cubes`` each class's subcube, and ``ones``
    the ``(2^m, classes)`` 0/1 float64 table of each class's points with
    g = 1.  Cached per arity and function set, read-only."""
    return _class_table(m, np.ascontiguousarray(g_rows, dtype=np.int64).tobytes())


@lru_cache(maxsize=None)
def _class_table(m: int, rows: bytes) -> tuple[np.ndarray, ...]:
    """:func:`_restriction_classes` of the int64 function rows ``rows``."""
    g_rows = np.frombuffer(rows, dtype=np.int64).reshape(-1, 1 << m)
    # each pair's key: its subcube, then the bit mask of the subcube's
    # points where g = 1, which are the masses of the weights g(x) 2^x
    keys = np.arange(3**m) << (1 << m) | lattice.masses(g_rows << np.arange(1 << m), m)
    classes, table = np.unique(keys, return_inverse=True)
    ones = classes >> np.arange(1 << m)[:, None] & 1
    tables = table.reshape(keys.shape), classes >> (1 << m), ones.astype(np.float64)
    for t in tables:
        t.flags.writeable = False
    return tables


def _unbias_classes(m: int, g_rows: np.ndarray, weights: np.ndarray, total: int, consts):
    """The case counts of :func:`_unbias_direct` for the functions
    ``g_rows`` (shape ``(F, 2^m)``) at each row of ``weights``, worked out
    once per restriction class, and whether the screen clears every class:
    then no (function, subcube) pair at these points violates the check.

    A subcube's g = 1 mass, and so its bias, depends only on its class, so
    each class of low bias is one case for each member function that meets
    the hypothesis.  The screen: under the hypothesis |M0 - M1| <= delta
    total, every member has M_b <= (1 + delta) total / 2, so a class of low
    bias passes Pr_mu[C] <= (1 + 4 delta) Pr_mu_b[C] for every member when
    mt (dd + nd) <= 2 (dd + 4 nd) mb for both of its subcube's g = b masses
    mb, the lesser of which is (mt - |m0 - m1|) / 2.
    """
    table, cubes, ones = _restriction_classes(m, g_rows)
    n_cls = len(cubes)
    # exact in float64: the int64 guard bounds total^2 below 2^63, so every
    # partial sum, at most total < 2^32, is an integer below 2^53
    w = weights.astype(np.float64)
    gap = np.abs(total - 2 * (w @ g_rows.T.astype(np.float64)).astype(np.int64))  # |M0 - M1|
    mt = lattice.masses(weights, m)[:, cubes]                 # each class's subcube mass
    cube_gap = np.abs(mt - 2 * (w @ ones).astype(np.int64))   # and its |m0 - m1|
    positive = mt > 0
    cases = np.zeros(len(weights), dtype=np.int64)
    cleared = True
    for nd, dd in consts:
        ri, ki = np.nonzero(gap * dd <= nd * total)
        low_bias = (cube_gap * dd <= nd * mt) & positive
        # members meeting the hypothesis, per (point, class), on the
        # subcubes with a class of low bias, found by a count, as a bare
        # np.unique would import numpy.ma (some 0.5 MB resident)
        live = np.flatnonzero(np.bincount(cubes[low_bias.any(axis=0)], minlength=3**m))
        members = table[:, live][ki]
        members += (ri * n_cls)[:, None]
        count = np.bincount(members.ravel(), minlength=low_bias.size).reshape(low_bias.shape)
        del members  # before the next delta's
        cases += (count * low_bias).sum(axis=1)
        cleared = cleared and not (low_bias & (count > 0)
                                   & (mt * (dd + nd) > (dd + 4 * nd) * (mt - cube_gap))).any()
    return cases, cleared


def sweep_unbias(
    deltas=(Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)),
    max_denominator: int = UNBIAS_DENOMINATOR,
    sampled_m4: int = 200,
    seed: int = 20240811,
    max_m: int = 3,
) -> SweepReport:
    """The restriction-mass inequality Pr_mu[C] <= (1 + 4 delta) Pr_mu_b[C]
    over every subcube C, exhaustively for all functions on 1 to ``max_m``
    bits, plus ``sampled_m4`` sampled 4-bit fixtures.  A (function,
    subcube) pair is a case at delta when g's full-cube bias and C's bias
    are both at most delta and C has positive mass.

    The lower twin Pr_mu[C] >= (1 - 4 delta) Pr_mu_b[C] is not checked
    because it cannot fail: full-cube bias at most delta gives
    Pr[g=b] >= (1 - delta)/2 and cube bias at most delta gives
    Pr[C, g=b] <= (1 + delta)/2 Pr[C], so Pr_mu[C]/Pr_mu_b[C] >=
    (1 - delta)/(1 + delta) >= 1 - 4 delta for every delta >= 0.  The same
    bounds the other way, Pr[g=b] <= (1 + delta)/2 and Pr[C, g=b] >=
    (1 - delta)/2 Pr[C], give Pr_mu[C]/Pr_mu_b[C] <= (1 + delta)/(1 - delta),
    which is at most 1 + 4 delta exactly when 4 delta^2 <= 2 delta: the
    checked inequality can fail only at delta > 1/2.

    The exhaustive arities run once per orbit of the grid
    (:func:`_orbit_sweep`) and once per restriction class, the pair of a
    subcube C and g's values on C's points (:func:`_restriction_classes`):
    C's masses of g = 0 and g = 1, and so its bias, depend on its class
    alone.  At 3 bits a point has 257 classes against 3,456 (function,
    subcube) pairs on the functions it sweeps.  :func:`_unbias_classes`
    counts each block's cases by class and screens every class with the
    bound above, which clears them all at delta <= 1/2.  Only a block that
    the screen does not clear goes to :func:`_unbias_direct`, which compares
    every pair and lists the violations; so do the points of a failing
    orbit and the 4-bit fixtures, one function per point.
    """
    _check_arity(max_m)
    total4 = lcm(*range(1, max_denominator + 1))  # the grid total of every arity
    _check_int64(total4**2 * max(d.denominator + 4 * d.numerator for d in deltas))
    labels = [str(d) for d in deltas]
    consts = [(d.numerator, d.denominator) for d in deltas]

    cases, violations = 0, []
    fixings = {m: [lattice.assignment(c, m) for c in range(3**m)] for m in range(1, 5)}
    for m in range(1, max_m + 1):
        tables = all_output_tables(m)
        mus, total = grid_weight_vectors(1 << m, max_denominator)

        def direct(g_rows, w):
            return _unbias_direct(m, g_rows[None], w, total, consts)

        def point(g_rows, w):
            n, cleared = _unbias_classes(m, g_rows, w, total, consts)
            return (n, []) if cleared else direct(g_rows, w)

        # a block holds arrays over each point's functions and its classes
        half = np.array(tables[:len(tables) // 2], dtype=np.int64)
        cells = len(half) + len(_restriction_classes(m, half)[1])
        n, found = _orbit_sweep(m, mus, point, cells, direct)
        cases += n
        violations.extend((m, tables[g], w, labels[d], fixings[m][c])
                          for w, rows in found for d, _, g, c in rows)

    # single (function, distribution) pairs, no orbit to share: one batch,
    # each fixture a point with one function
    rng = _random.Random(seed)
    tables, mus = [], []
    for _ in range(sampled_m4):
        tables.append(tuple(rng.randrange(2) for _ in range(16)))
        q = rng.randrange(1, max_denominator + 1)
        cuts = sorted(rng.randrange(q + 1) for _ in range(15))
        mus.append(tuple((b - a) * (total4 // q) for a, b in zip([0] + cuts, cuts + [q])))
    g_rows, weights = np.array((tables, mus), dtype=np.int64).reshape(2, -1, 16)
    n, found = _unbias_direct(4, g_rows[:, None], weights, total4, consts)
    cases += int(n.sum())
    if found:
        rows = np.vstack(found)
        rows = rows[np.lexsort(rows.T[[4, 2, 1, 0]])].tolist()  # by fixture, delta, b, subcube
        violations.extend((4, tables[i], mus[i], labels[d], fixings[4][c]) for i, d, _, _, c in rows)

    return SweepReport("unbias", cases, tuple(violations))


def _rbias_bounds_hold(event, full, total: int, nd: int, dd: int) -> np.ndarray:
    """Both rbias bounds at delta = nd/dd, on the event masses of g = 0 and
    g = 1 along the first axis of ``event``, against the full-cube masses
    ``full`` of g = 0 and g = 1, all over ``total``: Pr[event]^2 < delta and
    Pr[event | g=b]^2 < 16 delta for b = 0, 1."""
    return ((event.sum(axis=0)**2 * dd < nd * total**2)
            & (event**2 * dd < 16 * nd * full**2).all(axis=0))


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
            # the bound's row sums reach 2^m total: each point lies in 2^m subcubes
            _check_int64(max(total**2 * max(de, 16 * nd), (total << m)**2 * dd))
        codim = np.array([len(lattice.assignment(i, m)) for i in range(3**m)])
        incidence = readonce_leaves(m, tree_depth).astype(np.float64)

        def point(g_rows, weights):
            """Case counts and violation rows (point, eps index, function,
            complexity), one per violating (function, tree) pair."""
            n_g = len(g_rows)
            mt = np.repeat(lattice.masses(weights, m), n_g, axis=0)
            m1 = lattice.masses((g_rows * weights[:, None, :]).reshape(-1, 1 << m), m)
            m0 = mt - m1                          # row r * n_g + k: function k at point r
            # best depth-d success of every function, d = 0..m: row 0, the
            # full cube, of each depth's solve (depth 0 writes no cell)
            answers = np.maximum(m0, m1).T.copy()  # the cells on the first axis
            values = answers.copy()
            roots = np.empty((m + 1, answers.shape[1]), dtype=answers.dtype)
            for d in range(m + 1):
                lattice.solve(answers, values, m, d)
                roots[d] = values[0]
            cases = np.zeros(len(weights), dtype=np.int64)
            found = []
            for e, (ne, de, nd, dd) in enumerate(consts):
                # distributional complexity: the first depth reaching 1 - eps
                c_arr = np.argmax(roots * de >= ne * total, axis=0)
                live = np.nonzero(c_arr)[0]
                if not live.size:
                    continue
                cases += np.bincount(live // n_g, minlength=len(weights)) * incidence.shape[1]
                lm0, lm1, lmt = m0[live], m1[live], mt[live]
                shallow = codim[None, :] < c_arr[live, None]
                high_bias = (lm0 - lm1) ** 2 * dd >= 4 * nd * lmt**2
                active = np.stack((lm0, lm1)) * (shallow & high_bias & (lmt > 0))
                full = np.stack((lm0[:, :1], lm1[:, :1]))  # full-cube masses of g=0, g=1
                # no leaf set's event masses exceed the sums over every
                # active cell, and each check only tightens as they grow, so
                # a row whose sums pass passes on every shape
                sums = active.sum(axis=-1, keepdims=True)
                risky = np.nonzero(~_rbias_bounds_hold(sums, full, total, nd, dd)[:, 0])[0]
                if not risky.size:
                    continue
                # leaf-event masses of every (function, shape) pair, exact in
                # float64: sums of leaf masses of one tree, each <= total
                events = (active[:, risky].astype(np.float64) @ incidence).astype(np.int64)
                holds = _rbias_bounds_hold(events, full[:, risky], total, nd, dd)
                gi = live[risky[np.nonzero(~holds)[0]]]
                if gi.size:
                    found.append(np.column_stack((gi // n_g, np.full(gi.size, e), gi % n_g, c_arr[gi])))
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

        def point(g_rows, weights):
            """Case counts and violation rows (point, eps index, function)."""
            M1 = weights @ g_rows.T               # (points, functions)
            M0 = total - M1
            cases = np.zeros(len(weights), dtype=np.int64)
            found = []
            for e, (success, eps, bound) in enumerate(consts):
                positive_c = np.maximum(M0, M1) * success.denominator < success.numerator * total
                cases += positive_c.sum(axis=1)
                min_ok = np.minimum(M0, M1) * eps.denominator > eps.numerator * total
                bias_ok = np.abs(M0 - M1) * bound.denominator < bound.numerator * total
                ri, gi = np.nonzero(positive_c & ~(min_ok & bias_ok))
                if gi.size:
                    found.append(np.column_stack((ri, np.full(gi.size, e), gi)))
            return cases, found

        n, found = _orbit_sweep(m, mus, point)
        cases += n
        violations.extend((m, tables[g], w, labels[e]) for w, rows in found for e, g in rows)
    return SweepReport("fullbias", cases, tuple(violations))
