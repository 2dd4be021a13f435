"""Exhaustive small-case sweeps of the bias claims.

These sweeps cover every Boolean function on up to 3 bits, a rational grid
of distributions, and (where relevant) every canonical read-once tree of
bounded depth.  Subcube masses and complexities come from the lattice
kernel of :mod:`qclab.lattice`, solved for every function at once.
Distribution masses are integer numerators over one common total and all
comparisons are numpy int64 comparisons; each sweep checks before it runs
that its largest product stays below 2^63, so nothing can wrap and the
verdicts are exact.  Irrational square-root thresholds are compared through
squares.

The single-instance verifiers in :mod:`qclab.simulate` recheck samples of
these sweeps with Fraction thresholds on the same lattice masses.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import lattice
from .core import CapExceeded

# grid denominator per arity: the 3-bit cube already has 3^3 subcubes and
# 256 functions, so its grid is coarser to keep sweeps in budget
GRID_DENOMINATOR = {1: 6, 2: 5, 3: 4}
UNBIAS_DENOMINATOR = 6


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_weight_vectors(points: int, max_denominator: int) -> tuple[list[tuple[int, ...]], int]:
    """All distributions on ``points`` outcomes whose probabilities have
    denominator at most ``max_denominator``, as unique integer weight
    vectors over the common total lcm(1..max_denominator)."""
    total = lcm(*range(1, max_denominator + 1))
    seen = set()
    out = []
    for q in range(1, max_denominator + 1):
        scale = total // q
        for comp in _compositions(q, points):
            w = tuple(c * scale for c in comp)
            if w not in seen:
                seen.add(w)
                out.append(w)
    return out, total


def all_output_tables(m: int) -> list[tuple[int, ...]]:
    size = 1 << m
    return [tuple((g >> x) & 1 for x in range(size)) for g in range(1 << size)]


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
) -> SweepReport:
    """Both restriction-mass inequalities over every subcube, exhaustively
    for all functions on up to 3 bits, plus sampled 4-bit fixtures."""
    violations = []
    cases = 0
    total4 = lcm(*range(1, max_denominator + 1))  # the grid total of every arity
    _check_int64(total4**2 * max(d.denominator + 4 * d.numerator for d in deltas))

    def run(m: int, g_rows: np.ndarray, mus: list[tuple[int, ...]], total: int):
        nonlocal cases
        for w in mus:
            wv = np.array(w, dtype=np.int64)
            mt = lattice.masses(wv, m)            # subcube masses
            m1 = lattice.masses(g_rows * wv, m)   # g=1 masses, (n_g, n_cubes)
            m0 = mt[None, :] - m1
            M1 = m1[:, 0]                         # index 0 is the full cube
            M0 = total - M1
            for delta in deltas:
                nd, dd = delta.numerator, delta.denominator
                hyp = np.abs(M0 - M1) * dd <= nd * total
                if not hyp.any():
                    continue
                low_bias = (np.abs(m0 - m1) * dd <= nd * mt[None, :]) & (mt[None, :] > 0)
                active = low_bias & hyp[:, None]
                cases += int(active.sum())
                for mb_cube, Mb in ((m0, M0), (m1, M1)):
                    # Pr_mu[C] <= (1 + 4 delta) Pr_mu_b[C], and the lower twin
                    lhs = mt[None, :] * Mb[:, None] * dd
                    rhs = mb_cube * total
                    up_ok = lhs <= (dd + 4 * nd) * rhs
                    lo_ok = lhs >= (dd - 4 * nd) * rhs
                    bad = active & ~(up_ok & lo_ok)
                    if bad.any():
                        for gi, ci in zip(*np.nonzero(bad)):
                            violations.append((
                                m, tuple(int(v) for v in g_rows[gi]), w, str(delta),
                                lattice.assignment(int(ci), m),
                            ))

    for m in (1, 2, 3):
        g_rows = np.array(all_output_tables(m), dtype=np.int64)
        mus, total = grid_weight_vectors(1 << m, max_denominator)
        run(m, g_rows, mus, total)

    rng = _random.Random(seed)
    for _ in range(sampled_m4):
        g = tuple(rng.randrange(2) for _ in range(16))
        q = rng.randrange(1, max_denominator + 1)
        cuts = sorted(rng.randrange(q + 1) for _ in range(15))
        comp = [b - a for a, b in zip([0] + cuts, cuts + [q])]
        run(4, np.array([g], dtype=np.int64), [tuple(c * (total4 // q) for c in comp)], total4)

    return SweepReport("unbias", cases, tuple(violations))


def sweep_rbias(
    eps_list=(Fraction(1, 4), Fraction(1, 2) - Fraction(1, 16)),
    max_m: int = 3,
    tree_depth: int = 3,
) -> SweepReport:
    """Both shallow-high-bias-leaf mass bounds, over every function with
    positive complexity, the distribution grid, and every canonical
    read-once tree of bounded depth."""
    violations = []
    cases = 0
    for m in range(1, max_m + 1):
        tables = all_output_tables(m)
        g_rows = np.array(tables, dtype=np.int64)
        mus, total = grid_weight_vectors(1 << m, GRID_DENOMINATOR[m])
        for eps in eps_list:
            delta = Fraction(1, 2) - eps
            _check_int64(total**2 * max((1 - eps).denominator, delta.denominator, 16 * delta.numerator))
        codim = np.array([len(lattice.assignment(i, m)) for i in range(3**m)])
        incidence = readonce_leaves(m, tree_depth)
        for w in mus:
            wv = np.array(w, dtype=np.int64)
            mt = lattice.masses(wv, m)
            m1 = lattice.masses(g_rows * wv, m)   # (n_g, n_cubes)
            m0 = mt[None, :] - m1
            # best depth-d success of every function, d = 0..m
            roots = np.array([v[:, 0] for v in lattice.layers(np.maximum(m0, m1), m)])
            for eps in eps_list:
                ne, de = (1 - eps).numerator, (1 - eps).denominator
                # distributional complexity: the first depth reaching 1 - eps
                c_arr = np.argmax(roots * de >= ne * total, axis=0)
                live = np.nonzero(c_arr)[0]
                if not live.size:
                    continue
                delta = Fraction(1, 2) - eps
                nd, dd = delta.numerator, delta.denominator
                lm0, lm1 = m0[live], m1[live]
                shallow = codim[None, :] < c_arr[live, None]
                high_bias = (lm0 - lm1) ** 2 * dd >= 4 * nd * mt[None, :] ** 2
                active = shallow & high_bias & (mt[None, :] > 0)
                # leaf-event masses of every (function, shape) pair
                event_0, event_1 = np.stack((active * lm0, active * lm1)) @ incidence
                event_mu = event_0 + event_1
                cases += live.size * incidence.shape[1]
                ok_a = event_mu**2 * dd < nd * total**2
                ok_b0 = event_0**2 * dd < 16 * nd * lm0[:, :1] ** 2
                ok_b1 = event_1**2 * dd < 16 * nd * lm1[:, :1] ** 2
                bad = ~(ok_a & ok_b0 & ok_b1)
                for li, _ in zip(*np.nonzero(bad)):
                    gi = live[li]
                    violations.append((m, tables[gi], w, str(eps), int(c_arr[gi])))
    return SweepReport("rbias", cases, tuple(violations))


def sweep_fullbias(
    eps_list=(Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)),
    max_m: int = 3,
) -> SweepReport:
    """Whenever the distributional complexity is positive, the minority
    value mass must exceed eps and the full-cube bias stay below 1-2*eps."""
    violations = []
    cases = 0
    for m in range(1, max_m + 1):
        tables = all_output_tables(m)
        g_rows = np.array(tables, dtype=np.int64)
        mus, total = grid_weight_vectors(1 << m, GRID_DENOMINATOR[m])
        for eps in eps_list:
            _check_int64(total * max((1 - eps).denominator, eps.denominator,
                                     (1 - 2 * eps).denominator))
        for w in mus:
            wv = np.array(w, dtype=np.int64)
            M1 = g_rows @ wv
            M0 = total - M1
            for eps in eps_list:
                ne, de = (1 - eps).numerator, (1 - eps).denominator
                positive_c = np.maximum(M0, M1) * de < ne * total
                cases += int(positive_c.sum())
                nn, nd = eps.numerator, eps.denominator
                min_ok = np.minimum(M0, M1) * nd > nn * total
                bd_num, bd_den = (1 - 2 * eps).numerator, (1 - 2 * eps).denominator
                bias_ok = np.abs(M0 - M1) * bd_den < bd_num * total
                bad = positive_c & ~(min_ok & bias_ok)
                if bad.any():
                    for gi in np.nonzero(bad)[0]:
                        violations.append((m, tables[gi], w, str(eps)))
    return SweepReport("fullbias", cases, tuple(violations))
