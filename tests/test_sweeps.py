"""The sweeps against plain point-sum references on reduced grids: the 3-bit
grids are emptied, so every function on up to 2 bits and a few sampled
4-bit fixtures are checked, and the reports must be equal, violation order
included."""

import random
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from qclab import sweeps
from qclab.core import CapExceeded

from _oracles import brute_sweep_rbias, brute_sweep_unbias

REAL_GRID = sweeps.grid_weight_vectors


@pytest.fixture()
def two_bit_grids(monkeypatch):
    def grid(points, max_denominator):
        mus, total = REAL_GRID(points, max_denominator)
        return (mus if points <= 4 else []), total

    monkeypatch.setattr(sweeps, "grid_weight_vectors", grid)
    return grid


def _unbias_grids(grid, max_denominator, sampled_m4, seed):
    """The grids of ``sweep_unbias`` in its order: every function on m bits
    for m = 1, 2, 3, then the sampled 4-bit fixtures (drawn as it draws them)."""
    grids = []
    for m in (1, 2, 3):
        mus, total = grid(1 << m, max_denominator)
        grids.append((m, sweeps.all_output_tables(m), mus, total))
    total4 = lcm(*range(1, max_denominator + 1))
    rng = random.Random(seed)
    for _ in range(sampled_m4):
        g = tuple(rng.randrange(2) for _ in range(16))
        q = rng.randrange(1, max_denominator + 1)
        cuts = sorted(rng.randrange(q + 1) for _ in range(15))
        comp = [b - a for a, b in zip([0] + cuts, cuts + [q])]
        grids.append((4, [g], [tuple(c * (total4 // q) for c in comp)], total4))
    return grids


@pytest.mark.parametrize("deltas, max_denominator", [
    ((F(1, 8), F(1, 4), F(1, 2)), 4),
    ((F(1),), 3),                      # outside the lemma: violations occur
    ((F(1, 2), F(1), F(3, 4)), 3),     # delta order is the caller's, not sorted
])
def test_unbias_matches_point_sums(two_bit_grids, deltas, max_denominator):
    report = sweeps.sweep_unbias(deltas, max_denominator, sampled_m4=4, seed=5)
    grids = _unbias_grids(two_bit_grids, max_denominator, 4, 5)
    cases, violations = brute_sweep_unbias(grids, deltas)
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert report.passed == (max(deltas) < 1)


@pytest.mark.parametrize("eps_list, tree_depth, every_cube", [
    ((F(1, 4), F(7, 16)), 3, False),
    ((F(1, 8), F(1, 3)), 1, False),
    # the lemma holds on every tree, so the check is shown to fail on a leaf
    # set that is not one: every subcube, each point counted many times
    ((F(1, 4), F(7, 16)), 2, True),
])
def test_rbias_matches_point_sums(monkeypatch, eps_list, tree_depth, every_cube):
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 1, 6)
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 2, 4)
    if every_cube:
        trees = sweeps.readonce_leaves
        monkeypatch.setattr(sweeps, "readonce_leaves", lambda m, depth: np.hstack(
            (trees(m, depth), np.ones((3**m, 1), dtype=np.int64))))
    report = sweeps.sweep_rbias(eps_list, max_m=2, tree_depth=tree_depth)
    grids = []
    for m in (1, 2):
        mus, total = sweeps.grid_weight_vectors(1 << m, sweeps.GRID_DENOMINATOR[m])
        grids.append((m, sweeps.all_output_tables(m), mus, total))
    cases, violations = brute_sweep_rbias(grids, eps_list, tree_depth, every_cube)
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert report.passed == (not every_cube)


def test_float64_event_sums_refused_from_2_to_the_53(monkeypatch):
    # lcm(1..40) < 2^53 <= lcm(1..41): 40 passes the float64 guard and
    # then fails the int64 one, which bounds the squared comparisons
    assert lcm(*range(1, 41)) < 2**53 <= lcm(*range(1, 42))
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 1, 41)
    with pytest.raises(CapExceeded, match="float64"):
        sweeps.sweep_rbias(max_m=1)
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 1, 40)
    with pytest.raises(CapExceeded, match="int64"):
        sweeps.sweep_rbias(max_m=1)
    sweeps._check_float64(2**53 - 1)
    with pytest.raises(CapExceeded, match="float64"):
        sweeps._check_float64(2**53)
