"""The sweeps against plain point-sum references on reduced grids: every
function on up to 2 bits and a few sampled 4-bit fixtures, and every
function on 3 bits on a few small grids, where the orbits meet all 48
automorphisms of the cube.  The reports must be equal, violation order
included, and the violations must include functions on both sides of the
output complement, which the sweeps count but do not sweep on a clean
orbit."""

import random
from fractions import Fraction as F
from itertools import permutations
from math import lcm

import numpy as np
import pytest

from qclab import lattice, sweeps
from qclab.core import CapExceeded

from _oracles import (
    brute_sweep_fullbias,
    brute_sweep_rbias,
    brute_sweep_unbias,
    recursive_grid,
)

REAL_GRID = sweeps.grid_weight_vectors


def _rows(mus):
    """A grid's points as weight tuples, as the point-sum references read them."""
    return list(map(tuple, mus.tolist()))


@pytest.fixture()
def two_bit_grids(monkeypatch):
    def grid(points, max_denominator):
        mus, total = REAL_GRID(points, max_denominator)
        return (mus if points <= 4 else mus[:0]), total

    monkeypatch.setattr(sweeps, "grid_weight_vectors", grid)
    return grid


def _both_complements(violations, m):
    """The values g takes on the top point over the m-bit violations: the
    sweeps sweep a representative on the half with g = 0 there, and a
    failing orbit's points on every function."""
    return {v[1][-1] for v in violations if v[0] == m}


# at one point the bar positions are a single empty tuple
@pytest.mark.parametrize("points", [1, 2, 4, 8, 16])
def test_grid_matches_recursive_reference(points):
    for max_denominator in range(1, 7):
        mus, total = sweeps.grid_weight_vectors(points, max_denominator)
        assert mus.dtype == np.int64 and mus.shape[1] == points
        assert (_rows(mus), total) == recursive_grid(points, max_denominator)


def test_grid_refuses_totals_from_2_to_the_63():
    # the weights are int64 products of at most the total, lcm(1..42) < 2^63
    assert lcm(*range(1, 43)) < 2**63 <= lcm(*range(1, 44))
    mus, total = sweeps.grid_weight_vectors(2, 42)
    assert (_rows(mus), total) == recursive_grid(2, 42)
    with pytest.raises(CapExceeded, match="int64"):
        sweeps.grid_weight_vectors(2, 43)


def _orbits(m, mus):
    """The orbits of the grid points ``mus`` under every permutation of the
    m variables with every flip mask, as sets, by first point."""
    orbits = []
    for w in mus:
        if any(w in orbit for orbit in orbits):
            continue
        orbits.append(frozenset(
            tuple(w[sum(((x >> perm[j] ^ mask >> j) & 1) << j for j in range(m))]
                  for x in range(1 << m))
            for perm in permutations(range(m)) for mask in range(1 << m)))
    return orbits


def _assert_partition(m, mus):
    """``_orbit_partition`` of the grid ``mus`` against ``_orbits``: each
    orbit's first point and its number of grid points, orbits by first
    point, and each point's orbit."""
    grid = _rows(mus)
    orbits = _orbits(m, grid)
    first, sizes, orbit = sweeps._orbit_partition(m, mus)
    assert first.tolist() == [min(map(grid.index, o & set(grid))) for o in orbits]
    assert sizes.tolist() == [len(o & set(grid)) for o in orbits]
    assert orbit.tolist() == [next(k for k, o in enumerate(orbits) if w in o) for w in grid]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_orbit_partition_matches_orbits_on_every_grid(m):
    for max_denominator in range(1, 7):
        _assert_partition(m, REAL_GRID(1 << m, max_denominator)[0])


@pytest.mark.parametrize("m, max_denominator", [(2, 5), (3, 4)])
def test_orbit_partition_of_a_grid_not_closed_under_the_automorphisms(m, max_denominator):
    # a seeded half of the grid in a shuffled order: orbits lose points,
    # and the first point of each is the first one left in the new order
    mus, _ = REAL_GRID(1 << m, max_denominator)
    rows = np.random.default_rng(m).permutation(len(mus))[:len(mus) // 2]
    shuffled, ordered = mus[rows], mus[np.sort(rows)]
    grid = _rows(shuffled)
    assert any(len(o & set(grid)) < len(o) for o in _orbits(m, grid))
    reps = [set(_rows(g[sweeps._orbit_partition(m, g)[0]])) for g in (shuffled, ordered)]
    assert reps[0] != reps[1]
    _assert_partition(m, shuffled)


def test_orbit_keys_refused_from_2_to_the_63():
    # keys are base-B numbers of 2^m digits, below B^8 at 3 bits:
    # 234 distinct weights pass, 235 would wrap
    assert 234**8 < 2**63 <= 235**8
    mus = np.arange(30 * 8).reshape(30, 8) % 234
    _assert_partition(3, mus)
    mus[0, 0] = 234
    with pytest.raises(CapExceeded, match="int64"):
        sweeps._orbit_sweep(3, mus, None)


def test_orbit_keys_on_both_sides_of_2_to_the_53(monkeypatch):
    # keys below 2^53 take the float64 product, exact there: 98 distinct
    # weights at 3 bits, 98^8 - 1 < 2^53; 99 take the int64 product
    assert 98**8 - 1 < 2**53 <= 99**8 - 1
    grids = []
    for distinct in (98, 99):
        mus = np.arange(30 * 8).reshape(30, 8) % distinct
        mus[[3, 17]] = mus[[4, 18], ::-1]  # images of two other grid points
        _assert_partition(3, mus)
        grids.append(mus)
    # the int64 product gives the float64 path's partition below 2^53
    partition = sweeps._orbit_partition(3, grids[0])
    monkeypatch.setattr(lattice, "FLOAT64_LIMIT", 0)
    assert [a.tolist() for a in sweeps._orbit_partition(3, grids[0])] == [
        a.tolist() for a in partition]


def test_unbias_where_raw_weight_keys_would_wrap():
    # at denominator 22 the 2-bit grid total is lcm(1..22), whose fourth
    # power is past 2^63; its 153 distinct weights give keys below 153^4.
    # The report is the one the per-point orbit sets gave.
    assert lcm(*range(1, 23))**4 >= 2**63
    report = sweeps.sweep_unbias(max_denominator=22, max_m=2, sampled_m4=0)
    assert (report.cases, report.violations) == (334892, ())


@pytest.mark.parametrize("m, max_denominator, block", [
    pytest.param(2, 3, None, id="2-3"),
    pytest.param(3, 2, None, id="3-2"),
    # a budget of two representatives, so that they span several blocks
    pytest.param(2, 3, 2, id="2-3-blocks-of-2"),
    pytest.param(3, 2, 2, id="3-2-blocks-of-2"),
])
def test_orbit_sweep_sweeps_clean_orbits_once_and_failing_ones_everywhere(
        monkeypatch, m, max_denominator, block):
    mus, _ = REAL_GRID(1 << m, max_denominator)
    grid = _rows(mus)
    orbits = _orbits(m, grid)
    bad = max(orbits, key=len)  # the largest orbit, not the first
    assert 1 < len(bad) and bad != orbits[0]
    half, every = 1 << (1 << m) - 1, 1 << (1 << m)
    if block is not None:
        monkeypatch.setattr(sweeps, "BLOCK_CELLS", block * half * 3**m)
    calls = []

    def point(g_rows, weights):
        block_points = [tuple(w) for w in weights.tolist()]
        calls.append((len(g_rows), block_points))
        # one case per function at each point; at a failing point,
        # violations naming the point's row, its grid index and the last two
        # functions, sorted by column
        rows = [[r, grid.index(w), k] for r, w in enumerate(block_points) if w in bad
                for k in (len(g_rows) - 2, len(g_rows) - 1)]
        return np.full(len(weights), len(g_rows)), [np.array(rows)] if rows else []

    cases, violations = sweeps._orbit_sweep(m, mus, point)
    assert cases == every * len(grid)
    blocks = [points for n, points in calls if n == half]
    # each representative once, in order of first sight, in full blocks
    reps = [points[0] for points in (sorted(orbit, key=grid.index) for orbit in orbits)]
    assert [w for points in blocks for w in points] == reps
    size = len(reps) if block is None else block
    assert [len(points) for points in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert len(blocks) == -(-len(reps) // size) > (block is not None)
    in_grid_order = [w for w in grid if w in bad]
    assert [points for n, points in calls if n == every] == [[w] for w in in_grid_order]
    assert len(calls) == len(blocks) + len(bad)
    assert violations == [(w, [[grid.index(w), every - 2], [grid.index(w), every - 1]])
                          for w in in_grid_order]


def _every_cube(arities):
    """Leaf sets that are not trees: on each arity, every subcube."""
    return {m: [[lattice.assignment(c, m) for c in range(3**m)]] for m in arities}


def _random_cubes(seed, m):
    """Leaf sets that are not trees: a seeded random set of m-bit subcubes,
    each with chance 1/2, and its distinct images under the cube's
    automorphisms, as the sweep needs its leaf sets closed under them."""
    rng = random.Random(seed)
    chosen = [lattice.assignment(c, m) for c in range(3**m) if rng.random() < 1 / 2]
    images = {
        tuple(sorted(tuple(sorted((perm[v], b ^ (mask >> perm[v] & 1)) for v, b in fixed))
                     for fixed in chosen))
        for perm in permutations(range(m)) for mask in range(1 << m)}
    return {m: [list(image) for image in sorted(images)]}


def _extra_leaf_sets(monkeypatch, leaf_sets):
    """Add ``leaf_sets`` ({arity: [leaf set, ...]}) to the rbias sweep's tree
    shapes, one incidence column each."""
    trees = sweeps.readonce_leaves

    def leaves(m, depth):
        extra = leaf_sets.get(m, [])
        columns = np.zeros((3**m, len(extra)), dtype=np.int64)
        for s, leaf_set in enumerate(extra):
            columns[[lattice.index_of(fixed) for fixed in leaf_set], s] = 1
        return np.hstack((trees(m, depth), columns))

    monkeypatch.setattr(sweeps, "readonce_leaves", leaves)


def _unbias_grids(grid, max_denominator, sampled_m4, seed):
    """The grids of ``sweep_unbias`` in its order: every function on m bits
    for m = 1, 2, 3, then the sampled 4-bit fixtures (drawn as it draws them)."""
    grids = []
    for m in (1, 2, 3):
        mus, total = grid(1 << m, max_denominator)
        grids.append((m, sweeps.all_output_tables(m), _rows(mus), total))
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
    report = sweeps.sweep_unbias(deltas, max_denominator, sampled_m4=20, seed=5)
    grids = _unbias_grids(two_bit_grids, max_denominator, 20, 5)
    cases, violations = brute_sweep_unbias(grids, deltas)
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert report.passed == (max(deltas) < 1)
    if not report.passed:
        assert _both_complements(violations, 2) == {0, 1}
        # the fixtures run as one batch, in the order one at a time gives
        assert len({v[1] for v in violations if v[0] == 4}) > 1


# ids: does a leaf set that is not a tree join the trees
@pytest.mark.parametrize("eps_list, tree_depth, leaf_sets", [
    pytest.param((F(1, 4), F(7, 16)), 3, {}, id="eps_list0-3-False"),
    pytest.param((F(1, 8), F(1, 3)), 1, {}, id="eps_list1-1-False"),
    # the lemma holds on every tree, so the check is shown to fail on leaf
    # sets that are not trees: every subcube, each point counted many times,
    pytest.param((F(1, 4), F(7, 16)), 2, _every_cube((1, 2)), id="eps_list2-2-True"),
    # and the images of a random set of subcubes, which the bound on the
    # sums over every active subcube must not clear where one fails
    pytest.param((F(1, 4), F(7, 16)), 2, _random_cubes(7, 2), id="eps_list3-2-random"),
])
def test_rbias_matches_point_sums(monkeypatch, eps_list, tree_depth, leaf_sets):
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 1, 6)
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 2, 4)
    _extra_leaf_sets(monkeypatch, leaf_sets)
    report = sweeps.sweep_rbias(eps_list, max_m=2, tree_depth=tree_depth)
    grids = []
    for m in (1, 2):
        mus, total = sweeps.grid_weight_vectors(1 << m, sweeps.GRID_DENOMINATOR[m])
        grids.append((m, sweeps.all_output_tables(m), _rows(mus), total))
    cases, violations = brute_sweep_rbias(grids, eps_list, tree_depth, leaf_sets)
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert report.passed == (not leaf_sets)
    if leaf_sets:
        # the trees pass, so the violations are the leaf sets': on each
        # arity they add one case per function of positive complexity and
        # leaf set, and some of those functions fail and some do not
        tree_cases, tree_violations = brute_sweep_rbias(grids, eps_list, tree_depth)
        assert tree_violations == []
        (per_arity,) = {len(sets) for sets in leaf_sets.values()}
        failing = set(violations)
        assert 0 < len(failing) < (cases - tree_cases) // per_arity
        if per_arity > 1:
            # and a failing function passes on some of the random sets
            assert len(violations) < len(failing) * per_arity


def _one_point_grid(monkeypatch, w, total):
    """Patch the sweeps' grid to the one point ``w`` on its arity, with
    ``total``, and no point on the other arities."""
    def grid(points, max_denominator):
        return np.array([w] if points == len(w) else [], dtype=np.int64).reshape(-1, points), total

    monkeypatch.setattr(sweeps, "grid_weight_vectors", grid)


def test_rbias_event_at_sqrt_delta_matches_point_sums(monkeypatch):
    # at eps 1/4, delta = 1/4 and the high-bias cells are the pure ones.
    # g = AND3 at (0, 0, 0, 1, 0, 1, 1, 3)/6 has complexity 2, and its three
    # pure faces, one point of mass 1/6 each, hold half the mass: on the
    # leaf set of every subcube Pr[event]^2 = delta exactly, which fails
    # the strict bound, both the one on the sums over every active cell and
    # the one on the event
    w, eps_list = (0, 0, 0, 1, 0, 1, 1, 3), (F(1, 4),)
    _one_point_grid(monkeypatch, w, 6)
    _extra_leaf_sets(monkeypatch, _every_cube((3,)))
    report = sweeps.sweep_rbias(eps_list, max_m=3, tree_depth=1)
    cases, violations = brute_sweep_rbias(
        [(3, sweeps.all_output_tables(3), [w], 6)], eps_list, 1, _every_cube((3,)))
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert (3, (0, 0, 0, 0, 0, 0, 0, 1), w, "1/4", 2) in violations


def test_rbias_bounds_are_strict():
    # Pr[event]^2 < delta and Pr[event | g=b]^2 < 16 delta at delta = 1/4,
    # with g-masses 100 and 900 of 1000.  No sweep input fails the second
    # bound where the first holds, on any leaf set: 4 sqrt(delta) M_b <=
    # Pr[event] < sqrt(delta) needs M_b < 1/4, so eps < 1/4 for positive
    # complexity, and then no cell has bias 2 sqrt(delta) > 1 and the event
    # is empty.  So the check is tested here on its own, on both sides of
    # each bound.
    event = np.array([[194, 199, 200, 0, 0], [0, 0, 0, 499, 500]])[:, None, :]
    full = np.array([100, 900]).reshape(2, 1, 1)
    holds = sweeps._rbias_bounds_hold(event, full, 1000, 1, 4)
    assert holds.tolist() == [[True, True, False, True, False]]


def test_unbias_on_its_bound_matches_point_sums(monkeypatch):
    # at (1/12, 1/4, 2/3, 0) g = (0, 1, 0, 0) has full-cube bias 1/2, and
    # its cube x1 = 0 bias 1/2 the other way: Pr[C] / Pr_0[C] = 3, which is
    # 1 + 4 delta at delta = 1/2 and passes, but above 1 + 3 delta
    w = (5, 15, 40, 0)
    _one_point_grid(monkeypatch, w, 60)
    report = sweeps.sweep_unbias((F(1, 2),), sampled_m4=0, max_m=2)
    cases, violations = brute_sweep_unbias([(2, sweeps.all_output_tables(2), [w], 60)], (F(1, 2),))
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert report.passed


def test_restriction_class_counts():
    # (classes, pairs) per point on the functions with g = 0 on the top
    # point, and the classes of every function up to 3 bits
    for m, half, every in [(1, 5, 8), (2, 27, 40), (3, 257, 416), (4, 34791, None)]:
        tables = np.array(sweeps.all_output_tables(m), dtype=np.int64)
        table, cubes, _ = sweeps._restriction_classes(m, tables[:len(tables) // 2])
        assert (len(cubes), table.size) == (half, len(tables) // 2 * 3**m)
        if every is not None:
            assert len(sweeps._restriction_classes(m, tables)[1]) == every
    sweeps._class_table.cache_clear()  # the 4-bit table alone holds some 21 MB


@pytest.mark.parametrize("m", [1, 2, 3])
def test_class_kernel_matches_the_direct_kernel_and_point_sums(m):
    # seeded function subsets at seeded grid points, with zero weights, in
    # blocks that the screen clears (deltas up to 1/2) and that it does not
    # (deltas past 1/2, in the caller's order): equal case counts, and no
    # violation in a block that the screen clears
    rng = np.random.default_rng(m)
    tables = np.array(sweeps.all_output_tables(m), dtype=np.int64)
    mus, total = REAL_GRID(1 << m, 4)
    for deltas, clears in [((F(1, 2), F(1, 8), F(0)), True),
                           ((F(3, 4), F(1, 8), F(1), F(1, 2)), False)]:
        consts = [(d.numerator, d.denominator) for d in deltas]
        for _ in range(3):
            g_rows = tables[rng.choice(len(tables), min(len(tables), 12), replace=False)]
            weights = mus[rng.choice(len(mus), 6, replace=False)]
            assert (weights == 0).any()
            cases, cleared = sweeps._unbias_classes(m, g_rows, weights, total, consts)
            direct, found = sweeps._unbias_direct(m, g_rows[None], weights, total, consts)
            assert cases.tolist() == direct.tolist()
            assert cleared == clears
            rows = np.vstack(found or [np.zeros((0, 5), dtype=np.int64)]).tolist()
            for r, w in enumerate(_rows(weights)):
                n, violations = brute_sweep_unbias([(m, _rows(g_rows), [w], total)], deltas)
                assert cases[r] == n
                assert sorted(set(violations)) == sorted({
                    (m, tuple(g_rows[k]), w, str(deltas[d]), lattice.assignment(c, m))
                    for r_, d, _, k, c in rows if r_ == r})
            assert bool(rows) == (not clears)


def _spy_direct(monkeypatch):
    """Record the shapes of the functions and points of every call to the
    direct unbias kernel."""
    calls, direct = [], sweeps._unbias_direct

    def spy(m, g_rows, weights, total, consts):
        calls.append((m, g_rows.shape, weights.shape))
        return direct(m, g_rows, weights, total, consts)

    monkeypatch.setattr(sweeps, "_unbias_direct", spy)
    return calls


def test_direct_kernel_runs_only_on_the_fixtures_at_default_deltas(monkeypatch):
    calls = _spy_direct(monkeypatch)
    report = sweeps.sweep_unbias()
    assert (report.cases, report.violations) == (2756204, ())
    assert calls == [(4, (200, 1, 16), (200, 16))]


def test_direct_kernel_lists_the_violations_past_one_half(monkeypatch):
    calls = _spy_direct(monkeypatch)
    report = sweeps.sweep_unbias((F(1),), max_denominator=2, sampled_m4=0)
    cases, violations = brute_sweep_unbias(_unbias_grids(REAL_GRID, 2, 0, 0), (F(1),))
    assert report.cases == cases
    assert list(report.violations) == violations
    # blocks the screen did not clear, on half the functions, and the
    # points of failing orbits, one at a time on every function
    assert any(c[:2] == (3, (1, 128, 8)) for c in calls)
    assert (3, (1, 256, 8), (1, 8)) in calls


def test_screen_clears_a_class_on_its_bound(monkeypatch):
    # the fixture of test_unbias_on_its_bound_matches_point_sums: at delta
    # 1/2, g = (0, 1, 0, 0) has full-cube bias 1/2 and the class of its
    # subcube x1 = 0, masses 5 and 15, has mt (dd + nd) = 60 = 2 (dd + 4 nd)
    # mb, so the screen clears it and the direct kernel never runs
    w = (5, 15, 40, 0)
    _one_point_grid(monkeypatch, w, 60)
    calls = _spy_direct(monkeypatch)
    assert 20 * (2 + 1) == 2 * (2 + 4) * 5
    report = sweeps.sweep_unbias((F(1, 2),), sampled_m4=0, max_m=2)
    assert report.passed and report.cases > 0
    assert calls == [(4, (0, 1, 16), (0, 16))]  # the empty fixture batch alone


@pytest.mark.parametrize("eps_list", [(F(1, 4), F(1, 3), F(5, 12)), (F(0), F(7, 16))])
def test_fullbias_matches_point_sums(monkeypatch, eps_list):
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 2, 4)
    report = sweeps.sweep_fullbias(eps_list, max_m=2)
    grids = []
    for m in (1, 2):
        mus, total = sweeps.grid_weight_vectors(1 << m, sweeps.GRID_DENOMINATOR[m])
        grids.append((m, sweeps.all_output_tables(m), _rows(mus), total))
    cases, violations = brute_sweep_fullbias(grids, eps_list)
    assert report.cases == cases > 0
    assert list(report.violations) == violations


def test_unbias_three_bits_matches_point_sums():
    report = sweeps.sweep_unbias((F(1),), max_denominator=2, sampled_m4=0)
    grids = _unbias_grids(REAL_GRID, 2, 0, 0)
    cases, violations = brute_sweep_unbias(grids, (F(1),))
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert _both_complements(violations, 3) == {0, 1}


def test_rbias_three_bits_matches_point_sums(monkeypatch):
    # on a denominator-2 grid no function has complexity 2, so no leaf is
    # shallow and nothing can fail; three equal point masses can need 2
    mus, total = REAL_GRID(8, 3)
    three = mus[np.count_nonzero(mus, axis=1) == 3][::4]
    monkeypatch.setattr(sweeps, "grid_weight_vectors",
                        lambda points, den: (three if points == 8 else mus[:0, :points], total))
    _extra_leaf_sets(monkeypatch, _every_cube((3,)))
    eps_list = (F(1, 4), F(7, 16))
    report = sweeps.sweep_rbias(eps_list, max_m=3, tree_depth=1)
    grids = [(3, sweeps.all_output_tables(3), _rows(three), total)]
    cases, violations = brute_sweep_rbias(grids, eps_list, 1, _every_cube((3,)))
    assert report.cases == cases > 0
    assert list(report.violations) == violations
    assert _both_complements(violations, 3) == {0, 1}


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


def test_rbias_bound_sums_refused_from_2_to_the_63(monkeypatch):
    # each point lies in 2^m subcubes, so the sums over every active subcube
    # reach 2^m total: lcm(1..22) passes the guard on the squared total at
    # every arity and the one on the squared sums at 1 bit, but not at 2
    total = lcm(*range(1, 23))
    assert total**2 * 16 < (total << 1)**2 * 16 < 2**63 <= (total << 2)**2 * 16
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 1, 22)
    assert sweeps.sweep_rbias(max_m=1).passed
    monkeypatch.setitem(sweeps.GRID_DENOMINATOR, 2, 22)
    with pytest.raises(CapExceeded, match="int64"):
        sweeps.sweep_rbias(max_m=2)
    sweeps._check_int64(2**63 - 1)
    with pytest.raises(CapExceeded, match="int64"):
        sweeps._check_int64(2**63)


@pytest.mark.parametrize("sweep", [sweeps.sweep_unbias, sweeps.sweep_rbias, sweeps.sweep_fullbias])
def test_arity_above_3_refused(sweep):
    # GRID_DENOMINATOR has no 4-bit grid, and an exhaustive 4-bit unbias
    # sweep would cover all 65,536 functions
    with pytest.raises(CapExceeded, match="^sweeps cover at most 3 bits, got max_m=4$"):
        sweep(max_m=4)
