import random
from fractions import Fraction as F
from math import comb, factorial

import numpy as np
import pytest

from qclab import lattice
from qclab.complexity import _tree_dp, best_success
from qclab.core import CapExceeded, Dist, Relation, Subcube, subcube_prob
from qclab.io import format_tree
from qclab.sweeps import readonce_leaves, sweep_rbias, sweep_unbias

from _oracles import (
    brute_best_success,
    concat_masses,
    python_layers,
    random_dist,
    random_relation,
)


class TestIndexing:
    def test_decoding_matches_assignments(self):
        for m in (1, 2, 3, 4):
            for index in range(3**m):
                fixed = lattice.assignment(index, m)
                for var in range(m):
                    trit = index // 3**var % 3
                    assert ((var, trit - 1) in fixed) == (trit > 0)
                assert [v for v, _ in fixed] == sorted(v for v, _ in fixed)
                assert lattice.index_of(fixed) == index

    def test_full_cube_is_index_zero(self):
        assert lattice.assignment(0, 3) == ()
        assert lattice.index_of([]) == 0


class TestMasses:
    def test_match_subcube_prob(self):
        rng = random.Random(7)
        for m in (1, 2, 3, 4):
            for _ in range(5):
                mu = random_dist(rng, m)
                weights, den = lattice.int_weights(mu)
                masses = lattice.masses(weights, m)
                for index in range(3**m):
                    cube = Subcube(m, lattice.assignment(index, m))
                    assert F(int(masses[index]), den) == subcube_prob(mu, cube)

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
    def test_kernel_matches_reference_and_point_sums(self, m, big):
        rng = random.Random(100 * m + big)
        scale = (1 << 62) + 1 if big else 1  # object weights over a den >= 2^62
        for lead in ((), (0,), (3,), (2, 3), (0, 2), (2, 1, 2)):
            rows = [[rng.randrange(50) * scale for _ in range(1 << m)]
                    for _ in range(int(np.prod(lead, dtype=int)))]
            weights = np.array(rows, dtype=object if big else np.int64).reshape(lead + (1 << m,))
            reference = concat_masses(weights, m)
            # each kernel forced in turn, then masses' own choice, which the
            # point sums below check
            for kernel in (lattice._product_masses, lattice._pass_masses, lattice.masses):
                got = kernel(weights, m)
                assert got.shape == lead + (3**m,) and got.dtype == weights.dtype
                assert (got == reference).all()
            for row, masses in zip(rows, got.reshape(-1, 3**m).tolist()):
                den = sum(row)
                if den == 0:
                    assert masses == [0] * 3**m
                    continue
                assert (den >= lattice.INT64_LIMIT) == big
                mu = Dist.from_weights(row)
                for index, mass in enumerate(masses):
                    cube = Subcube(m, lattice.assignment(index, m))
                    assert F(mass, den) == subcube_prob(mu, cube)
        assert not any(lattice._incidence(m, t).flags.writeable for t in (np.int64, np.float64))

    def test_float_product_is_exact_below_2_to_the_53(self, monkeypatch):
        """The int64 product runs in float64 while every row's full-cube
        mass is below 2^53, so every partial sum is exact; at 2^53 and above
        it takes the integer product, since 2^53 + 1 reads 2^53 in float64."""
        tables = []
        incidence = lattice._incidence

        def spy(m, dtype):
            tables.append(dtype)
            return incidence(m, dtype)

        monkeypatch.setattr(lattice, "_incidence", spy)
        limit = lattice.FLOAT64_LIMIT
        # parts summing to 2^53 - 1, the largest total the float product takes
        below = [(1 << 52) - 1, (1 << 51) + 1, (1 << 50) + 3, (1 << 50) - 4]
        assert sum(below) == limit - 1
        cases = [
            (below, 2, [np.float64]),
            ([[5, 7], [limit - 2, 1]], 1, [np.float64]),
            ([limit, 1], 1, [np.float64, np.int64]),
            ([limit, 0], 1, [np.float64, np.int64]),
            ([[limit - 1, 0], [limit, 1]], 1, [np.float64, np.int64]),
        ]
        for rows, m, path in cases:
            weights = np.array(rows, dtype=np.int64)
            tables.clear()
            got = lattice.masses(weights, m)
            assert tables == path
            assert got.dtype == np.int64 and (got == concat_masses(weights, m)).all()

    @pytest.mark.parametrize("m", range(7, 13))
    def test_passes_match_reference_past_6_bits(self, m):
        """The sizes where the pass order matters and the DP's cap lies: one
        lattice, and leading axes of two rows and of zero."""
        rng = np.random.default_rng(m)
        for lead in ((), (2,), (1, 2), (0, 3)):
            weights = rng.integers(0, 1 << 40, size=lead + (1 << m,))
            got = lattice._pass_masses(weights, m)
            assert got.shape == lead + (3**m,) and got.dtype == np.int64
            assert (got == concat_masses(weights, m)).all()

    @pytest.mark.parametrize("m", [7, 8])
    def test_object_passes_match_reference_past_6_bits(self, m):
        rng = random.Random(300 + m)
        scale = (1 << 62) + 1  # weights over a den >= 2^62
        rows = [[rng.randrange(50) * scale for _ in range(1 << m)] for _ in range(2)]
        for weights in (np.array(rows[0], dtype=object), np.array(rows, dtype=object)):
            got = lattice._pass_masses(weights, m)
            assert got.shape == weights.shape[:-1] + (3**m,) and got.dtype == object
            assert (got == concat_masses(weights, m)).all()
        assert sum(rows[0]) >= lattice.INT64_LIMIT

    def test_size_chooses_the_kernel(self, monkeypatch):
        monkeypatch.setattr(lattice, "_product_masses", lambda weights, m: "product")
        monkeypatch.setattr(lattice, "_pass_masses", lambda weights, m: "passes")

        def kernel(rows, m, dtype=np.int64):
            return lattice.masses(np.zeros((rows, 1 << m), dtype=dtype), m)

        assert lattice.masses(np.zeros(1 << 5, dtype=np.int64), 5) == "product"
        # the most int64 rows the product takes: rows * 6^m <= 2^15
        for m, most in ((0, 1 << 15), (1, 5461), (2, 910), (3, 151), (4, 25), (5, 4)):
            assert (kernel(most, m), kernel(most + 1, m)) == ("product", "passes")
        assert kernel(1, 6) == kernel(3, 8) == kernel(256, 3) == "passes"
        # Python ints always take the passes
        assert kernel(1, 1, object) == kernel(0, 3, object) == "passes"
        assert kernel(0, 3) == "product"

    def test_subsets_list_each_mask_submasks(self):
        for m in range(6):
            table = lattice.subsets(m)
            assert len(table) == 1 << m and sum(map(len, table)) == 3**m
            for mask, points in enumerate(table):
                assert sorted(points) == [x for x in range(1 << m) if x & ~mask == 0]

    def test_leading_axes_are_independent(self):
        rng = np.random.default_rng(3)
        weights = rng.integers(0, 50, size=(4, 5, 8))
        batched = lattice.masses(weights, 3)
        assert batched.shape == (4, 5, 27)
        for i in range(4):
            for j in range(5):
                assert (batched[i, j] == lattice.masses(weights[i, j], 3)).all()

    def test_int64_only_below_the_limit(self):
        small = Dist.from_weights([1, 2, 3, 4])
        assert lattice.int_weights(small)[0].dtype == np.int64
        big = Dist(1, (F(1, 2**62), 1 - F(1, 2**62)))
        weights, den = lattice.int_weights(big)
        assert den == 2**62 and weights.dtype == object


class TestLayers:
    @pytest.mark.parametrize("m", range(8))
    @pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
    def test_kernels_agree(self, m, big):
        """The slicing kernel, under leading axes, agrees with the
        cell-by-cell reference on each lattice."""
        rng = random.Random(200 * m + big)
        scale = (1 << 62) + 1 if big else 1  # object values over a den >= 2^62
        dtype = object if big else np.int64
        rows = np.array([[rng.choice((0, rng.randrange(50))) * scale for _ in range(3**m)]
                         for _ in range(4)], dtype=dtype)
        expected = [python_layers(row, m) for row in rows.tolist()]
        for answer in (rows[0], rows, rows.reshape(2, 2, 3**m)):
            # every layer is kept until the end: the reused sum buffer
            # must not show through them
            got = list(lattice.layers(answer, m))
            assert len(got) == m + 1
            for d, layer in enumerate(got):
                assert layer.shape == answer.shape and layer.dtype == dtype
                flat = layer.reshape(-1, 3**m).tolist()
                assert flat == [e[d] for e in expected[:len(flat)]]


class TestLevels:
    @pytest.mark.parametrize("m", range(9))
    def test_tables_list_each_level_and_its_children(self, m):
        trits = [[c // 3**j % 3 for j in range(m)] for c in range(3**m)]
        seen = []
        for k in range(m + 1):
            (table,) = lattice.level(m, k)  # one block up to BLOCK cells
            assert table.dtype == np.intp and not table.flags.writeable
            assert table.shape == (2 * (m - k) + 1, comb(m, k) << k)
            cells = table[0].tolist()
            assert cells == [c for c in range(3**m) if m - trits[c].count(0) == k]
            for i, c in enumerate(cells):
                steps = [3**j for j in range(m) if trits[c][j] == 0]
                assert table[1:m - k + 1, i].tolist() == [c + s for s in steps]
                assert table[m - k + 1:, i].tolist() == [c + 2 * s for s in steps]
            seen += cells
        assert sorted(seen) == list(range(3**m))

    @pytest.mark.parametrize("m, k", [(12, 0), (12, 3), (12, 8), (11, 6)])
    def test_blocks_of_large_levels(self, m, k):
        blocks = lattice.level(m, k)
        assert blocks is lattice.level(m, k)  # cached
        sizes = [b.shape[1] for b in blocks]
        assert sum(sizes) == comb(m, k) << k and all(0 < n <= lattice.BLOCK for n in sizes)
        assert sizes[:-1] == [lattice.BLOCK] * (len(sizes) - 1)
        table = np.hstack(blocks)
        cells = table[0]
        assert (np.diff(cells) > 0).all()
        trits = cells[:, None] // 3 ** np.arange(m) % 3
        assert ((trits > 0).sum(axis=1) == k).all()
        # each cell's free variables' steps 3^j, in increasing order
        steps = np.broadcast_to(3 ** np.arange(m), trits.shape)[trits == 0]
        steps = steps.reshape(len(cells), m - k).T
        assert (table[1:m - k + 1] == cells + steps).all()
        assert (table[m - k + 1:] == cells + 2 * steps).all()
        for b in blocks:
            assert b.flags.c_contiguous and not b.flags.writeable


class TestAutomorphisms:
    def test_point_and_subcube_maps_agree(self):
        # masses(sigma w)[sigma C] == masses(w)[C] on generic weights
        rng = np.random.default_rng(5)
        for m in (1, 2, 3):
            points, cubes = lattice.automorphisms(m)
            assert len({tuple(p) for p in points.tolist()}) == len(points) == 2**m * factorial(m)
            assert (points[0] == np.arange(2**m)).all() and (cubes[0] == np.arange(3**m)).all()
            w = rng.integers(0, 10**6, size=(4, 2**m))
            for p, c in zip(points, cubes):
                image = np.empty_like(w)
                image[:, p] = w
                assert (lattice.masses(image, m)[:, c] == lattice.masses(w, m)).all()

    def test_tree_leaf_sets_closed(self):
        # the rbias sweep shares a grid point's verdicts with its orbit only
        # because the tree shapes are closed under the automorphisms
        for m in (1, 2, 3):
            _, cubes = lattice.automorphisms(m)
            for depth in range(4):
                incidence = readonce_leaves(m, depth)
                columns = sorted(map(tuple, incidence.T.tolist()))
                for c in cubes:
                    image = np.empty_like(incidence)
                    image[c] = incidence
                    assert sorted(map(tuple, image.T.tolist())) == columns


def _witness_success(h, mu, tree):
    return sum(
        (mu.probs[x] for x in range(1 << h.arity) if h.accepts(x, tree.output(x))),
        F(0),
    )


class TestTreeDP:
    def test_matches_enumeration_with_exact_witness(self):
        rng = random.Random(11)
        for _ in range(60):
            m = rng.choice([1, 2, 3, 4])
            h = random_relation(rng, m, rng.choice([1, 2, 3]))
            mu = random_dist(rng, m)
            depth = rng.randrange(min(m, 3) + 1)
            result = best_success(h, mu, depth)
            assert result.success == brute_best_success(h, mu, depth)
            assert result.witness.depth() <= depth
            assert _witness_success(h, mu, result.witness) == result.success

    def test_int64_and_python_int_paths_agree(self, monkeypatch):
        # a common denominator in [2^62, 2^63) fits either representation
        rng = random.Random(13)
        den = 2**62 + 1
        for _ in range(20):
            m = rng.choice([2, 3, 4])
            h = random_relation(rng, m, rng.choice([2, 3]))
            cuts = sorted(rng.randrange(den) for _ in range((1 << m) - 2))
            nums = [1] + [b - a for a, b in zip([0] + cuts, cuts + [den - 1])]
            mu = Dist(m, tuple(F(k, den) for k in nums))
            depth = rng.randrange(m + 1)
            assert _tree_dp(h, mu).label_mass.dtype == object
            wide = best_success(h, mu, depth)
            monkeypatch.setattr(lattice, "INT64_LIMIT", 2**63)
            assert _tree_dp(h, mu).label_mass.dtype == np.int64
            narrow = best_success(h, mu, depth)
            monkeypatch.undo()
            assert narrow.success == wide.success
            assert format_tree(narrow.witness) == format_tree(wide.witness)
            assert _witness_success(h, mu, wide.witness) == wide.success

    def test_ties_prefer_answer_then_low_variable_then_low_label(self):
        # every label and every query ties under the uniform distribution
        h = Relation(2, 2, (frozenset({0, 1}),) * 4)
        assert format_tree(best_success(h, Dist.uniform(2), 2).witness) == "(leaf 0)\n"
        xor = Relation(2, 2, tuple(frozenset({bin(x).count("1") % 2}) for x in range(4)))
        tree = best_success(xor, Dist.uniform(2), 2).witness
        assert format_tree(tree) == "(q 1 (q 2 (leaf 0) (leaf 1)) (q 2 (leaf 1) (leaf 0)))\n"


class TestSweepGuards:
    def test_int64_overflow_refused(self):
        with pytest.raises(CapExceeded):
            sweep_unbias(deltas=(F(1, 2**60),), sampled_m4=0)
        with pytest.raises(CapExceeded):
            sweep_rbias(eps_list=(F(1, 2) - F(1, 2**60),), max_m=1)
