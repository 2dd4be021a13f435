import random
from fractions import Fraction as F

import numpy as np
import pytest

from qclab import lattice
from qclab.complexity import _TreeDP, best_success
from qclab.core import CapExceeded, Dist, Relation, Subcube, subcube_prob
from qclab.io import format_tree
from qclab.sweeps import sweep_rbias, sweep_unbias

from _oracles import brute_best_success, random_dist, random_relation


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
            assert _TreeDP(h, mu).label_mass.dtype == object
            wide = best_success(h, mu, depth)
            monkeypatch.setattr(lattice, "INT64_LIMIT", 2**63)
            assert _TreeDP(h, mu).label_mass.dtype == np.int64
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
