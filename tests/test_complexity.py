import gc
import random
import weakref
from fractions import Fraction as F

import numpy as np
import pytest

from qclab.core import (
    Dist,
    HypothesisViolated,
    Relation,
    and_fn,
    constant_fn,
    identity1,
    maj3,
    xor_fn,
)
from qclab import complexity, lattice
from qclab.complexity import (
    best_success,
    dist_complexity,
    dist_solution,
    rand_complexity,
)
from qclab.io import format_tree

from _oracles import (
    brute_best_success,
    fraction_rand_complexity,
    python_layers,
    random_dist,
    random_relation,
    random_truth_table,
    sliced_layers,
)

U1 = Dist.uniform(1)
U2 = Dist.uniform(2)


class TestBestSuccess:
    def test_identity_depths(self):
        assert best_success(identity1(), U1, 0).success == F(1, 2)
        assert best_success(identity1(), U1, 1).success == 1

    def test_and_depth0_constant_witness(self):
        result = best_success(and_fn(2), U2, 0)
        assert result.success == F(3, 4)
        assert result.witness.depth() == 0
        assert result.witness.root.label == 0

    def test_witness_achieves_reported_success(self):
        rng = random.Random(17)
        for _ in range(30):
            h = random_relation(rng, 3, 3)
            mu = random_dist(rng, 3)
            depth = rng.randrange(4)
            result = best_success(h, mu, depth)
            assert result.witness.depth() <= depth
            achieved = sum(
                (mu.probs[x] for x in range(8) if h.accepts(x, result.witness.output(x))),
                F(0),
            )
            assert achieved == result.success

    def test_monotone_in_depth(self):
        rng = random.Random(23)
        for _ in range(20):
            h = random_truth_table(rng, 3)
            mu = random_dist(rng, 3)
            values = [best_success(h, mu, d).success for d in range(4)]
            assert values == sorted(values)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            h = random_relation(rng, 3, 2)
            mu = random_dist(rng, 3)
            depth = rng.randrange(3)
            assert best_success(h, mu, depth).success == brute_best_success(h, mu, depth)

    def test_rows_are_label_0_and_the_accepted_labels(self):
        # rows ran from label 0 to the largest accepted one, 200,001 of them here
        top = 200000
        h = Relation(2, 10**12, (frozenset({5}), frozenset({7, top}), frozenset({5}), frozenset({7})))
        labels, table = complexity._accepts(h)
        assert labels == [0, 5, 7, top]
        assert table.tolist() == [[False] * 4, [True, False, True, False],
                                  [False, True, False, True], [False, True, False, False]]

    def test_table_gathers_one_column_per_distinct_set(self):
        """Equal sets, shared or built apart, give equal columns, laid out
        one row per label as the DP's product with the weights reads them."""
        rng = random.Random(37)
        for arity, alphabet in ((1, 2), (4, 3), (8, 5)):
            h = random_relation(rng, arity, alphabet)
            fresh = Relation(arity, alphabet, tuple(frozenset(acc) for acc in h.accepted))
            for rel in (h, fresh):
                labels, table = complexity._accepts(rel)
                assert labels == sorted({0}.union(*h.accepted))
                assert table.dtype == bool and table.flags.c_contiguous
                assert table.tolist() == [[r in acc for acc in h.accepted] for r in labels]

    def test_a_subcube_of_mass_0_answers_label_0(self):
        # no input accepts 0, but the half x0 = 1 has no mass
        h = Relation(2, 8, (frozenset({5}), frozenset({7}), frozenset({7}), frozenset({7})))
        mu = Dist(2, (F(1, 2), F(0), F(1, 2), F(0)))
        result = best_success(h, mu, 2)
        assert result.success == 1
        assert format_tree(result.witness).strip() == "(q 1 (q 2 (leaf 5) (leaf 7)) (leaf 0))"


class TestDistComplexity:
    def test_identity(self):
        assert dist_complexity(identity1(), U1, F(1, 4)) == 1

    def test_and_constant_answer(self):
        assert dist_complexity(and_fn(2), U2, F(1, 3)) == 0

    def test_xor(self):
        assert dist_complexity(xor_fn(2), U2, F(1, 4)) == 2
        # only the full-depth tree errs nowhere
        assert dist_complexity(xor_fn(3), Dist.uniform(3), 0) == 3

    def test_eps_monotone(self):
        rng = random.Random(41)
        for _ in range(20):
            h = random_truth_table(rng, 3)
            mu = random_dist(rng, 3)
            ds = [dist_complexity(h, mu, e) for e in (F(1, 8), F(1, 4), F(3, 8))]
            assert ds == sorted(ds, reverse=True)

    def test_eps_range(self):
        with pytest.raises(HypothesisViolated):
            dist_complexity(identity1(), U1, F(1, 2))


class TestRandComplexity:
    def test_identity(self):
        result = rand_complexity(identity1(), F(1, 3))
        assert result.depth == 1
        assert result.lower_value <= result.upper_value
        assert not result.limit_hit

    def test_xor2(self):
        assert rand_complexity(xor_fn(2), F(1, 3)).depth == 2
        assert rand_complexity(xor_fn(2), 0).depth == 2

    def test_constant(self):
        assert rand_complexity(constant_fn(2, 1), F(1, 3)).depth == 0

    def test_and2_boundary(self):
        # the depth-1 game value is exactly the success target here
        result = rand_complexity(and_fn(2), F(1, 3))
        assert result.depth == 1

    def test_maj3(self):
        assert rand_complexity(maj3(), F(1, 3)).depth == 1

    def test_relation_input(self):
        rel = Relation(1, 2, (frozenset({0, 1}), frozenset({0, 1})))
        assert rand_complexity(rel, F(1, 3)).depth == 0

    def test_rounds_run_the_dp_on_int64(self, monkeypatch):
        # snapped weights passed 2^62 over their common denominator, and
        # 150 of these 166 solves ran on Python-int object arrays
        dtypes = []
        init = complexity._TreeDP.__init__

        def spy(self, accepts, weights, den):
            dtypes.append(weights.dtype)
            init(self, accepts, weights, den)

        monkeypatch.setattr(complexity._TreeDP, "__init__", spy)
        rand_complexity(random_truth_table(random.Random(3), 5), F(1, 3))
        assert len(dtypes) > 100
        assert all(d == np.int64 for d in dtypes)


class TestHardDistribution:
    def test_identity_certificate(self):
        mu = rand_complexity(identity1(), F(1, 3)).hard_dist
        assert dist_complexity(identity1(), mu, F(1, 3)) == 1

    def test_xor2_certificate(self):
        mu = rand_complexity(xor_fn(2), F(1, 3)).hard_dist
        assert dist_complexity(xor_fn(2), mu, F(1, 3)) == 2

    def test_constant(self):
        mu = rand_complexity(constant_fn(1, 1), F(1, 3)).hard_dist
        assert dist_complexity(constant_fn(1, 1), mu, F(1, 3)) == 0

    def test_minimax_consistency_sampled(self):
        rng = random.Random(59)
        for g, depth in ((identity1(), 1), (xor_fn(2), 2), (maj3(), 1)):
            result = rand_complexity(g, F(1, 3))
            assert result.depth == depth
            for _ in range(10):
                mu = random_dist(rng, g.arity)
                assert dist_complexity(g, mu, F(1, 3)) <= result.depth


def _game_weights(rng, m: int, big: bool) -> list[list[int]]:
    """Weight vectors as the game gives them, zeros and ties included,
    scaled over a denominator of at least 2^62 when ``big``."""
    scale = (1 << 62) + 1 if big else 1
    return [[w * scale for w in weights] for weights in (
        [1] * (1 << m),
        [rng.randrange(4) for _ in range(1 << m)],
        [rng.choice([0, 0, 0, 1 << 40]) for _ in range(1 << m)],
        [rng.randrange(1 << 40) for _ in range(1 << m)],
    )]


class TestLevelDP:
    """The level DP solves one depth at a time into one buffer; every
    depth, in any order, must give each cell within d queries of the full
    cube, the root among them, its value in the cell-by-cell layer oracle
    (the slicing oracle past 9 bits, where the first is too slow), and a
    witness that scores the root point by point."""

    @pytest.mark.parametrize("m, big", [(m, False) for m in range(13)] +
                             [(m, True) for m in range(9)])
    def test_values_match_the_layers_and_the_witness(self, m, big):
        rng = random.Random(1000 * m + big)
        scale = (1 << 62) + 1 if big else 1
        dtype = object if big else np.int64
        codim = (np.arange(3**m)[:, None] // 3 ** np.arange(m) % 3 > 0).sum(axis=1)
        for n_labels in (2, 3):
            # a relation's table as _accepts gives it, built here since a
            # Relation has arity at least 1
            labels = list(range(n_labels))
            table = np.array([[rng.random() < 0.5 for _ in range(1 << m)] for _ in labels])
            accepts = labels, table
            weights = [rng.choice((0, rng.randrange(1, 50))) * scale for _ in range(1 << m)]
            den = max(sum(weights), 1)
            assert (den >= lattice.INT64_LIMIT) == (big and den > 1)
            w = np.array(weights, dtype=dtype)
            answer = lattice.masses(w * table, m).max(axis=0)
            oracle = python_layers(answer.tolist(), m) if m < 10 else sliced_layers(answer, m)
            layers = np.array(oracle, dtype=dtype)
            roots = [int(root) for root in layers[:, 0]]
            dp = complexity._TreeDP(accepts, w, den)
            assert dp.label_mass.dtype == dtype
            depths = list(range(m + 2))
            rows = table.tolist()

            def check(d):
                assert dp.value(d) == roots[min(d, m)]
                # every cell of level k < d holds V_{d-k}
                d = min(d, m)
                within = np.flatnonzero(codim < d)
                assert (dp.values[within] == layers[d - codim[within], within]).all()

            for d in depths:
                check(d)
                tree = dp.witness(d)
                assert tree.depth() <= d
                scored = sum(weights[x] for x in range(1 << m)
                             if rows[labels.index(tree.output(x))][x])
                assert scored == dp.value(d)
            rng.shuffle(depths)
            for d in depths[::-1] + depths:  # down, up and back
                check(d)


class TestBestResponseWalker:
    def test_walker_matches_the_witness(self):
        # game weights floor to 0 and start uniform, so zeros and ties
        # matter; object weights lie over a denominator of at least 2^62
        rng = random.Random(71)
        for big in [False] * 40 + [True] * 20:
            m = rng.randint(1, 9)
            h = random_relation(rng, m, rng.choice([2, 3]))
            labels, table = accepts = complexity._accepts(h)
            rows = table.tolist()
            for weights in _game_weights(rng, m, big):
                den = max(sum(weights), 1)
                w = np.array(weights, dtype=object if big else np.int64)
                dp = complexity._TreeDP(accepts, w, den)
                for depth in range(m + 2):
                    tree = dp.witness(depth)
                    expected = [rows[labels.index(tree.output(x))][x] for x in range(1 << m)]
                    assert dp.correct(depth, rows) == expected

    def test_walk_after_a_deeper_solve(self):
        """``value(d + 2)`` leaves deeper values on the levels above d;
        ``correct(d)`` must solve d again and walk it as a fresh DP's
        witness answers, in int64 and object dtype alike."""
        rng = random.Random(73)
        for big in [False] * 20 + [True] * 10:
            m = rng.randint(2, 8)
            h = random_relation(rng, m, rng.choice([2, 3]))
            labels, table = accepts = complexity._accepts(h)
            rows = table.tolist()
            for weights in _game_weights(rng, m, big):
                den = max(sum(weights), 1)
                w = np.array(weights, dtype=object if big else np.int64)
                for depth in range(m - 1):
                    dp = complexity._TreeDP(accepts, w, den)
                    dp.value(depth + 2)
                    tree = complexity._TreeDP(accepts, w, den).witness(depth)
                    expected = [rows[labels.index(tree.output(x))][x] for x in range(1 << m)]
                    assert dp.correct(depth, rows) == expected


class TestNoCycles:
    def test_a_solved_dp_dies_with_its_call(self, monkeypatch):
        """No reference cycle may hold a DP: with the cyclic collector off,
        every DP a call built is freed when the call returns.  A closure
        that refers to itself would keep the lattice arrays alive."""
        refs = []
        init = complexity._TreeDP.__init__

        def spy(self, accepts, weights, den):
            refs.append(weakref.ref(self))
            init(self, accepts, weights, den)

        monkeypatch.setattr(complexity._TreeDP, "__init__", spy)
        rng = random.Random(97)
        h, mu = random_relation(rng, 4, 3), random_dist(rng, 4)
        calls = (lambda: best_success(h, mu, 3), lambda: dist_solution(h, mu, F(1, 4)),
                 lambda: rand_complexity(h, F(1, 3)))
        gc.disable()
        try:
            for call in calls:
                refs.clear()
                call()
                assert refs and all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestGameDPs:
    def test_xor2_hard_distribution_solves_one_dp(self, monkeypatch):
        # three depths start from uniform weights and reject or accept in
        # their first round; the certificate reuses the rejecting round's DP
        built = []
        init = complexity._TreeDP.__init__

        def spy(self, accepts, weights, den):
            built.append(weights.tolist())
            init(self, accepts, weights, den)

        monkeypatch.setattr(complexity._TreeDP, "__init__", spy)
        result = rand_complexity(xor_fn(2), F(1, 3))
        assert result.hard_dist == U2 and result.certified_depth == 2
        assert built == [[complexity.ONE_WEIGHT] * 4]

    def test_certificate_matches_a_fresh_dp(self, monkeypatch):
        rng = random.Random(83)
        cases = [(xor_fn(2), F(1, 3)), (maj3(), F(1, 3))]
        cases += [(random_truth_table(rng, rng.randint(1, 4)), F(1, 4)) for _ in range(10)]
        for h, eps in cases:
            result = rand_complexity(h, eps)
            assert not result.limit_hit
            assert result.certified_depth == dist_complexity(h, result.hard_dist, eps)
        # a first depth cut short by MAX_ITER leaves no DP of hard_dist, so
        # the game solves one
        monkeypatch.setattr(complexity, "MAX_ITER", 1)
        result = rand_complexity(and_fn(2), F(1, 3))
        assert result.limit_hit and result.depth == 0
        assert result.certified_depth == dist_complexity(and_fn(2), result.hard_dist, F(1, 3))


class TestResultsOncePerCall:
    def test_one_witness_and_one_dist_per_call(self, monkeypatch):
        """However many depths a call rejects, it builds one witness tree
        and one ``Dist``, and its result is the Fraction loop's."""
        rng = random.Random(89)
        cases = [(xor_fn(2), F(1, 3)), (xor_fn(3), F(1, 4)),
                 (random_truth_table(rng, 4), F(1, 4)), (random_relation(rng, 4, 3), F(1, 3))]
        for h, eps in cases:
            expected = fraction_rand_complexity(h, eps)
            built = {"witness": 0, "dist": 0}
            witness, post_init = complexity._TreeDP.witness, Dist.__post_init__

            def spy_witness(self, depth):
                built["witness"] += 1
                return witness(self, depth)

            def spy_dist(self):
                built["dist"] += 1
                post_init(self)

            with monkeypatch.context() as patch:
                patch.setattr(complexity._TreeDP, "witness", spy_witness)
                patch.setattr(Dist, "__post_init__", spy_dist)
                result = rand_complexity(h, eps)
            assert result.depth >= 2  # depths 0 and 1 were rejected
            assert built == {"witness": 1, "dist": 1}
            assert _game_fields(result) == _game_fields(expected)


def _game_fields(result):
    return (
        result.depth, result.lower_value, result.upper_value, result.hard_dist.probs,
        format_tree(result.best_tree), result.iterations, result.limit_hit,
        result.certified_depth,
    )


class TestGameMatchesFractionLoop:
    """The integer game follows the Fraction loop iterate for iterate, so
    every field of its result is identical."""

    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 3), F(7, 16)])
    def test_random_tables_and_relations(self, eps):
        rng = random.Random(str(eps))
        # up to the 5-bit tables the benchmark's games play
        for arity in (1, 2, 3, 4, 5):
            for h in (random_truth_table(rng, arity), random_relation(rng, arity, 3)):
                assert _game_fields(rand_complexity(h, eps)) == \
                    _game_fields(fraction_rand_complexity(h, eps))

    def test_limit_hit(self, monkeypatch):
        h = random_truth_table(random.Random(5), 3)
        monkeypatch.setattr(complexity, "MAX_ITER", 3)
        result = rand_complexity(h, F(1, 3))
        assert result.limit_hit
        assert _game_fields(result) == \
            _game_fields(fraction_rand_complexity(h, F(1, 3), max_iter=3))
