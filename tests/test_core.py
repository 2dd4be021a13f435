import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from qclab.core import (
    ArityMismatch,
    CapExceeded,
    Dist,
    HypothesisViolated,
    QclabError,
    Relation,
    Subcube,
    TruthTable,
    ZeroConditioningMass,
    and_fn,
    constant_fn,
    identity1,
    index_of,
    maj3,
    or_fn,
    subcube_prob,
    xor_fn,
    _check_arity,
)
from qclab import lattice
from qclab.complexity import best_success, dist_complexity
from qclab.compose import build_instance, compose_relation

from _oracles import bias, check_fullbias, random_dist, random_truth_table, restrict_dist

U2 = Dist.uniform(2)
U3 = Dist.uniform(3)
XOR2 = Relation.from_function(xor_fn(2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: TruthTable(0, (0,)), QclabError, "arity must be >= 1"),
    (lambda: TruthTable(17, ()), CapExceeded, "arity 17 exceeds cap"),
    (lambda: TruthTable(1, (0, 2)), QclabError, "outputs must be bits"),
    (lambda: Relation(1, 0, (frozenset({0}),) * 2), QclabError,
     "arity and alphabet size must be >= 1"),
    (lambda: Relation(1, 2, (frozenset({0}),)), QclabError, "accepted length must be 2^arity"),
    (lambda: Relation(1, 2, (frozenset({0}), frozenset({2}))), QclabError,
     "label out of range at input 1"),
    (lambda: Subcube(2, ((2, 0),)), QclabError, "variable 2 out of range"),
    (lambda: Subcube(2, ((0, 2),)), QclabError, "assignment must be a bit"),
    (lambda: Subcube(2, ((0, 0), (0, 1))), QclabError, "variable 0 fixed twice"),
    (lambda: Dist(17, ()), CapExceeded, "arity 17 exceeds cap"),
    (lambda: Dist(1, (F(1),)), QclabError, "probs length must be 2^arity"),
    (lambda: Dist.from_weights([0, 0]), QclabError, "weights must have positive total"),
    (lambda: Dist.from_weights([1, 1, 1]), QclabError,
     "weight vector length must be a power of two"),
    (lambda: _check_arity(2, 3), ArityMismatch, "arity mismatch: 2 != 3"),
    (lambda: lattice.g_masses(xor_fn(2), U3), ArityMismatch, "arity mismatch: 2 != 3"),
    (lambda: compose_relation(XOR2, xor_fn(2), 3), QclabError, "outer arity 2 != n = 3"),
    (lambda: compose_relation(XOR2, xor_fn(7), 2), CapExceeded,
     "composed arity 14 exceeds the flat cap"),
    (lambda: build_instance(XOR2, xor_fn(2), U3), QclabError, "inner distribution arity mismatch"),
    (lambda: best_success(xor_fn(2), U2, -1), QclabError, "depth must be >= 0"),
], ids=[
    "truth-table-arity", "truth-table-cap", "truth-table-bits", "relation-alphabet",
    "relation-length", "relation-label", "subcube-variable", "subcube-bit", "subcube-twice",
    "dist-cap", "dist-length", "weights-total", "weights-length", "check-arity", "g-masses",
    "compose-outer-arity", "compose-cap", "build-instance-mu", "best-success-depth",
])
def test_library_checks_raise_their_error(call, error, message):
    with pytest.raises(QclabError) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


class TestTruthTable:
    def test_eval_and(self):
        assert and_fn(2).value(0b11) == 1
        # index convention: variable 1 is bit 0, so x = 01 means x1=0, x2=1
        assert and_fn(2).value(index_of((0, 1))) == 0

    def test_eval_xor(self):
        assert xor_fn(2).value(index_of((1, 0))) == 1

    def test_named_functions(self):
        assert identity1().outputs == (0, 1)
        assert or_fn(2).outputs == (0, 1, 1, 1)
        assert maj3().value(0b011) == 1
        assert maj3().value(0b100) == 0
        assert constant_fn(3, 1).outputs == (1,) * 8

    def test_bad_outputs_rejected(self):
        with pytest.raises(QclabError):
            TruthTable(2, (0, 1, 0))
        with pytest.raises(QclabError):
            and_fn(2).value(4)


class TestRelation:
    def test_totality_enforced(self):
        with pytest.raises(QclabError):
            Relation(1, 2, (frozenset(), frozenset({0})))

    def test_from_function(self):
        rel = Relation.from_function(and_fn(2))
        assert rel.accepted[0b11] == frozenset({1})
        assert rel.accepts(0b01, 0)
        assert not rel.accepts(0b01, 1)


class TestRestrictDist:
    def test_and_one_side_is_point_mass(self):
        mu1 = restrict_dist(U2, and_fn(2), 1)
        assert mu1.probs == (F(0), F(0), F(0), F(1))

    def test_and_zero_side_uniform_on_three(self):
        mu0 = restrict_dist(U2, and_fn(2), 0)
        assert mu0.probs == (F(1, 3), F(1, 3), F(1, 3), F(0))

    def test_zero_mass_errors(self):
        with pytest.raises(ZeroConditioningMass):
            restrict_dist(Dist.point_mass(2, 0b11), and_fn(2), 0)

    @given(st.integers(0, 1), st.integers(0, 2**6 - 1))
    def test_support_and_normalization(self, b, seed):
        rng = random.Random(seed)
        g = random_truth_table(rng, 2)
        mu = random_dist(rng, 2)
        if mu.mass_where(lambda x: g.outputs[x] == b) == 0:
            with pytest.raises(ZeroConditioningMass):
                restrict_dist(mu, g, b)
            return
        out = restrict_dist(mu, g, b)
        assert sum(out.probs) == 1
        assert all(out.probs[x] == 0 for x in g.preimage(1 - b))


class TestSubcubeProb:
    def test_uniform_halves(self):
        assert subcube_prob(U3, Subcube.from_mapping(3, {0: 0})) == F(1, 2)
        assert subcube_prob(U3, Subcube.full(3)) == 1

    def test_skewed(self):
        # with variable j stored in bit j, fixing x2=1 selects indices 2, 3
        mu = Dist(2, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
        assert subcube_prob(mu, Subcube.from_mapping(2, {1: 1})) == F(1, 4)

    def test_total_probability_over_restrictions(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_truth_table(rng, 3)
            mu = random_dist(rng, 3)
            masses = [mu.mass_where(lambda x, b=b: g.outputs[x] == b) for b in (0, 1)]
            if 0 in masses:
                continue
            parts = [restrict_dist(mu, g, b) for b in (0, 1)]
            for cube in (Subcube.full(3), Subcube.from_mapping(3, {1: 0, 2: 1})):
                total = sum(masses[b] * subcube_prob(parts[b], cube) for b in (0, 1))
                assert total == subcube_prob(mu, cube)


def lattice_cond_prob(mu: Dist, c2: Subcube, c1: Subcube) -> F:
    """``Pr_mu[c2 | c1]`` as the simulator takes it: a ratio of two entries
    of the lattice mass table."""
    weights, _ = lattice.int_weights(mu)
    table = lattice.masses(weights, mu.arity)
    return F(int(table[lattice.index_of(c2.fixed)]), int(table[lattice.index_of(c1.fixed)]))


class TestCondProb:
    def test_uniform_independence(self):
        c1 = Subcube.from_mapping(3, {0: 0})
        c2 = Subcube.from_mapping(3, {0: 0, 1: 0})
        assert lattice_cond_prob(U3, c2, c1) == F(1, 2)

    def test_identity_case(self):
        c = Subcube.from_mapping(2, {0: 1})
        assert lattice_cond_prob(U2, c, c) == 1

    def test_point_mass(self):
        mu = Dist.point_mass(2, 0b11)
        c1 = Subcube.from_mapping(2, {0: 1})
        c2 = Subcube.from_mapping(2, {0: 1, 1: 1})
        assert lattice_cond_prob(mu, c2, c1) == 1

    def test_chain_rule(self):
        rng = random.Random(11)
        for _ in range(25):
            mu = random_dist(rng, 3)
            c0 = Subcube.from_mapping(3, {0: 1})
            c1 = Subcube.from_mapping(3, {0: 1, 2: 0})
            if subcube_prob(mu, c0) == 0:
                continue
            assert subcube_prob(mu, c1) == lattice_cond_prob(mu, c1, c0) * subcube_prob(mu, c0)


class TestBias:
    def test_and_full_cube(self):
        assert bias(and_fn(2), U2, Subcube.full(2)) == F(1, 2)

    def test_xor_balanced(self):
        assert bias(xor_fn(2), U2, Subcube.full(2)) == 0

    def test_and_fixed_first_bit(self):
        assert bias(and_fn(2), U2, Subcube.from_mapping(2, {0: 1})) == 0

    def test_zero_mass_cube_errors(self):
        mu = Dist.point_mass(2, 0)
        with pytest.raises(ZeroConditioningMass):
            bias(and_fn(2), mu, Subcube.from_mapping(2, {0: 1}))

    def test_complement_symmetry(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_truth_table(rng, 3)
            mu = random_dist(rng, 3)
            cube = Subcube.from_mapping(3, {rng.randrange(3): rng.randrange(2)})
            if subcube_prob(mu, cube) == 0:
                continue
            assert bias(g, mu, cube) == bias(g.complement(), mu, cube)


class TestFullBias:
    def test_balanced_identity(self):
        report = check_fullbias(identity1(), Dist.uniform(1), F(1, 4))
        assert report.min_mass == F(1, 2)
        assert report.full_bias == 0
        assert report.holds

    def test_and_uniform_third(self):
        report = check_fullbias(and_fn(2), U2, F(1, 3))
        assert report.min_mass == F(1, 4)
        assert not report.holds
        # consistent with the proposition: the complexity hypothesis fails
        assert dist_complexity(and_fn(2), U2, F(1, 3)) == 0

    def test_constant_function(self):
        report = check_fullbias(constant_fn(2, 0), U2, F(1, 4))
        assert report.min_mass == 0
        assert not report.holds

    def test_eps_range(self):
        with pytest.raises(HypothesisViolated):
            check_fullbias(identity1(), Dist.uniform(1), F(1, 2))


class TestSubcube:
    def test_points(self):
        c = Subcube.from_mapping(3, {1: 1})
        pts = sorted(c.points())
        assert pts == [2, 3, 6, 7]
        assert all(c.contains(x) for x in pts)


class TestDist:
    def test_sum_must_be_one(self):
        with pytest.raises(QclabError):
            Dist(1, (F(1, 2), F(1, 3)))
        with pytest.raises(QclabError):
            Dist(1, (F(3, 2), F(-1, 2)))

    @pytest.mark.parametrize("probs", [
        (F(1, 2), F(-1, 4), F(1, 2), F(1, 4)),          # a negative entry
        (F(-1, 2), F(1, 4), F(1, 4), F(1, 4)),          # negative, and a wrong sum
        (F(1, 2), F(1, 3), F(1, 8), F(0)),              # sums to 23/24
        (F(1, 2), F(1, 4), F(1, 4), F(1, 2**70)),       # one part in 2^70 over
        (F(1, 4), F(1, 4), F(1, 6), F(1, 3)),           # no denominator is the lcm
        (F(1, 2**62), F(1, 3**40), F(1, 2), 1 - F(1, 2**62) - F(1, 3**40) - F(1, 2)),
        (F(1, 2**63), F(2**62 - 1, 2**63), F(1, 3**40), F(1, 2) - F(1, 3**40)),
        (F(1, 2**63), F(-1, 2**63), F(1, 3**40), 1 - F(1, 3**40)),
        (F(1, 3**40), F(1, 3**40), F(1, 2), F(1, 2)),
        (F(0), F(0), F(0), F(0)),                       # all zero
        (0, 0, 1, 0),
    ])
    def test_errors_match_the_fraction_checks(self, probs):
        def fraction_checks():
            if any(p < 0 for p in probs):
                return "negative probability"
            if sum(probs) != 1:
                return "probabilities must sum to exactly 1"
            return None

        try:
            Dist(2, probs)
            error = None
        except QclabError as exc:
            error = str(exc)
        assert error == fraction_checks()

    def test_from_weights(self):
        mu = Dist.from_weights([1, 0, 1, 2])
        assert mu.probs == (F(1, 4), F(0), F(1, 4), F(1, 2))
        assert mu.support() == [0, 2, 3]
