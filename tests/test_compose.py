import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qclab.core import (
    Dist,
    InnerComplexityZero,
    QclabError,
    Relation,
    ZeroConditioningMass,
    and_fn,
    identity1,
    index_of,
    xor_fn,
)
from qclab.complexity import rand_complexity
from qclab.compose import (
    build_instance,
    compose_relation,
    default_epsilon,
    default_theta,
    xor_stack,
)
from qclab.simulate import Simulation

from _oracles import (
    Blocks,
    brute_gamma_z,
    brute_reach_probs,
    inner_values,
    make_tree,
    random_full_support_dist,
    random_tree,
    random_truth_table,
)


def rel(g):
    return Relation.from_function(g)


def instance(g, mu, lam):
    """A composed instance of ``g`` under an outer XOR (identity for one
    copy) at epsilon 0, which any g non-constant on mu's support admits."""
    f = xor_fn(lam.arity) if lam.arity > 1 else identity1()
    return build_instance(rel(f), g, mu, lam, epsilon=F(0))


def gamma(inst) -> Dist:
    """The flat mixture of the gamma_z weighted by the outer distribution."""
    parts = [(w, brute_gamma_z(inst, z)) for z, w in enumerate(inst.lam.probs) if w]
    return Dist(inst.total_arity, tuple(
        sum((w * d.probs[x] for w, d in parts), F(0)) for x in range(1 << inst.total_arity)
    ))


class TestComposeRelation:
    def test_xor_of_and(self):
        composed = compose_relation(rel(xor_fn(2)), and_fn(2), 2)
        # copy 1 = 11, copy 2 = 01: inner values (1, 0), outer XOR gives 1
        x = index_of((1, 1, 0, 1))
        assert composed.accepted[x] == frozenset({1})

    def test_accept_all(self):
        f = Relation(2, 2, tuple(frozenset({0, 1}) for _ in range(4)))
        composed = compose_relation(f, and_fn(2), 2)
        assert all(a == frozenset({0, 1}) for a in composed.accepted)

    def test_identity_outer_recovers_g(self):
        g = and_fn(2)
        composed = compose_relation(rel(identity1()), g, 1)
        assert all(
            composed.accepted[x] == frozenset({g.outputs[x]}) for x in range(4)
        )

    def test_matches_pointwise_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_truth_table(rng, 2)
            f = rel(xor_fn(2))
            composed = compose_relation(f, g, 2)
            block = Blocks(2, 2)
            for x in range(16):
                z = inner_values(g, block, x)
                assert composed.accepted[x] == f.accepted[z]


class TestGammaZ:
    def test_point_mass_side(self):
        inst = instance(and_fn(2), Dist.uniform(2), Dist.uniform(1))
        assert brute_gamma_z(inst, 1).probs == (F(0), F(0), F(0), F(1))

    def test_both_copies_zero_side(self):
        inst = instance(and_fn(2), Dist.uniform(2), Dist.uniform(2))
        mu0 = (F(1, 3), F(1, 3), F(1, 3), F(0))
        flat = brute_gamma_z(inst, 0)
        assert flat.probs == tuple(mu0[x & 3] * mu0[x >> 2] for x in range(16))

    def test_support_property(self):
        # every point in the support has exactly z as its inner value vector
        rng = random.Random(13)
        for _ in range(10):
            g = random_truth_table(rng, 2)
            if len(set(g.outputs)) == 1:
                continue
            mu = random_full_support_dist(rng, 2)
            block = Blocks(2, 2)
            f = rel(xor_fn(2))
            composed = compose_relation(f, g, 2)
            inst = instance(g, mu, Dist.uniform(2))
            for z in range(4):
                flat = brute_gamma_z(inst, z)
                for x in flat.support():
                    assert inner_values(g, block, x) == z
                    assert composed.accepted[x] == f.accepted[z]

    def test_degenerate_mu_errors(self):
        inst = instance(and_fn(2), Dist.uniform(2), Dist.uniform(1))
        with pytest.raises(ZeroConditioningMass):
            Simulation(replace(inst, mu=Dist.point_mass(2, 3)), make_tree(2, 0)).p(0)


class TestGamma:
    def test_point_mass_outer(self):
        inst = instance(and_fn(2), Dist.uniform(2), Dist.point_mass(2, 0b10))
        assert gamma(inst) == brute_gamma_z(inst, 0b10)

    def test_balanced_recovers_mu(self):
        mu = Dist.uniform(2)
        assert gamma(instance(xor_fn(2), mu, Dist.uniform(1))) == mu

    def test_total_mass_one(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_truth_table(rng, 2)
            if len(set(g.outputs)) == 1:
                continue
            mu = random_full_support_dist(rng, 2)
            lam = random_full_support_dist(rng, 2)
            inst = instance(g, mu, lam)
            flat = gamma(inst)
            assert sum(flat.probs) == 1
            # the p laws mixed by lambda are the leaf law of gamma
            sim = Simulation(inst, random_tree(rng, 4, 4, 2))
            mixed = {lid: sum(lam.probs[z] * sim.p(z)[lid] for z in range(4))
                     for lid in sim.p(0)}
            assert mixed == brute_reach_probs(sim.tree, flat)

    def test_conditioning_recovers_gamma_z(self):
        rng = random.Random(37)
        g = and_fn(2)
        mu = random_full_support_dist(rng, 2)
        lam = random_full_support_dist(rng, 2)
        block = Blocks(2, 2)
        inst = instance(g, mu, lam)
        flat = gamma(inst)
        for z in range(4):
            mass = flat.mass_where(lambda x: inner_values(g, block, x) == z)
            assert mass == lam.probs[z]
            cond = Dist(4, tuple(
                p / mass if inner_values(g, block, x) == z else F(0)
                for x, p in enumerate(flat.probs)
            ))
            assert cond == brute_gamma_z(inst, z)


class TestXorStack:
    def test_identity_stack_is_xor(self):
        assert xor_stack(identity1(), 2).outputs == xor_fn(2).outputs

    def test_t_one_is_identity(self):
        g = and_fn(2)
        assert xor_stack(g, 1).outputs == g.outputs

    def test_and_stack_point(self):
        assert xor_stack(and_fn(2), 2).value(0b1111) == 0

    def test_associativity(self):
        g = identity1()
        assert xor_stack(xor_stack(g, 2), 3).outputs == xor_stack(g, 6).outputs

    def test_direct_evaluation(self):
        rng = random.Random(43)
        for m, t in ((1, 4), (2, 3), (3, 2)):
            g = random_truth_table(rng, m)
            stacked = xor_stack(g, t)
            block = Blocks(t, m)
            for x in range(1 << (t * m)):
                expected = 0
                for i in range(t):
                    expected ^= g.outputs[block.extract(x, i)]
                assert stacked.outputs[x] == expected


class TestBuildInstance:
    def test_defaults(self):
        assert default_epsilon(2) == F(7, 16)
        assert default_theta(2) == F(1, 2)
        assert default_theta(1) == F(1, 2)
        assert default_theta(4) == F(1, 8)

    def test_xor2_instance(self):
        inst = build_instance(
            rel(xor_fn(2)), xor_fn(2), Dist.uniform(2), Dist.uniform(2),
            epsilon=F(1, 4),
        )
        assert inst.inner_complexity == 2
        assert inst.n == 2 and inst.m == 2

    def test_defaults_follow_the_outer_arity_and_the_game(self):
        inst = build_instance(rel(xor_fn(2)), xor_fn(2))
        assert (inst.epsilon, inst.theta, inst.lam) == (F(7, 16), F(1, 2), Dist.uniform(2))
        assert inst.mu == rand_complexity(xor_fn(2), F(7, 16)).hard_dist

    @pytest.mark.parametrize("n, eps, theta", [
        (2, None, F(1, 2)),  # default eps 7/16: 2/n^2
        (4, None, F(1, 8)),  # default eps 127/256: 2/n^2
        (3, F(7, 16), F(1, 2)),  # not 2/n^2 = 2/9, which lilsnip rejects
        (2, F(31, 64), F(1, 4)),
        (1, F(1, 3), F(1, 2)),  # 1/6 is not a square: default_theta(1)
        (2, F(1, 4), F(1, 2)),  # 2*sqrt(1/4) = 1 > 1/2: default_theta(2)
    ])
    def test_theta_follows_epsilon(self, n, eps, theta):
        f = rel(xor_fn(n) if n > 1 else identity1())
        inst = build_instance(f, xor_fn(2), Dist.uniform(2), epsilon=eps)
        assert inst.theta == theta
        assert default_theta(n, inst.epsilon) == theta

    def test_theta_must_not_be_negative(self):
        args = (rel(identity1()), xor_fn(2), Dist.uniform(2))
        with pytest.raises(QclabError, match="theta must be at least 0"):
            build_instance(*args, epsilon=F(1, 4), theta=F(-1, 2))
        # above simileaf's 1/2 is legal: tests build such instances to reach its guard
        assert build_instance(*args, epsilon=F(1, 4), theta=F(1)).theta == 1

    def test_inner_complexity_zero_rejected(self):
        with pytest.raises(InnerComplexityZero):
            build_instance(
                rel(identity1()), and_fn(2), Dist.uniform(2), Dist.uniform(1),
                epsilon=F(1, 3),
            )

    def test_degenerate_mu_rejected(self):
        with pytest.raises(ZeroConditioningMass):
            build_instance(
                rel(identity1()), and_fn(2), Dist.point_mass(2, 3), Dist.uniform(1),
                epsilon=F(1, 4),
            )

