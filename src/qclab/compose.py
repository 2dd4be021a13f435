"""Composition of an outer relation with inner Boolean functions, the
product/mixture input distributions for the composed problem, and the XOR
stacking construction.

Product and mixture distributions are kept in structured form (per-copy
factors, weighted terms); flat expansion is available for oracle
cross-checks but capped, since ``2^(n*m)`` vectors stop being feasible
quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


from .core import (
    CapExceeded,
    Dist,
    InnerComplexityZero,
    QclabError,
    Relation,
    TruthTable,
    ZeroConditioningMass,
    caps,
    restrict_dist,
)
from .complexity import dist_complexity
from .dtree import BlockStructure


@dataclass(frozen=True)
class ProductDist:
    """Independent product of per-copy distributions of equal arity."""

    factors: tuple[Dist, ...]

    def __post_init__(self):
        if not self.factors:
            raise QclabError("need at least one factor")
        w = self.factors[0].arity
        if any(f.arity != w for f in self.factors):
            raise QclabError("all factors must have equal arity")

    @property
    def blocks(self) -> int:
        return len(self.factors)

    @property
    def block_width(self) -> int:
        return self.factors[0].arity

    @property
    def arity(self) -> int:
        return self.blocks * self.block_width

    def block(self) -> BlockStructure:
        return BlockStructure(self.blocks, self.block_width)

    def prob(self, x: int) -> Fraction:
        structure = self.block()
        p = Fraction(1)
        for i, factor in enumerate(self.factors):
            p *= factor.prob(structure.extract(x, i))
            if p == 0:
                break
        return p

    def expand(self) -> Dist:
        if self.arity > caps()["flat"]:
            raise CapExceeded(f"arity {self.arity} exceeds the flat-expansion cap")
        return Dist(self.arity, tuple(self.prob(x) for x in range(1 << self.arity)))


@dataclass(frozen=True)
class MixtureDist:
    """Weighted mixture of product distributions on a common cube."""

    terms: tuple[tuple[Fraction, ProductDist], ...]

    def __post_init__(self):
        if not self.terms:
            raise QclabError("need at least one term")
        arity = self.terms[0][1].arity
        if any(t.arity != arity for _, t in self.terms):
            raise QclabError("mixture terms must share arity")
        if any(w < 0 for w, _ in self.terms):
            raise QclabError("negative mixture weight")
        if sum(w for w, _ in self.terms) != 1:
            raise QclabError("mixture weights must sum to exactly 1")

    @property
    def arity(self) -> int:
        return self.terms[0][1].arity

    def prob(self, x: int) -> Fraction:
        return sum((w * t.prob(x) for w, t in self.terms if w), Fraction(0))

    def expand(self) -> Dist:
        if self.arity > caps()["flat"]:
            raise CapExceeded(f"arity {self.arity} exceeds the flat-expansion cap")
        return Dist(self.arity, tuple(self.prob(x) for x in range(1 << self.arity)))


def compose_relation(f: Relation, g: TruthTable, n: int) -> Relation:
    """The relation on ``n * g.arity`` bits accepting ``(x, r)`` exactly when
    ``f`` accepts ``r`` on the bit-vector of inner values of the copies."""
    if f.arity != n:
        raise QclabError(f"outer arity {f.arity} != n = {n}")
    total = n * g.arity
    if total > caps()["flat"]:
        raise CapExceeded(f"composed arity {total} exceeds the flat cap")
    structure = BlockStructure(n, g.arity)
    accepted = []
    for x in range(1 << total):
        z = 0
        for i in range(n):
            if g.outputs[structure.extract(x, i)]:
                z |= 1 << i
        accepted.append(f.accepted[z])
    return Relation(total, f.alphabet_size, tuple(accepted))


def inner_values(g: TruthTable, block: BlockStructure, x: int) -> int:
    """The n-bit point of per-copy values of ``g`` on the flat point ``x``."""
    z = 0
    for i in range(block.blocks):
        if g.outputs[block.extract(x, i)]:
            z |= 1 << i
    return z


def gamma_z(mu: Dist, g: TruthTable, z: int, n: int) -> ProductDist:
    """Product distribution with copy i conditioned on the inner value
    ``bit i of z``."""
    mu_b = (restrict_dist(mu, g, 0), restrict_dist(mu, g, 1))
    return ProductDist(tuple(mu_b[(z >> i) & 1] for i in range(n)))


def gamma(lam: Dist, mu: Dist, g: TruthTable) -> MixtureDist:
    """Mixture of the per-z products, weighted by the outer distribution."""
    n = lam.arity
    mu_b = (restrict_dist(mu, g, 0), restrict_dist(mu, g, 1))
    terms = []
    for z in range(1 << n):
        w = lam.prob(z)
        if w == 0:
            continue
        terms.append((w, ProductDist(tuple(mu_b[(z >> i) & 1] for i in range(n)))))
    return MixtureDist(tuple(terms))


def xor_stack(g: TruthTable, t: int) -> TruthTable:
    """XOR of ``g`` over ``t`` disjoint copies of its input block."""
    if t < 1:
        raise QclabError("t must be >= 1")
    total = t * g.arity
    if total > caps()["arity"]:
        raise CapExceeded(f"stacked arity {total} exceeds cap")
    structure = BlockStructure(t, g.arity)
    outputs = []
    for x in range(1 << total):
        v = 0
        for i in range(t):
            v ^= g.outputs[structure.extract(x, i)]
        outputs.append(v)
    return TruthTable(total, tuple(outputs))


@dataclass(frozen=True)
class ComposedInstance:
    """Everything the simulator needs about one composed problem: the outer
    relation, the inner function with its hard distribution and complexity,
    the outer distribution, and the two thresholds."""

    f: Relation
    g: TruthTable
    n: int
    m: int
    mu: Dist
    lam: Dist
    epsilon: Fraction
    theta: Fraction
    inner_complexity: int
    block: BlockStructure

    @property
    def total_arity(self) -> int:
        return self.n * self.m

    def mu_z(self, b: int) -> Dist:
        return restrict_dist(self.mu, self.g, b)

    def composed_relation(self) -> Relation:
        return compose_relation(self.f, self.g, self.n)

    def gamma_z(self, z: int) -> ProductDist:
        return gamma_z(self.mu, self.g, z, self.n)

    def gamma(self) -> MixtureDist:
        return gamma(self.lam, self.mu, self.g)


def default_epsilon(n: int) -> Fraction:
    if n < 2:
        raise QclabError("no default epsilon for a 1-bit outer relation; pass --eps")
    return Fraction(1, 2) - Fraction(1, n**4)


def default_theta(n: int) -> Fraction:
    return Fraction(2, n**2)


def build_instance(
    f: Relation,
    g: TruthTable,
    mu: Dist,
    lam: Dist,
    epsilon: Fraction | None = None,
    theta: Fraction | None = None,
) -> ComposedInstance:
    """Assemble and validate a composed instance.

    Fails early when the inner distribution is degenerate for ``g`` or when
    its distributional complexity at ``epsilon`` is zero; both would make the
    simulation thresholds meaningless.
    """
    n = f.arity
    m = g.arity
    if mu.arity != m:
        raise QclabError("inner distribution arity mismatch")
    if lam.arity != n:
        raise QclabError("outer distribution arity mismatch")
    epsilon = default_epsilon(n) if epsilon is None else Fraction(epsilon)
    theta = default_theta(n) if theta is None else Fraction(theta)
    if not 0 <= epsilon < Fraction(1, 2):
        raise QclabError("epsilon must lie in [0, 1/2)")
    for b in (0, 1):
        if all(mu.probs[x] == 0 for x in g.preimage(b)):
            raise ZeroConditioningMass(
                f"inner distribution puts no mass on g^-1({b})"
            )
    c = dist_complexity(g, mu, epsilon)
    if c == 0:
        raise InnerComplexityZero(
            "a zero-query answer already meets the inner error bound"
        )
    return ComposedInstance(
        f=f, g=g, n=n, m=m, mu=mu, lam=lam,
        epsilon=epsilon, theta=theta,
        inner_complexity=c, block=BlockStructure(n, m),
    )
