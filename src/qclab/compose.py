"""Composition of an outer relation with an inner Boolean function: the
composed relation, composed instances (the outer and inner distributions
and the two thresholds the simulator uses), and the XOR stacking
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import lattice
from .core import (
    ARITY_CAP,
    FLAT_CAP,
    CapExceeded,
    Dist,
    InnerComplexityZero,
    QclabError,
    Relation,
    TruthTable,
    ZeroConditioningMass,
)
from .complexity import dist_complexity
from .dtree import BlockStructure


def compose_relation(f: Relation, g: TruthTable, n: int) -> Relation:
    """The relation on ``n * g.arity`` bits accepting ``(x, r)`` exactly when
    ``f`` accepts ``r`` on the bit-vector of inner values of the copies."""
    if f.arity != n:
        raise QclabError(f"outer arity {f.arity} != n = {n}")
    total = n * g.arity
    if total > FLAT_CAP:
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


def xor_stack(g: TruthTable, t: int) -> TruthTable:
    """XOR of ``g`` over ``t`` disjoint copies of its input block."""
    if t < 1:
        raise QclabError("t must be >= 1")
    total = t * g.arity
    if total > ARITY_CAP:
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

    @cached_property
    def g_masses(self) -> tuple[list, list, int]:
        """``lattice.g_masses(g, mu)``, built on first use."""
        return lattice.g_masses(self.g, self.mu)


def default_epsilon(n: int) -> Fraction:
    if n < 2:
        raise QclabError("no default epsilon for a 1-bit outer relation; pass --eps")
    return Fraction(1, 2) - Fraction(1, n**4)


def default_theta(n: int) -> Fraction:
    # the paper's 2/n^2, capped at 1/2, the largest theta Simulation.simileaf accepts
    return min(Fraction(2, n**2), Fraction(1, 2))


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
