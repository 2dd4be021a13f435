"""Composition of an outer relation with an inner Boolean function: the
composed relation, composed instances (the outer and inner distributions
and the two thresholds the simulator uses), and the XOR stacking
construction.  Composed inputs are laid out in contiguous blocks: flat
variable v is variable ``v % m`` of copy ``v // m``, so copy i of a flat
point x is ``(x >> i*m) & (2^m - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

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
from .complexity import dist_complexity, rand_complexity


def compose_relation(f: Relation, g: TruthTable, n: int) -> Relation:
    """The relation on ``n * g.arity`` bits accepting ``(x, r)`` exactly when
    ``f`` accepts ``r`` on the bit-vector of inner values of the copies."""
    if f.arity != n:
        raise QclabError(f"outer arity {f.arity} != n = {n}")
    total = n * g.arity
    if total > FLAT_CAP:
        raise CapExceeded(f"composed arity {total} exceeds the flat cap")
    m, mask = g.arity, (1 << g.arity) - 1
    accepted = []
    for x in range(1 << total):
        z = 0
        for i in range(n):
            if g.outputs[(x >> i * m) & mask]:
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
    m, mask = g.arity, (1 << g.arity) - 1
    outputs = []
    for x in range(1 << total):
        v = 0
        for i in range(t):
            v ^= g.outputs[(x >> i * m) & mask]
        outputs.append(v)
    return TruthTable(total, tuple(outputs))


@dataclass(frozen=True)
class ComposedInstance:
    """Everything the simulator needs about one composed problem: the outer
    relation, the inner function with its hard distribution and complexity,
    the outer distribution, and the two thresholds."""

    f: Relation
    g: TruthTable
    mu: Dist
    lam: Dist
    epsilon: Fraction
    theta: Fraction
    inner_complexity: int

    @property
    def n(self) -> int:
        return self.f.arity

    @property
    def m(self) -> int:
        return self.g.arity

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


def default_theta(n: int, epsilon: Fraction | None = None) -> Fraction:
    """2*sqrt(1/2 - epsilon) when 7/16 <= epsilon < 1/2 and that root is
    rational: the one theta that meets both lilsnip's theta^2 = 4(1/2 -
    epsilon) and simileaf's theta <= 1/2.  Otherwise the paper's 2/n^2,
    capped at 1/2, the largest theta Simulation.simileaf accepts.  At the
    default epsilon the two agree."""
    if epsilon is not None and Fraction(7, 16) <= epsilon < Fraction(1, 2):
        gap = Fraction(1, 2) - epsilon
        root = Fraction(isqrt(gap.numerator), isqrt(gap.denominator))
        if root**2 == gap:
            return 2 * root
    return min(Fraction(2, n**2), Fraction(1, 2))


def build_instance(
    f: Relation,
    g: TruthTable,
    mu: Dist | None = None,
    lam: Dist | None = None,
    epsilon: Fraction | None = None,
    theta: Fraction | None = None,
) -> ComposedInstance:
    """Assemble and validate a composed instance, supplying the paper's
    defaults for what is not given:

    * ``epsilon``: ``default_epsilon(n)``, that is 1/2 - 1/n^4;
    * ``lam``: uniform on the n outer bits;
    * ``mu``: the hard distribution of g's game at ``epsilon``
      (``rand_complexity(g, epsilon).hard_dist``), played only after the
      checks that do not need it; the inner complexity is then the game's
      ``certified_depth``, with no DP of its own;
    * ``theta``: ``default_theta(n, epsilon)``, which follows epsilon.

    Fails early when the inner distribution is degenerate for ``g`` or when
    its distributional complexity at ``epsilon`` is zero; both would make the
    simulation thresholds meaningless.
    """
    n = f.arity
    if mu is not None and mu.arity != g.arity:
        raise QclabError("inner distribution arity mismatch")
    if lam is not None and lam.arity != n:
        raise QclabError("outer distribution arity mismatch")
    epsilon = default_epsilon(n) if epsilon is None else Fraction(epsilon)
    if not 0 <= epsilon < Fraction(1, 2):
        raise QclabError("epsilon must lie in [0, 1/2)")
    theta = default_theta(n, epsilon) if theta is None else Fraction(theta)
    if theta < 0:
        raise QclabError("theta must be at least 0")
    game = None
    if mu is None:
        game = rand_complexity(g, epsilon)
        mu = game.hard_dist
    for b in (0, 1):
        if all(mu.probs[x] == 0 for x in g.preimage(b)):
            raise ZeroConditioningMass(
                f"inner distribution puts no mass on g^-1({b})"
            )
    # the game's certificate is the exact D_eps of its hard distribution
    c = dist_complexity(g, mu, epsilon) if game is None else game.certified_depth
    if c == 0:
        raise InnerComplexityZero(
            "a zero-query answer already meets the inner error bound"
        )
    return ComposedInstance(
        f=f, g=g, mu=mu, lam=Dist.uniform(n) if lam is None else lam,
        epsilon=epsilon, theta=theta, inner_complexity=c,
    )
