"""Exact building blocks: hypercube points, Boolean functions, relations,
distributions and subcubes, plus the point-sum subcube mass
``subcube_prob``.  The commands compute subcube masses and biases on the
subcube lattice of :mod:`qclab.lattice`; ``subcube_prob`` is the reference
the tests check it against (the tests keep the point-sum bias and
conditioning on ``g`` themselves), and the benchmark harness traces it.

Conventions used throughout the package:

* A point of ``{0,1}^k`` is an integer in ``[0, 2^k)``.  Variable ``j``
  (0-based) is bit ``j`` of the index, so index 0 is the all-zeros input.
  File formats expose 1-based variable indices; the leftmost character of a
  bitstring is variable 1 (bit 0).
* All probabilities are :class:`fractions.Fraction`; nothing in this module
  touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping

ZERO = Fraction(0)
ONE = Fraction(1)

ARITY_CAP = 16  # largest truth table / distribution arity
DP_CAP = 12     # largest arity accepted by the exact DP
FLAT_CAP = 12   # largest arity for flat expansion of structured dists


class QclabError(Exception):
    """Base class for all package errors."""


class ArityMismatch(QclabError):
    pass


class CapExceeded(QclabError):
    pass


class ZeroConditioningMass(QclabError):
    """A conditioning event has probability zero."""


class HypothesisViolated(QclabError):
    """A verifier was invoked outside its hypothesis."""


class InnerComplexityZero(QclabError):
    pass


class ParseError(QclabError):
    pass


def index_of(bitseq: Iterable[int]) -> int:
    x = 0
    for j, b in enumerate(bitseq):
        if b:
            x |= 1 << j
    return x


@dataclass(frozen=True)
class TruthTable:
    """A total Boolean function on ``arity`` bits, stored as its value table."""

    arity: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise QclabError("arity must be >= 1")
        if self.arity > ARITY_CAP:
            raise CapExceeded(f"arity {self.arity} exceeds cap")
        if len(self.outputs) != 1 << self.arity:
            raise QclabError("outputs length must be 2^arity")
        if any(b not in (0, 1) for b in self.outputs):
            raise QclabError("outputs must be bits")

    def value(self, x: int) -> int:
        if not 0 <= x < (1 << self.arity):
            raise ArityMismatch(f"point {x} out of range for arity {self.arity}")
        return self.outputs[x]

    def preimage(self, b: int) -> list[int]:
        return [x for x, v in enumerate(self.outputs) if v == b]

    def complement(self) -> "TruthTable":
        return TruthTable(self.arity, tuple(1 - v for v in self.outputs))


# A few standard functions used all over the test fixtures and CLI demos.

def identity1() -> TruthTable:
    return TruthTable(1, (0, 1))


def and_fn(k: int) -> TruthTable:
    return TruthTable(k, tuple(1 if x == (1 << k) - 1 else 0 for x in range(1 << k)))


def or_fn(k: int) -> TruthTable:
    return TruthTable(k, tuple(0 if x == 0 else 1 for x in range(1 << k)))


def xor_fn(k: int) -> TruthTable:
    return TruthTable(k, tuple(bin(x).count("1") & 1 for x in range(1 << k)))


def maj3() -> TruthTable:
    return TruthTable(3, tuple(1 if bin(x).count("1") >= 2 else 0 for x in range(8)))


def constant_fn(k: int, b: int) -> TruthTable:
    return TruthTable(k, (b,) * (1 << k))


@dataclass(frozen=True)
class Relation:
    """A total relation on ``{0,1}^arity x {0..alphabet_size-1}``.

    ``accepted[x]`` is the set of outputs considered correct on input ``x``.
    Every set must be nonempty; "don't care" inputs accept all outputs.
    """

    arity: int
    alphabet_size: int
    accepted: tuple[frozenset, ...]

    def __post_init__(self):
        if self.arity < 1 or self.alphabet_size < 1:
            raise QclabError("arity and alphabet size must be >= 1")
        if len(self.accepted) != 1 << self.arity:
            raise QclabError("accepted length must be 2^arity")
        # each distinct set is checked once; the scan by input only names
        # the first bad one
        rng = range(self.alphabet_size)
        bad = {s for s in set(self.accepted) if not s or any(r not in rng for r in s)}
        for x, s in enumerate(self.accepted):
            if s in bad:
                raise QclabError(f"accepted set empty at input {x}" if not s
                                 else f"label out of range at input {x}")

    @classmethod
    def from_function(cls, g: TruthTable) -> "Relation":
        return cls(g.arity, 2, tuple(frozenset((v,)) for v in g.outputs))

    def accepts(self, x: int, r: int) -> bool:
        return r in self.accepted[x]


@dataclass(frozen=True)
class Subcube:
    """Inputs consistent with a partial assignment; ``fixed`` maps variable
    index to the assigned bit.  Codimension = number of fixed variables."""

    arity: int
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for var, b in self.fixed:
            if not 0 <= var < self.arity:
                raise QclabError(f"variable {var} out of range")
            if b not in (0, 1):
                raise QclabError("assignment must be a bit")
            if var in seen:
                raise QclabError(f"variable {var} fixed twice")
            seen.add(var)
        if self.fixed != tuple(sorted(self.fixed)):
            object.__setattr__(self, "fixed", tuple(sorted(self.fixed)))

    @classmethod
    def full(cls, arity: int) -> "Subcube":
        return cls(arity, ())

    @classmethod
    def from_mapping(cls, arity: int, fixed: Mapping[int, int]) -> "Subcube":
        return cls(arity, tuple(sorted(fixed.items())))

    @property
    def codim(self) -> int:
        return len(self.fixed)

    def contains(self, x: int) -> bool:
        return all((x >> var) & 1 == b for var, b in self.fixed)

    def points(self) -> Iterator[int]:
        fixed_vars = {var for var, _ in self.fixed}
        free = [j for j in range(self.arity) if j not in fixed_vars]
        base = 0
        for var, b in self.fixed:
            base |= b << var
        for s in range(1 << len(free)):
            x = base
            for pos, var in enumerate(free):
                x |= ((s >> pos) & 1) << var
            yield x


@dataclass(frozen=True)
class Dist:
    """An exact probability distribution on ``{0,1}^arity``.

    The probabilities' integer numerators over their least common
    denominator are computed once, when the object is made, and kept."""

    arity: int
    probs: tuple[Fraction, ...]
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arity > ARITY_CAP:
            raise CapExceeded(f"arity {self.arity} exceeds cap")
        if len(self.probs) != 1 << self.arity:
            raise QclabError("probs length must be 2^arity")
        # checked on integers, not by Fraction comparisons and sums, once
        # per distinct object: a parsed Dist shares one Fraction among
        # equal lines, and identity hashes where a Fraction's hash takes a
        # modular inverse
        ids = tuple(map(id, self.probs))
        distinct = dict(zip(ids, self.probs)).values()
        if any(p.numerator < 0 for p in distinct):
            raise QclabError("negative probability")
        den = lcm(*{p.denominator for p in distinct})
        scaled = {id(p): p.numerator * (den // p.denominator) for p in distinct}
        nums = tuple(map(scaled.__getitem__, ids))
        if sum(nums) != den:
            raise QclabError("probabilities must sum to exactly 1")
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    def numerators(self) -> tuple[list[int], int]:
        """The probabilities as integer numerators over their least common
        denominator, and that denominator.  The list is the caller's own."""
        return list(self._nums), self._den

    @classmethod
    def uniform(cls, arity: int) -> "Dist":
        p = Fraction(1, 1 << arity)
        return cls(arity, (p,) * (1 << arity))

    @classmethod
    def point_mass(cls, arity: int, x: int) -> "Dist":
        probs = [ZERO] * (1 << arity)
        probs[x] = ONE
        return cls(arity, tuple(probs))

    @classmethod
    def from_weights(cls, weights) -> "Dist":
        weights = [Fraction(w) for w in weights]
        total = sum(weights)
        if total <= 0:
            raise QclabError("weights must have positive total")
        k = (len(weights) - 1).bit_length()
        if len(weights) != 1 << k:
            raise QclabError("weight vector length must be a power of two")
        return cls(k, tuple(w / total for w in weights))

    def prob(self, x: int) -> Fraction:
        return self.probs[x]

    def support(self) -> list[int]:
        return [x for x, p in enumerate(self.probs) if p > 0]

    def mass_where(self, predicate) -> Fraction:
        return sum((p for x, p in enumerate(self.probs) if p and predicate(x)), ZERO)


def _check_arity(a: int, b: int) -> None:
    if a != b:
        raise ArityMismatch(f"arity mismatch: {a} != {b}")


def subcube_prob(mu: Dist, cube: Subcube) -> Fraction:
    _check_arity(mu.arity, cube.arity)
    return sum((mu.probs[x] for x in cube.points()), ZERO)
