"""The subcube lattice of {0,1}^m behind the exact tree DP, the sweeps and
the bias verifiers: one indexing, one mass computation, one optimal-tree DP.

Subcube indices carry one trit per variable: 0 leaves variable j free, 1
fixes it to 0, 2 fixes it to 1.  Trit j has weight 3^j, as variable j is
bit j of a point, so an array of shape ``(..., 3^m)`` reshapes to
``(..., 3, ..., 3)`` with variable j on axis ``-1 - j``; index 0 is the full
cube.  Every function is vectorized over leading axes.

Values are integer numerators over one common denominator, and no mass or
tree value exceeds it: they are numpy int64 while it is below
``INT64_LIMIT`` and Python ints in object arrays above it.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .core import Dist

INT64_LIMIT = 1 << 62


def int_weights(mu: Dist) -> tuple[np.ndarray, int]:
    """Point weights of ``mu`` as integer numerators over their least common
    denominator, as int64 when that denominator is below ``INT64_LIMIT``."""
    den = lcm(*(p.denominator for p in mu.probs))
    nums = [p.numerator * (den // p.denominator) for p in mu.probs]
    return np.array(nums, dtype=np.int64 if den < INT64_LIMIT else object), den


def masses(weights: np.ndarray, m: int) -> np.ndarray:
    """Subcube masses, shape ``(..., 3^m)``, from point weights of shape
    ``(..., 2^m)``: one pass per variable puts the free sum in front of the
    two fixed halves."""
    lead = weights.shape[:-1]
    a = weights.reshape(lead + (2,) * m)
    for axis in range(-m, 0):
        a = np.concatenate((a.sum(axis=axis, keepdims=True), a), axis=axis)
    return a.reshape(lead + (3**m,))


def _fixing(j: int, t: int) -> tuple:
    """Index selecting trit ``t`` of variable ``j`` on a reshaped lattice."""
    return (Ellipsis, t) + (slice(None),) * j


def layers(answer: np.ndarray, m: int):
    """Yield the optimal depth-r tree values V_0, ..., V_m on every subcube.

    ``answer`` is the best a single leaf achieves on each subcube, and
    V_r = max(answer, max_j V_{r-1}[j<-0] + V_{r-1}[j<-1]) over the free
    variables j.  Beyond depth m nothing is left to query, so V_m is final.
    """
    shape = answer.shape[:-1] + (3,) * m
    value = answer
    yield value
    for _ in range(m):
        prev = value.reshape(shape)
        nxt = answer.reshape(shape).copy()
        for j in range(m):
            free = nxt[_fixing(j, 0)]
            np.maximum(free, prev[_fixing(j, 1)] + prev[_fixing(j, 2)], out=free)
        value = nxt.reshape(answer.shape)
        yield value


def index_of(fixed) -> int:
    """Flat index of the subcube that fixes each ``(var, bit)`` pair."""
    return sum((b + 1) * 3**var for var, b in fixed)


def assignment(index: int, m: int) -> tuple[tuple[int, int], ...]:
    """The ``(var, bit)`` pairs fixed by subcube ``index``, by variable."""
    fixed = []
    for var in range(m):
        index, t = divmod(index, 3)
        if t:
            fixed.append((var, t - 1))
    return tuple(fixed)

