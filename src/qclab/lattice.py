"""The subcube lattice of {0,1}^m behind the exact tree DP, the sweeps and
the simulator's exact laws: one indexing, one mass computation, one
optimal-tree DP.

Subcube indices carry one trit per variable: 0 leaves variable j free, 1
fixes it to 0, 2 fixes it to 1.  Trit j has weight 3^j, as variable j is
bit j of a point, so an array of shape ``(..., 3^m)`` reshapes to
``(..., 3, ..., 3)`` with variable j on axis ``-1 - j``; index 0 is the full
cube.  Every function is vectorized over leading axes.

The masses (:func:`masses`) and the optimal-tree DP (:func:`layers`) each
have two kernels that give the same integers, and each picks one by the
size of its input.  ``masses`` takes one product with a cached 0/1 table
of which points each subcube holds for small int64 inputs, and one pass
per variable otherwise.  ``layers`` takes a gather of each layer through
a cached child table, a few numpy calls whatever m is, for a single
lattice at 3 <= m <= 6, and slices the reshaped lattice once per variable
per layer otherwise.  The cached tables are built on first use.

The automorphisms of the cube (permute the variables, flip bits) act on
points and on subcube indices alike, and masses follow them: the image
subcube has under the image weights the mass the subcube had before.  The
sweeps rely on this to sweep one grid point per orbit.

Values are integer numerators over one common denominator, and no mass or
tree value exceeds it: they are numpy int64 while it is below
``INT64_LIMIT`` and Python ints in object arrays above it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import prod

import numpy as np

from .core import ArityMismatch, Dist, TruthTable

INT64_LIMIT = 1 << 62
# masses takes the product kernel while rows * 2^m * 3^m is at most this:
# at or below the int64 crossover measured at m = 2 to 6 (see masses); at
# m = 1 the passes win from some 2,500 rows, which no caller reaches
PRODUCT_CELLS = 1 << 15


def int_weights(mu: Dist) -> tuple[np.ndarray, int]:
    """Point weights of ``mu`` as integer numerators over their least common
    denominator, as int64 when that denominator is below ``INT64_LIMIT``."""
    nums, den = mu.numerators()
    return weight_array(nums, den), den


def weight_array(nums: list[int], den: int) -> np.ndarray:
    """Integer point weights over ``den`` as an array: int64 when ``den`` is
    below ``INT64_LIMIT``, Python ints otherwise."""
    return np.array(nums, dtype=np.int64 if den < INT64_LIMIT else object)


def masses(weights: np.ndarray, m: int) -> np.ndarray:
    """Subcube masses, shape ``(..., 3^m)``, from point weights of shape
    ``(..., 2^m)``.

    Two kernels give the same integers, for int64 and object arrays alike.
    The product kernel is one matrix product with the cached 0/1 table of
    which points each subcube holds: a single numpy call, but
    ``rows * 2^m * 3^m`` multiply-adds (rows over the leading axes).  The
    pass kernel makes a few numpy calls per variable and moves about
    ``rows * 3^m`` values in each.  ``masses`` takes the product for int64
    inputs of at most ``PRODUCT_CELLS`` multiply-adds, the measured
    crossover, and the passes otherwise.  A product of Python ints costs
    some fifty times an int64 one, so object inputs always take the passes.
    """
    rows = prod(weights.shape[:-1])
    if weights.dtype != object and rows * 6**m <= PRODUCT_CELLS:
        return _product_masses(weights, m)
    return _pass_masses(weights, m)


def _product_masses(weights: np.ndarray, m: int) -> np.ndarray:
    """:func:`masses` as one product with the :func:`_incidence` table."""
    return weights @ _incidence(m)


def _pass_masses(weights: np.ndarray, m: int) -> np.ndarray:
    """:func:`masses` by one pass per variable, the outermost (variable
    m - 1) first.

    Before the pass for variable j the array is viewed as
    ``(rows, 2, rest)``: rows run over the leading axes and the trits of
    the variables above j, the middle axis is bit j and ``rest`` spans the
    2^j points below it.  The pass writes a fresh ``(rows, 3, rest)``
    array: the two fixed halves are copied into trits 1 and 2, then added
    into trit 0, the free sum.  Going outermost first keeps each copied
    half a contiguous block of ``rest`` values.
    """
    lead = weights.shape[:-1]
    rows = prod(lead)
    a = weights
    for j in reversed(range(m)):
        a = a.reshape(rows, 2, 1 << j)
        out = np.empty((rows, 3, 1 << j), dtype=a.dtype)
        out[:, 1:] = a
        np.add(a[:, 0], a[:, 1], out=out[:, 0])
        a = out
        rows *= 3
    return a.reshape(lead + (3**m,))


@lru_cache(maxsize=None)
def _incidence(m: int) -> np.ndarray:
    """Read-only int64 table of shape ``(2^m, 3^m)``: entry ``[x, c]`` is 1
    when subcube ``c`` holds point ``x`` and 0 otherwise.  Row x is the
    masses of the unit weight on x."""
    table = _pass_masses(np.eye(1 << m, dtype=np.int64), m)
    table.flags.writeable = False
    return table


def g_masses(g: TruthTable, mu: Dist) -> tuple[list, list, int]:
    """Mass of g=0 and of g=1 on every subcube, as lists of integer
    numerators over the common denominator of ``mu``."""
    if g.arity != mu.arity:
        raise ArityMismatch(f"arity mismatch: {g.arity} != {mu.arity}")
    weights, den = int_weights(mu)
    ones = np.array(g.outputs, dtype=bool)
    m0, m1 = masses(np.stack((weights * ~ones, weights * ones)), g.arity).tolist()
    return m0, m1, den


def _fixing(j: int, t: int) -> tuple:
    """Index selecting trit ``t`` of variable ``j`` on a reshaped lattice."""
    return (Ellipsis, t) + (slice(None),) * j


def layers(answer: np.ndarray, m: int):
    """Yield the optimal depth-r tree values V_0, ..., V_m on every subcube.

    ``answer`` is the best a single leaf achieves on each subcube, and
    V_r = max(answer, max_j V_{r-1}[j<-0] + V_{r-1}[j<-1]) over the free
    variables j.  Beyond depth m nothing is left to query, so V_m is final.

    Two kernels compute the same integers.  The slicing kernel makes a few
    numpy calls per variable per layer on strided views; the gathered
    kernel makes a few calls per layer whatever m is, but reads m + 1 pairs
    of cells for every cell through a cached table.  The gather pays off on
    small inputs, the more so the larger m: ``layers`` takes it for a
    single lattice (no leading axes, as ``_TreeDP`` gives) at 3 <= m <= 6,
    where it measured faster, and slices at m <= 2, from m = 7, and under
    leading axes, which the sweeps give by the hundred rows.
    """
    if answer.ndim == 1 and 3 <= m <= 6:
        return _gathered_layers(answer, m)
    return _sliced_layers(answer, m)


def _sliced_layers(answer: np.ndarray, m: int):
    """:func:`layers` by slicing: for each free variable j, the view of the
    cells that leave j free takes the maximum with the sum of the two views
    that fix it."""
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


@lru_cache(maxsize=None)
def _children(m: int) -> np.ndarray:
    """Gather table of shape ``(2, m + 1, 3^m)`` into the buffer
    ``(V, answer, 0)`` of length 2 * 3^m + 1.

    For variable j < m, row j pairs each cell with its two subcubes that fix
    j to 0 and to 1, or, where j is already fixed, twice with the zero pad.
    Row m pairs each cell's own answer with the pad.  Values are
    non-negative, so a pad sum never beats the answer row, and the maximum
    over the m + 1 rows of the pair sums is the next layer.
    """
    n = 3**m
    cells = np.arange(n)
    step = 3 ** np.arange(m)[:, None]
    free = cells // step % 3 == 0
    pad = np.full(n, 2 * n)
    lo = np.vstack((np.where(free, cells + step, pad), n + cells))
    hi = np.vstack((np.where(free, cells + 2 * step, pad), pad))
    table = np.stack((lo, hi))
    table.flags.writeable = False
    return table


def _gathered_layers(answer: np.ndarray, m: int):
    """:func:`layers` by gathering, on a single lattice: each layer is two
    gathers through the :func:`_children` table, one sum and one maximum
    over its rows."""
    lo, hi = _children(m)
    n = 3**m
    buf = np.empty(2 * n + 1, dtype=answer.dtype)
    buf[n:2 * n] = answer
    buf[2 * n] = 0
    value = answer
    yield value
    for _ in range(m):
        buf[:n] = value
        pairs = buf[lo]
        pairs += buf[hi]
        value = pairs.max(axis=0)
        yield value


@lru_cache(maxsize=None)
def subsets(m: int) -> tuple[tuple[int, ...], ...]:
    """Entry ``mask`` lists every point whose set bits lie within
    ``mask``, for each of the 2^m masks; 3^m points in all.  A subcube's
    points are its fixed bits joined with each entry of its free mask."""
    table = [(0,)]
    for j in range(m):
        bit = 1 << j
        table += [t + tuple(s | bit for s in t) for t in table]
    return tuple(table)


@lru_cache(maxsize=None)
def automorphisms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^m m! automorphisms of the cube {0,1}^m: every permutation of
    the variables, each with every flip mask, the identity first.

    Returns ``(points, cubes)`` of shapes ``(2^m m!, 2^m)`` and
    ``(2^m m!, 3^m)``: row s of ``points`` maps each point x to its image,
    which has bit ``perm[j]`` equal to bit j of x flipped where the mask
    flips variable j, and row s of ``cubes`` maps each subcube index to the
    index of its image.  Flipping variable j swaps trits 1 and 2 of it, and
    permuting the variables moves trit j to position ``perm[j]``.  Both
    tables are cached and read-only.
    """
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    trits = np.arange(3**m)[:, None] // 3 ** np.arange(m) % 3
    points, cubes = [], []
    for perm in permutations(range(m)):
        to_bit = 1 << np.array(perm, dtype=np.int64)
        to_trit = 3 ** np.array(perm, dtype=np.int64)
        for mask in range(1 << m):
            flip = (mask >> np.arange(m)) & 1
            points.append((bits ^ flip) @ to_bit)
            cubes.append(np.where((trits > 0) & (flip == 1), 3 - trits, trits) @ to_trit)
    tables = np.array(points), np.array(cubes)
    for table in tables:
        table.flags.writeable = False
    return tables


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

