"""The subcube lattice of {0,1}^m behind the exact tree DP, the sweeps and
the simulator's exact laws: one indexing, one mass computation, and the
one optimal-tree recurrence, on cached level tables.

Subcube indices carry one trit per variable: 0 leaves variable j free, 1
fixes it to 0, 2 fixes it to 1.  Trit j has weight 3^j, as variable j is
bit j of a point, so an array of shape ``(..., 3^m)`` reshapes to
``(..., 3, ..., 3)`` with variable j on axis ``-1 - j``; index 0 is the full
cube.

:func:`masses` gives every subcube's mass under integer point weights, by
one product with a cached 0/1 table of which points each subcube holds for
small int64 inputs, and by one pass per variable otherwise, variable 0
first, so that every pass copies and adds contiguous blocks of the trits
already made.  Both give the same integers.  The product runs in float64,
which is exact while the full-cube mass is below ``FLOAT64_LIMIT``.

A depth-d tree at the full cube reads the values of depth d - k only on the
cells that fix k variables, level k.  :func:`level` gives each level's cells
and their children along each free variable as cached intp gather tables,
built by concatenation when a solve first reaches the level, and
:func:`solve` runs the optimal-tree recurrence on them, for the exact DP
and the rbias sweep alike.

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
# float64 holds every integer below 2^53 exactly
FLOAT64_LIMIT = 1 << 53
# masses takes the product kernel while rows * 2^m * 3^m is at most this.
# Against the innermost-first passes, the int64 crossover lies between 0.75
# and 1 times it at m = 3 to 5 (at this bound the passes lead by about 10%),
# and past 8 times it at m = 2; at m = 6 the passes win from one row, and at
# m = 1 from some 2,700 rows, which no caller reaches.  Those are the int64
# product's; the float64 product that masses runs is 1.5 to 3.5 times faster
# than the passes at this bound for m = 1 to 5, so its crossover lies higher
PRODUCT_CELLS = 1 << 15
# cells per level gather table: it bounds a solve's temporaries, which over
# whole levels left 14 MB more resident at m = 12, eps 0
BLOCK = 1 << 14


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
    """Subcube masses, shape ``(..., 3^m)``, from nonnegative point weights
    of shape ``(..., 2^m)``.

    Two kernels give the same integers, for int64 and object arrays alike.
    The product kernel is one matrix product with the cached 0/1 table of
    which points each subcube holds: a single numpy call, but
    ``rows * 2^m * 3^m`` multiply-adds (rows over the leading axes).  The
    pass kernel makes a few numpy calls per variable and moves about
    ``rows * 3^m`` values in each.  ``masses`` takes the product for int64
    inputs of at most ``PRODUCT_CELLS`` multiply-adds, the measured
    crossover, and the passes otherwise.  That product runs in float64, and
    in int64 only when some row's total reaches ``FLOAT64_LIMIT``, where
    float64 could round.  A product of Python ints costs some fifty times
    an int64 one, so object inputs always take the passes.
    """
    rows = prod(weights.shape[:-1])
    if weights.dtype != object and rows * 6**m <= PRODUCT_CELLS:
        return _product_masses(weights, m)
    return _pass_masses(weights, m)


def _product_masses(weights: np.ndarray, m: int) -> np.ndarray:
    """:func:`masses` as one product with the :func:`_incidence` table.

    An int64 product runs in float64, which numpy hands to BLAS; its
    integer product runs in a plain loop, some three times slower at
    m = 5.  The weights are nonnegative, so every partial sum is
    at most its row's full-cube mass, column 0, and the product is exact
    when every column 0 reads below ``FLOAT64_LIMIT``.  Rounding is
    monotone, so a total of at least ``FLOAT64_LIMIT`` reads at least that
    in float64 too; those inputs, and Python ints, take the exact integer
    product."""
    if weights.dtype != object:
        out = weights.astype(np.float64) @ _incidence(m, np.float64)
        if out[..., 0].max(initial=0) < FLOAT64_LIMIT:
            return out.astype(np.int64)
    return weights @ _incidence(m, np.int64)


def _pass_masses(weights: np.ndarray, m: int) -> np.ndarray:
    """:func:`masses` by one pass per variable, the innermost (variable 0)
    first.

    Before the pass for variable j the array is viewed as
    ``(rows, 2^(m-j-1), 2, 3^j)``: rows run over the leading axes, the
    second axis over the bits of the variables above j, the third is bit
    j, and the last spans the trits of the variables below j, which the
    earlier passes made.  The pass writes a fresh ``(rows, 2^(m-j-1), 3,
    3^j)`` array: the two fixed halves are copied into trits 1 and 2, then
    added into trit 0, the free sum.  Going innermost first, every copy and
    add moves contiguous blocks of 3^j values, so the last passes, which
    move the most values, move the longest blocks.
    """
    lead = weights.shape[:-1]
    rows = prod(lead)
    a = weights
    for j in range(m):
        a = a.reshape(rows, 1 << (m - j - 1), 2, 3**j)
        out = np.empty((rows, 1 << (m - j - 1), 3, 3**j), dtype=a.dtype)
        out[:, :, 1:] = a
        np.add(a[:, :, 0], a[:, :, 1], out=out[:, :, 0])
        a = out
    return a.reshape(lead + (3**m,))


@lru_cache(maxsize=None)
def _incidence(m: int, dtype: type) -> np.ndarray:
    """Read-only table of shape ``(2^m, 3^m)``: entry ``[x, c]`` is 1 when
    subcube ``c`` holds point ``x`` and 0 otherwise.  Row x is the masses
    of the unit weight on x."""
    table = _pass_masses(np.eye(1 << m, dtype=np.int64), m).astype(dtype, copy=False)
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


@lru_cache(maxsize=None)
def level(m: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Gather tables of level k, the cells that fix k variables, in
    increasing index and in blocks of at most ``BLOCK`` cells, each block
    as ``(cells, head, tail)``.  ``head`` has ``m - k + 1`` rows: the
    cells, then for the i-th free variable of each cell, in increasing
    variable order, row 1 + i holds the child of level k + 1 that fixes it
    to 0; row i of ``tail`` holds the child that fixes it to 1.  The three
    are read-only views of one table."""
    # each cell's count of fixed variables and mask of free ones, by
    # concatenation: the cells that leave variable j free, fix it to 0, to 1
    fixed, free = np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.uint16)
    for j in range(m):
        fixed = np.concatenate((fixed, fixed + 1, fixed + 1))
        free = np.concatenate((free | (1 << j), free, free))
    cells = np.flatnonzero(fixed == k)
    step = np.zeros(1 << m, dtype=np.intp)  # 2^j -> 3^j
    step[1 << np.arange(m)] = 3 ** np.arange(m)
    blocks = []
    for block in np.split(cells, range(BLOCK, len(cells), BLOCK)):
        mask = free[block].astype(np.intp)
        table = np.empty((2 * (m - k) + 1, len(block)), dtype=np.intp)
        table[0] = block
        lo, hi = table[1:m - k + 1], table[m - k + 1:]
        for row in hi:  # the steps, peeled off the masks lowest first
            low = mask & -mask
            np.take(step, low, out=row)
            mask ^= low
        np.add(block, hi, out=lo)
        hi += lo
        table.flags.writeable = False
        blocks.append((table[0], table[:m - k + 1], table[m - k + 1:]))
    return tuple(blocks)


def solve(answers: np.ndarray, values: np.ndarray, m: int, depth: int) -> None:
    """Solve ``depth`` (at most m) into ``values``: each cell of level
    k < depth gets V_{depth-k}, its best success over trees of that depth,
    and no other cell is written.  ``answers`` is V_0, each cell's best
    single answer, and V_r = max(V_0, max_j V_{r-1}[j<-0] + V_{r-1}[j<-1])
    over the free variables j.  Both arrays hold the 3^m cells on their
    first axis, with any trailing axes.  Each level from depth - 1 up to
    the full cube reads its children off the answers at level ``depth``
    and off the level just written otherwise, so no solve reads an earlier
    one's values and every depth may share one buffer."""
    children = answers
    for k in range(depth - 1, -1, -1):
        for cells, head, tail in level(m, k):
            pairs = children[head]  # each cell, then its 0-children
            if children is values:  # a cell's own entry is its answer
                pairs[0] = answers[cells]
            pairs[1:] += children[tail]
            values[cells] = pairs.max(axis=0)
        children = values


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

