"""Independent brute-force oracles used to pin down exact expected values.

These deliberately avoid the library's own algorithms: tree optimization is
done by explicit enumeration of tree shapes, and the simulation law by
walking the tree while multiplying stepwise branch probabilities.  The game
solver's reference is its original multiplicative-weights loop in
Fractions, which the integer loop must follow iterate for iterate.  The
fullbias sweep's reference takes each function's complexity from
``dist_complexity``, which the DP tests hold to tree enumeration.  The
subcube mass kernel's reference is its original concatenating form, the
tree-value layers' reference fills each cell of each layer in Python ints
(and, past 9 bits, takes the original slicing form, held to the first),
the simileaf check's is its original form in Fraction products, and the
sweep grid's is its original recursive generator of compositions.  The
random walks' reference is the original node list of a compiled tree, a
tuple per branch and built one branch at a time, walked one draw at a
time, the tree's depth in draws per walk.  The table parsers' reference
reads a relation or a distribution file one line at a time, with no value
shared between lines.  Composed inputs are split into
their copies by ``Blocks`` here, not by the package's own block
arithmetic.  Conditioning on g and subcube bias are summed point by point
(``restrict_dist``, ``bias``), and trees are written as nested specs
(``make_tree``) here; no command uses them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from qclab.complexity import ETA, ONE_WEIGHT, GameResult, best_success, dist_complexity
from qclab.core import (
    ArityMismatch,
    Dist,
    HypothesisViolated,
    Relation,
    Subcube,
    TruthTable,
    ZeroConditioningMass,
    _check_arity,
    subcube_prob,
)
from qclab.dtree import DecisionTree, InternalNode, Leaf
from qclab.simulate import SimileafReport, Simulation
from qclab.walk import TreeWalker


def restrict_dist(mu: Dist, g: TruthTable, b: int) -> Dist:
    """Condition ``mu`` on ``g(x) = b`` and renormalize exactly."""
    _check_arity(mu.arity, g.arity)
    mass = sum((p for x, p in enumerate(mu.probs) if p and g.outputs[x] == b), Fraction(0))
    if mass == 0:
        raise ZeroConditioningMass(f"Pr[g={b}] = 0")
    probs = tuple(p / mass if g.outputs[x] == b else Fraction(0)
                  for x, p in enumerate(mu.probs))
    return Dist(mu.arity, probs)


def bias(g: TruthTable, mu: Dist, cube: Subcube) -> Fraction:
    """|Pr[g=0 | cube] - Pr[g=1 | cube]| under ``mu``."""
    _check_arity(mu.arity, g.arity)
    _check_arity(mu.arity, cube.arity)
    m0 = m1 = Fraction(0)
    for x in cube.points():
        p = mu.probs[x]
        if p:
            if g.outputs[x]:
                m1 += p
            else:
                m0 += p
    total = m0 + m1
    if total == 0:
        raise ZeroConditioningMass("subcube has zero mass")
    return abs(m0 - m1) / total


def make_tree(arity: int, root_spec) -> DecisionTree:
    """Build a tree from a nested spec: a leaf label ``int`` or a triple
    ``(var, spec0, spec1)``.  Leaf ids are assigned in depth-first order."""
    counter = [0]

    def build(spec):
        if isinstance(spec, int):
            leaf = Leaf(spec, counter[0])
            counter[0] += 1
            return leaf
        var, s0, s1 = spec
        return InternalNode(var, build(s0), build(s1))

    return DecisionTree(arity, build(root_spec))


def concat_masses(weights: np.ndarray, m: int) -> np.ndarray:
    """``lattice.masses`` by concatenation: per variable, put the sum over
    its axis in front of the two fixed halves."""
    lead = weights.shape[:-1]
    a = weights.reshape(lead + (2,) * m)
    for axis in range(-m, 0):
        a = np.concatenate((a.sum(axis=axis, keepdims=True), a), axis=axis)
    return a.reshape(lead + (3**m,))


def python_layers(answer: list[int], m: int) -> list[list[int]]:
    """V_0, ..., V_m of one lattice, cell by cell: V_r of a cell is the
    larger of its answer and its best sum of V_{r-1} over the two halves of
    a free variable."""
    layers = [list(answer)]
    for _ in range(m):
        prev = layers[-1]
        layers.append([
            max([a] + [prev[c + 3**j] + prev[c + 2 * 3**j]
                       for j in range(m) if c // 3**j % 3 == 0])
            for c, a in enumerate(answer)
        ])
    return layers


def sliced_layers(answer: np.ndarray, m: int) -> list[np.ndarray]:
    """V_0, ..., V_m of one lattice in the original slicing form, fast
    where ``python_layers`` is not (it takes seconds from m = 10, and about
    four times more per bit): for each variable j, the view of the reshaped
    lattice that leaves j free takes the maximum with the sum of the two
    views that fix it."""
    layers = [answer]
    for _ in range(m):
        prev = layers[-1].reshape((3,) * m)
        nxt = answer.reshape((3,) * m).copy()
        for j in range(m):  # variable j is axis m - 1 - j
            lead = (slice(None),) * (m - 1 - j)
            free = nxt[lead + (0, ...)]
            np.maximum(free, prev[lead + (1, ...)] + prev[lead + (2, ...)], out=free)
        layers.append(nxt.reshape(-1))
    return layers


def enumerate_shapes(arity: int, depth: int, used: frozenset = frozenset()):
    """Every read-once tree shape of bounded depth: ``None`` is a leaf,
    otherwise ``(var, shape0, shape1)``."""
    yield None
    if depth > 0:
        for var in range(arity):
            if var in used:
                continue
            for s0 in enumerate_shapes(arity, depth - 1, used | {var}):
                for s1 in enumerate_shapes(arity, depth - 1, used | {var}):
                    yield (var, s0, s1)


def _shape_success(h: Relation, mu: Dist, shape, points: tuple, memo: dict) -> Fraction:
    """The success of ``shape`` on ``points`` with each leaf's best label,
    kept in ``memo`` by (shape, points)."""
    key = (shape, points)
    if key in memo:
        return memo[key]
    if shape is None:
        best = Fraction(0)
        for r in range(h.alphabet_size):
            mass = sum((mu.probs[x] for x in points if r in h.accepted[x]), Fraction(0))
            if mass > best:
                best = mass
    else:
        var, s0, s1 = shape
        pts0 = tuple(x for x in points if not (x >> var) & 1)
        pts1 = tuple(x for x in points if (x >> var) & 1)
        best = _shape_success(h, mu, s0, pts0, memo) + _shape_success(h, mu, s1, pts1, memo)
    memo[key] = best
    return best


def brute_best_success(h, mu: Dist, depth: int) -> Fraction:
    """Maximum success of any depth-bounded tree, by enumerating every tree
    shape and giving each leaf its best label.  A sub-shape recurs under
    many shapes and siblings, so each is scored once per point set."""
    if isinstance(h, TruthTable):
        h = Relation.from_function(h)
    points = tuple(range(1 << h.arity))
    best, memo = Fraction(0), {}
    for shape in enumerate_shapes(h.arity, min(depth, h.arity)):
        value = _shape_success(h, mu, shape, points, memo)
        if value > best:
            best = value
    return best


def brute_reach_probs(tree: DecisionTree, dist: Dist) -> dict[int, Fraction]:
    """Leaf-reach probabilities by summing the distribution point by point."""
    out: dict[int, Fraction] = {}
    for leaf, path in tree.leaf_paths():
        cube = Subcube.from_mapping(tree.arity, dict(path))
        out[leaf.leaf_id] = subcube_prob(dist, cube)
    return out


@dataclass(frozen=True)
class Blocks:
    """``count`` contiguous copies of ``width`` flat variables each: flat
    variable v is variable ``v % width`` of copy ``v // width``."""

    count: int
    width: int

    def copy_of(self, var: int) -> tuple[int, int]:
        return divmod(var, self.width)

    def extract(self, x: int, copy: int) -> int:
        """Copy-local point of the flat point ``x``."""
        return (x >> copy * self.width) & ((1 << self.width) - 1)


def inner_values(g: TruthTable, block: Blocks, x: int) -> int:
    """The n-bit point of per-copy values of ``g`` on the flat point ``x``."""
    z = 0
    for i in range(block.count):
        if g.outputs[block.extract(x, i)]:
            z |= 1 << i
    return z


def split_assignments(block: Blocks, path) -> list[list[tuple[int, int]]]:
    """Split a flat assignment sequence into per-copy sequences of
    ``(within_var, bit)`` pairs, preserving order."""
    per_copy: list[list[tuple[int, int]]] = [[] for _ in range(block.count)]
    for var, b in path:
        i, j = block.copy_of(var)
        per_copy[i].append((j, b))
    return per_copy


def brute_gamma_z(inst, z: int) -> Dist:
    """The flat product distribution gamma_z: copy i drawn from ``mu``
    conditioned on g = bit i of ``z``, point by point."""
    mu_b = [restrict_dist(inst.mu, inst.g, b) for b in (0, 1)]
    block = Blocks(inst.n, inst.m)
    probs = []
    for x in range(1 << inst.total_arity):
        p = Fraction(1)
        for i in range(inst.n):
            p *= mu_b[(z >> i) & 1].probs[block.extract(x, i)]
        probs.append(p)
    return Dist(inst.total_arity, tuple(probs))


def brute_simulation_law(inst, tree: DecisionTree, z: int) -> dict[int, Fraction]:
    """Leaf law of the simulation by enumerating its branch choices one
    query at a time, multiplying stepwise conditional probabilities."""
    c = inst.inner_complexity
    mu_z = [restrict_dist(inst.mu, inst.g, (z >> i) & 1) for i in range(inst.n)]
    block = Blocks(inst.n, inst.m)
    out: dict[int, Fraction] = {}

    def cube_mass(dist: Dist, assigns: dict) -> Fraction:
        return subcube_prob(dist, Subcube.from_mapping(inst.m, assigns))

    def walk(node, assigns, counts, prob):
        if isinstance(node, Leaf):
            out[node.leaf_id] = out.get(node.leaf_id, Fraction(0)) + prob
            return
        i, j = block.copy_of(node.query_var)
        regime = inst.mu if counts[i] + 1 <= c - 1 else mu_z[i]
        denom = cube_mass(regime, assigns[i])
        for b, child in ((0, node.child0), (1, node.child1)):
            ext = dict(assigns[i])
            ext[j] = b
            step = cube_mass(regime, ext) / denom
            if step == 0:
                continue
            sub = [dict(a) for a in assigns]
            sub[i][j] = b
            sub_counts = list(counts)
            sub_counts[i] += 1
            walk(child, sub, sub_counts, prob * step)

    walk(tree.root, [dict() for _ in range(inst.n)], [0] * inst.n, Fraction(1))
    return out


def loop_q(sim, z: int) -> dict[int, Fraction]:
    """``Simulation.q`` leaf by leaf and copy by copy in Fractions, raising
    where the simulation first conditions on a subcube without mass.  Each
    copy's answers come from the tree's leaf paths, split by ``Blocks``."""
    inst = sim.inst
    c, (m0, m1, _) = inst.inner_complexity, inst.g_masses
    restricted = [inst.g_masses[(z >> i) & 1] for i in range(inst.n)]
    for i, table in enumerate(restricted):
        if table[0] == 0:
            raise ZeroConditioningMass(f"Pr[g={(z >> i) & 1}] = 0")

    def index(assigns) -> int:  # digit j in base 3: x_j free (0), 0 (1) or 1 (2)
        return sum((b + 1) * 3**j for j, b in assigns)

    out = {}
    for leaf, path in sim.tree.leaf_paths():
        prob = Fraction(1)
        for i, assigns in enumerate(split_assignments(Blocks(inst.n, inst.m), path)):
            prefix = index(assigns[:c - 1])
            prob *= Fraction(m0[prefix] + m1[prefix], m0[0] + m1[0])
            if prob and len(assigns) >= c:
                if restricted[i][prefix] == 0:
                    raise ZeroConditioningMass(
                        f"restricted distribution has no mass on a copy-{i} prefix"
                    )
                prob *= Fraction(restricted[i][index(assigns)], restricted[i][prefix])
        out[leaf.leaf_id] = prob
    return out


def snip_dict(sim) -> dict[int, tuple[int, ...]]:
    """``sim.snipped`` keyed by leaf id, one 0/1 flag per copy, as
    ``brute_snip_labels`` gives them."""
    flags = sim.snipped.astype(int).tolist()
    return {lid: tuple(row) for lid, row in zip(sim.leaf_ids, flags)}


def compiled_nodes(sim, z: int) -> list:
    """The walk of ``sim`` (a ``Simulation``) on ``z`` as a node list in
    preorder, one branch at a time: a branch is its ``(threshold, child0,
    child1)``, the ceiling of its probability of child 1 times 2^128; a
    leaf is its payload; a branch whose subcube has no mass under its
    sampling law is dead (``None``), and so, never reached, is everything
    below it."""
    restricted = [sim.inst.g_masses[(z >> i) & 1] for i in range(sim.inst.n)]
    nodes, dead = list(sim.payload), set()
    for k, copy, cube, cube1, child0, child1 in sim.branches:  # parents first
        table = sim.mass if copy < 0 else restricted[copy]
        if k in dead or table[cube] == 0:
            dead |= {k, child0, child1}
        else:
            nodes[k] = (ceil(Fraction(table[cube1], table[cube]) * 2**128), child0, child1)
    return [None if k in dead else node for k, node in enumerate(nodes)]


def node_walker(nodes: list, depth: int) -> TreeWalker:
    """The ``TreeWalker`` of a node list (see ``compiled_nodes``) of a tree
    of depth ``depth``, node by node."""
    size = len(nodes)
    child = [k >> 1 for k in range(2 * size)]
    kept = [0] * size
    for k, node in enumerate(nodes):
        if type(node) is tuple:
            t, child0, child1 = node
            child[2 * k] = child1 if t >> 128 else child0
            child[2 * k + 1] = child1
            kept[k] = t & ((1 << 128) - 1)
    words = b"".join([t.to_bytes(16, "little") for t in kept])
    lo, hi = np.frombuffer(words, "<u8").reshape(size, 2).T
    dead = np.array([node is None for node in nodes])
    return TreeWalker(np.array(child, np.intp), hi, lo, dead, depth)


def _loop_walk(nodes: list, depth: int, rng: random.Random):
    """One walk over a node list (see ``compiled_nodes``) of a tree of depth
    ``depth``: it draws ``getrandbits(128)`` ``depth`` times, and from the
    root goes to child 1 of a branch exactly when that level's draw lies
    below the branch's threshold.  A leaf, or a dead node, keeps the walk,
    and the draws after it go unread."""
    node = nodes[0]
    for _ in range(depth):
        draw = rng.getrandbits(128)
        if type(node) is tuple:
            threshold, child0, child1 = node
            node = nodes[child1 if draw < threshold else child0]
    if node is None:
        raise ZeroConditioningMass("conditioning event has zero probability during simulation")
    return node


def loop_run(sim, z: int, seed: int):
    """``Simulation.run`` one branch at a time."""
    walk = _loop_walk(compiled_nodes(sim, z), sim.tree.depth(), random.Random(seed))
    return replace(walk, z=z, rng_seed=seed)


def loop_run_stream(sim, samples: int, seed: int) -> dict[int, int]:
    """``AprimeSimulator.run_stream`` one walk at a time."""
    rng, nodes = random.Random(seed), compiled_nodes(Simulation(sim.inst, sim.tree), sim.z)
    depth, counts = sim.tree.depth(), {}
    for _ in range(samples):
        lid = _loop_walk(nodes, depth, rng).leaf_id
        counts[lid] = counts.get(lid, 0) + 1
    return counts


def brute_snip_labels(inst, tree: DecisionTree, theta: Fraction) -> dict[int, tuple[int, ...]]:
    """Snip flags from the definition: copy i of a leaf is flagged when a
    node on its path fixes fewer than c copy-i variables on a subcube of
    positive mass and bias at least ``theta``."""
    block = Blocks(inst.n, inst.m)
    out: dict[int, tuple[int, ...]] = {}
    for leaf, path in tree.leaf_paths():
        flags = [0] * inst.n
        for k in range(len(path) + 1):
            for i, assigns in enumerate(split_assignments(block, path[:k])):
                cube = Subcube.from_mapping(inst.m, dict(assigns))
                if (
                    len(assigns) < inst.inner_complexity
                    and subcube_prob(inst.mu, cube) > 0
                    and bias(inst.g, inst.mu, cube) >= theta
                ):
                    flags[i] = 1
        out[leaf.leaf_id] = tuple(flags)
    return out


def fraction_simileaf(sim, z: int) -> SimileafReport:
    """``sim.simileaf(z)`` as it was first written: p and q per leaf as
    Fractions, each bound a Fraction product with p."""
    inst = sim.inst
    theta = inst.theta
    if theta > Fraction(1, 2):
        raise HypothesisViolated("theta must be at most 1/2")
    m0, m1, den = inst.g_masses
    if Fraction(abs(m0[0] - m1[0]), den) > theta:
        raise HypothesisViolated("full-cube bias exceeds theta")
    n = inst.n
    lower = max(Fraction(0), 1 - 4 * theta) ** n
    upper = (1 + 4 * theta) ** n
    p, q, snips = sim.p(z), sim.q(z), snip_dict(sim)
    violations = []
    checked = 0
    fixed_ok = True
    for lid, pv in p.items():
        if any(snips[lid]):
            continue
        checked += 1
        qv = q[lid]
        if not lower * pv <= qv <= upper * pv:
            violations.append((lid, pv, qv))
        if not Fraction(8, 9) * pv <= qv <= Fraction(10, 9) * pv:
            fixed_ok = False
    return SimileafReport(
        theta=theta,
        lower_factor=lower,
        upper_factor=upper,
        checked_leaves=checked,
        snipped_leaves=sum(1 for f in snips.values() if any(f)),
        violations=tuple(violations),
        fixed_constants_hold=fixed_ok,
    )


def _subcube_points(m: int, fixed) -> list[int]:
    return [x for x in range(1 << m) if all((x >> var) & 1 == b for var, b in fixed)]


def _all_fixings(m: int) -> list[tuple]:
    """The fixed ``(var, bit)`` pairs of every subcube in lattice order:
    digit j of the index in base 3 leaves variable j free (0) or fixes it
    to 0 (1) or 1 (2)."""
    return [
        tuple((j, index // 3**j % 3 - 1) for j in range(m) if index // 3**j % 3)
        for index in range(3**m)
    ]


def _shape_leaves(shape, fixed=()) -> list[tuple]:
    """The fixed ``(var, bit)`` pairs of every leaf of an enumerated shape."""
    if shape is None:
        return [fixed]
    var, s0, s1 = shape
    return _shape_leaves(s0, fixed + ((var, 0),)) + _shape_leaves(s1, fixed + ((var, 1),))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def recursive_grid(points: int, max_denominator: int) -> tuple[list[tuple[int, ...]], int]:
    """``sweeps.grid_weight_vectors`` by recursion: every composition of
    each denominator q, in order, scaled to the common total, keeping the
    first copy of each weight vector."""
    total = lcm(*range(1, max_denominator + 1))
    seen = set()
    out = []
    for q in range(1, max_denominator + 1):
        scale = total // q
        for comp in _compositions(q, points):
            w = tuple(c * scale for c in comp)
            if w not in seen:
                seen.add(w)
                out.append(w)
    return out, total


def brute_sweep_unbias(grids, deltas) -> tuple[int, list]:
    """The cases and violations of ``sweep_unbias`` by summing points, over
    ``grids``: ``(m, tables, weight vectors, total)`` entries in sweep order."""
    cases, violations = 0, []
    for m, tables, mus, total in grids:
        cubes = [(fixed, _subcube_points(m, fixed)) for fixed in _all_fixings(m)]
        for w in mus:
            # the sums and biases depend only on (w, g), not on (delta, b)
            sums = []
            for g in tables:
                full = [sum(w[x] for x in range(1 << m) if g[x] == v) for v in (0, 1)]
                masses = []
                for fixed, points in cubes:
                    cube = [sum(w[x] for x in points if g[x] == v) for v in (0, 1)]
                    mass = cube[0] + cube[1]
                    if mass:
                        masses.append((fixed, cube, Fraction(abs(cube[0] - cube[1]), mass),
                                       Fraction(mass, total)))
                sums.append((full, Fraction(abs(full[0] - full[1]), total), masses))
            for delta in deltas:
                low, high = 1 - 4 * delta, 1 + 4 * delta
                for b in (0, 1):
                    for g, (full, full_bias, masses) in zip(tables, sums):
                        if full_bias > delta:
                            continue
                        for fixed, cube, cube_bias, share in masses:
                            if cube_bias > delta:
                                continue
                            cases += b == 0
                            # Pr_mu[C] = mass/total against Pr_mu_b[C] = cube[b]/full[b]
                            scaled = share * full[b]
                            if not low * cube[b] <= scaled <= high * cube[b]:
                                violations.append((m, tuple(g), w, str(delta), fixed))
    return cases, violations


def brute_sweep_rbias(grids, eps_list, tree_depth: int, leaf_sets=None) -> tuple[int, list]:
    """The cases and violations of ``sweep_rbias`` by enumerating tree shapes
    and summing points, over ``grids`` as in :func:`brute_sweep_unbias`.
    ``leaf_sets`` maps an arity m to extra leaf sets that need not be trees,
    each a list of the fixed ``(var, bit)`` pairs of its leaves."""
    cases, violations = 0, []
    for m, tables, mus, total in grids:
        shapes = [_shape_leaves(s) for s in enumerate_shapes(m, min(tree_depth, m))]
        shapes += (leaf_sets or {}).get(m, [])
        leaves_points = {fixed: _subcube_points(m, fixed) for leaves in shapes for fixed in leaves}
        for w in mus:
            mu = Dist(m, tuple(Fraction(x, total) for x in w))
            # best success at each depth up to the first that meets every eps
            successes = {}
            for g in tables:
                successes[g] = [brute_best_success(TruthTable(m, g), mu, 0)]
                while successes[g][-1] < 1 - min(eps_list):
                    depth = len(successes[g])
                    successes[g].append(brute_best_success(TruthTable(m, g), mu, depth))
            sums = {}  # per g, taken once: its value masses, and each leaf's with its bias squared
            for eps in eps_list:
                delta = Fraction(1, 2) - eps
                for g in tables:
                    c = next(d for d, s in enumerate(successes[g]) if s >= 1 - eps)
                    if c == 0:
                        continue
                    cases += len(shapes)
                    if g not in sums:
                        leaf_masses = {}
                        for fixed, points in leaves_points.items():
                            leaf = [sum(w[x] for x in points if g[x] == v) for v in (0, 1)]
                            mass = leaf[0] + leaf[1]
                            square = Fraction(leaf[0] - leaf[1], mass) ** 2 if mass else None
                            leaf_masses[fixed] = leaf, square
                        full = [sum(w[x] for x in range(1 << m) if g[x] == v) for v in (0, 1)]
                        sums[g] = full, leaf_masses
                    full, leaf_masses = sums[g]
                    for leaves in shapes:
                        event = [0, 0]
                        for fixed in leaves:
                            leaf, square = leaf_masses[fixed]
                            # shallow, and bias at least 2*sqrt(delta)
                            if len(fixed) < c and square is not None and square >= 4 * delta:
                                event = [event[0] + leaf[0], event[1] + leaf[1]]
                        if not (
                            Fraction(event[0] + event[1], total) ** 2 < delta
                            and all(Fraction(event[b], full[b]) ** 2 < 16 * delta for b in (0, 1))
                        ):
                            violations.append((m, g, w, str(eps), c))
    return cases, violations


@dataclass(frozen=True)
class FullBiasReport:
    min_mass: Fraction
    full_bias: Fraction
    min_mass_exceeds_eps: bool
    bias_below_bound: bool

    @property
    def holds(self) -> bool:
        return self.min_mass_exceeds_eps and self.bias_below_bound


def check_fullbias(g: TruthTable, mu: Dist, eps: Fraction) -> FullBiasReport:
    """Evaluate the two quantities whose bounds are implied by positive
    distributional complexity: min_b Pr[g=b] vs eps and the full-cube bias
    vs 1 - 2*eps.  The caller supplies the complexity hypothesis."""
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise HypothesisViolated("eps must lie in [0, 1/2)")
    if g.arity != mu.arity:
        raise ArityMismatch(f"arity mismatch: {g.arity} != {mu.arity}")
    m1 = sum((p for x, p in enumerate(mu.probs) if p and g.outputs[x]), Fraction(0))
    m0 = 1 - m1
    min_mass = min(m0, m1)
    full_bias = abs(m0 - m1)
    return FullBiasReport(
        min_mass=min_mass,
        full_bias=full_bias,
        min_mass_exceeds_eps=min_mass > eps,
        bias_below_bound=full_bias < 1 - 2 * eps,
    )


def brute_sweep_fullbias(grids, eps_list) -> tuple[int, list]:
    """The cases and violations of ``sweep_fullbias`` from point sums and
    the exact DP complexity of each function, over ``grids`` as in
    :func:`brute_sweep_unbias`."""
    cases, violations = 0, []
    for m, tables, mus, total in grids:
        for w in mus:
            mu = Dist(m, tuple(Fraction(x, total) for x in w))
            for eps in eps_list:
                for g in tables:
                    if dist_complexity(TruthTable(m, g), mu, eps) == 0:
                        continue
                    cases += 1
                    if not check_fullbias(TruthTable(m, g), mu, eps).holds:
                        violations.append((m, g, w, str(eps)))
    return cases, violations


def random_tree(rng, arity: int, depth: int, labels: int) -> DecisionTree:
    """A random valid tree with leaves labeled uniformly from ``range(labels)``."""
    counter = [0]

    def build(d, used):
        avail = [v for v in range(arity) if v not in used]
        if d == 0 or not avail or rng.random() < 0.3:
            leaf = Leaf(rng.randrange(labels), counter[0])
            counter[0] += 1
            return leaf
        var = rng.choice(avail)
        return InternalNode(var, build(d - 1, used | {var}), build(d - 1, used | {var}))

    return DecisionTree(arity, build(depth, frozenset()))


def random_dist(rng, arity: int, max_denominator: int = 8) -> Dist:
    """A random rational distribution with small denominators."""
    n = 1 << arity
    weights = [rng.randrange(0, max_denominator + 1) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    return Dist.from_weights([Fraction(w) for w in weights])


def random_full_support_dist(rng, arity: int, max_weight: int = 8) -> Dist:
    n = 1 << arity
    weights = [rng.randrange(1, max_weight + 1) for _ in range(n)]
    return Dist.from_weights([Fraction(w) for w in weights])


def random_relation(rng, arity: int, alphabet: int) -> Relation:
    accepted = []
    for _ in range(1 << arity):
        labels = [r for r in range(alphabet) if rng.random() < 0.5]
        if not labels:
            labels = [rng.randrange(alphabet)]
        accepted.append(frozenset(labels))
    return Relation(arity, alphabet, tuple(accepted))


def random_truth_table(rng, arity: int) -> TruthTable:
    return TruthTable(arity, tuple(rng.randrange(2) for _ in range(1 << arity)))


def line_parse_relation(text: str) -> Relation:
    """A well-formed relation file read one line at a time, every label list
    parsed afresh."""
    head, *rows = text.splitlines()
    fields = dict(field.split("=") for field in head.split())
    arity = int(fields["arity"])
    accepted = {}
    for line in rows:
        key, vals = line.split(":")
        labels = frozenset(int(v) for v in vals.split(",") if v.strip())
        accepted[int(key.strip()[::-1], 2)] = labels
    return Relation(arity, int(fields["alphabet"]), tuple(accepted[x] for x in range(1 << arity)))


def line_parse_dist(text: str) -> Dist:
    """A well-formed distribution file read one line at a time, every line
    parsed afresh."""
    head, *rows = text.splitlines()
    probs = []
    for line in rows:
        num, _, den = line.partition("/")
        probs.append(Fraction(int(num), int(den or 1)))
    return Dist(int(head.split("=")[1]), tuple(probs))


def line_numerators(mu: Dist) -> tuple[list[int], int]:
    """The numerators of ``mu`` over the lcm of all its denominators, one
    point at a time."""
    den = lcm(*(p.denominator for p in mu.probs))
    return [p.numerator * (den // p.denominator) for p in mu.probs], den


def _on_grid(w: Fraction) -> Fraction:
    """``w`` floored to a multiple of 1/ONE_WEIGHT."""
    return Fraction(int(w * ONE_WEIGHT), ONE_WEIGHT)


def _fraction_game(rel: Relation, depth: int, target, tol, max_iter: int):
    """One depth of the game in Fractions: (accepted, decided, lower,
    upper, iterations, tree, reject_mu, final_mu)."""
    n_inputs = 1 << rel.arity
    weights = [Fraction(1)] * n_inputs
    payoff_sums = [0] * n_inputs
    br_value_sum = Fraction(0)
    mu_t = Dist.uniform(rel.arity)
    for t in range(1, max_iter + 1):
        dp = best_success(rel, mu_t, depth)
        tree = dp.witness
        br_value_sum += dp.success
        upper = br_value_sum / t
        correct = [rel.accepts(x, tree.output(x)) for x in range(n_inputs)]
        payoff_sums = [s + c for s, c in zip(payoff_sums, correct)]
        lower = Fraction(min(payoff_sums), t)
        if dp.success < target:
            return False, True, lower, upper, t, tree, mu_t, mu_t
        if lower >= target - tol:
            return True, True, lower, upper, t, tree, None, mu_t
        weights = [_on_grid(w * (1 - ETA)) if c else w for w, c in zip(weights, correct)]
        top = max(weights)
        weights = [_on_grid(w / top) for w in weights]
        mu_t = Dist.from_weights(weights)
    return False, False, lower, upper, max_iter, tree, None, mu_t


def fraction_rand_complexity(h, eps, tol=Fraction(1, 100), max_iter: int = 5000) -> GameResult:
    """``rand_complexity`` by the multiplicative-weights loop in Fractions,
    with its weights floored to the 1/ONE_WEIGHT grid and a ``Dist`` per round."""
    rel = Relation.from_function(h) if isinstance(h, TruthTable) else h
    target = 1 - Fraction(eps)
    cert_mu = None
    for depth in range(rel.arity + 1):
        accepted, decided, lower, upper, t, tree, reject_mu, final_mu = _fraction_game(
            rel, depth, target, Fraction(tol), max_iter)
        if accepted or not decided:
            hard = cert_mu if cert_mu is not None else final_mu
            return GameResult(depth, lower, upper, hard, tree, t, not decided,
                              dist_complexity(rel, hard, eps))
        cert_mu = reject_mu
    raise AssertionError("no depth accepted up to the full arity")
