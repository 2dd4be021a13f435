"""Seeded input generator for the qclab benchmark.

Every workload's inputs are a pure function of the workload seed: the same
seed gives byte-identical files.  Files are written in the qclab text
formats (truth tables, relations, distributions, S-expression trees) by this
module's own formatters, so the generator does not depend on the code it
measures.

Three workloads (``dce-large``, ``rqc-games`` and ``simulate-chain``) draw
their problems from a fixed catalogue (drawn once from ``CATALOGUE_SEED``)
and let the workload seed pick a relabelling of each problem: a permutation
of the variables (and of the copies), a flip mask on the input bits and a
permutation of the output labels, with the distribution carried along.  Relabelled problems are isomorphic, so every
seed asks for the same amount of work and has the same exact answers, while
the files the program reads differ from seed to seed.  Fresh random draws
would make the run time swing with the seed: game iteration counts alone
range from 1 to a few hundred across random 5-bit functions.  The
``sweep-verify`` instance is a fresh seeded search; its cost is dominated by
the sweeps, which do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

DEFAULT_SEED = 1
CATALOGUE_SEED = 1706

# sweep-verify: the per-instance checks run at eps 7/16, where the lilsnip
# threshold 2*sqrt(1/2 - eps) is exactly 1/2
VERIFY_EPS = Fraction(7, 16)
VERIFY_THETA = Fraction(1, 2)
VERIFY_N, VERIFY_M, VERIFY_TREE_DEPTH = 3, 3, 5

DCE_ARITIES = (8, 9, 10)
DCE_EPS = Fraction(1, 3)

RQC_ARITIES = (3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5)
# `qclab rqc` at eps 1/4; the games at eps 1/3 (3 to 367 iterations on this
# catalogue) run through `qclab build-instance`, whose default inner
# distribution is the game's hard distribution.  `rqc` cannot print games
# that long: its upper_value's denominator passes Python's 4300-digit
# int-to-str limit and the command dies with ValueError.
RQC_EPS, HARD_EPS = Fraction(1, 4), Fraction(1, 3)
XOR_T, XOR_EPS = 4, Fraction(7, 16)

# simulate-chain: n = 4 copies of a 3-bit inner function (flat arity 12, the
# DP cap) under a complete outer tree of depth SIM_TREE_DEPTH
SIM_N, SIM_M, SIM_TREE_DEPTH = 4, 3, 7
SIM_EPS, SIM_THETA, SIM_INNER_C = Fraction(1, 3), Fraction(1, 8), 2
SIM_WALK_ZS, SIM_WALKS = 4, 25_000


# --- formatters (the qclab file formats) -----------------------------------


def fmt_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def fmt_truth_table(outputs) -> str:
    arity = len(outputs).bit_length() - 1
    return f"arity={arity}\n" + "".join(str(b) for b in outputs) + "\n"


def fmt_relation(accepted, alphabet: int) -> str:
    arity = len(accepted).bit_length() - 1
    lines = [f"arity={arity} alphabet={alphabet}"]
    for x, labels in enumerate(accepted):
        key = "".join("1" if (x >> j) & 1 else "0" for j in range(arity))
        lines.append(f"{key}: " + ",".join(str(r) for r in sorted(labels)))
    return "\n".join(lines) + "\n"


def fmt_dist(probs) -> str:
    arity = len(probs).bit_length() - 1
    return f"arity={arity}\n" + "\n".join(fmt_fraction(p) for p in probs) + "\n"


def fmt_tree(node) -> str:
    """``node`` is a leaf label (int) or ``(var0, child0, child1)`` with a
    0-based variable; the file format is 1-based."""
    if isinstance(node, int):
        return f"(leaf {node})"
    var, c0, c1 = node
    return f"(q {var + 1} {fmt_tree(c0)} {fmt_tree(c1)})"


# --- random objects ---------------------------------------------------------


def random_dist(rng: random.Random, arity: int, max_weight: int) -> tuple[Fraction, ...]:
    """A distribution with positive integer weights in 1..max_weight."""
    weights = [rng.randint(1, max_weight) for _ in range(1 << arity)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_tree(rng: random.Random, arity: int, depth: int, labels: int):
    """A complete read-once tree of the given depth: every path queries
    ``depth`` distinct variables chosen at random."""

    def build(free: list, d: int):
        if d == 0:
            return rng.randrange(labels)
        var = free[rng.randrange(len(free))]
        rest = [v for v in free if v != var]
        return (var, build(rest, d - 1), build(rest, d - 1))

    return build(list(range(arity)), depth)


@dataclass(frozen=True)
class Relabel:
    """Isomorphism of problems on ``arity`` bits: input bit j moves to bit
    ``perm[j]`` after the flip ``mask``; output labels map through
    ``labels``."""

    perm: tuple[int, ...]
    mask: int
    labels: tuple[int, ...]

    @classmethod
    def draw(cls, rng: random.Random, arity: int, alphabet: int) -> "Relabel":
        perm = list(range(arity))
        rng.shuffle(perm)
        labels = list(range(alphabet))
        rng.shuffle(labels)
        return cls(tuple(perm), rng.randrange(1 << arity), tuple(labels))

    def point(self, x: int) -> int:
        y = 0
        for j, pj in enumerate(self.perm):
            if ((x ^ self.mask) >> j) & 1:
                y |= 1 << pj
        return y

    def table(self, values) -> tuple:
        """Move a per-point table (outputs, label sets or probabilities)."""
        out = [None] * len(values)
        for x, v in enumerate(values):
            out[self.point(x)] = v
        return tuple(out)


# --- workloads --------------------------------------------------------------


def _dce_catalogue():
    rng = random.Random(CATALOGUE_SEED)
    out = []
    for arity in DCE_ARITIES:
        accepted = [frozenset([rng.randrange(3)]) for _ in range(1 << arity)]
        out.append((accepted, random_dist(rng, arity, 9)))
    return out


def _rqc_catalogue():
    """Non-constant tables: a constant function has complexity 0, which
    ``build-instance`` rejects."""
    rng = random.Random(CATALOGUE_SEED + 1)
    out = []
    for arity in RQC_ARITIES:
        while True:
            table = tuple(rng.randrange(2) for _ in range(1 << arity))
            if 0 < sum(table) < len(table):
                out.append(table)
                break
    return out


def gen_dce_large(seed: int) -> dict:
    rng = random.Random(seed)
    files, problems = {}, []
    for k, (accepted, mu) in enumerate(_dce_catalogue()):
        arity = len(accepted).bit_length() - 1
        r = Relabel.draw(rng, arity, 3)
        acc = r.table([frozenset(r.labels[a] for a in s) for s in accepted])
        probs = r.table(mu)
        rel, dist = f"rel{k}.rel", f"mu{k}.dist"
        files[rel] = fmt_relation(acc, 3)
        files[dist] = fmt_dist(probs)
        problems.append({
            "name": f"dce{k}", "f": rel, "mu": dist, "eps": DCE_EPS,
            "accepted": acc, "probs": probs,
        })
    return {"files": files, "problems": problems}


def gen_rqc_games(seed: int) -> dict:
    rng = random.Random(seed)
    files, problems = {}, []
    for k, outputs in enumerate(_rqc_catalogue()):
        r = Relabel.draw(rng, len(outputs).bit_length() - 1, 2)
        table = r.table([r.labels[b] for b in outputs])
        name = f"g{k}.tt"
        files[name] = fmt_truth_table(table)
        problems.append({"name": f"rqc{k}", "kind": "rqc", "g": name,
                         "eps": RQC_EPS, "outputs": table})
        problems.append({"name": f"hard{k}", "kind": "hard", "g": name,
                         "eps": HARD_EPS, "outputs": table})
    # the one-bit identity relation is the outer problem of the hard-game
    # instances; the one-bit identity or its negation, stacked XOR_T times,
    # is XOR_T (or its negation), whose randomized complexity is XOR_T
    files["id1.rel"] = fmt_relation([frozenset([0]), frozenset([1])], 2)
    files["bit.tt"] = fmt_truth_table((0, 1) if rng.randrange(2) else (1, 0))
    return {"files": files, "problems": problems, "xor": {"g": "bit.tt"}}


def _search_inner(rng: random.Random, m: int, eps: Fraction, theta: Fraction,
                  want_c=None, max_weight: int = 6):
    """Deterministic search for (g, mu) with full-cube bias <= theta and
    positive (or exactly ``want_c``) inner complexity at ``eps``."""
    while True:
        outputs = tuple(rng.randrange(2) for _ in range(1 << m))
        probs = random_dist(rng, m, max_weight)
        m0, m1 = checks.masses(outputs, probs, ())
        if m0 == 0 or m1 == 0 or abs(m0 - m1) > theta:
            continue
        c = checks.dist_complexity(outputs, probs, eps)
        if c > 0 and (want_c is None or c == want_c):
            return outputs, probs, c


def gen_sweep_verify(seed: int) -> dict:
    rng = random.Random(seed)
    n, m = VERIFY_N, VERIFY_M
    outputs, probs, c = _search_inner(rng, m, VERIFY_EPS, VERIFY_THETA)
    f = [frozenset([rng.randrange(2)]) for _ in range(1 << n)]
    tree = random_tree(rng, n * m, VERIFY_TREE_DEPTH, 2)
    files = {
        "g.tt": fmt_truth_table(outputs),
        "f.rel": fmt_relation(f, 2),
        "mu.dist": fmt_dist(probs),
        "tree.sexp": fmt_tree(tree) + "\n",
    }
    return {"files": files, "n": n, "m": m, "inner_complexity": c}


def _relabel_tree(node, inner: Relabel, copies: Relabel, outer_labels, m: int):
    """Rename a flat-variable tree along an inner and a copy relabelling:
    flat variable ``i*m + j`` becomes ``copies.perm[i]*m + inner.perm[j]``,
    and a flipped inner bit swaps the two children."""
    if isinstance(node, int):
        return outer_labels[node]
    var, c0, c1 = node
    i, j = divmod(var, m)
    c0, c1 = (_relabel_tree(c, inner, copies, outer_labels, m) for c in (c0, c1))
    if (inner.mask >> j) & 1:
        c0, c1 = c1, c0
    return (copies.perm[i] * m + inner.perm[j], c0, c1)


def _simulate_catalogue():
    rng = random.Random(CATALOGUE_SEED + 2)
    n, m = SIM_N, SIM_M
    outputs, probs, c = _search_inner(rng, m, SIM_EPS, SIM_THETA, SIM_INNER_C)
    f = [rng.randrange(2) for _ in range(1 << n)]
    tree = random_tree(rng, n * m, SIM_TREE_DEPTH, 2)
    walk_zs = rng.sample(range(1 << n), SIM_WALK_ZS)
    return outputs, probs, c, f, tree, walk_zs


def gen_simulate_chain(seed: int) -> dict:
    rng = random.Random(seed)
    n, m = SIM_N, SIM_M
    outputs, probs, c, f, tree, walk_zs = _simulate_catalogue()
    inner = Relabel.draw(rng, m, 2)
    negate = inner.labels[1] == 0  # g' = not g (moved) flips every z bit
    copies = Relabel.draw(rng, n, 2)
    copies = Relabel(copies.perm, (1 << n) - 1 if negate else 0, copies.labels)
    g = inner.table([inner.labels[b] for b in outputs])
    f = copies.table([copies.labels[r] for r in f])
    tree = _relabel_tree(tree, inner, copies, copies.labels, m)
    files = {
        "g.tt": fmt_truth_table(g),
        "f.rel": fmt_relation([frozenset([r]) for r in f], 2),
        "mu.dist": fmt_dist(inner.table(probs)),
        "tree.sexp": fmt_tree(tree) + "\n",
    }
    return {"files": files, "n": n, "m": m, "inner_complexity": c,
            "walk_zs": sorted(copies.point(z) for z in walk_zs),
            "walks": SIM_WALKS}


GENERATORS = {
    "sweep-verify": gen_sweep_verify,
    "dce-large": gen_dce_large,
    "rqc-games": gen_rqc_games,
    "simulate-chain": gen_simulate_chain,
}


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Generate a workload's inputs and write its files into ``directory``."""
    spec = GENERATORS[workload](seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in spec["files"].items():
        (directory / name).write_text(text)
    spec["dir"] = directory
    return spec
