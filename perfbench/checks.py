"""Correctness checks on every benchmark operation.

Each ``check_*`` function takes an operation's raw output and returns
``(problems, verdict)``: a list of human-readable problems (empty when the
output is correct) and the verdict-bearing values of the output, which are
compared with the stored expected values at the default seed.  The checks
use only this module's own parsing and arithmetic, never qclab code.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import isqrt
from pathlib import Path

# exact case counts of `qclab verify --m 3` (they do not depend on any input)
SWEEP_CASES = {"unbias": 2_756_204, "rbias": 14_653_412, "fullbias": 82_100}
RQC_TOL = Fraction(1, 100)  # the CLI's default --tol


def frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


# --- decision trees in the S-expression format ------------------------------


def parse_sexp(text: str):
    """``(leaf r)`` -> r; ``(q v t0 t1)`` -> (v - 1, t0, t1)."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def node():
        nonlocal pos
        if tokens[pos] != "(":
            raise ValueError(f"expected '(' at token {pos}")
        kind = tokens[pos + 1]
        if kind == "leaf":
            out = int(tokens[pos + 2])
            pos += 3
        elif kind == "q":
            var = int(tokens[pos + 2]) - 1
            pos += 3
            out = (var, node(), node())
        else:
            raise ValueError(f"unknown node {kind!r}")
        if tokens[pos] != ")":
            raise ValueError(f"expected ')' at token {pos}")
        pos += 1
        return out

    tree = node()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return tree


def tree_depth(tree) -> int:
    return 0 if isinstance(tree, int) else 1 + max(tree_depth(tree[1]), tree_depth(tree[2]))


def tree_label(tree, x: int) -> int:
    while not isinstance(tree, int):
        var, t0, t1 = tree
        tree = t1 if (x >> var) & 1 else t0
    return tree


def tree_success(tree, accepted, probs) -> Fraction:
    """Exact probability that the tree's answer is accepted."""
    return sum(
        (p for x, p in enumerate(probs) if tree_label(tree, x) in accepted[x]),
        Fraction(0),
    )


# --- exact reference complexities (small functions only) --------------------


def masses(outputs, probs, fixed: tuple) -> tuple[Fraction, Fraction]:
    """Masses of g = 0 and g = 1 on the subcube ``fixed`` ((var, bit) pairs)."""
    m = [Fraction(0), Fraction(0)]
    for x, p in enumerate(probs):
        if all((x >> v) & 1 == b for v, b in fixed):
            m[outputs[x]] += p
    return m[0], m[1]


def dist_complexity(outputs, probs, eps: Fraction) -> int:
    """Smallest depth whose best tree succeeds with probability >= 1 - eps,
    by a memoized search over subcubes."""
    arity = len(outputs).bit_length() - 1
    memo: dict = {}

    def best(fixed: tuple, depth: int) -> Fraction:
        key = (fixed, depth)
        if key not in memo:
            value = max(masses(outputs, probs, fixed))
            if depth > 0:
                used = {v for v, _ in fixed}
                for v in range(arity):
                    if v not in used:
                        value = max(value, sum(
                            best(tuple(sorted(fixed + ((v, b),))), depth - 1) for b in (0, 1)))
            memo[key] = value
        return memo[key]

    for d in range(arity + 1):
        if best((), d) >= 1 - eps:
            return d
    raise ValueError("full-depth success below 1 - eps")


# --- per-operation checks ---------------------------------------------------


def _exit(code: int, problems: list) -> None:
    if code != 0:
        problems.append(f"exit code {code}")


def check_verify(code: int, stdout: str, n: int):
    problems: list[str] = []
    _exit(code, problems)
    recs = records(stdout)
    sweeps = {r["record"][len("sweep-"):]: r for r in recs if r["record"].startswith("sweep-")}
    for name, cases in SWEEP_CASES.items():
        r = sweeps.get(name)
        if r is None:
            problems.append(f"missing sweep-{name} record")
            continue
        if r["cases"] != cases:
            problems.append(f"sweep-{name}: {r['cases']} cases, expected {cases}")
        if r["violations"] != 0 or r["passed"] is not True:
            problems.append(f"sweep-{name}: {r['violations']} violations")
    inst = [r for r in recs if r["record"] == "verify-instance"]
    if sorted(r["z"] for r in inst) != list(range(1 << n)):
        problems.append(f"verify-instance records for z {[r['z'] for r in inst]}")
    for r in inst:
        if r["passed"] is not True or r["simileaf_violations"] != 0:
            problems.append(f"verify-instance z={r['z']} failed")
    verdict = {
        "sweeps": {k: sweeps[k]["cases"] for k in sorted(sweeps)},
        "instance": [
            [r["z"], r["simileaf_checked"], r["simileaf_violations"], r["lilsnip_total_mass"]]
            for r in sorted(inst, key=lambda r: r["z"])
        ],
    }
    return problems, verdict


def check_dce(code: int, stdout: str, accepted, probs, eps: Fraction):
    problems: list[str] = []
    _exit(code, problems)
    (rec,) = records(stdout)
    success = frac(rec["success"])
    if rec["passed"] is not True:
        problems.append("record not passed")
    if success < 1 - eps:
        problems.append(f"success {success} below 1 - eps")
    tree = parse_sexp(rec["witness_tree"])
    if tree_depth(tree) > rec["depth"]:
        problems.append(f"witness depth {tree_depth(tree)} exceeds {rec['depth']}")
    actual = tree_success(tree, accepted, probs)
    if actual != success:
        problems.append(f"witness succeeds with {actual}, record says {success}")
    return problems, {"depth": rec["depth"], "success": rec["success"]}


def _check_dist(probs: list[Fraction], arity: int, problems: list, what: str) -> None:
    if len(probs) != 1 << arity or any(p < 0 for p in probs) or sum(probs) != 1:
        problems.append(f"{what} is not a distribution on {arity} bits")


def check_rqc(code: int, stdout: str, arity: int, eps: Fraction):
    problems: list[str] = []
    _exit(code, problems)
    (rec,) = records(stdout)
    if rec["passed"] is not True:
        problems.append("record not passed")
    if rec["limit_hit"] is not False:
        problems.append("game hit its iteration limit")
    if rec["certified_depth"] < rec["depth"]:
        problems.append(f"certified depth {rec['certified_depth']} < {rec['depth']}")
    lower, upper = frac(rec["lower_value"]), frac(rec["upper_value"])
    if not 1 - eps - RQC_TOL <= lower <= upper:
        problems.append(f"game values {lower} .. {upper} out of order")
    if tree_depth(parse_sexp(rec["witness_tree"])) > rec["depth"]:
        problems.append("witness tree deeper than the reported depth")
    _check_dist([frac(v) for v in rec["hard_dist"]], arity, problems, "hard_dist")
    return problems, {"depth": rec["depth"], "certified_depth": rec["certified_depth"]}


def parse_dist(text: str) -> list[Fraction]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return [frac(ln) for ln in lines[1:]]


def check_hard(code: int, stdout: str, outputs, eps: Fraction):
    """`build-instance` with the game's hard distribution as the inner
    distribution: the reported inner complexity must be the exact
    distributional complexity under the distribution it wrote."""
    problems: list[str] = []
    _exit(code, problems)
    (rec,) = records(stdout)
    probs = parse_dist((Path(rec["manifest"]).parent / "mu.dist").read_text())
    arity = len(outputs).bit_length() - 1
    _check_dist(probs, arity, problems, "hard distribution")
    c = dist_complexity(outputs, probs, eps)
    if rec["inner_complexity"] != c or c < 1:
        problems.append(f"inner complexity {rec['inner_complexity']}, exact {c}")
    if rec["passed"] is not True:
        problems.append("record not passed")
    return problems, {"inner_complexity": rec["inner_complexity"]}


def check_xor_stack(code: int, stdout: str, t: int):
    """XOR of t copies of a one-bit identity (or negation): every input bit
    matters, so the randomized complexity at any eps < 1/2 is t."""
    problems: list[str] = []
    _exit(code, problems)
    (rec,) = records(stdout)
    if rec["arity"] != t or rec["depth"] != t:
        problems.append(f"arity {rec['arity']}, depth {rec['depth']}; expected {t}, {t}")
    if rec["limit_hit"] is not False or rec["passed"] is not True:
        problems.append("xor-stack record failed")
    return problems, {"arity": rec["arity"], "depth": rec["depth"]}


def check_build(code: int, stdout: str, n: int, m: int, inner_c: int):
    problems: list[str] = []
    _exit(code, problems)
    (rec,) = records(stdout)
    if (rec["n"], rec["m"], rec["inner_complexity"]) != (n, m, inner_c):
        problems.append(
            f"instance n={rec['n']} m={rec['m']} c={rec['inner_complexity']}, "
            f"expected {n}, {m}, {inner_c}"
        )
    if rec["passed"] is not True:
        problems.append("record not passed")
    verdict = {k: rec[k] for k in ("n", "m", "inner_complexity", "epsilon", "theta")}
    return problems, verdict


def check_simulate(code: int, stdout: str, n: int):
    """Returns ``(problems, verdict, q)`` with ``q[z][leaf]`` the exact
    termination law that the random walks are checked against."""
    problems: list[str] = []
    _exit(code, problems)
    recs = records(stdout)
    per_z = [r for r in recs if r["record"] == "simulate-z"]
    chain = [r for r in recs if r["record"] == "success-chain"]
    if sorted(r["z"] for r in per_z) != list(range(1 << n)):
        problems.append(f"simulate-z records for z {[r['z'] for r in per_z]}")
    q_law = {}
    for r in per_z:
        leaves = r["leaves"]
        sp = sum((frac(v["p"]) for v in leaves.values()), Fraction(0))
        sq = sum((frac(v["q"]) for v in leaves.values()), Fraction(0))
        if sp != 1 or sq != 1:
            problems.append(f"z={r['z']}: sum p = {sp}, sum q = {sq}")
        if r["passed"] is not True:
            problems.append(f"z={r['z']}: record not passed")
        q_law[r["z"]] = {int(lid): frac(v["q"]) for lid, v in leaves.items()}
    if len(chain) != 1 or chain[0]["passed"] is not True:
        problems.append("success-chain record missing or failed")
    keys = ("leaves", "trace_leaf", "trace_output", "trace_z_queries", "budget")
    verdict = {
        "per_z": digest([[r["z"]] + [r[k] for k in keys] for r in sorted(per_z, key=lambda r: r["z"])]),
        "chain": {k: v for k, v in chain[0].items() if k != "record"} if chain else None,
    }
    return problems, verdict, q_law


def walk_tolerance(support: int, walks: int) -> float:
    """Twice the bound 0.5*sqrt(L/N) on the mean total-variation distance
    between N samples of a law on L outcomes and the law itself.  The
    distance concentrates within O(1/sqrt(N)) of its mean, so a correct
    sampler essentially never exceeds this."""
    return isqrt(10**12 * support // walks) / 10**6


def check_walks(counts: dict, walks: int, q: dict):
    problems: list[str] = []
    total = sum(counts.values())
    if total != walks:
        problems.append(f"walk counts sum to {total}, expected {walks}")
    stray = sorted(lid for lid in counts if q.get(lid, 0) == 0)
    if stray:
        problems.append(f"walks ended at leaves with zero probability: {stray[:5]}")
    support = sum(1 for v in q.values() if v > 0)
    tv = 0.5 * sum(abs(counts.get(lid, 0) / walks - float(p)) for lid, p in q.items())
    if tv > walk_tolerance(support, walks):
        problems.append(f"walk frequencies are {tv:.4f} from the exact law")
    return problems, {"counts": digest(sorted(counts.items()))}
