"""File formats for truth tables, relations, distributions, trees and
instance manifests, plus line-delimited report records.

All rational values travel as exact ``numerator/denominator`` strings; no
verdict-bearing field is ever a float.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .core import Dist, ParseError, Relation, TruthTable
from .compose import ComposedInstance, build_instance
from .dtree import DecisionTree, InternalNode, Leaf, Node


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def format_fraction(x: Fraction) -> str:
    # Decimal prints ints of any length; str() stops at the interpreter's
    # digit limit, which stays in place because it guards parsing
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


# --- truth tables -----------------------------------------------------------
# line 1: "arity=<m>"; line 2: 2^m characters of 0/1 in index order


def parse_truth_table(text: str) -> TruthTable:
    lines = _lines(text)
    if len(lines) != 2 or not lines[0].startswith("arity="):
        raise ParseError("truth table file needs an arity line and a value line")
    try:
        arity = int(lines[0][len("arity="):])
    except ValueError as exc:
        raise ParseError(f"bad arity line {lines[0]!r} (line 1)") from exc
    if len(lines[1]) != 1 << arity or set(lines[1]) - {"0", "1"}:
        raise ParseError(f"value line must be 2^{arity} bits (line 2)")
    return TruthTable(arity, tuple(int(ch) for ch in lines[1]))


def format_truth_table(g: TruthTable) -> str:
    return f"arity={g.arity}\n" + "".join(str(b) for b in g.outputs) + "\n"


# --- relations --------------------------------------------------------------
# line 1: "arity=<n> alphabet=<size>"; then one line per input
# "<bitstring>: r1,r2,...".  The leftmost bitstring character is variable 1.


def parse_relation(text: str) -> Relation:
    lines = _lines(text)
    if not lines:
        raise ParseError("empty relation file")
    header = lines[0].split()
    if (
        len(header) != 2
        or not header[0].startswith("arity=")
        or not header[1].startswith("alphabet=")
    ):
        raise ParseError(f"bad relation header {lines[0]!r} (line 1)")
    try:
        arity = int(header[0][len("arity="):])
        alphabet = int(header[1][len("alphabet="):])
    except ValueError as exc:
        raise ParseError(f"bad relation header {lines[0]!r} (line 1)") from exc
    accepted: dict[int, frozenset] = {}
    for ln_no, line in enumerate(lines[1:], start=2):
        key, _, vals = line.partition(":")
        key = key.strip()
        if len(key) != arity or set(key) - {"0", "1"}:
            raise ParseError(f"bad input bitstring {key!r} (line {ln_no})")
        x = sum(1 << j for j, ch in enumerate(key) if ch == "1")
        if x in accepted:
            raise ParseError(f"duplicate input {key!r} (line {ln_no})")
        try:
            labels = frozenset(int(v) for v in vals.split(",") if v.strip())
        except ValueError as exc:
            raise ParseError(f"bad label list on line {ln_no}") from exc
        accepted[x] = labels
    if set(accepted) != set(range(1 << arity)):
        raise ParseError("relation file must list every input exactly once")
    return Relation(arity, alphabet, tuple(accepted[x] for x in range(1 << arity)))


def format_relation(f: Relation) -> str:
    out = [f"arity={f.arity} alphabet={f.alphabet_size}"]
    for x in range(1 << f.arity):
        key = "".join("1" if (x >> j) & 1 else "0" for j in range(f.arity))
        out.append(f"{key}: " + ",".join(str(r) for r in sorted(f.accepted[x])))
    return "\n".join(out) + "\n"


# --- distributions ----------------------------------------------------------
# line 1: "arity=<k>"; then 2^k lines "numerator/denominator" in index order


def parse_dist(text: str) -> Dist:
    lines = _lines(text)
    if not lines or not lines[0].startswith("arity="):
        raise ParseError("distribution file needs an arity line")
    try:
        arity = int(lines[0][len("arity="):])
    except ValueError as exc:
        raise ParseError(f"bad arity line {lines[0]!r} (line 1)") from exc
    if len(lines) != 1 + (1 << arity):
        raise ParseError(f"expected {1 << arity} probability lines")
    probs = []
    for ln_no, line in enumerate(lines[1:], start=2):
        try:
            probs.append(parse_fraction(line))
        except ParseError as exc:
            raise ParseError(f"{exc} (line {ln_no})") from exc
    return Dist(arity, tuple(probs))


def format_dist(mu: Dist) -> str:
    return f"arity={mu.arity}\n" + "\n".join(format_fraction(p) for p in mu.probs) + "\n"


# --- decision trees ---------------------------------------------------------
# S-expressions, whitespace-insensitive, 1-based variables:
# "(q <var> <subtree0> <subtree1>)" and "(leaf <label>)"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_tree(text: str, arity: int) -> DecisionTree:
    tokens = _tokenize(text)
    pos = [0]
    counter = [0]

    def expect(tok: str):
        if pos[0] >= len(tokens) or tokens[pos[0]] != tok:
            raise ParseError(f"expected {tok!r} at token {pos[0]}")
        pos[0] += 1

    def parse_int() -> int:
        if pos[0] >= len(tokens):
            raise ParseError("unexpected end of tree text")
        try:
            value = int(tokens[pos[0]])
        except ValueError as exc:
            raise ParseError(f"expected integer, got {tokens[pos[0]]!r}") from exc
        pos[0] += 1
        return value

    def parse_node(depth: int) -> Node:
        expect("(")
        if pos[0] >= len(tokens):
            raise ParseError("unexpected end of tree text")
        kind = tokens[pos[0]]
        pos[0] += 1
        if kind == "leaf":
            label = parse_int()
            expect(")")
            leaf = Leaf(label, counter[0])
            counter[0] += 1
            return leaf
        if kind == "q":
            # read-once trees are at most ``arity`` deep; this bounds the recursion
            if depth >= arity:
                raise ParseError(f"tree deeper than its arity {arity}")
            var = parse_int()
            if not 1 <= var <= arity:
                raise ParseError(f"variable {var} out of range 1..{arity}")
            child0 = parse_node(depth + 1)
            child1 = parse_node(depth + 1)
            expect(")")
            return InternalNode(var - 1, child0, child1)
        raise ParseError(f"unknown node kind {kind!r}")

    root = parse_node(0)
    if pos[0] != len(tokens):
        raise ParseError("trailing tokens after tree")
    return DecisionTree(arity, root).require_valid()


def format_tree(tree: DecisionTree) -> str:
    def fmt(node: Node) -> str:
        if isinstance(node, Leaf):
            return f"(leaf {node.label})"
        return f"(q {node.query_var + 1} {fmt(node.child0)} {fmt(node.child1)})"

    return fmt(tree.root) + "\n"


# --- instance manifests -----------------------------------------------------


def write_instance(inst: ComposedInstance, directory: Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "g.tt").write_text(format_truth_table(inst.g))
    (directory / "f.rel").write_text(format_relation(inst.f))
    (directory / "mu.dist").write_text(format_dist(inst.mu))
    (directory / "lambda.dist").write_text(format_dist(inst.lam))
    manifest = {
        "g": "g.tt",
        "f": "f.rel",
        "mu": "mu.dist",
        "lambda": "lambda.dist",
        "n": inst.n,
        "m": inst.m,
        "epsilon": format_fraction(inst.epsilon),
        "theta": format_fraction(inst.theta),
        "inner_complexity": inst.inner_complexity,
    }
    path = directory / "instance.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_instance(manifest_path: Path) -> ComposedInstance:
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad manifest JSON: {exc}") from exc
    keys = ("g", "f", "mu", "lambda", "epsilon", "theta")
    if not isinstance(manifest, dict) or not all(isinstance(manifest.get(k), str) for k in keys):
        raise ParseError(f"manifest must be a JSON object with string fields {', '.join(keys)}")
    g = parse_truth_table((base / manifest["g"]).read_text())
    f = parse_relation((base / manifest["f"]).read_text())
    mu = parse_dist((base / manifest["mu"]).read_text())
    lam = parse_dist((base / manifest["lambda"]).read_text())
    inst = build_instance(
        f, g, mu, lam,
        epsilon=parse_fraction(manifest["epsilon"]),
        theta=parse_fraction(manifest["theta"]),
    )
    if inst.inner_complexity != manifest.get("inner_complexity"):
        raise ParseError(
            "manifest inner_complexity disagrees with the recomputed value"
        )
    return inst


# --- reports ----------------------------------------------------------------


def record_to_json(record: dict) -> str:
    """One report record as a canonical JSON line.  Fractions become exact
    strings; record keys are sorted so output is byte-stable."""

    def convert(value):
        if isinstance(value, Fraction):
            return format_fraction(value)
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return json.dumps(convert(record), sort_keys=True)
