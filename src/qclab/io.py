"""File formats for truth tables, relations, distributions, trees and
instance manifests, plus line-delimited report records.

All rational values travel as exact ``numerator/denominator`` strings; no
verdict-bearing field is ever a float.  Every integer field (header
values, relation labels, tree variables and labels, both halves of a
rational) reads one grammar, what the formatters write: after stripping,
ASCII ``-?[0-9]+``, and ``/[0-9]+`` after a rational's numerator.  ``int``
alone would also take other scripts' digits, underscores, a plus sign and
inner spaces.

The table parsers do each per-line step once per distinct value: a
relation builds one frozenset per distinct label-list text and a
distribution one ``Fraction`` per distinct line, which later lines share.
Table files repeat few values over many lines.  Nothing is kept past the
call, and a bad value still raises at its first line.

The parsers and formatters need only ``core`` and ``dtree``, and no numpy.
``load_instance`` alone needs the composer, and with it the solvers, so it
imports ``compose`` when it is called.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .core import ARITY_CAP, CapExceeded, Dist, ParseError, Relation, TruthTable
from .dtree import DecisionTree, InternalNode, Leaf, Node

if TYPE_CHECKING:
    from .compose import ComposedInstance


_SIGNED = re.compile(r"-?[0-9]+")
_UNSIGNED = re.compile(r"[0-9]+")


def _int(text: str, signed: bool = True) -> int:
    """``text`` as an int if it is ASCII ``-?[0-9]+`` (``[0-9]+`` when not
    ``signed``), else ValueError; so is a value past the interpreter's
    digit limit."""
    if not (_SIGNED if signed else _UNSIGNED).fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        return Fraction(_int(num), _int(den, signed=False) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def format_ratio(num: int, den: int) -> str:
    """``num/den`` in decimal digits, as given.  str() stops at the
    interpreter's digit limit, which stays in place because it guards
    parsing; past it, Decimal prints ints of any length."""
    try:
        return f"{num}/{den}"
    except ValueError:
        return f"{Decimal(num)}/{Decimal(den)}"


def format_fraction(x: Fraction) -> str:
    return format_ratio(x.numerator, x.denominator)


def _lines(text: str) -> list[str]:
    return [ln for ln in map(str.strip, text.splitlines()) if ln]


def _check_arity(arity: int, lowest: int) -> None:
    """Reject a header arity before anything of size 2^arity is built."""
    if arity < lowest:
        raise ParseError(f"arity {arity} is below {lowest} (line 1)")
    if arity > ARITY_CAP:
        raise CapExceeded(f"arity {arity} exceeds cap")


def _header(lines: list[str], *keys: str) -> list[int]:
    """The integer values of line 1, which reads ``key=<int>`` for each of
    ``keys`` in that order."""
    first = lines[0] if lines else ""
    fields = [field.partition("=") for field in first.split()]
    if [(key, eq) for key, eq, _ in fields] == [(key, "=") for key in keys]:
        try:
            return [_int(value) for _, _, value in fields]
        except ValueError:
            pass
    expected = " ".join(f"{key}=<int>" for key in keys)
    raise ParseError(f"header {first!r} is not {expected!r} (line 1)")


# --- truth tables -----------------------------------------------------------
# line 1: "arity=<m>"; line 2: 2^m characters of 0/1 in index order


def parse_truth_table(text: str) -> TruthTable:
    lines = _lines(text)
    (arity,) = _header(lines, "arity")
    _check_arity(arity, 1)
    if len(lines) != 2 or len(lines[1]) != 1 << arity or set(lines[1]) - {"0", "1"}:
        raise ParseError(f"truth table needs one value line of 2^{arity} bits (line 2)")
    return TruthTable(arity, tuple(int(ch) for ch in lines[1]))


def format_truth_table(g: TruthTable) -> str:
    return f"arity={g.arity}\n" + "".join(str(b) for b in g.outputs) + "\n"


# --- relations --------------------------------------------------------------
# line 1: "arity=<n> alphabet=<size>"; then one line per input
# "<bitstring>: r1,r2,...".  The leftmost bitstring character is variable 1.


def parse_relation(text: str) -> Relation:
    lines = _lines(text)
    arity, alphabet = _header(lines, "arity", "alphabet")
    _check_arity(arity, 1)
    accepted: dict[int, frozenset] = {}
    label_sets: dict[str, frozenset] = {}  # label-list text -> its set, shared
    for ln_no, line in enumerate(lines[1:], start=2):
        key, _, vals = line.partition(":")
        key = key.strip()
        if len(key) != arity or key.strip("01"):
            raise ParseError(f"bad input bitstring {key!r} (line {ln_no})")
        x = int(key[::-1], 2)  # the leftmost character is variable 1, bit 0
        if x in accepted:
            raise ParseError(f"duplicate input {key!r} (line {ln_no})")
        labels = label_sets.get(vals)
        if labels is None:
            try:
                labels = frozenset(_int(v.strip()) for v in vals.split(",") if v.strip())
            except ValueError as exc:
                raise ParseError(f"bad label list on line {ln_no}") from exc
            label_sets[vals] = labels
        accepted[x] = labels
    if len(accepted) != 1 << arity:  # keys are distinct and below 2^arity
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
    (arity,) = _header(lines, "arity")
    _check_arity(arity, 0)
    if len(lines) != 1 + (1 << arity):
        raise ParseError(f"expected {1 << arity} probability lines")
    values: dict[str, Fraction] = {}  # line -> its value, shared by equal lines
    for ln_no, line in enumerate(lines[1:], start=2):
        if line not in values:
            try:
                values[line] = parse_fraction(line)
            except ParseError as exc:
                raise ParseError(f"{exc} (line {ln_no})") from exc
    return Dist(arity, tuple(map(values.__getitem__, lines[1:])))


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
            value = _int(tokens[pos[0]])
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
    return DecisionTree(arity, root)


def format_tree(tree: DecisionTree) -> str:
    def fmt(node: Node) -> str:
        if isinstance(node, Leaf):
            return f"(leaf {node.label})"
        return f"(q {node.query_var + 1} {fmt(node.child0)} {fmt(node.child1)})"

    return fmt(tree.root) + "\n"


# --- instance manifests -----------------------------------------------------


def load_instance(g, f, mu=None, lam=None, epsilon=None, theta=None) -> ComposedInstance:
    """The instance of the g, f, mu and lambda files and the epsilon and
    theta strings; ``build_instance`` supplies whatever is None."""
    from .compose import build_instance

    def read(parse, path):
        return None if path is None else parse(Path(path).read_text())

    return build_instance(
        g=read(parse_truth_table, g), f=read(parse_relation, f),
        mu=read(parse_dist, mu), lam=read(parse_dist, lam),
        epsilon=None if epsilon is None else parse_fraction(epsilon),
        theta=None if theta is None else parse_fraction(theta),
    )


def write_instance(inst: ComposedInstance, directory: Path) -> Path:
    """Write the four tables, then the manifest through a temporary file,
    with any old manifest removed first: no manifest names two instances'
    tables, even after a write fails."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path, temp = directory / "instance.json", directory / "instance.json.tmp"
    path.unlink(missing_ok=True)
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
    try:
        temp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        temp.replace(path)
    except OSError:
        temp.unlink(missing_ok=True)
        raise
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
    inst = load_instance(
        base / manifest["g"], base / manifest["f"], base / manifest["mu"],
        base / manifest["lambda"], manifest["epsilon"], manifest["theta"],
    )
    for key in ("n", "m", "inner_complexity"):
        value, actual = manifest.get(key), getattr(inst, key)
        if type(value) is not int or value != actual:  # a bool or a float is no count
            raise ParseError(f"manifest {key} {value!r} disagrees with the instance's {actual}")
    return inst


# --- reports ----------------------------------------------------------------


def record_to_json(record: dict) -> str:
    """One report record as a canonical JSON line.  Fractions become exact
    strings; record keys are sorted so output is byte-stable."""
    return json.dumps(record, sort_keys=True, default=format_fraction)
