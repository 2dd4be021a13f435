"""Deterministic decision trees as explicit binary trees.

Trees are immutable after validation.  Paths are read-once: no variable is
queried twice on a root-to-leaf path, so the subcube a leaf's path fixes
has as many fixed variables as the path has queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .core import ArityMismatch, QclabError


@dataclass(frozen=True)
class Leaf:
    label: int
    leaf_id: int


@dataclass(frozen=True)
class InternalNode:
    query_var: int  # 0-based flat variable index
    child0: "Node"
    child1: "Node"


Node = Union[Leaf, InternalNode]


@dataclass(frozen=True)
class Validation:
    ok: bool
    violation: str | None = None


@dataclass(frozen=True)
class DecisionTree:
    arity: int
    root: Node

    def validate(self) -> Validation:
        """Check read-once paths, unique leaf ids and the depth bound."""
        seen_ids = set()

        def walk(node: Node, path_vars: frozenset) -> str | None:
            if isinstance(node, Leaf):
                if node.leaf_id in seen_ids:
                    return f"DuplicateLeafId:{node.leaf_id}"
                seen_ids.add(node.leaf_id)
                return None
            if not 0 <= node.query_var < self.arity:
                return f"VariableOutOfRange:{node.query_var}"
            if node.query_var in path_vars:
                return f"ReadOnce:{node.query_var}"
            extended = path_vars | {node.query_var}
            return walk(node.child0, extended) or walk(node.child1, extended)

        violation = walk(self.root, frozenset())
        return Validation(ok=violation is None, violation=violation)

    def require_valid(self) -> "DecisionTree":
        v = self.validate()
        if not v.ok:
            raise QclabError(f"invalid decision tree: {v.violation}")
        return self

    def evaluate(self, x: int) -> tuple[int, int, int]:
        """Follow ``x`` to a leaf; returns (label, leaf_id, queries made)."""
        if not 0 <= x < (1 << self.arity):
            raise ArityMismatch(f"point {x} out of range for arity {self.arity}")
        node = self.root
        queries = 0
        while isinstance(node, InternalNode):
            queries += 1
            node = node.child1 if (x >> node.query_var) & 1 else node.child0
        return node.label, node.leaf_id, queries

    def output(self, x: int) -> int:
        return self.evaluate(x)[0]

    def depth(self) -> int:
        def d(node: Node) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(d(node.child0), d(node.child1))

        return d(self.root)

    def leaves(self) -> Iterator[Leaf]:
        for leaf, _ in self.leaf_paths():
            yield leaf

    def leaf_paths(self) -> Iterator[tuple[Leaf, tuple[tuple[int, int], ...]]]:
        """Yield each leaf with its root-to-leaf assignment sequence, in
        path order as ``(query_var, branch_bit)`` pairs."""

        def walk(node: Node, path: tuple):
            if isinstance(node, Leaf):
                yield node, path
            else:
                yield from walk(node.child0, path + ((node.query_var, 0),))
                yield from walk(node.child1, path + ((node.query_var, 1),))

        yield from walk(self.root, ())


def make_tree(arity: int, root_spec) -> DecisionTree:
    """Build a tree from a nested spec: a leaf label ``int`` or a triple
    ``(var, spec0, spec1)``.  Leaf ids are assigned in depth-first order."""
    counter = [0]

    def build(spec) -> Node:
        if isinstance(spec, int):
            leaf = Leaf(spec, counter[0])
            counter[0] += 1
            return leaf
        var, s0, s1 = spec
        return InternalNode(var, build(s0), build(s1))

    return DecisionTree(arity, build(root_spec)).require_valid()

