"""Deterministic decision trees as explicit binary trees.

A tree checks itself when it is made, so every ``DecisionTree`` is valid:
each query names a variable below its arity, paths are read-once (no
variable is queried twice on a root-to-leaf path, so the subcube a leaf's
path fixes has as many fixed variables as the path has queries), and leaf
ids are unique.
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


def _first_violation(node: Node, arity: int, path: int, seen_ids: set) -> str | None:
    """The first violation in preorder below ``node``, whose path has read
    the variables set in the bitmask ``path``: a query of a variable out of
    range, a variable queried twice on one path, or a repeated leaf id.  A
    path holds at most ``arity`` distinct queries before one repeats, so
    the recursion is at most ``arity + 1`` deep."""
    if isinstance(node, Leaf):
        if node.leaf_id in seen_ids:
            return f"DuplicateLeafId:{node.leaf_id}"
        seen_ids.add(node.leaf_id)
        return None
    var = node.query_var
    if not 0 <= var < arity:
        return f"VariableOutOfRange:{var}"
    if path >> var & 1:
        return f"ReadOnce:{var}"
    path |= 1 << var
    return (_first_violation(node.child0, arity, path, seen_ids)
            or _first_violation(node.child1, arity, path, seen_ids))


@dataclass(frozen=True)
class DecisionTree:
    arity: int
    root: Node

    def __post_init__(self):
        violation = _first_violation(self.root, self.arity, 0, set())
        if violation is not None:
            raise QclabError(f"invalid decision tree: {violation}")

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
