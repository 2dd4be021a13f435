import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qclab import lattice
from qclab.core import Dist, ParseError, QclabError, Subcube
from qclab.dtree import DecisionTree, InternalNode, Leaf
from qclab.io import format_tree, parse_tree

from _oracles import (
    Blocks,
    brute_reach_probs,
    make_tree,
    random_dist,
    random_tree,
    split_assignments,
)


def dictator_tree(arity=2, var=0):
    return make_tree(arity, (var, 0, 1))


def xor2_tree():
    return make_tree(2, (0, (1, 0, 1), (1, 1, 0)))


class TestEvaluate:
    def test_single_leaf(self):
        tree = make_tree(3, 1)
        for x in range(8):
            assert tree.evaluate(x) == (1, 0, 0)

    def test_dictator(self):
        tree = dictator_tree()
        label, _, queries = tree.evaluate(0b01)
        assert (label, queries) == (1, 1)
        assert tree.evaluate(0b10)[0] == 0

    def test_xor_full_depth(self):
        tree = xor2_tree()
        label, _, queries = tree.evaluate(0b01)
        assert (label, queries) == (1, 2)

    def test_out_of_range(self):
        with pytest.raises(QclabError):
            dictator_tree().evaluate(4)


def invalid(violation):
    return pytest.raises(QclabError, match=f"^invalid decision tree: {violation}$")


class TestValidate:
    """Every route that makes a tree checks it: the constructor,
    ``make_tree``, ``parse_tree`` and ``dataclasses.replace``.  ``make_tree``
    and ``parse_tree`` number leaves themselves, so neither can repeat an
    id, and ``parse_tree`` reports a variable out of its 1-based range
    before the tree is made."""

    def test_requery_rejected(self):
        root = InternalNode(0, InternalNode(0, Leaf(0, 0), Leaf(1, 1)), Leaf(1, 2))
        with invalid("ReadOnce:0"):
            DecisionTree(2, root)
        with invalid("ReadOnce:0"):
            make_tree(2, (0, (0, 0, 1), 1))
        with invalid("ReadOnce:0"):
            parse_tree("(q 1 (q 1 (leaf 0) (leaf 1)) (leaf 1))", 2)
        with invalid("ReadOnce:0"):
            replace(dictator_tree(), root=root)

    def test_duplicate_leaf_id(self):
        root = InternalNode(0, Leaf(0, 0), Leaf(1, 0))
        with invalid("DuplicateLeafId:0"):
            DecisionTree(2, root)
        with invalid("DuplicateLeafId:0"):
            replace(dictator_tree(), root=root)

    def test_variable_out_of_range(self):
        for var in (2, -1):
            root = InternalNode(var, Leaf(0, 0), Leaf(1, 1))
            with invalid(f"VariableOutOfRange:{var}"):
                DecisionTree(2, root)
            with invalid(f"VariableOutOfRange:{var}"):
                make_tree(2, (var, 0, 1))
            with invalid(f"VariableOutOfRange:{var}"):
                replace(dictator_tree(), root=root)
        with pytest.raises(ParseError, match="variable 3 out of range 1..2"):
            parse_tree("(q 3 (leaf 0) (leaf 1))", 2)
        # narrowing the arity under a tree that queries variable 1
        with invalid("VariableOutOfRange:1"):
            replace(xor2_tree(), arity=1)

    def test_first_violation_in_preorder_is_reported(self):
        # the left subtree reads variable 1 twice; the right repeats leaf id 0
        reread = InternalNode(1, InternalNode(1, Leaf(0, 0), Leaf(1, 1)), Leaf(0, 2))
        with invalid("ReadOnce:1"):
            DecisionTree(2, InternalNode(0, reread, InternalNode(1, Leaf(0, 0), Leaf(1, 3))))
        # swapped, the repeated id comes first
        with invalid("DuplicateLeafId:0"):
            DecisionTree(2, InternalNode(0, InternalNode(1, Leaf(0, 0), Leaf(1, 0)), reread))
        # a query out of range is reported at its node, before the re-read below it
        with invalid("VariableOutOfRange:5"):
            make_tree(2, (0, (5, (0, 0, 1), 1), 1))

    def test_valid_tree(self):
        for tree in (make_tree(3, 1), dictator_tree(), xor2_tree()):
            assert parse_tree(format_tree(tree), tree.arity) == tree
            assert replace(tree, root=tree.root) == tree


def lattice_reach_probs(tree: DecisionTree, block: Blocks, factors: list[Dist]) -> dict:
    """Leaf-reach probabilities when copy i is drawn from ``factors[i]``, as
    the simulator takes them: per copy, the lattice mass of the subcube the
    leaf's path fixes in that copy."""
    tables = []
    for d in factors:
        weights, den = lattice.int_weights(d)
        tables.append((lattice.masses(weights, block.width), den))
    out = {}
    for leaf, path in tree.leaf_paths():
        prob = F(1)
        for (table, den), assigns in zip(tables, split_assignments(block, path)):
            prob *= F(int(table[lattice.index_of(assigns)]), den)
        out[leaf.leaf_id] = prob
    return out


class TestPathSubcube:
    def test_root_is_full_cube(self):
        tree = make_tree(2, 1)
        assert list(tree.leaf_paths()) == [(tree.root, ())]

    def test_child_fixes_one_bit(self):
        tree = make_tree(4, (2, 0, 1))
        child = tree.root.child1
        assert dict(tree.leaf_paths())[child] == ((2, 1),)

    def test_leaf_codim_equals_depth(self):
        rng = random.Random(2)
        for _ in range(20):
            tree = random_tree(rng, 4, 3, 2)
            for leaf, path in tree.leaf_paths():
                cube = Subcube.from_mapping(tree.arity, dict(path))
                assert cube.codim == len(path)


class TestBlockStructure:
    def test_block_subcubes_root(self):
        assert split_assignments(Blocks(2, 2), ()) == [[], []]

    def test_block_subcubes_split(self):
        # leaf path fixes two bits in copy 0 and one bit in copy 1
        tree = make_tree(4, (0, 0, (1, 0, (2, 0, 1))))
        path = dict(tree.leaf_paths())[tree.root.child1.child1.child1]
        per_copy = split_assignments(Blocks(2, 2), path)
        assert per_copy == [[(0, 1), (1, 1)], [(0, 1)]]
        assert sum(len(a) for a in per_copy) == 3


class TestReachProbs:
    def test_single_leaf(self):
        tree = make_tree(2, 7)
        probs = lattice_reach_probs(tree, Blocks(1, 2), [Dist.uniform(2)])
        assert probs == {0: F(1)}

    def test_one_query_uniform(self):
        tree = make_tree(2, (0, 0, 1))
        probs = lattice_reach_probs(tree, Blocks(1, 2), [Dist.uniform(2)])
        assert set(probs.values()) == {F(1, 2)}

    def test_point_mass_indicator(self):
        tree = make_tree(4, (0, (2, 0, 1), (3, 1, 0)))
        block = Blocks(2, 2)
        for x in range(16):
            dists = [Dist.point_mass(2, block.extract(x, i)) for i in range(2)]
            probs = lattice_reach_probs(tree, block, dists)
            _, leaf_id, _ = tree.evaluate(x)
            assert probs[leaf_id] == 1
            assert sum(probs.values()) == 1

    def test_matches_flat_oracle_and_sums_to_one(self):
        rng = random.Random(9)
        block = Blocks(2, 2)
        for _ in range(20):
            tree = random_tree(rng, 4, 3, 2)
            factors = [random_dist(rng, 2), random_dist(rng, 2)]
            flat = Dist(4, tuple(
                factors[0].probs[block.extract(x, 0)] * factors[1].probs[block.extract(x, 1)]
                for x in range(16)
            ))
            got = lattice_reach_probs(tree, block, factors)
            assert got == brute_reach_probs(tree, flat)
            assert sum(got.values()) == 1


class TestMakeTree:
    def test_leaf_ids_unique_dfs(self):
        tree = xor2_tree()
        ids = [leaf.leaf_id for leaf in tree.leaves()]
        assert ids == [0, 1, 2, 3]

    def test_depth(self):
        assert make_tree(3, 0).depth() == 0
        assert xor2_tree().depth() == 2
