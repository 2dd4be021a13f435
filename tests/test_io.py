import random
from fractions import Fraction as F

import pytest

from qclab.core import Dist, ParseError, Relation, and_fn, xor_fn
from qclab.compose import build_instance
from qclab.io import (
    format_dist,
    format_fraction,
    format_relation,
    format_tree,
    format_truth_table,
    parse_dist,
    parse_fraction,
    parse_relation,
    parse_tree,
    parse_truth_table,
    read_instance,
    record_to_json,
    write_instance,
)

from _oracles import random_dist, random_relation, random_tree, random_truth_table


class TestFractions:
    def test_roundtrip(self):
        for x in (F(0), F(1), F(3, 7), F(-2, 5)):
            assert parse_fraction(format_fraction(x)) == x

    def test_integer_form(self):
        assert parse_fraction(" 3 ") == 3

    def test_bad_input(self):
        # the last one passes the interpreter's int-parsing digit limit
        for text in ("a/b", "1/0", "1/2/3", "", "9" * 5000):
            with pytest.raises(ParseError):
                parse_fraction(text)

    def test_format_beyond_int_str_limit(self):
        big = 10**4999 + 1  # 5,000 digits
        assert format_fraction(F(big, 7)) == "1" + "0" * 4998 + "1/7"
        assert format_fraction(F(-big, 7)) == "-1" + "0" * 4998 + "1/7"


class TestTruthTableFormat:
    def test_roundtrip(self):
        rng = random.Random(1)
        for m in (1, 2, 3):
            g = random_truth_table(rng, m)
            assert parse_truth_table(format_truth_table(g)) == g

    def test_format_example(self):
        assert format_truth_table(and_fn(2)) == "arity=2\n0001\n"

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_truth_table("arity=2\n001\n")
        with pytest.raises(ParseError):
            parse_truth_table("arity=x\n00\n")
        with pytest.raises(ParseError):
            parse_truth_table("0011\n")


class TestRelationFormat:
    def test_roundtrip(self):
        rng = random.Random(2)
        for _ in range(5):
            rel = random_relation(rng, 2, 3)
            assert parse_relation(format_relation(rel)) == rel

    def test_leftmost_char_is_first_variable(self):
        rel = Relation.from_function(and_fn(2))
        text = format_relation(rel)
        # input 10 means x1=1, x2=0, which is index 1
        assert "10: 0" in text

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_relation("arity=1 alphabet=2\n0: 0\n")  # missing input 1
        with pytest.raises(ParseError):
            parse_relation("arity=1 alphabet=2\n0: 0\n0: 1\n1: 0\n")
        with pytest.raises(ParseError):
            parse_relation("arity=1\n0: 0\n1: 0\n")


class TestDistFormat:
    def test_roundtrip(self):
        rng = random.Random(3)
        for k in (1, 2, 3):
            mu = random_dist(rng, k)
            assert parse_dist(format_dist(mu)) == mu

    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_dist("arity=1\n1/2\nnope\n")

    def test_wrong_count(self):
        with pytest.raises(ParseError):
            parse_dist("arity=2\n1/2\n1/2\n")

    def test_not_a_distribution(self):
        with pytest.raises(Exception):
            parse_dist("arity=1\n1/2\n1/3\n")


class TestTreeFormat:
    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(10):
            tree = random_tree(rng, 4, 3, 3)
            text = format_tree(tree)
            again = parse_tree(text, 4)
            assert format_tree(again) == text

    def test_one_based_variables(self):
        tree = parse_tree("(q 1 (leaf 0) (leaf 1))", 2)
        assert tree.root.query_var == 0

    def test_whitespace_insensitive(self):
        a = parse_tree("(q 2(leaf 0)(q 1(leaf 1)(leaf 0)))", 2)
        b = parse_tree("  ( q 2 ( leaf 0 )\n ( q 1 ( leaf 1 ) ( leaf 0 ) ) )  ", 2)
        assert format_tree(a) == format_tree(b)

    def test_errors(self):
        for text in ("(q 3 (leaf 0) (leaf 1))", "(leaf 0) extra", "(q 1 (leaf 0))",
                     "(q 1 (q 1 (leaf 0) (leaf 1)) (leaf 0))"):
            with pytest.raises(Exception):
                parse_tree(text, 2)


class TestInstanceManifest:
    def test_roundtrip(self, tmp_path):
        inst = build_instance(
            Relation.from_function(xor_fn(2)), xor_fn(2),
            Dist.uniform(2), Dist.uniform(2), epsilon=F(1, 4),
        )
        manifest = write_instance(inst, tmp_path / "inst")
        again = read_instance(manifest)
        assert again == inst

    def test_tampered_complexity_detected(self, tmp_path):
        inst = build_instance(
            Relation.from_function(xor_fn(2)), xor_fn(2),
            Dist.uniform(2), Dist.uniform(2), epsilon=F(1, 4),
        )
        manifest = write_instance(inst, tmp_path / "inst")
        text = manifest.read_text().replace('"inner_complexity": 2', '"inner_complexity": 1')
        manifest.write_text(text)
        with pytest.raises(ParseError):
            read_instance(manifest)


class TestRecords:
    def test_fractions_serialized_exactly(self):
        line = record_to_json({"p": F(1, 3), "xs": [F(1, 2), 4], "d": {2: F(0)}})
        assert '"1/3"' in line and '"1/2"' in line and '"0/1"' in line

    def test_byte_stable(self):
        record = {"b": F(1, 7), "a": [1, 2], "c": {"y": 1, "x": 2}}
        assert record_to_json(record) == record_to_json(dict(reversed(record.items())))
