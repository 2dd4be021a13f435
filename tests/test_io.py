import json
import random
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from qclab import lattice
from qclab.cli import main
from qclab.core import Dist, ParseError, QclabError, Relation, and_fn, identity1, xor_fn
from qclab.compose import build_instance
from qclab.io import (
    format_dist,
    format_fraction,
    format_ratio,
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

from _oracles import (
    line_numerators,
    line_parse_dist,
    line_parse_relation,
    random_dist,
    random_relation,
    random_tree,
    random_truth_table,
)


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
        assert format_ratio(3, big) == "3/1" + "0" * 4998 + "1"

    def test_str_digits_are_decimal_digits(self):
        # below the interpreter's digit limit, str() prints what Decimal does
        rng = random.Random(41)
        for _ in range(10_000):
            bits = rng.choice((1, 8, 63, 64, 65, 300, 4000))
            x = F(rng.randrange(-(1 << bits), 1 << bits), rng.randrange(1, 1 << bits))
            assert format_fraction(x) == f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


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
        with pytest.raises(ParseError, match="bad label list on line 2"):
            parse_relation("arity=1 alphabet=2\n0: x\n1: 0\n")


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


# Each bad value repeats on later lines, which read it from the parse's
# shared values: the error still names the first line or input that has it.
REL = "arity=2 alphabet=3\n"


@pytest.mark.parametrize("parse, text, error, message", [
    (parse_relation, REL + "00: 0\n0x: 1\n0x: 1\n11: 1\n", ParseError,
     "bad input bitstring '0x' (line 3)"),
    (parse_relation, REL + "00: 0\n10: 1\n00: 1\n00: 1\n11: 1\n", ParseError,
     "duplicate input '00' (line 4)"),
    (parse_relation, REL + "00: 0\n10: 1,x\n01: 1,x\n11: 1,x\n", ParseError,
     "bad label list on line 3"),
    # out of range on inputs 3 (line 3) and 1 (line 4): the lowest input is named
    (parse_relation, REL + "00: 0\n11: 0,3\n10: 0,3\n01: 0,3\n", QclabError,
     "label out of range at input 1"),
    (parse_relation, REL + "00: 0\n11:\n01: 1\n10:\n", QclabError,
     "accepted set empty at input 1"),
    (parse_dist, "arity=2\n1/4\n1/x\n1/4\n1/x\n", ParseError, "bad rational '1/x' (line 3)"),
    (parse_dist, "arity=2\n3/4\n-1/4\n1/4\n-1/4\n", QclabError, "negative probability"),
    (parse_dist, "arity=2\n1/4\n1/3\n1/4\n1/3\n", QclabError,
     "probabilities must sum to exactly 1"),
], ids=["bitstring", "duplicate", "label-list", "label-range", "empty-set", "rational",
        "negative", "sum"])
def test_repeated_bad_value_raises_at_its_first_line(parse, text, error, message):
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("few", [True, False], ids=["few-values", "all-distinct"])
def test_parsers_match_line_by_line_reference(few):
    """Parsed objects equal those of a parser that reads every line afresh,
    and so do the distribution's integer numerators, whether the files
    repeat a few values or none."""
    rng = random.Random(29 + few)
    for arity in (1, 3, 6, 8):
        n = 1 << arity
        if few:
            lists = [frozenset(rng.sample(range(3), rng.randint(1, 3))) for _ in range(3)]
            accepted = [rng.choice(lists) for _ in range(n)]
            weights = [rng.randint(0, 3) or 1 for _ in range(n)]
        else:
            # a distinct label set per input, and distinct weights over
            # distinct denominators
            accepted = [frozenset((x, n + x % 3)) for x in range(n)]
            weights = [F(rng.randint(1, 10**6), d) for d in rng.sample(range(1, 10 * n), n)]
        rel = Relation(arity, n + 3, tuple(accepted))
        mu = Dist.from_weights(weights)
        rel_text, mu_text = format_relation(rel), format_dist(mu)
        assert parse_relation(rel_text) == line_parse_relation(rel_text) == rel
        parsed = parse_dist(mu_text)
        assert parsed == line_parse_dist(mu_text) == mu
        assert parsed.numerators() == line_numerators(mu)
        if few:
            assert len(set(rel.accepted)) <= 3 and len(set(mu.probs)) <= 3
        else:
            assert len(set(rel.accepted)) == len(set(mu.probs)) == n


def test_numerators_are_the_callers_own():
    mu = parse_dist("arity=2\n1/4\n1/2\n1/8\n1/8\n")
    nums, den = mu.numerators()
    assert (nums, den) == ([2, 4, 1, 1], 8)
    nums[0] = 99
    nums.append(5)
    assert mu.numerators() == ([2, 4, 1, 1], 8)
    weights, den = lattice.int_weights(mu)
    assert weights.tolist() == [2, 4, 1, 1] and den == 8


class TestIntegerGrammar:
    """Every integer field reads ASCII ``-?[0-9]+`` after stripping, and a
    rational adds ``/[0-9]+``: what the formatters write.  ``int`` would
    also take other scripts' digits, underscores, a plus sign and inner
    spaces."""

    BAD_INTS = ("\u0662", "1_0", "+1", "1 0", "\u0661\u0660", "0x1", "")

    def test_fractions(self):
        assert parse_fraction(" -3/4 ") == F(-3, 4) and parse_fraction("007/014") == F(1, 2)
        for text in ("\u0661/\u0664", "1_000/3000", "+1/2", "1/+2", "1/-2", "1 /2", "1/ 2",
                     "- 1/2", "1/", "/2", "1.5", "\u0661"):
            with pytest.raises(ParseError, match="bad rational"):
                parse_fraction(text)

    def test_headers(self):
        for bad in self.BAD_INTS:
            with pytest.raises(ParseError, match=r"\(line 1\)$"):
                parse_truth_table(f"arity={bad}\n00\n")
            with pytest.raises(ParseError, match=r"\(line 1\)$"):
                parse_relation(f"arity=1 alphabet={bad}\n0: 0\n1: 0\n")
        with pytest.raises(ParseError, match=r"arity -1 is below 0 \(line 1\)"):
            parse_dist("arity=-1\n1\n")

    def test_relation_labels(self):
        assert parse_relation("arity=1 alphabet=3\n0:  0 , 2\n1: 1,,\n").accepted == (
            frozenset({0, 2}), frozenset({1}))
        for bad in self.BAD_INTS[:-1]:
            with pytest.raises(ParseError, match="bad label list on line 3"):
                parse_relation(f"arity=1 alphabet=3\n0: 0\n1: 1,{bad}\n")

    def test_dist_lines(self):
        for bad in ("\u0661/\u0664", "1_0/40", "+1/4"):
            with pytest.raises(ParseError, match=f"bad rational .* \\(line 4\\)$"):
                parse_dist(f"arity=2\n1/4\n1/4\n{bad}\n1/4\n")

    def test_tree_tokens(self):
        assert format_tree(parse_tree("(q 1 (leaf -1) (leaf 2))", 1)) == "(q 1 (leaf -1) (leaf 2))\n"
        for bad in ("\u0662", "1_0", "+1"):
            with pytest.raises(ParseError, match="expected integer"):
                parse_tree(f"(q 1 (leaf {bad}) (leaf 0))", 1)
            with pytest.raises(ParseError, match="expected integer"):
                parse_tree(f"(q {bad} (leaf 0) (leaf 0))", 2)

    def test_cli_exits_2_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "g.tt").write_text("arity=2\n0110\n")
        (tmp_path / "mu.dist").write_text("arity=2\n1/4\n1/4\n1/4\n\u0661/\u0664\n")
        assert main(["dce", "--g", str(tmp_path / "g.tt"), "--mu", str(tmp_path / "mu.dist"),
                     "--eps", "1/4"]) == 2
        assert capsys.readouterr().err == "error: bad rational '\u0661/\u0664' (line 5)\n"
        assert main(["dce", "--g", str(tmp_path / "g.tt"), "--mu", str(tmp_path / "mu.dist"),
                     "--eps", "1_0/40"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--m"],
        ["xor-stack", "--g", str(Path(__file__).parent / "data" / "verdicts" / "g.tt"), "--t"],
        ["simulate", "--seed"],
    ], ids=["m", "t", "seed"])
    def test_cli_integer_flags(self, capsys, argv):
        # argparse's int ran xor-stack --t \u0662 with t = 2 and read
        # verify --m 1_0 as 10
        command, flag = argv[0], argv[-1]
        for bad in self.BAD_INTS:
            assert main([*argv, bad]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: {command} {flag} needs an integer, got {bad!r}\n" if bad
                else f"error: {command} got an empty value for {flag}\n")


@pytest.mark.parametrize("parse, header", [
    (parse_truth_table, "arity=2"), (parse_relation, "arity=1 alphabet=2"), (parse_dist, "arity=1"),
])
def test_bad_headers_name_line_1(parse, header):
    """One header reader serves the three table formats: line 1 must be
    exactly their ``key=<int>`` fields, in order."""
    for bad in ("", "arity", "arity=x", "arity=1=1", "arity: 1", "alphabet=2 arity=1",
                f"{header} extra=1"):
        with pytest.raises(ParseError, match=r"\(line 1\)$"):
            parse(bad + "\n0\n")


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

    def test_one_level_deeper_than_the_arity(self):
        """The parser refuses the third query of a 2-bit tree itself, before
        the tree's own read-once check would."""
        parse_tree("(q 1 (q 2 (leaf 0) (leaf 1)) (leaf 1))", 2)
        with pytest.raises(ParseError) as info:
            parse_tree("(q 1 (q 2 (q 1 (leaf 0) (leaf 1)) (leaf 0)) (leaf 1))", 2)
        assert str(info.value) == "tree deeper than its arity 2"


class TestInstanceManifest:
    def test_roundtrip(self, tmp_path):
        inst = build_instance(
            Relation.from_function(xor_fn(2)), xor_fn(2),
            Dist.uniform(2), Dist.uniform(2), epsilon=F(1, 4),
        )
        manifest = write_instance(inst, tmp_path / "inst")
        again = read_instance(manifest)
        assert again == inst

    def test_failed_manifest_write_leaves_no_files_of_its_own(self, tmp_path, monkeypatch):
        inst = build_instance(
            Relation.from_function(xor_fn(2)), xor_fn(2),
            Dist.uniform(2), Dist.uniform(2), epsilon=F(1, 4),
        )
        write_instance(inst, tmp_path / "inst")

        def fail(src, dst):
            raise OSError("no room")

        monkeypatch.setattr(Path, "replace", fail)
        with pytest.raises(OSError, match="no room"):
            write_instance(inst, tmp_path / "inst")
        names = sorted(p.name for p in (tmp_path / "inst").iterdir())
        assert names == ["f.rel", "g.tt", "lambda.dist", "mu.dist"]

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

    @pytest.mark.parametrize("inner, key, value", [
        (xor_fn(2), "n", 7), (xor_fn(2), "m", 9), (xor_fn(2), "inner_complexity", 3),
        (xor_fn(2), "n", 2.0), (xor_fn(2), "m", 2.0), (xor_fn(2), "inner_complexity", 2.0),
        (xor_fn(2), "n", "2"), (xor_fn(2), "m", None),
        (identity1(), "m", True), (identity1(), "inner_complexity", True),
    ])
    def test_tampered_counts_detected(self, tmp_path, inner, key, value):
        """n, m and the inner complexity must equal the rebuilt instance's,
        as JSON integers: 2.0 and true compare equal to 2 and 1 in Python."""
        inst = build_instance(
            Relation.from_function(xor_fn(2)), inner,
            Dist.uniform(inner.arity), Dist.uniform(2), epsilon=F(1, 4),
        )
        manifest = write_instance(inst, tmp_path / "inst")
        fields = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**fields, key: value}))
        with pytest.raises(ParseError, match=f"^manifest {key} "):
            read_instance(manifest)


class TestRecords:
    def test_fractions_serialized_exactly(self):
        line = record_to_json({"p": F(1, 3), "xs": [F(1, 2), 4], "d": {2: F(0)}})
        assert '"1/3"' in line and '"1/2"' in line and '"0/1"' in line

    def test_byte_stable(self):
        record = {"b": F(1, 7), "a": [1, 2], "c": {"y": 1, "x": 2}}
        assert record_to_json(record) == record_to_json(dict(reversed(record.items())))
