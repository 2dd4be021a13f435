import json
from fractions import Fraction as F

import pytest

from qclab.cli import main
from qclab.core import Dist, Relation, and_fn, identity1, xor_fn
from qclab.io import format_dist, format_relation, format_truth_table


@pytest.fixture()
def files(tmp_path):
    paths = {
        "g_xor2": tmp_path / "g_xor2.tt",
        "g_and2": tmp_path / "g_and2.tt",
        "f_id1": tmp_path / "f_id1.rel",
        "mu_u2": tmp_path / "mu_u2.dist",
        "tree": tmp_path / "tree.sexp",
        "out": tmp_path / "report.jsonl",
    }
    paths["g_xor2"].write_text(format_truth_table(xor_fn(2)))
    paths["g_and2"].write_text(format_truth_table(and_fn(2)))
    paths["f_id1"].write_text(format_relation(Relation.from_function(identity1())))
    paths["mu_u2"].write_text(format_dist(Dist.uniform(2)))
    paths["tree"].write_text("(q 1 (q 2 (leaf 0) (leaf 1)) (q 2 (leaf 1) (leaf 0)))\n")
    return {k: str(v) for k, v in paths.items()}


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestDce:
    def test_xor_depth_two(self, files):
        code = main(["dce", "--g", files["g_xor2"], "--mu", files["mu_u2"],
                     "--eps", "1/4", "--out", files["out"]])
        assert code == 0
        (record,) = read_records(files["out"])
        assert record["depth"] == 2
        assert record["success"] == "1/1"

    def test_identity(self, files, tmp_path):
        g1 = tmp_path / "id.tt"
        g1.write_text(format_truth_table(identity1()))
        mu1 = tmp_path / "u1.dist"
        mu1.write_text(format_dist(Dist.uniform(1)))
        code = main(["dce", "--g", str(g1), "--mu", str(mu1),
                     "--eps", "1/4", "--out", files["out"]])
        assert code == 0
        (record,) = read_records(files["out"])
        assert record["depth"] == 1

    def test_bad_file_reports_error(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.tt"
        bad.write_text("arity=2\n001\n")
        code = main(["dce", "--g", str(bad), "--mu", files["mu_u2"], "--eps", "1/4"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, files):
        code = main(["dce", "--g", "/nonexistent.tt", "--mu", files["mu_u2"],
                     "--eps", "1/4"])
        assert code == 2


class TestRqc:
    def test_xor_certified(self, files):
        code = main(["rqc", "--g", files["g_xor2"], "--eps", "1/3",
                     "--out", files["out"]])
        assert code == 0
        (record,) = read_records(files["out"])
        assert record["depth"] == 2
        assert record["certified_depth"] >= 2
        assert not record["limit_hit"]

    def test_long_game_prints_exact_values(self, tmp_path):
        # 169 game rounds: upper_value's terms pass 4,300 decimal digits
        g = tmp_path / "g.tt"
        g.write_text("arity=4\n1110110000100110\n")
        out = tmp_path / "out.jsonl"
        code = main(["rqc", "--g", str(g), "--eps", "1/3", "--out", str(out)])
        assert code == 0
        (record,) = read_records(out)
        assert record["passed"] is True
        assert len(record["upper_value"]) > 4300


class TestBuildInstance:
    def test_manifest_written(self, files, tmp_path, capsys):
        out_dir = tmp_path / "inst"
        code = main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--eps", "1/4", "--out", str(out_dir)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["inner_complexity"] == 2
        assert (out_dir / "instance.json").exists()

    def test_inner_complexity_zero(self, files, capsys):
        code = main(["build-instance", "--g", files["g_and2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--eps", "1/3"])
        assert code == 2
        assert "zero-query" in capsys.readouterr().err


class TestInputErrors:
    """Malformed input ends as exit 2 with an ``error:`` line."""

    @pytest.fixture()
    def manifest(self, files, tmp_path):
        out_dir = tmp_path / "inst"
        assert main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--eps", "1/4", "--out", str(out_dir)]) == 0
        return out_dir / "instance.json"

    def simulate(self, manifest, files, capsys):
        capsys.readouterr()
        code = main(["simulate", "--instance", str(manifest), "--tree", files["tree"]])
        return code, capsys.readouterr().err

    def test_manifest_without_f(self, manifest, files, capsys):
        data = json.loads(manifest.read_text())
        del data["f"]
        manifest.write_text(json.dumps(data))
        code, err = self.simulate(manifest, files, capsys)
        assert code == 2
        assert err.startswith("error: manifest")

    def test_manifest_not_an_object(self, manifest, files, capsys):
        manifest.write_text("[1, 2]")
        code, err = self.simulate(manifest, files, capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_tree_nested_deeper_than_arity(self, files, tmp_path, capsys):
        deep = tmp_path / "deep.sexp"
        deep.write_text("(q 1 " * 3000 + "(leaf 0)" + " (leaf 1))" * 3000)
        code = main(["simulate", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--tree", str(deep),
                     "--eps", "1/4", "--theta", "1/2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tree deeper")

    def test_one_bit_outer_needs_eps(self, files, tmp_path, capsys):
        code = main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--out", str(tmp_path / "inst")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pass --eps" in err


class TestSimulate:
    def test_reports_and_chain(self, files):
        code = main(["simulate", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--tree", files["tree"],
                     "--eps", "1/4", "--theta", "1/2", "--seed", "11",
                     "--out", files["out"]])
        assert code == 0
        records = read_records(files["out"])
        kinds = [r["record"] for r in records]
        assert kinds == ["simulate-z", "simulate-z", "success-chain"]
        chain = records[-1]
        assert chain["success_outer"] == "1/1"
        assert chain["success_sim"] == "1/1"

    def test_byte_identical_reruns(self, files, tmp_path):
        args = ["simulate", "--g", files["g_xor2"], "--f", files["f_id1"],
                "--mu", files["mu_u2"], "--tree", files["tree"],
                "--eps", "1/4", "--theta", "1/2", "--seed", "11"]
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerify:
    def test_sweeps_small(self, files):
        code = main(["verify", "--m", "2", "--out", files["out"]])
        assert code == 0
        records = read_records(files["out"])
        names = {r["record"] for r in records}
        assert names == {"sweep-unbias", "sweep-rbias", "sweep-fullbias"}
        assert all(r["violations"] == 0 for r in records)


class TestXorStack:
    def test_writes_table(self, files, tmp_path, capsys):
        out = tmp_path / "stack.tt"
        code = main(["xor-stack", "--g", files["g_xor2"], "--t", "2",
                     "--out", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["arity"] == 4
        assert out.read_text().splitlines()[0] == "arity=4"

    def test_depth_reported(self, files, capsys):
        code = main(["xor-stack", "--g", files["g_xor2"], "--t", "1",
                     "--eps", "7/16"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["depth"] == 2
