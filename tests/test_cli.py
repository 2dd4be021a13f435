import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qclab
from qclab import cli, complexity, simulate
from qclab.cli import build_parser, main
from qclab.core import (
    CapExceeded,
    Dist,
    HypothesisViolated,
    ParseError,
    QclabError,
    Relation,
    and_fn,
    identity1,
    maj3,
    xor_fn,
)
from qclab.io import format_dist, format_relation, format_truth_table, read_instance
from qclab.sweeps import sweep_unbias


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


@pytest.fixture()
def dp_solves(monkeypatch):
    """Every ``_TreeDP`` built, as its point weights over their denominator
    and whether the game built it: ``_tree_dp`` builds every DP outside it."""
    solves = []
    init = complexity._TreeDP.__init__

    def spy(self, accepts, weights, den):
        in_game = sys._getframe(1).f_code is not complexity._tree_dp.__code__
        solves.append(([F(w, den) for w in weights.tolist()], in_game))
        init(self, accepts, weights, den)

    monkeypatch.setattr(complexity._TreeDP, "__init__", spy)
    return solves


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

    @pytest.mark.parametrize("problem", ["--g", "--f"])
    def test_one_dp_per_run(self, files, tmp_path, dp_solves, problem):
        path = files["g_xor2"]
        if problem == "--f":
            path = str(tmp_path / "xor2.rel")
            Path(path).write_text(format_relation(Relation.from_function(xor_fn(2))))
        assert main(["dce", problem, path, "--mu", files["mu_u2"],
                     "--eps", "1/4", "--out", files["out"]]) == 0
        assert read_records(files["out"])[0]["depth"] == 2
        assert dp_solves == [([F(1, 4)] * 4, False)]

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


_COMPOSED = ["--g", "{g}", "--mu", "{mu}", "--tree", "{tree}", "--eps", "7/16"]


@pytest.mark.parametrize("command", [
    ["dce", "--mu", "{mu}", "--eps", "1/4"],
    ["rqc", "--eps", "1/3"],
    ["simulate", *_COMPOSED, "--theta", "1/2"],
    ["verify", "--m", "1", *_COMPOSED],
])
def test_alphabet_size_does_not_set_the_dp(files, tmp_path, capsys, command):
    """A relation header's alphabet size is read unchecked: the DP builds
    rows only up to the largest accepted label, and the simulator's success
    accounting one column per label on the tree's leaves, so a 10^12-label
    header gives the records of the same relation with alphabet 2."""
    tree = tmp_path / "tree4.sexp"
    tree.write_text("(q 1 (q 3 (leaf 0) (leaf 1)) (q 3 (leaf 1) (leaf 0)))\n")
    outputs = []
    for alphabet in (10**12, 2):
        rel = tmp_path / f"a{alphabet}.rel"
        rel.write_text(f"arity=2 alphabet={alphabet}\n00: 0\n01: 1\n10: 1\n11: 0,1\n")
        argv = [arg.format(mu=files["mu_u2"], g=files["g_xor2"], tree=tree) for arg in command]
        assert main([*argv, "--f", str(rel)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", [
    ["dce", "--mu", "{mu}", "--eps", "1/4"],
    ["rqc", "--eps", "1/3"],
])
def test_label_values_do_not_set_the_dp(files, tmp_path, capsys, command):
    """The DP builds one row per accepted label, not one per label up to
    the largest: a relation that accepts {0, 200000} gives the records of
    the same relation with 200000 relabelled 1, but for the witness's
    label."""
    outputs = []
    for label in (200000, 1):
        rel = tmp_path / f"l{label}.rel"
        rel.write_text(f"arity=2 alphabet={label + 1}\n"
                       f"00: 0\n01: {label}\n10: {label}\n11: 0,{label}\n")
        argv = [arg.format(mu=files["mu_u2"]) for arg in command]
        assert main([*argv, "--f", str(rel)]) == 0
        outputs.append(capsys.readouterr().out)
    assert "(leaf 200000)" in outputs[0]
    assert outputs[0].replace("(leaf 200000)", "(leaf 1)") == outputs[1]


class TestRqc:
    def test_xor_certified(self, files):
        code = main(["rqc", "--g", files["g_xor2"], "--eps", "1/3",
                     "--out", files["out"]])
        assert code == 0
        (record,) = read_records(files["out"])
        assert record["depth"] == 2
        assert record["certified_depth"] >= 2
        assert not record["limit_hit"]

    def test_certificate_reuses_the_game_dp(self, files, dp_solves):
        # every depth's first round shares the uniform DP, and certified_depth
        # comes from the rejecting round's DP, so one DP is solved in all
        assert main(["rqc", "--g", files["g_xor2"], "--eps", "1/3",
                     "--out", files["out"]]) == 0
        assert read_records(files["out"])[0]["certified_depth"] == 2
        assert dp_solves == [([F(1, 4)] * 4, True)]

    def test_long_game_prints_exact_values(self, tmp_path):
        # 268 game rounds: upper_value's terms pass 4,300 decimal digits
        g = tmp_path / "g.tt"
        g.write_text("arity=4\n1011001111110010\n")
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

    def test_failed_write_leaves_no_manifest(self, files, tmp_path, capsys):
        # the old manifest named the new g.tt beside the old f.rel
        out_dir = tmp_path / "inst"
        build = ["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                 "--mu", files["mu_u2"], "--eps", "1/4", "--out", str(out_dir)]
        assert main(build) == 0
        (out_dir / "f.rel").unlink()
        (out_dir / "f.rel").mkdir()
        capsys.readouterr()
        assert main(build) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("i/o error: ")
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["f.rel", "g.tt", "lambda.dist", "mu.dist"]

    def test_no_dp_after_the_game(self, files, tmp_path, capsys, dp_solves):
        # the instance's inner complexity is the certificate the game read
        # off its own DP of the hard distribution
        out_dir = tmp_path / "inst"
        assert main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--eps", "1/4", "--out", str(out_dir)]) == 0
        solves = list(dp_solves)
        assert solves and all(in_game for _, in_game in solves)
        assert list(read_instance(out_dir / "instance.json").mu.probs) in [p for p, _ in solves]
        assert json.loads(capsys.readouterr().out)["inner_complexity"] == 2

    def test_one_dp_with_a_given_distribution(self, files, tmp_path, dp_solves):
        assert main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--eps", "1/4",
                     "--out", str(tmp_path / "inst")]) == 0
        assert dp_solves == [([F(1, 4)] * 4, False)]

    def test_default_theta_passes_verify(self, files, tmp_path):
        # a one-bit outer relation took theta 2/1^2 = 2, which verify rejects;
        # at eps 7/16 the default 1/2 is lilsnip's 2*sqrt(1/2 - eps)
        out_dir = tmp_path / "inst"
        assert main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--eps", "7/16", "--out", str(out_dir)]) == 0
        assert main(["verify", "--m", "1", "--instance", str(out_dir / "instance.json"),
                     "--tree", files["tree"], "--out", files["out"]]) == 0

    def test_theta_follows_eps_and_passes_verify(self, files, tmp_path):
        # theta was 2/n^2 = 2/9 whatever eps, and verify exited 2 with
        # "instance theta is not 2*sqrt(1/2 - epsilon)"
        maj = tmp_path / "maj3.rel"
        maj.write_text(format_relation(Relation.from_function(maj3())))
        out_dir = tmp_path / "inst"
        assert main(["build-instance", "--g", files["g_xor2"], "--f", str(maj),
                     "--eps", "7/16", "--out", str(out_dir)]) == 0
        assert read_instance(out_dir / "instance.json").theta == F(1, 2)
        assert main(["verify", "--m", "1", "--instance", str(out_dir / "instance.json"),
                     "--tree", files["tree"], "--out", files["out"]]) == 0

    def test_wrong_arity_lambda_plays_no_game(self, files, tmp_path, capsys, monkeypatch):
        # the game ran first, then build_instance rejected --lambda
        rounds = []
        solve_game = complexity._solve_game

        def game(*args):
            rounds.append(args)
            return solve_game(*args)

        monkeypatch.setattr(complexity, "_solve_game", game)
        code = main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--lambda", files["mu_u2"], "--eps", "1/4",
                     "--out", str(tmp_path / "inst")])
        assert code == 2
        assert capsys.readouterr().err == "error: outer distribution arity mismatch\n"
        assert rounds == []

    def test_inner_complexity_zero(self, files, capsys):
        code = main(["build-instance", "--g", files["g_and2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--eps", "1/3"])
        assert code == 2
        assert "zero-query" in capsys.readouterr().err


VERDICTS = Path(__file__).parent / "data" / "verdicts"
# the verdict fixture's instance, its tree aside
INSTANCE_FLAGS = ["--g", "{v}/g.tt", "--f", "{v}/f.rel", "--mu", "{v}/mu.dist",
                  "--eps", "7/16", "--theta", "1/2"]


class TestInputErrors:
    """Malformed input ends as exit 2 with an ``error:`` line."""

    @pytest.fixture()
    def manifest(self, files, tmp_path):
        out_dir = tmp_path / "inst"
        assert main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--eps", "1/4", "--out", str(out_dir)]) == 0
        return out_dir / "instance.json"

    def simulate(self, manifest, files, capsys, *flags):
        capsys.readouterr()
        code = main(["simulate", "--instance", str(manifest), "--tree", files["tree"], *flags])
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

    def test_tree_read_twice(self, files, tmp_path, capsys):
        reread = tmp_path / "reread.sexp"
        reread.write_text("(q 1 (q 1 (leaf 0) (leaf 1)) (leaf 1))\n")
        inputs = [str(reread) if arg.endswith("tree.sexp") else arg for arg in VERDICT_INPUTS]
        for argv in (["simulate", *inputs], ["verify", "--m", "1", *inputs]):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr() == ("", "error: invalid decision tree: ReadOnce:0\n")

    def test_tree_label_outside_f_alphabet(self, tmp_path, capsys):
        # f.rel has alphabet 2: these leaves can never be accepted, yet the
        # success-chain record read "passed": true
        stray = tmp_path / "stray.sexp"
        stray.write_text("(q 1 (leaf 7) (leaf -1))\n")
        inputs = [str(stray) if arg.endswith("tree.sexp") else arg for arg in VERDICT_INPUTS]
        for argv in (["simulate", *inputs], ["verify", "--m", "1", *inputs]):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr() == ("", "error: tree label 7 is outside f's alphabet 0..1\n")

    def test_negative_theta(self, manifest, files, tmp_path, capsys):
        # build-instance wrote "theta": "-1/2" and exited 0
        flags = ["--g", files["g_xor2"], "--f", files["f_id1"], "--mu", files["mu_u2"],
                 "--eps", "1/4", "--theta=-1/2"]
        data = json.loads(manifest.read_text())
        data["theta"] = "-1/2"
        manifest.write_text(json.dumps(data))
        for argv in (
            ["build-instance", *flags, "--out", str(tmp_path / "neg")],
            ["simulate", *flags, "--tree", files["tree"]],
            ["verify", "--m", "1", *flags, "--tree", files["tree"]],
            ["simulate", "--instance", str(manifest), "--tree", files["tree"]],
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr() == ("", "error: theta must be at least 0\n")
        assert not (tmp_path / "neg").exists()

    def test_one_bit_outer_needs_eps(self, files, tmp_path, capsys):
        code = main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--out", str(tmp_path / "inst")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pass --eps" in err

    @pytest.mark.parametrize("m", ["0", "-1", "4", "99"])
    def test_verify_needs_a_sweep_arity(self, capsys, m):
        # -1 ran no case and reported every sweep passed; 0 meant 3, and
        # 4 and 99 printed what 3 prints
        code = main(["verify", "--m", m])
        assert code == 2
        out, err = capsys.readouterr()
        bound = "at least 1" if int(m) < 1 else "at most 3"
        assert out == "" and err == f"error: verify --m must be {bound}, got {m}\n"

    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_simulate_refuses_a_negative_seed(self, capsys, seed):
        # Random(-s) seeds Random(s)'s stream: --seed=-1 walked z = 0 and
        # z = 2 on the same words, and --seed=-5 repeated --seed 5
        code = main(["simulate", f"--seed={seed}", *VERDICT_INPUTS])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: simulate --seed must be at least 0, got {seed}\n"

    def test_verify_reads_instance_flags_only_with_a_tree(self, capsys):
        # each ran the sweeps alone, ignored the flag and exited 0
        for flags in (("--instance", "nothere.json"), ("--eps", "abc")):
            code = main(["verify", "--m", "1", *flags])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: verify reads {flags[0]} only with --tree\n"

    def test_manifest_takes_no_instance_flags(self, manifest, files, capsys):
        # the manifest's epsilon silently won over --eps
        code, err = self.simulate(manifest, files, capsys, "--eps", "1/4")
        assert code == 2
        assert err == "error: --instance fixes the instance; drop --eps\n"

    def test_missing_flags_are_named(self, files, capsys):
        # each ended in a traceback (exit 1)
        for argv, err in (
            (["dce"], "dce needs --g or --f, --mu, --eps"),
            (["rqc", "--g", files["g_xor2"]], "rqc needs --eps"),
            (["simulate", "--f", files["f_id1"]], "simulate needs --tree, --g, --mu"),
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("command, flag", [
        ("verify", "--tree"), ("build-instance", "--eps"), ("build-instance", "--theta"),
        ("build-instance", "--lambda"), ("build-instance", "--mu"), ("build-instance", "--out"),
        ("simulate", "--theta"), ("xor-stack", "--eps"),
    ])
    def test_empty_values_are_named(self, files, tmp_path, monkeypatch, capsys, command, flag):
        # verify --tree '' ran the sweeps alone and exited 0; every other
        # empty value meant the option's default
        monkeypatch.chdir(tmp_path)  # where an empty --out wrote its default
        given = {
            "verify": {"--m": "1"},
            "build-instance": {"--g": files["g_xor2"], "--f": files["f_id1"],
                               "--mu": files["mu_u2"], "--eps": "1/4", "--out": "inst"},
            "simulate": {"--g": files["g_xor2"], "--f": files["f_id1"], "--mu": files["mu_u2"],
                         "--tree": files["tree"], "--eps": "1/4"},
            "xor-stack": {"--g": files["g_xor2"]},
        }[command]
        argv = [command, *(x for option, value in {**given, flag: ""}.items() for x in (option, value))]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {command} got an empty value for {flag}\n"

    @pytest.mark.parametrize("argv, error, message", [
        (["dce", "--g", "t13.tt", "--mu", "mu13.dist", "--eps", "1/4"], CapExceeded,
         "arity 13 exceeds the DP cap"),
        (["rqc", "--g", "t13.tt", "--eps", "1/4"], CapExceeded, "arity 13 exceeds the DP cap"),
        (["dce", "--g", "{v}/g.tt", "--mu", "mu2.dist", "--eps", "1/4"], QclabError,
         "relation and distribution arity mismatch"),
        (["build-instance", "--g", "{v}/g.tt", "--f", "{v}/f.rel", "--mu", "{v}/mu.dist",
          "--eps", "1/2", "--out", "inst"], QclabError, "epsilon must lie in [0, 1/2)"),
        (["xor-stack", "--g", "{v}/g.tt", "--t", "9", "--eps", "1/4"], CapExceeded,
         "stacked arity 27 exceeds cap"),
        (["simulate", "--tree", "open.sexp", *INSTANCE_FLAGS], ParseError,
         "unexpected end of tree text"),
        (["simulate", "--tree", "leaf.sexp", *INSTANCE_FLAGS], ParseError,
         "unexpected end of tree text"),
        (["verify", "--m", "1", "--tree", "{v}/tree.sexp", "--g", "{v}/g.tt", "--f", "{v}/f.rel",
          "--mu", "{v}/mu.dist", "--eps", "1/5", "--theta", "1/2"], HypothesisViolated,
         "epsilon must be at least 1/4"),
    ], ids=["dce-dp-cap", "rqc-dp-cap", "dce-mu-arity", "build-instance-eps", "xor-stack-cap",
            "tree-open", "tree-leaf", "verify-lilsnip-eps"])
    def test_checks_name_their_error(self, tmp_path, monkeypatch, capsys, argv, error, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t13.tt").write_text(format_truth_table(xor_fn(13)))
        (tmp_path / "mu13.dist").write_text(format_dist(Dist.uniform(13)))
        (tmp_path / "mu2.dist").write_text(format_dist(Dist.uniform(2)))
        (tmp_path / "open.sexp").write_text("(")
        (tmp_path / "leaf.sexp").write_text("(leaf")
        # main reports only this class of error: any other one escapes
        monkeypatch.setattr(cli, "QclabError", error)
        assert main([arg.format(v=VERDICTS) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "inst").exists()

    @pytest.mark.parametrize("command", ["dce", "rqc"])
    def test_problem_is_g_or_f(self, files, capsys, command):
        # --g won and --f was silently ignored
        mu = ["--mu", files["mu_u2"]] if command == "dce" else []
        code = main([command, "--g", files["g_xor2"], "--f", files["f_id1"], *mu, "--eps", "1/4"])
        assert code == 2
        assert capsys.readouterr().err == "error: give one of --g and --f, not both\n"


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

    def test_compiles_the_tree_once(self, files, monkeypatch):
        compiled = []
        init = simulate.Simulation.__init__

        def spy(self, inst, tree):
            compiled.append(tree)
            init(self, inst, tree)

        monkeypatch.setattr(simulate.Simulation, "__init__", spy)
        instance = ["--g", files["g_xor2"], "--f", files["f_id1"], "--mu", files["mu_u2"],
                    "--tree", files["tree"], "--theta", "1/2"]
        assert main(["simulate", *instance, "--eps", "1/4", "--out", files["out"]]) == 0
        assert [r["record"] for r in read_records(files["out"])].count("simulate-z") == 2
        assert len(compiled) == 1
        assert main(["verify", "--m", "1", *instance, "--eps", "7/16", "--out", files["out"]]) == 0
        assert [r["record"] for r in read_records(files["out"])].count("verify-instance") == 2
        assert len(compiled) == 2

    def test_leaf_keys_in_string_order(self, files, tmp_path):
        """Leaf ids are record keys, sorted as strings: "10" before "2"."""
        def parity(v, acc):
            if v > 4:
                return f"(leaf {acc})"
            return f"(q {v} {parity(v + 1, acc)} {parity(v + 1, acc ^ 1)})"

        tree, f_xor2 = tmp_path / "parity4.sexp", tmp_path / "xor2.rel"
        tree.write_text(parity(1, 0) + "\n")
        f_xor2.write_text(format_relation(Relation.from_function(xor_fn(2))))
        assert main(["simulate", "--g", files["g_xor2"], "--f", str(f_xor2), "--mu", files["mu_u2"],
                     "--tree", str(tree), "--eps", "1/4", "--theta", "1/2",
                     "--out", files["out"]]) == 0
        lines = Path(files["out"]).read_text().splitlines()
        records = [dict(json.loads(line, object_pairs_hook=list)) for line in lines]
        zs = [r for r in records if r["record"] == "simulate-z"]
        assert len(zs) == 4
        for record in zs:
            keys = [key for key, _ in record["leaves"]]
            assert keys == sorted(str(lid) for lid in range(16))
            assert keys.index("10") < keys.index("2")

    def test_byte_identical_reruns(self, files, tmp_path):
        args = ["simulate", "--g", files["g_xor2"], "--f", files["f_id1"],
                "--mu", files["mu_u2"], "--tree", files["tree"],
                "--eps", "1/4", "--theta", "1/2", "--seed", "11"]
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


VERDICT_INPUTS = [
    "--g", str(VERDICTS / "g.tt"), "--f", str(VERDICTS / "f.rel"),
    "--mu", str(VERDICTS / "mu.dist"), "--tree", str(VERDICTS / "tree.sexp"),
    "--eps", "7/16", "--theta", "1/2",
]
# four copies of the same g under a complete depth-7 tree: 128 leaves, and
# dead branches below x1 = x2 = 1 in a copy for every z
VERDICT_INPUTS_N4 = [
    "--g", str(VERDICTS / "g.tt"), "--f", str(VERDICTS / "f4.rel"),
    "--mu", str(VERDICTS / "mu.dist"), "--tree", str(VERDICTS / "tree128.sexp"),
    "--eps", "7/16", "--theta", "1/2",
]


@pytest.mark.parametrize("command, golden", [
    (["simulate", "--seed", "3", *VERDICT_INPUTS], "simulate.jsonl"),
    (["verify", "--m", "1", *VERDICT_INPUTS], "verify.jsonl"),
    (["rqc", "--g", str(VERDICTS / "g.tt"), "--eps", "7/16"], "rqc.jsonl"),
    (["xor-stack", "--g", str(VERDICTS / "g.tt"), "--t", "2", "--eps", "7/16"],
     "xor-stack.jsonl"),
    (["verify", "--m", "2"], "verify-m2.jsonl"),
    (["verify", "--m", "3"], "verify-m3.jsonl"),
    (["dce", "--g", str(VERDICTS / "g.tt"), "--mu", str(VERDICTS / "mu.dist"), "--eps", "7/16"],
     "dce.jsonl"),
    (["simulate", "--seed", "5", *VERDICT_INPUTS_N4], "simulate-n4.jsonl"),
    # theta 1/8 gives a nonzero chain bound, so a wrong snipped sum shows
    (["simulate", "--seed", "3", *VERDICT_INPUTS[:-1], "1/8"], "simulate-theta.jsonl"),
    (["verify", "--m", "1", *VERDICT_INPUTS_N4], "verify-n4.jsonl"),
    # 256 lines of five label lists and four probabilities, recorded before
    # the parsers shared equal values and the mass passes were reordered
    (["dce", "--f", str(VERDICTS / "f8.rel"), "--mu", str(VERDICTS / "mu8.dist"), "--eps", "1/3"],
     "dce8.jsonl"),
])
def test_verdict_bytes_are_pinned(capsys, command, golden):
    """The verdict stream of one small fixture, byte for byte.  Its tree has
    leaves at depths 2 and 3.  Leaves 3-5 lie below x1 = 1 (``q 2`` in the
    file, which counts variables from 1), a subcube of bias 3/5 >= theta, so
    they are snipped; x1 = x2 = 1 has no mass, so the branch there is dead
    and leaves 4 and 5 have p = q = 0.  The game on its g runs 9 rounds to
    depth 2 at eps 7/16, and the stacked g^2 reaches depth 5.  ``verify``
    without a tree pins the three sweeps' case counts at --m 2 and 3, and
    ``dce`` the DP's depth, success and witness on g under mu, and on an
    arity-8 relation of three labels, where the masses take the passes."""
    assert main(command) == 0
    assert capsys.readouterr().out == (VERDICTS / golden).read_text()


@pytest.mark.parametrize("name, flags", [
    ("build-instance-mu", ["--mu", str(VERDICTS / "mu.dist"), "--theta", "1/2"]),
    ("build-instance-game", []),  # mu is the game's hard distribution
])
def test_build_instance_bytes_are_pinned(tmp_path, monkeypatch, capsys, name, flags):
    """Every file ``build-instance`` writes, and its record, byte for byte.
    The output directory is given relative to the working directory, so the
    record's manifest path reads the same in any checkout."""
    monkeypatch.chdir(tmp_path)
    assert main(["build-instance", "--g", str(VERDICTS / "g.tt"), "--f", str(VERDICTS / "f.rel"),
                 "--eps", "7/16", *flags, "--out", name]) == 0
    assert capsys.readouterr().out == (VERDICTS / f"{name}.jsonl").read_text()
    golden = sorted(p.name for p in (VERDICTS / name).iterdir())
    assert sorted(p.name for p in (tmp_path / name).iterdir()) == golden
    for file in golden:
        assert (tmp_path / name / file).read_bytes() == (VERDICTS / name / file).read_bytes()


def test_simulate_computes_each_z_laws_once(capsys, monkeypatch):
    """The p and q terms of each z are computed once per command, and read
    once per z in lowest terms: the simulate-z records format those rows,
    and the success chain reads the same terms."""
    computed = []
    for name in ("p_terms", "q_terms", "rows"):
        def spy(self, *args, name=name, law=getattr(simulate.Simulation, name)):
            computed.append(name)
            return law(self, *args)

        monkeypatch.setattr(simulate.Simulation, name, spy)
    assert main(["simulate", *VERDICT_INPUTS]) == 0
    zs = capsys.readouterr().out.count('"record": "simulate-z"')
    assert zs == 2
    assert sorted(computed) == ["p_terms"] * zs + ["q_terms"] * zs + ["rows"] * zs


class TestVerify:
    def test_sweeps_small(self, files):
        code = main(["verify", "--m", "2", "--out", files["out"]])
        assert code == 0
        records = read_records(files["out"])
        names = {r["record"] for r in records}
        assert names == {"sweep-unbias", "sweep-rbias", "sweep-fullbias"}
        assert all(r["violations"] == 0 for r in records)

    def test_instance_and_tree_run_instance_checks(self, files, tmp_path):
        out_dir = tmp_path / "inst"
        assert main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--eps", "7/16", "--theta", "1/2",
                     "--out", str(out_dir)]) == 0
        by_instance, by_files = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["verify", "--m", "1", "--instance", str(out_dir / "instance.json"),
                     "--tree", files["tree"], "--out", str(by_instance)]) == 0
        assert main(["verify", "--m", "1", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--mu", files["mu_u2"], "--eps", "7/16", "--theta", "1/2",
                     "--tree", files["tree"], "--out", str(by_files)]) == 0
        records = read_records(by_instance)
        assert [r["z"] for r in records if r["record"] == "verify-instance"] == [0, 1]
        assert by_instance.read_bytes() == by_files.read_bytes()

    def test_tree_without_a_full_instance_exits_2(self, files, capsys):
        g, f, mu = ("--g", files["g_xor2"]), ("--f", files["f_id1"]), ("--mu", files["mu_u2"])
        for flags in ((), g, g + f, f + mu, g + mu):
            assert main(["verify", "--m", "1", *flags, "--tree", files["tree"]]) == 2
            assert "--tree needs --instance" in capsys.readouterr().err

    def test_m_bounds_the_unbias_sweep(self, tmp_path):
        cases = {}
        for m in (1, 2):
            out = tmp_path / f"m{m}.jsonl"
            assert main(["verify", "--m", str(m), "--out", str(out)]) == 0
            (unbias,) = [r for r in read_records(out) if r["record"] == "sweep-unbias"]
            cases[m] = unbias["cases"]
            assert cases[m] == sweep_unbias(max_m=m, sampled_m4=0).cases
        assert 0 < cases[1] < cases[2]


READS = {
    "dce": {"--g", "--f", "--mu", "--eps", "--out"},
    "rqc": {"--g", "--f", "--eps", "--out"},
    "build-instance": {"--g", "--f", "--mu", "--lambda", "--eps", "--theta", "--out"},
    "simulate": {"--instance", "--g", "--f", "--mu", "--lambda", "--eps", "--theta",
                 "--tree", "--seed", "--out"},
    "verify": {"--instance", "--g", "--f", "--mu", "--lambda", "--eps", "--theta",
               "--tree", "--m", "--out"},
    "xor-stack": {"--g", "--t", "--eps", "--out"},
}


def test_commands_accept_only_the_flags_they_read(capsys):
    flags = set().union(*READS.values())
    assert len(flags) == 12 and sum(map(len, READS.values())) == 40
    for command, reads in READS.items():
        for flag in sorted(flags):
            if flag in reads:
                build_parser().parse_args([command, flag, "1"])
                continue
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(READS))
@pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
def test_game_settings_are_not_flags(capsys, command, flag):
    # the game's tolerance and round cap are complexity.TOL and MAX_ITER
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1/100" if flag == "--tol" else "5000"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_one_parser_serves_many_commands(files, capsys):
    # the parser is built once per process; every command, a failed parse
    # among them, must print and exit as it does in a fresh interpreter
    runs = [
        ["rqc", "--g", files["g_xor2"], "--eps", "1/3"],
        ["dce", "--g", files["g_xor2"], "--mu", files["mu_u2"], "--eps", "1/4"],
        ["rqc", "--g", files["g_xor2"], "--mu", files["mu_u2"]],
        ["xor-stack", "--g", files["g_and2"], "--t", "2", "--eps", "1/3"],
        ["dce", "--g", files["g_and2"], "--eps", "1/4"],
        ["rqc", "--g", files["g_and2"], "--eps", "1/3"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(qclab.__file__).parents[1]))
    script = "import sys; from qclab.cli import main; sys.exit(main(sys.argv[1:]))"
    assert build_parser() is build_parser()
    codes = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)
        codes.append(code)
    assert codes == [0, 0, 2, 0, 2, 0]


@pytest.mark.parametrize("command", [
    ["dce", "--g", "{g}", "--mu", "{mu}", "--eps", "1/4"],
    ["rqc", "--g", "{g}", "--eps", "1/3"],
    ["simulate", "--g", "{g}", "--f", "{f}", "--mu", "{mu}", "--tree", "{tree}", "--eps", "1/4"],
    ["verify", "--m", "1"],
])
@pytest.mark.parametrize("report", ["directory", "missing/report.jsonl"])
def test_unwritable_report_exits_2(files, tmp_path, capsys, command, report):
    # the records were written after main's error handling: the verdict
    # passed, then the write raised a traceback and exited 1
    (tmp_path / "directory").mkdir()
    argv = [arg.format(g=files["g_xor2"], f=files["f_id1"], mu=files["mu_u2"], tree=files["tree"])
            for arg in command]
    assert main([*argv, "--out", str(tmp_path / report)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("i/o error: ")


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

    def test_failed_game_writes_no_table(self, files, tmp_path, capsys):
        # the table was written before the game rejected eps
        out = tmp_path / "t.tt"
        code = main(["xor-stack", "--g", files["g_xor2"], "--eps", "1/2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: eps must lie in [0, 1/2)\n")
        assert not out.exists()
