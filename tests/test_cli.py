import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qclab
from qclab import complexity, simulate
from qclab.cli import build_parser, main
from qclab.core import Dist, Relation, and_fn, identity1, xor_fn
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
    and whether a game round built it."""
    solves, rounds = [], []
    init = complexity._TreeDP.__init__
    solve_game = complexity._solve_game

    def spy(self, accepts, weights, den):
        solves.append(([F(w, den) for w in weights.tolist()], bool(rounds)))
        init(self, accepts, weights, den)

    def game(*args):
        rounds.append(True)
        try:
            return solve_game(*args)
        finally:
            rounds.pop()

    monkeypatch.setattr(complexity._TreeDP, "__init__", spy)
    monkeypatch.setattr(complexity, "_solve_game", game)
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

    def test_one_dp_on_the_hard_distribution_after_the_game(self, files, tmp_path, dp_solves):
        # the hard distribution's certificate is the instance's inner complexity
        out_dir = tmp_path / "inst"
        assert main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--eps", "1/4", "--out", str(out_dir)]) == 0
        after_game = [probs for probs, in_game in dp_solves if not in_game]
        assert len(after_game) == 1 and len(dp_solves) > 1
        assert after_game[0] == list(read_instance(out_dir / "instance.json").mu.probs)

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

    def test_one_bit_outer_needs_eps(self, files, tmp_path, capsys):
        code = main(["build-instance", "--g", files["g_xor2"], "--f", files["f_id1"],
                     "--out", str(tmp_path / "inst")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pass --eps" in err

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_game_needs_a_round(self, files, capsys, max_iter):
        # 0 rounds divided by zero and -1 read an empty mixture (exit 1)
        code = main(["rqc", "--g", files["g_xor2"], "--eps", "1/3", "--max-iter", max_iter])
        assert code == 2
        assert capsys.readouterr().err == "error: max_iter must be at least 1\n"

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_verify_needs_a_sweep_arity(self, capsys, m):
        # -1 ran no case and reported every sweep passed; 0 meant 3
        code = main(["verify", "--m", m])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: verify --m must be at least 1, got {m}\n"

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
        init = simulate._Compiled.__init__

        def spy(self, inst, tree):
            compiled.append(tree)
            init(self, inst, tree)

        monkeypatch.setattr(simulate._Compiled, "__init__", spy)
        instance = ["--g", files["g_xor2"], "--f", files["f_id1"], "--mu", files["mu_u2"],
                    "--tree", files["tree"], "--theta", "1/2"]
        assert main(["simulate", *instance, "--eps", "1/4", "--out", files["out"]]) == 0
        assert [r["record"] for r in read_records(files["out"])].count("simulate-z") == 2
        assert len(compiled) == 1
        assert main(["verify", "--m", "1", *instance, "--eps", "7/16", "--out", files["out"]]) == 0
        assert [r["record"] for r in read_records(files["out"])].count("verify-instance") == 2
        assert len(compiled) == 2

    def test_byte_identical_reruns(self, files, tmp_path):
        args = ["simulate", "--g", files["g_xor2"], "--f", files["f_id1"],
                "--mu", files["mu_u2"], "--tree", files["tree"],
                "--eps", "1/4", "--theta", "1/2", "--seed", "11"]
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


VERDICTS = Path(__file__).parent / "data" / "verdicts"


@pytest.mark.parametrize("command, golden", [
    (["simulate", "--seed", "3"], "simulate.jsonl"),
    (["verify", "--m", "1"], "verify.jsonl"),
])
def test_verdict_bytes_are_pinned(capsys, command, golden):
    """The verdict stream of one small fixture, byte for byte.  Its tree has
    leaves at depths 2 and 3.  Leaves 3-5 lie below x1 = 1 (``q 2`` in the
    file, which counts variables from 1), a subcube of bias 3/5 >= theta, so
    they are snipped; x1 = x2 = 1 has no mass, so the branch there is dead
    and leaves 4 and 5 have p = q = 0."""
    inputs = [("--g", "g.tt"), ("--f", "f.rel"), ("--mu", "mu.dist"), ("--tree", "tree.sexp")]
    argv = [*command, *(x for flag, name in inputs for x in (flag, str(VERDICTS / name))),
            "--eps", "7/16", "--theta", "1/2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (VERDICTS / golden).read_text()


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
    "rqc": {"--g", "--f", "--eps", "--tol", "--max-iter", "--out"},
    "build-instance": {"--g", "--f", "--mu", "--lambda", "--eps", "--theta", "--tol",
                       "--max-iter", "--out"},
    "simulate": {"--instance", "--g", "--f", "--mu", "--lambda", "--eps", "--theta",
                 "--tree", "--seed", "--out"},
    "verify": {"--instance", "--g", "--f", "--mu", "--lambda", "--eps", "--theta",
               "--tree", "--m", "--out"},
    "xor-stack": {"--g", "--t", "--eps", "--tol", "--max-iter", "--out"},
}


def test_commands_accept_only_the_flags_they_read(capsys):
    flags = set().union(*READS.values())
    assert len(flags) == 14 and sum(map(len, READS.values())) == 46
    for command, reads in READS.items():
        for flag in sorted(flags):
            if flag in reads:
                build_parser().parse_args([command, flag, "1"])
                continue
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1"])
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
