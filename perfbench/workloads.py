"""The four benchmark workloads as lists of operations.

Every operation is a ``qclab`` command run in-process through
``qclab.cli.main(argv)`` (or, for the random walks, a direct call into the
simulator API), a check of its output, and a tally of the work it did.
All workloads are closed loops: one process starts the next operation when
the previous one returns.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import gen


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    name: str      # unique within the workload; keys the expected values
    kind: str      # the qclab command, or "load" / "walk" for API calls
    run: Callable[[], Any]
    check: Callable[[Any], tuple]         # output -> (problems, verdict)
    tally: Callable[[Any], dict] = field(default=lambda out: {})


def run_cli(argv: list[str]) -> CliResult:
    from qclab import cli  # looked up per call, so traced wrappers apply

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_tally(res: CliResult) -> dict:
    return {"bytes_out": len(res.stdout.encode())}


def _cli_op(name: str, argv: list[str], check, tally=_cli_tally) -> Op:
    return Op(name, argv[0], lambda: run_cli(argv), check, tally)


def sweep_verify_ops(spec: dict, seed: int) -> list[Op]:
    d = spec["dir"]
    argv = [
        "verify", "--m", "3",
        "--g", str(d / "g.tt"), "--f", str(d / "f.rel"), "--mu", str(d / "mu.dist"),
        "--tree", str(d / "tree.sexp"),
        "--eps", str(gen.VERIFY_EPS), "--theta", str(gen.VERIFY_THETA),
    ]

    def tally(res: CliResult) -> dict:
        cases = sum(
            r["cases"] for r in checks.records(res.stdout) if r["record"].startswith("sweep-")
        )
        return {**_cli_tally(res), "sweep_cases": cases}

    return [_cli_op("verify", argv,
                    lambda res: checks.check_verify(res.code, res.stdout, spec["n"]), tally)]


def dce_large_ops(spec: dict, seed: int) -> list[Op]:
    d = spec["dir"]
    ops = []
    for p in spec["problems"]:
        argv = ["dce", "--f", str(d / p["f"]), "--mu", str(d / p["mu"]), "--eps", str(p["eps"])]
        ops.append(_cli_op(
            p["name"], argv,
            lambda res, p=p: checks.check_dce(res.code, res.stdout, p["accepted"], p["probs"], p["eps"]),
        ))
    return ops


def rqc_games_ops(spec: dict, seed: int) -> list[Op]:
    d = spec["dir"]
    ops = []
    for p in spec["problems"]:
        arity = len(p["outputs"]).bit_length() - 1
        if p["kind"] == "rqc":
            argv = ["rqc", "--g", str(d / p["g"]), "--eps", str(p["eps"])]
            check = lambda res, p=p, a=arity: checks.check_rqc(res.code, res.stdout, a, p["eps"])
        else:
            argv = ["build-instance", "--g", str(d / p["g"]), "--f", str(d / "id1.rel"),
                    "--eps", str(p["eps"]), "--out", str(d / p["name"])]
            check = lambda res, p=p: checks.check_hard(res.code, res.stdout, p["outputs"], p["eps"])
        ops.append(_cli_op(p["name"], argv, check))
    argv = ["xor-stack", "--g", str(d / spec["xor"]["g"]), "--t", str(gen.XOR_T),
            "--eps", str(gen.XOR_EPS)]
    ops.append(_cli_op("xor-stack", argv,
                       lambda res: checks.check_xor_stack(res.code, res.stdout, gen.XOR_T)))
    return ops


def simulate_chain_ops(spec: dict, seed: int) -> list[Op]:
    d = spec["dir"]
    n, m = spec["n"], spec["m"]
    inst_dir = d / "instance"
    manifest = inst_dir / "instance.json"
    state: dict = {}  # filled by earlier operations of the same pass

    build = [
        "build-instance", "--g", str(d / "g.tt"), "--f", str(d / "f.rel"),
        "--mu", str(d / "mu.dist"), "--eps", str(gen.SIM_EPS),
        "--theta", str(gen.SIM_THETA), "--out", str(inst_dir),
    ]
    simulate = ["simulate", "--instance", str(manifest), "--tree", str(d / "tree.sexp"),
                "--seed", str(seed)]

    def check_simulate(res: CliResult):
        problems, verdict, state["q"] = checks.check_simulate(res.code, res.stdout, n)
        return problems, verdict

    def simulate_tally(res: CliResult) -> dict:
        return {**_cli_tally(res), "z_records": res.stdout.count('"record": "simulate-z"')}

    def load():
        from qclab.io import parse_tree, read_instance

        state["inst"] = read_instance(manifest)
        state["tree"] = parse_tree((d / "tree.sexp").read_text(), n * m)
        return state["inst"]

    def check_load(inst):
        problems = []
        if (inst.n, inst.m, inst.inner_complexity) != (n, m, spec["inner_complexity"]):
            problems.append("loaded instance differs from the generated one")
        return problems, {"inner_complexity": inst.inner_complexity}

    def walk(z: int):
        from qclab.simulate import AprimeSimulator

        sim = AprimeSimulator(state["inst"], state["tree"], z)
        t0 = time.perf_counter()
        counts = sim.run_stream(spec["walks"], seed + z)
        return counts, time.perf_counter() - t0

    ops = [
        _cli_op("build-instance", build,
                lambda res: checks.check_build(res.code, res.stdout, n, m, spec["inner_complexity"])),
        _cli_op("simulate", simulate, check_simulate, simulate_tally),
        Op("load", "load", load, check_load),
    ]
    for z in spec["walk_zs"]:
        ops.append(Op(
            f"walk-z{z}", "walk", lambda z=z: walk(z),
            lambda out, z=z: checks.check_walks(out[0], spec["walks"], state["q"][z]),
            lambda out: {"walks": sum(out[0].values()), "walk_s": out[1]},
        ))
    return ops


WORKLOADS = {
    "sweep-verify": sweep_verify_ops,
    "dce-large": dce_large_ops,
    "rqc-games": rqc_games_ops,
    "simulate-chain": simulate_chain_ops,
}
