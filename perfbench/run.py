#!/usr/bin/env python3
"""qclab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload rqc-games --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

The workload's inputs are generated from ``--seed``; the operations run in
this single-threaded process until ``--seconds`` have passed (at least one
pass), every output is checked, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes; with ``--trace 1`` they are the per-layer ones, from traced passes
that follow untraced passes of the same workload.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import gen
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"
SETUP_SAMPLES = 7
SETUP_CHUNKS = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# workloads whose exact answers do not depend on the seed (the seed only
# relabels a fixed catalogue), so their expected values apply to every seed
SEED_INVARIANT = {"dce-large"}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _layer_metrics():
    out = []
    for fn in ("sweep_unbias", "sweep_rbias", "sweep_fullbias"):
        out += [(f"sweeps.{fn}.s", "s", "lower"), (f"sweeps.{fn}.cases", "count", "higher")]
    out += [("sweeps.depth_successes.calls", "count", "lower"),
            ("sweeps.depth_successes.s", "s", "lower")]
    for fn in ("best_success", "dist_complexity", "rand_complexity", "hard_distribution"):
        out += [(f"complexity.{fn}.calls", "count", "lower"), (f"complexity.{fn}.s", "s", "lower")]
    out += [("complexity.dp_solves_per_dce", "solves/dce", "lower"),
            ("complexity.game_iterations", "count", "lower"),
            ("complexity.limit_hit", "count", "lower")]
    for fn in ("leaf_reports", "exact_q", "exact_p", "snip_labels", "success_chain",
               "verify_simileaf", "verify_lilsnip", "run_Aprime"):
        out += [(f"simulate.{fn}.calls", "count", "lower"), (f"simulate.{fn}.s", "s", "lower")]
    out += [("simulate.compile.calls", "count", "lower"), ("simulate.compile.s", "s", "lower"),
            ("simulate.exact_q.calls_per_z", "calls/z", "lower"),
            ("simulate.run_stream.s", "s", "lower")]
    for fn in ("subcube_prob", "bias", "restrict_dist"):
        out += [(f"core.{fn}.calls", "count", "lower"), (f"core.{fn}.s", "s", "lower")]
    out += [("dtree.reach_probs_product.calls", "count", "lower"),
            ("dtree.reach_probs_product.s", "s", "lower"),
            ("compose.build_instance.calls", "count", "lower"),
            ("compose.build_instance.s", "s", "lower"),
            ("compose.xor_stack.s", "s", "lower")]
    for fn in ("parse", "read_instance", "write_instance", "record_to_json"):
        out += [(f"io.{fn}.calls", "count", "lower"), (f"io.{fn}.s", "s", "lower")]
    out += [("cli.main.calls", "count", "lower"), ("cli.main.s", "s", "lower"),
            ("cli.main.self_s", "s", "lower"), ("cli.bytes_out", "bytes", "lower")]
    out += [(f"{layer}.self_s", "s", "lower") for layer in
            ("cli", "io", "complexity", "compose", "simulate", "core", "dtree", "sweeps")]
    out += [("sweep_cases_per_s", "cases/s", "higher"), ("walks_per_s", "walks/s", "higher"),
            ("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return out


PER_LAYER = _layer_metrics()


# --- the program under test ---------------------------------------------------


def import_program():
    """Import qclab from this checkout's ``src`` (never from elsewhere)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import qclab
    except ImportError as exc:
        sys.exit(f"cannot import the program from {src}: {exc}")
    if Path(qclab.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"qclab was imported from {qclab.__file__}, not from {src}")


def setup(workload: str, seed: int, directory: Path) -> dict:
    """Generate the inputs, write them, and parse them back once."""
    from qclab import io as qio

    spec = gen.generate(workload, seed, directory)
    for name in spec["files"]:
        text = (directory / name).read_text()
        suffix = Path(name).suffix
        if suffix == ".tt":
            qio.parse_truth_table(text)
        elif suffix == ".rel":
            qio.parse_relation(text)
        elif suffix == ".dist":
            qio.parse_dist(text)
        elif suffix == ".sexp":
            qio.parse_tree(text, spec["n"] * spec["m"])
    return spec


def setup_probe(workload: str, seed: int, directory: Path) -> tuple[float, float]:
    """Set-up time, and the host's scale from calibration chunks right after."""
    t0 = time.perf_counter()
    import_program()
    setup(workload, seed, directory)
    dt = time.perf_counter() - t0
    import calibrate  # builds its tables, so only after the timing

    return dt, calibrate.scale([calibrate.chunk() for _ in range(SETUP_CHUNKS)])


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up time (imports, generation, writing, parsing back) in fresh
    interpreters, so the import cost is paid every time, each scaled by the
    host's speed measured in the same interpreter."""
    samples = []
    for k in range(SETUP_SAMPLES):
        directory = work / f"setup-{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--dir", str(directory)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        shutil.rmtree(directory, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"setup probe failed:\n{proc.stderr}")
        dt, scale = map(float, proc.stdout.split()[-2:])
        samples.append(dt * scale)
    return samples


def machine_record(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": _commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# --- passes -------------------------------------------------------------------


def run_pass(ops, expected, pass_no: int, tracer=None, sampler=None) -> dict:
    """Run every operation once, timing each, then check it (untimed).
    Time spent in the sampler's handler is not counted; the chunk times
    sampled during the operations are kept under ``"cal_s"``."""
    result = {"wall_s": 0.0, "attempted": 0, "failed": 0, "problems": [],
              "verdicts": {}, "op_s": {}, "tally": {}}
    tally = result["tally"]
    mark = len(sampler.samples) if sampler else 0
    for i, op in enumerate(ops):
        scope = tracer.run(f"{pass_no}/{i}:{op.kind}", op.kind) if tracer else nullcontext()
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            with scope, sampler.measuring() if sampler else nullcontext():
                out = op.run()
            error = None
        except Exception:  # an operation that raises is counted as failed
            out, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0 - ((sampler.spent - spent) if sampler else 0.0)
        result["wall_s"] += dt
        result["attempted"] += 1
        result["op_s"].setdefault(op.kind, []).append(dt)
        tally[f"ops[{op.kind}]"] = tally.get(f"ops[{op.kind}]", 0) + 1
        tally[f"s[{op.kind}]"] = tally.get(f"s[{op.kind}]", 0.0) + dt
        problems = [f"raised: {error}"] if error else []
        if not error:
            try:
                problems, verdict = op.check(out)
                verdict = json.loads(json.dumps(verdict))  # as stored on disk
                for k, v in op.tally(out).items():
                    tally[k] = tally.get(k, 0) + v
            except Exception:  # a malformed output is a failed operation
                problems, verdict = [f"check raised: {traceback.format_exc()}"], None
            if problems and getattr(out, "stderr", ""):
                problems.append(f"stderr: {out.stderr.strip()}")
            result["verdicts"][op.name] = verdict
            if expected is not None and verdict != expected.get(op.name):
                problems.append(f"verdict {verdict} differs from expected {expected.get(op.name)}")
        if problems:
            result["failed"] += 1
            result["problems"].append(f"{op.name}: " + "; ".join(problems))
    result["cal_s"] = sampler.samples[mark:] if sampler else []
    return result


def run_passes(ops, expected, seconds: float, first_pass: int, traced=False,
               sampler=None) -> list[dict]:
    """Passes until ``seconds`` have passed (at least one); a traced pass
    keeps its tracer under ``"tracer"``."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        with tracer.installed() if tracer else nullcontext():
            result = run_pass(ops, expected, first_pass + len(passes), tracer, sampler)
        result["tracer"] = tracer
        passes.append(result)
        if time.perf_counter() - start >= seconds:
            return passes


# --- metrics ------------------------------------------------------------------


def timing_stats(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s)}
    if len(s) >= 11:
        k = len(s) - 11
        out[f"p{100 * (k + 1) // len(s)}"] = s[k]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def e2e_values(passes: list[dict]) -> dict:
    """Values derived from untraced passes (medians over the passes)."""
    tallies = [p["tally"] for p in passes]
    return {
        "sweep_cases_per_s": statistics.median(
            _ratio(t.get("sweep_cases", 0), t.get("s[verify]", 0)) for t in tallies),
        "walks_per_s": statistics.median(
            _ratio(t.get("walks", 0), t.get("walk_s", 0)) for t in tallies),
    }


def layer_values(tracer: Tracer, result: dict) -> dict:
    summary = tracer.summary()
    t = result["tally"]
    exact_q_in_simulate = sum(
        1 for s in tracer.spans if s[0] == "simulate.exact_q" and s[4].endswith(":simulate")
    )
    derived = {
        "complexity.dp_solves_per_dce": _ratio(
            tracer.counters["complexity.dp_solves[dce]"], t.get("ops[dce]", 0)),
        "simulate.exact_q.calls_per_z": _ratio(exact_q_in_simulate, t.get("z_records", 0)),
        "cli.bytes_out": t.get("bytes_out", 0),
        "trace.spans": len(tracer.spans),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name in tracer.counters:
            out[name] = tracer.counters[name]
        else:
            value = summary.get(name, 0)
            out[name] = int(value) if name.endswith(".calls") else value
    return out


# --- running workloads --------------------------------------------------------


def load_expected(workload: str, seed: int):
    if not EXPECTED.exists():
        return None
    data = json.loads(EXPECTED.read_text())
    if seed == data["seed"] or workload in SEED_INVARIANT:
        return data["workloads"].get(workload)
    return None


def run_workload(args) -> dict:
    import_program()
    import calibrate
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    machine = machine_record(args.seed)
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, work)
    spec = setup(args.workload, args.seed, work / "inputs")
    ops = WORKLOADS[args.workload](spec, args.seed)
    expected = load_expected(args.workload, args.seed)

    with calibrate.Sampler() as sampler:
        if args.trace:
            plain = run_passes(ops, expected, args.seconds / 2, 0, sampler=sampler)
            traced = run_passes(ops, expected, args.seconds / 2, len(plain), traced=True,
                                sampler=sampler)
        else:
            plain, traced = run_passes(ops, expected, args.seconds, 0, sampler=sampler), []
    passes = plain + traced
    for p in passes:  # a pass too short to be sampled takes the run's scale
        p["scaled_s"] = p["wall_s"] * calibrate.scale(p["cal_s"] or sampler.samples)
    wall = timing_stats([p["scaled_s"] for p in plain])
    wall_unscaled = timing_stats([p["wall_s"] for p in plain])
    op_stats = {}
    for p in plain:
        for kind, times in p["op_s"].items():
            op_stats.setdefault(kind, []).extend(times)

    if args.trace:
        per_pass = [layer_values(p["tracer"], p) for p in traced]
        metrics = {name: statistics.median_low(v[name] for v in per_pass)
                   for name, _, _ in PER_LAYER}
        metrics.update(e2e_values(plain))
        metrics["trace.overhead_s"] = (
            statistics.median(p["scaled_s"] for p in traced) - wall["median"])
        units = {name: unit for name, unit, _ in PER_LAYER}
        traced[0]["tracer"].write(WORK / "results" / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "setup_s": timing_stats(setup_samples) if setup_samples else None,
        "wall_s": wall, "wall_unscaled_s": wall_unscaled,
        "calibration_s": timing_stats(sampler.samples) if sampler.samples else None,
        "op_s": {kind: timing_stats(v) for kind, v in sorted(op_stats.items())},
        "passes": len(passes), "traced_passes": len(traced),
        "ops": attempted, "ops_failed": failed,
        "problems": [q for p in passes for q in p["problems"]][:20],
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"qclab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"ops {attempted}  ops_failed {failed}  passes {len(passes)} "
          f"(traced {len(traced)})")
    print("wall_s per pass: " + json.dumps(wall))
    print("wall_s per pass, unscaled: " + json.dumps(wall_unscaled))
    print("calibration chunk: " + json.dumps(detail["calibration_s"]))
    for kind, st in detail["op_s"].items():
        print(f"  op {kind}: " + json.dumps(st))
    for problem in detail["problems"]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def record_expected() -> None:
    """Write the verdicts of one pass of every workload at the default seed."""
    import_program()
    data = {"seed": gen.DEFAULT_SEED, "workloads": {}}
    for workload, make_ops in WORKLOADS.items():
        work = WORK / f"expected-{workload}"
        spec = setup(workload, gen.DEFAULT_SEED, work)
        result = run_pass(make_ops(spec, gen.DEFAULT_SEED), None, 0)
        shutil.rmtree(work, ignore_errors=True)
        if result["failed"]:
            sys.exit(f"{workload} failed, not recording: {result['problems']}")
        data["workloads"][workload] = result["verdicts"]
        print(f"{workload}: {len(result['verdicts'])} verdicts")
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json from the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # single-threaded numpy/BLAS: set in this process's own environment before
    # numpy loads; the setup probes and per-workload processes inherit it
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_probe:
        print(*setup_probe(args.workload, args.seed, Path(args.dir)))
        return 0
    if args.record_expected:
        record_expected()
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
