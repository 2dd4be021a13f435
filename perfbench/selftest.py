"""Tests of the benchmark itself (not of qclab).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default test run.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


# --- generator ----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_deterministic(workload, tmp_path):
    a = gen.generate(workload, 5, tmp_path / "a")
    b = gen.generate(workload, 5, tmp_path / "b")
    c = gen.generate(workload, 6, tmp_path / "c")
    assert sorted(a["files"]) == sorted(b["files"]) == sorted(c["files"])
    for name in a["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any(
        (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
        for name in a["files"]
    )


def test_relabelling_keeps_exact_answers():
    """The seed only relabels the catalogue: the inner complexity under the
    carried-along distribution does not change."""
    catalogue = gen._rqc_catalogue()[:8]
    for seed in (1, 2, 3):
        problems = gen.gen_rqc_games(seed)["problems"]
        for k, base in enumerate(catalogue):
            p = problems[2 * k]
            uniform = [Fraction(1, len(base))] * len(base)
            assert checks.dist_complexity(p["outputs"], uniform, p["eps"]) == \
                checks.dist_complexity(base, uniform, p["eps"])


def test_sweep_verify_instance_meets_lilsnip_hypotheses():
    for seed in range(4):
        spec = gen.gen_sweep_verify(seed)
        lines = spec["files"]["g.tt"].split()
        outputs = [int(ch) for ch in lines[1]]
        probs = checks.parse_dist(spec["files"]["mu.dist"])
        m0, m1 = checks.masses(outputs, probs, ())
        assert abs(m0 - m1) <= gen.VERIFY_THETA
        assert gen.VERIFY_THETA ** 2 == 4 * (Fraction(1, 2) - gen.VERIFY_EPS)
        assert checks.dist_complexity(outputs, probs, gen.VERIFY_EPS) > 0


def test_expected_values_are_for_the_default_seed():
    data = json.loads(run.EXPECTED.read_text())
    assert data["seed"] == gen.DEFAULT_SEED
    assert sorted(data["workloads"]) == sorted(gen.GENERATORS)


# --- checks fail on tampered results ----------------------------------------


def _lines(*recs) -> str:
    return "".join(json.dumps(r) + "\n" for r in recs)


def _verify_stdout(unbias=2_756_204):
    sweeps = [
        {"record": f"sweep-{name}", "cases": cases, "violations": 0, "passed": True}
        for name, cases in (("unbias", unbias), ("rbias", 14_653_412), ("fullbias", 82_100))
    ]
    inst = [
        {"record": "verify-instance", "z": z, "simileaf_checked": 3,
         "simileaf_violations": 0, "lilsnip_total_mass": "0/1", "passed": True}
        for z in range(2)
    ]
    return _lines(*sweeps, *inst)


def test_verify_check_catches_wrong_case_count():
    assert checks.check_verify(0, _verify_stdout(), 1)[0] == []
    problems, _ = checks.check_verify(0, _verify_stdout(unbias=2_756_203), 1)
    assert any("unbias" in p for p in problems)
    assert checks.check_verify(1, _verify_stdout(), 1)[0] == ["exit code 1"]


def test_dce_check_catches_success_off_by_one_over_den():
    # x1 xor x2 with labels {0,1,2}; input 3 also accepts 2
    accepted = [frozenset({0}), frozenset({1}), frozenset({1}), frozenset({0, 2})]
    probs = [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 7)]
    tree = "(q 1 (q 2 (leaf 0) (leaf 1)) (q 2 (leaf 1) (leaf 2)))"
    ok = {"record": "dce", "depth": 2, "success": "1/1", "witness_tree": tree, "passed": True}
    assert checks.check_dce(0, _lines(ok), accepted, probs, Fraction(1, 3))[0] == []
    off = dict(ok, success="6/7")
    problems, _ = checks.check_dce(0, _lines(off), accepted, probs, Fraction(1, 3))
    assert any("witness succeeds with 1" in p for p in problems)
    shallow = dict(ok, depth=1)
    assert checks.check_dce(0, _lines(shallow), accepted, probs, Fraction(1, 3))[0]


def _simulate_stdout(q0="1/4"):
    per_z = [
        {"record": "simulate-z", "z": z, "budget": 1, "passed": True,
         "trace_leaf": 0, "trace_output": 0, "trace_z_queries": [0],
         "leaves": {"0": {"p": "1/4", "q": q0, "snip": 0},
                    "1": {"p": "3/4", "q": "3/4", "snip": 0}}}
        for z in range(2)
    ]
    chain = {"record": "success-chain", "passed": True, "success_outer": "1/2"}
    return _lines(*per_z, chain)


def test_simulate_check_catches_q_not_summing_to_one():
    problems, _, q = checks.check_simulate(0, _simulate_stdout(), 1)
    assert problems == [] and q[1] == {0: Fraction(1, 4), 1: Fraction(3, 4)}
    problems, _, _ = checks.check_simulate(0, _simulate_stdout(q0="1/5"), 1)
    assert len(problems) == 2 and "sum q = 19/20" in problems[0]


def test_walk_check_catches_bad_counts():
    q = {0: Fraction(1, 4), 1: Fraction(3, 4), 2: Fraction(0)}
    assert checks.check_walks({0: 250, 1: 750}, 1000, q)[0] == []
    assert checks.check_walks({0: 250, 1: 749}, 1000, q)[0]          # lost a walk
    assert checks.check_walks({0: 249, 1: 750, 2: 1}, 1000, q)[0]    # impossible leaf
    assert checks.check_walks({0: 500, 1: 500}, 1000, q)[0]          # wrong law


def test_rqc_check_catches_limit_hit():
    rec = {"record": "rqc", "depth": 1, "lower_value": "1/1", "upper_value": "1/1",
           "witness_tree": "(q 1 (leaf 0) (leaf 1))", "hard_dist": ["1/2", "1/2"],
           "iterations": 1, "limit_hit": False, "certified_depth": 1, "passed": True}
    assert checks.check_rqc(0, _lines(rec), 1, Fraction(1, 3))[0] == []
    assert checks.check_rqc(0, _lines(dict(rec, limit_hit=True)), 1, Fraction(1, 3))[0]
    assert checks.check_rqc(0, _lines(dict(rec, hard_dist=["1/2", "1/3"])), 1, Fraction(1, 3))[0]


def test_hard_check_catches_wrong_inner_complexity(tmp_path):
    (tmp_path / "mu.dist").write_text("arity=2\n1/4\n1/4\n1/4\n1/4\n")
    rec = {"record": "build-instance", "manifest": str(tmp_path / "instance.json"),
           "inner_complexity": 2, "passed": True}
    xor2 = [0, 1, 1, 0]
    assert checks.check_hard(0, _lines(rec), xor2, Fraction(1, 3))[0] == []
    assert checks.check_hard(0, _lines(dict(rec, inner_complexity=1)), xor2, Fraction(1, 3))[0]


def test_check_dist_complexity_reference():
    xor2 = [0, 1, 1, 0]
    uniform = [Fraction(1, 4)] * 4
    assert checks.dist_complexity(xor2, uniform, Fraction(1, 4)) == 2
    assert checks.dist_complexity([0, 0, 0, 1], uniform, Fraction(1, 4)) == 0


# --- tracer -------------------------------------------------------------------


def _bindings():
    import importlib

    import qclab

    spaces = [qclab] + [importlib.import_module(f"qclab.{name}") for name in LAYERS]
    out = {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()}
    sim = qclab.simulate.AprimeSimulator
    dp = qclab.complexity._TreeDP
    out["init"], out["stream"], out["dp"] = sim.__init__, sim.run_stream, dp.__init__
    return out


def test_tracer_restores_every_binding():
    import qclab.core
    import qclab.simulate

    before = _bindings()
    original = qclab.core.subcube_prob
    tracer = Tracer()
    with tracer.installed():
        assert qclab.core.subcube_prob is not original
        assert qclab.simulate.subcube_prob is qclab.core.subcube_prob
        assert qclab.subcube_prob is qclab.core.subcube_prob
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_tracer_spans_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap("core.inner", inner)
    outer_fn = tracer.wrap("simulate.outer", outer)
    with tracer.run("0/0:test", "test"):
        assert outer_fn() == 2
    # outer: 0..5, inner: 1..2 and 3..4
    summary = tracer.summary()
    assert summary["simulate.outer.s"] == 5 and summary["simulate.outer.self_s"] == 3
    assert summary["core.inner.calls"] == 2 and summary["core.self_s"] == 2
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {"0/0:test"}


def test_tracer_counts_dp_solves_and_games():
    from qclab.core import Dist, xor_fn
    from qclab.complexity import best_success, rand_complexity

    tracer = Tracer()
    with tracer.installed(), tracer.run("0/0:dce", "dce"):
        import qclab.complexity as cx

        cx.best_success(xor_fn(2), Dist.uniform(2), 2)
        cx.rand_complexity(xor_fn(2), Fraction(1, 3))
    assert tracer.counters["complexity.dp_solves[dce]"] >= 2
    assert tracer.counters["complexity.game_iterations"] >= 1
    assert best_success is cx.best_success and rand_complexity is cx.rand_complexity


# --- host-speed scaling --------------------------------------------------------


def test_sampler_samples_only_while_measuring_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval=0.01) as sampler:
        time.sleep(0.1)
        assert sampler.samples == []
        with sampler.measuring():
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples and all(t > 0 for t in sampler.samples)
    assert sampler.spent >= sum(sampler.samples)


def test_scale_is_nominal_over_median_chunk():
    assert calibrate.scale([]) == 1.0
    n = calibrate.NOMINAL_S
    assert calibrate.scale([n / 2, n / 2, 4 * n]) == pytest.approx(2.0)


# --- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.GENERATORS)
