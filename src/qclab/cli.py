"""Command-line harness: compute complexities, build composed instances,
run the simulator, and run the verification sweeps.

Every command is deterministic given its arguments (including seeds) and
emits line-delimited JSON records with exact rationals as "p/q" strings.
The process exits 0 exactly when every verdict in the run passes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compose import build_instance, default_epsilon, xor_stack
from .complexity import best_success, dist_complexity, rand_complexity
from .core import Dist, QclabError, Relation, TruthTable
from .io import (
    format_fraction,
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
from .simulate import (
    leaf_reports,
    run_Aprime,
    success_chain,
    verify_lilsnip,
    verify_simileaf,
)
from .sweeps import sweep_fullbias, sweep_rbias, sweep_unbias


class _Emitter:
    def __init__(self, out_path: str | None):
        self.records: list[str] = []
        self.out_path = out_path
        self.all_pass = True

    def emit(self, record: dict):
        if record.get("passed") is False:
            self.all_pass = False
        self.records.append(record_to_json(record))

    def flush(self):
        text = "\n".join(self.records) + "\n" if self.records else ""
        if self.out_path:
            Path(self.out_path).write_text(text)
        else:
            sys.stdout.write(text)


def _load_problem(args) -> Relation | TruthTable:
    if getattr(args, "g", None):
        return parse_truth_table(Path(args.g).read_text())
    if getattr(args, "f", None):
        return parse_relation(Path(args.f).read_text())
    raise QclabError("need --g or --f")


def _load_instance(args):
    if getattr(args, "instance", None):
        return read_instance(Path(args.instance))
    g = parse_truth_table(Path(args.g).read_text())
    f = parse_relation(Path(args.f).read_text())
    mu = parse_dist(Path(args.mu).read_text())
    lam = (
        parse_dist(Path(getattr(args, "lam")).read_text())
        if getattr(args, "lam", None)
        else Dist.uniform(f.arity)
    )
    eps = parse_fraction(args.eps) if args.eps else None
    theta = parse_fraction(args.theta) if args.theta else None
    return build_instance(f, g, mu, lam, epsilon=eps, theta=theta)


def cmd_dce(args, emit: _Emitter) -> None:
    h = _load_problem(args)
    mu = parse_dist(Path(args.mu).read_text())
    eps = parse_fraction(args.eps)
    depth = dist_complexity(h, mu, eps)
    dp = best_success(h, mu, depth)
    emit.emit({
        "record": "dce",
        "depth": depth,
        "success": dp.success,
        "witness_tree": format_tree(dp.witness).strip(),
        "passed": True,
    })


def cmd_rqc(args, emit: _Emitter) -> None:
    h = _load_problem(args)
    eps = parse_fraction(args.eps)
    result = rand_complexity(
        h, eps,
        tol=parse_fraction(args.tol),
        max_iter=args.max_iter,
    )
    certified = dist_complexity(h, result.hard_dist, eps)
    emit.emit({
        "record": "rqc",
        "depth": result.depth,
        "lower_value": result.lower_value,
        "upper_value": result.upper_value,
        "witness_tree": format_tree(result.best_tree).strip(),
        "hard_dist": [format_fraction(p) for p in result.hard_dist.probs],
        "iterations": result.iterations,
        "limit_hit": result.limit_hit,
        "certified_depth": certified,
        "passed": certified >= result.depth,
    })


def cmd_build_instance(args, emit: _Emitter) -> None:
    from .complexity import hard_distribution

    g = parse_truth_table(Path(args.g).read_text())
    f = parse_relation(Path(args.f).read_text())
    n = f.arity
    eps = parse_fraction(args.eps) if args.eps else default_epsilon(n)
    theta = parse_fraction(args.theta) if args.theta else None
    lam = (
        parse_dist(Path(args.lam).read_text())
        if args.lam else Dist.uniform(n)
    )
    mu = (
        parse_dist(Path(args.mu).read_text())
        if args.mu
        else hard_distribution(g, eps, tol=parse_fraction(args.tol), max_iter=args.max_iter)
    )
    inst = build_instance(f, g, mu, lam, epsilon=eps, theta=theta)
    out_dir = Path(args.out) if args.out else Path("instance")
    manifest = write_instance(inst, out_dir)
    emit.emit({
        "record": "build-instance",
        "manifest": str(manifest),
        "n": inst.n,
        "m": inst.m,
        "inner_complexity": inst.inner_complexity,
        "epsilon": inst.epsilon,
        "theta": inst.theta,
        "passed": True,
    })
    emit.out_path = None  # manifest written; record goes to stdout


def cmd_simulate(args, emit: _Emitter) -> None:
    inst = _load_instance(args)
    tree = parse_tree(Path(args.tree).read_text(), inst.total_arity)
    budget = tree.depth() // inst.inner_complexity
    for z in range(1 << inst.n):
        if inst.lam.prob(z) == 0:
            continue
        reports = leaf_reports(inst, tree, z)
        trace = run_Aprime(inst, tree, z, args.seed + z)
        emit.emit({
            "record": "simulate-z",
            "z": z,
            "trace_leaf": trace.leaf_id,
            "trace_output": trace.output,
            "trace_z_queries": list(trace.z_queries),
            "budget": budget,
            "leaves": {
                lid: {
                    "p": r.p,
                    "q": r.q,
                    "snip": r.snip,
                }
                for lid, r in sorted(reports.items())
            },
            "passed": len(trace.z_queries) <= budget,
        })
    chain = success_chain(inst, tree)
    emit.emit({
        "record": "success-chain",
        "success_outer": chain.success_outer,
        "success_sim": chain.success_sim,
        "lower_bound": chain.lower_bound,
        "worst_z_queries": chain.worst_z_queries,
        "expected_z_queries": chain.expected_z_queries,
        "budget": chain.budget,
        "passed": chain.passed,
    })


def cmd_verify(args, emit: _Emitter) -> None:
    max_m = args.m if args.m else 3
    for report in (
        sweep_unbias() if max_m >= 3 else sweep_unbias(sampled_m4=0),
        sweep_rbias(max_m=min(max_m, 3)),
        sweep_fullbias(max_m=min(max_m, 3)),
    ):
        emit.emit({
            "record": f"sweep-{report.name}",
            "cases": report.cases,
            "violations": len(report.violations),
            "passed": report.passed,
        })
    if args.g and args.f and args.mu and args.tree:
        inst = _load_instance(args)
        tree = parse_tree(Path(args.tree).read_text(), inst.total_arity)
        for z in range(1 << inst.n):
            if inst.lam.prob(z) == 0:
                continue
            sim = verify_simileaf(inst, tree, z)
            lil = verify_lilsnip(inst, tree, z)
            emit.emit({
                "record": "verify-instance",
                "z": z,
                "simileaf_checked": sim.checked_leaves,
                "simileaf_violations": len(sim.violations),
                "lilsnip_total_mass": lil.total_snipped_mass,
                "passed": sim.passed and lil.passed,
            })


def cmd_xor_stack(args, emit: _Emitter) -> None:
    g = parse_truth_table(Path(args.g).read_text())
    stacked = xor_stack(g, args.t)
    if args.out:
        Path(args.out).write_text(format_truth_table(stacked))
    record = {
        "record": "xor-stack",
        "t": args.t,
        "arity": stacked.arity,
        "passed": True,
    }
    if args.eps:
        result = rand_complexity(
            stacked, parse_fraction(args.eps),
            tol=parse_fraction(args.tol), max_iter=args.max_iter,
        )
        record["depth"] = result.depth
        record["limit_hit"] = result.limit_hit
    emit.emit(record)
    if args.out:
        emit.out_path = None  # table written; record goes to stdout


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--g", help="truth table file for the inner function")
    p.add_argument("--f", help="relation file for the outer problem")
    p.add_argument("--mu", help="inner distribution file")
    p.add_argument("--lambda", dest="lam", help="outer distribution file")
    p.add_argument("--tree", help="decision tree file")
    p.add_argument("--instance", help="instance manifest (JSON)")
    p.add_argument("--m", type=int, help="inner arity / sweep arity bound")
    p.add_argument("--t", type=int, default=2, help="stack height")
    p.add_argument("--eps", help="error bound as p/q")
    p.add_argument("--theta", help="bias threshold as p/q")
    p.add_argument("--tol", default="1/100", help="game value tolerance as p/q")
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (report file or directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclab",
        description="exact decision-tree complexity laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "dce": cmd_dce,
        "rqc": cmd_rqc,
        "build-instance": cmd_build_instance,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "xor-stack": cmd_xor_stack,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    emit = _Emitter(args.out)
    try:
        args.handler(args, emit)
    except QclabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    emit.flush()
    return 0 if emit.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
