"""Command-line harness: compute complexities, build composed instances,
run the simulator, and run the verification sweeps.

Every command is deterministic given its arguments (including seeds) and
emits line-delimited JSON records with exact rationals as "p/q" strings.
The process exits 0 exactly when every verdict in the run passes.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .compose import build_instance, default_epsilon, xor_stack
from .complexity import _certify, _hard_complexity, dist_solution, rand_complexity
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
from .simulate import _chain, _Compiled, _instance_checks
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
        if self.out_path is not None:
            Path(self.out_path).write_text(text)
        else:
            sys.stdout.write(text)


def _given(args, names) -> list[str]:
    """The options among ``names`` that the command line set."""
    return [_FLAGS[name][0] for name in names if getattr(args, name) is not None]


def _no_empty_values(args) -> None:
    """Raise one input error naming every option given an empty value: an
    empty path, number or fraction is never meant as the option's default."""
    empty = [option for name, (option, _) in _FLAGS.items() if getattr(args, name, None) == ""]
    if empty:
        raise QclabError(f"{args.command} got an empty value for {', '.join(empty)}")


def _require(args, *needs) -> None:
    """Raise one input error naming every option the command line left out;
    a tuple of names is met by any one of them."""
    unmet = [
        " or ".join(_FLAGS[name][0] for name in need)
        for need in ((n,) if isinstance(n, str) else n for n in needs)
        if not _given(args, need)
    ]
    if unmet:
        raise QclabError(f"{args.command} needs {', '.join(unmet)}")


def _load_problem(args) -> Relation | TruthTable:
    if len(_given(args, ("g", "f"))) == 2:
        raise QclabError("give one of --g and --f, not both")
    if args.g is not None:
        return parse_truth_table(Path(args.g).read_text())
    return parse_relation(Path(args.f).read_text())


def _load_instance(args):
    if args.instance is not None:
        fixed = _given(args, _INSTANCE[1:])
        if fixed:
            raise QclabError(f"--instance fixes the instance; drop {', '.join(fixed)}")
        return read_instance(Path(args.instance))
    g = parse_truth_table(Path(args.g).read_text())
    f = parse_relation(Path(args.f).read_text())
    mu = parse_dist(Path(args.mu).read_text())
    lam = parse_dist(Path(args.lam).read_text()) if args.lam is not None else Dist.uniform(f.arity)
    eps = parse_fraction(args.eps) if args.eps is not None else None
    theta = parse_fraction(args.theta) if args.theta is not None else None
    return build_instance(f, g, mu, lam, epsilon=eps, theta=theta)


def cmd_dce(args, emit: _Emitter) -> None:
    _require(args, ("g", "f"), "mu", "eps")
    h = _load_problem(args)
    mu = parse_dist(Path(args.mu).read_text())
    eps = parse_fraction(args.eps)
    depth, dp = dist_solution(h, mu, eps)
    emit.emit({
        "record": "dce",
        "depth": depth,
        "success": dp.success,
        "witness_tree": format_tree(dp.witness).strip(),
        "passed": True,
    })


def cmd_rqc(args, emit: _Emitter) -> None:
    _require(args, ("g", "f"), "eps")
    h = _load_problem(args)
    eps = parse_fraction(args.eps)
    result = rand_complexity(
        h, eps,
        tol=parse_fraction(args.tol),
        max_iter=args.max_iter,
    )
    certified = _hard_complexity(h, result, eps)
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
    _require(args, "g", "f")
    g = parse_truth_table(Path(args.g).read_text())
    f = parse_relation(Path(args.f).read_text())
    n = f.arity
    eps = parse_fraction(args.eps) if args.eps is not None else default_epsilon(n)
    theta = parse_fraction(args.theta) if args.theta is not None else None
    lam = (
        parse_dist(Path(args.lam).read_text())
        if args.lam is not None else Dist.uniform(n)
    )
    if args.mu is not None:
        inst = build_instance(f, g, parse_dist(Path(args.mu).read_text()), lam,
                              epsilon=eps, theta=theta)
    else:
        # hard_distribution, with the instance's inner complexity as the
        # certificate: both are the one DP of g under the hard distribution
        game = rand_complexity(g, eps, tol=parse_fraction(args.tol), max_iter=args.max_iter)
        inst = build_instance(f, g, game.hard_dist, lam, epsilon=eps, theta=theta)
        _certify(inst.inner_complexity, game.depth)
    out_dir = Path(args.out) if args.out is not None else Path("instance")
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
    _require(args, "tree", *(() if args.instance is not None else ("g", "f", "mu")))
    inst = _load_instance(args)
    tree = parse_tree(Path(args.tree).read_text(), inst.total_arity)
    budget = tree.depth() // inst.inner_complexity
    compiled = _Compiled(inst, tree)  # once for every z below
    snips = compiled.snips(inst.theta)
    for z in range(1 << inst.n):
        if inst.lam.prob(z) == 0:
            continue
        p, q = compiled.p(z), compiled.q(z)
        trace = compiled.run(z, args.seed + z)
        emit.emit({
            "record": "simulate-z",
            "z": z,
            "trace_leaf": trace.leaf_id,
            "trace_output": trace.output,
            "trace_z_queries": list(trace.z_queries),
            "budget": budget,
            "leaves": {
                lid: {"p": p[lid], "q": q[lid], "snip": 1 if any(snips[lid]) else 0}
                for lid in sorted(p)
            },
            "passed": len(trace.z_queries) <= budget,
        })
    chain = _chain(compiled)
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
    unread = [] if args.tree is not None else _given(args, _INSTANCE)
    if unread:
        raise QclabError(f"verify reads {', '.join(unread)} only with --tree")
    if args.tree is not None and args.instance is None and len(_given(args, ("g", "f", "mu"))) < 3:
        raise QclabError("verify --tree needs --instance, or all of --g, --f and --mu")
    max_m = 3 if args.m is None else args.m
    if max_m < 1:
        raise QclabError(f"verify --m must be at least 1, got {max_m}")
    if args.tree is not None:
        inst = _load_instance(args)
        tree = parse_tree(Path(args.tree).read_text(), inst.total_arity)
    for report in (
        sweep_unbias() if max_m >= 3 else sweep_unbias(max_m=max_m, sampled_m4=0),
        sweep_rbias(max_m=min(max_m, 3)),
        sweep_fullbias(max_m=min(max_m, 3)),
    ):
        emit.emit({
            "record": f"sweep-{report.name}",
            "cases": report.cases,
            "violations": len(report.violations),
            "passed": report.passed,
        })
    if args.tree is not None:
        for z, sim, lil in _instance_checks(inst, tree):
            emit.emit({
                "record": "verify-instance",
                "z": z,
                "simileaf_checked": sim.checked_leaves,
                "simileaf_violations": len(sim.violations),
                "lilsnip_total_mass": lil.total_snipped_mass,
                "passed": sim.passed and lil.passed,
            })


def cmd_xor_stack(args, emit: _Emitter) -> None:
    _require(args, "g")
    g = parse_truth_table(Path(args.g).read_text())
    stacked = xor_stack(g, args.t)
    if args.out is not None:
        Path(args.out).write_text(format_truth_table(stacked))
    record = {
        "record": "xor-stack",
        "t": args.t,
        "arity": stacked.arity,
        "passed": True,
    }
    if args.eps is not None:
        result = rand_complexity(
            stacked, parse_fraction(args.eps),
            tol=parse_fraction(args.tol), max_iter=args.max_iter,
        )
        record["depth"] = result.depth
        record["limit_hit"] = result.limit_hit
    emit.emit(record)
    if args.out is not None:
        emit.out_path = None  # table written; record goes to stdout


_FLAGS = {
    "g": ("--g", dict(help="truth table file for the inner function")),
    "f": ("--f", dict(help="relation file for the outer problem")),
    "mu": ("--mu", dict(help="inner distribution file")),
    "lam": ("--lambda", dict(dest="lam", help="outer distribution file")),
    "tree": ("--tree", dict(help="decision tree file")),
    "instance": ("--instance", dict(help="instance manifest (JSON)")),
    "m": ("--m", dict(type=int, help="inner arity / sweep arity bound")),
    "t": ("--t", dict(type=int, default=2, help="stack height")),
    "eps": ("--eps", dict(help="error bound as p/q")),
    "theta": ("--theta", dict(help="bias threshold as p/q")),
    "tol": ("--tol", dict(default="1/100", help="game value tolerance as p/q")),
    "max_iter": ("--max-iter", dict(type=int, default=5000)),
    "seed": ("--seed", dict(type=int, default=0)),
    "out": ("--out", dict(help="output path (report file or directory)")),
}

# each command with the flags it reads (_load_instance reads _INSTANCE)
_INSTANCE = ("instance", "g", "f", "mu", "lam", "eps", "theta")
_COMMANDS = {
    "dce": (cmd_dce, ("g", "f", "mu", "eps", "out")),
    "rqc": (cmd_rqc, ("g", "f", "eps", "tol", "max_iter", "out")),
    "build-instance": (cmd_build_instance,
                       ("g", "f", "mu", "lam", "eps", "theta", "tol", "max_iter", "out")),
    "simulate": (cmd_simulate, _INSTANCE + ("tree", "seed", "out")),
    "verify": (cmd_verify, _INSTANCE + ("tree", "m", "out")),
    "xor-stack": (cmd_xor_stack, ("g", "t", "eps", "tol", "max_iter", "out")),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and ``main`` runs many commands in one process."""
    parser = argparse.ArgumentParser(
        prog="qclab",
        description="exact decision-tree complexity laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # else --m would pass as --mu
        for flag, (option, kwargs) in _FLAGS.items():
            if flag in flags:
                p.add_argument(option, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    emit = _Emitter(args.out)
    try:
        _no_empty_values(args)
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
