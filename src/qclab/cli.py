"""Command-line harness: compute complexities, build composed instances,
run the simulator, and run the verification sweeps.

Every command is deterministic given its arguments (including seeds) and
returns its line-delimited JSON records, with exact rationals as "p/q"
strings; :func:`main` alone writes them, once the command has finished.
``dce``, ``rqc``, ``simulate`` and ``verify`` write them to their --out
report file, or to standard output when it is left out.  For
``build-instance`` and ``xor-stack``, --out names the instance directory
or the stacked truth table they build, which they write only after
everything they report has been computed; their records go to standard
output.  The process exits 0 exactly when every verdict in the run passes,
1 when one fails, and 2 on an input or i/o error, such as an unwritable
--out; a run that fails writes no records.

Importing this module loads only the file formats (``io``, ``core`` and
``dtree``).  Each command imports the solvers it calls when it runs:
``dce`` and ``rqc`` load ``complexity``, ``simulate`` the simulator,
``verify`` the sweeps, and the simulator too with --tree,
``build-instance`` and ``xor-stack`` the composer.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .core import QclabError, Relation, TruthTable
from .io import (
    _int,
    format_ratio,
    format_tree,
    format_truth_table,
    load_instance,
    parse_dist,
    parse_fraction,
    parse_relation,
    parse_tree,
    parse_truth_table,
    read_instance,
    record_to_json,
    write_instance,
)


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


def _int_flag(args, name: str, default: int) -> int:
    """The value of the integer option ``name``, read by the grammar of
    the input files' integer fields, or ``default`` when it is left out."""
    text = getattr(args, name)
    if text is None:
        return default
    try:
        return _int(text.strip())
    except ValueError:
        option = _FLAGS[name][0]
        raise QclabError(f"{args.command} {option} needs an integer, got {text!r}") from None


def _load_problem(args) -> Relation | TruthTable:
    if len(_given(args, ("g", "f"))) == 2:
        raise QclabError("give one of --g and --f, not both")
    if args.g is not None:
        return parse_truth_table(Path(args.g).read_text())
    return parse_relation(Path(args.f).read_text())


def _load_instance(args):
    """The instance of --instance, or of --g and --f; ``build_instance``
    supplies whatever of --mu, --lambda, --eps and --theta is left out."""
    if getattr(args, "instance", None) is None:  # build-instance has no --instance
        return load_instance(args.g, args.f, args.mu, args.lam, args.eps, args.theta)
    fixed = _given(args, _INSTANCE[1:])
    if fixed:
        raise QclabError(f"--instance fixes the instance; drop {', '.join(fixed)}")
    return read_instance(Path(args.instance))


def cmd_dce(args) -> list[dict]:
    from .complexity import dist_solution

    _require(args, ("g", "f"), "mu", "eps")
    h = _load_problem(args)
    mu = parse_dist(Path(args.mu).read_text())
    eps = parse_fraction(args.eps)
    depth, dp = dist_solution(h, mu, eps)
    return [{
        "record": "dce",
        "depth": depth,
        "success": dp.success,
        "witness_tree": format_tree(dp.witness).strip(),
        "passed": True,
    }]


def cmd_rqc(args) -> list[dict]:
    from .complexity import rand_complexity

    _require(args, ("g", "f"), "eps")
    h = _load_problem(args)
    result = rand_complexity(h, parse_fraction(args.eps))
    return [{
        "record": "rqc",
        "depth": result.depth,
        "lower_value": result.lower_value,
        "upper_value": result.upper_value,
        "witness_tree": format_tree(result.best_tree).strip(),
        "hard_dist": result.hard_dist.probs,
        "iterations": result.iterations,
        "limit_hit": result.limit_hit,
        "certified_depth": result.certified_depth,
        "passed": result.certified_depth >= result.depth,
    }]


def cmd_build_instance(args) -> list[dict]:
    _require(args, "g", "f")
    inst = _load_instance(args)
    manifest = write_instance(inst, Path("instance" if args.data is None else args.data))
    return [{
        "record": "build-instance",
        "manifest": str(manifest),
        "n": inst.n,
        "m": inst.m,
        "inner_complexity": inst.inner_complexity,
        "epsilon": inst.epsilon,
        "theta": inst.theta,
        "passed": True,
    }]


def cmd_simulate(args) -> list[dict]:
    from .simulate import Simulation

    seed = _int_flag(args, "seed", 0)
    if seed < 0:
        # Random(-s) seeds the stream Random(s) does, so z would repeat
        # another z's walk (-1 + 0 and -1 + 2) or another seed's run
        raise QclabError(f"simulate --seed must be at least 0, got {seed}")
    _require(args, "tree", *(() if args.instance is not None else ("g", "f", "mu")))
    inst = _load_instance(args)
    tree = parse_tree(Path(args.tree).read_text(), inst.total_arity)
    simulation = Simulation(inst, tree)  # once for every z below
    records = []
    snipped = simulation.snipped.any(1).astype(int).tolist()
    leaves = list(zip(map(str, simulation.leaf_ids), snipped))
    for z in range(1 << inst.n):
        if inst.lam.prob(z) == 0:
            continue
        p_nums, p_dens, q_nums, q_dens = simulation.rows(z)
        trace = simulation.run(z, seed + z)
        records.append({
            "record": "simulate-z",
            "z": z,
            "trace_leaf": trace.leaf_id,
            "trace_output": trace.output,
            "trace_z_queries": trace.z_queries,
            "budget": simulation.budget,
            "leaves": {
                lid: {"p": format_ratio(pn, pd), "q": format_ratio(qn, qd), "snip": snip}
                for (lid, snip), pn, pd, qn, qd in zip(leaves, p_nums, p_dens, q_nums, q_dens)
            },
            "passed": len(trace.z_queries) <= simulation.budget,
        })
    chain = simulation.chain()
    return records + [{
        "record": "success-chain",
        "success_outer": chain.success_outer,
        "success_sim": chain.success_sim,
        "lower_bound": chain.lower_bound,
        "worst_z_queries": chain.worst_z_queries,
        "expected_z_queries": chain.expected_z_queries,
        "budget": chain.budget,
        "passed": chain.passed,
    }]


def cmd_verify(args) -> list[dict]:
    from .sweeps import sweep_fullbias, sweep_rbias, sweep_unbias

    unread = [] if args.tree is not None else _given(args, _INSTANCE)
    if unread:
        raise QclabError(f"verify reads {', '.join(unread)} only with --tree")
    if args.tree is not None and args.instance is None and len(_given(args, ("g", "f", "mu"))) < 3:
        raise QclabError("verify --tree needs --instance, or all of --g, --f and --mu")
    max_m = _int_flag(args, "m", 3)
    if max_m < 1:
        raise QclabError(f"verify --m must be at least 1, got {max_m}")
    if max_m > 3:
        raise QclabError(f"verify --m must be at most 3, got {max_m}")
    if args.tree is not None:
        from .simulate import Simulation

        inst = _load_instance(args)
        tree = parse_tree(Path(args.tree).read_text(), inst.total_arity)
    records = [{
        "record": f"sweep-{report.name}",
        "cases": report.cases,
        "violations": len(report.violations),
        "passed": report.passed,
    } for report in (
        sweep_unbias() if max_m == 3 else sweep_unbias(max_m=max_m, sampled_m4=0),
        sweep_rbias(max_m=max_m),
        sweep_fullbias(max_m=max_m),
    )]
    if args.tree is None:
        return records
    simulation = Simulation(inst, tree)  # once for every z below
    for z in range(1 << inst.n):
        if inst.lam.prob(z) == 0:
            continue
        sim, lil = simulation.simileaf(z), simulation.lilsnip(z)
        records.append({
            "record": "verify-instance",
            "z": z,
            "simileaf_checked": sim.checked_leaves,
            "simileaf_violations": len(sim.violations),
            "lilsnip_total_mass": lil.total_snipped_mass,
            "passed": sim.passed and lil.passed,
        })
    return records


def cmd_xor_stack(args) -> list[dict]:
    from .complexity import rand_complexity
    from .compose import xor_stack

    _require(args, "g")
    g = parse_truth_table(Path(args.g).read_text())
    t = _int_flag(args, "t", 2)
    stacked = xor_stack(g, t)
    record = {
        "record": "xor-stack",
        "t": t,
        "arity": stacked.arity,
        "passed": True,
    }
    if args.eps is not None:
        result = rand_complexity(stacked, parse_fraction(args.eps))
        record["depth"] = result.depth
        record["limit_hit"] = result.limit_hit
    if args.data is not None:  # after the game, so a failed one writes no table
        Path(args.data).write_text(format_truth_table(stacked))
    return [record]


_FLAGS = {
    "g": ("--g", dict(help="truth table file for the inner function")),
    "f": ("--f", dict(help="relation file for the outer problem")),
    "mu": ("--mu", dict(help="inner distribution file")),
    "lam": ("--lambda", dict(dest="lam", help="outer distribution file")),
    "tree": ("--tree", dict(help="decision tree file")),
    "instance": ("--instance", dict(help="instance manifest (JSON)")),
    "m": ("--m", dict(help="sweep arity bound, 1 to 3 (default 3)")),
    "t": ("--t", dict(help="stack height (default 2)")),
    "eps": ("--eps", dict(help="error bound as p/q")),
    "theta": ("--theta", dict(help="bias threshold as p/q")),
    "seed": ("--seed", dict(help="random seed, at least 0 (default 0)")),
    "out": ("--out", dict(help="report file (default: standard output)")),
    "data": ("--out", dict(dest="data", help="directory or file to write what is built")),
}

# each command with the flags it reads (_load_instance reads _INSTANCE); the
# report commands write their records to --out, the builders their data
_INSTANCE = ("instance", "g", "f", "mu", "lam", "eps", "theta")
_COMMANDS = {
    "dce": (cmd_dce, ("g", "f", "mu", "eps", "out")),
    "rqc": (cmd_rqc, ("g", "f", "eps", "out")),
    "build-instance": (cmd_build_instance, ("g", "f", "mu", "lam", "eps", "theta", "data")),
    "simulate": (cmd_simulate, _INSTANCE + ("tree", "seed", "out")),
    "verify": (cmd_verify, _INSTANCE + ("tree", "m", "out")),
    "xor-stack": (cmd_xor_stack, ("g", "t", "eps", "data")),
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
    """Run one command and write its records; the module docstring says
    where they go and what each exit code means."""
    args = build_parser().parse_args(argv)
    try:
        _no_empty_values(args)
        records = args.handler(args)
        text = "".join(record_to_json(record) + "\n" for record in records)
        report = getattr(args, "out", None)  # build-instance and xor-stack have none
        if report is None:
            sys.stdout.write(text)
        else:
            Path(report).write_text(text)
    except QclabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    return 0 if all(record["passed"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
