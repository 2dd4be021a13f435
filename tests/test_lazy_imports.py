"""What importing qclab loads: ``import qclab`` loads no submodule, parsing
loads the file formats alone, and each command loads only the solvers it
runs.  Every check runs in a fresh interpreter, where nothing is loaded yet."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qclab

VERDICTS = Path(__file__).parent / "data" / "verdicts"

# the package's public names by defining module, and its public submodules
EXPORTS = {
    "core": [
        "ArityMismatch", "CapExceeded", "Dist", "HypothesisViolated",
        "InnerComplexityZero", "ParseError", "QclabError", "Relation", "Subcube",
        "TruthTable", "ZeroConditioningMass", "and_fn", "constant_fn", "identity1",
        "maj3", "or_fn", "subcube_prob", "xor_fn",
    ],
    "dtree": ["DecisionTree", "InternalNode", "Leaf"],
    "complexity": [
        "DPResult", "GameResult", "best_success", "dist_complexity", "dist_solution",
        "rand_complexity",
    ],
    "compose": [
        "ComposedInstance", "build_instance", "compose_relation", "default_epsilon",
        "default_theta", "xor_stack",
    ],
    "simulate": [
        "AprimeSimulator", "ChainReport", "LilsnipReport", "SimileafReport", "Simulation",
        "SimulationTrace",
    ],
    "sweeps": ["SweepReport", "sweep_fullbias", "sweep_rbias", "sweep_unbias"],
}
SUBMODULES = ["complexity", "compose", "core", "dtree", "lattice", "simulate", "sweeps", "walk"]
ALL = sorted([name for names in EXPORTS.values() for name in names] + SUBMODULES)

FORMATS = {"core", "dtree", "io"}
SOLVERS = FORMATS | {"cli", "complexity", "lattice"}
COMPOSER = SOLVERS | {"compose"}
SIMULATOR = COMPOSER | {"simulate", "walk"}

INSTANCE = [
    "--g", str(VERDICTS / "g.tt"), "--f", str(VERDICTS / "f.rel"),
    "--mu", str(VERDICTS / "mu.dist"), "--tree", str(VERDICTS / "tree.sexp"),
    "--eps", "7/16", "--theta", "1/2",
]


def _fresh(code: str, cwd=None):
    """What ``code`` prints as JSON, run in a fresh interpreter that imports
    this checkout's qclab; ``_loaded()`` there names the qclab modules loaded
    so far, without the package prefix, and whether numpy is among them."""
    prelude = (
        "import json, sys\n"
        "def _loaded():\n"
        "    names = sorted(m[6:] for m in sys.modules if m.startswith('qclab.'))\n"
        "    return names, 'numpy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qclab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", prelude + code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_qclab_loads_no_submodule():
    assert _fresh("import qclab\nprint(json.dumps(_loaded()))") == [[], False]


@pytest.mark.parametrize("parse, file, extra", [
    ("parse_truth_table", "g.tt", ()),
    ("parse_relation", "f.rel", ()),
    ("parse_dist", "mu.dist", ()),
    ("parse_tree", "tree.sexp", (3,)),  # the arity of f.rel's one copy of g
], ids=["table", "relation", "dist", "tree"])
def test_parsing_loads_only_the_formats(parse, file, extra):
    text = (VERDICTS / file).read_text()
    loaded = _fresh(f"from qclab import io\nio.{parse}(*{(text, *extra)!r})\n"
                    "print(json.dumps(_loaded()))")
    assert loaded == [sorted(FORMATS), False]


COMMANDS = [
    (["dce", "--g", str(VERDICTS / "g.tt"), "--mu", str(VERDICTS / "mu.dist"),
      "--eps", "7/16"], "dce.jsonl", SOLVERS),
    (["rqc", "--g", str(VERDICTS / "g.tt"), "--eps", "7/16"], "rqc.jsonl", SOLVERS),
    (["build-instance", *INSTANCE[:6], "--eps", "7/16", "--theta", "1/2",
      "--out", "build-instance-mu"], "build-instance-mu.jsonl", COMPOSER),
    (["xor-stack", "--g", str(VERDICTS / "g.tt"), "--t", "2", "--eps", "7/16"],
     "xor-stack.jsonl", COMPOSER),
    (["simulate", "--seed", "3", *INSTANCE], "simulate.jsonl", SIMULATOR),
    (["verify", "--m", "1", *INSTANCE], "verify.jsonl", SIMULATOR | {"sweeps"}),
    # without --tree only the sweeps run
    (["verify", "--m", "2"], "verify-m2.jsonl", FORMATS | {"cli", "lattice", "sweeps"}),
]


@pytest.mark.parametrize("argv, golden, modules", COMMANDS,
                         ids=[c[0][0] for c in COMMANDS[:-1]] + ["verify-sweeps"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, golden, modules):
    # build-instance writes its directory under the working directory,
    # relative, as its golden record names it
    code = (
        "import contextlib, io\n"
        "from qclab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, out.getvalue(), _loaded()[0]]))"
    )
    code, out, loaded = _fresh(code, cwd=tmp_path)
    assert code == 0
    assert out == (VERDICTS / golden).read_text()
    assert loaded == sorted(modules)


def test_all_names_the_public_api():
    assert len(ALL) == 51
    assert _fresh("import qclab\nprint(json.dumps(qclab.__all__))") == ALL


def test_every_export_is_its_modules_object():
    code = (
        "import importlib, qclab\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = [name for module, names in exports.items() for name in names\n"
        "         if getattr(qclab, name) is not\n"
        "         getattr(importlib.import_module('qclab.' + module), name)]\n"
        f"wrong += [m for m in {SUBMODULES!r} if getattr(qclab, m) is not sys.modules['qclab.' + m]]\n"
        "print(json.dumps(wrong))"
    )
    assert _fresh(code) == []


def test_star_import_and_dir_name_every_export():
    code = (
        "import qclab\n"
        "namespace = {}\n"
        "exec('from qclab import *', namespace)\n"
        "print(json.dumps([sorted(set(namespace) - {'__builtins__'}),\n"
        "                  sorted(set(qclab.__all__) - set(dir(qclab)))]))"
    )
    assert _fresh(code) == [ALL, []]


def test_an_unknown_name_raises_attribute_error():
    code = (
        "import qclab\n"
        "try:\n"
        "    qclab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert _fresh(code) == "module 'qclab' has no attribute 'no_such_name'"


def test_reading_an_export_stores_nothing():
    # a stored name would outlive a rebinding in its defining module, such as
    # a tracer's wrapper put back on uninstall
    code = (
        "import qclab\n"
        "for name in qclab.__all__:\n"
        "    getattr(qclab, name)\n"
        "before = dict(vars(qclab))\n"
        "for name in qclab.__all__:\n"
        "    getattr(qclab, name)\n"
        "after = vars(qclab)\n"
        "print(json.dumps([before == after, sorted(set(after) & set(qclab.__all__))]))"
    )
    assert _fresh(code) == [True, SUBMODULES]
