"""Malformed input never ends in a traceback.

Every ``parse_*`` function either returns or raises ``QclabError``, and
every command run by ``cli.main`` on generated files and option values
exits 0 or 2: 2 for an input error (argparse's own errors included), never
1, which means a failed verdict, and never an uncaught exception.  The
generated files are random text, valid files with a few edits, and valid
files with a random header arity.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab.cli import main
from qclab.compose import build_instance
from qclab.core import Dist, QclabError, Relation, xor_fn
from qclab.io import (
    format_dist,
    format_relation,
    format_truth_table,
    parse_dist,
    parse_fraction,
    parse_relation,
    parse_tree,
    parse_truth_table,
    write_instance,
)

VALID = {
    "g": format_truth_table(xor_fn(2)),
    "f": format_relation(Relation.from_function(xor_fn(2))),
    "mu": format_dist(Dist.uniform(2)),
    "tree": "(q 1 (q 2 (leaf 0) (leaf 1)) (q 2 (leaf 1) (leaf 0)))\n",
    "fraction": "1/4",
}
INSTANCE_FILES = {
    "g.tt": VALID["g"],
    "f.rel": VALID["f"],
    "mu.dist": VALID["mu"],
    "lambda.dist": format_dist(Dist.uniform(2)),
}
PARSERS = {
    "g": parse_truth_table,
    "f": parse_relation,
    "mu": parse_dist,
    "tree": lambda text: parse_tree(text, 2),
    "fraction": parse_fraction,
}
PIECES = [
    "0", "1", "7", "-", "/", "=", ":", ",", " ", "\n", "(", ")", "q", "leaf",
    "arity=", "alphabet=", "-3", "1/0", "99999999999", "\x00", "é", "٣",
]


@st.composite
def edited(draw, text: str) -> str:
    """``text`` with a few characters deleted, replaced or inserted."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(PIECES))
        if op == "insert" or i == len(chars):
            chars[i:i] = [piece]
        elif op == "delete":
            del chars[i]
        else:
            chars[i] = piece
    return "".join(chars)


def file_text(valid: str):
    reheaded = st.integers(-(2**70), 2**70).map(
        lambda a: re.sub(r"arity=\d+", f"arity={a}", valid, count=1)
    )
    return st.one_of(st.text(max_size=40), edited(valid), reheaded, st.just(valid))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(PARSERS)))
def test_parsers_raise_only_qclab_errors(data, kind):
    text = data.draw(file_text(VALID[kind]))
    try:
        PARSERS[kind](text)
    except QclabError:
        pass


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a malformed option value
            return exc.code


def _manifests():
    """A valid manifest, and edits of it: keys dropped, values replaced by
    other JSON values or strings, or the text edited as a whole."""
    inst = build_instance(
        Relation.from_function(xor_fn(2)), xor_fn(2), Dist.uniform(2), Dist.uniform(2),
        epsilon=parse_fraction("7/16"), theta=parse_fraction("1/2"),
    )
    with tempfile.TemporaryDirectory() as tmp:
        valid = json.loads(write_instance(inst, Path(tmp)).read_text())
    values = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=8),
        st.sampled_from(["g.tt", "f.rel", "mu.dist", "lambda.dist", "0", "1/2", "7/16", "1/0"]),
        st.lists(st.integers(), max_size=2),
    )
    changed = st.dictionaries(st.sampled_from(sorted(valid)), values, min_size=1, max_size=3)

    def apply(edits):
        out = dict(valid)
        for key, value in edits.items():
            if value is None:
                out.pop(key)
            else:
                out[key] = value
        return json.dumps(out)

    return json.dumps(valid), st.one_of(changed.map(apply), edited(json.dumps(valid)),
                                        st.text(max_size=20))


VALID_MANIFEST, MANIFESTS = _manifests()
FRACTIONS = st.one_of(
    st.sampled_from(["1/4", "1/3", "7/16", "1/2", "0", "1/0", "x", "", "-1/4", "3/2"]),
    st.text(max_size=6),
)


COMMANDS = ["dce-g", "dce-f", "build-instance", "build-instance-hard", "xor-stack", "simulate"]


def _write_inputs(d: Path, files: dict, manifest: str) -> None:
    for key, text in files.items():
        (d / key).write_text(text)
    (d / "inst").mkdir()
    for name, text in INSTANCE_FILES.items():
        (d / "inst" / name).write_text(text)
    (d / "inst" / "instance.json").write_text(manifest)


def _argv(d: Path, command: str, eps="1/4", theta="1/2", t=2) -> list[str]:
    """The command line of ``command`` on the inputs ``_write_inputs`` put in ``d``."""
    argv = {
        "dce-g": ["dce", "--g", d / "g", "--mu", d / "mu", "--eps", eps],
        "dce-f": ["dce", "--f", d / "f", "--mu", d / "mu", "--eps", eps],
        "build-instance": ["build-instance", "--g", d / "g", "--f", d / "f", "--mu", d / "mu",
                           "--eps", eps, "--theta", theta, "--out", d / "built"],
        "build-instance-hard": ["build-instance", "--g", d / "g", "--f", d / "f",
                                "--eps", eps, "--out", d / "built"],
        "xor-stack": ["xor-stack", "--g", d / "g", "--t", t, "--out", d / "stacked"],
        "simulate": ["simulate", "--instance", d / "inst" / "instance.json",
                     "--tree", d / "tree"],
    }[command]
    return [str(a) for a in argv]


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    target=st.sampled_from(["g", "f", "mu", "tree", "manifest", "eps", "theta", "t", None]),
    data=st.data(),
)
def test_cli_exits_0_or_2(command, target, data):
    """One input at a time is generated; the others stay valid, so the
    command runs past the parsers."""
    files = {k: VALID[k] for k in ("g", "f", "mu", "tree")}
    if target in files:
        files[target] = data.draw(file_text(VALID[target]))
    manifest = data.draw(MANIFESTS) if target == "manifest" else VALID_MANIFEST
    eps = data.draw(FRACTIONS) if target == "eps" else "1/4"
    theta = data.draw(FRACTIONS) if target == "theta" else "1/2"
    t = data.draw(st.integers(-2, 5)) if target == "t" else 2
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _write_inputs(d, files, manifest)
        assert _run(_argv(d, command, eps, theta, t)) in (0, 2)


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_inputs_exit_0(command, tmp_path):
    """The inputs the fuzz tests start from run to the end, so an exit 2
    there comes from the one input a test changed."""
    _write_inputs(tmp_path, {k: VALID[k] for k in ("g", "f", "mu", "tree")}, VALID_MANIFEST)
    assert _run(_argv(tmp_path, command)) == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_without_each_flag_exits_0_or_2(command, tmp_path, monkeypatch):
    """A command missing any one of its flags runs on defaults or names
    what is missing; build-instance without --out writes ./instance."""
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, {k: VALID[k] for k in ("g", "f", "mu", "tree")}, VALID_MANIFEST)
    argv = _argv(tmp_path, command)
    for i in range(1, len(argv), 2):
        assert _run(argv[:i] + argv[i + 2:]) in (0, 2), argv[i]
