"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import qclab

PACKAGE = Path(qclab.__file__).parent
# perfbench's tracer self-test checks this binding
ALLOWED = {("simulate", "subcube_prob")}


def _annotation_names(node) -> set[str]:
    """Names inside quoted annotations such as ``-> "Subcube"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        tree = ast.parse(node.value, mode="eval")
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return imported - used


def test_detects_an_unused_import():
    source = "from .core import Dist, restrict_dist\n\ndef f() -> 'Dist':\n    pass\n"
    assert unused_imports(source) == {"restrict_dist"}


def test_no_module_imports_a_name_it_never_uses():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        found |= {(path.stem, name) for name in unused_imports(path.read_text())}
    assert found == ALLOWED
