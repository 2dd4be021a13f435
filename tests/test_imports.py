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


def _own_nodes(scope):
    """The nodes of ``scope`` outside the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _imported(scope) -> set[str]:
    imported = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return imported


def _used(scope) -> set[str]:
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def unused_imports(source: str) -> set[str]:
    """The names a module imports outside its functions and never uses, and
    as ``function.name`` those a function imports and never uses itself."""
    tree = ast.parse(source)
    unused = _imported(tree) - _used(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused |= {f"{node.name}.{name}" for name in _imported(node) - _used(node)}
    return unused


def test_detects_an_unused_import():
    source = "from .core import Dist, restrict_dist\n\ndef f() -> 'Dist':\n    pass\n"
    assert unused_imports(source) == {"restrict_dist"}


def test_detects_an_unused_import_inside_a_function():
    # a name counts as used only in the function that imports it
    source = (
        "def f():\n    from .complexity import dist_solution, rand_complexity\n"
        "    return rand_complexity\n\n"
        "def g():\n    return dist_solution\n"
    )
    assert unused_imports(source) == {"f.dist_solution"}


def test_no_module_imports_a_name_it_never_uses():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= {(path.stem, name) for name in unused_imports(path.read_text())}
    assert found == ALLOWED
