"""The package keeps one direction of module dependency.

Parses src/hartogs/*.py with `ast`: the module-level imports inside the
package form an acyclic graph, and no package import is made inside a
function, so no local import hides a cycle. The package imports no scipy.
Threads have one owner: only `mc` imports `concurrent.futures` or asks for
the CPU affinity.
"""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hartogs"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}

# (importing module, imported module) pairs allowed inside a function
DEFERRED: set[tuple[str, str]] = set()


def _targets(node: ast.AST) -> list[str]:
    """Package modules that one import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module is None:  # from . import a, b
            return [alias.name for alias in node.names]
        if node.level == 1:  # from .a import x
            return [node.module.split(".")[0]]
        if node.level == 0 and node.module and node.module.split(".")[0] == "hartogs":
            parts = node.module.split(".")
            return [parts[1]] if len(parts) > 1 else [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("hartogs.")]
    return []


def _imports(name: str) -> tuple[set[str], set[str]]:
    """(module-level, function-level) package imports of one module."""
    tree = ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))
    top: set[str] = set()
    local: set[str] = set()

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                       ast.Lambda))
            (local if inside else top).update(
                t for t in _targets(child) if t in MODULES and t != "__init__")
            visit(child, inside)

    visit(tree, False)
    return top, local


GRAPH = {name: _imports(name) for name in MODULES}


def test_the_parse_finds_known_imports():
    assert {"mc", "sampling", "special"} <= GRAPH["domains"][0]  # from . / from .x
    assert "estimates" in GRAPH["schur"][0] and "estimates" in GRAPH["cli"][0]


def test_module_level_imports_are_acyclic():
    TopologicalSorter({name: top for name, (top, _) in GRAPH.items()}).prepare()


def test_only_the_documented_deferrals_import_inside_functions():
    deferred = {(name, target) for name, (_, local) in GRAPH.items() for target in local}
    assert deferred <= DEFERRED


def test_deferred_imports_close_no_cycle():
    TopologicalSorter({name: top | local for name, (top, local) in GRAPH.items()}).prepare()


def _external_roots(name: str) -> set[str]:
    """Top-level names of the non-package modules one module imports, anywhere."""
    tree = ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))
    roots: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    assert {name for name in MODULES if "scipy" in _external_roots(name)} == set()
    assert "numpy" in _external_roots("special")  # the walk sees plain imports


def _uses_threads(name: str) -> bool:
    """Whether a module imports concurrent.futures or names sched_getaffinity."""
    tree = ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name.startswith("concurrent") for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("concurrent")
                or any(alias.name == "sched_getaffinity" for alias in node.names)):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "sched_getaffinity":
            return True
        if isinstance(node, ast.Name) and node.id == "sched_getaffinity":
            return True
    return False


def test_only_mc_owns_threads():
    assert {name for name in MODULES if _uses_threads(name)} == {"mc"}
