"""The package keeps one direction of module dependency.

Parses src/hartogs/*.py with `ast`: the module-level imports inside the
package form an acyclic graph, and the package imports made inside a function
are the documented deferrals alone (each CLI handler imports the modules it
runs, the package and `cli` serve their library names on access, and the
Schur verifier imports what the windows do not need), which close no cycle.
The package imports no scipy. The CLI front end imports no numpy: `config`
is a leaf without it, and `cli` and `schur` import it inside functions.
Threads have one owner each: only `mc` imports `concurrent.futures`,
`threading` or `weakref`, and only `config` asks for the CPU affinity. The weighted integrals have one route: only `special`
names the cap on the 2F1 parameter c, no module names the reference series,
and only the two series wrappers call `_series_sum`; inside `schur`, only
`_Factor.log_value` calls a weighted integral. Stdout has one owner:
no module imports `csv`, only `cli` writes a `.12g` format, and no class
outside `domains` (whose spec files are read back) serializes itself. A
lone point has one rule: outside `special` no module tests whether an array
is 0-d, and none defines its own lone-point helper. A point has one check:
no module defines a `_points` or `_block_points` checker, and no function
but `domains._check_point` holds the "point has non-finite coordinates"
message. A product-model batch has
one owner: outside `domains` no module imports `_new_batch` or a `_fill_*`
name from it, so a batch is made by `product_points`. The product model's
factor list has one owner: outside `domains` no module defines
`_factor_columns` or loops over `spec.blocks` together with `spec.slices`;
they read `HartogsDomainSpec.factors`.
"""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hartogs"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _tree(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))

# (importing module, imported module) pairs allowed inside a function: the
# CLI handlers import what they run, `hartogs` and `hartogs.cli` serve their
# library names from the home modules (PEP 562 __getattr__), and the Schur
# verifier imports the sampler and the integrals that `schur-range` skips
CLI_HANDLER_MODULES = ("counterexample", "domains", "estimates", "kernels", "schur",
                       "special", "transfer")
DEFERRED: set[tuple[str, str]] = {("cli", target) for target in CLI_HANDLER_MODULES} | {
    ("__init__", "config"), ("__init__", "domains"),
    ("schur", "domains"), ("schur", "estimates")}


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
    tree = _tree(name)
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
    assert "config" in GRAPH["mc"][0]
    assert "estimates" in GRAPH["schur"][1] and "estimates" in GRAPH["cli"][1]


def test_module_level_imports_are_acyclic():
    TopologicalSorter({name: top for name, (top, _) in GRAPH.items()}).prepare()


def test_only_the_documented_deferrals_import_inside_functions():
    deferred = {(name, target) for name, (_, local) in GRAPH.items() for target in local}
    assert deferred <= DEFERRED


def test_deferred_imports_close_no_cycle():
    TopologicalSorter({name: top | local for name, (top, local) in GRAPH.items()}).prepare()


def _external_roots(name: str) -> set[str]:
    """Top-level names of the non-package modules one module imports, anywhere."""
    tree = _tree(name)
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


def _top_level_roots(name: str) -> set[str]:
    """`_external_roots` of the imports one module makes outside any function."""
    roots: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and child.module:
                roots.add(child.module.split(".")[0])
            visit(child)

    visit(_tree(name))
    return roots


def test_config_is_a_leaf_without_numpy():
    assert GRAPH["config"] == (set(), set())
    assert "numpy" not in _external_roots("config")


def test_the_front_end_imports_numpy_inside_functions_alone():
    for name in ("cli", "schur"):
        assert "numpy" in _external_roots(name) - _top_level_roots(name), name
    assert "numpy" in _top_level_roots("mc")  # the walk sees module-level imports


THREAD_MODULES = ("concurrent", "threading", "weakref")


def _imports_thread_modules(name: str) -> bool:
    """Whether a module imports concurrent.futures, threading or weakref."""
    return bool(_external_roots(name) & set(THREAD_MODULES))


def _names_affinity(name: str) -> bool:
    """Whether a module names sched_getaffinity: imported, called or read."""
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.alias) and node.name == "sched_getaffinity":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "sched_getaffinity":
            return True
        if isinstance(node, ast.Name) and node.id == "sched_getaffinity":
            return True
    return False


def test_only_mc_imports_thread_modules():
    assert {name for name in MODULES if _imports_thread_modules(name)} == {"mc"}


def test_only_config_asks_for_the_cpu_affinity():
    assert {name for name in MODULES if _names_affinity(name)} == {"config"}


def _identifiers(name: str) -> set[str]:
    """Every name one module refers to: variables, attributes and imported names."""
    tree = _tree(name)
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


SERIES = {"weighted_ball_integral_series", "weighted_disk_integral_series"}


def test_only_special_names_the_cap_on_c():
    assert {name for name in MODULES if "HYP2F1_MAX_C" in _identifiers(name)} == {"special"}


def test_no_module_routes_to_the_reference_series():
    # the series stay as the tests' reference; naming one, as a call or as a
    # functools.partial argument, would make it a route again
    assert {name for name in MODULES if SERIES & _identifiers(name)} == set()


def _owners(name: str, matches) -> list[str]:
    """The innermost function around each node of one module that `matches`
    ("" for a node at module level)."""
    found: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(owner)
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(_tree(name), "")
    return found


def _callers(name: str, callee: str) -> list[str]:
    """The innermost function around each call of `callee` in one module."""
    def calls(node: ast.AST) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee
    return _owners(name, calls)


def test_only_the_series_wrappers_sum_the_series():
    callers = [(name, owner) for name in MODULES for owner in _callers(name, "_series_sum")]
    assert sorted(callers) == sorted(("estimates", wrapper) for wrapper in SERIES)


WEIGHTED_INTEGRALS = ("weighted_ball_integral", "weighted_disk_integral",
                      "weighted_disk_integral_quad")


def test_only_the_factor_type_evaluates_schur_integrals():
    # a Schur condition is a list of `_Factor`s: its routes, and the errors
    # they raise, live in one method
    defs = [(owner.name, node.name) for owner in ast.walk(_tree("schur"))
            for node in ast.iter_child_nodes(owner)
            if isinstance(node, ast.FunctionDef) and node.name == "log_value"]
    assert defs == [("_Factor", "log_value")]
    for callee in WEIGHTED_INTEGRALS:
        assert _callers("schur", callee) == ["log_value"], callee


def test_no_module_imports_csv():
    assert {name for name in MODULES if "csv" in _external_roots(name)} == set()


def _writes_12g(name: str) -> bool:
    """Whether a string constant of one module holds `.12g`: a format() spec,
    an f-string spec (its constant part) or a %-format."""
    return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and ".12g" in node.value for node in ast.walk(_tree(name)))


def test_only_cli_writes_twelve_digits():
    assert {name for name in MODULES if _writes_12g(name)} == {"cli"}


def _serializers(name: str) -> set[str]:
    """Class.method names of the to_csv / to_json_dict methods one module defines."""
    return {f"{node.name}.{item.name}"
            for node in ast.walk(_tree(name)) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in ("to_csv", "to_json_dict")}


def test_only_domains_classes_serialize_themselves():
    found = {name: _serializers(name) for name in MODULES}
    assert found["domains"] == {"MapFamily.to_json_dict", "HartogsDomainSpec.to_json_dict"}
    assert {name for name, methods in found.items() if methods} == {"domains"}


def _is_ndim(node: ast.AST) -> bool:
    """Whether a node is `x.ndim` or a call `ndim(x)` / `np.ndim(x)`."""
    if isinstance(node, ast.Call):
        node = node.func
        return getattr(node, "id", None) == "ndim" or getattr(node, "attr", None) == "ndim"
    return isinstance(node, ast.Attribute) and node.attr == "ndim"


def _tests_zero_ndim(name: str) -> bool:
    """Whether one module compares an ndim with 0, as a 0-d conversion
    `float(x) if x.ndim == 0 else x` does."""
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_ndim, operands)) and any(
                    isinstance(op, ast.Constant) and op.value == 0 for op in operands):
                return True
    return False


LONE_HELPERS = {"_pair_as_row", "_like"}


def test_only_special_decides_a_lone_point():
    assert {name for name in MODULES if _tests_zero_ndim(name)} <= {"special"}
    defined = {(name, node.name) for name in MODULES for node in ast.walk(_tree(name))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in LONE_HELPERS}
    assert defined == set()


POINT_CHECKERS = {"_points", "_block_points"}
NON_FINITE_POINT = "point has non-finite coordinates"


def _holders(name: str, text: str) -> list[str]:
    """The innermost function around each string constant of one module that
    holds `text`."""
    return _owners(name, lambda node: isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and text in node.value)


def test_only_check_point_checks_a_point():
    defined = {(name, node.name) for name in MODULES for node in ast.walk(_tree(name))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in POINT_CHECKERS}
    assert defined == set()
    holders = [(name, owner) for name in MODULES for owner in _holders(name, NON_FINITE_POINT)]
    assert holders == [("domains", "_check_point")]


def _domains_imports(name: str) -> set[str]:
    """Names one module imports from `domains`, at any depth."""
    return {alias.name for node in ast.walk(_tree(name))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[-1] == "domains"
            for alias in node.names}


def _owns_batches(imported: str) -> bool:
    return imported == "_new_batch" or imported.startswith("_fill_")


def test_only_domains_makes_product_batches():
    assert "_check_point" in _domains_imports("kernels")  # the walk sees `from .domains`
    importers = {(name, imported) for name in MODULES if name != "domains"
                 for imported in _domains_imports(name) if _owns_batches(imported)}
    assert importers == set()


def _pairs_blocks_with_slices(name: str) -> bool:
    """Whether one module loops over an expression (a for loop's or a
    comprehension's iterable) that reads both `.blocks` and `.slices`."""
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.For, ast.comprehension)):
            read = {sub.attr for sub in ast.walk(node.iter) if isinstance(sub, ast.Attribute)}
            if {"blocks", "slices"} <= read:
                return True
    return False


def test_only_domains_lays_out_the_factors():
    assert _pairs_blocks_with_slices("domains")  # the walk sees `zip(spec.blocks, spec.slices)`
    assert {name for name in MODULES if _pairs_blocks_with_slices(name)} == {"domains"}
    defined = {name for name in MODULES for node in ast.walk(_tree(name))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == "_factor_columns"}
    assert defined == set()
