"""The per-sample paths stay off numpy's slow routes.

Parses src/hartogs/*.py with `ast`. numpy's float64 cos and sin are scalar
libm loops, several times slower per element than its SIMD tan, so every
angle is taken from one tan (`sampling.polar_from_uniform`,
`estimates._kernel_factor`) and no np.sin or np.cos is referenced. The block
maps `MapFamily.value` and `MapFamily.inverse` (their bodies `_value` and
`_inverse`) use einsum, not `@`: on a
(count, 2) block, matmul goes through the threaded BLAS zgemm, whose cost per
call swings with thread wake-ups.

numpy's complex divide costs about ten complex multiplies per element, so
`kernel_product`, `_kernel_hartogs_block` and the projection's sample
function each divide once, and `counterexample` multiplies by the reciprocal
of a modulus instead of dividing by it. numpy's loops on a strided column
cost up to twice those on a contiguous one, so the batches the sampler and
the quotient chart make store each coordinate contiguously (checked at run
time); `to_standard_model`, whose output goes to callers' test functions,
stays row-major. The pullback's box rejection builds each side's candidate
points with one `polar_from_uniform` call over all coordinates, not one
`disk_from_uniform` per coordinate.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from hartogs import domains
from hartogs.cli import builtin_example

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hartogs"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in PACKAGE.glob("*.py")}


def _numpy_attributes(tree: ast.AST) -> set[str]:
    """Names looked up on `np` or `numpy` anywhere in the tree."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")}


def _map_family_methods() -> dict[str, ast.FunctionDef]:
    (cls,) = [node for node in TREES["domains"].body
              if isinstance(node, ast.ClassDef) and node.name == "MapFamily"]
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def _uses_matmul(tree: ast.AST) -> bool:
    return any(isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
               for node in ast.walk(tree))


def test_the_parse_finds_the_tan_paths():
    assert "tan" in _numpy_attributes(TREES["sampling"])
    assert "tan" in _numpy_attributes(TREES["estimates"])
    assert _uses_matmul(ast.parse("x = a @ b")) and _uses_matmul(ast.parse("a @= b"))


def test_no_numpy_sin_or_cos():
    found = {name: sorted(_numpy_attributes(tree) & {"sin", "cos"})
             for name, tree in TREES.items()}
    assert not any(found.values()), found


def test_block_maps_do_not_use_matmul():
    methods = _map_family_methods()
    for name in ("_value", "_inverse"):
        assert not _uses_matmul(methods[name]), name


def _function(tree: ast.AST, *path: str) -> ast.FunctionDef:
    """The function at `path`, each name defined in the one before it."""
    for name in path:
        (tree,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    return tree


def _divisions(tree: ast.AST) -> list[ast.AST]:
    """The true divisions in the tree: `/`, `/=` and np.divide or np.true_divide."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("divide", "true_divide")]


def _is_modulus(node: ast.AST) -> bool:
    """np.abs(...), numpy.abs(...) or abs(...)."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "abs"
        or isinstance(node.func, ast.Attribute) and node.func.attr in ("abs", "absolute"))


def _divisions_by_a_modulus(tree: ast.AST) -> list[str]:
    """Divisions of a non-constant by a modulus, taken in place or bound to a
    name in the same function; a constant over a modulus is real division."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        moduli = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                  and _is_modulus(node.value)
                  for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and not isinstance(node.left, ast.Constant)
                    and (_is_modulus(node.right)
                         or isinstance(node.right, ast.Name) and node.right.id in moduli)):
                found.append(f"{func.name}: {ast.unparse(node)}")
    return found


def test_the_parse_finds_divisions():
    assert len(_divisions(ast.parse("a / b; a /= b; np.divide(a, b); np.true_divide(a, b)"))) == 4
    assert not _divisions(ast.parse("a // b; a * (b - c)"))
    flagged = ast.parse("def f(z):\n    r = np.abs(z)\n    return np.conj(z) / r + z / abs(z)")
    assert len(_divisions_by_a_modulus(flagged)) == 2
    assert not _divisions_by_a_modulus(ast.parse("def f(z):\n    r = np.abs(z)\n"
                                                 "    return z * (1.0 / r)"))


@pytest.mark.parametrize("path", [("kernel_product",), ("_kernel_hartogs_block",),
                                  ("mc_bergman_projection", "values")])
def test_one_division_per_kernel_value(path):
    func = _function(TREES["kernels"], *path)
    assert len(_divisions(func)) == 1, ast.unparse(func)


def test_counterexample_does_not_divide_by_a_modulus():
    assert not _divisions_by_a_modulus(TREES["counterexample"])


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name the tree looks up, imports or reads as an attribute."""
    return ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_the_parse_finds_referenced_names():
    tree = ast.parse("from .sampling import disk_from_uniform\nsampling.polar_from_uniform(r)")
    assert {"disk_from_uniform", "polar_from_uniform", "r"} <= _referenced_names(tree)


def test_box_points_come_from_one_polar_call():
    # the box rejection turns its pre-test's moduli into points with one
    # polar_from_uniform call per side, not a disk_from_uniform per coordinate
    names = _referenced_names(TREES["transfer"])
    assert "polar_from_uniform" in names
    assert "disk_from_uniform" not in names


def _assert_columns_contiguous(batch: np.ndarray) -> None:
    assert batch.ndim == 2
    for j in range(batch.shape[1]):
        assert batch[:, j].flags.c_contiguous, j


@pytest.mark.parametrize("spec", [domains.HartogsDomainSpec.standard(4, [1, 2]),
                                  builtin_example("affine4"), builtin_example("rational3")],
                         ids=["standard", "affine4", "rational3"])
def test_batches_store_one_contiguous_array_per_coordinate(spec):
    std = spec.standardized()
    rng = np.random.default_rng(1)
    u = rng.random((500, domains.product_draws_per_point(std)))
    w = domains.product_from_uniform(std, u, r_max=0.9)
    _assert_columns_contiguous(w)
    _assert_columns_contiguous(domains.product_points(std, rng, 500, r_max=0.9))
    z = domains.from_product_model(spec.n, spec.k, w)
    _assert_columns_contiguous(domains.to_product_model(spec.n, spec.k, z))
    # row-major input, as a caller gives it
    z = domains.from_standard_model(spec, np.ascontiguousarray(z))
    assert z.flags.c_contiguous
    _assert_columns_contiguous(domains.to_product_model(spec.n, spec.k, z))
    # the layout a caller's test function gets from the pullback check
    assert domains.to_standard_model(spec, z).flags.c_contiguous
