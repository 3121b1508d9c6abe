"""The per-sample paths stay off numpy's slow routes.

Parses src/hartogs/*.py with `ast`. numpy's float64 cos and sin are scalar
libm loops, several times slower per element than its SIMD tan, so every
angle is taken from one tan (`sampling.polar_from_uniform`,
`estimates._kernel_factor`) and no np.sin or np.cos is referenced. The block
maps `MapFamily.value` and `MapFamily.inverse` use einsum, not `@`: on a
(count, 2) block, matmul goes through the threaded BLAS zgemm, whose cost per
call swings with thread wake-ups.
"""

import ast
from pathlib import Path

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
    for name in ("value", "inverse"):
        assert not _uses_matmul(methods[name]), name
