"""The runtime cross-checks of gforge stay in place."""

import ast
import os

import gforge

# one per verification site: every InternalError raise in src/gforge
INTERNAL_ERROR_FLOOR = 46


def _internal_error_raises(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            count += isinstance(exc, ast.Name) and exc.id == "InternalError"
    return count


def test_internal_error_sites_stay():
    root = os.path.dirname(gforge.__file__)
    total = sum(_internal_error_raises(os.path.join(root, name))
                for name in os.listdir(root) if name.endswith(".py"))
    assert total >= INTERNAL_ERROR_FLOOR


# the coboundary systems and their row format live in gforge.twisted alone
ROW_FORMAT_NAMES = {"coboundary_rows", "_gen_rows", "_coboundary_witness", "_delta"}


def _imports(path: str):
    """(module, name) for each name a module imports: module is None for a
    plain import, and for from . import x."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return [(getattr(node, "module", None), alias.name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]


def test_only_twisted_knows_the_coboundary_row_format():
    root = os.path.dirname(gforge.__file__)
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py") or name == "twisted.py":
            continue
        imports = _imports(os.path.join(root, name))
        from_modlinalg = [(m, n) for m, n in imports
                          if "modlinalg" in ((m or "").split(".")[-1], n.split(".")[-1])]
        assert not from_modlinalg, name
        assert not {n for _, n in imports} & ROW_FORMAT_NAMES, name
