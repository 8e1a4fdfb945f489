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
