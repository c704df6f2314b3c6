"""Source layout checks: every import of the package sits at module level."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bifrac"


def _imports_in_functions(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node.lineno


def test_no_import_inside_a_function():
    found = [
        f"{path.name}:{line} in {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _imports_in_functions(path)
    ]
    assert found == []
