import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pin2k"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so correctness checks must raise
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
