import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sttt"


def test_library_has_no_assert():
    # `python -O` strips assert statements, so a contract must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 1
    assert not found, found
