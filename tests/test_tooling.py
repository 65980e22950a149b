import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kummerlcp"


def test_no_assert_statements_in_package():
    # invariants must raise a KummerError; asserts vanish under python -O
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
