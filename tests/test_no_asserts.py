"""No check in the package may live in an `assert`: `python -O` strips them."""

import ast
from pathlib import Path

import slopecert


def test_package_source_has_no_assert_statements():
    sources = sorted(Path(slopecert.__file__).parent.glob("*.py"))
    assert sources
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
