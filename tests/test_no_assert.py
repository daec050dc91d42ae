"""No check in the library lives in an `assert`.

`python -O` strips assert statements, so a verifier that relied on one
would accept anything under -O.  This parses every module of the package
and names the file and line of any assert it finds.
"""

import ast
from pathlib import Path

import kgroups

PACKAGE = Path(kgroups.__file__).resolve().parent


def test_library_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: " + ", ".join(found)
