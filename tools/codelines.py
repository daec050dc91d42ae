"""Count the code lines and the total lines of the kgroups package.

A line is a code line when it holds a Python token other than a comment,
a newline, an indent or a dedent, outside docstrings (the first string
statement of a module, class or function).  A token that spans lines,
such as a triple-quoted string, makes each of its lines a code line.

Usage: python tools/codelines.py
Prints the two counts, code lines first, summed over src/kgroups/*.py.
"""

import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(code lines, total lines) of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip), len(source.splitlines())


ROOT = Path(__file__).resolve().parents[1] / "src" / "kgroups"


def main():
    code = total = 0
    for path in sorted(ROOT.glob("*.py")):
        c, t = count(path.read_text(encoding="utf-8"))
        code, total = code + c, total + t
    print(code, total)


if __name__ == "__main__":
    main()
