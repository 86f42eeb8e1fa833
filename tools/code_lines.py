#!/usr/bin/env python3
"""Count the lines of code in Python files: docstrings and comments aside.

    tools/code_lines.py FILE...

Prints, per file, the number of lines that hold a token of code, and then
the total.  A blank line, a line holding only a comment and every line of
a docstring (the string that opens a module, class or function body) do
not count; every line a multi-line expression or string literal spans
does.  So an edit to a docstring or a comment leaves the count as it is.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

# tokens that are layout or commentary, not code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold code outside docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            count = code_lines(handle.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
