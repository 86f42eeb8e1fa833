"""Recursive-descent parser for the shared expression grammar.

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' natural)*
    atom     := rational | variable | '(' expr ')'
    rational := integer | integer '/' positive-integer
    variable := x<j>[t0,t1,...,t(M-1)]

Whitespace is insignificant.  Errors carry 1-based line and column.
Input nested deeper than the interpreter's recursion limit is a parse
error, here and in the JSON file formats read through parse_json.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExprParseError
from .poly import DPolynomial
from .ordering import VAR_RE, parse_int, variable_from_match

_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<var>{VAR_RE.pattern})
  | (?P<int>[0-9]+)
  | (?P<op>[-+*^/()])
""", re.VERBOSE)
# a variable cut off before its ']': by a bad character if a ']' still follows
_OPEN_VAR_RE = re.compile(r"x[0-9]+\[[0-9,]*")
_CLOSED_RE = re.compile(r"[^\[\]]*\]")


class _Token:
    __slots__ = ("kind", "value", "text", "line", "column")

    def __init__(self, kind, value, text, line, column):
        self.kind = kind
        self.value = value
        self.text = text    # the source text, None for the end token
        self.line = line
        self.column = column

    def describe(self):
        """The token as an error message shows it."""
        return "end of input" if self.text is None else repr(self.text)


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            opened = _OPEN_VAR_RE.match(text, pos)
            if opened and not text.startswith("]", opened.end()):
                col, pos = col + opened.end() - pos, opened.end()
                if not _CLOSED_RE.match(text, pos):
                    raise ExprParseError("variable is missing its closing ']'", line, col)
            raise ExprParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = match.group(0)
        if not match.group("ws"):
            if match.group("var"):
                tokens.append(_Token("var", match, lexeme, line, col))
            elif match.group("int") is not None:
                tokens.append(_Token("int", parse_int(lexeme, line, col), lexeme,
                                      line, col))
            else:
                tokens.append(_Token(lexeme, lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = match.end()
    tokens.append(_Token("end", None, None, line, col))
    return tokens


class _Parser:
    def __init__(self, text, algebra):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ExprParseError(
                f"expected {kind!r}, found {tok.describe()}", tok.line, tok.column)
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprParseError(
                f"unexpected trailing input {tok.describe()}", tok.line, tok.column)
        return value

    def expr(self):
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self):
        value = self.atom()
        while self.peek().kind == "^":
            self.take()
            tok = self.take("int")
            value = value ** tok.value
        return value

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            # optional denominator
            if self.peek().kind == "/":
                self.take()
                den = self.take("int")
                if den.value == 0:
                    raise ExprParseError("zero denominator", den.line, den.column)
                return DPolynomial.constant(
                    self.algebra, Fraction(tok.value, den.value))
            return DPolynomial.constant(self.algebra, tok.value)
        if tok.kind == "var":
            self.take()
            # variable_from_match makes a well-formed variable of the algebra's
            # width, so it skips from_variable's judges
            return DPolynomial._variable(self.algebra, variable_from_match(
                tok.value, self.algebra, tok.line, tok.column))
        if tok.kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        raise ExprParseError(f"unexpected token {tok.describe()}", tok.line, tok.column)


def parse_poly(text, algebra):
    """Parse an expression over the given algebra into a DPolynomial."""
    parser = _Parser(text, algebra)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.peek()
        raise ExprParseError("expression nested too deeply",
                             tok.line, tok.column) from None


def parse_json(text):
    """Decode a JSON document; malformed or too deeply nested text is a parse error.

    So is an integer too long for the interpreter to convert.
    """
    import json
    try:
        return json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise ExprParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    except RecursionError:
        raise ExprParseError("JSON nested too deeply") from None


def json_int(value):
    """A decoded JSON integer as it is; a float, boolean or string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def parse_generator_file(text, algebra):
    """One expression per line; blank lines and '#' comments skipped."""
    polys = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            polys.append(parse_poly(stripped, algebra))
        except ExprParseError as exc:
            raise ExprParseError(exc.message, lineno, exc.column)
    return polys
