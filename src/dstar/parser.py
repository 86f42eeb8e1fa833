"""Recursive-descent parser for the shared expression grammar.

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' natural)*
    atom     := rational | variable | '(' expr ')'
    rational := integer | integer '/' positive-integer
    variable := x<j>[t0,t1,...,t(M-1)]

Whitespace is insignificant.  The tokenizer makes plain (kind, value,
offset) tuples, and the parser evaluates as it descends.  A term folds
its numbers and variable powers into one coefficient and one monomial,
through Monomial.mul; only a parenthesised sum of two or more terms is
multiplied, or raised to a power, as a DPolynomial.  A sum collects each
term's (monomial, coefficient) pairs in stored form, sign applied, and
adds them once, through DPolynomial._plus, so the terms keep the order in
which DPolynomial's own sums leave them, and a sum of n terms costs O(n).
Monomials are built through poly.py's helpers.  Errors carry 1-based
line and column, computed from the offset only when one is raised.  Input
nested deeper than the interpreter's recursion limit is a parse error,
here and in the JSON file formats read through parse_json.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExprParseError
from .poly import UNIT_MONOMIAL, DPolynomial, _monomial_power, _variable_monomial
from .ordering import VAR_RE, _coefficient, parse_int, variable_from_match

_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<var>{VAR_RE.pattern})
  | (?P<int>[0-9]+)
  | (?P<op>[-+*^/()])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)
# a variable cut off before its ']': by a bad character if a ']' still follows
_OPEN_VAR_RE = re.compile(r"x[0-9]+\[[0-9,]*")
_CLOSED_RE = re.compile(r"[^\[\]]*\]")


def _error(message, text, offset):
    """An ExprParseError at offset in text, with its 1-based line and column."""
    return ExprParseError(message, text.count("\n", 0, offset) + 1,
                          offset - text.rfind("\n", 0, offset))


def _tokenize(text):
    """text's tokens as (kind, value, offset), then ("end", None, len(text)).

    An operator's kind and value are its character, an integer's value is
    its int and a variable's its VAR_RE match.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, offset = match.lastgroup, match.start()
        if kind == "op":
            tokens.append((match[0], match[0], offset))
        elif kind == "var":
            tokens.append((kind, match, offset))
        elif kind == "int":
            try:
                tokens.append((kind, parse_int(match[0]), offset))
            except ExprParseError as exc:
                raise _error(exc.message, text, offset) from None
        elif kind == "bad":
            opened = _OPEN_VAR_RE.match(text, offset)
            if opened and not text.startswith("]", opened.end()):
                offset = opened.end()
                if not _CLOSED_RE.match(text, offset):
                    raise _error("variable is missing its closing ']'", text, offset)
            raise _error(f"unexpected character {text[offset]!r}", text, offset)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, algebra):
        self.text, self.algebra, self.pos = text, algebra, 0
        self.tokens = _tokenize(text)

    def unexpected(self, message):
        """An ExprParseError at the current token, named after the message."""
        kind, _, offset = self.tokens[self.pos]
        found = "end of input" if kind == "end" else repr(_TOKEN_RE.match(self.text, offset)[0])
        return _error(f"{message} {found}", self.text, offset)

    def take(self, kind):
        """The current token's value, which must be of the kind."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise self.unexpected(f"expected {kind!r}, found")
        self.pos += 1
        return token[1]

    def parse(self):
        f = self.expr()
        if self.tokens[self.pos][0] != "end":
            raise self.unexpected("unexpected trailing input")
        return f

    def expr(self):
        """The sum as a DPolynomial, its terms added by one _plus."""
        tokens = self.tokens
        pairs = []
        sign = 1
        if tokens[self.pos][0] == "-":
            self.pos, sign = self.pos + 1, -1
        while True:
            c, m, f = self.term()
            if c:
                if f is None:
                    pairs.append((m, _coefficient(sign * c)))
                else:
                    pairs += f._times_term(m, sign * c).terms.items()
            kind = tokens[self.pos][0]
            if kind != "+" and kind != "-":
                return DPolynomial.zero(self.algebra)._plus(pairs)
            sign = 1 if kind == "+" else -1
            self.pos += 1

    def term(self):
        """(c, m, f): the term is c * m * f, and f, the product of its
        parenthesised sums of two or more terms, is None when it has none."""
        c, m, f = self.factor()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            c2, m2, f2 = self.factor()
            c, m = c * c2, m.mul(m2)
            if f2 is not None:
                f = f2 if f is None else f * f2
        return c, m, f

    def factor(self):
        c, m, f = self.atom()
        while self.tokens[self.pos][0] == "^":
            self.pos += 1
            e = self.take("int")
            c, m = c ** e, _monomial_power(m, e)
            f = None if f is None else f ** e
        return c, m, f

    def atom(self):
        """(c, m, f) as term makes them."""
        kind, value, offset = self.tokens[self.pos]
        if kind == "var":
            self.pos += 1
            try:
                # a well-formed variable of the algebra's width, so interned unjudged
                v = variable_from_match(value, self.algebra)
            except ExprParseError as exc:
                raise _error(exc.message, self.text, offset) from None
            return 1, _variable_monomial(v), None
        if kind == "int":
            self.pos += 1
            # optional denominator
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                den = self.take("int")
                if den == 0:
                    raise _error("zero denominator", self.text, self.tokens[self.pos - 1][2])
                value = Fraction(value, den)
            return value, UNIT_MONOMIAL, None
        if kind == "(":
            # a call one frame below atom consumes the '(', so that a recursion
            # limit struck at that depth names this '(', and deeper ones the next
            self.take("(")
            f = self.expr()
            self.take(")")
            if len(f.terms) > 1:
                return 1, UNIT_MONOMIAL, f
            (m, c), = f.terms.items() or ((UNIT_MONOMIAL, 0),)
            return c, m, None
        raise self.unexpected("unexpected token")


def parse_poly(text, algebra):
    """Parse an expression over the given algebra into a DPolynomial."""
    parser = _Parser(text, algebra)
    try:
        return parser.parse()
    except RecursionError:
        raise _error("expression nested too deeply", text,
                     parser.tokens[parser.pos][2]) from None


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
