import json
import random
from fractions import Fraction

import pytest

from dstar.algebra import algebra_from_name, load_spec
from dstar.errors import ExprParseError, UnknownBuiltin
from dstar.operators import parse_operator
from dstar.ordering import DVariable, parse_int, parse_variable
from dstar.parser import parse_generator_file, parse_poly
from dstar.poly import DPolynomial, format_poly

from gen import rand_poly


def test_basic_expressions(dual):
    assert format_poly(parse_poly("x1[0,0] + x1[0,0]", dual)) == "2 * x1[0,0]"
    assert format_poly(parse_poly("(x1[0,0] + 1)^2", dual)) == \
        "x1[0,0]^2 + 2 * x1[0,0] + 1"
    assert format_poly(parse_poly("1/2 * x1[0,1] - 1/2 * x1[0,1]", dual)) == "0"
    assert format_poly(parse_poly("-x2[1,0]", dual)) == "-x2[1,0]"
    assert format_poly(parse_poly(" x1[0,0] *x1[0,1] ^ 2 ", dual)) == \
        "x1[0,0] * x1[0,1]^2"


def test_parse_errors_carry_position(dual):
    with pytest.raises(ExprParseError) as exc:
        parse_poly("x1[0,0] + ", dual)
    assert exc.value.line == 1 and exc.value.column == 11
    with pytest.raises(ExprParseError) as exc:
        parse_poly("x1[0,0] $ 2", dual)
    assert exc.value.column == 9
    with pytest.raises(ExprParseError) as exc:
        parse_poly("x1[0,0", dual)
    assert "']'" in str(exc.value) and exc.value.column == 7
    with pytest.raises(ExprParseError) as exc:
        parse_poly("2 * x1[0,1 + x1[0,0]", dual)
    assert "']'" in str(exc.value) and exc.value.column == 11
    with pytest.raises(ExprParseError):
        parse_poly("x1[0,0,0]", dual)   # slot count mismatch
    with pytest.raises(ExprParseError):
        parse_poly("1/0", dual)
    with pytest.raises(ExprParseError):
        parse_poly("", dual)


def test_parse_errors_quote_the_source_text(dual):
    cases = {
        "x1[0,0] x1[0,1]": ("unexpected trailing input 'x1[0,1]'", 9),
        "x1[0,0] ^ x1[0,1]": ("expected 'int', found 'x1[0,1]'", 11),
        "(x1[0,0]": ("expected ')', found end of input", 9),
        "": ("unexpected token end of input", 1),
    }
    for text, (message, column) in cases.items():
        with pytest.raises(ExprParseError) as exc:
            parse_poly(text, dual)
        assert str(exc.value).startswith(message + " (")
        assert exc.value.line == 1 and exc.value.column == column


def test_multiline_error_position(dual):
    with pytest.raises(ExprParseError) as exc:
        parse_poly("x1[0,0] +\n  %", dual)
    assert exc.value.line == 2 and exc.value.column == 3


def test_print_parse_round_trip(all_builtins):
    rng = random.Random(21)
    for d in all_builtins.values():
        for _ in range(60):
            f = rand_poly(rng, d)
            text = format_poly(f)
            again = parse_poly(text, d)
            assert again == f
            assert format_poly(again) == text


def test_generator_file(dual):
    text = """
# a comment
x1[0,1]^2 - 4 * x1[0,0]
x1[0,0]   # trailing comment

"""
    polys = parse_generator_file(text, dual)
    assert len(polys) == 2
    assert format_poly(polys[0]) == "x1[0,1]^2 - 4 * x1[0,0]"
    with pytest.raises(ExprParseError) as exc:
        parse_generator_file("x1[0,0]\nx1[0,0] +\n", dual)
    assert exc.value.line == 2


# every reader takes exactly ASCII -?[0-9]+ as an integer; int() and the \d
# patterns used to take more
ASCII_INTS = (("1", 1), ("2", 2), ("10", 10), ("007", 7))
NOT_INTS = ("1_0", "+2", " 2", "2 ", "2\n", "\u0662", "\uff12", "\u00b2", "3/0", "")


def _coefficient_spec(text):
    """A one-block algebra file whose e*e coefficient is the string text."""
    return json.dumps({"blocks": [{"basis": ["1", "e"], "table": {
        "1*1": [["1", "1"]], "1*e": [["e", "1"]], "e*e": [["e", text]]}}]})


def test_every_reader_takes_the_same_integer_literals(dual):
    for text, n in ASCII_INTS:
        v = DVariable(n, (0, n))
        assert parse_int(text) == n and parse_int("-" + text) == -n
        assert parse_variable(f"x{text}[0,{text}]", dual) == v
        assert parse_poly(f"{text} * x{text}[0,{text}]^{text}", dual) == \
            n * DPolynomial.from_variable(dual, v) ** n
        assert parse_operator(f"theta=[0,{text}]", dual) == (0, n)
        assert parse_operator(f"d1.1^{text}", dual) == (0, n)
        assert dict(load_spec(_coefficient_spec(text)).blocks[0].table)[
            ("e", "e")] == (("e", n),)
        assert algebra_from_name(f"hs:{text}").M == n + 1
        assert algebra_from_name(f"dd:{text},{text}").t == n + 1
    for text in NOT_INTS:
        for read in (lambda: parse_int(text),
                     lambda: parse_variable(f"x1[0,{text}]", dual),
                     lambda: parse_variable(f"x{text}[0,0]", dual),
                     lambda: parse_poly(f"x1[0,{text}]", dual),
                     lambda: parse_operator(f"theta=[0,{text}]", dual),
                     lambda: load_spec(_coefficient_spec(text))):
            with pytest.raises(ExprParseError):
                read()
        for name in (f"hs:{text}", f"fields:{text}", f"dd:1,{text}"):
            with pytest.raises(UnknownBuiltin):
                algebra_from_name(name)
    # an algebra-file rational reads as the expression grammar reads it
    for text, value in (("3/02", Fraction(3, 2)), ("-3/02", Fraction(-3, 2)),
                        ("6/4", Fraction(3, 2)), ("-0", 0), ("4/2", 2)):
        assert dict(load_spec(_coefficient_spec(text)).blocks[0].table)[
            ("e", "e")] == (("e", value),)
        assert parse_poly(text, dual) == DPolynomial.constant(dual, value)


def test_a_bad_character_inside_variable_brackets_is_named_at_its_column(dual):
    # these used to report "variable is missing its closing ']'", though the
    # ']' is there
    for text, bad, column in (("x1[0,٢]", "'٢'", 6),
                              ("x1[0, 2]", "' '", 6),
                              ("1 + x1[0,2 ]", "' '", 11)):
        with pytest.raises(ExprParseError) as exc:
            parse_poly(text, dual)
        assert exc.value.message == f"unexpected character {bad}"
        assert (exc.value.line, exc.value.column) == (1, column)
    # with no ']' ahead of the next variable, the ']' is what is missing
    for text, column in (("x1[0,2", 7), ("x1[0,2 + x1[0,0]", 7), ("(x1[0,1) + 1", 8)):
        with pytest.raises(ExprParseError) as exc:
            parse_poly(text, dual)
        assert exc.value.message == "variable is missing its closing ']'"
        assert exc.value.column == column


# whitespace between tokens, newlines included
SPACES = ("", " ", "  ", "\n", " \n\t")


def _expression(rng, algebra, depth):
    """(text, value, level): a random expression as text, its value through
    DPolynomial's + - * **, and how loosely its text binds: 0 a sum (or a
    negation), 1 a product, 2 a power, 3 an atom."""

    def operand(level):
        text, value, got = _expression(rng, algebra, depth - 1)
        return (text if got >= level else f"({rng.choice(SPACES)}{text})"), value

    def space():
        return rng.choice(SPACES)

    shape = rng.choice(("number", "fraction", "variable") if depth == 0 else
                       ("number", "variable", "sum", "difference", "cancel", "negation",
                        "product", "power", "parenthesised"))
    if shape == "number":
        n = rng.choice((0, 1, 2, 3, 7))
        return str(n), DPolynomial.constant(algebra, n), 3
    if shape == "fraction":
        n, d = rng.randint(0, 5), rng.randint(1, 4)
        return f"{n}/{d}", DPolynomial.constant(algebra, Fraction(n, d)), 3
    if shape == "variable":
        v = DVariable(rng.randint(1, 2), tuple(rng.randint(0, 1) for _ in range(algebra.M)))
        return str(v), DPolynomial.from_variable(algebra, v), 3
    if shape in ("sum", "difference", "cancel"):
        (left, a), (right, b) = operand(0), operand(1)
        if shape == "cancel":
            right, b = f"({left})", a
        op = "+" if shape == "sum" else "-"
        return f"{left}{space()}{op}{space()}{right}", a + b if op == "+" else a - b, 0
    if shape == "negation":
        text, a = operand(1)
        return f"-{space()}{text}", -a, 0
    if shape == "product":
        (left, a), (right, b) = operand(1), operand(2)
        return f"{left}{space()}*{space()}{right}", a * b, 1
    if shape == "power":
        base, a = operand(2)
        k = rng.randint(0, 3)
        return f"{base}{space()}^{space()}{k}", a ** k, 2
    text, a = operand(0)
    return f"({space()}{text}{space()})", a, 3


def test_parsing_evaluates_as_the_polynomial_operators_do(dual, hs2):
    # nested parentheses, unary minus, powers of sums and of monomials, x^0,
    # 0^0, cancelling terms and fractions, with newlines between tokens
    rng = random.Random(44)
    for algebra in (dual, hs2):
        for _ in range(300):
            text, value, _ = _expression(rng, algebra, rng.randint(1, 4))
            parsed = parse_poly(text, algebra)
            assert parsed == value, text
            assert {m: type(c) for m, c in parsed.terms.items()} == \
                {m: type(c) for m, c in value.terms.items()}, text
    assert parse_poly("0^0 + x1[0,0]^0 - (x1[0,0] + 1)^0", dual) == \
        DPolynomial.constant(dual, 1)


def test_a_long_sum_parses_in_one_accumulator(dual, monkeypatch):
    # a running sum copied at every '+' made parsing quadratic in the terms
    calls = []
    plus = DPolynomial._plus

    def counted(self, addend):
        calls.append(1)
        return plus(self, addend)

    monkeypatch.setattr(DPolynomial, "_plus", counted)
    text = " + ".join(f"{k % 7 + 1} * x1[{k},0]" for k in range(4000))
    assert len(parse_poly(text, dual).terms) == 4000
    assert len(calls) < 10
