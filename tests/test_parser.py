import random

import pytest

from dstar.errors import ExprParseError
from dstar.parser import parse_generator_file, parse_poly
from dstar.poly import format_poly

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
