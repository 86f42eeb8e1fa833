import random
from fractions import Fraction

import pytest

from dstar.errors import AlgebraMismatch, ConstantPolynomial
from dstar.ordering import EQUAL, GREATER, LESS, DVariable, SequentialRanking
from dstar.parser import parse_poly
from dstar.poly import DPolynomial, Monomial, format_poly, monic, rank_compare

from gen import rand_poly


def test_ring_arithmetic(dual):
    x = parse_poly("x1[0,0]", dual)
    one = DPolynomial.constant(dual, 1)
    assert (x + (-x)).is_zero()
    assert (x + 1) * (x - 1) == x * x - one
    assert x - x == DPolynomial.zero(dual) and (x - x).terms == {}
    assert 3 - x == -(x - 3) == DPolynomial.constant(dual, 3) + (-x)
    assert Fraction(1, 2) - (x + Fraction(1, 2)) == -x
    assert (x ** 3) == x * x * x
    assert (2 * x).scalar_mul(Fraction(1, 2)) == x
    assert x * 0 == DPolynomial.zero(dual)


def test_mul_associative_random(all_builtins):
    rng = random.Random(11)
    for d in all_builtins.values():
        for _ in range(50):
            f, g, h = (rand_poly(rng, d, max_terms=2) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_single_term_products_match_termwise_sum(all_builtins):
    rng = random.Random(16)
    for d in all_builtins.values():
        x = DVariable(1, (0,) * d.M)
        dx = DVariable(1, (0,) * (d.M - 1) + (1,))
        singles = [
            DPolynomial(d, {Monomial.of({x: 2, dx: 1}): Fraction(-3, 4)}),
            DPolynomial.constant(d, Fraction(5, 2)),
            DPolynomial.constant(d, 1),
        ] + [rand_poly(rng, d, max_terms=1) for _ in range(10)]
        for _ in range(20):
            f = rand_poly(rng, d)
            for s in singles + [DPolynomial.zero(d)]:
                # the reference forms each term product by hand, not with *
                expected = DPolynomial.zero(d)
                for m1, c1 in f.terms.items():
                    for m2, c2 in s.terms.items():
                        expected = expected + DPolynomial(d, {m1.mul(m2): c1 * c2})
                assert f * s == expected and s * f == expected
        assert all(len(s.terms) == 1 for s in singles)


def test_algebra_mismatch(dual, hs2):
    x = parse_poly("x1[0,0]", dual)
    y = parse_poly("x1[0,0,0]", hs2)
    with pytest.raises(AlgebraMismatch):
        _ = x + y
    with pytest.raises(AlgebraMismatch):
        _ = x * y


def test_leader_initial_separant(dual):
    # 3 * (delta^2 x)^2 + sigma x
    f = parse_poly("3 * x1[0,2]^2 + x1[1,0]", dual)
    assert f.leader() == DVariable(1, (0, 2))
    assert f.initial() == DPolynomial.constant(dual, 3)
    assert f.separant() == parse_poly("6 * x1[0,2]", dual)

    g = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
    assert g.leader() == DVariable(1, (0, 1))
    assert g.initial() == DPolynomial.constant(dual, 1)
    assert g.separant() == parse_poly("2 * x1[0,1]", dual)

    # non-constant initial; the u^1 term's factor vanishes in the separant
    h = parse_poly("3*x1[0,1]^3*x1[1,0] + x1[0,1]^2 - 5/2*x1[0,1] + 1", dual)
    assert h.leader() == DVariable(1, (0, 1))
    assert h.degree() == 3
    assert h.initial() == parse_poly("3*x1[1,0]", dual)
    assert h.separant() == parse_poly(
        "9*x1[0,1]^2*x1[1,0] + 2*x1[0,1] - 5/2", dual)

    assert parse_poly("x1[0,0]^2 + 1", dual).degree_in(DVariable(1, (0, 1))) == 0


def test_separant_matches_formal_derivative_oracle(all_builtins):
    # derivative of f with respect to its leader, computed term by term
    rng = random.Random(12)
    for d in all_builtins.values():
        for _ in range(40):
            f = rand_poly(rng, d, nonconstant=True)
            u = f.leader()
            expected = DPolynomial.zero(d)
            u_poly = DPolynomial.from_variable(d, u)
            for k in range(1, f.degree_in(u) + 1):
                expected = expected + \
                    f.coefficient_in(u, k).scalar_mul(k) * u_poly ** (k - 1)
            assert f.separant() == expected


def test_constant_has_no_leader(dual):
    c = DPolynomial.constant(dual, 5)
    with pytest.raises(ConstantPolynomial):
        c.leader()
    with pytest.raises(ConstantPolynomial):
        c.initial()


def test_rank_compare(dual):
    x = parse_poly("x1[0,0]", dual)
    dx = parse_poly("x1[0,1]", dual)
    five = DPolynomial.constant(dual, 5)
    assert rank_compare(x, dx) == LESS
    assert rank_compare(dx ** 2, dx ** 2 + x) == EQUAL
    assert rank_compare(five, x) == LESS
    assert rank_compare(five, DPolynomial.constant(dual, 7)) == EQUAL
    assert rank_compare(dx, x) == GREATER


def test_rank_of_initial_and_separant_below(all_builtins):
    rng = random.Random(13)
    for d in all_builtins.values():
        for _ in range(60):
            f = rand_poly(rng, d, nonconstant=True)
            assert rank_compare(f.initial(), f) == LESS
            assert rank_compare(f.separant(), f) == LESS


def test_leader_of_sum_and_product_bounded(all_builtins):
    rng = random.Random(14)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(60):
            f = rand_poly(rng, d, nonconstant=True)
            g = rand_poly(rng, d, nonconstant=True)
            uf, ug = f.leader(ranking), g.leader(ranking)
            top = uf if ranking.compare(uf, ug) != LESS else ug
            s = f + g
            if not s.is_constant():
                assert ranking.compare(s.leader(ranking), top) != GREATER
            p = f * g
            # integral domain: product leader equals the max leader
            assert p.leader(ranking) == top


def test_reconstruction_from_coefficients(all_builtins):
    rng = random.Random(15)
    for d in all_builtins.values():
        for _ in range(40):
            f = rand_poly(rng, d, nonconstant=True)
            u = f.leader()
            u_poly = DPolynomial.from_variable(d, u)
            rebuilt = DPolynomial.zero(d)
            for k in range(f.degree_in(u) + 1):
                rebuilt = rebuilt + f.coefficient_in(u, k) * u_poly ** k
            assert rebuilt == f


def test_format_is_deterministic_and_canonical(dual):
    f = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
    assert format_poly(f) == "x1[0,1]^2 - 4 * x1[0,0]"
    assert format_poly(DPolynomial.zero(dual)) == "0"
    assert format_poly(DPolynomial.constant(dual, Fraction(-3, 4))) == "-3/4"
    # within a monomial, lower-ranked factors print first
    g = parse_poly("x1[0,1] * x1[1,0]", dual)
    assert format_poly(g) == "x1[1,0] * x1[0,1]"


def test_monic_normalisation(dual):
    f = parse_poly("2 * x1[0,1] + 4 * x1[0,0]", dual)
    assert monic(f) == parse_poly("x1[0,1] + 2 * x1[0,0]", dual)
    assert monic(DPolynomial.zero(dual)).is_zero()
