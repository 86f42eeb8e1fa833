import copy
import pickle
import random
import re
import sys
import threading
from fractions import Fraction
from itertools import chain

import pytest

from dstar.algebra import DAlgebra, builtin, validate_algebra
from dstar.charset import charset_complete
from dstar.errors import AlgebraMismatch, ConstantPolynomial, InconsistentSystem, IndexOutOfRange
from dstar.operators import apply_composition, block_image
from dstar.ordering import (
    EQUAL,
    GREATER,
    LESS,
    CustomRanking,
    DVariable,
    SequentialRanking,
)
from dstar.parser import parse_poly
from dstar.poly import (
    _IDS,
    _VARIABLES,
    _rank_tuple,
    UNIT_MONOMIAL,
    DPolynomial,
    Monomial,
    format_poly,
    monic,
    poly_sort_key,
    rank_compare,
)
from dstar.reduction import DivisorSet, _sum_terms, a_leader, reduce

from gen import rand_poly, rand_reduction_instance, rand_theta, rand_variable


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
            DPolynomial.from_variable(d, dx),   # a product by coefficient 1
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
            # a product by one is f itself, not a copy (a one-term f times
            # one is one times f's term)
            one = singles[2]
            assert f * one is f
            if len(f.terms) > 1:
                assert one * f is f and f ** 1 is f
        assert all(len(s.terms) == 1 for s in singles)


def test_algebra_mismatch(dual, hs2):
    x = parse_poly("x1[0,0]", dual)
    y = parse_poly("x1[0,0,0]", hs2)
    with pytest.raises(AlgebraMismatch):
        _ = x + y
    with pytest.raises(AlgebraMismatch):
        _ = x * y


def test_equality_over_one_algebra_object_does_not_compare_algebras(dual, monkeypatch):
    # the polynomials of one family share one algebra object
    calls = []
    algebra_eq = DAlgebra.__eq__

    def counted(self, other):
        calls.append(1)
        return algebra_eq(self, other)

    f, g = parse_poly("x1[0,0] + 1", dual), parse_poly("x1[0,0] + 1", dual)
    h = parse_poly("x1[0,1]", dual)
    monkeypatch.setattr(DAlgebra, "__eq__", counted)
    assert f == g and f != h and not f == h
    assert calls == []
    # over two equal algebra objects the algebras are compared, and match
    twin = validate_algebra(builtin("dual"))
    assert twin is not dual
    assert parse_poly("x1[0,0] + 1", twin) == f and parse_poly("x1[0,1]", twin) != f
    assert calls


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
    # a polynomial already monic is its own monic form
    g = monic(f)
    assert monic(g) is g


def _rand_monomial(rng, algebra, max_factors=4):
    mono = {}
    for _ in range(rng.randint(0, max_factors)):
        v = rand_variable(rng, algebra, n_vars=2, max_sum=2)
        mono[v] = mono.get(v, 0) + rng.randint(1, 3)
    return Monomial.of(mono)


def test_monomial_mul_matches_dict_merge_reference(all_builtins):
    rng = random.Random(17)
    seen = set()
    for d in all_builtins.values():
        for _ in range(300):
            a, b = _rand_monomial(rng, d), _rand_monomial(rng, d)
            summed = dict(a.factors)
            for v, e in b.factors:
                summed[v] = summed.get(v, 0) + e
            expected = Monomial.of(summed)
            assert a.mul(b) == expected and b.mul(a) == expected
            assert a.mul(b).factors == expected.factors
            assert hash(a.mul(b)) == hash(expected)
            shared = set(a.variables()) & set(b.variables())
            seen.add("empty" if not (a.factors and b.factors)
                     else "overlapping" if shared else "disjoint")
    assert seen == {"empty", "disjoint", "overlapping"}
    unit = Monomial.of({})
    m = _rand_monomial(rng, all_builtins["dual"])
    assert unit.mul(m) == m.mul(unit) == m and unit.mul(unit) == unit


def test_one_variable_products_match_a_bruteforce_merge(all_builtins):
    # a product with a one-variable key bumps or inserts that variable in the
    # other key; the reference sums the two keys' exponents by id and sorts
    rng = random.Random(22)
    seen = set()

    def check(a, b):
        summed = {}
        for key in (a.key, b.key):
            for i, e in zip(key[::2], key[1::2]):
                summed[i] = summed.get(i, 0) + e
        key = tuple(chain.from_iterable(sorted(summed.items())))
        expected = Monomial([(_VARIABLES[i], e) for i, e in summed.items()])
        for product in (a.mul(b), b.mul(a)):
            assert product.key == key == expected.key
            assert product == expected and hash(product) == hash(expected)
            assert product.factors == expected.factors

    for d in all_builtins.values():
        pool = [rand_variable(rng, d, n_vars=3, max_sum=2) for _ in range(12)]
        for _ in range(200):
            a = Monomial.of({v: rng.randint(1, 3)
                             for v in rng.sample(pool, rng.randint(1, 4))})
            v = rng.choice(pool)
            b = Monomial.of({v: rng.randint(1, 3)})
            check(a, b)
            ids, i = a.key[::2], b.key[0]
            seen.add("bump" if i in ids else "first" if i < min(ids)
                     else "last" if i > max(ids) else "between")
            check(b, b)
            check(UNIT_MONOMIAL, b)
    assert seen == {"bump", "first", "last", "between"}


def test_sums_judge_only_the_addend(all_builtins):
    # the reference is the constructor over the left operand's terms with the
    # addend's accumulated into them: the same terms, order and types
    rng = random.Random(23)
    cases = set()
    for d in all_builtins.values():
        for _ in range(40):
            f = rand_poly(rng, d, max_terms=4)
            before = list(f.terms.items())
            addend = dict(rand_poly(rng, d, max_terms=2).terms)
            # cancel one term, make a Fraction integral or a sum another Fraction
            m = rng.choice(list(f.terms))
            addend[m] = rng.choice((-f.terms[m], Fraction(1, 2), Fraction(-1, 3), 2))
            g = DPolynomial(d, addend)
            for sign, total in ((1, f + g), (-1, f - g)):
                out = dict(f.terms)
                for n, c in g.terms.items():
                    out[n] = out.get(n, 0) + sign * c
                reference = DPolynomial(d, out)
                assert [(n, c, type(c)) for n, c in total.terms.items()] == \
                    [(n, c, type(c)) for n, c in reference.terms.items()]
                assert all(c != 0 for c in total.terms.values())
                assert list(f.terms.items()) == before
                old = f.terms.get(m, 0)
                new = total.terms.get(m, 0)
                cases.add("cancelled" if not new
                          else "made integral" if type(old) is Fraction and type(new) is int
                          else "summed")
                cases.update("added" for n in g.terms if n not in f.terms)
    assert cases == {"cancelled", "made integral", "summed", "added"}


def test_equal_monomials_compare_and_hash_equal(all_builtins):
    rng = random.Random(18)
    for d in all_builtins.values():
        for _ in range(100):
            m = _rand_monomial(rng, d)
            if not m.factors:
                continue
            # rebuild from fresh variable objects, by a split product, by
            # dropping an extra factor, and through the parser
            fresh = Monomial.of({DVariable(v.var, tuple(v.theta)): e
                                 for v, e in m.factors})
            k = rng.randint(0, len(m.factors))
            product = Monomial(m.factors[:k]).mul(Monomial(m.factors[k:]))
            extra = DVariable(3, (0,) * d.M)
            dropped = m.mul(Monomial.of({extra: 2})).without(extra)
            assert dropped[0] == 2
            parsed, = parse_poly(format_poly(DPolynomial(d, {m: Fraction(1)})), d).terms
            variants = [m, fresh, product, dropped[1], parsed]
            assert all(x == m and hash(x) == hash(m) for x in variants)
            assert len(set(variants)) == 1


def test_dvariable_compares_and_hashes_as_its_tuple(all_builtins):
    rng = random.Random(19)
    for d in all_builtins.values():
        variables = [rand_variable(rng, d, n_vars=2, max_sum=2) for _ in range(30)]
        for v in variables:
            assert hash(v) == hash((v.var, v.theta))
            for w in variables + [DVariable(v.var, v.theta)]:
                tv, tw = (v.var, v.theta), (w.var, w.theta)
                assert (v == w) == (tv == tw) and (v != w) == (tv != tw)
                assert (v < w) == (tv < tw) and (v <= w) == (tv <= tw)
                assert (v > w) == (tv > tw) and (v >= w) == (tv >= tw)
        assert [(v.var, v.theta) for v in sorted(variables)] == \
            sorted((v.var, v.theta) for v in variables)
    assert DVariable(1, (0, 1)) != (1, (0, 1))


def test_variables_and_monomials_are_immutable(dual):
    v = DVariable(1, (0, 1))
    m = Monomial.of({v: 2})
    f = DPolynomial.from_variable(dual, v)
    for obj, attr in ((v, "var"), (v, "theta"), (v, "other"),
                      (m, "factors"), (m, "other"), (f, "terms"), (f, "algebra")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)
    # DPolynomial used to let its terms be deleted
    for obj, attr in ((v, "var"), (m, "factors"), (f, "terms"), (f, "algebra")):
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert (v.var, v.theta, m.factors) == (1, (0, 1), ((v, 2),))
    assert f.algebra is dual and f.terms == {Monomial.of({v: 1}): 1}
    for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert copied == m and hash(copied) == hash(m)
    assert pickle.loads(pickle.dumps(v)) == v


def test_polynomials_copy_and_pickle(hs2):
    # the immutability guard used to make copy and pickle raise AttributeError
    f = parse_poly("1/3 * x1[0,1,0]^2 - 2 * x2[1,0,1] + 5", hs2)
    assert Fraction(1, 3) in f.terms.values()
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and hash(copied) == hash(f)
        assert format_poly(copied) == format_poly(f)


def test_monomial_exponents_are_ints(dual):
    # a float exponent used to print as text that parse_poly rejects; the
    # constructor, which of() now calls, used to store any factors unchecked
    v, w = DVariable(1, (0, 1)), DVariable(1, (0, 0))
    for bad in (2.0, 0.0, 1.5, Fraction(2), True):
        with pytest.raises(TypeError):
            Monomial.of({v: bad})
        with pytest.raises(TypeError):
            Monomial.of({v: 1, w: bad})
        with pytest.raises(TypeError):
            Monomial([(v, bad)])
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial.of({v: -1})
    for bad in ([(v, -1)], [(w, 1), (v, -1)]):
        with pytest.raises(ValueError, match="negative exponent"):
            Monomial(bad)
    # a repeated variable would make a key unequal to its canonical one
    for bad in ([(v, 1), (v, 2)], [(v, 0), (v, 3)], [(v, 1), (w, 1), (v, 1)]):
        with pytest.raises(ValueError, match="repeated"):
            Monomial(bad)
    # a zero exponent drops out: x^0 is the unit, so its polynomial is constant
    unit = Monomial([(w, 0)])
    assert unit == UNIT_MONOMIAL and unit.key == () and unit.factors == ()
    assert DPolynomial(dual, {unit: 1}).is_constant()
    assert format_poly(DPolynomial(dual, {unit: 1})) == "1"
    for m in (Monomial([(v, 2), (w, 0)]), Monomial.of({v: 2, w: 0})):
        f = DPolynomial(dual, {m: 3})
        assert m.factors == ((v, 2),)
        assert format_poly(f) == "3 * x1[0,1]^2"
        assert parse_poly(format_poly(f), dual) == f
    assert (Monomial([(v, 1), (w, 2)]) == Monomial([(w, 2), (v, 1)])
            == Monomial.of({w: 2, v: 1}))


def test_constructors_reject_keys_that_are_not_variables_or_monomials(dual):
    # a string variable used to be interned for the process's life, and
    # sort_key() and format_poly then raised a bare AttributeError; a
    # polynomial stored a string term key as it was
    v = DVariable(1, (0, 1))
    interned = len(_VARIABLES)
    for bad in ("x", ("x", (0, 1)), 1, None, (1, (0, 1))):
        for factors in ([(bad, 1)], [(v, 1), (bad, 2)], [(bad, 0)]):
            with pytest.raises(TypeError,
                               match=f"^variable {re.escape(repr(bad))} is not a DVariable$"):
                Monomial(factors)
        with pytest.raises(TypeError, match="is not a DVariable"):
            Monomial.of({bad: 1})
    assert len(_VARIABLES) == interned and "x" not in _IDS
    x = Monomial([(v, 1)])
    for bad in ("notamonomial", v, x.key, (), 1):
        for terms in ({bad: 1}, {x: 2, bad: 1}, {bad: 0}):
            with pytest.raises(TypeError,
                               match=f"^term key {re.escape(repr(bad))} is not a Monomial$"):
                DPolynomial(dual, terms)
    # Monomial and DPolynomial keep accepting what they accepted
    assert DPolynomial(dual, {x: 2, UNIT_MONOMIAL: 0}).terms == {x: 2}


def test_malformed_variables_are_judged_before_they_are_interned(dual):
    # a variable equal to a well-formed one (True == 1, 1.0 == 1) used to be
    # interned for the process's life, and every later equal variable then
    # printed through it: x97[0,True]^2, which parse_poly rejects.  x97 is an
    # indeterminate no other test meets, so nothing else reads its ids
    malformed = [DVariable(97, (0, True)), DVariable(97, (0, 1.0)), DVariable(97, (-1, 0)),
                 DVariable(97, (0, "1")), DVariable(97, "00"), DVariable(97.0, (0, 0)),
                 DVariable(0, (0, 0)), DVariable(-97, (0, 0))]
    for bad in malformed:
        for build in (lambda: Monomial([(bad, 1)]), lambda: Monomial.of({bad: 2}),
                      lambda: Monomial([(DVariable(97, (1, 1)), 1), (bad, 1)]),
                      lambda: DPolynomial.from_variable(dual, bad)):
            with pytest.raises(IndexOutOfRange):
                build()
    assert not {DVariable(97, theta) for theta in ((0, 0), (0, 1), (1, 1))} & _IDS.keys()
    assert str(parse_poly("x97[0,1]^2", dual)) == "x97[0,1]^2"
    assert str(3 * parse_poly("x97[0,0]^2", dual)) == "3 * x97[0,0]^2"
    assert all(type(e) is int for v in _VARIABLES for e in (v.var, *v.theta))


def test_single_term_and_scalar_products_leave_no_zero(all_builtins):
    rng = random.Random(20)
    for d in all_builtins.values():
        for _ in range(40):
            f = rand_poly(rng, d)
            s = rand_poly(rng, d, max_terms=1)
            for p in (f * s, s * f):
                assert len(p.terms) == len(f.terms)
                assert all(c != 0 for c in p.terms.values())
            for c in (0, Fraction(0), 1, -2, Fraction(-2, 3)):
                for p in (f.scalar_mul(c), f * c, c * f):
                    assert all(cf != 0 for cf in p.terms.values())
                    assert len(p.terms) == (len(f.terms) if c else 0)
            assert f.scalar_mul(0) == DPolynomial.zero(d)


def _to_sympy(sympy, f):
    """f as a sympy expression: one symbol per variable, exact coefficients."""
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(str(v)) ** e for v, e in m.factors))
        for m, c in f.terms.items()))


def test_arithmetic_matches_sympy(all_builtins):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(73)
    for d in all_builtins.values():
        for _ in range(6):
            f = rand_poly(rng, d, max_terms=4)
            g = rand_poly(rng, d, max_terms=4)
            sf, sg = _to_sympy(sympy, f), _to_sympy(sympy, g)
            for ours, theirs in ((f + g, sf + sg), (f - g, sf - sg),
                                 (f * g, sf * sg), (f ** 0, sympy.Integer(1)),
                                 (f ** 2, sf ** 2), (g ** 3, sg ** 3)):
                assert sympy.expand(theirs - _to_sympy(sympy, ours)) == 0


def test_leader_key_ties_go_to_the_lowest_variable(all_builtins):
    rng = random.Random(21)
    ties = 0
    for d in all_builtins.values():
        # all variables of one indeterminate and one total order tie
        ranking = CustomRanking(d, lambda v: (sum(v.theta), v.var))
        for _ in range(100):
            f = rand_poly(rng, d, nonconstant=True)
            variables = f.variables()
            top = max(map(ranking.key, variables))
            tied = [v for v in variables if ranking.key(v) == top]
            ties += len(tied) > 1
            expected = min(tied)
            reversed_f = DPolynomial(d, dict(reversed(list(f.terms.items()))))
            assert f.leader(ranking) == reversed_f.leader(ranking) == expected
            # degree, initial and both rank records read that same leader
            for r in (ranking, SequentialRanking(d)):
                top = max(map(r.key, variables))
                expected = min(v for v in variables if r.key(v) == top)
                k = f.degree_in(expected)
                assert f.leader(r) == expected
                assert f.degree(r) == k
                assert f.initial(r) == f.coefficient_in(expected, k)
                assert _rank_tuple(f, r) == (1, r.key(expected), k)
                assert DivisorSet([f], r).ranks == [(expected, r.key(expected), k)]
                for c in (DPolynomial.constant(d, 3), DPolynomial.zero(d)):
                    assert DivisorSet([c, f], r).ranks[0] is None
                    assert _rank_tuple(c, r) == (0, (), 0)
                    with pytest.raises(ConstantPolynomial):
                        c.leader(r)
    assert ties > 0


def test_non_rational_coefficients_are_a_type_error(dual):
    x = parse_poly("x1[0,0]", dual)
    (m,) = x.terms
    for bad in (0.1, 0.25, True, "3"):
        for build in (lambda: DPolynomial.constant(dual, bad),
                      lambda: x.scalar_mul(bad),
                      lambda: DPolynomial(dual, {m: bad}),
                      lambda: x * bad, lambda: x + bad):
            with pytest.raises(TypeError):
                build()


def test_integral_coefficients_are_stored_as_ints(all_builtins):
    """Every stored coefficient is an int, or a Fraction that is not integral.

    int arithmetic is what keeps the kernel fast; a Fraction with
    denominator 1, or a float, on any path would silently undo that.
    """
    kinds = set()

    def check(f):
        for c in f.terms.values():
            exact = type(c) is int or (type(c) is Fraction and c.denominator > 1)
            assert exact, repr(c)
            kinds.add(type(c))

    rng = random.Random(15)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(15):
            f, g = rand_poly(rng, d), rand_poly(rng, d)
            term = rand_poly(rng, d, max_terms=1, nonconstant=True)
            # a product by a bare variable copies each coefficient; the sums
            # of halves make Fractions integral, or cancel
            bare = DPolynomial.from_variable(d, rand_variable(rng, d))
            half = f.scalar_mul(Fraction(1, 2))
            # half + (1/2) f = f and half - (1/2) f = 0, summed from Fraction cofactors
            zero = (0,) * d.M
            sums = [_sum_terms(half, [(DPolynomial.constant(d, c), zero, 0)], 1,
                               lambda member, theta: f)
                    for c in (Fraction(1, 2), Fraction(-1, 2))]
            assert sums == [f, DPolynomial.zero(d)]
            for h in (parse_poly(format_poly(f), d), f + g, f - g, 3 - f, f * g,
                      f * term, term * f, f * bare, bare * f, f * 2, f ** 2, g ** 3,
                      half + half, half - (f - half), f - half - half,
                      f.scalar_mul(Fraction(4, 2)), monic(f), -f, -half, *sums):
                check(h)
            for v, k in half.degrees().items():
                check(f.coefficient_in(v, k))
                check(half.coefficient_in(v, k))
            if not f.is_constant():
                check(half.separant())
            for i in range(1, d.t + 1):
                for h in block_image(f, i):
                    check(h)
            check(apply_composition(f, rand_theta(rng, d, 3)))
            cert = reduce(*rand_reduction_instance(rng, d, ranking), ranking)
            for h in [cert.remainder] + [c.c for c in cert.cofactors]:
                check(h)
            family = [rand_poly(rng, d, max_sum=2, max_deg=2, max_terms=2,
                                nonconstant=True) for _ in range(rng.randint(1, 3))]
            try:
                result = charset_complete(family, ranking)
            except InconsistentSystem:
                continue
            for cert in result.certificates:
                for h in [cert.remainder] + [c.c for c in cert.cofactors]:
                    check(h)
    assert kinds == {int, Fraction}
    check(parse_poly("4/2 * x1[0,0] + 6/4", all_builtins["dual"]))

    # the two types agree on equality, hashing and printing
    x = parse_poly("x1[0,0]", all_builtins["dual"])
    (m,) = x.terms
    half = Fraction(-1, 2)
    as_fraction = DPolynomial(x.algebra, {m: Fraction(3), UNIT_MONOMIAL: half})
    as_int = DPolynomial(x.algebra, {m: 3, UNIT_MONOMIAL: half})
    assert as_fraction == as_int and hash(as_fraction) == hash(as_int)
    assert format_poly(as_fraction) == format_poly(as_int) == "3 * x1[0,0] - 1/2"


def test_coefficient_in_takes_only_natural_int_degrees(hs2):
    # None used to return the v-free part and True to read as degree 1
    f = parse_poly("x1[0,0,0]^2 + x1[0,1,0]", hs2)
    x = DVariable(1, (0, 0, 0))
    assert f.coefficient_in(x, 0) == parse_poly("x1[0,1,0]", hs2)
    assert f.coefficient_in(x, 2) == DPolynomial.constant(hs2, 1)
    assert f.coefficient_in(x, 10 ** 30).is_zero()
    for k in (None, True, False, -1, 1.0, "1", Fraction(2)):
        with pytest.raises(ValueError, match="^degree must be a natural number$"):
            f.coefficient_in(x, k)


def test_power_takes_only_natural_int_exponents(dual):
    # x ** True used to return x; a bool is not an int here, as in Monomial.of
    x = parse_poly("x1[0,0] + 1", dual)
    assert x ** 0 == DPolynomial.constant(dual, 1) and x ** 2 == x * x
    for exponent in (True, False, -1, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="^exponent must be a natural number$"):
            x ** exponent


# ---------------------------------------------------------------------------
# monomial keys: variables are interned to ids in order of first sight, and
# each test below uses indeterminates that no other test meets, so their
# ids are assigned there, in the order the test meets them


def _same_as_of(m):
    """m equals, and hashes equal to, the monomial Monomial.of builds."""
    built = Monomial.of(dict(m.factors))
    assert m == built and hash(m) == hash(built) and m.key == built.key


def _met_in_reverse(*variables):
    """Intern the variables highest first and check that their ids run backwards."""
    for v in sorted(variables, reverse=True):
        Monomial.of({v: 1})
    ids = [_IDS[v] for v in sorted(variables)]
    assert ids == sorted(ids, reverse=True)


def test_variables_met_out_of_order_come_out_sorted(dual):
    x41, x43, x44, x45 = (DVariable(j, (0, 0)) for j in (41, 43, 44, 45))
    _met_in_reverse(x41, x43, x44, x45)
    a, b = Monomial.of({x45: 2, x43: 1}), Monomial.of({x44: 1, x41: 3})
    product = a.mul(b)
    assert product.factors == ((x41, 3), (x43, 1), (x44, 1), (x45, 2))
    assert product == b.mul(a) and product.variables() == [x41, x43, x44, x45]
    assert Monomial(((x45, 2), (x41, 3), (x44, 1), (x43, 1))) == product
    e, rest = product.without(x43)
    assert e == 1 and rest.factors == ((x41, 3), (x44, 1), (x45, 2))
    for m in (product, rest, a.mul(a), b.mul(product)):
        _same_as_of(m)

    f = DPolynomial(dual, {product: 1, Monomial.of({x41: 1, x45: 3}): 2})
    assert format_poly(f) == ("2 * x41[0,0] * x45[0,0]^3"
                              " + x41[0,0]^3 * x43[0,0] * x44[0,0] * x45[0,0]^2")
    assert format_poly(f.separant()) == (
        "6 * x41[0,0] * x45[0,0]^2 + 2 * x41[0,0]^3 * x43[0,0] * x44[0,0] * x45[0,0]")
    assert f.leader() == x45 and f.degree_in(x45) == 3 and f.degree_in(x43) == 1
    assert f.degrees() == {x41: 3, x43: 1, x44: 1, x45: 3}
    assert sorted(m.factors for m in f.separant().terms) == [
        ((x41, 1), (x45, 2)), ((x41, 3), (x43, 1), (x44, 1), (x45, 1))]
    coefficient, = f.coefficient_in(x44, 1).terms
    assert coefficient.factors == ((x41, 3), (x43, 1), (x45, 2))
    for g in (f.separant(), f.coefficient_in(x45, 2), f.initial(), f * f):
        for m in g.terms:
            _same_as_of(m)


def test_block_images_do_not_depend_on_the_order_variables_are_met(all_builtins):
    # x51-x55 are met highest first and x71-x75 lowest first; the same
    # polynomial over either set has the same block images, up to the names
    for j in range(71, 76):
        Monomial.of({DVariable(j, (0, 0)): 1})
    _met_in_reverse(*(DVariable(j, (0, 0)) for j in range(51, 56)))
    text = "x51[{0}]^2 * x55[{1}] + 3 * x53[{1}] * x52[{0}] - x54[{1}]^3 * x51[{1}] + 1"
    for d in all_builtins.values():
        zero, one = ",".join("0" * d.M), ",".join("0" * (d.M - 1) + "1")
        low = parse_poly(text.format(zero, one), d)
        high = parse_poly(text.format(zero, one).replace("x5", "x7"), d)
        for i in range(1, d.t + 1):
            for c_low, c_high in zip(block_image(low, i), block_image(high, i)):
                assert format_poly(c_low).replace("x5", "x7") == format_poly(c_high)
                for m in c_low.terms:
                    _same_as_of(m)


def test_ids_never_decide_an_order(dual):
    x61, x65 = DVariable(61, (0, 0)), DVariable(65, (0, 0))
    dx61, sx61 = DVariable(61, (0, 1)), DVariable(61, (1, 0))
    _met_in_reverse(x61, x65)
    _met_in_reverse(dx61, sx61)
    # the highest ranked variable and, on a key tie, the lowest in DVariable
    # order, although the variables were met the other way round
    f = parse_poly("x61[0,0] + x65[0,0]", dual)
    assert f.leader() == x65
    assert f.leader(CustomRanking(dual, lambda v: 0)) == x61
    g = parse_poly("x61[1,0] + x61[0,1]", dual)
    ties = CustomRanking(dual, lambda v: sum(v.theta))
    assert a_leader(g, [parse_poly("x61[0,0]", dual)], ties).variable == dx61
    assert format_poly(g) == "x61[0,1] + x61[1,0]"
    assert format_poly(g * f) == ("x65[0,0] * x61[0,1] + x61[0,0] * x61[0,1]"
                                  " + x65[0,0] * x61[1,0] + x61[0,0] * x61[1,0]")
    low, high = parse_poly("x61[0,0]", dual), parse_poly("x65[0,0]", dual)
    assert sorted([high, low], key=poly_sort_key) == [low, high]


def test_monomials_copy_and_pickle_through_their_factors(dual):
    x46, x47, x48 = (DVariable(j, (0, 0)) for j in (46, 47, 48))
    m = Monomial.of({x48: 2, x46: 1, x47: 7})
    assert m.__reduce__() == (Monomial, (((x46, 1), (x47, 7), (x48, 2)),))
    for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert copied == m and hash(copied) == hash(m) and copied.factors == m.factors
    f = DPolynomial(dual, {m: 3, UNIT_MONOMIAL: 1})
    assert pickle.loads(pickle.dumps(f)) == copy.deepcopy(f) == f


def test_huge_exponents_multiply_exactly(dual):
    x = DVariable(81, (0, 0))
    m = Monomial.of({x: 2 ** 70})
    assert m.mul(m).factors == ((x, 2 ** 71),) and m.mul(m).degree_in(x) == 2 ** 71
    f = DPolynomial(dual, {m: 1})
    assert format_poly(f * f) == f"x81[0,0]^{2 ** 71}"
    assert (f * f).separant().terms == {Monomial.of({x: 2 ** 71 - 1}): 2 ** 71}


def test_threads_interning_the_same_variables_get_one_id_each():
    # a race is rare in any one round, so each of several rounds meets 50
    # variables that no earlier round or test has met
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        for first in range(201, 1201, 50):
            fresh = [(j, (0, 0)) for j in range(first, first + 50)]
            assert not any(DVariable(*v) in _IDS for v in fresh)
            start = threading.Barrier(8)
            seen = [None] * 8

            def intern(k):
                variables = [DVariable(*v) for v in fresh]   # the thread's own objects
                start.wait(timeout=10)
                seen[k] = [Monomial(((v, 1),)).key[0] for v in variables]

            threads = [threading.Thread(target=intern, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            ids = seen[0]
            assert all(s == ids for s in seen) and len(set(ids)) == len(fresh)
            assert [_VARIABLES[i] for i in ids] == [DVariable(*v) for v in fresh]
    finally:
        sys.setswitchinterval(interval)
