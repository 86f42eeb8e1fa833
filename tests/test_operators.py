import random
from fractions import Fraction

import pytest

from dstar.classical import DiffPolynomial, DiffVar, project_to_differential
from dstar.errors import ExprParseError, IndexOutOfRange
from dstar.operators import apply, apply_composition, block_image, parse_operator, rho
from dstar.ordering import LESS, DVariable, SequentialRanking
from dstar.parser import parse_poly
from dstar.poly import DPolynomial, Monomial, rank_compare

from gen import rand_poly, rand_theta


def test_block_image_dual(dual):
    x = parse_poly("x1[0,0]", dual)
    img = block_image(x * x, 1)
    assert img[0] == parse_poly("x1[1,0]^2", dual)
    assert img[1] == parse_poly("2 * x1[1,0] * x1[0,1]", dual)
    const = block_image(DPolynomial.constant(dual, 7), 1)
    assert const[0] == DPolynomial.constant(dual, 7)
    assert const[1].is_zero()


def test_block_image_truncated_hs(hs2):
    x = parse_poly("x1[0,0,0]", hs2)
    img = block_image(x * x, 1)
    # delta_2(x^2) = 2 sigma(x) delta_2(x) + delta_1(x)^2
    assert img[2] == parse_poly(
        "2 * x1[1,0,0] * x1[0,0,1] + x1[0,1,0]^2", hs2)
    assert img[1] == parse_poly("2 * x1[1,0,0] * x1[0,1,0]", hs2)


def test_apply_examples(dual):
    dx = parse_poly("x1[0,1]", dual)
    assert apply(dx * dx, 1, 1) == parse_poly("2 * x1[1,1] * x1[0,2]", dual)
    assert apply(parse_poly("x1[0,0] + 3", dual), 1, 0) == \
        parse_poly("x1[1,0] + 3", dual)
    assert apply(DPolynomial.constant(dual, 5), 1, 1).is_zero()
    with pytest.raises(IndexOutOfRange):
        apply(dx, 1, 2)
    with pytest.raises(IndexOutOfRange):
        apply(dx, 2, 0)


def test_apply_composition_on_variables(dual):
    v = parse_poly("x1[1,2]", dual)
    assert apply_composition(v, (2, 1)) == parse_poly("x1[3,3]", dual)
    f = parse_poly("x1[0,0]^2 - x1[0,1]", dual)
    assert apply_composition(f, (0, 0)) == f


def test_apply_composition_order_independent(dual):
    x2 = parse_poly("x1[0,0]^2", dual)
    via_sigma_delta = apply(apply(x2, 1, 1), 1, 0)
    via_delta_sigma = apply(apply(x2, 1, 0), 1, 1)
    assert via_sigma_delta == via_delta_sigma
    assert apply_composition(x2, (1, 1)) == via_sigma_delta


def test_homomorphism_random(all_builtins):
    rng = random.Random(31)
    for d in all_builtins.values():
        for _ in range(40):
            f = rand_poly(rng, d, max_terms=2)
            g = rand_poly(rng, d, max_terms=2)
            for i in range(1, d.t + 1):
                fi, gi, fgi = block_image(f, i), block_image(g, i), \
                    block_image(f * g, i)
                assert list(fgi) == _image_product(d, i, fi, gi)
                sumi = block_image(f + g, i)
                assert [a + b for a, b in zip(fi, gi)] == list(sumi)


def _image_product(d, i, u, w):
    block = d.blocks[i - 1]
    out = [u[0] * w[0]]
    for j in range(1, block.m + 1):
        coord = u[0] * w[j] + u[j] * w[0]
        for p in range(1, block.m + 1):
            for q in range(1, block.m + 1):
                a = d.alpha(i, j, p, q)
                if a:
                    coord = coord + (u[p] * w[q]).scalar_mul(a)
        out.append(coord)
    return out


def _reference_image(f, i):
    """Block-i image with no memo and no squaring: v^e is e products of v's image."""
    d = f.algebra
    m = d.blocks[i - 1].m
    total = [DPolynomial.zero(d)] * (m + 1)
    for monomial, coeff in f.terms.items():
        vec = [DPolynomial.constant(d, 1)] + [DPolynomial.zero(d)] * m
        for v, e in monomial.factors:
            vimg = [DPolynomial.from_variable(
                d, DVariable(v.var, _bump(v.theta, d.slot_index(i, q))))
                for q in range(m + 1)]
            for _ in range(e):
                vec = _image_product(d, i, vec, vimg)
        total = [t + c.scalar_mul(coeff) for t, c in zip(total, vec)]
    return total


def _reference_composition(f, theta):
    d = f.algebra
    for slot, count in enumerate(theta):
        i, p = d.block_of_slot(slot)
        for _ in range(count):
            f = _reference_image(f, i)[p]
    return f


def _rand_powers_poly(rng, d, max_exp=5):
    """Up to three terms of one or two variable powers, exponents 1..max_exp."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = {}
        for _ in range(rng.randint(1, 2)):
            mono[DVariable(rng.randint(1, 2), rand_theta(rng, d, 1))] = \
                rng.randint(1, max_exp)
        terms[Monomial.of(mono)] = Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                            rng.randint(1, 2))
    if rng.random() < 0.5:
        terms[Monomial.of({})] = Fraction(rng.randint(1, 4))
    return DPolynomial(d, terms)


def test_apply_composition_matches_unmemoised_reference(all_builtins):
    rng = random.Random(36)
    pinned = {"dd:1,1": [(1, 1, 1), (0, 2, 1), (1, 0, 2)],  # both blocks
              "hs:2": [(1, 1, 1), (0, 0, 2)], "dual": [(1, 2), (2, 1)],
              "fields:2": [(1, 1), (2, 0)]}
    for label, d in all_builtins.items():
        thetas = pinned[label] + [rand_theta(rng, d, 3) for _ in range(6)]
        for theta in thetas:
            for _ in range(3):
                f = _rand_powers_poly(rng, d)
                assert apply_composition(f, theta) == _reference_composition(f, theta), \
                    (label, theta, f)
            for i in range(1, d.t + 1):
                assert list(block_image(f, i)) == _reference_image(f, i)


def test_dual_tower_is_the_classical_derivative(dual):
    x = DiffPolynomial.from_variable(DiffVar(0, 1))
    for k in range(1, 21):
        f = parse_poly(f"x1[0,0]^{k}", dual)
        got = apply_composition(f, parse_operator(f"d1.1^{k}", dual))
        assert project_to_differential(got) == (x ** k).nth_derivative(k), k


def test_commutation_all_slot_pairs(all_builtins):
    rng = random.Random(32)
    for d in all_builtins.values():
        slots = d.slot_pairs()
        for _ in range(15):
            f = rand_poly(rng, d, max_terms=2, max_sum=2)
            for s1 in slots:
                for s2 in slots:
                    lhs = apply(apply(f, *s1), *s2)
                    rhs = apply(apply(f, *s2), *s1)
                    assert lhs == rhs


def test_rho(dual, dd11):
    assert rho(dual, (2, 1)) == (3, 0)
    assert rho(dual, (0, 0)) == (0, 0)
    # dd(1,1) layout (s1, d1.1, s2): sigma_1 absorbs the block-1 order
    assert rho(dd11, (1, 2, 0)) == (3, 0, 0)
    assert rho(dd11, (0, 1, 2)) == (1, 0, 2)


def test_separant_rank_drop(all_builtins):
    # delta(f) - sigma(s_f) * delta(u_f) sits strictly below delta(u_f)
    rng = random.Random(33)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(25):
            f = rand_poly(rng, d, nonconstant=True)
            u = f.leader(ranking)
            s = f.separant(ranking)
            for i in range(1, d.t + 1):
                for p in range(1, d.blocks[i - 1].m + 1):
                    du = DPolynomial.from_variable(
                        d, DVariable(u.var, _bump(u.theta, d.slot_index(i, p))))
                    h = apply(f, i, p) - apply(s, i, 0) * du
                    assert rank_compare(h, du, ranking) == LESS


def _bump(theta, slot):
    return theta[:slot] + (theta[slot] + 1,) + theta[slot + 1:]


def test_sigma_composition_rank_drop(all_builtins):
    # tau(f) - tau(I_f) tau(u_f)^d sits strictly below tau(u_f)^d
    rng = random.Random(34)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        sigma_slots = [d.slot_index(i, 0) for i in range(1, d.t + 1)]
        for _ in range(25):
            f = rand_poly(rng, d, nonconstant=True)
            theta = [0] * d.M
            for s in sigma_slots:
                theta[s] = rng.randint(0, 2)
            theta = tuple(theta)
            u, deg = f.leader(ranking), f.degree(ranking)
            tu = DPolynomial.from_variable(
                d, DVariable(u.var, tuple(a + b for a, b in zip(u.theta, theta))))
            h = apply_composition(f, theta) - \
                apply_composition(f.initial(ranking), theta) * tu ** deg
            assert rank_compare(h, tu ** deg, ranking) == LESS


def test_delta_composition_rank_drop(all_builtins):
    # psi(f) - rho(psi)(s_f) psi(u_f) sits strictly below psi(u_f)
    rng = random.Random(35)
    for d in all_builtins.values():
        if all(b.m == 0 for b in d.blocks):
            continue  # no delta slots to compose
        ranking = SequentialRanking(d)
        from dstar.ordering import ord_delta
        for _ in range(25):
            f = rand_poly(rng, d, nonconstant=True)
            while True:
                theta = rand_theta(rng, d, 2)
                if ord_delta(d, theta) > 0:
                    break
            u = f.leader(ranking)
            tu = DPolynomial.from_variable(
                d, DVariable(u.var, tuple(a + b for a, b in zip(u.theta, theta))))
            h = apply_composition(f, theta) - \
                apply_composition(f.separant(ranking), rho(d, theta)) * tu
            assert rank_compare(h, tu, ranking) == LESS


def test_parse_operator(dual, dd11):
    assert parse_operator("s1", dual) == (1, 0)
    assert parse_operator("d1.1", dual) == (0, 1)
    assert parse_operator("s1^2 d1.1", dual) == (2, 1)
    assert parse_operator("theta=[1,2]", dual) == (1, 2)
    assert parse_operator("s2 d1.1^3", dd11) == (0, 3, 1)
    assert parse_operator("d1.1 s2^2 d1.1^2", dd11) == (0, 3, 2)
    assert parse_operator("d1.1^1000000", dual) == (0, 1000000)
    with pytest.raises(ExprParseError):
        parse_operator("d2.1", dual)
    with pytest.raises(ExprParseError):
        parse_operator("theta=[1,2,3]", dual)
    with pytest.raises(ExprParseError):
        parse_operator("sigma", dual)
