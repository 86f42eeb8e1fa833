import random
import re
from fractions import Fraction

import pytest

import dstar.operators
from dstar.algebra import AlgebraSpec, builtin, make_block_spec, validate_algebra
from dstar.classical import DiffPolynomial, DiffVar, project_to_differential
from dstar.errors import AlgebraMismatch, ExprParseError, IndexOutOfRange
from dstar.operators import apply, apply_composition, block_image, parse_operator, rho
from dstar.ordering import LESS, DVariable, SequentialRanking, apply_slot, parse_variable
from dstar.parser import parse_poly
from dstar.poly import _IDS, DPolynomial, Monomial, rank_compare

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


def test_a_coordinate_out_of_range_is_rejected(dual):
    f = parse_poly("x1[0,1]^2 + x1[0,0]", dual)
    for p in (2, -1):
        with pytest.raises(IndexOutOfRange, match=rf"^operator index {p} out of range 0\.\.1$"):
            block_image(f, 1, p)
    with pytest.raises(IndexOutOfRange, match=r"^operator index 2 out of range 0\.\.1$"):
        apply(f, 1, 2)


def test_a_block_or_operator_index_that_is_not_an_int_is_rejected(dual):
    # no float or bool stands for an index: 1.0 and True are not block 1 or
    # delta_1, and 0.5 is no bare TypeError
    f = parse_poly("x1[0,1]^2 + x1[0,0]", dual)
    x = DVariable(1, (0, 0))
    cases = [((1, 0.5), "operator index 0.5"), ((1, 1.0), "operator index 1.0"),
             ((1, True), "operator index True"), ((1, "1"), "operator index '1'"),
             ((True, 1), "block index True"), ((1.0, 1), "block index 1.0"),
             ((1.0, 0.5), "block index 1.0")]
    for (i, p), what in cases:
        calls = (lambda: block_image(f, i, p), lambda: apply(f, i, p),
                 lambda: apply_slot(dual, x, i, p))
        for call in calls:
            with pytest.raises(IndexOutOfRange, match=rf"^{re.escape(what)} is not an int$"):
                call()
    for i in (1.0, True):
        with pytest.raises(IndexOutOfRange, match=rf"^block index {i} is not an int$"):
            block_image(f, i)


def test_block_image_rejects_a_variable_with_the_wrong_slot_count(dual, hs2, fields2):
    # the full image and sigma alone, which substitutes (on fields:2 the
    # full image too, since its blocks have one element each)
    for algebra, theta in ((dual, (0, 0, 0)), (hs2, (0, 1)), (fields2, (0,))):
        x = DVariable(1, (0,) * algebra.M)
        bad = DPolynomial(algebra, {Monomial.of({x: 1, DVariable(2, theta): 2}): 1})
        sigma = [0] * algebra.M
        sigma[algebra.slot_index(1, 0)] = 1
        for image in (lambda: block_image(bad, 1), lambda: block_image(bad, 1, 0),
                      lambda: apply_composition(bad, tuple(sigma))):
            with pytest.raises(AlgebraMismatch, match=f"^variable has {len(theta)} "
                                                      f"slots, algebra has {algebra.M}$"):
                image()


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


def _rand_powers_poly(rng, d, max_exp=5, max_factors=2):
    """Up to three terms of 1..max_factors variable powers, exponents 1..max_exp."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = {}
        for _ in range(rng.randint(1, max_factors)):
            mono[DVariable(rng.randint(1, 2), rand_theta(rng, d, 1))] = \
                rng.randint(1, max_exp)
        terms[Monomial.of(mono)] = Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                            rng.randint(1, 2))
    if rng.random() < 0.5:
        terms[Monomial.of({})] = Fraction(rng.randint(1, 4))
    return DPolynomial(d, terms)


def _constant_term_exprs(d):
    """An int constant term, a Fraction constant term, and a constant alone."""
    zero, last = ",".join("0" * d.M), ",".join("0" * (d.M - 1) + "1")
    x, z = f"x1[{zero}]", f"x2[{last}]"
    return [f"{x}^2 * {z} + 7", f"{x} * {z}^3 - 5/2", "-7/3"]


def _five_element_algebra(c):
    """One block 1, e1, e2, f1, f2: e1*e1 = f1 + f2, e1*e2 = c f1, e2*e2 = -3 f2."""
    return validate_algebra(AlgebraSpec((make_block_spec(
        ["1", "e1", "e2", "f1", "f2"],
        {**{("1", b): [(b, 1)] for b in ("1", "e1", "e2", "f1", "f2")},
         ("e1", "e1"): [("f1", 1), ("f2", 1)], ("e1", "e2"): [("f1", c)],
         ("e2", "e2"): [("f2", -3)]}),)))


def _assert_coordinates_alone(f, context):
    """block_image(f, i, p) is coordinate p of the full image: terms, order, types."""
    for i in range(1, f.algebra.t + 1):
        for p, coordinate in enumerate(block_image(f, i)):
            alone = block_image(f, i, p)
            assert alone == (coordinate,), (context, i, p)
            assert [(m, c, type(c)) for m, c in alone[0].terms.items()] == \
                [(m, c, type(c)) for m, c in coordinate.terms.items()], (context, i, p)


def test_apply_composition_matches_unmemoised_reference(all_builtins):
    rng, wide = random.Random(36), random.Random(38)
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
                _assert_coordinates_alone(f, (label, f))
            for i in range(1, d.t + 1):
                assert list(block_image(f, i)) == _reference_image(f, i)
        # monomials of up to four variable powers, so that a coordinate
        # computed alone goes through inner products too
        for _ in range(6):
            f = _rand_powers_poly(wide, d, 4, max_factors=4)
            theta = rand_theta(wide, d, 3)
            assert apply_composition(f, theta) == _reference_composition(f, theta), \
                (label, theta, f)
            _assert_coordinates_alone(f, (label, f))
        # packed block-image keys: powers on both sides of each field-width
        # boundary, a degree-8 term beside a degree-1 term and a constant
        # (one width for all of them), and on dual two variables with a
        # common slot bump (sigma x1[0,1] = delta x1[1,0] = x1[1,1])
        zero, last = ",".join("0" * d.M), ",".join("0" * (d.M - 1) + "1")
        x, y, z = f"x1[{zero}]", f"x2[{zero}]", f"x1[{last}]"
        exprs = [f"{x}^{e}" for e in (1, 2, 3, 4, 7, 8, 15, 16)]
        exprs.append(f"{x}^6 * {y}^2 - 2 * {z} + 3")
        if label == "dual":
            exprs.append("x1[1,0]^3 * x1[0,1]^2")
        # shared key prefixes: a key lists its variables by id, so a, b, c, e
        # are the four variables in id order.  a^2*b is a proper prefix of
        # the other two keys, which share it, met before and after them
        w = f"x2[{last}]"
        a, b, c, e = sorted((x, y, z, w),
                            key=lambda v: next(iter(parse_poly(v, d).terms)).key[0])
        exprs.append(f"{a}^2*{b} + {a}^2*{b}*{c} + {a}^2*{b}*{e} - 3")
        exprs.append(f"{a}^2*{b}*{c} + {a}^2*{b} + {a}^2*{b}*{e} - 3")
        # a constant is the empty product, whose image is the unit vector
        exprs += _constant_term_exprs(d)
        theta = pinned[label][0]
        for expr in exprs:
            f = parse_poly(expr, d)
            assert apply_composition(f, theta) == _reference_composition(f, theta), \
                (label, theta, expr)
            for i in range(1, d.t + 1):
                assert list(block_image(f, i)) == _reference_image(f, i), (label, i, expr)
            _assert_coordinates_alone(f, (label, expr))


def test_sigma_images_substitute_the_unit_slot_bump(all_builtins):
    # sigma_i, and the full image of a one-element block, replace each
    # variable by its unit-slot bump: against the reference, and with the
    # terms, order and coefficient types of the full image's unit coordinate
    rng = random.Random(39)
    algebras = list(all_builtins.values()) + [_five_element_algebra(Fraction(1, 2))]
    for d in algebras:
        polys = [parse_poly(expr, d) for expr in _constant_term_exprs(d)]
        polys += [_rand_powers_poly(rng, d, 4, max_factors=3) for _ in range(8)]
        polys += [rand_poly(rng, d, n_vars=3) for _ in range(8)]
        for f in polys:
            for i in range(1, d.t + 1):
                reference = _reference_image(f, i)
                sigma, = block_image(f, i, 0)
                assert sigma == reference[0], (i, f)
                unit = block_image(f, i)[0]
                assert [(m, c, type(c)) for m, c in sigma.terms.items()] == \
                    [(m, c, type(c)) for m, c in unit.terms.items()], (i, f)
            theta = rho(d, rand_theta(rng, d, 3))
            assert apply_composition(f, theta) == _reference_composition(f, theta), \
                (theta, f)
    # a bump met before the bumps of lower-id variables: the substituted key
    # must be sorted again into id order
    d = all_builtins["hs:2"]
    x, y = DVariable(91, (0, 0, 0)), DVariable(92, (0, 0, 0))
    for v in (x, y):
        DPolynomial.from_variable(d, v)
    block_image(DPolynomial.from_variable(d, y), 1, 0)     # interns sigma y
    f = DPolynomial(d, {Monomial.of({x: 2, y: 1}): Fraction(3, 2)})
    sigma_f, = block_image(f, 1, 0)
    sx, sy = DVariable(91, (1, 0, 0)), DVariable(92, (1, 0, 0))
    assert _IDS[x] < _IDS[y] and _IDS[sy] < _IDS[sx]
    assert sigma_f == _reference_image(f, 1)[0] == \
        DPolynomial(d, {Monomial.of({sx: 2, sy: 1}): Fraction(3, 2)})
    assert next(iter(sigma_f.terms)).key == (_IDS[sy], 1, _IDS[sx], 2)


def test_sigma_derivation_steps_walk_each_term_once(all_builtins):
    # delta_p whose only pick is (p,) is a sigma-derivation: one walk over
    # each term's factors, against the reference, and with the terms, order
    # and coefficient types of the full image's coordinate p
    picks = dstar.operators._picks
    rng = random.Random(40)
    algebras = {**all_builtins, "five": _five_element_algebra(Fraction(1, 2))}
    extra = {"dual": ["x1[1,0]^3 * x1[0,1]^2",     # delta x1[1,0] = sigma x1[0,1]
                      "1/2*x1[0,0]^2 - 3/4",       # made integral
                      # the two middle terms meet: 1/2 + 1/2 and 1/2 - 1/2
                      "1/2*x1[2,0]*x1[0,1] + 1/2*x1[1,0]*x1[1,1]",
                      "1/2*x1[2,0]*x1[0,1] - 1/2*x1[1,0]*x1[1,1]"]}
    matched = set()
    for label, d in algebras.items():
        polys = [parse_poly(expr, d) for expr in _constant_term_exprs(d) + extra.get(label, [])]
        polys += [_rand_powers_poly(rng, d, 4, max_factors=3) for _ in range(8)]
        polys += [rand_poly(rng, d, n_vars=3) for _ in range(8)]
        for f in polys:
            for i in range(1, d.t + 1):
                block = d.block(i)
                reference, full = _reference_image(f, i), block_image(f, i)
                for p in range(1, block.m + 1):
                    if picks(block, p)[1]:
                        continue
                    matched.add((label, i, p))
                    alone, = block_image(f, i, p)
                    assert alone == reference[p], (label, i, p, f)
                    assert [(m, c, type(c)) for m, c in alone.terms.items()] == \
                        [(m, c, type(c)) for m, c in full[p].terms.items()], (label, i, p, f)
    # every delta of dual and dd:1,1, hs:2's delta_1 and the five-element e1
    # and e2; hs:2's delta_2 and f1, f2 have longer picks
    assert matched == {("dual", 1, 1), ("dd:1,1", 1, 1), ("hs:2", 1, 1),
                       ("five", 1, 1), ("five", 1, 2)}
    d = algebras["dual"]
    assert apply(parse_poly("1/2*x1[2,0]*x1[0,1] + 1/2*x1[1,0]*x1[1,1]", d), 1, 1) == \
        parse_poly("1/2*x1[3,0]*x1[0,2] + x1[1,1]*x1[2,1] + 1/2*x1[2,0]*x1[1,2]", d)
    assert apply(parse_poly("1/2*x1[2,0]*x1[0,1] - 1/2*x1[1,0]*x1[1,1]", d), 1, 1) == \
        parse_poly("1/2*x1[3,0]*x1[0,2] - 1/2*x1[2,0]*x1[1,2]", d)
    assert [(m, c, type(c)) for m, c in apply(parse_poly("1/2*x1[0,0]^2 - 3/4", d),
                                                1, 1).terms.items()] == \
        [(Monomial.of({parse_variable("x1[1,0]", d): 1,
                       parse_variable("x1[0,1]", d): 1}), 1, int)]
    assert apply(parse_poly("-7/3", d), 1, 1) == DPolynomial.zero(d)


def test_unit_steps_walk_the_pinned_pick_tables(hs2):
    # each coordinate's picks beside (p,): positions in its coordinates
    picks = dstar.operators._picks
    hs3 = validate_algebra(builtin("truncated_hs", 3))
    five = _five_element_algebra(Fraction(1, 2))
    tables = {label: [picks(d.block(1), p)
                      for p in range(1, d.block(1).m + 1)]
              for label, d in (("hs:3", hs3), ("five", five))}
    assert tables["hs:3"] == [((0, 1), ()), ((0, 1, 2), (((1, 1), 1),)),
                              ((0, 1, 2, 3), (((1, 2), 1), ((1, 1, 1), 1)))]
    # f1 = e1*e1 + 2*e1*e2 reads e1 and e2; f2 = e1*e1 - 3*e2*e2, whose
    # coordinates skip f1, names e2 by its position 2
    assert tables["five"] == [((0, 1), ()), ((0, 2), ()),
                              ((0, 1, 2, 3), (((1, 1), 1), ((1, 2), Fraction(1, 2)))),
                              ((0, 1, 2, 4), (((1, 1), 1), ((2, 2), -3)))]
    # every unit step against the reference, on hs:3 and hs:4: powers on
    # both sides of each pick length (a pick of three coordinates on a term
    # of degree two takes no copy; one spread over three factors takes one
    # copy of each) and several factors beside one another
    rng = random.Random(42)
    for d in (hs3, validate_algebra(builtin("truncated_hs", 4))):
        zero, last = ",".join("0" * d.M), ",".join("0" * (d.M - 1) + "1")
        x, y, z = f"x1[{zero}]", f"x2[{zero}]", f"x1[{last}]"
        exprs = [f"{x}^{e}" for e in range(1, 6)]
        exprs += [f"{x} * {y}", f"{x} * {y} * {z}", f"{x}^2 * {y} - 3/2 * {z}^3",
                  f"2/3 * {x}^3 * {y}^2 * {z} + {x} * {z} - 4"]
        polys = [parse_poly(expr, d) for expr in exprs]
        polys += [_rand_powers_poly(rng, d, 4, max_factors=3) for _ in range(12)]
        for f in polys:
            reference = _reference_image(f, 1)
            for p in range(1, d.block(1).m + 1):
                assert block_image(f, 1, p) == (reference[p],), (d.M, p, f)
                assert apply(f, 1, p) == reference[p], (d.M, p, f)


@pytest.mark.parametrize("n", [99999999, 2 ** 1100 + 1], ids=["1e8", "2^1100+1"])
def test_block_image_of_a_huge_power_has_its_closed_form(dual, hs2, n):
    # 2^1100 + 1 has more bits than the interpreter's default recursion
    # limit, which a recursive squaring chain used to exhaust

    def term(d, c, **factors):
        return DPolynomial(d, {Monomial.of({parse_variable(v, d): e
                                            for v, e in factors.items()}): c})

    dual_image = (term(dual, 1, **{"x1[1,0]": n}),
                  term(dual, n, **{"x1[1,0]": n - 1, "x1[0,1]": 1}))
    s, d1, d2 = "x1[1,0,0]", "x1[0,1,0]", "x1[0,0,1]"
    hs2_image = (term(hs2, 1, **{s: n}),
                 term(hs2, n, **{s: n - 1, d1: 1}),
                 term(hs2, n, **{s: n - 1, d2: 1})
                 + term(hs2, n * (n - 1) // 2, **{s: n - 2, d1: 2}))
    for f, image in ((parse_poly(f"x1[0,0]^{n}", dual), dual_image),
                     (parse_poly(f"x1[0,0,0]^{n}", hs2), hs2_image)):
        assert block_image(f, 1) == image
        # each coordinate alone: the delta of dual and hs:2's delta_1 walk
        # the pick (1,), and hs:2's delta_2 the picks (2,) and (1, 1)
        for p, coordinate in enumerate(image):
            assert block_image(f, 1, p) == (coordinate,)


@pytest.mark.parametrize("c", ["1/2", "2", "-3"])
def test_non_unit_structure_constants_match_the_reference(c):
    # every builtin's structure constants are 1, so only an algebra like
    # this one multiplies by an alpha other than 1 inside a block image
    d = validate_algebra(AlgebraSpec((
        make_block_spec(["1", "e", "f"], {("1", "1"): [("1", 1)], ("1", "e"): [("e", 1)],
                                          ("1", "f"): [("f", 1)], ("e", "e"): [("f", c)]}),
        make_block_spec(["u", "n"], {("u", "u"): [("u", 1)], ("u", "n"): [("n", 1)]}))))
    assert d.alpha(1, 2, 1, 1) == Fraction(c)
    # and in this one e1 * e1 = f1 + f2 has two contributions, and no product
    # of two nilpotents is one basis element with coefficient 1
    two = _five_element_algebra(c)
    assert two.blocks[0].nu == (1, 1, 2, 2)
    assert (two.alpha(1, 3, 1, 1), two.alpha(1, 4, 1, 1)) == (1, 1)
    assert two.alpha(1, 3, 1, 2) == Fraction(c)
    rng = random.Random(37)
    # from one stream: each case draws its f, then its theta
    sizes = ((d, 5, 2), (two, 3, 2), (d, 3, 4), (two, 2, 4))
    cases = [(algebra, _rand_powers_poly(rng, algebra, max_exp, max_factors),
              rand_theta(rng, algebra, 3))
             for algebra, max_exp, max_factors in sizes for _ in range(10)]
    # constants: an int and a Fraction constant term, and a constant alone
    cases += [(algebra, parse_poly(expr, algebra), (1,) * algebra.M)
              for algebra in (d, two) for expr in _constant_term_exprs(algebra)]
    for algebra, f, theta in cases:
        results = [apply_composition(f, theta)]
        assert results[0] == _reference_composition(f, theta), (theta, f)
        for i in range(1, algebra.t + 1):
            image = list(block_image(f, i))
            assert image == _reference_image(f, i), (i, f)
            results += image
        _assert_coordinates_alone(f, f)
        for h in results:
            for coeff in h.terms.values():
                assert type(coeff) is int or \
                    (type(coeff) is Fraction and coeff.denominator > 1), repr(coeff)


def test_a_block_image_interns_only_the_bumps_it_reads(hs2):
    # sigma reads the unit slot alone, and each delta the coordinates of its
    # picks: delta_1 the unit slot and itself, delta_2 every coordinate
    picks = dstar.operators._picks
    block = hs2.block(1)
    assert [picks(block, p)[0] for p in (1, 2)] == [(0, 1), (0, 1, 2)]
    # coordinates with a gap: e2 reads the unit and e2; f2 = e1*e1 + e2*e2 skips f1
    block = _five_element_algebra(2).block(1)
    assert (picks(block, 2)[0], picks(block, 4)[0]) == ((0, 2), (0, 1, 2, 4))
    # x77 is an indeterminate no other test meets, so no bump of it is
    # interned before this block image makes it
    f = parse_poly("x77[0,0,0]^2 * x77[2,0,0] + 3 * x77[2,0,0] - 4", hs2)

    def bumps(p):
        return {DVariable(v.var, _bump(v.theta, hs2.slot_index(1, p)))
                for v in f.variables()}

    assert not (bumps(0) | bumps(1) | bumps(2)) & _IDS.keys()
    block_image(f, 1, 0)
    assert bumps(0) <= _IDS.keys() and not (bumps(1) | bumps(2)) & _IDS.keys()
    block_image(f, 1, 1)
    assert bumps(1) <= _IDS.keys() and not bumps(2) & _IDS.keys()
    block_image(f, 1)
    assert bumps(2) <= _IDS.keys()
    # and on the five-element block, f2's walk skips f1's bumps
    five = _five_element_algebra(Fraction(1, 2))
    g = parse_poly("x78[0,0,0,0,0]^3 - x78[0,0,0,0,0]", five)

    def five_bumps(p):
        return {DVariable(78, _bump((0,) * 5, five.slot_index(1, p)))}

    assert not set().union(*map(five_bumps, range(5))) & _IDS.keys()
    block_image(g, 1, 4)
    assert set().union(*map(five_bumps, (0, 1, 2, 4))) <= _IDS.keys()
    assert not five_bumps(3) & _IDS.keys()


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


def test_parse_operator_rejects_delta_index_zero(dual, dd11):
    # d<i>.0 used to name slot (i, 0), which is sigma_i
    for text in ("d1.0", "d1.0^2", "s1 d1.0", "d1.00"):
        with pytest.raises(ExprParseError, match="bad operator 'd1.0"):
            parse_operator(text, dual)
    with pytest.raises(ExprParseError, match="bad operator 'd2.0'"):
        parse_operator("d2.0", dd11)
    assert parse_operator("s1 d1.1^2", dual) == (1, 2)
    assert parse_operator("d1.01", dual) == (0, 1)
    assert parse_operator("theta=[1,0]", dual) == (1, 0)


def test_parse_operator_rejects_an_empty_string(dual):
    for text in ("", "   "):
        with pytest.raises(ExprParseError) as exc:
            parse_operator(text, dual)
        assert exc.value.message == "empty operator string"


def test_apply_composition_takes_one_block_image_per_unit_step(all_builtins, monkeypatch):
    calls = []
    real = dstar.operators.block_image

    def counting(f, i, p=None):
        calls.append((i, p))
        return real(f, i, p)

    monkeypatch.setattr(dstar.operators, "block_image", counting)
    rng = random.Random(61)
    for d in all_builtins.values():
        for _ in range(10):
            f = rand_poly(rng, d)
            theta = rand_theta(rng, d, 4)
            calls.clear()
            apply_composition(f, theta)
            assert len(calls) == sum(theta)
            # each unit step builds only the coordinate of its slot
            assert calls == [d.block_of_slot(slot) for slot, count in enumerate(theta)
                             for _ in range(count)]
