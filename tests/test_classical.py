import random
from fractions import Fraction

import pytest

from dstar.classical import (
    DiffPolynomial,
    DiffVar,
    diff_is_reduced,
    lift_to_dual,
    project_to_differential,
    ritt_reduce,
    verify_ritt_certificate,
)
from dstar.errors import ConstantDivisor, DuplicateLeaders, WrongAlgebra
from dstar.operators import apply
from dstar.ordering import DVariable
from dstar.parser import parse_poly
from dstar.reduction import reduce

from gen import rand_diff_poly, rand_diff_system, rand_poly
from recovery import projected_certificate_holds, projection_ranking


def dv(order, var=1):
    return DiffVar(order, var)


def test_projection_examples(dual):
    assert project_to_differential(parse_poly("x1[3,2]", dual)) == \
        DiffPolynomial.from_variable(dv(2))
    assert project_to_differential(parse_poly("x1[0,0]", dual)) == \
        DiffPolynomial.from_variable(dv(0))
    got = project_to_differential(parse_poly("2 * x1[1,1] * x1[0,2]", dual))
    expected = 2 * (DiffPolynomial.from_variable(dv(1)) *
                    DiffPolynomial.from_variable(dv(2)))
    assert got == expected


def test_projection_wrong_algebra(hs2):
    with pytest.raises(WrongAlgebra):
        project_to_differential(parse_poly("x1[0,0,0]", hs2))


def test_projection_commutes_with_derivation(dual):
    # project(delta(f)) equals the classical derivative of project(f)
    rng = random.Random(61)
    for _ in range(60):
        f = rand_poly(rng, dual)
        assert project_to_differential(apply(f, 1, 1)) == \
            project_to_differential(f).derivative()
        # sigma collapses to the identity under projection
        assert project_to_differential(apply(f, 1, 0)) == \
            project_to_differential(f)


def test_lift_round_trip(dual):
    rng = random.Random(62)
    for _ in range(40):
        p = rand_diff_poly(rng, n_vars=2)
        assert project_to_differential(lift_to_dual(p)) == p


def test_classical_worked_example():
    f = (DiffPolynomial.from_variable(dv(1)) ** 2 -
         4 * DiffPolynomial.from_variable(dv(0)))
    g = DiffPolynomial.from_variable(dv(2))
    cert = ritt_reduce(g, [f])
    assert cert.remainder == 4 * DiffPolynomial.from_variable(dv(1))
    assert cert.h == 2 * DiffPolynomial.from_variable(dv(1))
    assert verify_ritt_certificate(g, [f], cert)


def test_classical_reduced_input():
    f = DiffPolynomial.from_variable(dv(1)) ** 2 - 4 * DiffPolynomial.from_variable(dv(0))
    g = DiffPolynomial.from_variable(dv(0))
    cert = ritt_reduce(g, [f])
    assert cert.remainder == g and cert.h == DiffPolynomial.constant(1)


def test_classical_reduce_to_zero():
    x = DiffPolynomial.from_variable(dv(0))
    g = DiffPolynomial.from_variable(dv(1))
    cert = ritt_reduce(g, [x])
    assert cert.remainder.is_zero()
    assert verify_ritt_certificate(g, [x], cert)


def test_classical_printing_and_rejections():
    x, x1, x2 = (DiffPolynomial.from_variable(dv(k)) for k in range(3))
    assert [str(dv(k, 2)) for k in (0, 1, 3, 4)] == ["x2", "x2'", "x2'''", "D^4 x2"]
    # terms print highest first; a coefficient of magnitude 1 is left out
    # except on a constant, and only a leading minus is unspaced
    assert str(3 * x1 ** 2 - x + Fraction(1, 2)) == "3 * x1'^2 - x1 + 1/2"
    assert str(-x1 * x + 2 * x2 - 1) == "2 * x1'' - x1' * x1 - 1"
    assert str(-x2 + 1) == "-x1'' + 1" and str(-x - Fraction(1, 3)) == "-x1 - 1/3"
    assert str(DiffPolynomial.zero()) == "0" and str(DiffPolynomial.constant(-1)) == "-1"
    with pytest.raises(ConstantDivisor):
        ritt_reduce(x2, [x1, DiffPolynomial.constant(2)])
    with pytest.raises(DuplicateLeaders):
        ritt_reduce(x2, [x1, x1 ** 2 - x])
    # against x1'^2 - x1: a proper derivative of x1', or x1' at degree 2, offends
    f = x1 ** 2 - x
    assert not diff_is_reduced(x2 + x, f)
    assert not diff_is_reduced(x1 ** 2 * x + 1, f)
    assert diff_is_reduced(x1 * x ** 3 + 5, f)
    assert diff_is_reduced(DiffPolynomial.constant(3), f)


def test_ritt_certificates_on_random_systems():
    rng = random.Random(63)
    for _ in range(60):
        g, divisors = rand_diff_system(rng)
        cert = ritt_reduce(g, divisors)
        assert verify_ritt_certificate(g, divisors, cert)
        assert all(diff_is_reduced(cert.remainder, f) for f in divisors)


def test_oracle_equivalence_on_linear_divisor_systems(dual):
    # linear divisor sets keep the lifted trajectory aligned with the
    # classical one; generic nonlinear systems can diverge (see the worked
    # counterexample test below)
    rng = random.Random(64)
    ranking = projection_ranking()
    for _ in range(80):
        g, divisors = rand_diff_system(rng, linear=True)
        ccert = ritt_reduce(g, divisors)
        lifted = lift_to_dual(g)
        lifted_divs = [lift_to_dual(a) for a in divisors]
        dcert = reduce(lifted, lifted_divs, ranking)
        assert project_to_differential(dcert.remainder) == ccert.remainder


def test_oracle_equivalence_worked_example(dual):
    f = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
    g = parse_poly("x1[0,2]", dual)
    dcert = reduce(g, [f], projection_ranking())
    ccert = ritt_reduce(project_to_differential(g), [project_to_differential(f)])
    assert project_to_differential(dcert.remainder) == ccert.remainder


def test_oracle_divergence_counterexample(dual):
    # both reductions are certificate-valid, both remainders reduced, yet
    # they differ: the operator ring splits the classical variable delta^2 x
    # across sigma levels, so degree aggregation differs.  The dual run takes
    # 10 multiplier factors where the classical run takes 8, and
    # 192 * x^2 = (-2x)^2 * 48.
    g_cl = 2 * (DiffPolynomial.from_variable(dv(3)) *
                DiffPolynomial.from_variable(dv(2)))
    a_cl = (-2 * (DiffPolynomial.from_variable(dv(1)) *
                  DiffPolynomial.from_variable(dv(0))) - 1)
    ccert = ritt_reduce(g_cl, [a_cl])
    assert verify_ritt_certificate(g_cl, [a_cl], ccert)
    assert ccert.remainder == DiffPolynomial.constant(48)

    g = lift_to_dual(g_cl)
    a = lift_to_dual(a_cl)
    from dstar.reduction import verify_certificate
    dcert = reduce(g, [a], projection_ranking())
    assert verify_certificate(g, [a], dcert, projection_ranking())
    projected = project_to_differential(dcert.remainder)
    assert projected == 192 * (DiffPolynomial.from_variable(dv(0)) ** 2)
    assert projected != ccert.remainder
    # the cause: two sigma-copies of the classical x'' are separate leaders
    leaders = {step.leader for step in dcert.steps}
    assert {DVariable(1, (0, 2)), DVariable(1, (1, 2))} <= leaders
    # the projected certificate is still an exact classical identity
    assert projected_certificate_holds(g_cl, [a_cl], dcert, projection_ranking())


def test_difference_reduction_sigma_case_only(fields2):
    from dstar.ordering import ord_delta
    rng = random.Random(65)
    from gen import rand_divisors
    from dstar.ordering import SequentialRanking
    ranking = SequentialRanking(fields2)
    for _ in range(30):
        divisors = rand_divisors(rng, fields2, ranking)
        g = rand_poly(rng, fields2)
        cert = reduce(g, divisors, ranking)
        assert all(step.case == "sigma" for step in cert.steps)
        for cof in cert.cofactors:
            assert ord_delta(fields2, cof.theta) == 0
