import inspect
import json
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

import dstar.operators
import dstar.ordering
import dstar.reduction

from dstar.algebra import builtin, validate_algebra
from dstar.errors import (
    AlgebraMismatch,
    BadWitness,
    ConstantDivisor,
    ConstantPolynomial,
    DStarError,
    DuplicateLeaders,
    ExprParseError,
    IndexOutOfRange,
)
from dstar.operators import apply_composition, rho
from dstar.ordering import (
    EQUAL,
    GREATER,
    CustomRanking,
    DVariable,
    SequentialRanking,
    check_ranking_axioms,
    is_sigma_only,
    ord_delta,
    ord_i,
    transform_of,
)
from dstar.parser import parse_poly
from dstar.poly import DPolynomial, Monomial, rank_compare
from dstar.reduction import (
    DivisorSet,
    a_leader,
    ALeader,
    certificate_from_json,
    certificate_to_json,
    Cofactor,
    HFactor,
    INITIAL,
    is_reduced,
    is_reduced_wrt_set,
    multiplier_product,
    reduce,
    ReductionCertificate,
    SEPARANT,
    Step,
    verify_certificate,
)

from gen import rand_divisors, rand_poly, rand_reduction_instance
from test_operators import _five_element_algebra


@pytest.fixture
def worked(dual):
    # f = (delta x)^2 - 4x
    return parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)


def test_is_reduced_examples(dual, worked):
    assert is_reduced(parse_poly("x1[0,0]", dual), worked)
    # sigma-transform of the leader at degree 3 >= 2
    assert not is_reduced(parse_poly("x1[1,1]^3", dual), worked)
    # delta-transform present
    assert not is_reduced(parse_poly("x1[0,2]", dual), worked)
    # constants are reduced with respect to everything
    assert is_reduced(DPolynomial.constant(dual, 3), worked)
    with pytest.raises(ConstantDivisor):
        is_reduced(parse_poly("x1[0,0]", dual), DPolynomial.constant(dual, 1))


def test_constant_divisor_anywhere_in_a_set_is_rejected(dual, worked):
    one = DPolynomial.constant(dual, 1)
    offending = parse_poly("x1[1,1]^3", dual)
    assert not is_reduced_wrt_set(offending, [worked])
    for divisors in ([one], [one, worked], [worked, one]):
        for g in (offending, parse_poly("x1[0,0]", dual), one):
            with pytest.raises(ConstantDivisor):
                is_reduced_wrt_set(g, divisors)


def test_a_leader_examples(dual, worked):
    led = a_leader(parse_poly("x1[0,2]", dual), [worked])
    assert led.variable == DVariable(1, (0, 2))
    assert led.theta == (0, 1) and led.degree == 1 and led.is_delta
    assert a_leader(parse_poly("x1[0,0]", dual), [worked]) is None
    # delta-transforms outrank sigma-transforms here
    led = a_leader(parse_poly("x1[1,1]^2 * x1[0,2]", dual), [worked])
    assert led.variable == DVariable(1, (0, 2))


def test_a_leader_member_tiebreak(dual):
    # x1[0,2] is a transform of both leaders; the higher-ranked leader wins
    a0 = parse_poly("x1[0,0]", dual)
    a1 = parse_poly("x1[0,1]", dual)
    led = a_leader(parse_poly("x1[0,2]", dual), [a0, a1])
    assert led.member == 1 and led.theta == (0, 1)


def _offending_pairs(g, divisors, ranking):
    """Every (variable, member) pair that breaks the offending rule."""
    if g.is_constant():
        return []
    pairs = []
    for v in g.variables():
        for idx, f in enumerate(divisors):
            u = f.leader(ranking)
            tr = transform_of(g.algebra, v, u)
            if tr is None:
                continue
            if tr.is_delta or g.degree_in(v) >= f.degree_in(u):
                pairs.append(ALeader(v, g.degree_in(v), idx, tr.theta, tr.is_delta))
    return pairs


def _outranks(a, b, leaders, ranking):
    """The documented order: variable, then leader, then index, then variable."""
    cmp = ranking.compare(a.variable, b.variable)
    if cmp == EQUAL:
        cmp = ranking.compare(leaders[a.member], leaders[b.member])
    if cmp != EQUAL:
        return cmp == GREATER
    if a.member != b.member:
        return a.member < b.member
    return a.variable < b.variable


def test_a_leader_and_is_reduced_match_bruteforce(all_builtins):
    rng = random.Random(43)
    variable_ties = leader_ties = 0
    # the builtins, then a one-block algebra that is none of them
    for d in [*all_builtins.values(), _five_element_algebra(2)]:
        # the custom key ties all variables of one indeterminate and one
        # total order, so exact key ties reach both tie rules
        for ranking in (SequentialRanking(d),
                        CustomRanking(d, lambda v: (sum(v.theta), v.var))):
            for _ in range(150):
                g, divisors = rand_reduction_instance(rng, d, ranking)
                divisors += [rand_poly(rng, d, max_sum=2, nonconstant=True)
                             for _ in range(rng.randint(0, 2))]
                leaders = [f.leader(ranking) for f in divisors]
                pairs = _offending_pairs(g, divisors, ranking)
                expected = None
                for cand in pairs:
                    if expected is None or _outranks(cand, expected, leaders, ranking):
                        expected = cand
                assert a_leader(g, divisors, ranking) == expected
                assert is_reduced_wrt_set(g, divisors, ranking) == (not pairs)
                assert is_reduced_wrt_set(g, divisors, ranking) == (expected is None)
                # a divisor set answers exactly as the plain list
                as_set = DivisorSet(divisors, ranking)
                assert a_leader(g, as_set) == expected
                assert a_leader(g, as_set, ranking) == expected
                assert is_reduced_wrt_set(g, as_set) == (not pairs)
                # the yes/no answer and the ranked scan agree
                for divs in (divisors, as_set):
                    assert is_reduced_wrt_set(g, divs, ranking) == (
                        a_leader(g, divs, ranking) is None)
                for idx, f in enumerate(divisors):
                    assert is_reduced(g, f, ranking) == all(
                        c.member != idx for c in pairs)
                # its stored rank records give the public initials and separants
                for k, f in enumerate(divisors):
                    if f.is_constant():
                        continue
                    for theta in ((0,) * d.M, (1,) + (0,) * (d.M - 1)):
                        assert as_set.image(k, INITIAL, theta) == apply_composition(
                            f.initial(ranking), theta)
                        assert as_set.image(k, SEPARANT, theta) == apply_composition(
                            f.separant(ranking), theta)
                        # any other source is an error, not the separant
                        with pytest.raises(ValueError, match="^'initial ' is not an image "
                                                             "source$"):
                            as_set.image(k, "initial ", theta)

                variables = sorted(g.variables())
                for v in variables:
                    for w in variables:
                        kv, kw = ranking.key(v), ranking.key(w)
                        assert ranking.compare(v, w) == (kv > kw) - (kv < kw)

                top = [c for c in pairs
                       if ranking.compare(c.variable, expected.variable) == EQUAL]
                variable_ties += len({c.variable for c in top}) > 1
                leader_ties += len({c.member for c in top if ranking.compare(
                    leaders[c.member], leaders[expected.member]) == EQUAL}) > 1
    assert variable_ties > 0 and leader_ties > 0


def test_divisor_set_image_judges_the_source_before_its_memo(dual, worked):
    as_set = DivisorSet([worked])
    # an unhashable source is an unknown source, not a failed memo lookup
    for source in (["initial"], {"separant": 1}, "initial "):
        with pytest.raises(ValueError, match="is not an image source$"):
            as_set.image(0, source, (0, 0))
    assert as_set.image(0, INITIAL, (0, 0)) == worked.initial()


def test_divisor_set_image_judges_theta_before_its_memo(hs2):
    # (0, True, 0) and (0, 1.0, 0) hash and compare as (0, 1, 0), so a memo
    # read before the judge returned that image; a fresh set raised
    f = parse_poly("x1[0,1,0] + x1[0,0,0]^2", hs2)
    as_set = DivisorSet([f])
    image = as_set.image(0, None, (0, 1, 0))
    for theta in ((0, True, 0), (0, 1.0, 0)):
        for divisors in (as_set, DivisorSet([f])):
            with pytest.raises(IndexOutOfRange, match=r"has a non-int entry$"):
                divisors.image(0, None, theta)
    # a list is a multi-index, keyed as its tuple
    assert as_set.image(0, None, [0, 1, 0]) is image
    with pytest.raises(AlgebraMismatch, match=r"^multi-index has 2 slots, algebra has 3$"):
        as_set.image(0, None, (0, 1))


def test_divisor_set_image_judges_the_member_before_its_memo(dual, worked):
    as_set = DivisorSet([worked])
    image = as_set.image(0, None, (0, 0))
    # -1 is not the last member, True not member 1; an unhashable index is
    # judged, not looked up
    for member in (-1, True, 1, 0.0, "0", [0]):
        problem = "out of range 0..0" if type(member) is int else "is not an int"
        with pytest.raises(IndexOutOfRange, match=rf"^member index {re.escape(repr(member))} "
                                                  rf"{problem}$"):
            as_set.image(member, None, (0, 0))
    assert as_set.image(0, None, (0, 0)) is image
    # the source is judged first
    with pytest.raises(ValueError, match="is not an image source$"):
        as_set.image(5, "initial ", (0, 0))


def test_worked_reduction(dual, worked):
    g = parse_poly("x1[0,2]", dual)
    cert = reduce(g, [worked])
    assert cert.remainder == parse_poly("4 * x1[0,1]", dual)
    assert multiplier_product(cert, [worked]) == parse_poly("2 * x1[1,1]", dual)
    assert len(cert.cofactors) == 1
    assert cert.cofactors[0].c == DPolynomial.constant(dual, 1)
    assert cert.cofactors[0].theta == (0, 1)
    assert verify_certificate(g, [worked], cert)
    assert [s.case for s in cert.steps] == ["delta"]


def test_reduce_already_reduced(dual, worked):
    g = parse_poly("x1[0,0]", dual)
    cert = reduce(g, [worked])
    assert cert.remainder == g
    assert cert.h_factors == () and cert.cofactors == () and cert.steps == ()
    assert verify_certificate(g, [worked], cert)


def test_reduce_to_zero(dual):
    g = parse_poly("x1[0,1] * x1[0,0]", dual)
    cert = reduce(g, [parse_poly("x1[0,0]", dual)])
    assert cert.remainder.is_zero()
    assert verify_certificate(g, [parse_poly("x1[0,0]", dual)], cert)
    assert [s.case for s in cert.steps][0] == "delta"


def test_reduce_with_empty_divisor_set(dual):
    g = parse_poly("x1[0,2]^3 + x1[1,0]", dual)
    cert = reduce(g, [])
    assert cert.remainder == g and cert.h_factors == ()
    assert verify_certificate(g, [], cert)


def test_duplicate_leaders_rejected(dual):
    a = parse_poly("x1[0,1] + x1[0,0]", dual)
    b = parse_poly("2 * x1[0,1]", dual)
    with pytest.raises(DuplicateLeaders):
        reduce(parse_poly("x1[0,2]", dual), [a, b])


def _raised(call):
    """(exception type, message) that call raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_divisor_set_raises_as_a_list_does(dual, worked):
    one = DPolynomial.constant(dual, 1)
    ranking = SequentialRanking(dual)
    twin = parse_poly("2 * x1[0,1]", dual)            # shares worked's leader
    calls = {
        "reduce": lambda g, s: reduce(g, s, ranking),
        "is_reduced_wrt_set": lambda g, s: is_reduced_wrt_set(g, s, ranking),
        "a_leader": lambda g, s: a_leader(g, s, ranking),
    }
    reducends = [parse_poly("x1[0,2]", dual), parse_poly("x1[0,0]", dual), one]
    raised = set()
    for divisors in ([one], [worked, one], [one, worked], [worked, twin],
                     [twin, worked, worked], [worked]):
        as_set = DivisorSet(divisors, ranking)
        for name, call in calls.items():
            for g in reducends:
                outcome = _raised(lambda: call(g, divisors))
                assert _raised(lambda: call(g, as_set)) == outcome, (name, divisors)
                if outcome is not None:
                    raised.add((name, outcome[0]))
    assert raised == {("reduce", ConstantDivisor), ("reduce", DuplicateLeaders),
                      ("is_reduced_wrt_set", ConstantDivisor),
                      ("a_leader", ConstantPolynomial)}


def test_divisor_set_is_used_only_under_its_own_ranking(dual, worked):
    g = parse_poly("x1[0,2]^2 + x1[1,1]", dual)
    ranking = SequentialRanking(dual)
    as_set = DivisorSet([worked], ranking)
    cert = reduce(g, as_set, ranking)
    assert reduce(g, as_set) == cert
    other = SequentialRanking(dual)
    for call in (lambda: reduce(g, as_set, other),
                 lambda: a_leader(g, as_set, other),
                 lambda: is_reduced_wrt_set(g, as_set, other),
                 lambda: multiplier_product(cert, as_set, other),
                 lambda: verify_certificate(g, as_set, cert, other)):
        with pytest.raises(ValueError, match="its own ranking"):
            call()
    # without a ranking, a set uses its own, and a list the sequential one;
    # the custom key ranks x1 above x2, so the two orders of steps differ
    custom = CustomRanking(dual, lambda v: (sum(v.theta), -v.var,
                                            tuple(reversed(v.theta))))
    divisors = [worked, parse_poly("x2[0,1] - x2[0,0]", dual)]
    h = parse_poly("x1[0,2] + x2[0,2]", dual)
    by_custom = certificate_to_json(reduce(h, DivisorSet(divisors, custom)))
    assert by_custom == certificate_to_json(reduce(h, divisors, custom))
    assert by_custom != certificate_to_json(reduce(h, divisors))
    assert isinstance(DivisorSet([worked]).ranking, SequentialRanking)
    with pytest.raises(ValueError):
        DivisorSet([])


def test_certificate_perturbations_fail(dual, worked):
    g = parse_poly("x1[0,2]", dual)
    cert = reduce(g, [worked])
    plus_one = ReductionCertificate(
        cert.h_factors, cert.remainder + 1, cert.cofactors, cert.steps)
    assert not verify_certificate(g, [worked], plus_one)
    dropped = ReductionCertificate(cert.h_factors, cert.remainder, (), cert.steps)
    assert not verify_certificate(g, [worked], dropped)
    # a remainder that fails reducedness is rejected even if the identity holds
    bogus = ReductionCertificate(
        (), g, (Cofactor(DPolynomial.zero(dual), (0, 0), 0),), ())
    assert not verify_certificate(g, [worked], bogus)


def _identity_holds(g, divisors, cert, ranking):
    """H * g == g0 + sum c_k theta_k(a_k), building every image afresh."""
    h = DPolynomial.constant(g.algebra, 1)
    for factor in cert.h_factors:
        member = divisors[factor.member]
        base = (member.initial(ranking) if factor.source == INITIAL
                else member.separant(ranking))
        h = h * apply_composition(base, factor.theta)
    rhs = cert.remainder
    for cof in cert.cofactors:
        rhs = rhs + cof.c * apply_composition(divisors[cof.member], cof.theta)
    return h * g == rhs


def test_forged_certificates_with_repeated_images_fail(all_builtins):
    # verify_certificate reuses the image of a repeated (member, theta); a
    # forgery that reuses a key with another source, member or theta must
    # still be judged as by the unmemoised identity
    rng = random.Random(45)
    rejected = 0
    other = {INITIAL: SEPARANT, SEPARANT: INITIAL}
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(60):
            g, divisors = rand_reduction_instance(rng, d, ranking)
            cert = reduce(g, divisors, ranking)
            if len(cert.h_factors) < 2:
                continue
            assert verify_certificate(g, divisors, cert, ranking)
            first, last = cert.h_factors[0], cert.h_factors[-1]
            c_first, c_last = cert.cofactors[0], cert.cofactors[-1]
            flipped = HFactor(last.theta, other[last.source], last.member)
            moved = Cofactor(c_last.c, c_first.theta, c_first.member)
            h_forgeries = [cert.h_factors[:-1] + (flipped,),
                           cert.h_factors[:-1] + (first,),
                           cert.h_factors + (first,)]
            c_forgeries = [cert.cofactors[:-1] + (moved,),
                           cert.cofactors + (c_first,)]
            forgeries = (
                [ReductionCertificate(h, cert.remainder, cert.cofactors, cert.steps)
                 for h in h_forgeries]
                + [ReductionCertificate(cert.h_factors, cert.remainder, c, cert.steps)
                   for c in c_forgeries])
            # again with one set whose memos reduce has already filled
            filled = DivisorSet(divisors, ranking)
            assert certificate_to_json(reduce(g, filled)) == certificate_to_json(cert)
            assert verify_certificate(g, filled, cert)
            for forged in forgeries:
                expected = _identity_holds(g, divisors, forged, ranking)
                assert verify_certificate(g, divisors, forged, ranking) == expected
                assert verify_certificate(g, filled, forged) == expected
                rejected += not expected
    assert rejected > 400


def test_random_certified_reductions(all_builtins):
    rng = random.Random(41)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(40):
            divisors = rand_divisors(rng, d, ranking)
            g = rand_poly(rng, d)
            cert = reduce(g, divisors, ranking)
            assert verify_certificate(g, divisors, cert, ranking)
            assert is_reduced_wrt_set(cert.remainder, divisors, ranking)
            assert rank_compare(cert.remainder, g, ranking) != GREATER
            for factor in cert.h_factors:
                assert is_sigma_only(d, factor.theta)
            _check_measure_decreases(ranking, cert)


def _eager_reduce(g, divisors, ranking):
    """The reduction loop that rescales every earlier cofactor at each step."""
    d = g.algebra
    current, h_factors, cofactors, steps = g, [], [], []
    while (led := a_leader(current, divisors, ranking)) is not None:
        member = divisors[led.member]
        if led.is_delta:
            m_theta, source = rho(d, led.theta), SEPARANT
            base, drop = member.separant(ranking), led.degree - 1
        else:
            m_theta, source = led.theta, INITIAL
            base, drop = member.initial(ranking), led.degree - member.degree(ranking)
        multiplier = apply_composition(base, m_theta)
        v_poly = DPolynomial.from_variable(d, led.variable)
        cof = current.coefficient_in(led.variable, led.degree) * v_poly ** drop
        current = multiplier * current - cof * apply_composition(member, led.theta)
        cofactors = [Cofactor(c.c * multiplier, c.theta, c.member) for c in cofactors]
        cofactors.append(Cofactor(cof, led.theta, led.member))
        h_factors.append(HFactor(m_theta, source, led.member))
        steps.append(Step(led.variable, "delta" if led.is_delta else "sigma",
                          led.degree))
    return ReductionCertificate(
        tuple(h_factors), current, tuple(cofactors), tuple(steps))


def _split_reference(g, v, d, e):
    """g's terms of v-degree d with v's exponent lowered by e, and the rest."""
    lowered, rest = {}, {}
    for m, c in g.terms.items():
        k, free = m.without(v)
        if k == d:
            lowered[free.mul(Monomial([(v, d - e)]))] = c
        else:
            rest[m] = c
    return DPolynomial(g.algebra, lowered), DPolynomial(g.algebra, rest)


def _elimination_key(v):
    """Every transform of x2 above every transform of x1; sequential within one."""
    return (v.var, sum(v.theta), tuple(reversed(v.theta)))


def test_lazy_cofactor_fold_matches_eager_reference(all_builtins):
    # reduce subtracts the divisor image's tail from the running polynomial
    # split at the eliminated power; the reference runs the textbook step
    rng = random.Random(44)
    five = _five_element_algebra(Fraction(1, 2))
    cases = [(SequentialRanking(d), False, 100) for d in all_builtins.values()]
    # a one-block algebra that is none of the builtins, and an elimination
    # ranking, checked on each instance's variables; 40 draws each, since
    # the 43rd draw over five swells to an 80-step reduction of over a minute
    cases += [(SequentialRanking(five), False, 40)]
    cases += [(CustomRanking(d, _elimination_key), True, 40)
              for d in [*all_builtins.values(), five]]
    for ranking, check, count in cases:
        long_runs = 0
        for _ in range(count):
            g, divisors = rand_reduction_instance(rng, ranking.algebra, ranking)
            if check:
                check_ranking_axioms(
                    ranking, {v for f in [g, *divisors] for v in f.variables()})
            cert = reduce(g, divisors, ranking)
            assert certificate_to_json(cert) == \
                certificate_to_json(_eager_reduce(g, divisors, ranking))
            long_runs += len(cert.steps) >= 4
            # reduce splits at a variable's top degree; the split itself
            # holds at every degree and lowering
            for v in g.variables():
                for d in range(1, g.degree_in(v) + 1):
                    for e in {1, d}:
                        assert g._split_at(v, d, e) == _split_reference(g, v, d, e)
        assert long_runs > 0, ranking


def _check_measure_decreases(ranking, cert):
    prev = None
    for step in cert.steps:
        if prev is not None:
            cmp = ranking.compare(step.leader, prev.leader)
            assert cmp == -1 or (cmp == 0 and step.degree < prev.degree)
        prev = step


def test_certificate_json_round_trip(dual, worked):
    g = parse_poly("x1[0,2]^2 + x1[0,0]", dual)
    cert = reduce(g, [worked])
    text = certificate_to_json(cert)
    again = certificate_from_json(text, dual)
    assert again == cert
    assert verify_certificate(g, [worked], again)
    assert certificate_to_json(again) == text


def test_certificate_with_a_malformed_step_is_a_parse_error(dual, worked):
    # verify_certificate does not judge the step trace, so reading one
    # checks that each step is a delta or sigma step of degree >= 1; this
    # forged trace used to parse and verify
    g = parse_poly("x1[0,2] + x1[0,0]", dual)
    text = certificate_to_json(reduce(g, [worked]))
    assert verify_certificate(g, [worked], certificate_from_json(text, dual))
    forged = json.loads(text)
    forged["steps"] = [{"leader": "x7[9,9]", "case": "bogus", "degree": -5}]
    with pytest.raises(ExprParseError, match="^malformed certificate: "):
        certificate_from_json(json.dumps(forged), dual)
    step = {"leader": "x1[0,2]", "case": "delta", "degree": 1}
    for bad in ({"case": "bogus"}, {"case": "Delta"}, {"degree": 0},
                {"degree": -5}):
        forged["steps"] = [dict(step, **bad)]
        with pytest.raises(ExprParseError, match="^malformed certificate: "):
            certificate_from_json(json.dumps(forged), dual)
    forged["steps"] = [step, dict(step, case="sigma", degree=2)]
    assert len(certificate_from_json(json.dumps(forged), dual).steps) == 2


def test_deeply_nested_certificate_is_a_parse_error(dual):
    with pytest.raises(ExprParseError):
        certificate_from_json("[" * 5000, dual)
    deep = "(" * 3000 + "x1[0,0]" + ")" * 3000
    with pytest.raises(ExprParseError):
        certificate_from_json(json.dumps({"remainder": deep}), dual)


def test_malformed_certificate_documents_are_parse_errors(dual):
    with pytest.raises(ExprParseError, match="malformed certificate"):
        certificate_from_json("[]", dual)


def test_certificate_leader_that_is_not_a_string_is_a_parse_error(dual):
    doc = {"remainder": "0",
           "steps": [{"leader": 5, "case": "sigma", "degree": 1}]}
    with pytest.raises(ExprParseError, match="malformed certificate"):
        certificate_from_json(json.dumps(doc), dual)


def test_negative_multi_index_entries_are_rejected(hs2):
    # a negative count used to be skipped, so (0,1,-1) passed as sigma-only
    # and applied delta_1 once
    x = parse_poly("x1[0,0,0]", hs2)
    for call in (lambda: is_sigma_only(hs2, (0, 1, -1)),
                 lambda: apply_composition(x, (0, 1, -1)),
                 lambda: apply_composition(x, (-1, 0, 0)),
                 lambda: rho(hs2, (0, 1, -1))):
        with pytest.raises(IndexOutOfRange, match="negative entry"):
            call()
    for call in (lambda: ord_delta(hs2, (0, 1, -1)), lambda: ord_i(hs2, (-1, 0, 1), 1)):
        with pytest.raises(IndexOutOfRange,
                           match=r"^multi-index \[.*\] has a negative entry$"):
            call()
    # a wrong length is one error with one message, as for a variable
    for call in (lambda: is_sigma_only(hs2, (0, 1)), lambda: ord_delta(hs2, (0, 1)),
                 lambda: ord_i(hs2, (0, 1), 1), lambda: apply_composition(x, (0, 1)),
                 lambda: rho(hs2, (0, 1))):
        with pytest.raises(AlgebraMismatch,
                           match="^multi-index has 2 slots, algebra has 3$"):
            call()
    # an entry that is not an int used to be read as a count: rho returned
    # (1.5, 0, 0), range() raised a bare TypeError and True was one sigma step
    for theta in ((0.5, 1, 0), (0.5, 0, 0), (True, 0, 0), (0, 1, 2.0), [0, False, 0]):
        for call in (lambda: apply_composition(x, theta), lambda: rho(hs2, theta),
                     lambda: is_sigma_only(hs2, theta), lambda: ord_delta(hs2, theta),
                     lambda: ord_i(hs2, theta, 1)):
            with pytest.raises(IndexOutOfRange, match=r"^multi-index \[.*\] has a non-int entry"):
                call()
    # is_sigma_only read (0.5, 0, 0) as sigma-only, ord_delta counted True as
    # a delta step and ord_i returned 1.5; operators and orders now share one
    # judge of the entries, with one text
    for theta in ((0.5, 0, 0), (1, True, 0), (0, 0.5, 1)):
        texts = set()
        for call in (lambda: apply_composition(x, theta), lambda: is_sigma_only(hs2, theta),
                     lambda: ord_delta(hs2, theta), lambda: ord_i(hs2, theta, 1)):
            with pytest.raises(IndexOutOfRange) as caught:
                call()
            texts.add(str(caught.value))
        assert len(texts) == 1
    # lists stay accepted
    assert apply_composition(x, [1, 1, 0]) == apply_composition(x, (1, 1, 0))
    assert rho(hs2, [0, 1, 2]) == rho(hs2, (0, 1, 2)) == (3, 0, 0)


def test_negative_theta_certificate_is_not_a_proof(hs2):
    # H = delta_1(1) = 0 made 0 * g = 0 hold for any g
    g = parse_poly("x1[5,0,0]^3 + 7", hs2)
    divisors = [parse_poly("x1[0,0,0]", hs2)]
    forged = ReductionCertificate((HFactor((0, 1, -1), INITIAL, 0),),
                                  DPolynomial.zero(hs2), (), ())
    assert not verify_certificate(g, divisors, forged)
    assert not verify_certificate(g, DivisorSet(divisors), forged)
    assert not verify_certificate(
        g, divisors, certificate_from_json(certificate_to_json(forged), hs2))
    negative_cofactor = ReductionCertificate(
        (), DPolynomial.zero(hs2), (Cofactor(g, (0, 0, -1), 0),), ())
    assert not verify_certificate(g, divisors, negative_cofactor)


def test_divisor_set_memoises_every_image_under_one_key(all_builtins):
    # one memo, keyed (member, source, theta), with source None for the
    # member itself: the same member and theta under another source is
    # another image
    rng = random.Random(61)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        divisors = rand_divisors(rng, d, ranking, count=2)
        as_set = DivisorSet(divisors, ranking)
        theta = tuple(rng.randint(0, 1) for _ in range(d.M))
        for member, f in enumerate(divisors):
            fresh = {None: f, INITIAL: f.initial(ranking),
                     SEPARANT: f.separant(ranking)}
            for source, base in fresh.items():
                image = as_set.image(member, source, theta)
                assert image == apply_composition(base, theta)
                assert as_set.image(member, source, theta) is image


def test_certificate_numbers_must_be_json_integers(dual):
    # these used to pass through int(): theta (1, 1), member 0, degree 1
    good = {"remainder": "0",
            "h_factors": [{"theta": [0, 0], "source": "initial", "member": 0}],
            "cofactors": [{"c": "1", "theta": [0, 0], "member": 0}],
            "steps": [{"leader": "x1[0,0]", "case": "sigma", "degree": 1}]}
    bad = [("h_factors", "theta", [1.9, True]), ("h_factors", "member", 0.5),
           ("h_factors", "theta", [True, 0]), ("cofactors", "theta", [0, 0.0]),
           ("cofactors", "member", "0"), ("steps", "degree", 1.9)]
    for section, field, value in bad:
        doc = json.loads(json.dumps(good))
        doc[section][0][field] = value
        with pytest.raises(ExprParseError, match="^malformed certificate: "):
            certificate_from_json(json.dumps(doc), dual)
    # negative integers still parse; verification rejects them
    doc = json.loads(json.dumps(good))
    doc["h_factors"][0].update(theta=[0, -1], member=-2)
    cert = certificate_from_json(json.dumps(doc), dual)
    assert cert.h_factors == (HFactor((0, -1), INITIAL, -2),)


def _structural_forgeries(dual, worked):
    """(name, g, divisors, certificate): each fails exactly one structural check."""
    f = parse_poly("x1[0,1] - 1", dual)
    g = parse_poly("x1[0,0]^3 + 7", dual)
    zero = DPolynomial.zero(dual)
    # H = delta(1) = 0, so 0 * g = 0 holds for any g
    yield ("delta H factor", g, [f],
           ReductionCertificate((HFactor((0, 1), INITIAL, 0),), zero, (), ()))
    # a source that is neither initial nor separant made H = f
    yield ("member source", g, [f],
           ReductionCertificate((HFactor((0, 0), "member", 0),), zero,
                                (Cofactor(g, (0, 0), 0),), ()))
    # H = x1[0,1] and g0 = H * g: reduced, but ranked above g
    above = parse_poly("x2[0,1] * x1[0,1] - 1", dual)
    low = parse_poly("x1[0,0]", dual)
    yield ("remainder above g", low, [above],
           ReductionCertificate((HFactor((0, 0), INITIAL, 0),),
                                parse_poly("x1[0,0] * x1[0,1]", dual), (), ()))
    # -1 would name the last member, and len(divisors) would index past it
    worked_g = parse_poly("x1[0,2]", dual)
    cert = reduce(worked_g, [worked])
    for member in (-1, 1):
        h_factors = tuple(HFactor(h.theta, h.source, member) for h in cert.h_factors)
        yield (f"H-factor member {member}", worked_g, [worked],
               ReductionCertificate(h_factors, cert.remainder, cert.cofactors, ()))
        cofactors = tuple(Cofactor(c.c, c.theta, member) for c in cert.cofactors)
        yield (f"cofactor member {member}", worked_g, [worked],
               ReductionCertificate(cert.h_factors, cert.remainder, cofactors, ()))


FORGERIES = ("delta H factor", "member source", "remainder above g",
             "H-factor member -1", "cofactor member -1",
             "H-factor member 1", "cofactor member 1")


@pytest.mark.parametrize("name", FORGERIES)
def test_each_structural_check_rejects_its_forgery(dual, worked, name):
    # each forgery satisfies the identity, or breaks it only through an
    # index, so only its own structural check stands between it and True
    forgeries = {case[0]: case[1:] for case in _structural_forgeries(dual, worked)}
    assert sorted(forgeries) == sorted(FORGERIES)
    g, divisors, cert = forgeries[name]
    assert verify_certificate(g, divisors, cert) is False
    assert verify_certificate(g, DivisorSet(divisors), cert) is False


def test_multiplier_product_judges_every_h_factor(dual, worked):
    # these used to multiply out: to 0, to f itself or to the last member's
    # image, or to raise IndexError or TypeError
    forgeries = {case[0]: case[2:] for case in _structural_forgeries(dual, worked)}
    cases = [forgeries[name] for name in ("delta H factor", "member source",
                                          "H-factor member -1", "H-factor member 1")]
    cert = reduce(parse_poly("x1[0,2]", dual), [worked])
    (h,) = cert.h_factors
    for theta in (list(h.theta), (True, 0)):
        cases.append(([worked], ReductionCertificate(
            (HFactor(theta, h.source, h.member),), cert.remainder, cert.cofactors, ())))
    # so is the certificate, which used to raise AttributeError when it was
    # not a ReductionCertificate with a polynomial remainder
    fields = (cert.h_factors, cert.remainder, cert.cofactors, cert.steps)
    cases += [([worked], bad) for bad in (
        None, 4, fields, ReductionCertificate(h, *fields[1:]),
        ReductionCertificate(fields[0], str(cert.remainder), *fields[2:]))]
    for divisors, forged in cases:
        for each in (divisors, DivisorSet(divisors)):
            with pytest.raises(BadWitness):
                multiplier_product(forged, each)
    # a constant divisor has no initial or separant to multiply by
    one, zero = DPolynomial.constant(dual, 1), (0,) * dual.M
    for source in (INITIAL, SEPARANT):
        forged = ReductionCertificate(
            (HFactor(zero, source, 0),), DPolynomial.zero(dual), (), ())
        for each in ([one], DivisorSet([one])):
            with pytest.raises(ConstantPolynomial, match="^constants have no leader$"):
                multiplier_product(forged, each)
        assert verify_certificate(one, [one], forged) is False
    # the genuine factor: sigma of the separant 2 * x1[0,1]
    assert multiplier_product(cert, [worked]) == parse_poly("2 * x1[1,1]", dual)


def test_malformed_certificates_verify_false(dual, worked):
    # a list multi-index and a float cofactor used to raise TypeError, and a
    # bool member or multi-index entry was read as the int it equals
    g = parse_poly("x1[0,2]", dual)
    cert = reduce(g, [worked])
    (h,), (c,) = cert.h_factors, cert.cofactors
    assert verify_certificate(g, [worked], cert)

    def forged(h_factors=cert.h_factors, remainder=cert.remainder,
               cofactors=cert.cofactors):
        return ReductionCertificate(h_factors, remainder, cofactors, cert.steps)

    for bad in (forged(h_factors=(HFactor(list(h.theta), h.source, h.member),)),
                forged(h_factors=(HFactor((True, 0), h.source, h.member),)),
                forged(h_factors=(HFactor(h.theta, h.source, False),)),
                forged(cofactors=(Cofactor(c.c, list(c.theta), c.member),)),
                forged(cofactors=(Cofactor(c.c, c.theta, False),)),
                forged(cofactors=(Cofactor(1.0, c.theta, c.member),)),
                forged(remainder=4.0)):
        assert verify_certificate(g, [worked], bad) is False
        assert verify_certificate(g, DivisorSet([worked]), bad) is False


def test_divisor_sets_never_mix_algebras(dual, fields2):
    # dual and fields:2 both have two slots, so nothing else notices the mix
    x = parse_poly("x1[0,1]", dual)
    y = parse_poly("x2[1,0]", fields2)
    ranking = SequentialRanking(dual)
    for call in (lambda: DivisorSet([x, y]),
                 lambda: DivisorSet([], ranking).add(y),
                 lambda: is_reduced_wrt_set(x, [y]),
                 lambda: is_reduced_wrt_set(y, [x], ranking),
                 lambda: is_reduced(y, x),
                 lambda: a_leader(x, [y]),
                 lambda: a_leader(y, DivisorSet([x])),
                 lambda: reduce(y, [x]),
                 lambda: multiplier_product(reduce(y, []), [x])):
        with pytest.raises(AlgebraMismatch, match="^a divisor set over one algebra"):
            call()
    # an equal algebra built separately is the same algebra
    twin = parse_poly("x1[0,2]", validate_algebra(builtin("truncated_hs", 1)))
    assert twin.algebra is not dual
    assert reduce(twin, [parse_poly("x1[0,1]", dual)]).remainder.is_zero()


def test_a_non_polynomial_is_judged_like_another_algebra(dual):
    # these used to raise AttributeError, verify_certificate included
    f = parse_poly("x1[0,1] - 1", dual)
    cert = reduce(f, [f])
    for g, divisors in ((4, [f]), (f, [4]), (None, [f]), (f, [f, "x1[0,0]"])):
        assert verify_certificate(g, divisors, cert) is False
    # a divisors argument that is not iterable used to raise TypeError
    assert verify_certificate(f, 7, cert) is False
    for call in (lambda: DivisorSet(7),
                 lambda: reduce(f, 7),
                 lambda: a_leader(f, 7),
                 lambda: is_reduced_wrt_set(f, 7),
                 lambda: multiplier_product(cert, 7)):
        with pytest.raises(AlgebraMismatch,
                           match="^7 is not a sequence of polynomials$"):
            call()
    ranking = SequentialRanking(dual)
    for call in (lambda: DivisorSet([4]),
                 lambda: DivisorSet([], ranking).add(4),
                 lambda: reduce(4, [f]),
                 lambda: reduce(f, [4]),
                 lambda: a_leader(f, [4]),
                 lambda: is_reduced_wrt_set(4, DivisorSet([f]))):
        with pytest.raises(AlgebraMismatch, match="^4 is not a polynomial$"):
            call()


# ---------------------------------------------------------------------------
# the set kept for the last plain list or tuple


def _count_builds(monkeypatch):
    """A list that grows by one each time a DivisorSet is built; the kept set
    starts empty, so the first call on any list is cold."""
    builds = []
    real = DivisorSet.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(DivisorSet, "__init__", counting)
    monkeypatch.setattr(dstar.reduction, "_last_wrapped", None)
    return builds


def _outcome(call, cold=False):
    """call's result, or its exception's type and text; cold empties the kept set first."""
    if cold:
        dstar.reduction._last_wrapped = None
    try:
        return call()
    except DStarError as exc:
        return type(exc), str(exc)


def test_verify_after_reduce_on_one_list_makes_no_block_image(all_builtins, monkeypatch):
    # reduce made every image the check needs, and the check finds the same
    # member objects under the same ranking key, in any list or tuple
    _count_builds(monkeypatch)
    images = []
    real = dstar.operators.block_image
    monkeypatch.setattr(dstar.operators, "block_image",
                        lambda *args: images.append(args) or real(*args))
    rng = random.Random(450)
    made = 0
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(8):
            g, divisors = rand_reduction_instance(rng, d, ranking)
            for rk in (None, ranking):
                cert = reduce(g, divisors, rk)
                made += len(images)
                images.clear()
                for same in (divisors, list(divisors), tuple(divisors)):
                    assert verify_certificate(g, same, cert, rk)
                    multiplier_product(cert, same, rk)
                    assert is_reduced_wrt_set(cert.remainder, same, rk)
                    assert a_leader(cert.remainder, same, rk) is None
                assert not images, (d, g, divisors)
    assert made     # the reductions themselves made images


def _count_multi_index_judges(monkeypatch):
    """{judge: calls} of the two multi-index judges, counted through every
    dstar module's binding of each; check_multi_index's own call of
    multi_index_fault counts too."""
    calls = {"multi_index_fault": 0, "check_multi_index": 0}
    modules = [m for name, m in sys.modules.items()
               if name == "dstar" or name.startswith("dstar.")]
    for judge in calls:
        real = getattr(dstar.ordering, judge)

        def counted(*args, _judge=judge, _real=real):
            calls[_judge] += 1
            return _real(*args)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, counted)
    return calls


def test_reduce_and_its_check_judge_each_multi_index_once(all_builtins, monkeypatch):
    # reduce reads the transforms, rho and the images it made unjudged, and
    # the check judges each H factor's and cofactor's theta once, at its door,
    # whether the images it reads are kept from the reduction or made afresh
    calls = _count_multi_index_judges(monkeypatch)
    rng = random.Random(470)
    steps, cases = [], set()
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(8):
            g, divisors = rand_reduction_instance(rng, d, ranking)
            for rk in (None, ranking):
                for cold in (False, True):
                    calls.update(multi_index_fault=0, check_multi_index=0)
                    cert = reduce(g, list(divisors), rk)
                    assert calls == {"multi_index_fault": 0, "check_multi_index": 0}
                    if cold:
                        monkeypatch.setattr(dstar.reduction, "_last_wrapped", None)
                    assert verify_certificate(g, list(divisors), cert, rk)
                    judged = len(cert.h_factors) + len(cert.cofactors)
                    assert calls == {"multi_index_fault": judged, "check_multi_index": 0}
            steps.append(len(cert.steps))
            cases.update(step.case for step in cert.steps)
    # short and long reductions, with delta steps (rho) and sigma steps
    assert min(steps) == 0 and max(steps) >= 3 and cases == {"delta", "sigma"}, steps


@pytest.mark.parametrize("name", [
    "test_malformed_terms_fail_the_witness_and_the_certificate_alike",
    "test_malformed_shapes_fail_the_witness_and_the_certificate_alike"])
def test_charset_forgeries_fail_with_the_kept_set_hot(name, request, monkeypatch):
    # each plain-list check in the charset forgery tests runs right after a
    # reduction on the same list, and reuses its set
    import test_charset
    real = verify_certificate
    checked = []

    def hot(g, divisors, cert, ranking=None):
        if type(divisors) is list:
            _outcome(lambda: reduce(g, divisors, ranking))
            kept = dstar.reduction._last_wrapped
            verdict = real(g, divisors, cert, ranking)
            assert dstar.reduction._last_wrapped is kept
            checked.append(verdict)
            return verdict
        return real(g, divisors, cert, ranking)

    monkeypatch.setattr(test_charset, "verify_certificate", hot)
    test = getattr(test_charset, name)
    test(*(request.getfixturevalue(arg) for arg in inspect.signature(test).parameters))
    assert False in checked


def test_a_changed_list_or_ranking_gets_a_fresh_set(all_builtins, monkeypatch):
    builds = _count_builds(monkeypatch)
    rng = random.Random(451)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(4):
            g, divisors = rand_reduction_instance(rng, d, ranking)
            other = rand_poly(rng, d, nonconstant=True)
            twin = DPolynomial(d, divisors[0].terms)
            assert twin == divisors[0] and twin is not divisors[0]

            def mutated(ds):
                ds[0] = other
                return ds

            # (name, the second call's divisors from a copy of the first's, ranking)
            cases = (("an equal member", lambda ds: [twin, *ds[1:]], ranking),
                     ("another member", lambda ds: [other, *ds[1:]], ranking),
                     ("mutated in place", mutated, ranking),
                     ("grown in place", lambda ds: ds.append(other) or ds, ranking),
                     ("another ranking", lambda ds: ds, SequentialRanking(d)),
                     ("no ranking", lambda ds: ds, None))
            for name, change, rk in cases:
                first = list(divisors)
                cert = reduce(g, first, ranking)
                second = change(first)
                del builds[:]
                calls = (lambda: certificate_to_json(reduce(g, second, rk)),
                         lambda: verify_certificate(g, second, cert, rk),
                         lambda: a_leader(g, second, rk))
                hot = [_outcome(call) for call in calls]
                assert len(builds) == 1, name     # fresh, then kept
                assert hot == [_outcome(call, cold=True) for call in calls], name
            # an iterator is never kept: each call wraps it afresh
            reduce(g, divisors, ranking)
            kept = dstar.reduction._last_wrapped
            del builds[:]
            hot = [certificate_to_json(reduce(g, iter(divisors), ranking)),
                   verify_certificate(g, iter(divisors), cert, ranking)]
            assert len(builds) == 2 and dstar.reduction._last_wrapped is kept
            assert hot == [certificate_to_json(reduce(g, divisors, ranking)),
                           verify_certificate(g, divisors, cert, ranking)]


def test_bad_divisors_raise_alike_hot_and_cold(dual, fields2, worked, monkeypatch):
    builds = _count_builds(monkeypatch)
    g = parse_poly("x1[0,2]^2 + x1[1,1]", dual)
    cert = reduce(g, [worked])
    foreign = parse_poly("x1[0,2]", fields2)
    ranking = SequentialRanking(dual)
    # (reducend, divisors, ranking, whether the hot calls find the kept set)
    cases = ((g, [worked, DPolynomial.constant(dual, 1)], None, True),
             (g, [worked, parse_poly("x1[0,1] + 3", dual)], ranking, True),
             (foreign, [worked], ranking, True),
             # keyed by g's algebra, so never the set kept over dual
             (foreign, [worked], None, False))
    for h, divisors, rk, kept in cases:
        calls = (lambda: reduce(h, divisors, rk),
                 lambda: a_leader(h, divisors, rk),
                 lambda: is_reduced_wrt_set(h, divisors, rk),
                 lambda: verify_certificate(h, divisors, cert, rk))
        cold = [_outcome(call, cold=True) for call in calls]
        assert type(cold[0]) is tuple and cold[3] is False     # reduce raises, the check fails
        _outcome(lambda: reduce(g, divisors, rk))      # the same list, over dual
        del builds[:]
        assert [_outcome(call) for call in calls] == cold
        assert not builds if kept else len(builds) == len(calls)


def test_threads_sharing_the_kept_set_get_the_serial_certificates(hs2, dd11):
    # two lists, each worked by two threads, fight over one kept set; a lost
    # race costs a rebuild only
    rng = random.Random(452)
    work = []
    for d in (hs2, dd11):
        ranking = SequentialRanking(d)
        g, divisors = rand_reduction_instance(rng, d, ranking)
        work.append((divisors, [g] + [rand_reduction_instance(rng, d, ranking)[0]
                                      for _ in range(3)]))

    def run(divisors, gs, rounds):
        out = []
        for _ in range(rounds):
            for g in gs:
                cert = reduce(g, divisors)
                out.append((certificate_to_json(cert),
                            verify_certificate(g, divisors, cert)))
        return out

    serial = [run(divisors, gs, 1) * 20 for divisors, gs in work]
    assert all(ok for out in serial for _, ok in out)
    results, errors = [None] * 4, []
    start = threading.Barrier(len(results), timeout=60)

    def thread(k):
        try:
            start.wait()
            results[k] = run(*work[k % 2], 20)
        except Exception as exc:    # reported below, not lost with the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=thread, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert results == [serial[k % 2] for k in range(len(results))]
