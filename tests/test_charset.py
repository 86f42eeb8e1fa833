import itertools
import json
import random
import signal
from fractions import Fraction

import pytest

import dstar.charset
from dstar.charset import (
    A_LESS_B,
    B_LESS_A,
    EQUIVALENT,
    AutoreducedSet,
    CharSetResult,
    ClosureWitness,
    RoundTrace,
    charset_complete,
    closure_step_witness,
    compare_autoreduced,
    d_ideal_generators,
    presentation,
    validate_autoreduced,
    witness_from_json,
    witness_to_json,
    _indices_up_to,
)
from dstar.algebra import DAlgebra, builtin, validate_algebra
from dstar.errors import (
    AlgebraMismatch,
    BadWitness,
    DStarError,
    ExprParseError,
    InconsistentSystem,
    NotAutoreduced,
)
from dstar.operators import apply_composition
from dstar.ordering import CustomRanking, SequentialRanking, check_ranking_axioms
from dstar.parser import parse_poly
from dstar.poly import DPolynomial, format_poly, monic, poly_sort_key, rank_compare
from dstar.reduction import (
    INITIAL,
    Cofactor,
    DivisorSet,
    HFactor,
    ReductionCertificate,
    certificate_to_json,
    is_reduced,
    is_reduced_wrt_set,
    multiplier_product,
    reduce,
    verify_certificate,
)

from gen import rand_divisors, rand_poly


def test_validate_autoreduced(dual):
    x1 = parse_poly("x1[0,0]", dual)
    x2 = parse_poly("x2[0,0]", dual)
    ok = validate_autoreduced([x2, x1])
    assert [format_poly(f) for f in ok] == ["x1[0,0]", "x2[0,0]"]
    with pytest.raises(NotAutoreduced):
        validate_autoreduced([x1, parse_poly("x1[0,1]", dual)])
    with pytest.raises(NotAutoreduced):
        validate_autoreduced([
            parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual),
            parse_poly("x1[1,0] * x1[0,2]", dual)])
    with pytest.raises(NotAutoreduced):
        validate_autoreduced([DPolynomial.constant(dual, 2)])


def test_compare_autoreduced_examples(dual):
    x = parse_poly("x1[0,0]", dual)
    dx = parse_poly("x1[0,1]", dual)
    x2 = parse_poly("x2[0,0]", dual)
    a = validate_autoreduced([x])
    b = validate_autoreduced([dx])
    assert compare_autoreduced(a, b) == A_LESS_B
    assert compare_autoreduced(b, a) == B_LESS_A
    # longer set with an equal rank prefix is smaller
    ab = validate_autoreduced([x, x2])
    assert compare_autoreduced(ab, a) == A_LESS_B
    same = validate_autoreduced([parse_poly("x1[0,0] + 1", dual)])
    assert compare_autoreduced(a, same) == EQUIVALENT


def _compare_oracle(a, b, ranking):
    """Literal two-clause evaluation of the pre-order definition."""
    def rank_lt(f, g):
        return rank_compare(f, g, ranking) == -1

    def strictly_less(xm, ym):
        k, l = len(xm), len(ym)
        for i in range(min(k, l)):
            if rank_lt(xm[i], ym[i]):
                return all(rank_compare(xm[j], ym[j], ranking) == 0
                           for j in range(i))
        return l < k and all(rank_compare(xm[j], ym[j], ranking) == 0
                             for j in range(l))

    a_less = strictly_less(a.members, b.members)
    b_less = strictly_less(b.members, a.members)
    if a_less:
        return A_LESS_B
    if b_less:
        return B_LESS_A
    return EQUIVALENT


def test_compare_autoreduced_against_bruteforce(dual):
    rng = random.Random(51)
    ranking = SequentialRanking(dual)
    built = 0
    while built < 60:
        members = rand_divisors(rng, dual, ranking,
                                count=rng.randint(1, 3))
        others = rand_divisors(rng, dual, ranking, count=rng.randint(1, 3))
        try:
            a = validate_autoreduced(members, ranking)
            b = validate_autoreduced(others, ranking)
        except NotAutoreduced:
            continue
        built += 1
        assert compare_autoreduced(a, b, ranking) == _compare_oracle(a, b, ranking)


def test_charset_singleton(dual):
    f = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
    result = charset_complete([f])
    assert [format_poly(c) for c in result.charset] == [format_poly(f)]
    assert len(result.completion_trace) == 1
    assert all(c.remainder.is_zero() for c in result.certificates)


def test_charset_x_and_dx(dual):
    x = parse_poly("x1[0,0]", dual)
    dx = parse_poly("x1[0,1]", dual)
    result = charset_complete([x, dx])
    assert [format_poly(c) for c in result.charset] == ["x1[0,0]"]
    for cert in result.certificates:
        assert cert.remainder.is_zero()
    # delta x reduces via the certificate sigma(1) * dx = 0 + 1 * delta(x)
    dx_cert = result.certificates[1]
    assert dx_cert.cofactors[0].theta == (0, 1)


def test_charset_inconsistent(dual):
    x = parse_poly("x1[0,0]", dual)
    with pytest.raises(InconsistentSystem):
        charset_complete([x, x + 1])
    with pytest.raises(InconsistentSystem):
        charset_complete([DPolynomial.constant(dual, 2)])


def test_charset_multi_round_monotone(dual):
    # needs three rounds; each round's selected set strictly decreases
    f1 = parse_poly("x1[0,1] + x1[0,0]", dual)
    f2 = parse_poly("x1[0,2] + x1[0,0]^2", dual)
    result = charset_complete([f1, f2])
    assert len(result.completion_trace) >= 2
    ranking = SequentialRanking(dual)
    rounds = [AutoreducedSet(entry.selected) for entry in result.completion_trace]
    for prev, cur in zip(rounds, rounds[1:]):
        assert compare_autoreduced(cur, prev, ranking) == A_LESS_B
    for cert in result.certificates:
        assert cert.remainder.is_zero()


def test_a_completion_over_one_algebra_object_compares_no_algebras(dual, monkeypatch):
    # rank_compare tests identity first, as check_polynomial does: the
    # polynomials of one family share one algebra object
    calls = []
    algebra_eq = DAlgebra.__eq__

    def counted(self, other):
        calls.append(1)
        return algebra_eq(self, other)

    family = [parse_poly("x1[0,1] + x1[0,0]", dual), parse_poly("x1[0,2] + x1[0,0]^2", dual)]
    monkeypatch.setattr(DAlgebra, "__eq__", counted)
    result = charset_complete(family)
    # the rounds after the first compare their selections, through rank_compare
    assert len(result.completion_trace) >= 2
    assert calls == []


def test_charset_zero_and_duplicate_generators(dual):
    zero = DPolynomial.zero(dual)
    result = charset_complete([zero, zero])
    assert len(result.charset) == 0
    assert all(c.remainder.is_zero() for c in result.certificates)

    x = parse_poly("x1[0,0]", dual)
    result = charset_complete([x, 2 * x, -x, zero])
    assert [format_poly(c) for c in result.charset] == ["x1[0,0]"]
    assert all(c.remainder.is_zero() for c in result.certificates)


def test_charset_builds_one_divisor_set_per_round(all_builtins, monkeypatch):
    built = []

    class CountingDivisorSet(DivisorSet):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dstar.charset, "DivisorSet", CountingDivisorSet)
    rng = random.Random(58)
    rounds = set()
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(6):
            family = [rand_poly(rng, d, max_sum=2, max_deg=2, max_terms=2,
                                nonconstant=True)
                      for _ in range(rng.randint(1, 3))]
            built.clear()
            try:
                result = charset_complete(family, ranking)
            except InconsistentSystem:
                continue
            assert len(built) == len(result.completion_trace)
            # the last round's set serves the certificates: it holds the
            # characteristic set, in rank order
            assert tuple(built[-1].members) == result.charset.members
            rounds.add(len(built))
    assert max(rounds) >= 2, rounds


def test_charset_of_an_all_zero_family_takes_one_empty_round(all_builtins):
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        zero = DPolynomial.zero(d)
        result = charset_complete([zero, zero, zero], ranking)
        assert result.charset == AutoreducedSet(())
        assert result.completion_trace == (RoundTrace(1, (), ()),)
        assert len(result.certificates) == 3
        for cert in result.certificates:
            assert cert.remainder.is_zero() and cert.h_factors == ()
            assert verify_certificate(zero, [], cert, ranking)
            assert verify_certificate(zero, DivisorSet((), ranking), cert)


def test_charset_random_small_families(all_builtins):
    rng = random.Random(52)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        done = 0
        while done < 8:
            family = [rand_poly(rng, d, max_sum=2, max_deg=2, max_terms=2,
                                nonconstant=True)
                      for _ in range(rng.randint(1, 3))]
            try:
                result = charset_complete(family, ranking)
            except InconsistentSystem:
                done += 1
                continue
            done += 1
            validate_autoreduced(result.charset.members, ranking)
            for cert in result.certificates:
                assert cert.remainder.is_zero()
            rounds = [AutoreducedSet(e.selected) for e in result.completion_trace]
            for prev, cur in zip(rounds, rounds[1:]):
                assert compare_autoreduced(cur, prev, ranking) == A_LESS_B


def test_selected_separants_and_initials_are_reduced(all_builtins):
    # why a completion round checks neither its selected set nor its
    # separants: under a ranking that passes the axioms, every round's
    # selected set is autoreduced in rank order, and each member's separant
    # and initial are already reduced with respect to it
    rng = random.Random(58)
    for d in all_builtins.values():
        demoted = CustomRanking(
            d, lambda v: (sum(v.theta), tuple(reversed(v.theta)), v.var))
        for ranking in (SequentialRanking(d), demoted):
            rounds = 0
            for _ in range(12):
                family = [rand_poly(rng, d, max_sum=2, max_deg=3, max_terms=3,
                                    nonconstant=True)
                          for _ in range(rng.randint(1, 3))]
                check_ranking_axioms(ranking, {v for f in family for v in f.variables()})
                try:
                    result = charset_complete(family, ranking)
                except InconsistentSystem:
                    continue
                for entry in result.completion_trace:
                    rounds += 1
                    assert validate_autoreduced(
                        entry.selected, ranking).members == entry.selected
                    for member in entry.selected:
                        for part in (member.separant(ranking), member.initial(ranking)):
                            assert is_reduced_wrt_set(part, entry.selected, ranking)
            assert rounds >= 12


def test_charset_certificates_equal_direct_reductions(all_builtins):
    # generator certificates are derived from the last round's certificate
    # of the monic form; they must be byte-identical to reducing afresh
    rng = random.Random(54)
    cases = dict.fromkeys(
        ("scaled", "duplicate", "selected", "zero", "derived", "rescaled"), 0)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        done = 0
        while done < 10:
            family = [rand_poly(rng, d, max_sum=2, max_deg=2, max_terms=2,
                                nonconstant=True)
                      for _ in range(rng.randint(1, 3))]
            family.append(rng.choice([Fraction(-2), Fraction(3), Fraction(1, 2)])
                          * rng.choice(family))
            family.append(rng.choice(family))
            family.insert(rng.randint(0, len(family)), DPolynomial.zero(d))
            try:
                result = charset_complete(family, ranking)
            except InconsistentSystem:
                continue
            done += 1
            members = list(result.charset.members)
            for f, cert in zip(family, result.certificates):
                direct = reduce(f, members, ranking)
                assert certificate_to_json(cert) == certificate_to_json(direct)
                assert verify_certificate(f, members, cert, ranking)
                if f.is_zero():
                    cases["zero"] += 1
                elif monic(f) in members:
                    cases["selected"] += 1
                else:
                    cases["derived"] += 1
                    cases["rescaled"] += f != monic(f)
                cases["duplicate"] += family.count(f) > 1 and not f.is_zero()
                cases["scaled"] += any(monic(g) == monic(f) and g != f
                                       for g in family if not g.is_zero())
    assert all(cases.values()), cases


def test_selected_certificates_equal_reducing_the_selected_form(all_builtins):
    # a generator whose monic form the last round selected is certified in
    # closed form, not by reduce; under the sequential ranking and the
    # checked custom ranking of the charset-custom digest line, that
    # certificate must be byte-identical to reducing the form afresh, for
    # members after the first too
    rng = random.Random(61)
    for d in all_builtins.values():
        demoted = CustomRanking(
            d, lambda v: (sum(v.theta), tuple(reversed(v.theta)), v.var))
        for ranking in (SequentialRanking(d), demoted):
            later = 0
            for _ in range(10):
                generators = [rand_poly(rng, d, max_sum=2, max_deg=2, max_terms=2,
                                        nonconstant=True)
                              for _ in range(rng.randint(2, 3))]
                check_ranking_axioms(
                    ranking, {v for f in generators for v in f.variables()})
                # the monic copies leave the pool, and so the completion, as it was
                family = generators + [monic(f) for f in generators]
                try:
                    result = charset_complete(family, ranking)
                except InconsistentSystem:
                    continue
                members = result.charset.members
                if len(members) < 2:
                    continue
                for f, cert in zip(family, result.certificates):
                    normal = monic(f)
                    if normal not in members:
                        continue
                    direct = reduce(f, list(members), ranking)
                    assert certificate_to_json(cert) == certificate_to_json(direct)
                    later += members.index(normal) > 0
            assert later > 0, (d, ranking)


def test_charset_certifies_a_selected_monic_form_without_reduce(dual, monkeypatch):
    # f and 2 * f share their monic form, which is selected: its certificate
    # is written out in closed form, never reduced, and scaled for each
    # generator
    reduced = []

    def counting_reduce(g, *args, **kwargs):
        reduced.append(g)
        return reduce(g, *args, **kwargs)

    monkeypatch.setattr(dstar.charset, "reduce", counting_reduce)
    f = parse_poly("2 * x1[0,1] + x1[0,0]", dual)
    zero = DPolynomial.zero(dual)
    family = [f, 2 * f, zero]
    result = charset_complete(family)
    normal = monic(f)
    assert result.charset.members == (normal,)
    assert sum(1 for g in reduced if monic(g) == normal) == 0
    assert result.certificates[2].cofactors == ()
    assert result.certificates[2].h_factors == ()
    assert result.certificates[2].remainder.is_zero()
    members = list(result.charset.members)
    for g, cert in zip(family, result.certificates):
        assert verify_certificate(g, members, cert)


def test_charset_trace_lists_a_remainder_derived_twice_once(fields2):
    # in round 2 both unselected pool members reduce to the same monic
    # remainder; the trace used to list it twice
    family = [parse_poly("-3 * x2[1,1] + 3 * x1[0,0]", fields2),
              parse_poly("-2 * x2[1,1] - x2[0,0]", fields2)]
    result = charset_complete(family)
    added = [[format_poly(f) for f in entry.remainders_added]
             for entry in result.completion_trace]
    assert added == [["x2[0,0] + 2 * x1[0,0]"], ["x1[1,1] + 1/2 * x1[0,0]"], []]
    assert [format_poly(f) for f in result.charset] == \
        ["x2[0,0] + 2 * x1[0,0]", "x1[1,1] + 1/2 * x1[0,0]"]


def test_a_family_over_two_algebras_is_an_algebra_mismatch(dual, fields2):
    # both have two slots; completion used to return a two-member "charset"
    # whose certificates verified, and the set checks judged across algebras
    x = parse_poly("x1[0,1]", dual)
    y = parse_poly("x2[1,0]", fields2)
    over_fields = DivisorSet([], SequentialRanking(fields2))
    for call in (lambda: charset_complete([x, y]),
                 lambda: charset_complete([y, x]),
                 lambda: validate_autoreduced([x, y]),
                 lambda: is_reduced_wrt_set(x, [y]),
                 lambda: is_reduced_wrt_set(x, over_fields)):
        with pytest.raises(AlgebraMismatch):
            call()
    cert = reduce(x, [x])
    assert verify_certificate(x, [x], cert)
    assert not verify_certificate(x, [y], cert)


def test_charset_rounds_list_each_new_remainder_once(all_builtins):
    # replay every round from its trace: reduce each unselected pool member,
    # in rank order, by the selected set and keep the first occurrence of
    # each new monic remainder; at this seed some rounds derive one
    # remainder from two pool members
    rng = random.Random(127)
    derived_twice = 0
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(8):
            family = [rand_poly(rng, d, max_sum=2, max_deg=2, max_terms=2,
                                nonconstant=True)
                      for _ in range(rng.randint(1, 3))]
            try:
                result = charset_complete(family, ranking)
            except InconsistentSystem:
                continue
            pool = list(dict.fromkeys(monic(f) for f in family))
            for entry in result.completion_trace:
                pool.sort(key=lambda f: poly_sort_key(f, ranking))
                derived = []
                for f in pool:
                    if f not in entry.selected:
                        remainder = reduce(f, entry.selected, ranking).remainder
                        if not remainder.is_zero() and monic(remainder) not in pool:
                            derived.append(monic(remainder))
                added = list(dict.fromkeys(derived))
                assert list(entry.remainders_added) == added
                derived_twice += len(derived) > len(added)
                pool += added
    assert derived_twice > 0


def test_charset_coefficients_stay_exact_in_either_term_order(dual):
    # a generator's certificate scale is read off its first term, so an
    # inexact division there shows in one of the two term orders only
    x = parse_poly("x1[0,0]", dual)
    forward = parse_poly("x1[0,0] + 1/3 * x1[0,1] * x1[0,0]", dual)
    backward = parse_poly("1/3 * x1[0,1] * x1[0,0] + x1[0,0]", dual)
    assert forward == backward and list(forward.terms) != list(backward.terms)
    for family in ([x, forward], [x, backward]):
        result = charset_complete(family)
        members = list(result.charset)
        assert [format_poly(f) for f in members] == ["x1[0,0]"]
        polys = list(members)
        for f, cert in zip(family, result.certificates):
            assert verify_certificate(f, members, cert)
            polys += [cert.remainder, multiplier_product(cert, members)]
            polys += [c.c for c in cert.cofactors]
        for p in polys:
            assert not any(isinstance(c, float) for c in p.terms.values())


def test_greedy_selection_from_a_rank_sorted_pool_is_autoreduced(all_builtins):
    # the lemma behind completion's selection loop: a member selected later
    # ranks no lower, so it never offends one selected before it
    rng = random.Random(59)
    shapes = set()
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        for _ in range(25):
            pool = list(dict.fromkeys(
                monic(rand_poly(rng, d, max_sum=2, max_deg=2, max_terms=2,
                                nonconstant=True))
                for _ in range(rng.randint(2, 6))))
            pool.sort(key=lambda f: poly_sort_key(f, ranking))
            selected = []
            for candidate in pool:
                if is_reduced_wrt_set(candidate, selected, ranking):
                    selected.append(candidate)
            assert validate_autoreduced(selected, ranking).members == tuple(selected)
            for low, high in itertools.combinations(selected, 2):
                assert is_reduced(low, high, ranking)
            shapes.add((len(selected) >= 2, len(selected) < len(pool)))
    assert (True, True) in shapes, shapes


def test_d_ideal_generators(dual):
    x = parse_poly("x1[0,0]", dual)
    gens = d_ideal_generators([x], 1)
    assert {format_poly(g) for g in gens} == {"x1[0,0]", "x1[1,0]", "x1[0,1]"}
    assert d_ideal_generators([x], 0) == [x]
    assert len(d_ideal_generators([x], 2)) == 6


def test_d_ideal_generators_judge_every_generator(all_builtins):
    # hs:2 and dd:1,1 both have three slots, so only the algebra tells them apart
    hs2, dd11 = all_builtins["hs:2"], all_builtins["dd:1,1"]
    x, y = parse_poly("x1[0,0,0]", hs2), parse_poly("x1[0,0,0]", dd11)
    for generators in ([x, y], [y, x], [x, x, y]):
        with pytest.raises(AlgebraMismatch, match="^a generator list over one algebra met "
                                                  "a polynomial over another$"):
            d_ideal_generators(generators, 1)


def test_d_ideal_generators_match_transforms_from_scratch(all_builtins):
    # reference: apply every multi-index afresh, in the enumeration order
    rng = random.Random(53)
    for d in all_builtins.values():
        for bound in range(3):
            for _ in range(3):
                gens = [rand_poly(rng, d, max_sum=1, max_deg=2)
                        for _ in range(rng.randint(1, 3))]
                gens.append(gens[0])
                expected, seen = [], set()
                for f in gens:
                    for theta in _indices_up_to(d.M, bound):
                        g = apply_composition(f, theta)
                        if g not in seen:
                            seen.add(g)
                            expected.append(g)
                assert d_ideal_generators(gens, bound) == expected


def test_indices_up_to_lists_by_entry_sum_then_index():
    assert list(_indices_up_to(3, 2)) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 2),
        (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert list(_indices_up_to(0, 3)) == [()]


def test_d_ideal_generators_over_fields_40_within_two_seconds():
    # the C(42, 2) = 861 indices of entry sum <= 2; walking all 3^40 tuples
    # of entries <= 2 never ends, so the alarm fails it instead of hanging
    fields40 = validate_algebra(builtin("fields", 40))
    x1 = parse_poly(f"x1[{','.join(['0'] * 40)}]", fields40)

    def expire(signum, frame):
        pytest.fail("d_ideal_generators took more than two seconds")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        generators = d_ideal_generators([x1], 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(generators) == 861


def test_an_order_bound_that_is_not_a_natural_int_is_rejected(dual):
    # True used to run as bound 1, and the others to escape as a bare TypeError
    for bound in (True, False, 1.0, "1", None, -1):
        with pytest.raises(ValueError, match="^order bound must be >= 0$"):
            d_ideal_generators([parse_poly("x1[0,0]", dual)], bound)


def test_empty_families_and_sets(dual):
    empty = AutoreducedSet(())
    assert compare_autoreduced(empty, empty) == EQUIVALENT
    assert charset_complete([]) == CharSetResult(empty, (), ())
    assert d_ideal_generators([], 2) == []
    with pytest.raises(ValueError) as exc:
        d_ideal_generators([parse_poly("x1[0,0]", dual)], -1)
    assert str(exc.value) == "order bound must be >= 0"
    with pytest.raises(DStarError) as exc:
        presentation(empty)
    assert str(exc.value) == "presentation needs a nonempty characteristic set"


def test_rank_comparison_across_algebras_is_rejected(dual, fields2):
    # both algebras have two slots, so only the algebra check tells them apart
    x = parse_poly("x1[0,0]", dual)
    y = parse_poly("x1[0,0]", fields2)
    for compare in (lambda: compare_autoreduced(AutoreducedSet((x,)), AutoreducedSet((y,))),
                    lambda: rank_compare(x, y)):
        with pytest.raises(AlgebraMismatch) as exc:
            compare()
        assert str(exc.value) == "rank comparison across algebras"


def test_closure_witness_needs_generators_and_matched_taus_and_exponents(dual):
    x = parse_poly("x1[0,0]", dual)
    combination = ((DPolynomial.constant(dual, 1), (0, 0), 0),)
    assert closure_step_witness([x], ClosureWitness(x, ((0, 0),), (1,), combination)) == x
    with pytest.raises(BadWitness) as exc:
        closure_step_witness([], ClosureWitness(x, ((0, 0),), (1,), combination))
    assert str(exc.value) == "no generators to check against"
    # zipped, the first two would drop their unmatched entry and accept x
    for taus, exponents in ((((0, 0), (1, 0)), (1,)), (((0, 0),), (1, 1)), ((), ())):
        with pytest.raises(BadWitness) as exc:
            closure_step_witness([x], ClosureWitness(x, taus, exponents, combination))
        assert str(exc.value) == "witness needs matching, nonempty taus and exponents"


def test_closure_witness_examples(dual):
    x = parse_poly("x1[0,0]", dual)
    sx = parse_poly("x1[1,0]", dual)
    one = DPolynomial.constant(dual, 1)

    # x * sigma(x) in the generators: accept x with taus (id, sigma)
    w = ClosureWitness(x, ((0, 0), (1, 0)), (1, 1), ((one, (0, 0), 0),))
    assert closure_step_witness([x * sx], w) == x

    # radical case: x^2 in the generators accepts x
    w = ClosureWitness(x, ((0, 0),), (2,), ((one, (0, 0), 0),))
    assert closure_step_witness([x * x], w) == x

    # combination that does not reproduce the product
    w = ClosureWitness(x, ((0, 0), (1, 0)), (1, 1), ((one + 1, (0, 0), 0),))
    with pytest.raises(BadWitness) as exc:
        closure_step_witness([x * sx], w)
    assert exc.value.difference is not None
    assert not exc.value.difference.is_zero()


def test_closure_witness_validation(dual):
    x = parse_poly("x1[0,0]", dual)
    one = DPolynomial.constant(dual, 1)
    with pytest.raises(BadWitness):
        closure_step_witness([x], ClosureWitness(x, ((0, 1),), (1,),
                                                 ((one, (0, 0), 0),)))
    with pytest.raises(BadWitness):
        closure_step_witness([x], ClosureWitness(x, ((0, 0),), (0,),
                                                 ((one, (0, 0), 0),)))
    with pytest.raises(BadWitness):
        closure_step_witness([x], ClosureWitness(x, ((0, 0),), (1,),
                                                 ((one, (0, 0), 5),)))


def test_closure_witness_with_a_negative_tau_is_rejected(hs2):
    # (0,1,-1) used to pass as sigma-only and apply delta_1 once, so this
    # forged witness accepted x1[0,0,0]
    x = parse_poly("x1[0,0,0]", hs2)
    dx = parse_poly("x1[0,1,0]", hs2)
    one = DPolynomial.constant(hs2, 1)
    with pytest.raises(BadWitness, match="negative entry"):
        closure_step_witness([dx], ClosureWitness(x, ((0, 1, -1),), (1,),
                                                  ((one, (0, 0, 0), 0),)))
    with pytest.raises(BadWitness, match="not sigma-only"):
        closure_step_witness([dx], ClosureWitness(x, ((0, 1, 0),), (1,),
                                                  ((one, (0, 0, 0), 0),)))


def test_closure_witness_with_a_malformed_index_is_rejected(hs2):
    # these used to escape as AlgebraMismatch or IndexOutOfRange
    x = parse_poly("x1[0,0,0]", hs2)
    dx = parse_poly("x1[0,1,0]", hs2)
    one = DPolynomial.constant(hs2, 1)
    for tau, theta, message in (
            ((0, 0), (0, 0, 0), "tau [0, 0] has 2 slots, algebra has 3"),
            ((0, 0, 0), (0, 0, -1),
             "combination theta [0, 0, -1] has a negative entry"),
            ((0, 0, 0), (0, 0), "combination theta [0, 0] has 2 slots, algebra has 3")):
        with pytest.raises(BadWitness) as exc:
            closure_step_witness([dx], ClosureWitness(x, (tau,), (1,),
                                                      ((one, theta, 0),)))
        assert str(exc.value) == message


def test_closure_witness_with_a_malformed_type_is_rejected(dual, fields2):
    # these used to raise ValueError, AlgebraMismatch or TypeError, or to be
    # accepted: a list tau, and member True read as member 1
    x = parse_poly("x1[0,0]", dual)
    sx = parse_poly("x1[1,0]", dual)
    one = DPolynomial.constant(dual, 1)
    gens = [x, x * sx]
    assert closure_step_witness(
        gens, ClosureWitness(x, ((0, 0), (1, 0)), (1, 1), ((one, (0, 0), 1),))) == x
    malformed = (
        ClosureWitness(x, ((0, 0), (1, 0)), (True, 1), ((one, (0, 0), 1),)),
        ClosureWitness(x, ((0, 0), (1, 0)), (1.5, 1), ((one, (0, 0), 1),)),
        ClosureWitness(parse_poly("x1[0,0]", fields2), ((0, 0), (1, 0)), (1, 1),
                       ((one, (0, 0), 1),)),
        ClosureWitness(x, ((0, 0), (1, 0)), (1, 1), ((1.0, (0, 0), 1),)),
        ClosureWitness(x, ((0, 0), (1, 0)), (1, 1), ((one, (0, 0), True),)),
        ClosureWitness(x, ([0, 0], (1, 0)), (1, 1), ((one, (0, 0), 1),)),
        ClosureWitness(x, ((0, 0), (1, 0)), (1, 1), ((one, (0, False), 1),)))
    for witness in malformed:
        with pytest.raises(BadWitness):
            closure_step_witness(gens, witness)


def test_malformed_terms_fail_the_witness_and_the_certificate_alike(dual, fields2):
    # f reduces by itself in one sigma step with H = 1 and the one cofactor
    # (1, (0, 0), 0), the term of the witness that f is in [f] as well
    f = parse_poly("x1[0,1] - 1", dual)
    one = DPolynomial.constant(dual, 1)
    term = (one, (0, 0), 0)
    cert = reduce(f, [f])
    assert cert.h_factors == (HFactor((0, 0), INITIAL, 0),)
    assert cert.cofactors == (Cofactor(*term),) and verify_certificate(f, [f], cert)
    assert closure_step_witness([f], ClosureWitness(f, ((0, 0),), (1,), (term,))) == f
    # (field, value, message): the term with one field replaced
    malformed_terms = (
        ("member", 1, "combination references generator 1, only 1 available"),
        ("member", -1, "combination references generator -1, only 1 available"),
        ("member", False, "combination references generator False, only 1 available"),
        ("member", 0.0, "combination references generator 0.0, only 1 available"),
        ("c", 1.0, "combination coefficient 1.0 is not a polynomial over the "
         "generators' algebra"),
        ("c", DPolynomial.constant(fields2, 1), "combination coefficient "
         "DPolynomial(1) is not a polynomial over the generators' algebra"),
        ("theta", [0, 0], "combination theta [0, 0] is not a tuple of integers"),
        ("theta", (False, 0), "combination theta (False, 0) is not a tuple of integers"),
        ("theta", (0,), "combination theta [0] has 1 slots, algebra has 2"),
        ("theta", (0, 0, 0), "combination theta [0, 0, 0] has 3 slots, algebra has 2"),
        ("theta", (0, -1), "combination theta [0, -1] has a negative entry"),
    )
    for field, value, message in malformed_terms:
        bad = Cofactor(**dict(zip(Cofactor._args, term), **{field: value}))
        with pytest.raises(BadWitness) as exc:
            closure_step_witness([f], ClosureWitness(f, ((0, 0),), (1,), (tuple(bad),)))
        assert str(exc.value) == message
        forged = ReductionCertificate(cert.h_factors, cert.remainder, (bad,), cert.steps)
        assert verify_certificate(f, [f], forged) is False, message
    # (theta, message): a malformed witness tau, and as such an H-factor theta
    for theta, message in (
            ([0, 0], "tau [0, 0] is not a tuple of integers"),
            ((0, True), "tau (0, True) is not a tuple of integers"),
            ((0,), "tau [0] has 1 slots, algebra has 2"),
            ((0, 0, 0), "tau [0, 0, 0] has 3 slots, algebra has 2"),
            ((-1, 0), "tau [-1, 0] has a negative entry"),
            ((0, 1), "tau [0, 1] is not sigma-only")):
        with pytest.raises(BadWitness) as exc:
            closure_step_witness([f], ClosureWitness(f, (theta,), (1,), (term,)))
        assert str(exc.value) == message
        forged = ReductionCertificate((HFactor(theta, INITIAL, 0),), cert.remainder,
                                      cert.cofactors, cert.steps)
        assert verify_certificate(f, [f], forged) is False, message


def test_malformed_shapes_fail_the_witness_and_the_certificate_alike(dual):
    # these used to escape as ValueError, TypeError or AttributeError
    f = parse_poly("x1[0,1] - 1", dual)
    one = DPolynomial.constant(dual, 1)
    term = (one, (0, 0), 0)
    cert = reduce(f, [f])
    parts = (f, ((0, 0),), (1,), (term,))
    # any iterable container and a Cofactor record stand for tuples
    assert verify_certificate(f, [f], ReductionCertificate(
        list(cert.h_factors), cert.remainder, list(cert.cofactors), cert.steps))
    for combination in ([list(term)], (Cofactor(*term),)):
        assert closure_step_witness([f], ClosureWitness(
            f, [(0, 0)], [1], combination)) == f
    # terms that are not (c, theta, member) triples
    for bad in (term[:2], term + (0,), None):
        with pytest.raises(BadWitness, match="^combination term .* is not a triple$"):
            closure_step_witness([f], ClosureWitness(f, ((0, 0),), (1,), (bad,)))
        forged = ReductionCertificate(cert.h_factors, cert.remainder, (bad,), cert.steps)
        assert verify_certificate(f, [f], forged) is False
        assert verify_certificate(f, DivisorSet([f]), forged) is False
    # containers that are not sequences, and records of the wrong type
    fields = (cert.h_factors, cert.remainder, cert.cofactors, cert.steps)
    for bad in (None, 5):
        for forged in (bad, fields, ReductionCertificate(bad, *fields[1:]),
                       ReductionCertificate(*fields[:2], bad, fields[3])):
            assert verify_certificate(f, [f], forged) is False
            assert verify_certificate(f, DivisorSet([f]), forged) is False
        for forged in (bad, parts,
                       ClosureWitness(f, bad, (1,), (term,)),
                       ClosureWitness(f, ((0, 0),), bad, (term,)),
                       ClosureWitness(f, ((0, 0),), (1,), bad)):
            with pytest.raises(BadWitness):
                closure_step_witness([f], forged)


def test_witness_numbers_must_be_json_integers(dual):
    # these used to pass through int(): tau (0, 0), exponent 1, member 0
    good = {"a": "x1[0,0]", "taus": [[0, 0]], "exponents": [1],
            "combination": [{"c": "1", "theta": [0, 0], "member": 0}]}
    assert witness_from_json(json.dumps(good), dual).exponents == (1,)
    bad = [dict(good, taus=[[0.7, 0]], exponents=[1.9]),
           dict(good, taus=[[0.7, 0]]), dict(good, exponents=[1.9]),
           dict(good, exponents=[True]),
           dict(good, combination=[{"c": "1", "theta": [0, 0], "member": 0.5}]),
           dict(good, combination=[{"c": "1", "theta": [False, 0], "member": 0}])]
    for doc in bad:
        with pytest.raises(ExprParseError, match="^malformed witness file: "):
            witness_from_json(json.dumps(doc), dual)
    # a negative tau still parses, and the checker rejects it
    witness = witness_from_json(json.dumps(dict(good, taus=[[0, -1]])), dual)
    assert witness.taus == ((0, -1),)


def test_witness_json_round_trip(dual):
    x = parse_poly("x1[0,0]", dual)
    one = DPolynomial.constant(dual, 1)
    w = ClosureWitness(x, ((0, 0), (1, 0)), (1, 1), ((one, (0, 0), 0),))
    text = witness_to_json(w)
    again = witness_from_json(text, dual)
    assert again == w


def _classical_charset(generators):
    """Independent Ritt-Wu loop over the classical oracle's reduction."""
    from dstar.classical import DiffPolynomial, diff_is_reduced, ritt_reduce

    def monic_cl(p):
        lead = max(p.terms.items(), key=lambda it: tuple(sorted(it[0], reverse=True)))
        return p * (1 / lead[1])

    pool = []
    for f in generators:
        if f.is_zero():
            continue
        assert not f.is_constant()
        f = monic_cl(f)
        if f not in pool:
            pool.append(f)
    while True:
        pool.sort(key=lambda p: (p.leader(), p.degree_in(p.leader()),
                                 sorted(p.terms)))
        selected = []
        for candidate in pool:
            if all(diff_is_reduced(candidate, s) for s in selected):
                selected.append(candidate)
        new = []
        done = True
        for f in pool:
            if f in selected:
                continue
            remainder = ritt_reduce(f, selected).remainder
            if remainder.is_zero():
                continue
            done = False
            assert not remainder.is_constant()
            remainder = monic_cl(remainder)
            if remainder not in pool and remainder not in new:
                new.append(remainder)
        if done:
            return selected
        pool.extend(new)


def test_charset_agrees_with_classical_oracle_on_textbook_inputs(dual):
    from dstar.classical import lift_to_dual, project_to_differential
    from dstar.classical import DiffPolynomial, DiffVar

    x = DiffPolynomial.from_variable(DiffVar(0, 1))
    dx = DiffPolynomial.from_variable(DiffVar(1, 1))
    d2x = DiffPolynomial.from_variable(DiffVar(2, 1))
    systems = [
        [dx ** 2 - 4 * x],
        [x, dx],
        [dx - x, d2x - dx],
        [2 * dx + x, d2x + dx + x],
    ]
    for system in systems:
        classical = _classical_charset(system)
        lifted = charset_complete([lift_to_dual(p) for p in system])
        projected = [project_to_differential(c) for c in lifted.charset]
        assert projected == classical


def test_presentation(dual):
    f = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
    pres = presentation(validate_autoreduced([f]))
    assert pres.multiplier == parse_poly("2 * x1[0,1]", dual)

    x = parse_poly("x1[0,0]", dual)
    assert presentation(validate_autoreduced([x])).multiplier == \
        DPolynomial.constant(dual, 1)

    sq = parse_poly("x1[0,0]^2", dual)
    x2 = parse_poly("x2[0,0]", dual)
    pres = presentation(validate_autoreduced([sq, x2]))
    assert pres.multiplier == parse_poly("2 * x1[0,0]", dual)
