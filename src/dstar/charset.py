"""Autoreduced sets, characteristic-set completion and closure witnesses.

Completion runs the classical elimination loop on a finite generating
family: greedily select a rank-minimal autoreduced subset of the pool,
reduce everything else by it, feed nonzero remainders back, and stop when
all remainders vanish.  Each round's selected set strictly decreases in
the autoreduced-set pre-order, which makes the loop well-founded.  A round
grows one DivisorSet, in rank order, as it selects; every pool reduction
and the final certificate checks share its records and image memo, dropped
with it when the round ends.  Input generators and remainders enter the
pool through one function, which makes them monic, drops repeats and
makes each one's rank record and sort key once, so a round's new
remainders are the tail it appended, each round's sort reads stored keys
and each round's set takes its members' stored records.  An empty family has no
rounds; a family whose generators are all zero has one round that selects
and adds nothing.  The input generators' certificates come from one table
of the last round, keyed by monic form: reduction is linear in the reduced
polynomial, so a generator's certificate is that of its monic form with
the cofactors scaled.  A form the round did not reduce is zero, with the
empty certificate, or a selected member, whose certificate is written
out: one sigma step at its own leader and degree, with its initial as
the multiplier and the cofactor, and remainder 0, which is what reduce
returns for it (_selected_certificate gives the argument).  Every
certificate is verified before it is returned.  Perfect closure steps
are not searched; they are accepted only with an exact product-membership
witness.

A round checks neither its selected set nor the separants of its members
again: under a ranking that passes check_ranking_axioms both are reduced
by construction, by axiom 1 and totality.  A candidate is selected only
when reduced with respect to every member selected before it, and a
later member g ranks no lower than an earlier one f.  Had they one
leader, g would hold it at no lower degree and not be reduced with
respect to f; by totality no two leaders rank equal, so g's leader v
ranks above f's, and so above every variable of f, while by axiom 1
every transform of v ranks no lower than v: f is reduced with respect
to g.  The set keeps the pool's rank order.  A selected member f with
leader u of degree d holds no proper transform of u, which would rank
above u; its separant and initial hold only f's variables, at no higher
degree, and u at degree d - 1 or not at all, so both are reduced with
respect to the selected set, and nonzero over Q.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter

from .errors import (
    AlgebraMismatch,
    BadWitness,
    DStarError,
    ExprParseError,
    InconsistentSystem,
    NotAutoreduced,
)
from .operators import apply_composition
from .ordering import EQUAL, LESS, Record, SequentialRanking
from .parser import parse_json, parse_poly
from .poly import (
    DPolynomial, _keyed_monic, _sort_key, check_natural, check_polynomial, format_poly,
    poly_sort_key, rank_compare)
from .reduction import (
    INITIAL,
    Cofactor,
    DivisorSet,
    HFactor,
    ReductionCertificate,
    Step,
    _check_theta,
    _index_from_json,
    _sequence,
    _sum_terms,
    _term_from_json,
    _term_to_json,
    is_reduced,
    is_reduced_wrt_set,
    reduce,
    verify_certificate,
)

A_LESS_B = "ALessB"
B_LESS_A = "BLessA"
EQUIVALENT = "Equivalent"


class AutoreducedSet(Record):
    """Pairwise-reduced family, sorted by ascending rank."""

    __slots__ = _args = ("members",)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def validate_autoreduced(members, ranking=None):
    """Check pairwise reducedness, sort by rank, and wrap."""
    members = [check_polynomial(f) for f in members]
    if not members:
        return AutoreducedSet(())
    ranking = ranking or SequentialRanking(members[0].algebra)
    for f in members:
        if f.is_constant():
            raise NotAutoreduced((f, f), "autoreduced sets contain no constants")
    for a in range(len(members)):
        for b in range(len(members)):
            if a != b and not is_reduced(members[a], members[b], ranking):
                raise NotAutoreduced(
                    (members[a], members[b]),
                    f"{format_poly(members[a])} is not reduced with respect "
                    f"to {format_poly(members[b])}")
    ordered = sorted(members, key=lambda f: poly_sort_key(f, ranking))
    return AutoreducedSet(tuple(ordered))


def compare_autoreduced(a, b, ranking=None):
    """Pre-order on autoreduced sets.

    Walk the rank-sorted members elementwise; the first strict rank
    difference decides.  If one is a rank-prefix of the other, the longer
    set is the smaller one; equal length with all ranks equal means the
    sets are equivalent.
    """
    first = a.members[0] if a.members else (b.members[0] if b.members else None)
    if first is None:
        return EQUIVALENT
    ranking = ranking or SequentialRanking(first.algebra)
    for fa, fb in zip(a.members, b.members):
        order = rank_compare(fa, fb, ranking)
        if order != EQUAL:
            return A_LESS_B if order == LESS else B_LESS_A
    if len(a) > len(b):
        return A_LESS_B
    if len(b) > len(a):
        return B_LESS_A
    return EQUIVALENT


class RoundTrace(Record):
    __slots__ = _args = ("round", "selected", "remainders_added")


class CharSetResult(Record):
    # certificates holds one ReductionCertificate per input generator
    __slots__ = _args = ("charset", "completion_trace", "certificates")


def charset_complete(generators, ranking=None):
    """Characteristic set of a finite family, with zero-remainder proofs.

    The ranking must pass check_ranking_axioms, totality included: the
    selection loop relies on a total order for the earlier members of the
    rank-sorted pool to be reduced with respect to the later ones, and the
    selected sets are not checked again (validate_autoreduced checks a set
    built under an unchecked ranking).  Raises InconsistentSystem when a
    nonzero constant is generated.
    """
    generators = [check_polynomial(f) for f in generators]
    if not generators:
        return CharSetResult(AutoreducedSet(()), (), ())
    ranking = ranking or SequentialRanking(generators[0].algebra)

    pool = []       # (poly_sort_key, monic form, its _rank), made once
    seen = set()

    def pool_monic(f):
        """Pool f's monic form unless seen, and return it; zero is not pooled."""
        if f.is_zero():
            return f
        if f.is_constant():
            raise InconsistentSystem(
                f"derived the nonzero constant {format_poly(f)}")
        f, keys = _keyed_monic(f)
        if f not in seen:
            seen.add(f)
            rank = f._rank(ranking)
            # f is not constant, so (1, key, degree) is its _rank_tuple
            pool.append((_sort_key(f, (1,) + rank[1:], keys), f, rank))
        return f

    normals = [pool_monic(f) for f in generators]

    trace = []
    while True:
        # distinct monic forms have distinct keys, so no tie reaches a form
        pool.sort(key=itemgetter(0))
        # one set, and so one image memo, for every reduction of the round
        divisors = DivisorSet((), ranking)
        rest = []
        for _, candidate, rank in pool:
            if is_reduced_wrt_set(candidate, divisors):
                divisors._add_ranked(candidate, rank)
            else:
                rest.append(candidate)
        current = AutoreducedSet(tuple(divisors.members))
        if trace and compare_autoreduced(
                current, AutoreducedSet(trace[-1].selected), ranking) != A_LESS_B:
            raise DStarError(
                "internal: completion round did not decrease the "
                "autoreduced-set pre-order")

        certs = {}      # monic form -> its certificate with remainder 0
        pooled = len(pool)
        for f in rest:
            cert = reduce(f, divisors)
            if cert.remainder.is_zero():
                certs[f] = cert
            else:
                pool_monic(cert.remainder)
        added = tuple(f for _, f, _ in pool[pooled:])
        if len(certs) < len(rest) and not added:
            # cannot happen: nonzero remainders are reduced w.r.t. the
            # selected set, hence never collide with the existing pool
            raise DStarError("internal: completion made no progress")
        trace.append(RoundTrace(len(trace) + 1, current.members, added))
        if not added:
            return CharSetResult(current, tuple(trace), tuple(
                _generator_certificate(f, normal, divisors, certs)
                for f, normal in zip(generators, normals)))


def _generator_certificate(f, normal, divisors, certs):
    """Certificate that the input generator f reduces to zero, checked.

    certs maps the monic forms the last round reduced to their
    certificates.  A form it lacks is zero, whose certificate is empty, or
    a member the round selected, whose certificate is closed-form; either
    is added.  Reduction is linear in g: when f = s * normal, scaling the
    cofactors of normal's certificate by s gives reduce(f) exactly.
    """
    cert = certs.get(normal)
    if cert is None:
        if normal.is_zero():
            cert = ReductionCertificate((), normal, (), ())
        else:
            cert = _selected_certificate(divisors, divisors.members.index(normal))
        certs[normal] = cert
    if cert.cofactors:
        some = next(iter(normal.terms))
        # a Fraction, never int / int, which is a float
        scale = Fraction(f.terms[some], normal.terms[some])
        if scale != 1:
            # the remainder is zero, so only the cofactors scale
            cert = ReductionCertificate(
                cert.h_factors, cert.remainder,
                tuple(Cofactor(c.c.scalar_mul(scale), c.theta, c.member)
                      for c in cert.cofactors),
                cert.steps)
    if not verify_certificate(f, divisors, cert):
        raise DStarError("internal: completion certificate failed verification")
    return cert


def _selected_certificate(divisors, k):
    """reduce(member k, divisors), written out without reducing.

    The divisors are a round's selection.  Member k, f with leader u of
    degree d, is reduced with respect to the members before it, and every
    later leader, and so every transform of one, ranks above all of f's
    variables (module docstring).  So f's one offending variable is u,
    which offends member k alone, as its sigma-transform by the zero index
    at degree d.  reduce's one step there multiplies f by its initial I
    (theta zero, drop d - d = 0, cofactor I) and subtracts I * f, which
    leaves remainder 0.
    """
    f = divisors.members[k]
    u, _, degree = divisors.ranks[k]
    zero = (0,) * f.algebra.M
    return ReductionCertificate(
        (HFactor(zero, INITIAL, k),), DPolynomial.zero(f.algebra),
        (Cofactor(divisors.image(k, INITIAL, zero), zero, k),),
        (Step(u, "sigma", degree),))


# ---------------------------------------------------------------------------
# bounded ideal generators and witness-checked closure steps


def d_ideal_generators(generators, order_bound):
    """All operator transforms of the generators up to the index bound.

    Applies every multi-index with entry sum <= order_bound, made once, to
    each generator in turn, and keeps the first of equal transforms.  A bound
    that is not an int (a bool included) >= 0 is a ValueError, and a
    generator that is not a polynomial over the first's algebra is an
    AlgebraMismatch.
    """
    check_natural(order_bound, "order bound must be >= 0")
    generators = list(generators)
    if not generators:
        return []
    algebra = check_polynomial(generators[0]).algebra
    for g in generators:
        check_polynomial(g, algebra, "a generator list")
    indices = _indices_up_to(algebra.M, order_bound)
    return list(dict.fromkeys(apply_composition(f, theta)
                              for f in generators for theta in indices))


def _indices_up_to(width, bound):
    """Multi-indices of the given width with entry sum <= bound, by (sum, index)."""
    # each counts a multiset of slots, so only the C(width + bound, bound)
    # wanted indices are made, not all (bound + 1)^width tuples
    return sorted((tuple(map(slots.count, range(width)))
                   for k in range(bound + 1)
                   for slots in itertools.combinations_with_replacement(range(width), k)),
                  key=lambda t: (sum(t), t))


class ClosureWitness(Record):
    """Product membership datum: prod tau_j(a)^(n_j) = sum c_k * theta_k(g_k)."""

    # sigma-only taus, exponents >= 1, (c_k, theta_k, k) terms checked as cofactors
    __slots__ = _args = ("a", "taus", "exponents", "combination")


def closure_step_witness(generators, witness):
    """Accept a new element if its witness identity checks exactly.

    Returns the accepted polynomial; raises BadWitness (with the nonzero
    difference) when the identity fails or the witness is malformed: not a
    ClosureWitness, taus, exponents or terms that are not sequences, a term
    that is not a triple, a multi-index that is not a tuple of natural
    numbers, an exponent or a member index that is not an int, or an a or c
    that is not a polynomial over the generators' algebra.  Taus and terms
    are checked as a certificate's H-factor thetas and cofactors are.
    Generators not all polynomials over one algebra are an AlgebraMismatch.
    """
    generators = list(generators)
    if not generators:
        raise BadWitness("no generators to check against")
    if not isinstance(witness, ClosureWitness):
        raise BadWitness(f"witness {witness!r} is not a ClosureWitness")
    algebra = check_polynomial(generators[0]).algebra
    for g in generators:
        check_polynomial(g, algebra, "a generator list")
    try:
        check_polynomial(witness.a, algebra)
    except AlgebraMismatch:
        raise BadWitness(
            "witness a is not a polynomial over the generators' algebra") from None
    taus = _sequence(witness.taus, "witness taus")
    exponents = _sequence(witness.exponents, "witness exponents")
    if len(taus) != len(exponents) or not taus:
        raise BadWitness("witness needs matching, nonempty taus and exponents")
    if any(type(e) is not int for e in exponents):
        raise BadWitness("witness exponents must be integers")
    if any(e < 1 for e in exponents):
        raise BadWitness("witness exponents must be positive")
    for tau in taus:
        _check_theta(algebra, tau, "tau", sigma_only=True)
    product = DPolynomial.constant(algebra, 1)
    for tau, e in zip(taus, exponents):
        product = product * apply_composition(witness.a, tau) ** e
    combo = _sum_terms(DPolynomial.zero(algebra), witness.combination, len(generators),
                       lambda idx, theta: apply_composition(generators[idx], theta))
    difference = product - combo
    if not difference.is_zero():
        raise BadWitness(
            f"witness identity fails; difference = {format_poly(difference)}",
            difference)
    return witness.a


def witness_from_json(text, algebra):
    doc = parse_json(text)
    try:
        a = parse_poly(doc["a"], algebra)
        taus = tuple(_index_from_json(tau) for tau in doc["taus"])
        exponents = _index_from_json(doc["exponents"])
        combination = tuple(_term_from_json(entry, algebra)
                            for entry in doc["combination"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ExprParseError(f"malformed witness file: {exc!r}")
    return ClosureWitness(a, taus, exponents, combination)


def witness_to_json(witness):
    import json
    doc = {
        "a": format_poly(witness.a),
        "taus": [list(t) for t in witness.taus],
        "exponents": list(witness.exponents),
        "combination": [_term_to_json(*term) for term in witness.combination],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# prime presentations


class PrimePresentation(Record):
    # multiplier: the product of the initials and separants
    __slots__ = _args = ("charset", "multiplier")


def presentation(charset, ranking=None):
    """Record the saturation presentation datum for a characteristic set."""
    members = charset.members
    if not members:
        raise DStarError("presentation needs a nonempty characteristic set")
    ranking = ranking or SequentialRanking(members[0].algebra)
    h = DPolynomial.constant(members[0].algebra, 1)
    for c in members:
        h = h * c.initial(ranking) * c.separant(ranking)
    return PrimePresentation(charset, h)
