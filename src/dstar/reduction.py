"""Reduction of polynomials modulo a divisor set, with checkable certificates.

A polynomial is reduced with respect to a divisor f when it contains no
delta-transform of f's leader and every sigma-transform of that leader
(including the leader itself) appears below f's degree.  There is one
scan for offending variables: a_leader runs it, is_reduced_wrt_set asks
it whether a divisor set has any and stops at the first, and reduce runs
it with each divisor's leader and degree computed once per call.  The
reduction loop repeatedly eliminates the highest-ranked offending
variable, multiplying by a sigma-transform of the divisor's separant
(delta case) or initial (sigma case).  Every run returns a certificate witnessing the exact identity
H * g = g0 + sum_k c_k * theta_k(a_k).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConstantDivisor, DStarError, DuplicateLeaders, ExprParseError
from .operators import apply_composition, rho
from .ordering import (
    EQUAL,
    GREATER,
    LESS,
    SequentialRanking,
    is_sigma_only,
    parse_variable,
    transform_of,
)
from .parser import parse_json, parse_poly
from .poly import DPolynomial, format_poly, rank_compare

INITIAL = "initial"
SEPARANT = "separant"


@dataclass(frozen=True)
class HFactor:
    theta: tuple          # sigma-only multi-index
    source: str           # INITIAL or SEPARANT
    member: int           # 0-based index into the divisor list


@dataclass(frozen=True)
class Cofactor:
    c: DPolynomial
    theta: tuple
    member: int


@dataclass(frozen=True)
class Step:
    leader: object        # the offending variable handled in this iteration
    case: str             # "delta" or "sigma"
    degree: int


@dataclass(frozen=True)
class ReductionCertificate:
    h_factors: tuple
    remainder: DPolynomial
    cofactors: tuple
    steps: tuple


@dataclass(frozen=True)
class ALeader:
    variable: object
    degree: int
    member: int
    theta: tuple
    is_delta: bool


def is_reduced(g, f, ranking=None):
    """True when g contains no offending transform of f's leader."""
    return is_reduced_wrt_set(g, [f], ranking)


def is_reduced_wrt_set(g, divisors, ranking=None):
    """True when g contains no offending transform of any divisor's leader."""
    members = list(divisors)
    if any(f.is_constant() for f in members):
        raise ConstantDivisor("cannot reduce with respect to a constant")
    if g.is_constant():
        return True
    ranking = ranking or SequentialRanking(g.algebra)
    # only existence matters, so stop at the first offending pair
    leaders, degrees = _leaders_and_degrees(members, ranking)
    return next(_offending(g, leaders, degrees), None) is None


def a_leader(g, divisors, ranking=None):
    """Highest-ranked offending variable of g, or None when g is reduced.

    A variable offends a divisor when it is a delta-transform of the
    divisor's leader, or a sigma-transform of it (the leader included)
    at a degree no lower than the divisor's.  Ties across divisors go to
    the member with the highest-ranked leader, then the lowest index;
    distinct variables of equal rank (possible only under a key that is
    not injective) go to the lowest in DVariable order.
    """
    if g.is_constant():
        return None
    ranking = ranking or SequentialRanking(g.algebra)
    return _scan(g, *_leaders_and_degrees(list(divisors), ranking), ranking)


def _leaders_and_degrees(members, ranking):
    leaders = [f.leader(ranking) for f in members]
    return leaders, [f.degree_in(u) for f, u in zip(members, leaders)]


def _offending(g, leaders, degrees):
    """Each offending (variable, divisor) pair of g, lowest variable first."""
    for v, k in sorted(g.degrees().items()):
        for idx, (u, d) in enumerate(zip(leaders, degrees)):
            tr = transform_of(g.algebra, v, u)
            if tr is not None and (tr.is_delta or k >= d):
                yield ALeader(v, k, idx, tr.theta, tr.is_delta)


def _scan(g, leaders, degrees, ranking):
    """a_leader against divisors given by their leaders and degrees."""
    # max keeps the first of equal maxima: exact ties go to the lowest variable
    return max(_offending(g, leaders, degrees), default=None, key=lambda c: (
        ranking.key(c.variable), ranking.key(leaders[c.member]), -c.member))


def reduce(g, divisors, ranking=None):
    """Reduce g modulo the divisor set and return the certificate.

    Divisors must be non-constant with pairwise distinct leaders; they
    need not be autoreduced.  The (offending variable rank, degree) pair
    strictly decreases lexicographically at each step; this is asserted.
    Step k multiplies the running polynomial by m_k and records a raw
    cofactor; the certificate's c_k is that cofactor times m_{k+1} ... m_n,
    formed once at the end from a running suffix product.
    """
    members = list(divisors)
    ranking = ranking or SequentialRanking(g.algebra)
    for f in members:
        if f.is_constant():
            raise ConstantDivisor("divisor sets must not contain constants")
    leaders, degrees = _leaders_and_degrees(members, ranking)
    for a in range(len(leaders)):
        for b in range(a + 1, len(leaders)):
            if leaders[a] == leaders[b]:
                raise DuplicateLeaders(
                    f"divisors {a} and {b} share the leader {leaders[a]}")
    algebra = g.algebra

    current = g
    h_factors = []
    multipliers = []
    raw = []        # (cofactor before the later multipliers, theta, member)
    steps = []
    images = {}     # (member, theta) -> (HFactor, multiplier, transformed member)
    prev = None
    while True:
        led = _scan(current, leaders, degrees, ranking)
        if led is None:
            break
        if prev is not None:
            cmp = ranking.compare(led.variable, prev[0])
            if not (cmp == LESS or (cmp == EQUAL and led.degree < prev[1])):
                raise DStarError(
                    "internal: reduction measure failed to decrease at "
                    f"{led.variable}^{led.degree}")
        prev = (led.variable, led.degree)

        key = (led.member, led.theta)
        if key not in images:
            member = members[led.member]
            if led.is_delta:
                m_theta = rho(algebra, led.theta)
                source, base = SEPARANT, member.separant(ranking)
            else:
                m_theta = led.theta
                source, base = INITIAL, member.initial(ranking)
            images[key] = (HFactor(m_theta, source, led.member),
                           apply_composition(base, m_theta),
                           apply_composition(member, led.theta))
        factor, multiplier, transformed = images[key]
        drop = led.degree - (1 if led.is_delta else degrees[led.member])
        v_poly = DPolynomial.from_variable(algebra, led.variable)
        cof = current.coefficient_in(led.variable, led.degree) * v_poly ** drop
        current = multiplier * current - cof * transformed
        h_factors.append(factor)
        multipliers.append(multiplier)
        raw.append((cof, led.theta, led.member))
        steps.append(Step(led.variable, "delta" if led.is_delta else "sigma",
                          led.degree))

    cofactors = []
    suffix = None   # m_{k+1} ... m_n; the product with m_1 is never needed
    for k in range(len(raw) - 1, -1, -1):
        cof, theta, member = raw[k]
        cofactors.append(Cofactor(cof if suffix is None else cof * suffix,
                                  theta, member))
        if k:
            suffix = multipliers[k] if suffix is None else multipliers[k] * suffix
    cofactors.reverse()

    return ReductionCertificate(
        tuple(h_factors), current, tuple(cofactors), tuple(steps))


def multiplier_product(cert, divisors, ranking=None):
    """Recompute H from the certificate's factor list; 1 when it is empty.

    Each distinct (member, source, theta) image is built once per call.
    """
    members = list(divisors)
    algebra = members[0].algebra if members else cert.remainder.algebra
    ranking = ranking or SequentialRanking(algebra)
    images = {}
    h = DPolynomial.constant(algebra, 1)
    for factor in cert.h_factors:
        key = (factor.member, factor.source, factor.theta)
        if key not in images:
            member = members[factor.member]
            base = (member.initial(ranking) if factor.source == INITIAL
                    else member.separant(ranking))
            images[key] = apply_composition(base, factor.theta)
        h = h * images[key]
    return h


def verify_certificate(g, divisors, cert, ranking=None):
    """Check the certificate identity and postconditions exactly."""
    members = list(divisors)
    ranking = ranking or SequentialRanking(g.algebra)
    try:
        for factor in cert.h_factors:
            if factor.source not in (INITIAL, SEPARANT):
                return False
            if not 0 <= factor.member < len(members):
                return False
            if not is_sigma_only(g.algebra, factor.theta):
                return False
        h = multiplier_product(cert, members, ranking)
        rhs = cert.remainder
        transformed = {}    # (member, theta) -> theta applied to the member
        for cof in cert.cofactors:
            if not 0 <= cof.member < len(members):
                return False
            key = (cof.member, cof.theta)
            if key not in transformed:
                transformed[key] = apply_composition(members[cof.member], cof.theta)
            rhs = rhs + cof.c * transformed[key]
        if h * g != rhs:
            return False
        if not is_reduced_wrt_set(cert.remainder, members, ranking):
            return False
        if rank_compare(cert.remainder, g, ranking) == GREATER:
            return False
    except DStarError:
        return False
    return True


# ---------------------------------------------------------------------------
# certificate serialisation


def certificate_to_json(cert):
    doc = {
        "h_factors": [{"theta": list(f.theta), "source": f.source,
                       "member": f.member} for f in cert.h_factors],
        "remainder": format_poly(cert.remainder),
        "cofactors": [{"c": format_poly(c.c), "theta": list(c.theta),
                       "member": c.member} for c in cert.cofactors],
        "steps": [{"leader": str(s.leader), "case": s.case,
                   "degree": s.degree} for s in cert.steps],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def certificate_from_json(text, algebra):
    doc = parse_json(text)
    try:
        h_factors = tuple(
            HFactor(tuple(int(e) for e in f["theta"]), f["source"],
                    int(f["member"]))
            for f in doc.get("h_factors", ()))
        remainder = parse_poly(doc["remainder"], algebra)
        cofactors = tuple(
            Cofactor(parse_poly(c["c"], algebra),
                     tuple(int(e) for e in c["theta"]), int(c["member"]))
            for c in doc.get("cofactors", ()))
        steps = tuple(
            Step(parse_variable(s["leader"], algebra), s["case"],
                 int(s["degree"]))
            for s in doc.get("steps", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ExprParseError(f"malformed certificate: {exc!r}")
    return ReductionCertificate(h_factors, remainder, cofactors, steps)
