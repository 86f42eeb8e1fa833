"""Reduction of polynomials modulo a divisor set, with checkable certificates.

A polynomial is reduced with respect to a divisor f when it contains no
delta-transform of f's leader and every sigma-transform of that leader
(including the leader itself) appears below f's degree.  There is one
walk of offending (variable, divisor) pairs, _offending: a_leader ranks
its pairs, and reduce calls a_leader at every step, while
is_reduced_wrt_set stops at the first pair.  The
reduction loop repeatedly eliminates the highest-ranked offending
variable, multiplying by a sigma-transform of the divisor's separant
(delta case) or initial (sigma case).  Every run returns a certificate
witnessing the exact identity H * g = g0 + sum_k c_k * theta_k(a_k).

A step that eliminates v^d from g = C * v^d + rest by theta(a), with
multiplier m and v^e the power of v that m multiplies in theta(a) (e is 1
in the delta case and a's degree in the sigma case), forms the textbook
m * g - C * v^(d-e) * theta(a) as

    m * rest - C * v^(d-e) * (theta(a) - m * v^e),

which is the same polynomial for every m and theta(a): the two products
the textbook step forms only to cancel, m * C * v^d and
C * v^(d-e) * m * v^e, are never formed.  C * v^(d-e), the step's raw
cofactor, and rest come from one walk of g; the tail theta(a) - m * v^e
comes from one such walk of theta(a), whose v^e coefficient is checked
to be m.

Every call takes its divisors as a DivisorSet or as a plain sequence.  A
DivisorSet makes each member's rank record once, when the member is added:
its DPolynomial._rank, or None for a constant, and no other flag.  It
derives initials and separants from the record and keeps one memo of
operator images, of its members, initials and separants, for as long as the
set lives; a caller that reduces many polynomials by the same divisors, such
as one round of characteristic-set completion, builds the set once and
passes it to every call.  A plain list or tuple is wrapped in a set, and
the module keeps the last such set: a later call whose sequence holds the
same member objects in the same order, under the same ranking object (or
with none, over the same algebra object), reuses its rank records and
images, so verify_certificate after reduce on one list recomputes none of
the images reduce made.  Any other sequence, an iterator included, gets a
fresh set.  The kept set is never handed out, so nothing adds to it, and
one is kept at a time, so at most one set's members and images outlive a
call.  Memo keys are exact and images a pure function of immutable
members, so a shared memo never changes a result or lets a forged
certificate pass: every check still forms H, each cofactor product, the
sum, the identity, reducedness and the rank bound.
"""

from __future__ import annotations

from operator import is_

from .errors import (
    AlgebraMismatch,
    BadWitness,
    ConstantDivisor,
    ConstantPolynomial,
    DStarError,
    DuplicateLeaders,
    ExprParseError,
    IndexOutOfRange,
)
from .operators import _compose, _rho
from .ordering import (
    Record,
    SequentialRanking,
    _ord_delta,
    check_index,
    check_multi_index,
    multi_index_fault,
    parse_variable,
    transform_of,
)
from .parser import json_int, parse_json, parse_poly
from .poly import DPolynomial, _rank_tuple, check_polynomial, format_poly

INITIAL = "initial"
SEPARANT = "separant"


class HFactor(Record):
    # theta is sigma-only, source INITIAL or SEPARANT, member 0-based
    __slots__ = _args = ("theta", "source", "member")


class Cofactor(Record):
    __slots__ = _args = ("c", "theta", "member")

    def __iter__(self):     # unpacks like a closure witness's term
        return iter((self.c, self.theta, self.member))


class Step(Record):
    # leader: the offending variable of this step; case: "delta" or "sigma"
    __slots__ = _args = ("leader", "case", "degree")


class ReductionCertificate(Record):
    __slots__ = _args = ("h_factors", "remainder", "cofactors", "steps")


class ALeader(Record):
    __slots__ = _args = ("variable", "degree", "member", "theta", "is_delta")


class DivisorSet:
    """A divisor list under one ranking, with its per-member data built once.

    Its memo of operator images (module docstring) is keyed by (member,
    source, theta), where source is None for the member itself; a miss
    composes the operators unjudged, theta and the member being judged
    already.  image judges its arguments and reads the memo through _image,
    which reduce and the certificate check call directly with the indices
    they made or judged.  A set is used only under its own ranking.  A set the caller
    builds is the caller's: the module keeps only the sets it wraps plain
    lists and tuples in.  Constant members and members that
    share a leader are accepted here and rejected by the calls that forbid
    them, as for a list; a None rank record is how they tell.
    """

    def __init__(self, members=(), ranking=None):
        try:
            members = list(members)
        except TypeError:
            raise AlgebraMismatch(f"{members!r} is not a sequence of polynomials") from None
        if ranking is None:
            if not members:
                raise ValueError("an empty divisor set needs a ranking")
            ranking = SequentialRanking(check_polynomial(members[0]).algebra)
        self.ranking = ranking
        self.members = []
        self.ranks = []
        self._images = {}
        for f in members:
            self.add(f)

    def add(self, f):
        """Append f as the next member."""
        check_polynomial(f, self.ranking.algebra, "a divisor set")
        self._add_ranked(f, None if f.is_constant() else f._rank(self.ranking))

    def _add_ranked(self, f, rank):
        """Append f, over the set's algebra, with rank, its record made by the caller."""
        self.members.append(f)
        self.ranks.append(rank)

    def image(self, member, source, theta):
        """theta applied to a member (source None), its initial or separant."""
        # judged before the lookup: an unhashable source or member would break
        # it, and a member -1 or True would read another member's image
        if source is not None and source not in (INITIAL, SEPARANT):
            raise ValueError(f"{source!r} is not an image source")
        check_index(member, 0, len(self.members) - 1, "member index")
        # theta too: (0, True, 0) and (0, 1, 0) are one key; a list is keyed as its tuple
        check_multi_index(self.ranking.algebra.M, theta)
        return self._image(member, source, tuple(theta))

    def _image(self, member, source, theta):
        """image unjudged: member an int in range, source None, INITIAL or
        SEPARANT, and theta a tuple multi-index of ints, as the engine makes
        them and the certificate judges pass them."""
        key = (member, source, theta)
        img = self._images.get(key)
        if img is None:
            f = self.members[member]
            if source is not None:
                if self.ranks[member] is None:
                    raise ConstantPolynomial("constants have no leader")
                u, _, d = self.ranks[member]
                f = f._split_at(u, d, d)[0] if source == INITIAL else f._derivative(u)
            img = self._images[key] = _compose(f, theta)
        return img


# (ranking argument, or g's algebra when there is none; the set) of the last
# list or tuple _divisor_set wrapped; read once and replaced whole, so a race
# between threads costs a rebuild, never a wrong set
_last_wrapped = None


def _divisor_set(divisors, ranking, g):
    """divisors as a DivisorSet over g's algebra.

    A list or tuple holding the members of the last one wrapped, the same
    objects in the same order, under the same ranking key gets that set
    again; any other gets a fresh set, and a list or tuple's becomes the
    one kept (module docstring).  AlgebraMismatch when divisors is not
    iterable, or g or a divisor is not a polynomial over the set's algebra.
    """
    global _last_wrapped
    algebra = check_polynomial(g).algebra
    if isinstance(divisors, DivisorSet):
        if ranking is not None and ranking is not divisors.ranking:
            raise ValueError("a divisor set is used only under its own ranking")
    elif type(divisors) in (list, tuple):
        key = ranking or algebra    # a set built without a ranking ranks over g's algebra
        last = _last_wrapped
        if (last is not None and last[0] is key and len(last[1].members) == len(divisors)
                and all(map(is_, last[1].members, divisors))):
            divisors = last[1]
        else:
            divisors = DivisorSet(divisors, ranking or SequentialRanking(algebra))
            _last_wrapped = (key, divisors)
    else:
        divisors = DivisorSet(divisors, ranking or SequentialRanking(algebra))
    check_polynomial(g, divisors.ranking.algebra, "a divisor set")
    return divisors


def is_reduced(g, f, ranking=None):
    """True when g contains no offending transform of f's leader."""
    return is_reduced_wrt_set(g, [f], ranking)


def is_reduced_wrt_set(g, divisors, ranking=None):
    """True when g contains no offending transform of any divisor's leader."""
    return _is_reduced(g, _divisor_set(divisors, ranking, g))


def _is_reduced(g, divisors):
    """is_reduced_wrt_set unjudged: g a polynomial over the set's algebra."""
    if None in divisors.ranks:
        raise ConstantDivisor("cannot reduce with respect to a constant")
    # the first offending pair answers; none is ranked
    return next(_offending(g, divisors), None) is None


def _offending(g, divisors):
    """Each offending (variable, degree, member, transform) of g, in no order.

    A variable offends a divisor when it is a delta-transform of the
    divisor's leader, or a sigma-transform of it (the leader included)
    at a degree no lower than the divisor's.  The pairs of one variable
    come together.  The divisors must be non-constant.
    """
    algebra = g.algebra
    ranks = divisors.ranks
    for v, k in g.degrees().items():
        for idx, (u, _, degree) in enumerate(ranks):
            tr = transform_of(algebra, v, u)
            if tr is not None and (tr.is_delta or k >= degree):
                yield v, k, idx, tr


def a_leader(g, divisors, ranking=None):
    """Highest-ranked offending variable of g, or None when g is reduced.

    The offending pairs are those _offending walks.  Ties across divisors
    go to the member with the highest-ranked leader, then the lowest index;
    distinct variables of equal rank (possible only under a key that is
    not injective) go to the lowest in DVariable order.
    """
    divisors = _divisor_set(divisors, ranking, g)
    if g.is_constant():
        return None
    if None in divisors.ranks:
        raise ConstantPolynomial("constants have no leader")
    key = divisors.ranking.key
    ranks = divisors.ranks
    best = best_rank = seen = None
    for v, k, idx, tr in _offending(g, divisors):
        if v is not seen:   # a variable's pairs come together: one key each
            seen, v_key = v, key(v)
        rank = (v_key, ranks[idx][1], -idx)
        # equal ranks share a member, so an exact tie is between two
        # variables of equal key, and the lower one wins
        if best is None or rank > best_rank or (rank == best_rank and v < best[0]):
            best, best_rank = (v, k, idx, tr), rank
    if best is None:
        return None
    v, k, idx, tr = best
    return ALeader(v, k, idx, tr.theta, tr.is_delta)


def reduce(g, divisors, ranking=None):
    """Reduce g modulo the divisor set and return the certificate.

    Divisors must be non-constant with pairwise distinct leaders; they
    need not be autoreduced.  The (offending variable rank, degree) pair
    strictly decreases lexicographically at each step; this is asserted.
    Step k multiplies the running polynomial by m_k and records a raw
    cofactor; the certificate's c_k is that cofactor times m_{k+1} ... m_n,
    formed once at the end from a running suffix product.  Each step forms
    the textbook step's result without the products that cancel in it, as
    the module docstring sets out.
    """
    divisors = _divisor_set(divisors, ranking, g)
    ranking = divisors.ranking
    if None in divisors.ranks:
        raise ConstantDivisor("divisor sets must not contain constants")
    leaders = [u for u, _, _ in divisors.ranks]
    for a in range(len(leaders)):
        for b in range(a + 1, len(leaders)):
            if leaders[a] == leaders[b]:
                raise DuplicateLeaders(
                    f"divisors {a} and {b} share the leader {leaders[a]}")
    algebra = g.algebra

    current = g
    raw = []        # (cofactor before the later multipliers, theta, H factor)
    steps = []
    prev = None
    while True:
        led = a_leader(current, divisors)
        if led is None:
            break
        rank = (ranking.key(led.variable), led.degree)
        if prev is not None and not rank < prev:
            raise DStarError(
                "internal: reduction measure failed to decrease at "
                f"{led.variable}^{led.degree}")
        prev = rank

        if led.is_delta:
            factor = HFactor(_rho(algebra, led.theta), SEPARANT, led.member)
        else:
            factor = HFactor(led.theta, INITIAL, led.member)
        multiplier = divisors._image(led.member, factor.source, factor.theta)
        e = 1 if led.is_delta else divisors.ranks[led.member][2]
        cof, rest = current._split_at(led.variable, led.degree, e)
        top, tail = divisors._image(led.member, None, led.theta)._split_at(
            led.variable, e, e)
        if top != multiplier:
            raise DStarError(f"internal: the {led.variable}^{e} coefficient of "
                             f"divisor {led.member}'s image is not the multiplier")
        current = multiplier * rest - cof * tail
        raw.append((cof, led.theta, factor))
        steps.append(Step(led.variable, "delta" if led.is_delta else "sigma",
                          led.degree))

    cofactors = []
    suffix = None   # m_{k+1} ... m_n; the product with m_1 is never needed
    for k in range(len(raw) - 1, -1, -1):
        cof, theta, factor = raw[k]
        cofactors.append(Cofactor(cof if suffix is None else cof * suffix,
                                  theta, factor.member))
        if k:   # m_k, from the set's memo
            m = divisors._image(factor.member, factor.source, factor.theta)
            suffix = m if suffix is None else m * suffix
    cofactors.reverse()

    return ReductionCertificate(
        tuple(f for _, _, f in raw), current, tuple(cofactors), tuple(steps))


def multiplier_product(cert, divisors, ranking=None):
    """Recompute H from the certificate's factor list; 1 when it is empty.

    The one judge of a certificate's shape and of its H factors: raises
    BadWitness unless cert is a ReductionCertificate with a polynomial
    remainder and each factor is an HFactor with source initial or
    separant, a member in range and a sigma-only theta.
    """
    _check_certificate(cert)
    return _multiplier_product(cert, _divisor_set(divisors, ranking, cert.remainder))


def _check_certificate(cert):
    """BadWitness unless cert is a ReductionCertificate with a polynomial remainder."""
    if not (isinstance(cert, ReductionCertificate)
            and isinstance(cert.remainder, DPolynomial)):
        raise BadWitness(f"{cert!r} is not a reduction certificate "
                         "with a polynomial remainder")


def _multiplier_product(cert, divisors):
    """multiplier_product of a judged certificate whose remainder is over the
    set's algebra: judges each H factor, then reads its image unjudged."""
    algebra = cert.remainder.algebra
    h = DPolynomial.constant(algebra, 1)
    for factor in _sequence(cert.h_factors, "H factors"):
        if not (isinstance(factor, HFactor) and factor.source in (INITIAL, SEPARANT)):
            raise BadWitness(f"malformed H factor {factor!r}")
        try:
            check_index(factor.member, 0, len(divisors.members) - 1, "member index")
        except IndexOutOfRange:
            raise BadWitness(f"malformed H factor {factor!r}") from None
        _check_theta(algebra, factor.theta, "H-factor theta", sigma_only=True)
        h = h * divisors._image(factor.member, factor.source, factor.theta)
    return h


def _sequence(items, what):
    """items as a tuple; BadWitness when it is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise BadWitness(f"{what} {items!r} is not a sequence") from None


def _check_theta(algebra, theta, what, sigma_only=False):
    """BadWitness unless theta is a tuple and a multi-index, sigma-only if asked."""
    fault = "entry" if type(theta) is not tuple else multi_index_fault(algebra.M, theta)
    if fault == "entry":
        raise BadWitness(f"{what} {theta!r} is not a tuple of integers")
    if fault:
        problem = ("has a negative entry" if fault == "negative"
                   else f"has {len(theta)} slots, algebra has {algebra.M}")
        raise BadWitness(f"{what} {list(theta)} {problem}")
    if sigma_only and _ord_delta(algebra, theta):
        raise BadWitness(f"{what} {list(theta)} is not sigma-only")


def _sum_terms(total, terms, count, image):
    """total + sum c * image(member, theta) over (c, theta, member) terms.

    Sums certificate cofactors and witness combinations alike.  Raises
    BadWitness when terms is not a sequence, or at the first term that is
    not a triple, whose member is not an int in 0..count-1, whose c is not
    a polynomial over total's algebra or whose theta fails _check_theta.
    Each product's terms go, as the product is made, into one total._plus,
    which copies total's terms once and judges only the coefficients that
    the sums change.
    """
    algebra = total.algebra

    def products():
        for term in _sequence(terms, "combination"):
            try:
                c, theta, member = term
            except (TypeError, ValueError):
                raise BadWitness(f"combination term {term!r} is not a triple") from None
            try:
                check_index(member, 0, count - 1, "member index")
                check_polynomial(c, algebra)
            except IndexOutOfRange:
                raise BadWitness(f"combination references generator {member!r}, "
                                 f"only {count} available") from None
            except AlgebraMismatch:
                raise BadWitness(f"combination coefficient {c!r} is not a polynomial "
                                 "over the generators' algebra") from None
            _check_theta(algebra, theta, "combination theta")
            yield from (c * image(member, theta)).terms.items()

    return total._plus(products())


def verify_certificate(g, divisors, cert, ranking=None):
    """Check the certificate identity and postconditions exactly.

    Judges the identity, that the remainder is reduced and that it ranks no
    higher than g, but not the step trace.  The certificate and its H
    factors are judged as multiplier_product judges them, and the cofactors
    by _sum_terms, as closure-witness terms: a malformed certificate, factor,
    term, index, member or polynomial, g or divisor included, is False.
    """
    return _verified_multiplier(g, divisors, cert, ranking) is not None


def _verified_multiplier(g, divisors, cert, ranking=None):
    """The H that verify_certificate forms, when it accepts the certificate;
    else None.

    Each argument is judged once, here: the divisors are wrapped once, and
    multiplier_product's and is_reduced_wrt_set's checks run in their order,
    the remainder's algebra and the rejection of a constant divisor
    included, before and inside their unjudged cores.
    """
    try:
        divisors = _divisor_set(divisors, ranking, g)
        _check_certificate(cert)
        remainder = check_polynomial(cert.remainder, divisors.ranking.algebra,
                                     "a divisor set")
        h = _multiplier_product(cert, divisors)
        rhs = _sum_terms(remainder, cert.cofactors, len(divisors.members),
                         lambda member, theta: divisors._image(member, None, theta))
        ranking = divisors.ranking
        if (h * g == rhs and _is_reduced(remainder, divisors)
                and _rank_tuple(remainder, ranking) <= _rank_tuple(g, ranking)):
            return h
    except DStarError:
        pass
    return None


# ---------------------------------------------------------------------------
# certificate serialisation; closure witnesses share the term codec


def _term_to_json(c, theta, member):
    return {"c": format_poly(c), "theta": list(theta), "member": member}


def _term_from_json(entry, algebra):
    """(c, theta, member) back from JSON; each caller words its own errors."""
    return (parse_poly(entry["c"], algebra), _index_from_json(entry["theta"]),
            json_int(entry["member"]))


def _index_from_json(values):
    return tuple(json_int(e) for e in values)


def certificate_to_json(cert):
    import json
    doc = {
        "h_factors": [{"theta": list(f.theta), "source": f.source,
                       "member": f.member} for f in cert.h_factors],
        "remainder": format_poly(cert.remainder),
        "cofactors": [_term_to_json(*c) for c in cert.cofactors],
        "steps": [{"leader": str(s.leader), "case": s.case,
                   "degree": s.degree} for s in cert.steps],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def certificate_from_json(text, algebra):
    doc = parse_json(text)
    try:
        h_factors = tuple(
            HFactor(_index_from_json(f["theta"]), f["source"], json_int(f["member"]))
            for f in doc.get("h_factors", ()))
        remainder = parse_poly(doc["remainder"], algebra)
        cofactors = tuple(Cofactor(*_term_from_json(c, algebra))
                          for c in doc.get("cofactors", ()))
        steps = tuple(
            Step(parse_variable(s["leader"], algebra), s["case"],
                 json_int(s["degree"]))
            for s in doc.get("steps", ()))
        if any(s.case not in ("delta", "sigma") or s.degree < 1 for s in steps):
            raise ValueError("a step is not delta or sigma of degree >= 1")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ExprParseError(f"malformed certificate: {exc!r}")
    return ReductionCertificate(h_factors, remainder, cofactors, steps)
