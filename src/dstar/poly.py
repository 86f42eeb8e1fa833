"""Exact sparse polynomials in operator variables.

Terms map monomials to nonzero Fraction coefficients; monomials map
variables to positive exponents.  All arithmetic is exact and results are
canonical (no zero coefficients, deduplicated monomials).  The leader,
initial and separant accessors take the ranking as a parameter and
default to the sequential ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraMismatch, ConstantPolynomial
from .ordering import EQUAL, GREATER, LESS, SequentialRanking, sequential_key


@dataclass(frozen=True)
class Monomial:
    """Product of variable powers; factors sorted by intrinsic variable order."""

    factors: tuple  # ((DVariable, exponent), ...) with exponents >= 1

    @staticmethod
    def of(mapping):
        items = tuple(sorted((v, e) for v, e in mapping.items() if e != 0))
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent in monomial")
        return Monomial(items)

    def degree_in(self, v):
        for w, e in self.factors:
            if w == v:
                return e
        return 0

    def variables(self):
        return [v for v, _ in self.factors]

    def mul(self, other):
        merged = dict(self.factors)
        for v, e in other.factors:
            merged[v] = merged.get(v, 0) + e
        return Monomial.of(merged)

    def without(self, v):
        """Split off the power of v: returns (exponent, monomial without v)."""
        # dropping one factor keeps the rest sorted
        rest = tuple(it for it in self.factors if it[0] != v)
        return self.degree_in(v), Monomial(rest)

    def sort_key(self):
        """Descending canonical order key (higher key prints first)."""
        return tuple(sorted(((sequential_key(v), e) for v, e in self.factors),
                            reverse=True))


UNIT_MONOMIAL = Monomial(())


class DPolynomial:
    """Sparse polynomial over Q in the operator variables of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("DPolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(algebra):
        return DPolynomial(algebra, {})

    @staticmethod
    def constant(algebra, value):
        value = Fraction(value)
        if value == 0:
            return DPolynomial.zero(algebra)
        return DPolynomial(algebra, {UNIT_MONOMIAL: value})

    @staticmethod
    def from_variable(algebra, v):
        if len(v.theta) != algebra.M:
            raise AlgebraMismatch(
                f"variable {v} has {len(v.theta)} slots, algebra has {algebra.M}")
        return DPolynomial(algebra, {Monomial.of({v: 1}): Fraction(1)})

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not m.factors for m in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ConstantPolynomial("polynomial is not constant")
        return next(iter(self.terms.values()))

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(m.variables())
        return out

    def degrees(self):
        """{variable: highest exponent} over the variables present, in one pass."""
        out = {}
        for m in self.terms:
            for v, e in m.factors:
                if e > out.get(v, 0):
                    out[v] = e
        return out

    def __eq__(self, other):
        if not isinstance(other, DPolynomial):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def __repr__(self):
        return f"DPolynomial({format_poly(self)})"

    def __str__(self):
        return format_poly(self)

    # -- ring arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DPolynomial):
            if other.algebra != self.algebra:
                raise AlgebraMismatch("operands live over different algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return DPolynomial.constant(self.algebra, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return DPolynomial(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return DPolynomial(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return DPolynomial(self.algebra, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(other.terms) == 1:
            return self._times_term(*next(iter(other.terms.items())))
        if len(self.terms) == 1:
            return other._times_term(*next(iter(self.terms.items())))
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return DPolynomial(self.algebra, out)

    def _times_term(self, m, c):
        """self * (c * m); m is a monomial and c a nonzero coefficient."""
        # multiplying by a monomial is injective, so no two terms merge
        if not m.factors:
            return self.scalar_mul(c)
        return DPolynomial(self.algebra,
                           {m1.mul(m): c1 * c for m1, c1 in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        return NotImplemented

    def scalar_mul(self, c):
        c = Fraction(c)
        return DPolynomial(self.algebra, {m: c * cf for m, cf in self.terms.items()})

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a natural number")
        result = DPolynomial.constant(self.algebra, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- leader structure ----------------------------------------------------

    def leader(self, ranking=None):
        if self.is_constant():
            raise ConstantPolynomial("constants have no leader")
        ranking = ranking or SequentialRanking(self.algebra)
        # max keeps the first of equal maxima, in the set's iteration order
        return max(self.variables(), key=ranking.key)

    def degree_in(self, v):
        return max((m.degree_in(v) for m in self.terms), default=0)

    def coefficient_in(self, v, k):
        """The v-free g_k of the decomposition sum g_k * v^k (zero if absent)."""
        # distinct monomials with equal v-degree differ off v, so none merge
        out = {}
        for m, c in self.terms.items():
            if m.degree_in(v) == k:
                out[m.without(v)[1]] = c
        return DPolynomial(self.algebra, out)

    def degree(self, ranking=None):
        return self.degree_in(self.leader(ranking))

    def initial(self, ranking=None):
        u = self.leader(ranking)
        return self.coefficient_in(u, self.degree_in(u))

    def separant(self, ranking=None):
        """Derivative with respect to the leader u."""
        u = self.leader(ranking)
        # lowering u's exponent keeps the factors sorted, and distinct terms
        # containing u stay distinct, so nothing merges
        out = {}
        for m, c in self.terms.items():
            k = m.degree_in(u)
            if k:
                lowered = tuple((v, e - 1 if v == u else e) for v, e in m.factors
                                if v != u or e > 1)
                out[Monomial(lowered)] = c * k
        return DPolynomial(self.algebra, out)


def _rank_tuple(f, ranking):
    """(is_nonconstant, key(leader), degree): compares as the ranks do."""
    if f.is_constant():
        return (0, (), 0)
    u = f.leader(ranking)
    return (1, ranking.key(u), f.degree_in(u))


def rank_compare(f, g, ranking=None):
    """Pre-order on polynomials by (leader, degree); constants lowest."""
    if isinstance(f, DPolynomial) and isinstance(g, DPolynomial):
        if f.algebra != g.algebra:
            raise AlgebraMismatch("rank comparison across algebras")
    ranking = ranking or SequentialRanking(f.algebra)
    rf, rg = _rank_tuple(f, ranking), _rank_tuple(g, ranking)
    return LESS if rf < rg else GREATER if rf > rg else EQUAL


# ---------------------------------------------------------------------------
# canonical printing


def format_fraction(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_monomial(m):
    # low-to-high rank within a monomial (sigma factors before delta ones),
    # matching the worked operator examples; terms themselves print high first
    factors = sorted(m.factors, key=lambda it: sequential_key(it[0]))
    return [str(v) if e == 1 else f"{v}^{e}" for v, e in factors]


def format_poly(f):
    """Deterministic canonical form; reparses to the identical polynomial.

    Monomials print in descending canonical order, variables within a
    monomial in descending sequential rank.
    """
    if f.is_zero():
        return "0"
    ordered = sorted(f.terms.items(), key=lambda it: it[0].sort_key(), reverse=True)
    chunks = []
    for idx, (m, c) in enumerate(ordered):
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        factors = _format_monomial(m)
        if not factors:
            body = format_fraction(mag)
        elif mag == 1:
            body = " * ".join(factors)
        else:
            body = " * ".join([format_fraction(mag)] + factors)
        if idx == 0:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


def poly_sort_key(f, ranking=None):
    """Total deterministic order on polynomials: rank first, then terms."""
    ranking = ranking or SequentialRanking(f.algebra)
    term_part = tuple(sorted(
        ((m.sort_key(), c) for m, c in f.terms.items()), reverse=True))
    return (_rank_tuple(f, ranking), term_part)


def monic(f):
    """Scale so the canonically-leading coefficient is 1."""
    if f.is_zero():
        return f
    lead = max(f.terms.items(), key=lambda it: it[0].sort_key())
    return f.scalar_mul(Fraction(1) / lead[1])
