"""Exact sparse polynomials in operator variables.

Terms map monomials to nonzero exact coefficients: an int when the
coefficient is integral, else a Fraction with denominator > 1, never a
float.  Every coefficient is stored through ordering._coefficient, which
also rejects any other type with a TypeError.

A monomial is keyed by interned variable ids.  The first time a
DVariable is met it gets the next small int id; ids are never reused,
and a miss takes a lock, so two threads cannot give one variable two ids
or two variables one id.  The table is process-wide, not per algebra,
because a monomial is built without an algebra, and block images
(operators.py) key their outputs through the same numbering.  It keeps
alive every variable it has met (99 over the whole reduce-c6 stream).  A
monomial stores only its key, the flat tuple (id, exponent, id,
exponent, ...) in ascending id order with exponents >= 1, and the key's
hash, computed once; so equality, hashing and the product compare and
add plain ints.  The product is one linear merge of two keys, or, when
either key is one variable power (most products in pseudo-reduction,
whose multipliers are often a bare variable), a bump of that variable's
exponent or an insertion at its place, found by bisection.  Exponents are
unbounded ints.  Its factors, ((DVariable, exponent), ...) sorted by
DVariable order, are decoded from the key when read.  Ids never decide an
order: leaders, printing and sort keys order by DVariable or by a ranking
key.

All arithmetic is exact and results are canonical (no zero coefficients,
deduplicated monomials); each operation judges only the coefficients it
can change.  The normalising constructor serves callers' term dicts and
constant: it raises TypeError for a key that is not a Monomial, and
judges every coefficient through _judged, as the general product does
for its own dict; any other result, zero included, is canonical by
construction and wrapped as it is (_nonzero).  Negation, coefficient
extraction (one walk, _split_at, whose halves reduction's step reads),
derivatives, scaling and products by one term merge and zero nothing:
only a derivative's c * k, a scaling's products and a term product's
c1 * c with c not 1 are judged.  Every sum goes through _plus, so the
result keeps the left operand's order, then the addend's new monomials
in its order.  The rank accessors (leader, degree, initial, separant) and
the rank order read one walk, DPolynomial._rank, under a ranking that
defaults to sequential.  A public call judges a polynomial argument with
check_polynomial, and an exponent, a degree or a bound with check_natural.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_left
from fractions import Fraction
from itertools import chain

from .errors import AlgebraMismatch, ConstantPolynomial, DStarError
from .ordering import (
    EQUAL, GREATER, LESS, DVariable, Frozen, SequentialRanking, _coefficient,
    check_index, check_multi_index, check_variable, sequential_key)


_IDS = {}            # DVariable -> id
_VARIABLES = []      # id -> DVariable
_INTERN_LOCK = threading.Lock()


def _intern(v):
    """v's id in the process-wide table, assigned on first sight."""
    i = _IDS.get(v)
    if i is None:
        with _INTERN_LOCK:
            i = _IDS.get(v)
            if i is None:
                # publish the variable before its id, for lock-free readers
                i = len(_VARIABLES)
                _VARIABLES.append(v)
                _IDS[v] = i
    return i


def _pairs(key):
    """The (DVariable, exponent) pairs of a key, in id order."""
    return zip(map(_VARIABLES.__getitem__, key[::2]), key[1::2])


class Monomial(Frozen):
    """Product of variable powers, immutable and hashed once.

    key is the tuple (id, exponent, ...) in ascending id order, with
    exponents >= 1; factors is ((DVariable, exponent), ...) sorted by
    DVariable order, decoded from the key on each read.  The constructor,
    the one check of factors (in any order), drops zero exponents.  Every
    fault is raised before any variable is interned.  A variable that is
    not a DVariable is a TypeError, and so is an exponent that is not an
    int (a bool or a float included), since it would print as text
    parse_poly rejects; an indeterminate that is not an int >= 1, or a
    theta entry that is not an int >= 0, is an IndexOutOfRange, since an
    interned variable equal to a well-formed one would print in its place;
    a negative exponent or a repeated variable is a ValueError.
    The kernel builds its monomials through _monomial, which checks
    nothing.
    """

    __slots__ = ("key", "_hash")
    _args = ("factors",)

    def __init__(self, factors):
        exponents = {}
        for v, e in factors:
            _judged_variable(v)
            if type(e) is not int:
                raise TypeError(f"exponent {e!r} is not an int")
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if v in exponents:
                raise ValueError(f"variable {v} repeated in monomial")
            exponents[v] = e
        key = tuple(chain.from_iterable(sorted(
            [(_intern(v), e) for v, e in exponents.items() if e])))
        _set_key(self, key)
        _set_monomial_hash(self, hash(key))

    @property
    def factors(self):
        return tuple(sorted(_pairs(self.key)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self._hash == other._hash and self.key == other.key

    @staticmethod
    def of(mapping):
        """The monomial of a {DVariable: exponent} map, checked by the constructor."""
        return Monomial(mapping.items())

    def degree_in(self, v):
        return self.without(v)[0]

    def variables(self):
        return [v for v, _ in self.factors]

    def mul(self, other):
        """The product: one linear merge of the two keys, or, when either key
        holds one variable, that variable's exponent bumped or inserted."""
        a, b = self.key, other.key
        if not b:
            return self
        if not a:
            return other
        if len(a) == 2:
            a, b = b, a     # the product commutes, and so does the merge below
        if len(b) == 2:
            # b is one variable power: bump its exponent in a, or insert it
            v = b[0]
            ids = a[::2]
            k = bisect_left(ids, v)
            p = 2 * k
            if k < len(ids) and ids[k] == v:
                return _monomial(a[:p + 1] + (a[p + 1] + b[1],) + a[p + 2:])
            return _monomial(a[:p] + b + a[p:])
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            v = a[i]
            w = b[j]
            if v == w:
                out += (v, a[i + 1] + b[j + 1])
                i += 2
                j += 2
            elif v < w:
                out += a[i:i + 2]
                i += 2
            else:
                out += b[j:j + 2]
                j += 2
        return _monomial(tuple(out) + a[i:] + b[j:])

    def without(self, v):
        """Split off the power of v: returns (exponent, monomial without v)."""
        key, i = self.key, _IDS.get(check_variable(v))
        ids = key[::2]
        if i not in ids:
            return 0, self
        p = 2 * ids.index(i)
        return key[p + 1], _monomial(key[:p] + key[p + 2:])

    def sort_key(self):
        """Descending canonical order key (higher key prints first)."""
        return tuple(sorted(((sequential_key(v), e) for v, e in _pairs(self.key)),
                            reverse=True))


def _judged_variable(v):
    """v, judged as Monomial judges a factor's variable before it is interned."""
    if v.__class__ is not DVariable:
        raise TypeError(f"variable {v!r} is not a DVariable")
    check_index(v.var, 1, float("inf"), "indeterminate index")
    theta = v.theta     # entries judged at its own length; an algebra judges that
    check_multi_index(len(theta) if isinstance(theta, tuple) else 0, theta)
    return v


# slot setters for constructors: they bypass the immutability guard and
# cost less than object.__setattr__
_set_key = Monomial.key.__set__
_set_monomial_hash = Monomial._hash.__set__


def _monomial(key):
    """The Monomial of a key already in canonical form."""
    m = object.__new__(Monomial)
    _set_key(m, key)
    _set_monomial_hash(m, hash(key))
    return m


def _variable_monomial(v):
    """The Monomial v^1 of a variable judged already."""
    return _monomial((_intern(v), 1))


def _monomial_power(m, e):
    """The Monomial m^e, for an int e >= 0."""
    return _monomial(tuple([x * e if k & 1 else x for k, x in enumerate(m.key if e else ())]))


UNIT_MONOMIAL = Monomial(())


class DPolynomial(Frozen):
    """Sparse polynomial over Q in the operator variables of one algebra."""

    __slots__ = ("algebra", "terms")
    _args = ("algebra", "terms")

    def __init__(self, algebra, terms):
        for m in terms:
            if m.__class__ is not Monomial:
                raise TypeError(f"term key {m!r} is not a Monomial")
        _set_algebra(self, algebra)
        _set_terms(self, _judged(terms))

    @staticmethod
    def _nonzero(algebra, terms):
        """Wrap a term dict of nonzero coefficients in stored form, as it is."""
        f = object.__new__(DPolynomial)
        _set_algebra(f, algebra)
        _set_terms(f, terms)
        return f

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(algebra):
        return DPolynomial._nonzero(algebra, {})

    @staticmethod
    def constant(algebra, value):
        return DPolynomial(algebra, {UNIT_MONOMIAL: value})

    @staticmethod
    def from_variable(algebra, v):
        check_variable(v, algebra.M)
        return DPolynomial._nonzero(algebra, {_variable_monomial(_judged_variable(v)): 1})

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        # the terms are distinct monomials, so a constant has at most one: the unit
        terms = self.terms
        return not terms or (len(terms) == 1 and UNIT_MONOMIAL in terms)

    def variables(self):
        return set(self.degrees())

    def degrees(self):
        """{variable: highest exponent} over the variables present, in one pass."""
        out = {}
        for m in self.terms:
            key = iter(m.key)
            for i, e in zip(key, key):
                if e > out.get(i, 0):
                    out[i] = e
        return {_VARIABLES[i]: e for i, e in out.items()}

    def __eq__(self, other):
        if not isinstance(other, DPolynomial):
            return NotImplemented
        # identity first, as in _coerce
        return ((self.algebra is other.algebra or self.algebra == other.algebra)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def __repr__(self):
        return f"DPolynomial({format_poly(self)})"

    def __str__(self):
        return format_poly(self)

    # -- ring arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DPolynomial):
            # identity first: the polynomials of one family share one algebra object
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise AlgebraMismatch("operands live over different algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return DPolynomial.constant(self.algebra, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other.terms.items())

    __radd__ = __add__

    def __neg__(self):
        return DPolynomial._nonzero(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus((m, -c) for m, c in other.terms.items())

    def _plus(self, addend):
        """self + the (monomial, stored nonzero coefficient) pairs of addend.

        self's terms are canonical already, so only the addend's terms are
        judged: a new monomial is stored as it is, a sum is stored through
        _coefficient, and a sum of zero deletes its term.
        """
        out = dict(self.terms)
        for m, c in addend:
            old = out.get(m)
            if old is None:
                out[m] = c
            else:
                c = _coefficient(old + c)
                if c:
                    out[m] = c
                else:
                    del out[m]
        return DPolynomial._nonzero(self.algebra, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        # the class test first: most products are of two polynomials, and
        # Fraction's instance check runs through its ABC metaclass
        if other.__class__ is not DPolynomial and isinstance(other, (int, Fraction)):
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
                old = out.get(m)
                out[m] = c1 * c2 if old is None else old + c1 * c2
        return DPolynomial._nonzero(self.algebra, _judged(out))

    def _times_term(self, m, c):
        """self * (c * m); m is a monomial and c a nonzero coefficient."""
        # multiplying by a monomial is injective, so no two terms merge
        if not m.key:
            # a product by one is self: polynomials are immutable
            return self if c == 1 else self.scalar_mul(c)
        if c == 1:
            # each stored coefficient times 1 is itself, already in stored form
            return DPolynomial._nonzero(
                self.algebra, {m1.mul(m): c1 for m1, c1 in self.terms.items()})
        return DPolynomial._nonzero(
            self.algebra,
            {m1.mul(m): _coefficient(c1 * c) for m1, c1 in self.terms.items()})

    __rmul__ = __mul__

    def scalar_mul(self, c):
        c = _coefficient(c)
        if not c:
            return DPolynomial.zero(self.algebra)
        return DPolynomial._nonzero(
            self.algebra, {m: _coefficient(c * cf) for m, cf in self.terms.items()})

    def __pow__(self, exponent):
        check_natural(exponent, "exponent must be a natural number")
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

    def _rank(self, ranking=None):
        """(leader, ranking.key(leader), degree), from one walk of the degrees.

        Distinct variables of equal rank (possible only under a key that is
        not injective) go to the lowest in DVariable order, as in a_leader.
        """
        degrees = self.degrees()
        if not degrees:
            raise ConstantPolynomial("constants have no leader")
        key = (ranking or SequentialRanking(self.algebra)).key
        keys = list(map(key, degrees))
        top = max(keys)
        # DVariable order decides among equal maximal keys alone
        u = min([v for v, k in zip(degrees, keys) if k == top])
        return u, top, degrees[u]

    def leader(self, ranking=None):
        """The highest-ranked variable."""
        return self._rank(ranking)[0]

    def degree_in(self, v):
        return self.degrees().get(check_variable(v, self.algebra.M), 0)

    def coefficient_in(self, v, k):
        """The v-free g_k of sum g_k * v^k (zero if absent); k an int (not a bool) >= 0."""
        check_variable(v, self.algebra.M)
        check_natural(k, "degree must be a natural number")
        return self._split_at(v, k, k)[0]

    def _split_at(self, v, d, e):
        """(the terms of v-degree d with v's exponent lowered by e, the rest).

        One walk of the terms; 0 <= e <= d.  Lowering slices the key: it
        drops v when e == d and rewrites its exponent otherwise, so it costs
        no monomial product.  Distinct monomials of one v-degree differ off
        v, so none merge, and both halves are canonical as they are.
        """
        i = _IDS.get(v)
        lowered, rest = {}, {}
        for m, c in self.terms.items():
            key = m.key
            ids = key[::2]
            if i in ids:
                p = 2 * ids.index(i)
                if key[p + 1] == d:
                    if e == d:
                        m = _monomial(key[:p] + key[p + 2:])
                    elif e:
                        m = _monomial(key[:p + 1] + (d - e,) + key[p + 2:])
                    lowered[m] = c
                    continue
            elif not d:
                lowered[m] = c
                continue
            rest[m] = c
        return (DPolynomial._nonzero(self.algebra, lowered),
                DPolynomial._nonzero(self.algebra, rest))

    def degree(self, ranking=None):
        return self._rank(ranking)[2]

    def initial(self, ranking=None):
        u, _, d = self._rank(ranking)
        return self._split_at(u, d, d)[0]

    def separant(self, ranking=None):
        """Derivative with respect to the leader u."""
        return self._derivative(self.leader(ranking))

    def _derivative(self, v):
        """Derivative with respect to v, a variable of self."""
        i = _IDS[v]
        # lowering v's exponent keeps the key in id order, and distinct terms
        # containing v stay distinct, so nothing merges; c * k is nonzero
        out = {}
        for m, c in self.terms.items():
            key = m.key
            ids = key[::2]
            if i in ids:
                p = 2 * ids.index(i)
                k = key[p + 1]
                lowered = key[p + 2:] if k == 1 else (i, k - 1) + key[p + 2:]
                out[_monomial(key[:p] + lowered)] = _coefficient(c * k)
        return DPolynomial._nonzero(self.algebra, out)


# DPolynomial's slot setters, as for Monomial above
_set_algebra = DPolynomial.algebra.__set__
_set_terms = DPolynomial.terms.__set__


def check_polynomial(f, algebra=None, user="a call"):
    """f, a DPolynomial over the algebra if one is given, else AlgebraMismatch."""
    if not isinstance(f, DPolynomial):
        raise AlgebraMismatch(f"{f!r} is not a polynomial")
    # identity first: the polynomials of one family share one algebra object
    if algebra is not None and f.algebra is not algebra and f.algebra != algebra:
        raise AlgebraMismatch(f"{user} over one algebra met a polynomial over another")
    return f


def check_natural(n, message):
    """ValueError(message) unless n is an int (not a bool) >= 0."""
    if type(n) is not int or n < 0:
        raise ValueError(message)


def _judged(terms):
    """The terms with each coefficient in stored form and the zeros dropped."""
    out = {}
    for m, c in terms.items():
        c = _coefficient(c)
        if c:  # a zero is the int 0 once stored
            out[m] = c
    return out


def _rank_tuple(f, ranking):
    """(is_nonconstant, key(leader), degree): compares as the ranks do."""
    if f.is_constant():
        return (0, (), 0)
    return (1,) + f._rank(ranking)[1:]


def rank_compare(f, g, ranking=None):
    """Pre-order on polynomials over one algebra by (leader, degree); constants lowest."""
    algebra, other = check_polynomial(f).algebra, check_polynomial(g).algebra
    # identity first, as in check_polynomial
    if algebra is not other and algebra != other:
        raise AlgebraMismatch("rank comparison across algebras")
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
    monomial in descending sequential rank.  A number too long to print
    under the interpreter's int/str conversion limit is a DStarError.
    """
    if check_polynomial(f).is_zero():
        return "0"
    ordered = sorted(f.terms.items(), key=lambda it: it[0].sort_key(), reverse=True)
    chunks = []
    try:
        for idx, (m, c) in enumerate(ordered):
            factors = _format_monomial(m)
            if not factors or abs(c) != 1:
                factors = [format_fraction(abs(c))] + factors
            body = " * ".join(factors)
            if idx:
                chunks.append(f" {'-' if c < 0 else '+'} {body}")
            else:
                chunks.append(f"-{body}" if c < 0 else body)
    except ValueError:  # str() of an int past the int/str conversion limit
        raise DStarError(
            f"a number in the result has more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's int/str conversion limit") from None
    return "".join(chunks)


def poly_sort_key(f, ranking=None):
    """Total deterministic order on polynomials: rank first, then terms."""
    return _sort_key(f, _rank_tuple(f, ranking), map(Monomial.sort_key, f.terms))


def _sort_key(f, rank_tuple, keys):
    """poly_sort_key of f, given f's _rank_tuple and its monomials' sort keys
    in term order."""
    return (rank_tuple, tuple(sorted(zip(keys, f.terms.values()), reverse=True)))


def monic(f):
    """Scale so the canonically-leading coefficient is 1; f itself when it is."""
    return _keyed_monic(f)[0]


def _keyed_monic(f):
    """(monic(f), the sort keys of its monomials in term order), each key made once.

    Scaling keeps every monomial and the order of the terms, so the keys
    are those of f's terms and of monic(f)'s alike.  Distinct monomials
    have distinct keys, so the lead is decided by its key alone.
    """
    keys = [m.sort_key() for m in f.terms]
    if not keys:
        return f, keys
    lead = max(zip(keys, f.terms.values()))[1]
    return (f if lead == 1 else f.scalar_mul(Fraction(1) / lead)), keys
