"""Multi-indices, operator variables and rankings.

A variable is an indeterminate x_j together with a multi-index theta over
the algebra's operator slots (sigma slot first within each block, then the
delta slots in depth order).  Rankings are total orders on variables
subject to the three compatibility axioms.  A ranking is defined by its
key function alone: v ranks below w exactly when key(v) < key(w), and key
and compare are defined once, in Ranking.  The sequential ranking's key
is (total degree, indeterminate index, slots from highest to lowest).

It also holds the two number rules every layer shares: parse_int, the
one reader of integer literals, and _coefficient, the one form in which
a coefficient is stored; and the judges of index, multi-index and variable
arguments.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from operator import sub

from .errors import AlgebraMismatch, ExprParseError, IndexOutOfRange, InvalidRanking

LESS, EQUAL, GREATER = -1, 0, 1


class Frozen:
    """Base of every immutable value, whose attributes are named in _args.

    Values compare, hash, print, copy and pickle as those attributes, and
    setting or deleting one raises FrozenInstanceError.
    """

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._args])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # slow to import: not at start-up
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class _DataclassAttribute:
    """A record's __dataclass_fields__ or __dataclass_params__, taken from a
    dataclass twin made on first use, not at start-up."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        return getattr(_dataclass_twin(cls), self.name)


@functools.cache
def _dataclass_twin(cls):
    from dataclasses import make_dataclass
    return make_dataclass(cls.__name__, cls._args, frozen=True)


class Record(Frozen):
    """A Frozen value made of the attributes in _args alone.

    Like the frozen dataclass it stands for, it takes them positionally or
    by keyword, and dataclasses' fields(), replace() and asdict() accept it.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassAttribute()
    __dataclass_params__ = _DataclassAttribute()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot setter, found once per class: calling it skips
        # the immutability guard and the by-name lookup of object.__setattr__
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._args])

    def __init__(self, *values, **named):
        if named:
            values += tuple([named.pop(name) for name in self._args[len(values):]
                             if name in named])
        setters = self._setters
        if named or len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes ({', '.join(self._args)})")
        for set_field, value in zip(setters, values):
            set_field(self, value)


@functools.total_ordering
class DVariable(Frozen):
    """The formal image d^theta x_var (var is 1-based).

    Immutable.  Compares and hashes as the tuple (var, theta); the hash is
    computed once, at construction, because variables are hashed inside
    every monomial operation.
    """

    __slots__ = ("var", "theta", "_hash")
    _args = ("var", "theta")

    def __init__(self, var, theta):
        _set_var(self, var)
        _set_theta(self, theta)
        _set_var_hash(self, hash((var, theta)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not DVariable:
            return NotImplemented
        return self.var == other.var and self.theta == other.theta

    def __lt__(self, other):
        if other.__class__ is not DVariable:
            return NotImplemented
        if self.var != other.var:
            return self.var < other.var
        return self.theta < other.theta

    def __str__(self):
        return f"x{self.var}[{','.join(str(e) for e in self.theta)}]"


# slot setters for constructors: they bypass the immutability guard and
# cost less than object.__setattr__
_set_var = DVariable.var.__set__
_set_theta = DVariable.theta.__set__
_set_var_hash = DVariable._hash.__set__


# x<j>[t0,...,t(M-1)]; its pattern is the expression tokenizer's variable rule
VAR_RE = re.compile(r"x(?P<vidx>[0-9]+)\[(?P<slots>[0-9]+(?:,[0-9]+)*)\]")


def parse_int(literal):
    """An integer literal, exactly ASCII -?[0-9]+, as an int.

    A '+', whitespace, '_' or a digit of another script is a parse error,
    and so is a literal longer than the int/str conversion limit.
    """
    digits = literal.removeprefix("-")
    # an ASCII character is a digit only if it is one of 0-9
    if digits.isascii() and digits.isdigit():
        try:
            return int(literal)
        except ValueError:
            problem = (f"has {len(literal.lstrip('-'))} digits, more than "
                       f"{sys.get_int_max_str_digits()}")
    else:
        problem = "is not an optional '-' and ASCII digits"
    shown = literal if len(literal) <= 20 else literal[:20] + "..."
    raise ExprParseError(f"integer literal {shown!r} {problem}")


def _coefficient(c):
    """c as a polynomial stores it: an int when integral, else a Fraction.

    int arithmetic is exact and several times cheaper than Fraction's, so a
    Fraction with denominator 1 is stored as its numerator.  A float, a bool
    or any other type is a TypeError, so no inexact value is ever stored.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def variable_from_match(match, algebra=None):
    """The DVariable of a VAR_RE match, checked against the algebra.

    A fault is an ExprParseError at line 1, column 1; the expression parser
    moves it to the variable's place.
    """
    var = parse_int(match["vidx"])
    if var < 1:
        raise ExprParseError(f"indeterminate index must be >= 1 in {match[0]!r}")
    theta = tuple([parse_int(e) for e in match["slots"].split(",")])
    if algebra is not None and len(theta) != algebra.M:
        raise ExprParseError(
            f"variable {match[0]!r} has {len(theta)} slots, algebra has {algebra.M}")
    return DVariable(var, theta)


def parse_variable(text, algebra=None):
    """Parse the x<j>[t0,...,t(M-1)] literal form."""
    match = VAR_RE.fullmatch(text.strip())
    if not match:
        raise ExprParseError(f"bad variable syntax {text!r}")
    return variable_from_match(match, algebra)


# ---------------------------------------------------------------------------
# the judges of the index, multi-index and variable arguments of every public call


def check_index(k, low, high, what):
    """k, an int (not a bool) in low..high, else IndexOutOfRange naming it as what."""
    if type(k) is not int:
        raise IndexOutOfRange(f"{what} {k!r} is not an int")
    if not low <= k <= high:
        raise IndexOutOfRange(f"{what} {k} out of range {low}..{high}")
    return k


def multi_index_fault(width, theta):
    """None for a multi-index of the width, a tuple or list of one int (not a
    bool) >= 0 per slot, else its first fault: "sequence", "entry", "width"
    or "negative"."""
    if not isinstance(theta, (tuple, list)):
        return "sequence"
    negative = False
    for e in theta:     # one loop: min() and any() cost more on a few entries
        if type(e) is not int:
            return "entry"
        negative = negative or e < 0
    if len(theta) != width:
        return "width"
    return "negative" if negative else None


def check_multi_index(width, theta, owner="algebra"):
    """AlgebraMismatch for a multi-index that is not width slots wide, as for a
    variable, naming the owner of the width, and IndexOutOfRange for any other
    fault."""
    fault = multi_index_fault(width, theta)
    if fault == "width":
        raise AlgebraMismatch(f"multi-index has {len(theta)} slots, {owner} has {width}")
    if fault == "sequence":
        raise IndexOutOfRange(f"multi-index {theta!r} is not a tuple or list")
    if fault:
        kind = "negative" if fault == "negative" else "non-int"
        raise IndexOutOfRange(f"multi-index {list(theta)} has a {kind} entry")


def check_variable(v, width=None):
    """v, a DVariable of width slots when a width is given, else AlgebraMismatch."""
    if v.__class__ is not DVariable:
        raise AlgebraMismatch(f"{v!r} is not a variable")
    if width is not None and len(v.theta) != width:
        raise AlgebraMismatch(f"variable {v} has {len(v.theta)} slots, algebra has {width}")
    return v


def ord_i(algebra, theta, i):
    """Sum of the delta-slot entries of block i (sigma excluded)."""
    check_multi_index(algebra.M, theta)
    return sum(theta[s] for s in algebra.delta_slots(i))


def ord_delta(algebra, theta):
    """Sum of the delta-slot entries of every block: all but the sigma slots."""
    check_multi_index(algebra.M, theta)
    # each block's sigma slot is its offset
    return sum(theta) - sum([theta[s] for s in algebra._offsets[:-1]])


def is_sigma_only(algebra, theta):
    return ord_delta(algebra, theta) == 0


def apply_slot(algebra, v, i, p):
    """Apply operator (i, p) to a variable: add 1 in its slot."""
    return slot_bumps(algebra, check_variable(v), (algebra.slot_index(i, p),))[0]


def slot_bumps(algebra, v, slots):
    """v with 1 added in each of the given global slots, one variable each."""
    if len(v.theta) != algebra.M:
        raise AlgebraMismatch(
            f"variable has {len(v.theta)} slots, algebra has {algebra.M}")
    theta = v.theta
    return [DVariable(v.var, theta[:s] + (theta[s] + 1,) + theta[s + 1:]) for s in slots]


class Transform(Record):
    __slots__ = _args = ("theta", "is_delta")


def transform_of(algebra, v, u):
    """If v = theta(u), return the Transform; otherwise None.

    The identity (theta = 0) counts as a sigma-transform.
    """
    M = algebra.M
    # check_variable's class test inline, as this runs once per pair the scan meets
    if (v.__class__ is not DVariable or u.__class__ is not DVariable
            or len(v.theta) != M or len(u.theta) != M):
        check_variable(v)
        check_variable(u)
        raise AlgebraMismatch(
            f"variables {v}, {u} do not match an algebra with {M} slots")
    vt, ut = v.theta, u.theta
    if v.var != u.var:
        return None
    diff = tuple(map(sub, vt, ut))
    if min(diff, default=0) < 0:
        return None
    tr = object.__new__(Transform)
    _set_transform_theta(tr, diff)
    # ord_delta inline: a delta entry is positive when the sigma entries,
    # each block's slot at its offset, do not make up the whole sum
    _set_is_delta(tr, sum(diff) > sum([diff[s] for s in algebra._offsets[:-1]]))
    return tr


# Transform's slot setters, as for DVariable above
_set_transform_theta = Transform.theta.__set__
_set_is_delta = Transform.is_delta.__set__


# ---------------------------------------------------------------------------
# rankings


class Ranking:
    """Total order on variables, defined by a sort key function."""

    def __init__(self, algebra, key_fn):
        self.algebra = algebra
        self._key_fn = key_fn

    def key(self, v):
        """Sort key: v ranks below w exactly when key(v) < key(w)."""
        if v.__class__ is not DVariable or len(v.theta) != self.algebra.M:
            check_variable(v)
            raise AlgebraMismatch(
                f"variable {v} has {len(v.theta)} slots, "
                f"algebra has {self.algebra.M}")
        return self._key_fn(v)

    def compare(self, v, w):
        """-1, 0 or 1 as v ranks below, level with or above w."""
        kv, kw = self.key(v), self.key(w)
        return LESS if kv < kw else GREATER if kv > kw else EQUAL


def sequential_key(v):
    """Ranking key of the sequential ranking, usable without an algebra."""
    return (sum(v.theta), v.var, tuple(reversed(v.theta)))


class SequentialRanking(Ranking):
    """Lexicographic on (total degree, indeterminate, slots top-down)."""

    def __init__(self, algebra):
        super().__init__(algebra, sequential_key)


class CustomRanking(Ranking):
    """Ranking given by an explicit key function (for tests and tooling)."""


def check_ranking_axioms(ranking, sample_variables):
    """Verify totality and the three ranking axioms on a finite variable sample.

    Totality: distinct sample variables never rank equal.  Mandatory for
    custom rankings before use; raises InvalidRanking with the offending
    instance.
    """
    alg = ranking.algebra
    slots = alg.slot_pairs()
    sample = list(sample_variables)
    for v in sample:
        for (i, p) in slots:
            w = apply_slot(alg, v, i, p)
            if not ranking.key(v) < ranking.key(w):
                raise InvalidRanking(f"axiom 1 fails: {v} !< {w}")
    for v in sample:
        for w in sample:
            kv, kw = ranking.key(v), ranking.key(w)
            if kv == kw and v != w:
                raise InvalidRanking(f"not a total order: {v} and {w} rank equal")
            if not kv < kw:
                continue
            for (i, p) in slots:
                dv, dw = apply_slot(alg, v, i, p), apply_slot(alg, w, i, p)
                if not ranking.key(dv) < ranking.key(dw):
                    raise InvalidRanking(
                        f"axiom 2 fails at slot ({i},{p}): {v} < {w} but "
                        f"{dv} !< {dw}")
    for i, j in slots:
        for k in range(len(alg.block(i).names)):
            if alg.nu(i, j) >= alg.nu(i, k):
                continue
            for v in sample:
                dj, dk = apply_slot(alg, v, i, j), apply_slot(alg, v, i, k)
                if not ranking.key(dj) < ranking.key(dk):
                    raise InvalidRanking(
                        f"axiom 3 fails in block {i}: nu({j}) < nu({k}) "
                        f"but {dj} !< {dk}")


# ---------------------------------------------------------------------------
# Dickson minimality


def dickson_minimal(indices):
    """Minimal elements of a finite multi-index set under componentwise <=.

    Every input element dominates some returned element.  Each index is
    judged as a multi-index as wide as the first.  Processing in ascending
    total-degree order lets each candidate be tested against the kept
    minima only.
    """
    indices = list(indices)
    if indices:
        first = indices[0]
        width = len(first) if isinstance(first, (tuple, list)) else 0
        for theta in indices:
            check_multi_index(width, theta, "the first multi-index")
    seen = sorted(set(map(tuple, indices)), key=lambda t: (sum(t), t))
    minimal = []
    for theta in seen:
        if not any(all(a <= b for a, b in zip(mu, theta)) for mu in minimal):
            minimal.append(theta)
    return minimal
