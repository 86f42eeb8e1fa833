"""Classical oracles: ordinary differential polynomials and Ritt reduction.

This module is deliberately self-contained.  Its polynomial arithmetic and
reduction are written against their own representation so they can serve
as an independent cross-check of the operator-ring reduction.  Lift a
system to the dual numbers, reduce there and project the certificate back
(collapse the sigma slot): the projected certificate is an exact classical
identity whose multipliers are classical initials and separants.  The
remainders agree with reducing here whenever the two runs take the same
steps.  They need not agree otherwise, because reducedness in the dual
ring is per sigma-copy of a classical variable, and Ritt remainders depend
on the order of reduction steps.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebra import builtin, validate_algebra
from .errors import ConstantDivisor, DuplicateLeaders, WrongAlgebra
from .ordering import DVariable, Record
from .poly import DPolynomial, Monomial, check_polynomial


@functools.total_ordering
class DiffVar(Record):
    """The i-th formal derivative of x_var, ordered orderly: (order, var)."""

    __slots__ = _args = ("order", "var")

    def __lt__(self, other):
        if other.__class__ is not DiffVar:
            return NotImplemented
        return (self.order, self.var) < (other.order, other.var)

    def __str__(self):
        if self.order == 0:
            return f"x{self.var}"
        if self.order <= 3:
            return f"x{self.var}" + "'" * self.order
        return f"D^{self.order} x{self.var}"


class DiffPolynomial:
    """Sparse differential polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @staticmethod
    def zero():
        return DiffPolynomial({})

    @staticmethod
    def constant(value):
        value = Fraction(value)
        return DiffPolynomial({(): value} if value else {})

    @staticmethod
    def from_variable(v):
        return DiffPolynomial({((v, 1),): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not m for m in self.terms)

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def __eq__(self, other):
        return isinstance(other, DiffPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPolynomial.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return DiffPolynomial(out)

    def __neg__(self):
        return DiffPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPolynomial.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return DiffPolynomial({m: c * cf for m, cf in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = dict(m1)
                for v, e in m2:
                    merged[v] = merged.get(v, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return DiffPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        result = DiffPolynomial.constant(1)
        for _ in range(e):
            result = result * self
        return result

    def __str__(self):
        if self.is_zero():
            return "0"
        ordered = sorted(self.terms.items(),
                         key=lambda it: _dmono_key(it[0]), reverse=True)
        chunks = []
        for idx, (m, c) in enumerate(ordered):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            factors = [str(v) if e == 1 else f"{v}^{e}"
                       for v, e in sorted(m, reverse=True)]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = " * ".join(factors)
            else:
                body = " * ".join([str(mag)] + factors)
            chunks.append((body if sign == "+" else f"-{body}") if idx == 0
                          else f" {sign} {body}")
        return "".join(chunks)

    __repr__ = __str__

    # -- differential structure ---------------------------------------------

    def derivative(self):
        """Total derivative: Leibniz over every factor of every monomial."""
        out = {}
        for m, c in self.terms.items():
            for v, e in m:
                rest = dict(m)
                if e == 1:
                    del rest[v]
                else:
                    rest[v] = e - 1
                bumped = DiffVar(v.order + 1, v.var)
                rest[bumped] = rest.get(bumped, 0) + 1
                key = tuple(sorted(rest.items()))
                out[key] = out.get(key, Fraction(0)) + c * e
        return DiffPolynomial(out)

    def nth_derivative(self, e):
        out = self
        for _ in range(e):
            out = out.derivative()
        return out

    def leader(self):
        if self.is_constant():
            raise ConstantDivisor("constants have no leader")
        return max(self.variables())

    def degree_in(self, v):
        return max((dict(m).get(v, 0) for m in self.terms), default=0)

    def coefficients_in(self, v):
        parts = {}
        for m, c in self.terms.items():
            as_dict = dict(m)
            k = as_dict.pop(v, 0)
            key = tuple(sorted(as_dict.items()))
            bucket = parts.setdefault(k, {})
            bucket[key] = bucket.get(key, Fraction(0)) + c
        return {k: DiffPolynomial(bucket) for k, bucket in parts.items()
                if any(c != 0 for c in bucket.values())}

    def initial(self):
        u = self.leader()
        return self.coefficients_in(u)[self.degree_in(u)]

    def separant(self):
        u = self.leader()
        out = DiffPolynomial.zero()
        u_poly = DiffPolynomial.from_variable(u)
        for k, g in self.coefficients_in(u).items():
            if k >= 1:
                out = out + (g * k) * u_poly ** (k - 1)
        return out


def _dmono_key(m):
    return tuple(sorted(((v, e) for v, e in m), reverse=True))


# ---------------------------------------------------------------------------
# classical Ritt reduction (independent of the operator-ring reduction)


class RittCertificate(Record):
    # cofactors: (c, derivative_order, member); steps: (variable, case)
    __slots__ = _args = ("h", "remainder", "cofactors", "steps")


def diff_is_reduced(g, f):
    """Classical reducedness: no proper derivative of u_f; u_f below deg f."""
    if f.is_constant():
        raise ConstantDivisor("cannot reduce with respect to a constant")
    if g.is_constant():
        return True
    u = f.leader()
    d = f.degree_in(u)
    for v in g.variables():
        if v.var != u.var or v.order < u.order:
            continue
        if v.order > u.order:
            return False
        if g.degree_in(v) >= d:
            return False
    return True


def ritt_reduce(g, divisors):
    """Classical reduction with the same tie-breaks as the operator ring.

    Proper-derivative steps premultiply by the separant, degree steps by
    the initial; returns the exact certificate
    H * g = g0 + sum_k c_k * d^(e_k)(a_k).
    """
    members = list(divisors)
    for f in members:
        if f.is_constant():
            raise ConstantDivisor("divisor sets must not contain constants")
    leaders = [f.leader() for f in members]
    if len(set(leaders)) != len(leaders):
        raise DuplicateLeaders("divisors share a leader")
    degrees = [f.degree_in(u) for f, u in zip(members, leaders)]

    current = g
    h = DiffPolynomial.constant(1)
    cofactors = []
    steps = []
    while True:
        best = None
        if not current.is_constant():
            for v in sorted(current.variables()):
                k = current.degree_in(v)
                for idx, (u, d) in enumerate(zip(leaders, degrees)):
                    if v.var != u.var or v.order < u.order:
                        continue
                    if v.order == u.order and k < d:
                        continue
                    cand = (v, k, idx)
                    if best is None or cand[0] > best[0] or (
                            cand[0] == best[0]
                            and leaders[idx] > leaders[best[2]]):
                        best = cand
        if best is None:
            break
        v, k, idx = best
        member = members[idx]
        g1 = current.coefficients_in(v)[k]
        v_poly = DiffPolynomial.from_variable(v)
        e = v.order - leaders[idx].order
        if e > 0:
            multiplier = member.separant()
            cof = g1 * v_poly ** (k - 1)
            case = "delta"
        else:
            multiplier = member.initial()
            cof = g1 * v_poly ** (k - degrees[idx])
            case = "sigma"
        transformed = member.nth_derivative(e)
        current = multiplier * current - cof * transformed
        h = h * multiplier
        cofactors = [(c * multiplier, order, m) for c, order, m in cofactors]
        cofactors.append((cof, e, idx))
        steps.append((v, case))

    return RittCertificate(h, current, tuple(cofactors), tuple(steps))


def verify_ritt_certificate(g, divisors, cert):
    members = list(divisors)
    rhs = cert.remainder
    for c, order, idx in cert.cofactors:
        rhs = rhs + c * members[idx].nth_derivative(order)
    if cert.h * g != rhs:
        return False
    return all(diff_is_reduced(cert.remainder, f) for f in members)


# ---------------------------------------------------------------------------
# projection to and from the dual-number operator ring

@functools.cache
def dual_algebra():
    return validate_algebra(builtin("dual"))


def project_to_differential(f):
    """Collapse the sigma slot: d^(a,b) x_j becomes the b-th derivative."""
    if check_polynomial(f).algebra != dual_algebra():
        raise WrongAlgebra("projection is defined over the dual-number algebra")
    out = {}
    for m, c in f.terms.items():
        merged = {}
        for v, e in m.factors:
            dv = DiffVar(v.theta[1], v.var)
            merged[dv] = merged.get(dv, 0) + e
        key = tuple(sorted(merged.items()))
        out[key] = out.get(key, Fraction(0)) + c
    return DiffPolynomial(out)


def lift_to_dual(p):
    """Embed a differential polynomial with all sigma slots zero."""
    algebra = dual_algebra()
    out = DPolynomial.zero(algebra)
    for m, c in p.terms.items():
        monomial = Monomial.of({DVariable(v.var, (0, v.order)): e for v, e in m})
        out = out + DPolynomial(algebra, {monomial: c})
    return out

