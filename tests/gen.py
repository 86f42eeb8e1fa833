"""Seeded random generators shared by the module and acceptance tests."""

from fractions import Fraction

from dstar.classical import DiffPolynomial, DiffVar
from dstar.ordering import DVariable
from dstar.poly import DPolynomial, Monomial

COEFFS = [Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]


def rand_theta(rng, algebra, max_sum):
    total = rng.randint(0, max_sum)
    theta = [0] * algebra.M
    for _ in range(total):
        theta[rng.randrange(algebra.M)] += 1
    return tuple(theta)


def rand_variable(rng, algebra, n_vars=2, max_sum=3):
    return DVariable(rng.randint(1, n_vars), rand_theta(rng, algebra, max_sum))


def rand_poly(rng, algebra, n_vars=2, max_sum=3, max_deg=3, max_terms=3,
              nonconstant=False, constants=True):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            n_factors = rng.randint(0 if constants else 1, 2)
            mono = {}
            for _ in range(n_factors):
                v = rand_variable(rng, algebra, n_vars, max_sum)
                mono[v] = mono.get(v, 0) + 1
            if sum(mono.values()) > max_deg:
                continue
            key = Monomial.of(mono)
            terms[key] = terms.get(key, Fraction(0)) + rng.choice(COEFFS)
        p = DPolynomial(algebra, terms)
        if p.is_zero():
            continue
        if nonconstant and p.is_constant():
            continue
        return p


def rand_divisors(rng, algebra, ranking, n_vars=2, max_sum=2, max_deg=3,
                  count=None):
    """Divisor sets with pairwise distinct leaders."""
    count = count or rng.randint(1, 2)
    while True:
        divisors = [rand_poly(rng, algebra, n_vars, max_sum, max_deg,
                              max_terms=2, nonconstant=True)
                    for _ in range(count)]
        leaders = [f.leader(ranking) for f in divisors]
        if len(set(leaders)) == len(leaders):
            return divisors


def rand_reduction_instance(rng, algebra, ranking, n_vars=2):
    """Divisors plus a reducend biased to contain transforms of the leaders."""
    divisors = rand_divisors(rng, algebra, ranking, n_vars=n_vars)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = {}
        if rng.random() < 0.8:
            u = rng.choice(divisors).leader(ranking)
            theta = rand_theta(rng, algebra, rng.randint(0, 2))
            v = DVariable(u.var, tuple(a + b for a, b in zip(u.theta, theta)))
            mono[v] = rng.randint(1, 3)
        if rng.random() < 0.5:
            w = rand_variable(rng, algebra, n_vars, 2)
            mono[w] = mono.get(w, 0) + 1
        key = Monomial.of(mono)
        terms[key] = terms.get(key, Fraction(0)) + rng.choice(COEFFS)
    g = DPolynomial(algebra, terms)
    if g.is_zero():
        g = DPolynomial.constant(algebra, 1)
    return g, divisors


def rand_diff_poly(rng, n_vars=1, max_order=3, max_deg=3, max_terms=3,
                   nonconstant=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = {}
            for _ in range(rng.randint(0, 2)):
                v = DiffVar(rng.randint(0, max_order), rng.randint(1, n_vars))
                mono[v] = mono.get(v, 0) + 1
            if sum(mono.values()) > max_deg:
                continue
            key = tuple(sorted(mono.items()))
            terms[key] = terms.get(key, Fraction(0)) + Fraction(
                rng.choice([-3, -2, -1, 1, 2, 3]))
        p = DiffPolynomial(terms)
        if p.is_zero():
            continue
        if nonconstant and p.is_constant():
            continue
        return p


def rand_linear_diff_poly(rng, n_vars=1, max_order=2, max_terms=3,
                          nonconstant=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            if rng.random() < 0.8:
                v = DiffVar(rng.randint(0, max_order), rng.randint(1, n_vars))
                key = ((v, 1),)
            else:
                key = ()
            terms[key] = terms.get(key, Fraction(0)) + Fraction(
                rng.choice([-3, -2, -1, 1, 2, 3]))
        p = DiffPolynomial(terms)
        if p.is_zero():
            continue
        if nonconstant and p.is_constant():
            continue
        return p


def rand_diff_system(rng, n_vars=None, max_order=2, max_deg=3, linear=False):
    """Divisor family with distinct leaders plus a reducend."""
    n_vars = n_vars or rng.choice([1, 1, 2])
    while True:
        if linear:
            divisors = [rand_linear_diff_poly(rng, n_vars, max_order,
                                              nonconstant=True)
                        for _ in range(rng.randint(1, 2))]
        else:
            divisors = [rand_diff_poly(rng, n_vars, max_order, max_deg, 2,
                                       nonconstant=True)
                        for _ in range(rng.randint(1, 2))]
        leaders = [a.leader() for a in divisors]
        if len(set(leaders)) == len(leaders):
            break
    g = rand_diff_poly(rng, n_vars, 3, max_deg, 3)
    return g, divisors
