"""Seed-driven benchmark inputs, built as expression text through parse_poly.

Every polynomial the benchmark feeds to dstar is written out as an
expression string and parsed with the public parser, so the inputs do not
depend on how DPolynomial is constructed internally.  The criterion-6
stream generator draws from its RNG in exactly the order of
tests/gen.py:rand_reduction_instance, so seed 106 replays the acceptance
suite's stream instance for instance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dstar import SequentialRanking, builtin, d_ideal_generators, parse_poly, validate_algebra

# label -> (builtin name, parameters); the order is the criterion-6 order
BUILTINS = {
    "dual": ("dual", ()),
    "fields:2": ("fields", (2,)),
    "hs:2": ("truncated_hs", (2,)),
    "dd:1,1": ("diff_difference", (1, 1)),
}
# metric-name form of each builtin label
METRIC_LABELS = {"dual": "dual", "fields:2": "fields2", "hs:2": "hs2", "dd:1,1": "dd11"}

COEFFS = [Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]

STREAM_SEED = 106          # the acceptance suite's criterion-6 seed
STREAM_PER_ALGEBRA = 500
SWELL_INSTANCE = ("hs:2", 265)   # 62 steps, intermediates up to 3139 terms

CHARSET_POOL_SEED = 52     # families of the pinned charset pool
CHARSET_POOL_PER_ALGEBRA = 500

# (label, operator, k): apply op^k to x1^k
TOWERS = (
    ("dual", "d1.1", 8),
    ("dual", "d1.1", 12),
    ("dual", "d1.1", 16),
    ("hs:2", "d1.1", 6),
    ("hs:2", "d1.1", 9),
    ("hs:2", "d1.2", 6),
)

PROLONGED_BASE = ("x1[0,1,0] + x1[0,0,1]", "x1[0,0,2] - x1[0,0,0]^2")
PROLONGED_BOUND = 1


def make_algebras():
    """Validate the four builtin algebras, keyed by their CLI names."""
    return {label: validate_algebra(builtin(name, *params))
            for label, (name, params) in BUILTINS.items()}


def algebra_labeler(algebras):
    """Map an algebra to the metric label of the equal builtin, else 'other'."""
    by_algebra = {a: METRIC_LABELS[label] for label, a in algebras.items()}
    return lambda algebra: by_algebra.get(algebra, "other")


# ---------------------------------------------------------------------------
# expression text

def variable_text(var, theta):
    return f"x{var}[{','.join(str(e) for e in theta)}]"


def poly_text(terms):
    """Expression text of {((var, theta), exp)-tuple: Fraction}, zeros dropped."""
    chunks = []
    for key, c in sorted(terms.items()):
        if c == 0:
            continue
        factors = [variable_text(var, theta) + (f"^{e}" if e != 1 else "")
                   for (var, theta), e in key]
        chunks.append(" * ".join([f"({c})"] + factors))
    return " + ".join(chunks) if chunks else "0"


def _monomial_key(mono):
    return tuple(sorted((v, e) for v, e in mono.items() if e != 0))


# ---------------------------------------------------------------------------
# mirror of tests/gen.py (same RNG draws, text output)

def _rand_theta(rng, m, max_sum):
    total = rng.randint(0, max_sum)
    theta = [0] * m
    for _ in range(total):
        theta[rng.randrange(m)] += 1
    return tuple(theta)


def _rand_variable(rng, m, n_vars, max_sum):
    var = rng.randint(1, n_vars)
    return (var, _rand_theta(rng, m, max_sum))


def _rand_poly_text(rng, m, n_vars=2, max_sum=3, max_deg=3, max_terms=3,
                    nonconstant=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = {}
            for _ in range(rng.randint(0, 2)):
                v = _rand_variable(rng, m, n_vars, max_sum)
                mono[v] = mono.get(v, 0) + 1
            if sum(mono.values()) > max_deg:
                continue
            key = _monomial_key(mono)
            terms[key] = terms.get(key, Fraction(0)) + rng.choice(COEFFS)
        live = {k: c for k, c in terms.items() if c != 0}
        if not live:
            continue
        if nonconstant and all(not k for k in live):
            continue
        return poly_text(live)


def _rand_divisors(rng, algebra, ranking, n_vars=2):
    count = rng.randint(1, 2)
    while True:
        divisors = [parse_poly(_rand_poly_text(rng, algebra.M, n_vars, 2, 3,
                                               max_terms=2, nonconstant=True),
                               algebra)
                    for _ in range(count)]
        leaders = [f.leader(ranking) for f in divisors]
        if len(set(leaders)) == len(leaders):
            return divisors


def reduction_instance(rng, algebra, ranking, n_vars=2):
    """Divisors plus a reducend biased to contain transforms of the leaders."""
    divisors = _rand_divisors(rng, algebra, ranking, n_vars)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = {}
        if rng.random() < 0.8:
            u = rng.choice(divisors).leader(ranking)
            theta = _rand_theta(rng, algebra.M, rng.randint(0, 2))
            v = (u.var, tuple(a + b for a, b in zip(u.theta, theta)))
            mono[v] = rng.randint(1, 3)
        if rng.random() < 0.5:
            w = _rand_variable(rng, algebra.M, n_vars, 2)
            mono[w] = mono.get(w, 0) + 1
        key = _monomial_key(mono)
        terms[key] = terms.get(key, Fraction(0)) + rng.choice(COEFFS)
    text = poly_text(terms)
    g = parse_poly(text if text != "0" else "1", algebra)
    return g, divisors


def reduction_stream(algebras, seed=STREAM_SEED, per_algebra=STREAM_PER_ALGEBRA):
    """The criterion-6 stream: one RNG shared across the builtins in order.

    Returns a list of (label, index, g, divisors).
    """
    rng = random.Random(seed)
    out = []
    for label, algebra in algebras.items():
        ranking = SequentialRanking(algebra)
        for index in range(per_algebra):
            g, divisors = reduction_instance(rng, algebra, ranking)
            out.append((label, index, g, divisors))
    return out


# ---------------------------------------------------------------------------
# charset families

def charset_pool(algebras, seed=CHARSET_POOL_SEED, per_algebra=CHARSET_POOL_PER_ALGEBRA):
    """Random families of 2-3 small generators, per_algebra on each builtin.

    Returns a list of (label, index, generators).
    """
    rng = random.Random(seed)
    out = []
    for label, algebra in algebras.items():
        for index in range(per_algebra):
            family = [parse_poly(_rand_poly_text(rng, algebra.M, max_sum=2, max_deg=2,
                                                 max_terms=2, nonconstant=True),
                                 algebra)
                      for _ in range(rng.randint(2, 3))]
            out.append((label, index, family))
    return out


def prolonged_family(algebras):
    """The pinned dd:1,1 family prolonged to order bound 1 (8 generators)."""
    algebra = algebras["dd:1,1"]
    return d_ideal_generators([parse_poly(t, algebra) for t in PROLONGED_BASE],
                              PROLONGED_BOUND)


# ---------------------------------------------------------------------------
# operator towers

def tower_name(label, op, k):
    return f"{METRIC_LABELS[label]}.{op.replace('.', '')}k{k}"


def tower_names():
    return [tower_name(label, op, k) for label, op, k in TOWERS]


def tower_inputs(algebras):
    """(name, label, operator text, k, x1^k) for each pinned tower."""
    out = []
    for label, op, k in TOWERS:
        algebra = algebras[label]
        base = variable_text(1, (0,) * algebra.M)
        out.append((tower_name(label, op, k), label, f"{op}^{k}", k,
                    parse_poly(f"{base}^{k}", algebra)))
    return out
