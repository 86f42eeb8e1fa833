"""Digest the outputs that the benchmark's pins do not cover.

    python3 tools/outputs_digest.py

Completes the 2001 charset-workload families (the pinned pool plus the
prolonged dd:1,1 family, both from perfbench/inputs.py, which is only
imported) under the sequential ranking, and prints one SHA-256 line each
over every certificate_to_json, every round trace, and every raised
exception's name and message.  The pins hash only the charsets, so equal
lines from two checkouts show that a change kept the certificates, the
traces and the exceptions too.

It then prints one line each for the operator layer: format_poly of every
apply-tower result, certificate_to_json of every reduction in the
reduce-c6 stream, format_poly of every coordinate of every block image
of each reduce-c6 input and divisor (every sigma and delta coordinate on
all four stream algebras), and format_poly of every d_ideal_generators
output, in order, of the prolonged family's base on dd:1,1 for order
bounds 0, 1 and 2 and of the first reduce-c6 divisor set of each stream
algebra (2, 3 and 4 slots) for order bounds 0 to 3.
The algebra-check line covers the structure constants: the exit code and
stdout of `dstar algebra-check`, run in-process through cli.main, on each
of ALGEBRA_CHECK.  The big-towers line hashes format_poly of each of
BIG_TOWERS: operator towers beyond the benchmark's sizes, whose block
images have wide packed keys.  The readers line feeds each of LITERALS to
every reader of textual integers (expressions, variables, operators,
JSON, algebra-file coefficients and builtin algebra names) and hashes
what each returns, as str or format_poly, or the name of the exception it
raises.  The reprs line hashes repr() of every reduce-c6 certificate and
of every charset-workload CharSetResult, so it covers how each result
record prints.  The monomials line hashes repr(m.factors) of every
monomial and format_poly of every result of products and block images
over indeterminates no other line uses, met highest first on each of the
four stream algebras, so that the order in which variables are first met
runs against DVariable order.  The last line, witnesses, hashes the
outcome of closure_step_witness on each of those four algebras for
accepted witnesses, failed identities and every malformed shape of a,
taus, exponents and combination terms: format_poly of the accepted
polynomial, or the exception's name and message and format_poly of the
difference it carries.  The charset-custom line completes the 2000 pool
families again under demoted_key, the key of a custom ranking that passes
check_ranking_axioms on each family's variables (checked here), and
hashes repr() of each result, each certificate_to_json and each raised
exception's name and message: completion trusts its selection under any
such ranking, so its outputs off the sequential ranking are pinned too.
The cli line runs each of CLI_CASES as a cold `python -m dstar.cli`
process on this tree's src, in a temporary directory holding CLI_FILES,
and hashes its exit code, stdout and stderr: each of the six subcommands
on one good input, one parse error (exit 2) and one domain error
(exit 1), so what a cold process imports cannot change what it prints.
The apply line hashes format_poly of apply(h, i, p) for every block i and
coordinate p of each reduce-c6 input and divisor.  apply computes that
one coordinate alone, through only the products that feed it.  The line
records the block-images line's names and texts, so its hash equals
that line's whenever each apply(h, i, p) is coordinate p of
block_image(h, i), and equal apply lines from two checkouts compare the
one-coordinate path of one with that of the other.  Every builtin's
closure of a coordinate p is {0, ..., p}, so the last line, non-builtin,
does the same for block_image(h, 1) and apply(h, 1, p) over FIVE, a
one-block algebra whose closures have gaps ({0, 2} for e2, {0, 1, 2, 4}
for f2), on seeded polynomials with constant terms, Fraction
coefficients and monomials of up to four variable powers.  The scan line
hashes repr(a_leader(g, divisors)) and is_reduced_wrt_set(g, divisors),
or the name of the exception each raises, for every reduce-c6 input g
and its divisor set, under the sequential ranking and under tie_key, a
key that ties the variables of one indeterminate and one order, so that
the offending-variable scan's winners are pinned, its tie rules included.
The reductions-general line hashes certificate_to_json of seeded
reductions, or the name and message of the exception one raises
(DuplicateLeaders among them), over FIVE and over hs:3, each under the
sequential ranking and under demoted_key (checked on each instance's
variables), GENERAL_COUNT per algebra and ranking.  Every other
reduction the lines pin runs over a builtin stream algebra, and all but
the charset-custom ones under the sequential ranking.  The deep-steps
line hashes format_poly of apply(h, 1, p) for every p >= 1 over hs:3,
hs:4 and FIVE, on seeded polynomials whose exponents lie on both sides
of each length of a multiset of coordinates whose product reaches p
(up to p on hs:p, up to 2 on FIVE): every unit step of those blocks
beyond the sigma-derivations that the other lines mostly meet.  The
parse line hashes stored(parse_poly(t)), format_poly followed by each
term in stored order as the reprs of its monomial's factors and of its
coefficient, for every set-up text t of the reduce-c6 and charset
workloads (recorded by wrapping inputs.parse_poly), then, for
PARSE_COUNT seeded texts of nested parentheses, unary minus, powers of
sums and of monomials, x^0, 0^0, cancelling terms, fractions and
whitespace with newlines, and for each of those texts with one
character deleted or replaced, and for each of MALFORMED (a multi-line
text, an unclosed variable followed by a bad character, nesting past
the recursion limit and others), the stored() of what parse_poly returns
or the name, message, line and column of the ExprParseError it raises.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    sys.path.insert(0, str(path))

import inputs  # noqa: E402  (perfbench/inputs.py)
from dstar import (  # noqa: E402
    CustomRanking, SequentialRanking, a_leader, apply, apply_composition, block_image,
    charset_complete, check_ranking_axioms, cli, d_ideal_generators, format_poly,
    is_reduced_wrt_set, parse_operator, parse_poly, reduce)
from dstar.algebra import (  # noqa: E402
    AlgebraSpec, algebra_from_name, load_spec, make_block_spec, validate_algebra)
from dstar.charset import ClosureWitness, closure_step_witness  # noqa: E402
from dstar.errors import DStarError, ExprParseError  # noqa: E402
from dstar.ordering import DVariable, parse_int, parse_variable  # noqa: E402
from dstar.parser import parse_json  # noqa: E402
from dstar.poly import DPolynomial, Monomial  # noqa: E402
from dstar.reduction import certificate_to_json  # noqa: E402

KEYS = ("certificates", "traces", "exceptions", "towers", "reduce-c6", "d-ideal",
        "algebra-check", "block-images", "big-towers", "readers", "reprs", "monomials",
        "witnesses", "charset-custom", "cli", "apply", "non-builtin", "scan",
        "reductions-general", "deep-steps", "parse")
ALGEBRA_CHECK = ("dual", "fields:2", "hs:2", "hs:5", "dd:1,1", "dd:2,1")
# (algebra, operator, k): the operator to the k applied to x1^k
BIG_TOWERS = (("dual", "d1.1", 20), ("dual", "d1.1", 24), ("hs:2", "d1.2", 8))
# ASCII literals, accepted and rejected; the builtin names they make stay small
LITERALS = ("0", "1", "2", "3", "007", "10", "-1", "-0", "-007", "3/2", "-3/2",
            "6/4", "4/2", "0/5", "1/0", "1/-2", "2/3/4", "x", "", "-", "--1",
            "1.5", "1e3", "0x10", "9" * 4301)
# the cli line's input files and (name, dstar arguments) cases
CLI_FILES = {
    "broken.json": '{"blocks": [',
    "misordered.json": ('{"blocks": [{"basis": ["1", "ee", "e"], "table": {"1*1": '
                        '[["1", "1"]], "1*ee": [["ee", "1"]], "1*e": [["e", "1"]], '
                        '"e*e": [["ee", "1"]]}}]}'),
    "divisors.txt": "x1[0,1]^2 - 4 * x1[0,0]\n",
    "constant.txt": "1\n",
    "gens.txt": "x1[0,1] + x1[0,0]\nx1[0,2] + x1[0,0]^2\n",
    "bad_gens.txt": "x1[0,1] +\n",
    "inconsistent.txt": "x1[1,0] - 2*x1[0,0]\nx1[0,0] - 1\n",
    "closure_gens.txt": "x1[0,0] * x1[1,0]\n",
    "witness.json": ('{"a": "x1[0,0]", "taus": [[0, 0], [1, 0]], "exponents": [1, 1], '
                     '"combination": [{"c": "1", "theta": [0, 0], "member": 0}]}'),
    "failing_witness.json": ('{"a": "x1[0,0]", "taus": [[0, 0]], "exponents": [1], '
                             '"combination": [{"c": "1", "theta": [0, 0], "member": 0}]}'),
}
CLI_CASES = (
    ("algebra-check", ["algebra-check", "hs:2"]),
    ("algebra-check parse", ["algebra-check", "broken.json"]),
    ("algebra-check domain", ["algebra-check", "misordered.json"]),
    ("rank", ["rank", "--algebra", "dual", "x1[1,0]", "x1[0,1]"]),
    ("rank parse", ["rank", "--algebra", "dual", "x1[0", "x1[0,1]"]),
    ("rank domain", ["rank", "--algebra", "missing.json", "x1[1,0]", "x1[0,1]"]),
    ("apply", ["apply", "--algebra", "dual", "--op", "d1.1", "x1[0,0]^2"]),
    ("apply parse", ["apply", "--algebra", "dual", "--op", "d1.1", "x1[0,0]^"]),
    # 2^15000 has more digits than the int/str conversion limit prints
    ("apply domain", ["apply", "--algebra", "dual", "--op", "s1", "(2*x1[0,0])^15000"]),
    ("reduce", ["reduce", "--algebra", "dual", "--set", "divisors.txt", "x1[0,2]"]),
    ("reduce parse", ["reduce", "--algebra", "dual", "--set", "divisors.txt", "x1[0,2] +"]),
    ("reduce domain", ["reduce", "--algebra", "dual", "--set", "constant.txt", "x1[0,2]"]),
    ("charset", ["charset", "--algebra", "dual", "--gens", "gens.txt", "--trace"]),
    ("charset parse", ["charset", "--algebra", "dual", "--gens", "bad_gens.txt"]),
    ("charset domain", ["charset", "--algebra", "dual", "--gens", "inconsistent.txt"]),
    ("closure-check", ["closure-check", "--algebra", "dual", "--gens", "closure_gens.txt",
                       "--witness", "witness.json"]),
    ("closure-check parse", ["closure-check", "--algebra", "dual", "--gens",
                             "closure_gens.txt", "--witness", "broken.json"]),
    ("closure-check domain", ["closure-check", "--algebra", "dual", "--gens",
                              "closure_gens.txt", "--witness", "failing_witness.json"]),
)
# indeterminates of the monomials line, met in this order (highest first)
FRESH = (94, 93, 92, 91)
# the non-builtin line's block 1, e1, e2, f1, f2, and its seed and size
FIVE = (["1", "e1", "e2", "f1", "f2"],
        {**{("1", b): [(b, 1)] for b in ("1", "e1", "e2", "f1", "f2")},
         ("e1", "e1"): [("f1", 1), ("f2", 1)], ("e1", "e2"): [("f1", "1/2")],
         ("e2", "e2"): [("f2", -3)]})
NON_BUILTIN_SEED, NON_BUILTIN_COUNT = 35, 50
# the reductions-general line's seed, and its reductions per algebra and ranking
GENERAL_SEED, GENERAL_COUNT = 39, 100
# the deep-steps line's seed, and its polynomials per algebra
DEEP_SEED, DEEP_COUNT = 42, 40
# the parse line's seed and its well-formed texts per algebra; the characters
# a malformed copy puts in, no digit among them, so no exponent grows
PARSE_SEED, PARSE_COUNT = 44, 150
PARSE_NOISE = "()+-*^/ x[],\n\t$\u0662"
MALFORMED = (
    "", " ", "-", "+1", "--1", "1 +", "x1[0,0] +\n\n  * 2", "x1[0,0]\n+ 1\n)\n",
    "x1[0,2 $ ]", "x1[0,2 + x1[0,0]", "(x1[0,1) + 1", "x1[0, 2]", "x1[0,\u0662]",
    "x1[0,0", "x1[0,0]^", "x1[0,0]^x1[0,1]", "2^-1", "1/0", "1/00", "3/x1[0,0]",
    "x0[0,0]", "x1[0,0,0]", "x1[0]", "x1[0,0] x1[0,1]", "(1 + 2", "1 + 2)", "()",
    "1 " + "9" * 5000, "x1[0," + "9" * 5000 + "]", "x" + "9" * 5000 + "[0,0]",
    "(" * 5000 + "x1[0,0]" + ")" * 5000, "(\n" * 3000 + "1", "-(" * 3000 + "1",
)


def demoted_key(v):
    """charset-custom's ranking key: order, then the index last slot first, then var."""
    return (sum(v.theta), tuple(reversed(v.theta)), v.var)


def tie_key(v):
    """The scan line's non-injective key: order, then indeterminate."""
    return (sum(v.theta), v.var)


def scan_text(g, divisors, ranking):
    """The scan's answers for g: a_leader's repr and is_reduced_wrt_set's."""
    lines = []
    for scan in (a_leader, is_reduced_wrt_set):
        try:
            lines.append(repr(scan(g, divisors, ranking)))
        except DStarError as exc:
            lines.append(type(exc).__name__)
    return "\n".join(lines)


def readers(algebras):
    """(name, function of a literal returning text) for every integer reader."""
    dual, hs2 = algebras["dual"], algebras["hs:2"]

    def coefficient(text):
        spec = load_spec('{"blocks": [{"basis": ["1"], "table": '
                         '{"1*1": [["1", "%s"]]}}]}' % text)
        return str(spec.blocks[0].table)

    return (
        ("parse_int", lambda t: str(parse_int(t))),
        ("expression", lambda t: format_poly(parse_poly(t, dual))),
        ("power", lambda t: format_poly(parse_poly(f"(x1[0,0] + 1)^{t}", dual))),
        ("slot", lambda t: format_poly(parse_poly(f"x1[0,{t}] * x2[{t},1]", dual))),
        ("variable", lambda t: str(parse_variable(f"x{t}[0,1,{t}]", hs2))),
        ("theta", lambda t: str(parse_operator(f"theta=[{t},0,1]", hs2))),
        ("operator", lambda t: str(parse_operator(f"d1.{t}^{t} s1", hs2))),
        ("json", lambda t: str(parse_json(t))),
        ("coefficient", coefficient),
        ("hs", lambda t: str(algebra_from_name(f"hs:{t}").op_names)),
        ("dd", lambda t: str(algebra_from_name(f"dd:1,{t}").op_names)),
    )


def monomial_records(algebras):
    """(name, text) for products and block images over variables met out of order.

    Each text holds repr(m.factors) of the result's monomials, sorted, and
    its format_poly.
    """
    def text(f):
        return "\n".join(sorted(repr(m.factors) for m in f.terms) + [format_poly(f)])

    for label in ("dual", "fields:2", "hs:2", "dd:1,1"):
        algebra = algebras[label]
        # the zero index and each single bump, highest first
        thetas = sorted((tuple(int(s == k) for s in range(algebra.M))
                         for k in range(-1, algebra.M)), reverse=True)
        variables = [DVariable(j, theta) for j in FRESH for theta in thetas]
        exponents = (1, 2, 3, 2 ** 70)
        # the first sight of each variable, in descending DVariable order
        powers = [Monomial.of({v: exponents[k % 4]}) for k, v in enumerate(variables)]
        n = len(powers)
        for k in range(n):
            m = powers[k].mul(powers[n - 1 - k]).mul(powers[3 * k % n]).mul(powers[k])
            yield f"{label} product {k}", text(DPolynomial(algebra, {m: k + 1}))
        low = [Monomial.of({v: 1 + k % 3}) for k, v in enumerate(variables)]
        f = DPolynomial(algebra, {low[k].mul(low[5 * k % n]): k - 2 for k in range(n)})
        yield f"{label} square", text(f * f)
        for i in range(1, algebra.t + 1):
            for p, c in enumerate(block_image(f, i)):
                yield f"{label} block {i} coordinate {p}", text(c)


def witness_cases(algebras):
    """(name, generators, witness) for closure_step_witness on each stream algebra."""
    labels = ("dual", "fields:2", "hs:2", "dd:1,1")
    for n, label in enumerate(labels):
        algebra = algebras[label]
        other = algebras[labels[(n + 1) % len(labels)]]
        zero = (0,) * algebra.M
        # the first slot is sigma_1; the second is a delta slot except on fields:2
        sigma, second = (tuple(int(k == s) for k in range(algebra.M)) for s in (0, 1))
        x = parse_poly(f"x1[{','.join(map(str, zero))}]", algebra)
        sx, y = apply_composition(x, sigma), apply_composition(x, second)
        one, elsewhere = DPolynomial.constant(algebra, 1), DPolynomial.constant(other, 1)
        gens = [x * sx, x * x, y + x, y]
        term = (one, zero, 0)
        product = (x, (zero, sigma), (1, 1))
        cases = {
            # accepted: x * sigma(x), x^2, x = (y + x) - y, and sigma of that
            "product": (*product, (term,)),
            "square": (x, (zero,), (2,), ((one, zero, 1),)),
            "difference": (x, (zero,), (1,), ((one, zero, 2), (-one, zero, 3))),
            "sigma of the difference": (sx, (zero,), (1,),
                                        ((one, sigma, 2), (-one, sigma, 3))),
            "sigma of a square": (sx, (zero,), (2,), ((one, sigma, 1),)),
            # failed identities
            "doubled": (*product, ((one + 1, zero, 0),)),
            "extra term": (*product, (term, (x, zero, 3))),
            "no terms": (*product, ()),
            # malformed a, taus and exponents
            "a over another algebra": (elsewhere, (zero,), (1,), (term,)),
            "a not a polynomial": (1, (zero,), (1,), (term,)),
            "unmatched taus": (x, (zero, sigma), (1,), (term,)),
            "no taus": (x, (), (), (term,)),
            "bool exponent": (x, (zero,), (True,), (term,)),
            "float exponent": (x, (zero,), (1.5,), (term,)),
            "zero exponent": (x, (zero,), (0,), (term,)),
            "list tau": (x, (list(zero),), (1,), (term,)),
            "short tau": (x, (zero[1:],), (1,), (term,)),
            "negative tau": (x, (sigma[:-1] + (-1,),), (1,), (term,)),
            "bool tau": (x, ((False,) + zero[1:],), (1,), (term,)),
            "second-slot tau": (x, (second,), (1,), (term,)),
        }
        # malformed terms, each after a well-formed one
        for name, bad in (("member past the end", (one, zero, len(gens))),
                          ("negative member", (one, zero, -1)),
                          ("bool member", (one, zero, True)),
                          ("float c", (1.0, zero, 0)),
                          ("c over another algebra", (elsewhere, zero, 0)),
                          ("list theta", (one, list(zero), 0)),
                          ("short theta", (one, zero[1:], 0)),
                          ("long theta", (one, zero + (0,), 0)),
                          ("negative theta", (one, zero[:-1] + (-1,), 0)),
                          ("bool theta", (one, (False,) + zero[1:], 0))):
            cases[name] = (*product, (term, bad))
        yield f"{label} no generators", [], ClosureWitness(*cases["product"])
        for name, fields in cases.items():
            yield f"{label} {name}", gens, ClosureWitness(*fields)


def non_builtin_polynomials():
    """(name, polynomial) over FIVE; every other one has a constant term."""
    algebra = validate_algebra(AlgebraSpec((make_block_spec(*FIVE),)))
    rng = random.Random(NON_BUILTIN_SEED)
    for n in range(NON_BUILTIN_COUNT):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            powers = {DVariable(rng.randint(1, 2),
                                tuple(rng.randint(0, 1) for _ in range(algebra.M))):
                      rng.randint(1, 3) for _ in range(rng.randint(1, 4))}
            terms[Monomial.of(powers)] = Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                                  rng.randint(1, 3))
        if n % 2:
            terms[Monomial.of({})] = Fraction(rng.choice((-4, -1, 3, 7)), rng.randint(1, 2))
        yield f"five#{n}", DPolynomial(algebra, terms)


def deep_step_polynomials():
    """(name, polynomial) over hs:3, hs:4 and FIVE; every other one has a constant term.

    Each term has one to three variable powers, with exponents from 1 to
    one above the block's deepest nu, the longest multiset of coordinates
    whose product reaches a coordinate.
    """
    five = validate_algebra(AlgebraSpec((make_block_spec(*FIVE),)))
    rng = random.Random(DEEP_SEED)
    for label, algebra in (("hs:3", algebra_from_name("hs:3")),
                           ("hs:4", algebra_from_name("hs:4")), ("five", five)):
        top = algebra.block(1).nu[-1] + 1
        for n in range(DEEP_COUNT):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                powers = {DVariable(rng.randint(1, 2),
                                    tuple(rng.randint(0, 1) for _ in range(algebra.M))):
                          rng.randint(1, top) for _ in range(rng.randint(1, 3))}
                terms[Monomial.of(powers)] = Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                                      rng.randint(1, 3))
            if n % 2:
                terms[Monomial.of({})] = Fraction(rng.choice((-4, -1, 3, 7)), rng.randint(1, 2))
            yield f"{label}#{n}", DPolynomial(algebra, terms)


def parse_text(rng, algebra, depth):
    """A random expression as text, with whitespace and newlines between tokens."""
    def space():
        return rng.choice(("", " ", "\n", " \n\t"))

    def sub(loosest):
        text, level = parse_text(rng, algebra, depth - 1)
        return (text, level) if level >= loosest else (f"({text})", 3)

    shape = rng.choice(("number", "variable") if depth == 0 else
                       ("number", "variable", "sum", "negation", "product", "power",
                        "parenthesised"))
    if shape == "number":
        return rng.choice(("0", "1", "2", "7", "1/2", "0/3", "6/4")), 3
    if shape == "variable":
        return str(DVariable(rng.randint(1, 2),
                             tuple(rng.randint(0, 1) for _ in range(algebra.M)))), 3
    if shape == "sum":
        left, right = sub(0)[0], sub(1)[0]
        if rng.random() < 0.3:
            right = f"({left})"         # cancels
        return f"{left}{space()}{rng.choice('+-')}{space()}{right}", 0
    if shape == "negation":
        return f"-{space()}{sub(1)[0]}", 0
    if shape == "product":
        return f"{sub(1)[0]}{space()}*{space()}{sub(2)[0]}", 1
    if shape == "power":
        return f"{sub(2)[0]}{space()}^{space()}{rng.randint(0, 3)}", 2
    return f"({space()}{sub(0)[0]}{space()})", 3


def parse_cases(algebras):
    """(algebra, text) for the parse line's seeded and malformed texts."""
    rng = random.Random(PARSE_SEED)
    for label in ("dual", "hs:2"):
        algebra = algebras[label]
        for _ in range(PARSE_COUNT):
            text = parse_text(rng, algebra, rng.randint(1, 4))[0]
            k = rng.randrange(len(text))
            yield algebra, text
            yield algebra, text[:k] + text[k + 1:]
            yield algebra, text[:k] + rng.choice(PARSE_NOISE) + text[k + 1:]
        for text in MALFORMED:
            yield algebra, text


def stored(f):
    """format_poly of f, then each term in stored order, which format_poly
    and == ignore but later sums keep."""
    return "\n".join([format_poly(f)]
                     + [f"{m.factors!r} {c!r}" for m, c in f.terms.items()])


def parsed(text, algebra):
    """stored() of text's polynomial, or its ExprParseError and where it is."""
    try:
        return stored(parse_poly(text, algebra))
    except ExprParseError as exc:
        return f"{type(exc).__name__}: {exc.message} at {exc.line}:{exc.column}"


def bumped(rng, theta):
    """theta with 1 added in one random slot, or theta itself."""
    s = rng.randrange(len(theta) + 1)
    return theta if s == len(theta) else theta[:s] + (theta[s] + 1,) + theta[s + 1:]


def small_polynomial(rng, algebra):
    """One or two terms, each one or two powers of x1 or x2 of order at most one."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        powers = {DVariable(rng.randint(1, 2), bumped(rng, (0,) * algebra.M)):
                  rng.randint(1, 2) for _ in range(rng.randint(1, 2))}
        terms[Monomial.of(powers)] = Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                              rng.randint(1, 3))
    return DPolynomial(algebra, terms)


def general_reductions():
    """(name, g, divisors, ranking) over FIVE and hs:3, sequential and demoted.

    Each g is a small polynomial plus a power of a transform of the first
    divisor's leader, at most one order above it, so most reductions take
    steps; the inputs stay small because a reduction has no size limit.
    """
    five = validate_algebra(AlgebraSpec((make_block_spec(*FIVE),)))
    rng = random.Random(GENERAL_SEED)
    for label, algebra in (("five", five), ("hs:3", algebra_from_name("hs:3"))):
        for name, ranking in (("sequential", SequentialRanking(algebra)),
                              ("demoted", CustomRanking(algebra, demoted_key))):
            for n in range(GENERAL_COUNT):
                divisors = [small_polynomial(rng, algebra)
                            for _ in range(rng.randint(1, 2))]
                u = divisors[0].leader(ranking)
                power = Monomial.of({DVariable(u.var, bumped(rng, u.theta)):
                                     rng.randint(1, 3)})
                g = small_polynomial(rng, algebra) + DPolynomial(algebra, {power: 1})
                yield f"{label} {name}#{n}", g, divisors, ranking


def cli_outputs():
    """(name, exit code, stdout and stderr) of each of CLI_CASES, run cold."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        for name, text in CLI_FILES.items():
            Path(work, name).write_text(text, encoding="utf-8")
        for name, argv in CLI_CASES:
            proc = subprocess.run([sys.executable, "-m", "dstar.cli", *argv], cwd=work,
                                  env=env, stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, timeout=60)
            yield name, f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"


def families(algebras):
    """(name, generators, ranking) for every charset-workload family."""
    out = [("prolonged", inputs.prolonged_family(algebras), "dd:1,1")]
    out += [(f"{label}#{index}", family, label)
            for label, index, family in inputs.charset_pool(algebras)]
    return [(name, family, SequentialRanking(algebras[label]))
            for name, family, label in out]


def main():
    digests = {key: hashlib.sha256() for key in KEYS}
    counts = dict.fromkeys(digests, 0)

    def record(key, name, text):
        digests[key].update(f"{name}\n{text}\n".encode())
        counts[key] += 1

    algebras = inputs.make_algebras()
    items = families(algebras)
    for name, family, ranking in items:
        try:
            result = charset_complete(family, ranking)
        except DStarError as exc:
            record("exceptions", name, f"{type(exc).__name__}: {exc}")
            continue
        record("reprs", name, repr(result))
        for cert in result.certificates:
            record("certificates", name, certificate_to_json(cert))
        for entry in result.completion_trace:
            record("traces", name, "\n".join(
                [f"round {entry.round}"]
                + ["selected " + format_poly(f) for f in entry.selected]
                + ["added " + format_poly(f) for f in entry.remainders_added]))

    for name, label, op, _, f in inputs.tower_inputs(algebras):
        theta = parse_operator(op, algebras[label])
        record("towers", name, format_poly(apply_composition(f, theta)))
    for label, index, g, divisors in inputs.reduction_stream(algebras):
        cert = reduce(g, divisors, SequentialRanking(algebras[label]))
        record("reduce-c6", f"{label}#{index}", certificate_to_json(cert))
        record("reprs", f"{label}#{index}", repr(cert))
        if index == 0:
            for bound in range(4):
                record("d-ideal", f"{label}#0 bound {bound}", "\n".join(
                    format_poly(f) for f in d_ideal_generators(divisors, bound)))
        for h in [g, *divisors]:
            for i in range(1, h.algebra.t + 1):
                record("block-images", f"{label}#{index} block {i}", "\n".join(
                    format_poly(c) for c in block_image(h, i)))
                record("apply", f"{label}#{index} block {i}", "\n".join(
                    format_poly(apply(h, i, p)) for p in range(h.algebra.block(i).m + 1)))
        for name, ranking in (("sequential", SequentialRanking(g.algebra)),
                              ("ties", CustomRanking(g.algebra, tie_key))):
            record("scan", f"{label}#{index} {name}", scan_text(g, divisors, ranking))
    dd11 = algebras["dd:1,1"]
    base = [parse_poly(t, dd11) for t in inputs.PROLONGED_BASE]
    for bound in range(3):
        record("d-ideal", f"bound {bound}", "\n".join(
            format_poly(g) for g in d_ideal_generators(base, bound)))
    for name in ALGEBRA_CHECK:
        out = io.StringIO()
        code = cli.main(["algebra-check", name], out=out)
        record("algebra-check", name, f"exit {code}\n{out.getvalue()}")
    for label, op, k in BIG_TOWERS:
        algebra = algebras[label]
        x1 = f"x1[{','.join('0' * algebra.M)}]"
        f = apply_composition(parse_poly(f"{x1}^{k}", algebra),
                              parse_operator(f"{op}^{k}", algebra))
        record("big-towers", f"{label} {op}^{k}", format_poly(f))
    for reader, read in readers(algebras):
        for text in LITERALS:
            try:
                result = read(text)
            except DStarError as exc:
                result = type(exc).__name__
            record("readers", f"{reader} {text!r}", result)
    for name, text in monomial_records(algebras):
        record("monomials", name, text)
    for name, generators, witness in witness_cases(algebras):
        try:
            text = format_poly(closure_step_witness(generators, witness))
        except DStarError as exc:
            text = f"{type(exc).__name__}: {exc}"
            if getattr(exc, "difference", None) is not None:
                text += "\n" + format_poly(exc.difference)
        record("witnesses", name, text)
    for label, index, family in inputs.charset_pool(algebras):
        name, ranking = f"{label}#{index}", CustomRanking(algebras[label], demoted_key)
        check_ranking_axioms(ranking, {v for f in family for v in f.variables()})
        try:
            result = charset_complete(family, ranking)
        except DStarError as exc:
            record("charset-custom", name, f"{type(exc).__name__}: {exc}")
            continue
        record("charset-custom", name, repr(result))
        for cert in result.certificates:
            record("charset-custom", name, certificate_to_json(cert))

    for name, h in non_builtin_polynomials():
        record("non-builtin", name, "\n".join(
            [format_poly(c) for c in block_image(h, 1)]
            + [format_poly(apply(h, 1, p)) for p in range(h.algebra.block(1).m + 1)]))
    for name, text in cli_outputs():
        record("cli", name, text)
    for name, g, divisors, ranking in general_reductions():
        check_ranking_axioms(ranking, {v for f in [g, *divisors] for v in f.variables()})
        try:
            text = certificate_to_json(reduce(g, divisors, ranking))
        except DStarError as exc:
            text = f"{type(exc).__name__}: {exc}"
        record("reductions-general", name, text)

    for name, h in deep_step_polynomials():
        record("deep-steps", name, "\n".join(
            format_poly(apply(h, 1, p)) for p in range(1, h.algebra.block(1).m + 1)))

    reader = inputs.parse_poly

    def recorded(text, algebra):
        f = reader(text, algebra)
        record("parse", text, stored(f))
        return f

    inputs.parse_poly = recorded
    try:
        inputs.reduction_stream(algebras)
        inputs.prolonged_family(algebras)
        inputs.charset_pool(algebras)
    finally:
        inputs.parse_poly = reader
    for algebra, text in parse_cases(algebras):
        record("parse", text, parsed(text, algebra))

    print(f"families {len(items)}")
    for key, h in digests.items():
        print(f"{key} {counts[key]} {h.hexdigest()}")


if __name__ == "__main__":
    main()
