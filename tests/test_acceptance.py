"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact rational arithmetic with zero tolerance.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 7a (classical recovery on generic systems) lifts random
classical systems to the dual numbers, reduces there and projects back.
On every trial the projected certificate must be an exact classical
identity, every multiplier must project to a classical initial or
separant, and whenever the projected step trace equals the classical Ritt
trace the remainders must be equal.  Remainders are strategy-dependent, so
they may differ where the traces part; see the divergence counterexample
in test_classical.py.
"""

import itertools
import json
import random
from dstar.algebra import AlgebraSpec, builtin, make_block_spec, validate_algebra
from dstar.charset import (
    A_LESS_B,
    AutoreducedSet,
    ClosureWitness,
    charset_complete,
    closure_step_witness,
    compare_autoreduced,
    validate_autoreduced,
)
from dstar.classical import (
    lift_to_dual,
    project_to_differential,
    ritt_reduce,
    verify_ritt_certificate,
)
from dstar.errors import (
    BadWitness,
    InconsistentSystem,
    NotAutoreduced,
    RankedBasisViolation,
)
from dstar.operators import apply, apply_composition, block_image, rho
from dstar.ordering import (
    EQUAL,
    GREATER,
    LESS,
    DVariable,
    SequentialRanking,
    apply_slot,
    dickson_minimal,
    is_sigma_only,
    ord_delta,
)
from dstar.parser import parse_poly
from dstar.poly import DPolynomial, format_poly, rank_compare
from dstar.reduction import multiplier_product, reduce, verify_certificate

from gen import (
    rand_diff_system,
    rand_divisors,
    rand_poly,
    rand_reduction_instance,
    rand_theta,
    rand_variable,
)
from recovery import (
    projected_certificate_holds,
    projected_h_factors_hold,
    projected_trace,
    projection_ranking,
)
from test_algebra import _ideal_power_nu_oracle


def _report(num, name, ok, detail=""):
    line = f"acceptance {num:>3} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} [{name}]: {detail}"


def _builtin_algebras():
    return {
        "dual": validate_algebra(builtin("dual")),
        "fields:2": validate_algebra(builtin("fields", 2)),
        "hs:2": validate_algebra(builtin("truncated_hs", 2)),
        "dd:1,1": validate_algebra(builtin("diff_difference", 1, 1)),
    }


# -- criterion 1: algebra validation ----------------------------------------

def test_criterion_01_algebra_validation():
    ok = True
    for n in (1, 2, 3):
        validate_algebra(builtin("truncated_hs", n))
        validate_algebra(builtin("fields", n))
        for m in (1, 2, 3):
            validate_algebra(builtin("diff_difference", n, m))
    validate_algebra(builtin("dual"))

    spec = builtin("truncated_hs", 3)  # Q[e]/e^4
    d = validate_algebra(spec)
    ok = ok and d.blocks[0].nu == (1, 2, 3)
    names = spec.blocks[0].basis_names
    products = {pair: coords for pair, coords in spec.blocks[0].table}
    for j, name in enumerate(names[1:], start=1):
        ok = ok and d.nu(1, j) == _ideal_power_nu_oracle(names, products, name)

    misordered = AlgebraSpec((make_block_spec(
        ["1", "ee", "e"],
        {("1", "1"): [("1", 1)], ("1", "ee"): [("ee", 1)],
         ("1", "e"): [("e", 1)], ("e", "e"): [("ee", 1)]}),))
    try:
        validate_algebra(misordered)
        ok = False
    except RankedBasisViolation:
        pass
    _report(1, "algebra validation", ok,
            "builtins n,m <= 3; nu oracle; misordered basis rejected")


# -- criterion 2: homomorphism and product rule ------------------------------

def test_criterion_02_homomorphism():
    rng = random.Random(102)
    pairs = 0
    for name, d in _builtin_algebras().items():
        for _ in range(500):
            f = rand_poly(rng, d, max_terms=2, max_sum=2)
            g = rand_poly(rng, d, max_terms=2, max_sum=2)
            i = rng.randint(1, d.t)
            fi, gi = block_image(f, i), block_image(g, i)
            fgi = block_image(f * g, i)
            block = d.blocks[i - 1]
            expected = [fi[0] * gi[0]]
            for j in range(1, block.m + 1):
                coord = fi[0] * gi[j] + fi[j] * gi[0]
                for p in range(1, block.m + 1):
                    for q in range(1, block.m + 1):
                        a = d.alpha(i, j, p, q)
                        if a:
                            coord = coord + (fi[p] * gi[q]).scalar_mul(a)
                expected.append(coord)
            assert list(fgi) == expected, name
            pairs += 1

    # closed forms: twisted Leibniz on dual, convolution rule on hs:2
    dual = _builtin_algebras()["dual"]
    hs2 = _builtin_algebras()["hs:2"]
    for _ in range(200):
        f = rand_poly(rng, dual, max_terms=2)
        g = rand_poly(rng, dual, max_terms=2)
        assert apply(f * g, 1, 0) == apply(f, 1, 0) * apply(g, 1, 0)
        assert apply(f * g, 1, 1) == \
            apply(f, 1, 1) * apply(g, 1, 0) + apply(f, 1, 0) * apply(g, 1, 1)
        u = rand_poly(rng, hs2, max_terms=2)
        w = rand_poly(rng, hs2, max_terms=2)
        assert apply(u * w, 1, 1) == \
            apply(u, 1, 1) * apply(w, 1, 0) + apply(u, 1, 0) * apply(w, 1, 1)
        assert apply(u * w, 1, 2) == (
            apply(u, 1, 2) * apply(w, 1, 0) + apply(u, 1, 1) * apply(w, 1, 1)
            + apply(u, 1, 0) * apply(w, 1, 2))
    _report(2, "homomorphism & product rule", True,
            f"{pairs} random pairs + 200 closed-form checks")


# -- criterion 3: commutation -------------------------------------------------

def test_criterion_03_commutation():
    rng = random.Random(103)
    checked = 0
    for name, d in _builtin_algebras().items():
        slots = d.slot_pairs()
        for _ in range(500):
            f = rand_poly(rng, d, max_terms=2, max_sum=2)
            for s1, s2 in itertools.combinations(slots, 2):
                assert apply(apply(f, *s1), *s2) == apply(apply(f, *s2), *s1), name
            checked += 1
    _report(3, "commutation", True, f"{checked} polynomials x all slot pairs")


# -- criterion 4: ranking axioms ---------------------------------------------

def test_criterion_04_ranking_axioms():
    rng = random.Random(104)
    for name, d in _builtin_algebras().items():
        ranking = SequentialRanking(d)
        slots = d.slot_pairs()
        sample = [rand_variable(rng, d, 2, 3) for _ in range(1000)]
        for v in sample:
            for s in slots:
                assert ranking.compare(v, apply_slot(d, v, *s)) == LESS, name
        for v, w in zip(sample, sample[1:]):
            if ranking.compare(v, w) == LESS:
                for s in slots:
                    assert ranking.compare(apply_slot(d, v, *s),
                                           apply_slot(d, w, *s)) == LESS
        for i in range(1, d.t + 1):
            m = d.blocks[i - 1].m
            for j in range(m + 1):
                for k in range(m + 1):
                    if d.nu(i, j) < d.nu(i, k):
                        for v in sample[:100]:
                            assert ranking.compare(
                                apply_slot(d, v, i, j),
                                apply_slot(d, v, i, k)) == LESS

    # predecessor counts match exhaustive enumeration
    dual = _builtin_algebras()["dual"]
    ranking = SequentialRanking(dual)
    for _ in range(50):
        v = rand_variable(rng, dual, 2, 2)
        bound = sum(v.theta)
        below = {w for w in _enumerate_vars(dual, 2, bound)
                 if ranking.compare(w, v) == LESS}
        wider = {w for w in _enumerate_vars(dual, 2, bound + 1)
                 if ranking.compare(w, v) == LESS}
        assert below == wider
    _report(4, "ranking axioms & sequentiality", True,
            "axioms on 1000 variables x all slots; 50 predecessor counts")


def _enumerate_vars(algebra, n_vars, bound):
    def thetas(width, budget):
        if width == 0:
            yield ()
            return
        for head in range(budget + 1):
            for rest in thetas(width - 1, budget - head):
                yield (head,) + rest
    for var in range(1, n_vars + 1):
        for theta in thetas(algebra.M, bound):
            yield DVariable(var, theta)


# -- criterion 5: rank-drop lemmas --------------------------------------------

def test_criterion_05_rank_drops():
    rng = random.Random(105)
    for name, d in _builtin_algebras().items():
        ranking = SequentialRanking(d)
        delta_slots = [(i, p) for i in range(1, d.t + 1)
                       for p in range(1, d.blocks[i - 1].m + 1)]
        sigma_slots = [d.slot_index(i, 0) for i in range(1, d.t + 1)]
        for _ in range(500):
            f = rand_poly(rng, d, nonconstant=True, max_terms=2)
            u = f.leader(ranking)
            s_f = f.separant(ranking)
            i_f = f.initial(ranking)
            deg = f.degree_in(u)

            if delta_slots:
                i, p = delta_slots[rng.randrange(len(delta_slots))]
                du = DPolynomial.from_variable(d, apply_slot(d, u, i, p))
                h = apply(f, i, p) - apply(s_f, i, 0) * du
                assert rank_compare(h, du, ranking) == LESS, name

            theta = [0] * d.M
            for s in sigma_slots:
                theta[s] = rng.randint(0, 2)
            theta = tuple(theta)
            tu = DPolynomial.from_variable(
                d, DVariable(u.var, tuple(a + b for a, b in zip(u.theta, theta))))
            h = apply_composition(f, theta) - \
                apply_composition(i_f, theta) * tu ** deg
            assert rank_compare(h, tu ** deg, ranking) == LESS, name

            if delta_slots:
                while True:
                    theta = rand_theta(rng, d, 2)
                    if ord_delta(d, theta) > 0:
                        break
                tu = DPolynomial.from_variable(
                    d, DVariable(u.var,
                                 tuple(a + b for a, b in zip(u.theta, theta))))
                h = apply_composition(f, theta) - \
                    apply_composition(s_f, rho(d, theta)) * tu
                assert rank_compare(h, tu, ranking) == LESS, name
    _report(5, "rank-drop lemmas", True, "500 polynomials per builtin")


# -- criterion 6: reduction certificates ---------------------------------------

def test_criterion_06_reduction():
    rng = random.Random(106)
    total_steps = 0
    for name, d in _builtin_algebras().items():
        ranking = SequentialRanking(d)
        for _ in range(500):
            g, divisors = rand_reduction_instance(rng, d, ranking)
            cert = reduce(g, divisors, ranking)
            assert verify_certificate(g, divisors, cert, ranking), name
            assert rank_compare(cert.remainder, g, ranking) != GREATER
            for factor in cert.h_factors:
                assert is_sigma_only(d, factor.theta)
            prev = None
            for step in cert.steps:
                if prev is not None:
                    cmp = ranking.compare(step.leader, prev.leader)
                    assert cmp == LESS or (cmp == EQUAL
                                           and step.degree < prev.degree)
                prev = step
            total_steps += len(cert.steps)

    dual = _builtin_algebras()["dual"]
    f = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
    g = parse_poly("x1[0,2]", dual)
    cert = reduce(g, [f])
    assert cert.remainder == parse_poly("4 * x1[0,1]", dual)
    assert multiplier_product(cert, [f]) == parse_poly("2 * x1[1,1]", dual)
    _report(6, "reduction certificates", True,
            f"500 instances per builtin, {total_steps} steps; worked example")


# -- criterion 7: classical recovery -------------------------------------------

def test_criterion_07a_oracle_equivalence():
    rng = random.Random(107)
    ranking = projection_ranking()
    trials = 200
    aligned = divergent = differing = 0
    for trial in range(trials):
        g, divisors = rand_diff_system(rng)
        ccert = ritt_reduce(g, divisors)
        assert verify_ritt_certificate(g, divisors, ccert)
        lifted = lift_to_dual(g)
        lifted_divs = [lift_to_dual(a) for a in divisors]
        dcert = reduce(lifted, lifted_divs, ranking)
        assert verify_certificate(lifted, lifted_divs, dcert, ranking)
        assert projected_certificate_holds(g, divisors, dcert, ranking), trial
        assert projected_h_factors_hold(divisors, dcert, ranking), trial
        equal = project_to_differential(dcert.remainder) == ccert.remainder
        if projected_trace(dcert) == ccert.steps:
            assert equal, f"trial {trial}: aligned traces, remainders differ"
            aligned += 1
        else:
            divergent += 1
            differing += not equal
    ok = 2 * aligned >= trials
    _report("7a", "classical recovery (generic systems)", ok,
            f"{trials} projected certificates are exact classical identities; "
            f"{aligned} aligned with equal remainders, {divergent} "
            f"strategy-divergent ({differing} with a different remainder, "
            "see test_classical.test_oracle_divergence_counterexample)")


def test_criterion_07b_difference_traces():
    rng = random.Random(117)
    d = validate_algebra(builtin("fields", 2))
    ranking = SequentialRanking(d)
    for _ in range(200):
        g, divisors = rand_reduction_instance(rng, d, ranking)
        cert = reduce(g, divisors, ranking)
        assert all(step.case == "sigma" for step in cert.steps)
        for cof in cert.cofactors:
            assert ord_delta(d, cof.theta) == 0
    _report("7b", "difference specialisation traces", True,
            "200 reductions on fields:2, sigma-case steps only")


# -- criterion 8: characteristic sets ------------------------------------------

def test_criterion_08_charset():
    dual = _builtin_algebras()["dual"]
    ranking = SequentialRanking(dual)
    x = parse_poly("x1[0,0]", dual)
    dx = parse_poly("x1[0,1]", dual)
    result = charset_complete([x, dx], ranking)
    assert [format_poly(c) for c in result.charset] == ["x1[0,0]"]
    assert all(c.remainder.is_zero() for c in result.certificates)

    try:
        charset_complete([x, x + 1], ranking)
        ok = False
    except InconsistentSystem:
        ok = True

    # round monotonicity on a multi-round run
    f1 = parse_poly("x1[0,1] + x1[0,0]", dual)
    f2 = parse_poly("x1[0,2] + x1[0,0]^2", dual)
    result = charset_complete([f1, f2], ranking)
    rounds = [AutoreducedSet(e.selected) for e in result.completion_trace]
    assert len(rounds) >= 2
    for prev, cur in zip(rounds, rounds[1:]):
        assert compare_autoreduced(cur, prev, ranking) == A_LESS_B

    # pre-order against the brute-force evaluation of the definition
    from test_charset import _compare_oracle
    rng = random.Random(108)
    compared = 0
    while compared < 200:
        try:
            a = validate_autoreduced(
                rand_divisors(rng, dual, ranking, count=rng.randint(1, 3)),
                ranking)
            b = validate_autoreduced(
                rand_divisors(rng, dual, ranking, count=rng.randint(1, 3)),
                ranking)
        except NotAutoreduced:
            continue
        assert compare_autoreduced(a, b, ranking) == _compare_oracle(a, b, ranking)
        compared += 1
    _report(8, "characteristic sets", ok,
            "worked examples; round monotonicity; 200 pre-order comparisons")


# -- criterion 9: Dickson minimality -------------------------------------------

def test_criterion_09_dickson():
    rng = random.Random(109)
    for _ in range(200):
        pts = [tuple(rng.randint(0, 6) for _ in range(4))
               for _ in range(rng.randint(0, 60))]
        fast = set(dickson_minimal(pts))
        slow = set()
        unique = set(pts)
        for p in unique:
            if not any(q != p and all(a <= b for a, b in zip(q, p))
                       for q in unique):
                slow.add(p)
        assert fast == slow
        for p in pts:
            assert any(all(a <= b for a, b in zip(q, p)) for q in fast)
    _report(9, "Dickson minimality", True, "200 random subsets of N^4")


# -- criterion 10: closure witnesses -------------------------------------------

def test_criterion_10_closure_witnesses():
    dual = _builtin_algebras()["dual"]
    x = parse_poly("x1[0,0]", dual)
    sx = parse_poly("x1[1,0]", dual)
    one = DPolynomial.constant(dual, 1)

    accepted = closure_step_witness(
        [x * sx], ClosureWitness(x, ((0, 0), (1, 0)), (1, 1),
                                 ((one, (0, 0), 0),)))
    assert accepted == x
    accepted = closure_step_witness(
        [x * x], ClosureWitness(x, ((0, 0),), (2,), ((one, (0, 0), 0),)))
    assert accepted == x
    try:
        closure_step_witness(
            [x * sx], ClosureWitness(x, ((0, 0), (1, 0)), (1, 1),
                                     ((one + one, (0, 0), 0),)))
        ok = False
        detail = "corrupted witness was accepted"
    except BadWitness as exc:
        ok = exc.difference is not None and not exc.difference.is_zero()
        detail = f"corrupted witness rejected, difference = " \
                 f"{format_poly(exc.difference)}"
    _report(10, "closure witnesses", ok, detail)


# -- criterion 11: CLI determinism ---------------------------------------------

def test_criterion_11_cli_determinism(tmp_path):
    import io
    from dstar.cli import main

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        code = main(args, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1] + x1[0,0]\nx1[0,2] + x1[0,0]^2\n", encoding="utf-8")
    divisors = tmp_path / "set.txt"
    divisors.write_text("x1[0,1]^2 - 4 * x1[0,0]\n", encoding="utf-8")
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({
        "a": "x1[0,0]", "taus": [[0, 0]], "exponents": [2],
        "combination": [{"c": "1", "theta": [0, 0], "member": 0}]}),
        encoding="utf-8")
    gens_sq = tmp_path / "sq.txt"
    gens_sq.write_text("x1[0,0]^2\n", encoding="utf-8")
    cert_a = tmp_path / "cert_a.json"
    cert_b = tmp_path / "cert_b.json"

    commands = [
        ["algebra-check", "dual"],
        ["algebra-check", "hs:3"],
        ["algebra-check", "dd:2,2"],
        ["rank", "--algebra", "dual", "x1[1,0]", "x1[0,1]"],
        ["apply", "--algebra", "dual", "--op", "d1.1", "x1[0,0]^2"],
        ["reduce", "--algebra", "dual", "--set", str(divisors), "x1[0,2]"],
        ["charset", "--algebra", "dual", "--gens", str(gens), "--trace"],
        ["closure-check", "--algebra", "dual", "--gens", str(gens_sq),
         "--witness", str(witness)],
    ]
    for args in commands:
        first = run(args)
        second = run(args)
        assert first == second, args
        assert first[0] == 0, args

    code, out, _ = run(["apply", "--algebra", "dual", "--op", "d1.1",
                        "x1[0,0]^2"])
    assert out == "2 * x1[1,0] * x1[0,1]\n"

    run(["reduce", "--algebra", "dual", "--set", str(divisors),
         "--cert", str(cert_a), "x1[0,2]"])
    run(["reduce", "--algebra", "dual", "--set", str(divisors),
         "--cert", str(cert_b), "x1[0,2]"])
    assert cert_a.read_bytes() == cert_b.read_bytes()

    # parse/print round trips
    rng = random.Random(111)
    count = 0
    for d in _builtin_algebras().values():
        for _ in range(125):
            f = rand_poly(rng, d)
            text = format_poly(f)
            assert parse_poly(text, d) == f
            assert format_poly(parse_poly(text, d)) == text
            count += 1
    _report(11, "CLI determinism & round trips", True,
            f"8 commands byte-identical twice; {count} round trips")
