"""Every index, multi-index, member, polynomial and variable argument has one judge.

The sweep calls each public callable that takes such an argument with
each value that is not one: -1, True, False, 0.0, 1.0, 0.5, "1", None,
one past the end and 10**30.  Each call must raise, within two seconds, the error of
its fault: IndexOutOfRange for an index or an entry, AlgebraMismatch for
a wrong width, a polynomial that is not one over the algebra or a variable
that is not a DVariable of the algebra's width, or the
result its wrapper makes of them (BadWitness, UnknownBuiltin, a
documented ValueError, or False from verify_certificate).  No call may
return, and none may let a bare TypeError, AttributeError or IndexError
escape.  The structural guard keeps the index rule inside the judges.
"""

import ast
import signal
from pathlib import Path

import dstar
from dstar.algebra import DAlgebra, algebra_from_name, builtin
from dstar.charset import (
    ClosureWitness, charset_complete, closure_step_witness, d_ideal_generators,
    validate_autoreduced)
from dstar.classical import project_to_differential
from dstar.errors import (
    AlgebraMismatch, BadWitness, IndexOutOfRange, UnknownBuiltin, WrongAlgebra)
from dstar.operators import apply, apply_composition, block_image, rho
from dstar.ordering import (
    DVariable, SequentialRanking, apply_slot, check_ranking_axioms, dickson_minimal, ord_delta,
    ord_i, transform_of)
from dstar.parser import parse_poly
from dstar.poly import DPolynomial, Monomial, format_poly, rank_compare
from dstar.reduction import (
    Cofactor, DivisorSet, HFactor, ReductionCertificate, a_leader, is_reduced,
    is_reduced_wrt_set, reduce, verify_certificate)

SRC = Path(__file__).resolve().parent.parent / "src" / "dstar"
HUGE = 10 ** 30
# no value of these is an index, a multi-index, a member or a polynomial
NOT_ONE = (-1, True, False, 0.0, 1.0, 0.5, "1", None)

# Deliberately excluded: values whose call runs for as long as the value is
# large, until operator towers and powers are capped.  These are the large
# entries of a multi-index that apply_composition or closure_step_witness
# applies (a valid entry has no end, so it is applied, not rejected), the
# exponents of DPolynomial.__pow__, the order bounds of d_ideal_generators
# and the parameters of builtin (hs:10**30 would be built).

# public names that take no index, multi-index, member, polynomial or variable
# argument, or whose arguments of these kinds are judged by the calls that read them
NOT_SWEPT = {
    # records and constructors: their fields are judged where they are read
    "AlgebraSpec", "BlockSpec", "DAlgebra", "AutoreducedSet", "CharSetResult",
    "ClosureWitness", "PrimePresentation", "ReductionCertificate", "DPolynomial",
    "Monomial", "CustomRanking", "Ranking", "SequentialRanking",
    # the kernel builds a variable for every slot bump; a variable's slot
    # count is judged where it meets an algebra
    "DVariable",
    # text, specs and files
    "algebra_from_name", "dump_spec", "load_spec", "make_block_spec",
    "validate_algebra", "parse_operator", "parse_variable", "parse_poly",
    "parse_generator_file",
    # autoreduced sets
    "compare_autoreduced", "presentation",
    # the classical oracle's own types, and its algebra
    "DiffPolynomial", "DiffVar", "dual_algebra", "lift_to_dual", "ritt_reduce",
    "DStarError", "ExprParseError",
}
NOT_SWEPT_METHODS = {
    "DAlgebra": {"blocks", "slot_pairs", "op_names", "t", "M"},
    # arithmetic takes ints as constants; __pow__ is excluded above;
    # rankings are not swept
    "DPolynomial": {"algebra", "terms", "zero", "constant", "is_zero", "is_constant",
                    "variables", "degrees", "leader", "degree", "initial", "separant",
                    "scalar_mul"},
    "DivisorSet": set(),
}


def _within_two_seconds(call):
    """call(), or an AssertionError when it runs for two seconds."""
    def expire(signum, frame):
        raise AssertionError("ran for two seconds")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Sweep:
    """The cases: (callable's name, argument, value, expected error or False, call)."""

    def __init__(self):
        self.cases = []
        self.names = set()

    def add(self, name, argument, values, expected, call):
        self.names.add(name.split(" ")[0])
        self.cases += [(name, argument, v, expected, call) for v in values]

    def index(self, name, argument, end, call, expected=IndexOutOfRange, values=NOT_ONE):
        """Every value that is not an index below end; end is None for no end."""
        past = () if end is None else (end, HUGE)
        self.add(name, argument, values + past, expected, call)

    def multi_index(self, name, argument, width, call, expected=None):
        """Each value as the whole multi-index and as its first entry, then one
        slot too many; expected None is the judge's own errors: AlgebraMismatch
        for the width, IndexOutOfRange otherwise."""
        zero = (0,) * width
        values = NOT_ONE + (HUGE,) + tuple((e,) + zero[1:] for e in NOT_ONE)
        judged = expected is None
        self.add(name, argument, values, IndexOutOfRange if judged else expected, call)
        self.add(name, argument, [zero + (0,)], AlgebraMismatch if judged else expected,
                 call)

    def polynomial(self, name, argument, call, elsewhere=None, expected=AlgebraMismatch):
        """Every value that is not a polynomial, and elsewhere, one over another
        algebra, when the call has an algebra of its own."""
        values = NOT_ONE + (HUGE,) + (() if elsewhere is None else (elsewhere,))
        self.add(name, argument, values, expected, call)

    # every value that is not a variable, and elsewhere, one of another width:
    # the values and the error of a polynomial argument
    variable = polynomial


def sweep_cases():
    hs2 = algebra_from_name("hs:2")
    x = parse_poly("x1[0,0,0]", hs2)
    f = parse_poly("x1[0,1,0] + x1[0,0,0]^2", hs2)
    one = DPolynomial.constant(hs2, 1)
    other = parse_poly("x1[0,0,0]", algebra_from_name("dd:1,1"))    # also 3 slots
    v = DVariable(1, (0, 0, 0))
    zero = (0, 0, 0)
    # one delta step: H factor (rho, separant, 0) and one cofactor
    cert = reduce(f, [x])
    assert cert.h_factors and cert.cofactors and verify_certificate(f, [x], cert)
    factor, cofactor = cert.h_factors[0], cert.cofactors[0]

    def forged(h=factor, c=cofactor):
        return ReductionCertificate((h,), cert.remainder, (c,), cert.steps)

    def witness(a=x, tau=zero, c=one, theta=zero, member=0):
        return ClosureWitness(a, (tau,), (1,), ((c, theta, member),))

    assert closure_step_witness([x], witness()) == x
    s = Sweep()

    # indices: block i = 1..1, operator and basis p, j = 0..2, slot 0..2
    s.index("DAlgebra.block", "i", 2, lambda k: hs2.block(k))
    s.index("DAlgebra.slot_index", "i", 2, lambda k: hs2.slot_index(k, 0))
    s.index("DAlgebra.slot_index", "p", 3, lambda k: hs2.slot_index(1, k))
    s.index("DAlgebra.block_of_slot", "s", 3, lambda k: hs2.block_of_slot(k))
    s.index("DAlgebra.delta_slots", "i", 2, lambda k: hs2.delta_slots(k))
    s.index("DAlgebra.nu", "i", 2, lambda k: hs2.nu(k, 1))
    s.index("DAlgebra.nu", "j", 3, lambda k: hs2.nu(1, k))
    s.index("DAlgebra.gamma", "i", 2, lambda k: hs2.gamma(k, 1))
    s.index("DAlgebra.gamma", "j", 3, lambda k: hs2.gamma(1, k))
    s.index("DAlgebra.alpha", "i", 2, lambda k: hs2.alpha(k, 2, 1, 1))
    s.index("DAlgebra.alpha", "j", 3, lambda k: hs2.alpha(1, k, 1, 1))
    s.index("DAlgebra.alpha", "p", 3, lambda k: hs2.alpha(1, 2, k, 1))
    s.index("DAlgebra.alpha", "q", 3, lambda k: hs2.alpha(1, 2, 1, k))
    for name, call in (("block_image", block_image), ("apply", apply)):
        s.index(name, "i", 2, lambda k, call=call: call(f, k, 0))
        # block_image's p = None asks for every coordinate
        s.index(name, "p", 3, lambda k, call=call: call(f, 1, k),
                values=NOT_ONE[:-1] if call is block_image else NOT_ONE)
    s.index("block_image", "i alone", 2, lambda k: block_image(f, k))
    s.index("apply_slot", "i", 2, lambda k: apply_slot(hs2, v, k, 0))
    s.index("apply_slot", "p", 3, lambda k: apply_slot(hs2, v, 1, k))
    s.index("ord_i", "i", 2, lambda k: ord_i(hs2, zero, k))
    for name, count in (("fields", 1), ("truncated_hs", 1), ("diff_difference", 2)):
        s.index(f"builtin {name}", "parameter", None,
                lambda k, name=name, count=count: builtin(name, *(1,) * (count - 1), k),
                expected=UnknownBuiltin)
    s.index("DPolynomial.coefficient_in", "k", None,
            lambda k: f.coefficient_in(v, k), expected=ValueError)

    # members: the set and the generators have one member, 0
    s.index("DivisorSet.image", "member", 1,
            lambda k: DivisorSet([f]).image(k, None, zero))
    s.index("closure_step_witness", "term member", 1,
            lambda k: closure_step_witness([x], witness(member=k)), expected=BadWitness)
    s.index("verify_certificate", "cofactor member", 1,
            lambda k: verify_certificate(f, [x], forged(c=Cofactor(cofactor.c, zero, k))),
            expected=False)
    s.index("verify_certificate", "H-factor member", 1,
            lambda k: verify_certificate(f, [x], forged(h=HFactor(zero, factor.source, k))),
            expected=False)

    # multi-indices of width 3
    s.multi_index("apply_composition", "theta", 3, lambda t: apply_composition(f, t))
    s.multi_index("rho", "theta", 3, lambda t: rho(hs2, t))
    s.multi_index("ord_delta", "theta", 3, lambda t: ord_delta(hs2, t))
    s.multi_index("ord_i", "theta", 3, lambda t: ord_i(hs2, t, 1))
    s.multi_index("DivisorSet.image", "theta", 3, lambda t: DivisorSet([f]).image(0, None, t))
    # judged at the first index's width, so the faults of the first index
    # itself are every fault but the width
    s.multi_index("dickson_minimal", "second index", 3, lambda t: dickson_minimal([zero, t]))
    s.add("dickson_minimal", "first index",
          NOT_ONE + (HUGE,) + tuple((e,) + zero[1:] for e in NOT_ONE), IndexOutOfRange,
          lambda t: dickson_minimal([t, zero]))
    s.multi_index("closure_step_witness", "tau", 3,
                  lambda t: closure_step_witness([x], witness(tau=t)), expected=BadWitness)
    s.multi_index("closure_step_witness", "term theta", 3,
                  lambda t: closure_step_witness([x], witness(theta=t)),
                  expected=BadWitness)
    s.multi_index("verify_certificate", "cofactor theta", 3,
                  lambda t: verify_certificate(f, [x], forged(c=Cofactor(cofactor.c, t, 0))),
                  expected=False)
    s.multi_index("verify_certificate", "H-factor theta", 3,
                  lambda t: verify_certificate(
                      f, [x], forged(h=HFactor(t, factor.source, 0))), expected=False)

    # polynomials, alone and as each member of a sequence
    s.polynomial("apply_composition", "f", lambda p: apply_composition(p, zero))
    s.polynomial("block_image", "f", lambda p: block_image(p, 1))
    s.polynomial("apply", "f", lambda p: apply(p, 1, 1))
    s.polynomial("format_poly", "f", format_poly)
    s.polynomial("rank_compare", "f", lambda p: rank_compare(p, x), other)
    s.polynomial("rank_compare", "g", lambda p: rank_compare(x, p), other)
    s.polynomial("project_to_differential", "f", project_to_differential)
    s.add("project_to_differential", "f", [x], WrongAlgebra, project_to_differential)
    s.polynomial("DivisorSet.add", "f", lambda p: DivisorSet([x]).add(p), other)
    for name, call in (("DivisorSet", lambda fs: DivisorSet(fs)),
                       ("charset_complete", charset_complete),
                       ("validate_autoreduced", validate_autoreduced),
                       ("d_ideal_generators", lambda fs: d_ideal_generators(fs, 1)),
                       ("closure_step_witness",
                        lambda fs: closure_step_witness(fs, witness()))):
        s.polynomial(name, "first member", lambda p, call=call: call([p, x]))
        s.polynomial(name, "second member", lambda p, call=call: call([x, p]), other)
    for name, call in (("reduce", reduce), ("a_leader", a_leader),
                       ("is_reduced_wrt_set", is_reduced_wrt_set)):
        s.polynomial(name, "g", lambda p, call=call: call(p, [x]), other)
        s.polynomial(name, "divisor", lambda p, call=call: call(x, [p]), other)
    s.polynomial("is_reduced", "g", lambda p: is_reduced(p, x), other)
    s.polynomial("is_reduced", "f", lambda p: is_reduced(x, p), other)
    s.polynomial("verify_certificate", "g", lambda p: verify_certificate(p, [x], cert),
                 other, expected=False)
    s.polynomial("verify_certificate", "divisor",
                 lambda p: verify_certificate(f, [p], cert), other, expected=False)
    s.polynomial("verify_certificate", "cofactor c",
                 lambda p: verify_certificate(f, [x], forged(c=Cofactor(p, zero, 0))),
                 other, expected=False)
    s.polynomial("closure_step_witness", "a",
                 lambda p: closure_step_witness([x], witness(a=p)), other, BadWitness)
    s.polynomial("closure_step_witness", "term c",
                 lambda p: closure_step_witness([x], witness(c=p)), other, BadWitness)

    # variables: narrow has two slots, hs:2 three
    narrow = DVariable(1, (0, 0))
    ranking = SequentialRanking(hs2)
    s.variable("DPolynomial.from_variable", "v",
               lambda w: DPolynomial.from_variable(hs2, w), narrow)
    s.variable("DPolynomial.degree_in", "v", lambda w: f.degree_in(w), narrow)
    s.variable("DPolynomial.coefficient_in", "v", lambda w: f.coefficient_in(w, 0), narrow)
    s.variable("Monomial.degree_in", "v", lambda w: Monomial([(v, 2)]).degree_in(w))
    s.variable("Monomial.without", "v", lambda w: Monomial([(v, 2)]).without(w))
    s.variable("transform_of", "v", lambda w: transform_of(hs2, w, v), narrow)
    s.variable("transform_of", "u", lambda w: transform_of(hs2, v, w), narrow)
    s.variable("apply_slot", "v", lambda w: apply_slot(hs2, w, 1, 0), narrow)
    s.variable("SequentialRanking.key", "v", ranking.key, narrow)
    s.variable("SequentialRanking.compare", "v", lambda w: ranking.compare(w, v), narrow)
    s.variable("SequentialRanking.compare", "w", lambda w: ranking.compare(v, w), narrow)
    s.variable("check_ranking_axioms", "sample member",
               lambda w: check_ranking_axioms(ranking, [v, w]), narrow)
    return s


def test_the_sweep_covers_every_public_callable():
    swept = sweep_cases().names
    exported = {name for names in dstar._EXPORTS.values() for name in names}
    assert exported - swept == NOT_SWEPT
    assert not swept & NOT_SWEPT
    for cls in (DAlgebra, DPolynomial, DivisorSet):
        public = {name for name in vars(cls) if not name.startswith("_")}
        methods = {name.split(".")[1] for name in swept if name.startswith(cls.__name__ + ".")}
        assert public - methods == NOT_SWEPT_METHODS[cls.__name__], cls.__name__


def test_every_public_argument_is_judged():
    failures = []
    for name, argument, value, expected, call in sweep_cases().cases:
        where = f"{name} {argument}={value!r}"
        try:
            result = _within_two_seconds(lambda: call(value))
        except Exception as exc:    # judged below
            if expected is False or not isinstance(exc, expected) or type(exc) in (
                    TypeError, AttributeError, IndexError):
                failures.append(f"{where} raised {type(exc).__name__}: {exc}")
        else:
            if not (expected is False and result is False):
                failures.append(f"{where} returned {result!r}")
    assert not failures, "\n".join(failures)


def _judged_sites():
    """(module, function, line) of each `raise IndexOutOfRange` and each
    `... is not int` test in src/dstar; a method is named Class.method."""
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        functions = [(node.name, node) for node in body if isinstance(node, ast.FunctionDef)]
        functions += [(f"{cls.name}.{node.name}", node) for cls in body
                      if isinstance(cls, ast.ClassDef) for node in cls.body
                      if isinstance(node, ast.FunctionDef)]
        for name, function in functions:
            for node in ast.walk(function):
                raised = getattr(node, "exc", None)
                if isinstance(raised, ast.Call):
                    raised = raised.func
                if (isinstance(node, ast.Raise)
                        and getattr(raised, "id", None) == "IndexOutOfRange"):
                    yield path.stem, name, node.lineno
                if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot)
                        and getattr(node.comparators[0], "id", None) == "int"):
                    yield path.stem, name, node.lineno


# the judges, and the type tests of values that are not indices: a
# monomial's exponent, a JSON integer and a witness's exponents
JUDGES = {("ordering", "check_index"), ("ordering", "multi_index_fault"),
          ("ordering", "check_multi_index"), ("poly", "check_natural")}
NOT_INDICES = {("poly", "Monomial.__init__"), ("parser", "json_int"),
               ("charset", "closure_step_witness")}


def test_the_index_rule_lives_in_the_judges():
    outside = [site for site in _judged_sites() if site[:2] not in JUDGES | NOT_INDICES]
    assert not outside, outside
    # the guard sees what it guards
    assert {site[:2] for site in _judged_sites()} >= JUDGES
