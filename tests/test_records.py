"""The immutable records: what each keeps from its former frozen dataclass.

Every record compares and hashes as the tuple of its fields (BlockData
leaves its table out of the hash), prints as Name(field=value, ...),
copies and pickles, and refuses assignment and deletion with
dataclasses.FrozenInstanceError.  It also takes its fields by keyword, and
dataclasses' fields(), replace() and asdict(), and pprint, accept it.
"""

import copy
import dataclasses
import pickle
import pprint
from fractions import Fraction

import pytest

from dstar.algebra import (
    AlgebraSpec,
    BlockData,
    BlockSpec,
    DAlgebra,
    builtin,
    validate_algebra,
)
from dstar.charset import (
    AutoreducedSet,
    CharSetResult,
    ClosureWitness,
    PrimePresentation,
    RoundTrace,
)
from dstar.classical import DiffPolynomial, DiffVar, RittCertificate
from dstar.ordering import DVariable, Transform
from dstar.parser import parse_poly
from dstar.poly import DPolynomial, Monomial
from dstar.reduction import ALeader, Cofactor, HFactor, ReductionCertificate, Step

DUAL = validate_algebra(builtin("dual"))
BLOCK = DUAL.blocks[0]
F = parse_poly("x1[0,1]", DUAL)
G = parse_poly("x1[0,0]", DUAL)
ONE = DPolynomial.constant(DUAL, 1)
V = DVariable(1, (0, 2))
BLOCK_SPEC = BlockSpec(("1", "e"), ((("1", "e"), (("e", Fraction(1)),)),))
H_FACTOR = HFactor((0, 1), "initial", 0)
COFACTOR = Cofactor(ONE, (0, 1), 0)
STEP = Step(V, "delta", 1)
CERTIFICATE = ReductionCertificate((H_FACTOR,), G, (COFACTOR,), (STEP,))

BLOCK_REPR = ("BlockData(names=('1', 'e'), nu=(1,), "
              "table=((((0, 1),), ((1, 1),)), (((1, 1),), ())))")
H_FACTOR_REPR = "HFactor(theta=(0, 1), source='initial', member=0)"
COFACTOR_REPR = "Cofactor(c=DPolynomial(1), theta=(0, 1), member=0)"
STEP_REPR = "Step(leader=DVariable(var=1, theta=(0, 2)), case='delta', degree=1)"

# (record, its field values, the same values with one changed, its repr)
RECORDS = [
    (BLOCK_SPEC, (("1", "e"), ((("1", "e"), (("e", Fraction(1)),)),)),
     (("1", "e"), ()),
     "BlockSpec(basis_names=('1', 'e'), table=((('1', 'e'), (('e', Fraction(1, 1)),)),))"),
    (AlgebraSpec((BLOCK_SPEC,)), ((BLOCK_SPEC,),), ((),),
     "AlgebraSpec(blocks=(BlockSpec(basis_names=('1', 'e'), table=((('1', 'e'), "
     "(('e', Fraction(1, 1)),)),)),))"),
    (BLOCK, (("1", "e"), (1,), BLOCK.table), (("1", "e"), (2,), BLOCK.table), BLOCK_REPR),
    (DUAL, (DUAL.blocks,), ((),), f"DAlgebra(blocks=({BLOCK_REPR},))"),
    (AutoreducedSet((F,)), ((F,),), ((G,),),
     "AutoreducedSet(members=(DPolynomial(x1[0,1]),))"),
    (RoundTrace(1, (F,), ()), (1, (F,), ()), (2, (F,), ()),
     "RoundTrace(round=1, selected=(DPolynomial(x1[0,1]),), remainders_added=())"),
    (CharSetResult(AutoreducedSet((F,)), (), (CERTIFICATE,)),
     (AutoreducedSet((F,)), (), (CERTIFICATE,)), (AutoreducedSet((F,)), (), ()),
     "CharSetResult(charset=AutoreducedSet(members=(DPolynomial(x1[0,1]),)), "
     "completion_trace=(), certificates=(ReductionCertificate(h_factors="
     f"({H_FACTOR_REPR},), remainder=DPolynomial(x1[0,0]), cofactors=({COFACTOR_REPR},), "
     f"steps=({STEP_REPR},)),))"),
    (ClosureWitness(F, ((1, 0),), (2,), ((ONE, (0, 0), 0),)),
     (F, ((1, 0),), (2,), ((ONE, (0, 0), 0),)), (F, ((1, 0),), (3,), ((ONE, (0, 0), 0),)),
     "ClosureWitness(a=DPolynomial(x1[0,1]), taus=((1, 0),), exponents=(2,), "
     "combination=((DPolynomial(1), (0, 0), 0),))"),
    (PrimePresentation(AutoreducedSet((F,)), ONE), (AutoreducedSet((F,)), ONE),
     (AutoreducedSet((F,)), F),
     "PrimePresentation(charset=AutoreducedSet(members=(DPolynomial(x1[0,1]),)), "
     "multiplier=DPolynomial(1))"),
    (DiffVar(1, 2), (1, 2), (2, 1), "DiffVar(order=1, var=2)"),
    (RittCertificate(DiffPolynomial.constant(1), DiffPolynomial.zero(),
                     ((Fraction(1), 1, 0),), ((DiffVar(1, 1), "delta"),)),
     (DiffPolynomial.constant(1), DiffPolynomial.zero(), ((Fraction(1), 1, 0),),
      ((DiffVar(1, 1), "delta"),)),
     (DiffPolynomial.constant(1), DiffPolynomial.zero(), ((Fraction(1), 1, 0),),
      ((DiffVar(1, 1), "sigma"),)),
     "RittCertificate(h=1, remainder=0, cofactors=((Fraction(1, 1), 1, 0),), "
     "steps=((DiffVar(order=1, var=1), 'delta'),))"),
    (Transform((0, 1), True), ((0, 1), True), ((0, 1), False),
     "Transform(theta=(0, 1), is_delta=True)"),
    (H_FACTOR, ((0, 1), "initial", 0), ((0, 1), "separant", 0), H_FACTOR_REPR),
    (COFACTOR, (ONE, (0, 1), 0), (F, (0, 1), 0), COFACTOR_REPR),
    (STEP, (V, "delta", 1), (V, "sigma", 1), STEP_REPR),
    (CERTIFICATE, ((H_FACTOR,), G, (COFACTOR,), (STEP,)),
     ((H_FACTOR,), F, (COFACTOR,), (STEP,)),
     f"ReductionCertificate(h_factors=({H_FACTOR_REPR},), remainder=DPolynomial(x1[0,0]), "
     f"cofactors=({COFACTOR_REPR},), steps=({STEP_REPR},))"),
    (ALeader(V, 1, 0, (0, 1), True), (V, 1, 0, (0, 1), True), (V, 2, 0, (0, 1), True),
     "ALeader(variable=DVariable(var=1, theta=(0, 2)), degree=1, member=0, "
     "theta=(0, 1), is_delta=True)"),
]
FIELDS = {
    BlockSpec: ("basis_names", "table"), AlgebraSpec: ("blocks",),
    BlockData: ("names", "nu", "table"), DAlgebra: ("blocks",),
    AutoreducedSet: ("members",), RoundTrace: ("round", "selected", "remainders_added"),
    CharSetResult: ("charset", "completion_trace", "certificates"),
    ClosureWitness: ("a", "taus", "exponents", "combination"),
    PrimePresentation: ("charset", "multiplier"), DiffVar: ("order", "var"),
    RittCertificate: ("h", "remainder", "cofactors", "steps"),
    Transform: ("theta", "is_delta"), HFactor: ("theta", "source", "member"),
    Cofactor: ("c", "theta", "member"), Step: ("leader", "case", "degree"),
    ReductionCertificate: ("h_factors", "remainder", "cofactors", "steps"),
    ALeader: ("variable", "degree", "member", "theta", "is_delta"),
}


def test_every_former_dataclass_is_listed():
    assert len(RECORDS) == len(FIELDS) == 17
    assert {type(entry[0]) for entry in RECORDS} == set(FIELDS)


@pytest.mark.parametrize("record, values, changed, text", RECORDS,
                         ids=[type(entry[0]).__name__ for entry in RECORDS])
def test_record_keeps_its_dataclass_behaviour(record, values, changed, text):
    cls = type(record)
    names = FIELDS[cls]
    assert tuple(getattr(record, name) for name in names) == values

    # equality over the field tuple; another class is NotImplemented
    assert cls(*values) == record and not cls(*values) != record
    assert cls(*changed) != record
    assert record.__eq__(values) is NotImplemented and record != values
    assert record.__eq__(object()) is NotImplemented

    # the hash of the field tuple; BlockData leaves its table out
    if cls is BlockData:
        assert hash(record) == hash(values[:2])
        assert hash(cls(*values[:2], ())) == hash(record)
        assert cls(*values[:2], ()) != record
    else:
        assert hash(record) == hash(values) == hash(cls(*values))

    assert repr(record) == text

    for again in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(again) is cls and again == record and repr(again) == text
        assert hash(again) == hash(record)

    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.other = None
    assert tuple(getattr(record, name) for name in names) == values

    # keyword construction and dataclasses' API
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), other=None)
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))

    assert dataclasses.replace(record, **dict(zip(names, changed))) == cls(*changed)
    assert (dataclasses.replace(record, **{names[-1]: changed[-1]})
            == cls(*values[:-1], changed[-1]))
    assert dataclasses.replace(record) == record
    assert tuple(dataclasses.asdict(record)) == names
    # pprint keeps a record on one line where it broke a dataclass's fields
    # over lines; the text is the same
    assert "".join(pprint.pformat(record, width=10).split()) == "".join(text.split())


def test_diff_vars_order_by_order_then_var():
    low, high = DiffVar(1, 2), DiffVar(2, 1)
    assert low < high and low <= high and high > low and high >= low
    assert not (high < low or high <= low or low > high or low >= high)
    same = DiffVar(1, 2)
    assert low <= same and low >= same and not low < same and not low > same
    assert sorted([DiffVar(2, 1), DiffVar(0, 3), DiffVar(1, 2), DiffVar(0, 1)]) == [
        DiffVar(0, 1), DiffVar(0, 3), DiffVar(1, 2), DiffVar(2, 1)]
    for compare in (DiffVar.__lt__, DiffVar.__le__, DiffVar.__gt__, DiffVar.__ge__):
        assert compare(low, (1, 2)) is NotImplemented
    with pytest.raises(TypeError):
        low < (2, 1)


def test_polynomial_types_refuse_changes_like_the_records(dual):
    v = DVariable(1, (0, 1))
    m = Monomial.of({v: 2})
    f = DPolynomial.from_variable(dual, v)
    for obj, attr in ((v, "var"), (v, "theta"), (m, "factors"), (f, "terms"),
                      (f, "algebra")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, attr)
    assert repr(v) == "DVariable(var=1, theta=(0, 1))"
    assert repr(m) == "Monomial(factors=((DVariable(var=1, theta=(0, 1)), 2),))"
