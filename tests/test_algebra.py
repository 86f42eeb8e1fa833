import copy
import dataclasses
import pickle
import time
from fractions import Fraction

import pytest

from dstar.algebra import (
    AlgebraSpec,
    DAlgebra,
    algebra_from_name,
    builtin,
    dump_spec,
    load_spec,
    make_block_spec,
    validate_algebra,
)
from dstar.errors import (
    ExprParseError,
    IndexOutOfRange,
    InvalidAlgebraSpec,
    NotAssociative,
    NotLocalBlock,
    NotUnital,
    RankedBasisViolation,
    UnknownBuiltin,
)


def _ideal_power_nu_oracle(names, products, j):
    """Brute-force nu: largest r with epsilon_j in the span of r-fold products."""
    dim = len(names)
    index = {n: k for k, n in enumerate(names)}
    mult = {}
    for (a, b), coords in products.items():
        vec = [Fraction(0)] * dim
        for n, c in coords:
            vec[index[n]] += Fraction(c)
        mult[(index[a], index[b])] = vec
        mult[(index[b], index[a])] = vec

    def vec_mul(u, w):
        out = [Fraction(0)] * dim
        for p in range(dim):
            if u[p] == 0:
                continue
            for q in range(dim):
                if w[q] == 0:
                    continue
                prod = mult.get((p, q), [Fraction(0)] * dim)
                for k in range(dim):
                    out[k] += u[p] * w[q] * prod[k]
        return out

    def rref(rows):
        rows = [list(r) for r in rows if any(x != 0 for x in r)]
        out = []
        for col in range(dim):
            pivot = next((r for r in rows if r[col] != 0), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            pivot = [x / pivot[col] for x in pivot]
            rows = [[x - r[col] * y for x, y in zip(r, pivot)] for r in rows]
            rows = [r for r in rows if any(x != 0 for x in r)]
            out.append(pivot)
        return out

    def contains(span, v):
        v = list(v)
        for row in span:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if v[lead] != 0:
                f = v[lead]
                v = [x - f * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    basis = lambda k: [Fraction(1 if i == k else 0) for i in range(dim)]
    first = rref([basis(k) for k in range(1, dim)])
    spans = []
    current = first
    while current:
        spans.append(current)
        current = rref([vec_mul(u, w) for u in current for w in first])
    depth = 0
    for r, span in enumerate(spans, start=1):
        if contains(span, basis(index[j])):
            depth = r
    return depth


def test_dual_numbers_validate(dual):
    assert dual.t == 1
    assert dual.nu(1, 1) == 1
    assert dual.gamma(1, 1) == frozenset()
    assert dual.op_names == ("s1", "d1.1")


def test_truncated_power_series_nu_and_gamma():
    spec = builtin("truncated_hs", 3)  # Q[e]/e^4, basis 1, e, e2, e3
    d = validate_algebra(spec)
    assert d.blocks[0].nu == (1, 2, 3)
    # independent oracle: iterated spans of products
    products = {pair: coords for pair, coords in spec.blocks[0].table}
    names = spec.blocks[0].basis_names
    for j, name in enumerate(names[1:], start=1):
        assert d.nu(1, j) == _ideal_power_nu_oracle(names, products, name)
    assert sorted(d.gamma(1, 3)) == [(1, 1), (1, 2), (2, 1)]
    assert sorted(d.gamma(1, 2)) == [(1, 1)]
    assert d.gamma(1, 1) == frozenset()


def test_misordered_basis_rejected():
    # e2 listed before e: nu would be (2, 1)
    spec = AlgebraSpec((make_block_spec(
        ["1", "ee", "e"],
        {("1", "1"): [("1", 1)], ("1", "ee"): [("ee", 1)], ("1", "e"): [("e", 1)],
         ("e", "e"): [("ee", 1)]}),))
    with pytest.raises(RankedBasisViolation):
        validate_algebra(spec)


def test_unadapted_basis_rejected():
    # basis {1, e + e2, e} of Q[e]/e^3: nu = (1, 1) is nondecreasing but
    # e*e = (e + e2) - e escapes the depth filtration
    spec = AlgebraSpec((make_block_spec(
        ["1", "f", "e"],
        {("1", "1"): [("1", 1)], ("1", "f"): [("f", 1)], ("1", "e"): [("e", 1)],
         ("e", "e"): [("f", 1), ("e", -1)],
         ("e", "f"): [("f", 1), ("e", -1)],
         ("f", "f"): [("f", 1), ("e", -1)]}),))
    with pytest.raises(RankedBasisViolation):
        validate_algebra(spec)


def test_not_unital_witness():
    spec = AlgebraSpec((make_block_spec(
        ["1", "e"], {("1", "1"): [("1", 1)], ("1", "e"): [("e", 2)]}),))
    with pytest.raises(NotUnital) as exc:
        validate_algebra(spec)
    assert exc.value.pair == ("1", "e")


def test_not_associative_witness():
    spec = AlgebraSpec((make_block_spec(
        ["1", "a", "b"],
        {("1", "1"): [("1", 1)], ("1", "a"): [("a", 1)], ("1", "b"): [("b", 1)],
         ("a", "a"): [("b", 1)], ("a", "b"): [("a", 1)]}),))
    with pytest.raises((NotAssociative, NotLocalBlock)):
        validate_algebra(spec)


def test_not_nilpotent_rejected():
    # e*e = e: the span of e is an ideal but not nilpotent
    spec = AlgebraSpec((make_block_spec(
        ["1", "e"], {("1", "1"): [("1", 1)], ("1", "e"): [("e", 1)],
                     ("e", "e"): [("e", 1)]}),))
    with pytest.raises(NotLocalBlock):
        validate_algebra(spec)


def test_alpha_examples(dual, hs2):
    hs3 = validate_algebra(builtin("truncated_hs", 3))
    assert hs2.alpha(1, 2, 1, 1) == 1     # e*e = e2 in Q[e]/e^3
    assert dual.alpha(1, 1, 1, 1) == 0    # e*e = 0 in dual numbers
    assert hs3.alpha(1, 3, 1, 2) == 1     # e*e2 = e3 in Q[e]/e^4
    with pytest.raises(IndexOutOfRange):
        dual.alpha(1, 1, 2, 1)
    with pytest.raises(IndexOutOfRange):
        dual.alpha(2, 1, 1, 1)


def test_structure_constants_are_ints_when_integral():
    # alpha feeds every block image, whose coefficients stay ints only if
    # the table's integral constants are ints
    hs3 = validate_algebra(builtin("truncated_hs", 3))
    for j in range(1, 4):
        for p in range(1, 4):
            for q in range(1, 4):
                assert type(hs3.alpha(1, j, p, q)) is int
    # Q[e]/(e^3) with e*e = 1/2 * f: a rational constant stays a Fraction
    half = validate_algebra(AlgebraSpec((make_block_spec(
        ["1", "e", "f"], {("1", "1"): [("1", 1)], ("1", "e"): [("e", 1)],
                          ("1", "f"): [("f", 1)], ("e", "e"): [("f", "1/2")]}),)))
    assert half.alpha(1, 2, 1, 1) == Fraction(1, 2)
    assert type(half.alpha(1, 2, 1, 1)) is Fraction
    assert type(half.alpha(1, 1, 1, 1)) is int


def test_block_index_is_checked_by_every_block_accessor(hs2, dd11):
    # gamma(0, 1) used to answer for the last block, and gamma(t + 1, 1)
    # to raise a bare IndexError
    for d in (hs2, dd11):
        for i in (0, d.t + 1):
            message = f"block index {i} out of range 1..{d.t}"
            for call in (lambda: d.gamma(i, 1), lambda: d.nu(i, 1),
                         lambda: d.alpha(i, 1, 1, 1), lambda: d.slot_index(i, 0),
                         lambda: d.block(i)):
                with pytest.raises(IndexOutOfRange) as info:
                    call()
                assert str(info.value) == message


def test_alpha_vanishes_outside_gamma(all_builtins):
    for d in all_builtins.values():
        for i in range(1, d.t + 1):
            m = d.blocks[i - 1].m
            for j in range(1, m + 1):
                gamma = d.gamma(i, j)
                for p in range(1, m + 1):
                    for q in range(1, m + 1):
                        if (p, q) not in gamma:
                            assert d.alpha(i, j, p, q) == 0


def test_block_products_associative_from_table(all_builtins):
    # (a*b)*c = a*(b*c) for all basis triples, exactly; validation already
    # guarantees this, so validated algebras must exist
    for name, d in all_builtins.items():
        assert d.M >= 1, name


def test_builtins():
    f2 = validate_algebra(builtin("fields", 2))
    assert f2.t == 2
    assert f2.op_names == ("s1", "s2")
    hs = validate_algebra(builtin("truncated_hs", 2))
    assert hs.op_names == ("s1", "d1.1", "d1.2")
    dd = validate_algebra(builtin("diff_difference", 2, 1))
    assert dd.op_names == ("s1", "d1.1", "d1.2", "s2")
    assert validate_algebra(builtin("dual")).M == 2
    with pytest.raises(UnknownBuiltin):
        builtin("octonions")
    with pytest.raises(UnknownBuiltin):
        builtin("fields", 0)
    # a bool is not a parameter: builtin("fields", True) used to build fields(1)
    for name, params in (("fields", (True,)), ("truncated_hs", (True,)),
                         ("diff_difference", (1, True)), ("fields", (2.0,)),
                         ("dual", (1,))):
        with pytest.raises(UnknownBuiltin):
            builtin(name, *params)


def test_algebra_from_name():
    assert algebra_from_name("dual").op_names == ("s1", "d1.1")
    assert algebra_from_name("fields:3").t == 3
    assert algebra_from_name("hs:2").M == 3
    assert algebra_from_name("dd:1,2").t == 3
    with pytest.raises(UnknownBuiltin):
        algebra_from_name("dd:1")


def test_each_builtin_name_is_read_from_one_table():
    # dual is truncated_hs(1), and dd(n, m) has fields(m) beside its first block
    assert builtin("dual") == builtin("truncated_hs", 1)
    assert algebra_from_name("hs:1") == algebra_from_name("dual")
    for k in (1, 2, 3):
        assert algebra_from_name(f"fields:{k}") == validate_algebra(builtin("fields", k))
        assert algebra_from_name(f"hs:{k}") == validate_algebra(builtin("truncated_hs", k))
        for m in (1, 2):
            assert algebra_from_name(f"dd:{k},{m}") == \
                validate_algebra(builtin("diff_difference", k, m))
            assert builtin("diff_difference", k, m).blocks[1:] == builtin("fields", m).blocks
    for name in ("fields", "hs", "dd", "truncated_hs:2", "dual:", "dual:1", "hs:",
                 "hs:0", "hs:1,2", "fields:1,", "dd:1", "dd:1,1,1", "dd:0,1",
                 "dd:1;1", "octonions", ""):
        with pytest.raises(UnknownBuiltin):
            algebra_from_name(name)


def test_block_spec_coefficients_follow_the_rational_rule():
    # Fraction(c) used to read all of these: other scripts' digits, '_', '+',
    # exponents, padding, and floats and bools as exact rationals
    def unit_block(c):
        return make_block_spec(["1"], {("1", "1"): [("1", c)]})

    for c, value in (("1/2", Fraction(1, 2)), ("2", 2), ("-3", -3), ("6/4", Fraction(3, 2)),
                     (5, 5), (Fraction(-2, 3), Fraction(-2, 3))):
        assert unit_block(c).table == ((("1", "1"), (("1", value),)),)
    for text in ("\u0661", "1_0", "+2", "1e3", " 1/2 ", "1/0", "1/-2", "1.5", ""):
        with pytest.raises(ExprParseError):
            unit_block(text)
    for c in (0.1, 1.0, True, False, None):
        with pytest.raises(TypeError):
            unit_block(c)


def test_spec_json_round_trip():
    spec = builtin("truncated_hs", 2)
    text = dump_spec(spec)
    again = load_spec(text)
    assert validate_algebra(again) == validate_algebra(spec)


def test_spec_json_rejects_unknown_keys():
    with pytest.raises(ExprParseError):
        load_spec('{"blocks": [], "extra": 1}')
    with pytest.raises(ExprParseError):
        load_spec('{"blocks": [{"basis": ["1"], "tables": {}}]}')
    with pytest.raises(ExprParseError):
        load_spec('{"blocks": [{"basis": ["1"], "table": {"1*1": [["1", "0.5"]]}}]}')
    with pytest.raises(ExprParseError) as exc:
        load_spec('{"blocks": [')
    assert exc.value.line >= 1


def test_spec_structural_errors():
    with pytest.raises(InvalidAlgebraSpec):
        validate_algebra(AlgebraSpec((make_block_spec([], {}),)))
    with pytest.raises(InvalidAlgebraSpec):
        validate_algebra(AlgebraSpec((
            make_block_spec(["1"], {("1", "1"): [("1", 1)]}),
            make_block_spec(["1"], {("1", "1"): [("1", 1)]}))))
    with pytest.raises(InvalidAlgebraSpec):
        validate_algebra(AlgebraSpec((make_block_spec(
            ["1"], {("1", "z"): [("1", 1)]}),)))


THREE_BLOCKS = """{"blocks": [
  {"basis": ["a", "e", "e2"], "table": {"a*a": [["a", 1]], "a*e": [["e", 1]],
                                        "a*e2": [["e2", 1]], "e*e": [["e2", 1]]}},
  {"basis": ["u"], "table": {"u*u": [["u", 1]]}},
  {"basis": ["b", "n1", "n2"], "table": {"b*b": [["b", 1]], "b*n1": [["n1", 1]],
                                         "b*n2": [["n2", 1]]}}
]}"""


def test_slot_layout_is_computed_once_and_matches_the_sums(all_builtins):
    # the summing definitions M, slot_index, block_of_slot and delta_slots had
    # before the layout was kept in the object
    def summed_slot_index(d, i, p):
        return sum(b.m + 1 for b in d.blocks[:i - 1]) + p

    def scanned_block_of_slot(d, s):
        offset = 0
        for i, block in enumerate(d.blocks, start=1):
            if s < offset + block.m + 1:
                return i, s - offset
            offset += block.m + 1

    algebras = dict(all_builtins, three=validate_algebra(load_spec(THREE_BLOCKS)))
    assert algebras["three"].t == 3
    for name, d in algebras.items():
        assert d.M == sum(b.m + 1 for b in d.blocks), name
        assert vars(d)["M"] == d.M    # kept in the object after the first read
        for i, p in d.slot_pairs():
            s = summed_slot_index(d, i, p)
            assert d.slot_index(i, p) == s
            assert d.block_of_slot(s) == scanned_block_of_slot(d, s) == (i, p)
        for i in range(1, d.t + 1):
            base = summed_slot_index(d, i, 0)
            assert d.delta_slots(i) == range(base + 1, base + 1 + d.blocks[i - 1].m)
        with pytest.raises(IndexOutOfRange):
            d.block_of_slot(d.M)
        with pytest.raises(IndexOutOfRange):
            d.slot_index(d.t + 1, 0)

        # the cached layout leaves equality, hashing, copying and pickling alone
        fresh = DAlgebra(d.blocks)
        assert fresh == d and hash(fresh) == hash(d) and repr(fresh) == repr(d)
        for again in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)),
                      pickle.loads(pickle.dumps(fresh))):
            assert again == d and hash(again) == hash(d)
            assert again.M == d.M
            assert [again.block_of_slot(s) for s in range(d.M)] == d.slot_pairs()
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.blocks = ()


def _unital_block(names, products):
    """A block spec whose first name is listed as the unit of every name."""
    table = {(names[0], n): [(n, 1)] for n in names}
    table.update(products)
    return make_block_spec(names, table)


@pytest.mark.parametrize("blocks, error, message", [
    ((make_block_spec(["1", "e"], {("1", "1"): [("1", 1)], ("1", "e"): [("e", 2)]}),),
     NotUnital, "block 1: 1*e != e"),
    # the first failing triple in basis order: (a*a)*a = a*(a*a) = a holds
    ((_unital_block(["u"], {}),
      _unital_block(["1", "a", "b"], {("a", "a"): [("b", 1)], ("a", "b"): [("a", 1)]})),
     NotAssociative, "block 2: (a*a)*b != a*(a*b)"),
    ((_unital_block(["1", "e"], {("e", "e"): [("1", "1/2")]}),),
     NotLocalBlock,
     "block 1: e*e has a unit component (1/2); nilpotent span is not an ideal"),
    ((_unital_block(["1", "e"], {("e", "e"): [("e", 1)]}),),
     NotLocalBlock,
     "block 1: nilpotent span stabilises at dimension 1 (power 2); block is not local"),
    ((_unital_block(["1", "ee", "e"], {("e", "e"): [("ee", 1)]}),),
     RankedBasisViolation,
     "block 1: nu(1)=2 > nu(2)=1: basis indices 1 < 2 are not depth-ordered"),
    ((_unital_block(["1", "f", "e"], {("e", "e"): [("f", 1), ("e", -1)],
                                      ("e", "f"): [("f", 1), ("e", -1)],
                                      ("f", "f"): [("f", 1), ("e", -1)]}),),
     RankedBasisViolation,
     "block 1: f*f has a f component but nu(1)+nu(1) = 2 > nu(1) = 1: basis not "
     "adapted to the ideal powers"),
])
def test_validation_failures_name_their_witness(blocks, error, message):
    with pytest.raises(error) as exc:
        validate_algebra(AlgebraSpec(blocks))
    assert type(exc.value) is error
    assert str(exc.value) == message


BUILTIN_SPECS = (
    [("dual",)] + [("fields", m) for m in (1, 2, 3)]
    + [("truncated_hs", n) for n in range(1, 9)]
    + [("diff_difference", n, m) for n in (1, 2, 3) for m in (1, 2)])
BUILTIN_IDS = ["-".join(map(str, params)) for params in BUILTIN_SPECS]


@pytest.mark.parametrize("params", BUILTIN_SPECS, ids=BUILTIN_IDS)
def test_builtin_nu_matches_the_ideal_power_oracle(params):
    spec = builtin(*params)
    d = validate_algebra(spec)
    for i, block in enumerate(spec.blocks, start=1):
        products = {pair: coords for pair, coords in block.table}
        names = block.basis_names
        for j, name in enumerate(names[1:], start=1):
            assert d.nu(i, j) == _ideal_power_nu_oracle(names, products, name)


@pytest.mark.parametrize("params", BUILTIN_SPECS, ids=BUILTIN_IDS)
def test_block_table_has_the_identity_as_unit_row_and_gives_alpha(params):
    d = validate_algebra(builtin(*params))
    for i, block in enumerate(d.blocks, start=1):
        table = block.table
        assert len(table) == block.m + 1
        for p, row in enumerate(table):
            assert len(row) == block.m + 1
            assert table[0][p] == table[p][0] == ((p, 1),)
            for q, entries in enumerate(row):
                assert entries == table[q][p]
                assert [j for j, _ in entries] == sorted({j for j, _ in entries})
                assert all(c != 0 for _, c in entries)
        for j in range(1, block.m + 1):
            for p in range(1, block.m + 1):
                for q in range(1, block.m + 1):
                    assert d.alpha(i, j, p, q) == dict(block.table[p][q]).get(j, 0)


def test_a_coordinate_listed_twice_is_summed_and_a_zero_sum_dropped():
    # 1*e lists e twice (1/2 + 1/2 = 1) and e*e sums to zero, so it is e*e = 0
    dual = validate_algebra(builtin("dual"))
    spec = make_block_spec(["1", "e"], {("1", "1"): [("1", 1)],
                                        ("1", "e"): [("e", "1/2"), ("e", "1/2")],
                                        ("e", "e"): [("e", "1"), ("e", "-1")]})
    text = ('{"blocks": [{"basis": ["1", "e"], "table": {"1*1": [["1", "1"]], '
            '"1*e": [["e", "1/2"], ["e", "1/2"]], "e*e": [["e", "1"], ["e", "-1"]]}}]}')
    for written in (AlgebraSpec((spec,)), load_spec(text)):
        d = validate_algebra(written)
        assert d == dual
        assert d.blocks[0].table == ((((0, 1),), ((1, 1),)), (((1, 1),), ()))
        assert type(d.blocks[0].table[0][1][0][1]) is int


def test_truncated_hs_40_validates_within_two_seconds():
    start = time.perf_counter()
    d = validate_algebra(builtin("truncated_hs", 40))
    elapsed = time.perf_counter() - start
    assert d.blocks[0].nu == tuple(range(1, 41))
    assert elapsed < 2.0, elapsed


def _spec_with_table(table):
    return '{"blocks": [{"basis": ["1", "e"], "table": %s}]}' % table


# one input per raise site, with a fragment of the message that site writes
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: load_spec("[]"), ExprParseError, "must be a JSON object"),
    (lambda: load_spec("{}"), ExprParseError, 'needs a "blocks" list'),
    (lambda: load_spec('{"blocks": [1]}'), ExprParseError, "block 1 must be an object"),
    (lambda: load_spec('{"blocks": [{"basis": ["1", 2]}]}'), ExprParseError,
     '"basis" must be a list of names'),
    (lambda: load_spec('{"blocks": [{"basis": ["1"], "table": []}]}'), ExprParseError,
     '"table" must be an object'),
    (lambda: load_spec(_spec_with_table('{"1e": []}')), ExprParseError,
     "bad product key '1e'"),
    (lambda: load_spec(_spec_with_table('{"1*e": [["e"]]}')), ExprParseError,
     "bad coordinate in '1*e'"),
    (lambda: load_spec(_spec_with_table('{"1*e": [["e", 1.0]]}')), ExprParseError,
     "coefficient 1.0 in '1*e' is not"),
    (lambda: load_spec(_spec_with_table('{"1*e": [["e", true]]}')), ExprParseError,
     "coefficient True in '1*e' is not"),
    (lambda: load_spec(_spec_with_table('{"1*e": [["e", null]]}')), ExprParseError,
     "coefficient None in '1*e' is not"),
    (lambda: load_spec(_spec_with_table('{"1*e": [], "e*1": []}')), ExprParseError,
     "duplicate product e*1"),
    (lambda: make_block_spec(["1", "e"], {("1", "e"): [], ("e", "1"): []}),
     InvalidAlgebraSpec, "duplicate product entry 1*e"),
    (lambda: validate_algebra(AlgebraSpec(())), InvalidAlgebraSpec,
     "at least one block"),
    (lambda: validate_algebra(AlgebraSpec((
        make_block_spec(["1"], {("1", "1"): [("z", 1)]}),))), InvalidAlgebraSpec,
     "yields unknown name 'z'"),
    (lambda: validate_algebra(builtin("dual")).nu(1, 2), IndexOutOfRange,
     "basis index 2 out of range 0..1"),
    (lambda: validate_algebra(builtin("dual")).gamma(1, 0), IndexOutOfRange,
     "basis index 0 out of range 1..1"),
], ids=["not-an-object", "no-blocks-list", "block-not-an-object", "basis-not-names",
        "table-not-an-object", "key-without-star", "coordinate-not-a-pair",
        "float-coefficient", "bool-coefficient", "null-coefficient",
        "duplicate-product", "duplicate-block-spec-entry", "no-blocks",
        "yields-unknown-name", "nu-index", "gamma-index"])
def test_each_algebra_input_rejection_raises_its_class(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert fragment in str(exc.value)
