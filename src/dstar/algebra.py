"""Finite-dimensional coefficient algebras from structure constants.

The algebra D is a finite product of local blocks D_1 x ... x D_t over Q.
Each block is described by an ordered basis (first element is the block
unit) and a multiplication table.  Validation checks associativity,
unitality, that the non-unit basis elements span a nilpotent ideal, and
that the basis is ranked: the nilpotency depth nu is nondecreasing along
the basis and products respect the depth filtration.  The validated
DAlgebra carries nu, the index sets gamma, the structure constants alpha
and the operator signature (one sigma slot plus one delta slot per
nilpotent basis element, block by block).

Each block's structure constants are stored once, as one sparse table,
and multiplied by one product, _times.  Validation resolves the basis
names straight into that table and runs every check through _times, and
the block images of operators.py multiply the same table through it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property

from .errors import (
    ExprParseError,
    IndexOutOfRange,
    InvalidAlgebraSpec,
    NotAssociative,
    NotLocalBlock,
    NotUnital,
    RankedBasisViolation,
    UnknownBuiltin,
)
from .ordering import Record, _coefficient, check_index, parse_int


class BlockSpec(Record):
    """One local block: ordered basis names and its multiplication table.

    The table maps unordered basis-name pairs to the coordinates of the
    product, as ((name_a, name_b), ((name, Fraction), ...)) entries; pairs
    not listed multiply to zero.  The first basis name is the block unit,
    so unit products must be listed explicitly.
    """

    __slots__ = _args = ("basis_names", "table")


class AlgebraSpec(Record):
    __slots__ = _args = ("blocks",)


def make_block_spec(basis_names, products):
    """Build a BlockSpec from a {(a, b): [(name, coeff), ...]} mapping.

    A coefficient is an int, a Fraction or a string in the expression
    grammar's rational form, such as "-3/2".  A bad string is an
    ExprParseError; a float, a bool or any other type is a TypeError.
    """
    entries = {}
    for pair, coords in products.items():
        key = tuple(sorted(pair))
        if key in entries:
            raise InvalidAlgebraSpec(f"duplicate product entry {key[0]}*{key[1]}")
        entries[key] = tuple((n, _rational(c, key)) for n, c in coords)
    return BlockSpec(tuple(basis_names), tuple(sorted(entries.items())))


# the expression grammar's rational, sign included
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(c, key):
    """The coefficient c of the product key as a Fraction."""
    if isinstance(c, str):
        match = _RATIONAL_RE.fullmatch(c)
        den = parse_int(match[2] or "1") if match else 0
        if den:
            return Fraction(parse_int(match[1]), den)
        raise ExprParseError(f"coefficient {c!r} in {key[0]}*{key[1]} "
                             "is not a decimal-free rational")
    if type(c) is int or isinstance(c, Fraction):
        return Fraction(c)
    raise TypeError(f"coefficient {c!r} in {key[0]}*{key[1]} "
                    "is not an int, a Fraction or a string")


# ---------------------------------------------------------------------------
# built-in algebras


def builtin(name, *params):
    """Return the AlgebraSpec of one of the stock algebras.

    dual               -> truncated_hs(1)
    fields(m)          -> Q^m, operators (s1, ..., sm)
    diff_difference(n, m) -> Q[n1..nn]/(n1..nn)^2 x fields(m)
    truncated_hs(n)    -> Q[e]/(e^(n+1)), operators (s1, d1.1, ..., d1.n)
    """
    if name == "dual":
        _check_params(name, params, 0)
        return builtin("truncated_hs", 1)
    if name == "fields":
        (m,) = _check_params(name, params, 1)
        return AlgebraSpec(tuple(
            make_block_spec([f"u{k}"], {(f"u{k}", f"u{k}"): [(f"u{k}", 1)]})
            for k in range(1, m + 1)))
    if name == "truncated_hs":
        (n,) = _check_params(name, params, 1)
        names = ["1"] + [f"e{j}" if j > 1 else "e" for j in range(1, n + 1)]
        products = {(names[i], names[j]): [(names[i + j], 1)]
                    for i in range(n + 1) for j in range(i, n + 1 - i)}
        return AlgebraSpec((make_block_spec(names, products),))
    if name == "diff_difference":
        n, m = _check_params(name, params, 2)
        names = ["1"] + [f"n{j}" for j in range(1, n + 1)]
        block = make_block_spec(names, {("1", nm): [(nm, 1)] for nm in names})
        return AlgebraSpec((block, *builtin("fields", m).blocks))
    raise UnknownBuiltin(f"unknown builtin algebra {name!r}")


def _check_params(name, params, count):
    try:
        if len(params) == count:
            return [check_index(p, 1, float("inf"), "parameter") for p in params]
    except IndexOutOfRange:
        pass
    raise UnknownBuiltin(f"builtin {name!r} expects {count} positive integer parameter(s)")


# the builtin each CLI name with parameters stands for, as in hs:2 and dd:1,2;
# a name without a ':' is the builtin's own, as dual is
BUILTIN_NAMES = {"fields": "fields", "hs": "truncated_hs", "dd": "diff_difference"}


def algebra_from_name(name):
    """Resolve a CLI algebra name: dual, fields:m, hs:n or dd:n,m."""
    head, colon, rest = name.partition(":")
    if not colon:
        return validate_algebra(builtin(name))
    if head not in BUILTIN_NAMES:
        raise UnknownBuiltin(f"unknown builtin algebra {name!r}")
    try:
        params = [parse_int(text) for text in rest.split(",")]
    except ExprParseError:
        raise UnknownBuiltin(
            f"bad parameter in builtin algebra name {name!r}") from None
    return validate_algebra(builtin(BUILTIN_NAMES[head], *params))


# ---------------------------------------------------------------------------
# JSON spec files


def load_spec(text):
    """Parse the JSON algebra file format into an AlgebraSpec.

    Top level: {"blocks": [{"basis": [...], "table": {"a*b": [[name, "p/q"],
    ...]}}]}.  Unknown keys are rejected; omitted products are zero.
    """
    from .parser import parse_json   # only algebra files need the expression layer
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ExprParseError("algebra file must be a JSON object")
    unknown = set(doc) - {"blocks"}
    if unknown:
        raise ExprParseError(f"unknown top-level key {sorted(unknown)[0]!r}")
    if "blocks" not in doc or not isinstance(doc["blocks"], list):
        raise ExprParseError('algebra file needs a "blocks" list')
    blocks = []
    for bi, raw in enumerate(doc["blocks"], start=1):
        if not isinstance(raw, dict):
            raise ExprParseError(f"block {bi} must be an object")
        unknown = set(raw) - {"basis", "table"}
        if unknown:
            raise ExprParseError(f"block {bi}: unknown key {sorted(unknown)[0]!r}")
        basis = raw.get("basis")
        if not isinstance(basis, list) or not all(isinstance(n, str) for n in basis):
            raise ExprParseError(f"block {bi}: \"basis\" must be a list of names")
        table = raw.get("table", {})
        if not isinstance(table, dict):
            raise ExprParseError(f"block {bi}: \"table\" must be an object")
        products = {}
        for key, coords in table.items():
            parts = key.split("*")
            if len(parts) != 2:
                raise ExprParseError(f"block {bi}: bad product key {key!r}")
            a, b = parts[0].strip(), parts[1].strip()
            entry = []
            for item in coords:
                if (not isinstance(item, list) or len(item) != 2
                        or not isinstance(item[0], str)):
                    raise ExprParseError(f"block {bi}: bad coordinate in {key!r}")
                coeff = item[1]
                if isinstance(coeff, bool) or not isinstance(coeff, (int, str)):
                    raise ExprParseError(f"block {bi}: coefficient {coeff!r} in "
                                         f"{key!r} is not a decimal-free rational")
                entry.append((item[0], coeff))
            pair = tuple(sorted((a, b)))
            if pair in products:
                raise ExprParseError(f"block {bi}: duplicate product {a}*{b}")
            products[pair] = entry
        blocks.append(make_block_spec(basis, products))
    return AlgebraSpec(tuple(blocks))


def dump_spec(spec):
    """Serialise an AlgebraSpec back to the JSON file format."""
    import json
    blocks = []
    for block in spec.blocks:
        table = {f"{a}*{b}": [[n, str(c)] for n, c in coords]
                 for (a, b), coords in block.table}
        blocks.append({"basis": list(block.basis_names), "table": table})
    return json.dumps({"blocks": blocks}, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# exact sparse linear algebra over Q; a vector is a {basis index: coefficient}
# dict without zeros


def _reduce(rows, vec):
    """vec minus its part in the span of rows, a {pivot: row} echelon form.

    Each row is 1 at its pivot, its lowest index, so eliminating the pivots
    in ascending order leaves vec with no entry at any of them.
    """
    vec = dict(vec)
    for col in sorted(rows):
        c = vec.get(col)
        if c:
            for k, x in rows[col].items():
                vec[k] = vec.get(k, 0) - c * x
    return {k: c for k, c in vec.items() if c}


def _echelon(vectors):
    """An echelon basis {pivot: row} of the span of vectors."""
    rows = {}
    for vec in vectors:
        vec = _reduce(rows, vec)
        if vec:
            col = min(vec)
            inv = Fraction(1) / vec[col]
            rows[col] = {k: c * inv for k, c in vec.items()}
    return rows


# ---------------------------------------------------------------------------
# validated algebra


class BlockData(Record):
    # names[0] is the unit, nu[j-1] the depth of nilpotent index j = 1..m, and
    # table[p][q] = ((j, alpha), ...), j ascending, for p, q = 0..m, each alpha a
    # polynomial coefficient.  The table is compared but not hashed: a
    # polynomial's hash includes its algebra's, and names and nu spread blocks.
    __slots__ = ("names", "nu", "table", "__dict__")
    _args = ("names", "nu", "table")

    def __hash__(self):
        return hash((self.names, self.nu))

    @property
    def m(self):
        return len(self.names) - 1

    # operators._picks's memo, {p: p's picks}, kept per object: a block equal
    # to another, from a second validation, is never compared to find it.
    # cached_property stores it in the instance __dict__, which equality,
    # hashing and pickling do not see.
    @cached_property
    def _pick_memo(self):
        return {}


class DAlgebra(Record):
    """Validated coefficient algebra with ranked-basis data."""

    __slots__ = ("blocks", "__dict__")
    _args = ("blocks",)

    @property
    def t(self):
        return len(self.blocks)

    # The slot layout is read per variable by the kernel, so it is computed
    # once per object.  cached_property stores it in the instance __dict__, past
    # the frozen __setattr__; equality, hashing and pickling see only blocks.
    @cached_property
    def _offsets(self):
        """Global slot of each block's sigma operator, followed by M."""
        offsets = [0]
        for block in self.blocks:
            offsets.append(offsets[-1] + block.m + 1)
        return tuple(offsets)

    @cached_property
    def _slot_pairs(self):
        """(i, p) of each global slot, in slot order."""
        return tuple((i, p) for i, block in enumerate(self.blocks, start=1)
                     for p in range(len(block.names)))

    @cached_property
    def M(self):
        return self._offsets[-1]

    # a polynomial's hash includes its algebra's, so the blocks are hashed
    # once; the value is Frozen's
    @cached_property
    def _hash(self):
        return hash((self.blocks,))

    def __hash__(self):
        return self._hash

    def block(self, i):
        """The data of block i, for i = 1..t (an int, not a bool)."""
        return self.blocks[check_index(i, 1, self.t, "block index") - 1]

    def slot_index(self, i, p):
        """Global slot of operator (i, p), both ints (not bools); p = 0 is sigma_i."""
        block = self.block(i)
        return self._offsets[i - 1] + check_index(p, 0, block.m, "operator index")

    def slot_pairs(self):
        """All (i, p) operator slots in global slot order, one per basis element."""
        return list(self._slot_pairs)

    def block_of_slot(self, s):
        """Inverse of slot_index: global slot s, an int (not a bool) -> (i, p)."""
        return self._slot_pairs[check_index(s, 0, self.M - 1, "slot")]

    def delta_slots(self, i):
        """Global slot range of the delta operators of block i."""
        base = self.slot_index(i, 0)
        return range(base + 1, self._offsets[i])

    @property
    def op_names(self):
        return tuple(f"d{i}.{p}" if p else f"s{i}" for i, p in self._slot_pairs)

    def nu(self, i, j):
        """Nilpotency depth of epsilon_{i,j}, j an int (not a bool); nu(i, 0) = 0."""
        block = self.block(i)
        return block.nu[j - 1] if check_index(j, 0, block.m, "basis index") else 0

    def gamma(self, i, j):
        """Index pairs (p, q) that may contribute to coordinate j (an int, not a bool)."""
        block = self.block(i)
        check_index(j, 1, block.m, "basis index")
        nu = block.nu
        return frozenset((p, q) for p in range(1, block.m + 1)
                         for q in range(1, block.m + 1)
                         if nu[p - 1] + nu[q - 1] <= nu[j - 1])

    def alpha(self, i, j, p, q):
        """Coefficient of epsilon_{i,j} in epsilon_{i,p} * epsilon_{i,q}; each index is
        an int, not a bool."""
        block = self.block(i)
        for idx in (j, p, q):
            check_index(idx, 1, block.m, "basis index")
        return dict(block.table[p][q]).get(j, 0)


def validate_algebra(spec):
    """Check an AlgebraSpec and return the validated DAlgebra.

    Raises NotAssociative, NotUnital, NotLocalBlock or
    RankedBasisViolation with a witness on failure.
    """
    all_names = [n for b in spec.blocks for n in b.basis_names]
    if len(set(all_names)) != len(all_names):
        raise InvalidAlgebraSpec("basis names must be globally unique")
    if not spec.blocks:
        raise InvalidAlgebraSpec("algebra needs at least one block")
    blocks = []
    for bi, block in enumerate(spec.blocks, start=1):
        if not block.basis_names:
            raise InvalidAlgebraSpec(f"block {bi} is empty")
        blocks.append(_validate_block(bi, block))
    return DAlgebra(tuple(blocks))


def _times(table, u, w):
    """The product of sparse basis vectors u and w, {index: coefficient} dicts
    without zeros, over the stored table of one block."""
    out = {}
    for p, up in u.items():
        for q, wq in w.items():
            for k, a in table[p][q]:
                out[k] = out.get(k, 0) + up * wq * a
    # a scan of the values is cheaper than a rebuild, and most products cancel nothing
    return {k: c for k, c in out.items() if c} if 0 in out.values() else out


def _validate_block(bi, block):
    names = block.basis_names
    dim = len(names)
    index = {n: k for k, n in enumerate(names)}

    # the stored table: a coordinate listed twice is summed, and a zero dropped
    rows = [[()] * dim for _ in range(dim)]
    for (a, b), coords in block.table:
        if a not in index or b not in index:
            bad = a if a not in index else b
            raise InvalidAlgebraSpec(
                f"block {bi}: product {a}*{b} references unknown name {bad!r}")
        vec = {}
        for n, c in coords:
            if n not in index:
                raise InvalidAlgebraSpec(
                    f"block {bi}: product {a}*{b} yields unknown name {n!r}")
            vec[index[n]] = vec.get(index[n], 0) + c
        rows[index[a]][index[b]] = rows[index[b]][index[a]] = tuple(
            (j, _coefficient(c)) for j, c in sorted(vec.items()) if c)
    table = tuple(map(tuple, rows))

    # unitality: the first basis element must act as the identity
    for q in range(dim):
        if _times(table, {0: 1}, {q: 1}) != {q: 1}:
            raise NotUnital(bi, (names[0], names[q]))

    # associativity on basis triples
    for p in range(dim):
        for q in range(dim):
            pq = dict(table[p][q])
            for r in range(dim):
                if _times(table, pq, {r: 1}) != _times(table, {p: 1}, dict(table[q][r])):
                    raise NotAssociative(bi, (names[p], names[q], names[r]))

    # the non-unit elements must span an ideal (products avoid the unit)
    for p in range(1, dim):
        for q in range(1, dim):
            pq = _times(table, {p: 1}, {q: 1})
            if 0 in pq:
                raise NotLocalBlock(
                    bi, f"{names[p]}*{names[q]} has a unit component "
                        f"({pq[0]}); nilpotent span is not an ideal")

    # powers of the nilpotent span, as Q-subspaces
    spans = []
    first = current = {k: {k: Fraction(1)} for k in range(1, dim)}
    while current:
        spans.append(current)
        nxt = _echelon(_times(table, u, w) for u in current.values()
                       for w in first.values())
        if len(nxt) >= len(current):
            raise NotLocalBlock(
                bi, f"nilpotent span stabilises at dimension {len(nxt)} "
                    f"(power {len(spans) + 1}); block is not local")
        current = nxt

    nu = []
    for k in range(1, dim):
        depth = 0
        for r, span in enumerate(spans, start=1):
            if not _reduce(span, {k: 1}):
                depth = r
        nu.append(depth)

    for j in range(1, dim - 1):
        if nu[j - 1] > nu[j]:
            raise RankedBasisViolation(
                bi, f"nu({j})={nu[j - 1]} > nu({j + 1})={nu[j]}: basis indices "
                    f"{j} < {j + 1} are not depth-ordered")

    # products must respect the depth filtration: a pick search cut at depth
    # nu(p) (operators._picks) then misses no pick with an e_p coordinate
    for p in range(1, dim):
        for q in range(1, dim):
            for j in _times(table, {p: 1}, {q: 1}):
                if nu[p - 1] + nu[q - 1] > nu[j - 1]:
                    raise RankedBasisViolation(
                        bi, f"{names[p]}*{names[q]} has a {names[j]} component "
                            f"but nu({p})+nu({q}) = {nu[p - 1] + nu[q - 1]} > "
                            f"nu({j}) = {nu[j - 1]}: basis not adapted to the "
                            "ideal powers")
    return BlockData(tuple(names), tuple(nu), table)

