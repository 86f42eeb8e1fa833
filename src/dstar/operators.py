"""Operator action on polynomials.

The coordinate operators extend from variables to the whole polynomial
ring through one code path: the block image.  For block i, the image of a
polynomial is its coordinate vector in the block basis, computed by
structural recursion with the block's structure constants.  Every
individual operator application is a coordinate of a block image, so the
homomorphism property holds by construction and the classical product
rules become testable consequences.

A block image works in one coordinate set: the closure of the
coordinates it keeps under "a product e_q * e_r contributing to a needed
coordinate needs both its factors", since coordinate j of u * w reads
only u_q and w_r of those products.  The full image keeps every
coordinate; each unit step of an operator composition keeps one, whose
set is the unit slot alone for sigma and {0, 1} for hs:2's delta_1.
Every vector of the image is indexed by position in that set.
The block's nonzero products are listed from BlockData.table once per
block table and kept coordinate, renumbered to those positions: power
images and the inner products of a monomial run over the products cut
to their contributions into the set, and each monomial's last product
over those cut to the kept coordinates.  Renumbering and cutting keep
the table's order of products and of contributions, so a kept
coordinate receives the same terms in the same order, with the same
coefficients, as in the full image.

Inside one block image, monomials are packed ints.  A local registry
reads f's variable ids from its monomial keys, interns the slot bumps of
those variables into the set's coordinates in poly.py's process-wide id
table, lists the bumps once each in ascending id order and gives each a
bit field; a monomial's packed int is the sum of its exponents shifted
into their fields, so a monomial product is one int addition.  Each
field is as wide as the bit length of f's highest monomial total degree
d.  That is enough because every coordinate of a degree-d monomial's
image is homogeneous of degree d in the bumps, so no exponent of any
intermediate product exceeds d and no field carries into the next.
Coordinates are multiplied as term dicts {packed int: coefficient}, in
one loop over the listed products.  A constant is the empty product,
whose image is the unit vector: packed int 0 in the unit slot.  At the
end of block_image each kept packed int is decoded once, lowest field
first, straight into a Monomial key, which comes out in ascending id
order with no sort, so block images and polynomials share one variable
numbering.  Each coefficient is judged once, as its packed int is decoded,
into the one term dict that becomes the output coordinate as it is.  No
packed dict leaves this module.

When the coordinate set is the unit slot alone, which is sigma_i in every
block and the full image of a one-element block, no registry is built: the
image is f with each variable replaced by its bump into the unit slot.
That is exact because the set's one product is e_0 * e_0 = e_0 (the unit
row of a valid block's table; block_image checks it), so coordinate 0 of
a product is the product of coordinates 0, and that coordinate is a ring
homomorphism fixing constants, the residue map of the local block.  A
bump adds 1 in one slot, so it is injective on variables: no two
monomials merge, every coefficient keeps its stored value and form, and
the terms keep f's order, as the packed path gives them.  Only the keys
change, and each is sorted again into id order, since bump ids need not
follow the ids of the variables they bump.

When a unit step's coordinate set is {0, p} and its products are exactly
e_0 * e_0 = e_0 and e_0 * e_p = e_p * e_0 = e_p (the delta of dual and
dd:n,m, hs:n's delta_1), coordinate p is a sigma-twisted derivation,
delta_p(u * w) = sigma(u) * delta_p(w) + delta_p(u) * sigma(w), since
coordinate p of a product reads only those products.  A term
c * v1^a1 ... vn^an then maps to the sum over k of c * ak times its sigma
image with one sigma(vk) replaced by delta_p(vk), so no power image is
built: in the registry's fields the term's sigma image is packed once, and
each factor's term is that int minus sigma(vk)'s field plus delta_p(vk)'s.
The whole cut product list, coefficients included, is compared, so a
block whose e_p * e_p adds to {0, p}, or whose constants there are not 1,
keeps the packed path.  That path multiplies a key's powers left to right,
and each product inserts the new factor's term (e_0 * e_p) before the
running ones (e_p * e_0); emitting the factors last first gives the same
terms in the same order with the same coefficients.  A bump that is one
variable's delta_p and another's sigma (dual's delta x1[1,0] is
sigma x1[0,1]) is one field, like any other.

The image of a variable power v^e does not depend on the polynomial it
sits in.  Within one block image each (v, e) image is therefore built
once, by squaring in the block algebra, and kept in a memo local to that
block image.  Memoised vectors are shared, so products always accumulate
into fresh dicts.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain

from .errors import ExprParseError, IndexOutOfRange
from .ordering import _coefficient, check_index, check_multi_index, parse_int, slot_bumps
from .poly import _VARIABLES, DPolynomial, _intern, _monomial, check_polynomial


def _image_mul(products, u, w):
    """Multiply two coordinate vectors of packed term dicts through a block's products.

    products lists the block's nonzero products e_p * e_q as
    (p, q, ((j, alpha), ...)), p major (see _products).  Returns a new
    vector of fresh dicts, in which zero coefficients may remain; u and w
    are never modified.
    """
    acc = [{} for _ in u]
    for p, q, contributions in products:
        up = u[p]
        wq = w[q]
        if up and wq:
            for j, alpha in contributions:
                a = acc[j]
                for m1, c1 in up.items():
                    for m2, c2 in wq.items():
                        m = m1 + m2
                        c = c1 * c2 * alpha
                        old = a.get(m)
                        a[m] = c if old is None else old + c
    return acc


def _accumulate(acc, terms, scale):
    """Add scale * terms into the packed term dict acc in place; zeros may remain."""
    terms = terms.items()
    if scale != 1:
        terms = ((m, c * scale) for m, c in terms)
    for m, c in terms:
        old = acc.get(m)
        acc[m] = c if old is None else old + c


@lru_cache(maxsize=1024)
def _products(table, keep):
    """A block image's coordinate set and products, as (coordinates, inner, last).

    coordinates is the closure of {keep}, or of every coordinate when keep
    is None, in ascending order.  inner and last list nonempty cells of
    BlockData.table as (p, q, contributions), p major, in the table's
    order, with every index a position in coordinates: inner cuts each
    cell to its contributions into the coordinates, last to those into
    keep (every coordinate when keep is None).  Cached per (table, keep),
    in a bounded cache; the lists are tuples, so no caller can change
    what the next one reads.
    """
    cells = tuple((p, q, cell) for p, row in enumerate(table)
                  for q, cell in enumerate(row) if cell)
    wanted = set(range(len(table))) if keep is None else {keep}
    needed, grown = set(), wanted
    while grown != needed:
        needed = grown
        grown = needed.union(*((p, q) for p, q, cell in cells
                               if any(j in needed for j, _ in cell)))
    coordinates = tuple(sorted(needed))
    position = {j: k for k, j in enumerate(coordinates)}

    def cut(into):
        cut_cells = ((p, q, tuple((position[j], a) for j, a in cell if j in into))
                     for p, q, cell in cells)
        return tuple((position[p], position[q], c) for p, q, c in cut_cells if c)

    return coordinates, cut(needed), cut(wanted)


def _power_image(products, v, e, memo):
    """Block image of v^e as packed term dicts, by squaring, memoised under (v, e).

    v is a variable id.  The memo holds every (v, 1) image before the
    first call.  The halvings down to a memoised power are a loop, not a
    recursion, so an exponent of any bit length is built without
    exhausting the interpreter's stack.
    """
    halvings = []
    while (v, e) not in memo:
        halvings.append(e)
        e //= 2
    img = memo[(v, e)]
    for e in reversed(halvings):
        img = _image_mul(products, img, img)
        if e & 1:
            img = _image_mul(products, img, memo[(v, 1)])
        memo[(v, e)] = img
    return img


def _registry(f, i, coordinates):
    """The packed-int registry of f's block-i image over its coordinates.

    Returns (bumps, width, fields): the ids of the distinct bumps of f's
    variables into those slots in ascending order, bump k owning bits
    [k*width, (k+1)*width) of a packed int; the field width, the bit length
    of f's highest monomial total degree; and, per variable id, the packed
    ints of its bumps, one per coordinate.
    """
    algebra = f.algebra
    base = algebra._offsets[i - 1]      # block i's sigma slot; block_image judged i
    slots = [base + q for q in coordinates]
    images = {}     # variable id -> its slot bumps' ids, unit slot first
    degree = 0
    for monomial in f.terms:
        key = monomial.key
        for v in key[::2]:
            if v not in images:
                images[v] = [_intern(b)
                             for b in slot_bumps(algebra, _VARIABLES[v], slots)]
        d = sum(key[1::2])
        if d > degree:
            degree = d
    bumps = sorted({b for image in images.values() for b in image})
    width = degree.bit_length()
    field = {b: 1 << k * width for k, b in enumerate(bumps)}
    return bumps, width, {v: [field[b] for b in image] for v, image in images.items()}


def _decode(algebra, packed_terms, bumps, width):
    """The DPolynomial of a packed term dict: zero coefficients drop, the rest are
    stored through _coefficient, and fields read lowest first give keys in id order."""
    mask = (1 << width) - 1
    terms = {}
    for packed, c in packed_terms.items():
        c = _coefficient(c)
        if c:
            key = []
            for b in bumps:
                if not packed:
                    break
                e = packed & mask
                if e:
                    key += (b, e)
                packed >>= width
            terms[_monomial(tuple(key))] = c
    return DPolynomial._nonzero(algebra, terms)


# the products of a coordinate set that is the unit slot alone: e_0 * e_0 = e_0
_UNIT_PRODUCT = ((0, 0, ((0, 1),)),)


def _substitute(f, slot):
    """f with each variable replaced by its bump in the global slot.

    The bump is injective on variables, so no two monomials merge and each
    coefficient is kept as it is; each key is sorted again into id order.
    The bumps are interned in the order f's keys meet them, as _registry
    interns them, with slot_bumps' AlgebraMismatch for a variable whose
    slot count is not the algebra's.
    """
    algebra = f.algebra
    bumped = {}     # variable id -> its bump's id
    out = {}
    for monomial, coeff in f.terms.items():
        key = monomial.key
        pairs = []
        for k in range(0, len(key), 2):
            v = key[k]
            b = bumped.get(v)
            if b is None:
                b = bumped[v] = _intern(slot_bumps(algebra, _VARIABLES[v], (slot,))[0])
            pairs.append((b, key[k + 1]))
        pairs.sort()
        out[_monomial(tuple(chain.from_iterable(pairs)))] = coeff
    return DPolynomial._nonzero(algebra, out)


# the products of a coordinate set {0, p} whose delta_p is a sigma-derivation:
# e_0 * e_0 = e_0, e_0 * e_p = e_p, e_p * e_0 = e_p
_DERIVATION_PRODUCTS = ((0, 0, ((0, 1),)), (0, 1, ((1, 1),)), (1, 0, ((1, 1),)))


def _derivation(f, i, coordinates):
    """Coordinate p of f's block-i image over coordinates (0, p), when delta_p
    is a sigma-derivation: one walk per term, its factors last first."""
    bumps, width, fields = _registry(f, i, coordinates)
    acc = {}
    for monomial, coeff in f.terms.items():
        key = monomial.key
        sigma = 0
        for k in range(0, len(key), 2):
            sigma += fields[key[k]][0] * key[k + 1]
        for k in range(len(key) - 2, -1, -2):
            s, d = fields[key[k]]
            m = sigma - s + d
            c = key[k + 1] * coeff
            old = acc.get(m)
            acc[m] = c if old is None else old + c
    return _decode(f.algebra, acc, bumps, width)


def block_image(f, i, p=None):
    """Image of f under the block-i coordinate operators.

    Returns the coordinate tuple in the block basis, unit slot first, or
    with p the one-tuple of coordinate p, computed alone.  Variables map
    to their slot bumps, constants embed in the unit slot, sums add
    coordinatewise and products multiply through the structure constants.
    """
    algebra = check_polynomial(f).algebra
    block = algebra.block(i)  # validates the block index
    if p is not None:
        check_index(p, 0, block.m, "operator index")
    coordinates, inner, last = _products(block.table, p)
    if coordinates == (0,) and inner == _UNIT_PRODUCT:
        return (_substitute(f, algebra._offsets[i - 1]),)
    if p is not None and inner == _DERIVATION_PRODUCTS:
        return (_derivation(f, i, coordinates),)
    kept = range(len(coordinates)) if p is None else (coordinates.index(p),)
    bumps, width, fields = _registry(f, i, coordinates)
    memo = {(v, 1): [{b: 1} for b in packed] for v, packed in fields.items()}
    # the empty product: a constant embeds in the unit slot (packed int 0)
    unit = [{0: 1}] + [{}] * (len(coordinates) - 1)
    acc = [{} for _ in kept]
    for monomial, coeff in f.terms.items():
        key = monomial.key
        n = len(key)
        vec = _power_image(inner, key[0], key[1], memo) if n else unit
        for k in range(2, n, 2):
            img = _power_image(inner, key[k], key[k + 1], memo)
            vec = _image_mul(inner if k + 2 < n else last, vec, img)
        for j, a in zip(kept, acc):
            _accumulate(a, vec[j], coeff)
    return tuple(_decode(algebra, a, bumps, width) for a in acc)


def apply(f, i, p):
    """Apply the single operator (i, p): sigma_i for p = 0, else delta_{i,p}."""
    # judged as an operator here: block_image reads p = None as every coordinate
    check_polynomial(f).algebra.slot_index(i, p)
    return block_image(f, i, p)[0]


def apply_composition(f, theta):
    """Apply the operator composition described by a multi-index.

    Slots are applied in ascending global order; the result is
    independent of the order because the coordinate operators commute.
    """
    algebra = check_polynomial(f).algebra
    check_multi_index(algebra, theta)
    out = f
    for slot, count in enumerate(theta):
        if count:
            i, p = algebra._slot_pairs[slot]    # theta is judged: slot < M
            for _ in range(count):
                out, = block_image(out, i, p)
    return out


def rho(algebra, theta):
    """Sigma-only companion index: each block's sigma slot absorbs its order."""
    check_multi_index(algebra, theta)
    out = [0] * algebra.M
    offsets = algebra._offsets      # each block's sigma slot, then M
    for start, end in zip(offsets, offsets[1:]):
        out[start] = sum(theta[start:end])
    return tuple(out)


# ---------------------------------------------------------------------------
# operator syntax for the CLI: s<i>, d<i>.<j>, compositions, theta=[...]

_OP_RE = re.compile(r"^(?:s([0-9]+)|d([0-9]+)\.([0-9]+))(?:\^([0-9]+))?$")
_THETA_RE = re.compile(r"^theta=\[([0-9]+(?:,[0-9]+)*)\]$")


def parse_operator(text, algebra):
    """Parse an operator string into a multi-index.

    Compositions like 's1^2 d1.1' are read right to left; since the
    operators commute this only fixes the display convention.
    """
    text = text.strip()
    match = _THETA_RE.match(text)
    if match:
        theta = tuple(parse_int(e) for e in match.group(1).split(","))
        if len(theta) != algebra.M:
            raise ExprParseError(
                f"theta has {len(theta)} slots, algebra has {algebra.M}")
        return theta
    theta = [0] * algebra.M
    if not text:
        raise ExprParseError("empty operator string")
    for part in text.split():
        match = _OP_RE.match(part)
        if not match:
            raise ExprParseError(f"bad operator {part!r}")
        if match.group(1) is not None:
            i, p = parse_int(match.group(1)), 0
        else:
            i, p = parse_int(match.group(2)), parse_int(match.group(3))
            if p == 0:      # slot (i, 0) is sigma_i, spelled s<i>
                raise ExprParseError(f"bad operator {part!r}")
        power = parse_int(match.group(4)) if match.group(4) else 1
        try:
            slot = algebra.slot_index(i, p)
        except IndexOutOfRange as exc:
            raise ExprParseError(f"operator {part!r}: {exc}")
        theta[slot] += power
    return tuple(theta)
