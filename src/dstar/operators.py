"""Operator action on polynomials.

The coordinate operators extend from variables to the whole polynomial
ring through one code path: the block image.  For block i, a variable v
maps to sum_q e_q * delta_q(v) in the block basis (delta_0 = sigma), and a
polynomial's image is the block-algebra value of its terms, so every
individual operator application is a coordinate of a block image, the
homomorphism property holds by construction and the classical product
rules become testable consequences.

Coordinate p of a product follows the generalised Hasse-Schmidt rule.
Expand a term c * v1^a1 ... vn^an over its degree d factor copies: each
copy takes one coordinate q, and that choice contributes c times the e_p
coordinate of the product of the chosen e_q.  e_0 is the unit, so only
the non-unit coordinates chosen matter: a pick is a multiset of them
whose product in the block has a nonzero e_p coordinate alpha.  Handing
a pick to the copies, r_j of it to v_j's copies, of which m_jq take q,
gives the monomial with delta_q(v_j)^m_jq in place of those copies of
sigma(v_j), counted prod_j falling(a_j, r_j) / prod_q m_jq! times, so
coordinate p of the term is the sum of alpha * c times those counted
monomials over every pick and every way to hand it out.  A coordinate q
lies in the nu(q)-th power of the block's maximal ideal, and
validate_algebra checks that products respect those depths, so a pick
of total depth above nu(p) has no e_p coordinate: _picks finds p's picks
once per block by a search cut at that depth.  A pick longer than
a term's degree has no copies to take it.  Every p has the pick (p,),
one copy taking delta_p, the sigma-twisted derivation rule; it is the
only pick of the delta of dual and dd:n,m and of hs:n's delta_1, and
hs:2's delta_2 adds (1, 1): the C(a, 2) pairs of one variable's copies
and the a * b pairs of two variables'.

Coordinate 0 has only the empty pick, since no product of non-unit
basis elements has a unit component (validate_algebra checks that too):
it is the residue map of the local block, a ring homomorphism fixing
constants.  So sigma_i, and the full image of a one-element block,
replace each variable by its bump into the unit slot.  A bump adds 1 in
one slot, so it is injective on variables: no two monomials merge,
every coefficient keeps its stored value and form, and the terms keep
f's order.  Only the keys change, and each is sorted again into id
order, since bump ids need not follow the ids of the variables they
bump.

Inside the walk of one coordinate p >= 1, monomials are packed ints.  A
local registry reads f's variable ids from its monomial keys, interns
the slot bumps of those variables into the coordinates p's picks read,
and no others, in poly.py's process-wide id table, lists the bumps once
each in ascending id order and gives each a bit field, as wide as the
bit length of f's highest monomial total degree d: every output
monomial of a degree-d term has degree d in the bumps, so no field
carries into the next.  A term's sigma image is packed once, and each
way to hand out a pick adds, per copy, the shift from sigma(v)'s field
to delta_q(v)'s.  A bump that is one variable's delta_q and another's
sigma (dual's delta x1[1,0] is sigma x1[0,1]) is one field, like any
other.  Each kept packed int is decoded once, lowest field first,
straight into a Monomial key, which comes out in ascending id order with
no sort, and each coefficient is judged once, as it is decoded.  No
packed dict leaves this module.  A full image is the tuple of its
coordinates, each computed by the one call that computes it alone.
"""

from __future__ import annotations

import re
from itertools import chain

from .algebra import _times
from .errors import ExprParseError, IndexOutOfRange
from .ordering import _coefficient, check_index, check_multi_index, parse_int, slot_bumps
from .poly import _VARIABLES, DPolynomial, _intern, _monomial, check_polynomial


def _picks(block, p):
    """Coordinate p's picks of two or more coordinates, as (coordinates, picks).

    A pick is a multiset of non-unit coordinates whose product in the
    block has the nonzero e_p coordinate alpha.  Every p has the pick (p,),
    with alpha 1, and no other pick of one coordinate; every coordinate of
    a longer pick is shallower than p, so lies below it.  coordinates is 0
    and every coordinate a pick holds, ascending, so p is the last, and
    picks lists each longer pick as (positions, alpha), shortest first,
    with each coordinate named by its position in coordinates, ascending.
    The search grows a pick by coordinates no lower than its last, through
    the block product algebra._times, while its total depth stays within
    nu(p) (nu is nondecreasing along a valid block's basis) and its product
    is nonzero.  Found once per block object and p, in the block's memo;
    the lists are tuples, so no caller can change what the next one reads.
    """
    memo = block._pick_memo
    if p in memo:
        return memo[p]
    table, nu = block.table, block.nu
    limit = nu[p - 1]
    picks = []

    def extend(pick, product, depth):
        for q in range(pick[-1] if pick else 1, len(table)):
            deeper = depth + nu[q - 1]
            if deeper > limit:
                break
            grown = _times(table, product, {q: 1})
            if grown:
                if pick and p in grown:
                    picks.append((pick + (q,), _coefficient(grown[p])))
                extend(pick + (q,), grown, deeper)

    extend((), {0: 1}, 0)
    coordinates = (0, *sorted({q for pick, _ in picks for q in pick} | {p}))
    position = {q: k for k, q in enumerate(coordinates)}
    memo[p] = found = (coordinates, tuple(sorted(((tuple(map(position.get, pick)), alpha)
                                                 for pick, alpha in picks),
                                                key=lambda e: len(e[0]))))
    return found


def _registry(f, base, coordinates):
    """The packed-int registry of a walk of f's image in the block whose sigma
    slot is base, over coordinates.

    Returns (bumps, width, fields): the ids of the distinct bumps of f's
    variables into those slots in ascending order, bump k owning bits
    [k*width, (k+1)*width) of a packed int; the field width, the bit length
    of f's highest monomial total degree; and, per variable id, the packed
    ints of its bumps, one per coordinate, unit slot first.
    """
    algebra = f.algebra
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


def _spread(acc, pick, fields, room, c, packed, t=0, last=0, run=0, count=1):
    """Add into acc each way to hand pick[t:] to a term's factors.

    c is the term's coefficient times the pick's alpha, packed the term's
    image so far, and fields[k] and room[k] factor k's fields and its copies
    not yet picked.  Equal coordinates of the pick go to factors in ascending
    order, so each way is met once; last is the factor that took pick[t - 1]
    and run how many of that coordinate it holds.  count is the number of
    ways to place the picks handed out so far on the copies, so each step
    multiplies it by the free copies and divides it by the run, exactly.
    """
    if t == len(pick):
        old = acc.get(packed)
        acc[packed] = c * count if old is None else old + c * count
        return
    q = pick[t]
    same = t and pick[t - 1] == q
    for k in range(last if same else 0, len(room)):
        free = room[k]
        if free:
            held = run + 1 if same and k == last else 1
            room[k] = free - 1
            fk = fields[k]
            _spread(acc, pick, fields, room, c, packed - fk[0] + fk[q],
                    t + 1, k, held, count * free // held)
            room[k] = free


def _walk(f, block, base, p):
    """Coordinate p >= 1 of f's image in the block whose sigma slot is base:
    each term walks p's picks once."""
    coordinates, picks = _picks(block, p)
    bumps, width, fields = _registry(f, base, coordinates)
    top = len(coordinates) - 1      # p's position
    acc = {}
    for monomial, coeff in f.terms.items():
        key = monomial.key
        n = len(key)
        packed = 0      # the term's sigma image
        for k in range(0, n, 2):
            packed += fields[key[k]][0] * key[k + 1]
        # the pick (p,): one copy of factor k, a_k ways; last factor first, for
        # no result reads the term order, but the offending scan's early exit,
        # and so its traced call counts, do
        for k in range(n - 2, -1, -2):
            fk = fields[key[k]]
            m = packed - fk[0] + fk[top]
            c = key[k + 1] * coeff
            old = acc.get(m)
            acc[m] = c if old is None else old + c
        if picks:
            degree = sum(key[1::2])
            for pick, alpha in picks:
                if len(pick) > degree:
                    break
                _spread(acc, pick, [fields[v] for v in key[::2]], list(key[1::2]),
                        coeff * alpha, packed)
    return _decode(f.algebra, acc, bumps, width)


def block_image(f, i, p=None):
    """Image of f under the block-i coordinate operators.

    Returns the coordinate tuple in the block basis, unit slot first, or
    with p the one-tuple of coordinate p, computed alone: coordinate 0
    substitutes the unit-slot bumps, and each other coordinate walks its
    picks (module docstring).
    """
    algebra = check_polynomial(f).algebra
    block = algebra.block(i)  # validates the block index
    slot = algebra._offsets[i - 1]
    if p is None:
        return tuple([_walk(f, block, slot, q) if q else _substitute(f, slot)
                      for q in range(block.m + 1)])
    check_index(p, 0, block.m, "operator index")
    return (_walk(f, block, slot, p) if p else _substitute(f, slot),)


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
    check_multi_index(algebra.M, theta)
    out = f
    for slot, count in enumerate(theta):
        if count:
            i, p = algebra._slot_pairs[slot]    # theta is judged: slot < M
            for _ in range(count):
                out, = block_image(out, i, p)
    return out


def rho(algebra, theta):
    """Sigma-only companion index: each block's sigma slot absorbs its order."""
    check_multi_index(algebra.M, theta)
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
