"""Operator action on polynomials.

The coordinate operators extend from variables to the whole polynomial
ring through one code path: the block image.  For block i, the image of a
polynomial is its coordinate vector in the block basis, computed by
structural recursion with the block's structure constants.  Every
individual operator application is a coordinate of a block image, so the
homomorphism property holds by construction and the classical product
rules become testable consequences.

The image of a variable power v^e does not depend on the polynomial it
sits in.  Within one block image, and across all unit steps of one
apply_composition call, each (block, v, e) image is therefore built once,
by squaring in the block algebra, and kept in a memo local to that call.
"""

from __future__ import annotations

import re

from .errors import ExprParseError, IndexOutOfRange
from .ordering import apply_slot, ord_i, zero_index
from .poly import DPolynomial


def _accumulate(acc, poly, scale=1):
    """Add scale * poly into the term dict acc in place."""
    for m, c in poly.terms.items():
        if scale != 1:
            c = c * scale
        old = acc.get(m)
        acc[m] = c if old is None else old + c


def _image_mul(algebra, i, u, w):
    """Multiply two coordinate vectors in block i of the algebra."""
    block = algebra.blocks[i - 1]
    m = block.m
    acc = [{} for _ in range(m + 1)]
    _accumulate(acc[0], u[0] * w[0])
    for j in range(1, m + 1):
        _accumulate(acc[j], u[0] * w[j])
        _accumulate(acc[j], u[j] * w[0])
    for p in range(1, m + 1):
        for q in range(1, m + 1):
            contributions = block.products[p - 1][q - 1]
            if contributions:
                prod = u[p] * w[q]
                for j, coeff in contributions:
                    _accumulate(acc[j], prod, coeff)
    return tuple(DPolynomial(algebra, a) for a in acc)


def _power_image(algebra, i, v, e, memo):
    """Block-i image of v^e, by squaring, memoised in memo under (i, v, e)."""
    img = memo.get((i, v, e))
    if img is None:
        if e == 1:
            img = tuple(DPolynomial.from_variable(algebra, apply_slot(algebra, v, i, p))
                        for p in range(algebra.blocks[i - 1].m + 1))
        else:
            half = _power_image(algebra, i, v, e // 2, memo)
            img = _image_mul(algebra, i, half, half)
            if e & 1:
                img = _image_mul(algebra, i, img, _power_image(algebra, i, v, 1, memo))
        memo[(i, v, e)] = img
    return img


def _block_image(f, i, memo):
    """block_image(f, i), taking variable-power images from memo."""
    algebra = f.algebra
    width = algebra.blocks[i - 1].m + 1
    acc = [{} for _ in range(width)]
    for monomial, coeff in f.terms.items():
        if not monomial.factors:
            # a constant embeds in the unit slot, where no other term's image
            # has a constant
            acc[0][monomial] = coeff
            continue
        vec = None
        for v, e in monomial.factors:
            img = _power_image(algebra, i, v, e, memo)
            vec = img if vec is None else _image_mul(algebra, i, vec, img)
        for a, c in zip(acc, vec):
            _accumulate(a, c, coeff)
    return tuple(DPolynomial(algebra, a) for a in acc)


def block_image(f, i):
    """Image of f under the block-i coordinate operators.

    Returns the coordinate tuple in the block basis, unit slot first.
    Variables map to their slot bumps, constants embed in the unit slot,
    sums add coordinatewise and products multiply through the structure
    constants.
    """
    algebra = f.algebra
    if not 1 <= i <= algebra.t:
        raise IndexOutOfRange(f"block index {i} out of range 1..{algebra.t}")
    return _block_image(f, i, {})


def apply(f, i, p):
    """Apply the single operator (i, p): sigma_i for p = 0, else delta_{i,p}."""
    algebra = f.algebra
    algebra.slot_index(i, p)  # validates the slot
    return block_image(f, i)[p]


def apply_composition(f, theta):
    """Apply the operator composition described by a multi-index.

    Slots are applied in ascending global order; the result is
    independent of the order because the coordinate operators commute.
    """
    algebra = f.algebra
    if len(theta) != algebra.M:
        raise IndexOutOfRange(
            f"multi-index has {len(theta)} slots, algebra has {algebra.M}")
    out = f
    memo = {}  # a variable's image is the same in every step
    for slot, count in enumerate(theta):
        if count:
            i, p = algebra.block_of_slot(slot)
            for _ in range(count):
                out = _block_image(out, i, memo)[p]
    return out


def rho(algebra, theta):
    """Sigma-only companion index: each block's sigma slot absorbs its order."""
    if len(theta) != algebra.M:
        raise IndexOutOfRange(
            f"multi-index has {len(theta)} slots, algebra has {algebra.M}")
    out = list(zero_index(algebra))
    for i in range(1, algebra.t + 1):
        s = algebra.slot_index(i, 0)
        out[s] = theta[s] + ord_i(algebra, theta, i)
    return tuple(out)


# ---------------------------------------------------------------------------
# operator syntax for the CLI: s<i>, d<i>.<j>, compositions, theta=[...]

_OP_RE = re.compile(r"^(?:s(\d+)|d(\d+)\.(\d+))(?:\^(\d+))?$")
_THETA_RE = re.compile(r"^theta=\[(\d+(?:,\d+)*)\]$")


def parse_operator(text, algebra):
    """Parse an operator string into a multi-index.

    Compositions like 's1^2 d1.1' are read right to left; since the
    operators commute this only fixes the display convention.
    """
    text = text.strip()
    match = _THETA_RE.match(text)
    if match:
        theta = tuple(int(e) for e in match.group(1).split(","))
        if len(theta) != algebra.M:
            raise ExprParseError(
                f"theta has {len(theta)} slots, algebra has {algebra.M}")
        return theta
    theta = list(zero_index(algebra))
    if not text:
        raise ExprParseError("empty operator string")
    for part in text.split():
        match = _OP_RE.match(part)
        if not match:
            raise ExprParseError(f"bad operator {part!r}")
        if match.group(1) is not None:
            i, p = int(match.group(1)), 0
        else:
            i, p = int(match.group(2)), int(match.group(3))
        power = int(match.group(4)) if match.group(4) else 1
        try:
            slot = algebra.slot_index(i, p)
        except IndexOutOfRange as exc:
            raise ExprParseError(f"operator {part!r}: {exc}")
        theta[slot] += power
    return tuple(theta)
