"""Operator action on polynomials.

The coordinate operators extend from variables to the whole polynomial
ring through one code path: the block image.  For block i, the image of a
polynomial is its coordinate vector in the block basis, computed by
structural recursion with the block's structure constants.  Every
individual operator application is a coordinate of a block image, so the
homomorphism property holds by construction and the classical product
rules become testable consequences.
"""

from __future__ import annotations

import re

from .errors import ExprParseError, IndexOutOfRange
from .ordering import apply_slot, bump, ord_i, zero_index
from .poly import DPolynomial


def _image_mul(algebra, i, u, w):
    """Multiply two coordinate vectors in block i of the algebra."""
    block = algebra.blocks[i - 1]
    m = block.m
    out = [u[0] * w[0]]
    for j in range(1, m + 1):
        out.append(u[0] * w[j] + u[j] * w[0])
    for p in range(1, m + 1):
        for q in range(1, m + 1):
            contributions = block.products[p - 1][q - 1]
            if contributions:
                prod = u[p] * w[q]
                for j, coeff in contributions:
                    out[j] = out[j] + prod.scalar_mul(coeff)
    return out


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
    m = algebra.blocks[i - 1].m
    width = m + 1
    zero = DPolynomial.zero(algebra)
    total = [zero] * width
    for monomial, coeff in f.terms.items():
        vec = None
        for v, e in monomial.factors:
            vimg = [DPolynomial.from_variable(algebra, apply_slot(algebra, v, i, p))
                    for p in range(width)]
            for _ in range(e):
                vec = vimg if vec is None else _image_mul(algebra, i, vec, vimg)
        if vec is None:  # constant term
            vec = [DPolynomial.constant(algebra, 1)] + [zero] * m
        total = [t + c.scalar_mul(coeff) for t, c in zip(total, vec)]
    return tuple(total)


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
    for slot, count in enumerate(theta):
        if count:
            i, p = algebra.block_of_slot(slot)
            for _ in range(count):
                out = apply(out, i, p)
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
    theta = zero_index(algebra)
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
        for _ in range(power):
            theta = bump(theta, slot)
    return theta
