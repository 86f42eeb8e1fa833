"""Exception hierarchy shared by all modules.

Domain errors (validation failures, inconsistent systems, bad witnesses)
derive from DStarError; text-level errors carry a position and derive
from ExprParseError so the CLI can map them to distinct exit codes.
"""


class DStarError(Exception):
    """Base class for every domain or validation error."""


class ExprParseError(DStarError):
    """Malformed textual input (expression, variable, spec file)."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


# algebra validation

class NotAssociative(DStarError):
    def __init__(self, block, triple):
        super().__init__(
            f"block {block}: ({triple[0]}*{triple[1]})*{triple[2]} != "
            f"{triple[0]}*({triple[1]}*{triple[2]})")
        self.block = block
        self.triple = triple


class NotUnital(DStarError):
    def __init__(self, block, pair):
        super().__init__(f"block {block}: {pair[0]}*{pair[1]} != {pair[1]}")
        self.block = block
        self.pair = pair


class NotLocalBlock(DStarError):
    def __init__(self, block, reason):
        super().__init__(f"block {block}: {reason}")
        self.block = block


class RankedBasisViolation(DStarError):
    def __init__(self, block, detail):
        super().__init__(f"block {block}: {detail}")
        self.block = block


class UnknownBuiltin(DStarError):
    pass


class InvalidAlgebraSpec(DStarError):
    """Structurally bad algebra description (unknown names, empty block, ...)."""


# ordering / polynomials

class IndexOutOfRange(DStarError):
    pass


class AlgebraMismatch(DStarError):
    pass


class ConstantPolynomial(DStarError):
    pass


class InvalidRanking(DStarError):
    """A custom ranking is not total or fails one of the three ranking axioms."""


# reduction / characteristic sets

class ConstantDivisor(DStarError):
    pass


class DuplicateLeaders(DStarError):
    pass


class NotAutoreduced(DStarError):
    def __init__(self, witness, detail):
        super().__init__(detail)
        self.witness = witness


class InconsistentSystem(DStarError):
    pass


class BadWitness(DStarError):
    def __init__(self, reason, difference=None):
        super().__init__(reason)
        self.difference = difference


class WrongAlgebra(DStarError):
    pass
