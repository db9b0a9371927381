"""Exception types shared across the package."""


class RookError(Exception):
    """Base class for all domain errors raised by this package."""


class OutOfBoard(RookError):
    """A cell is not strictly below the diagonal of the board."""

    def __init__(self, cell, n):
        super().__init__(f"cell {cell} is not strictly lower-triangular on the {n}-board")


class AttackingRooks(RookError):
    """Two rooks share a row or a column; the message names both cells and the axis."""

    def __init__(self, first, second, axis):
        super().__init__(f"rooks {first} and {second} share a {axis}")


class BoardTooSmall(RookError):
    """The operation needs a board of size at least 2."""


class BoundViolation(RookError):
    """A computed dimension contradicts the proven inequality chain."""


class NotIndexed(RookError):
    """The placement does not belong to the given poset index."""


class LimitExceeded(RookError):
    """The board size is outside the supported range for this operation."""
