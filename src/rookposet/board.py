"""Rook placements strictly below the diagonal and their rank-matrix order.

Cells are 1-based (row, col) pairs with col < row <= n.  A placement keeps its
rooks sorted by ascending column, which is the canonical representation used
everywhere else in the package.
"""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from . import permutations as perms
from .errors import AttackingRooks, BoardTooSmall, OutOfBoard


class Cell(NamedTuple):
    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


def all_lower_cells(n: int) -> list[Cell]:
    """Strict lower-triangle cells in row-major order."""
    return [Cell(i, j) for i in range(2, n + 1) for j in range(1, i)]


class RookPlacement(NamedTuple):
    """Non-attacking rooks strictly below the diagonal of an n x n board."""

    n: int
    rooks: tuple[Cell, ...]

    @property
    def rows(self) -> frozenset[int]:
        return frozenset(c.row for c in self.rooks)

    def __str__(self) -> str:
        return "".join(str(c) for c in self.rooks) or "(empty)"


def placement(n: int, cells: Iterable[Sequence[int]]) -> RookPlacement:
    """Validate cells and build the canonical (column-sorted) placement.

    ``n`` and every coordinate must be ``int`` (not bool, float or str);
    anything else raises ValueError.  Raises OutOfBoard for a cell outside the
    strict lower triangle and AttackingRooks, naming the offending pair, for a
    repeated row or column.
    """
    if type(n) is not int:  # bool is a subclass of int, so isinstance would admit it
        raise ValueError(f"board size must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"board size must be at least 1, got {n}")
    seen_rows: dict[int, Cell] = {}
    seen_cols: dict[int, Cell] = {}
    rooks: list[Cell] = []
    for raw in cells:
        i, j = raw
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"rook coordinates must be integers, got {raw!r}")
        cell = Cell(i, j)
        if not 1 <= cell.col < cell.row <= n:
            raise OutOfBoard(cell, n)
        if cell.row in seen_rows:
            raise AttackingRooks(seen_rows[cell.row], cell, "row")
        if cell.col in seen_cols:
            raise AttackingRooks(seen_cols[cell.col], cell, "column")
        seen_rows[cell.row] = cell
        seen_cols[cell.col] = cell
        rooks.append(cell)
    rooks.sort(key=lambda c: c.col)
    return RookPlacement(n, tuple(rooks))


# ---------------------------------------------------------------------------
# Rank matrices and the partial order


def rank_matrix(D: RookPlacement) -> tuple[tuple[int, ...], ...]:
    """The n rows of the rank matrix: entry (i,j), i > j, counts rooks weakly South-West of the cell."""
    n = D.n
    col_of_row = {c.row: c.col for c in D.rooks}
    entries = [[0] * n for _ in range(n)]
    acc = [0] * n  # acc[j-1] = #{rooks with row >= current i and col <= j}
    for i in range(n, 0, -1):
        j_here = col_of_row.get(i)
        if j_here is not None:
            for j in range(j_here - 1, n):
                acc[j] += 1
        row = entries[i - 1]
        for j in range(i - 1):  # only cells strictly below the diagonal
            row[j] = acc[j]
    return tuple(tuple(r) for r in entries)


def placement_from_rank_matrix(R: tuple[tuple[int, ...], ...]) -> RookPlacement:
    """Reconstruct the placement by quadrant inclusion-exclusion.

    Cell (i,j) carries a rook iff
    R(i,j) - R(i+1,j) - R(i,j-1) + R(i+1,j-1) == 1 (out-of-range terms 0).
    """
    n = len(R)
    padded = [(0, *row) for row in R] + [(0,) * (n + 1)]  # column 0 and row n + 1 read 0
    cells = [
        (i, j)
        for i, (here, below) in enumerate(zip(padded[1:], padded[2:]), start=2)
        for j in range(1, i)
        if here[j] - below[j] - here[j - 1] + below[j - 1] == 1
    ]
    return placement(n, cells)


# ---------------------------------------------------------------------------
# Chains, permutations, involutions


def chains(D: RookPlacement) -> tuple[tuple[int, ...], ...]:
    """Maximal sequences a_1 < ... < a_b with (a_{l+1}, a_l) a rook."""
    succ = {c.col: c.row for c in D.rooks}
    rows = D.rows
    out: list[tuple[int, ...]] = []
    for start in sorted(set(succ) - rows):
        chain = [start]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        out.append(tuple(chain))
    return tuple(out)


def permutation_of(D: RookPlacement) -> perms.Perm:
    """The permutation with w(j) = i at rooks and chain maxima sent to minima."""
    w = list(range(1, D.n + 1))
    for i, j in D.rooks:
        w[j - 1] = i
    for chain in chains(D):
        w[chain[-1] - 1] = chain[0]
    return tuple(w)


def kerov_involution(D: RookPlacement) -> perms.Perm:
    """The involution in S_{2n-2} with a transposition (2i-2, 2j-1) per rook."""
    if D.n < 2:
        raise BoardTooSmall("the doubled board is empty for n = 1")
    m = 2 * D.n - 2
    w = list(range(1, m + 1))
    for i, j in D.rooks:
        a, b = 2 * i - 2, 2 * j - 1
        w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


# ---------------------------------------------------------------------------
# JSON interchange


def to_json(D: RookPlacement) -> dict:
    return {"n": D.n, "rooks": [[c.row, c.col] for c in D.rooks]}


def from_json(data: Mapping) -> RookPlacement:
    """Parse the interchange format; ``n`` and every coordinate must be JSON integers."""
    try:
        n = data["n"]
        rooks = data["rooks"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"placement JSON needs 'n' and 'rooks' keys: {exc}") from exc
    if not isinstance(rooks, list):
        raise ValueError(f"placement JSON 'rooks' must be a list, got {rooks!r}")
    for rook in rooks:
        if not (isinstance(rook, list) and len(rook) == 2):
            raise ValueError(f"each rook must be an integer pair [row, col], got {rook!r}")
    return placement(n, rooks)  # which admits only integer n and coordinates
