"""Column-by-column mark cells of a placement and the orbit dimension formulas.

Each rook, taken in ascending column order, marks cells to its right in its
own row (the M cells) and pairs each mark with a cell above the rook in its
own column (the P cells).  The count |M| controls both orbit dimensions:
2|M| for the unipotent orbit and 2|M| + |D| for the Borel orbit, each bounded
by the length of the permutation attached to the placement.
"""
from __future__ import annotations

from dataclasses import dataclass

from .board import Cell, RookPlacement, permutation_of
from .errors import BoundViolation
from .permutations import inversions


@dataclass(frozen=True)
class MPData:
    """Per-rook mark cells (keyed by rook column, in rook order) and their unions."""

    per_rook: tuple[tuple[int, frozenset[Cell], frozenset[Cell]], ...]
    m_cells: frozenset[Cell]
    p_cells: frozenset[Cell]

    def to_json(self) -> dict:
        return {
            "M": [[c.row, c.col] for c in sorted(self.m_cells)],
            "P": [[c.row, c.col] for c in sorted(self.p_cells)],
            "per_rook": {
                str(col): {
                    "M": [[c.row, c.col] for c in sorted(m)],
                    "P": [[c.row, c.col] for c in sorted(p)],
                }
                for col, m, p in self.per_rook
            },
        }


def mp_sets(D: RookPlacement) -> MPData:
    """Build the M and P cells, scanning rooks by ascending column.

    For a rook (i, j): M_j holds (i, q) for j < q < i unless (q, j) was
    already marked by an earlier rook; P_j holds the partner (q, j) of every
    (i, q) in M_j.
    """
    marked: set[Cell] = set()
    per: list[tuple[int, frozenset[Cell], frozenset[Cell]]] = []
    for i, j in D.rooks:
        m_j = frozenset(Cell(i, q) for q in range(j + 1, i) if Cell(q, j) not in marked)
        p_j = frozenset(Cell(c.col, j) for c in m_j)
        marked |= m_j
        per.append((j, m_j, p_j))
    p_all = frozenset(c for _, _, p in per for c in p)
    return MPData(tuple(per), frozenset(marked), p_all)


def all_lower_cells(n: int) -> list[Cell]:
    """Strict lower-triangle cells in row-major order."""
    return [Cell(i, j) for i in range(2, n + 1) for j in range(1, i)]


def polarization_complement(D: RookPlacement) -> frozenset[Cell]:
    """Cells indexing the polarization subalgebra: the lower triangle minus M."""
    return frozenset(all_lower_cells(D.n)) - mp_sets(D).m_cells


def subalgebra_witness(D: RookPlacement) -> tuple[int, int, int] | None:
    """Scan for a triple j < k < i with (i,k), (k,j) outside M but (i,j) in M.

    No such triple exists; returning one would disprove that the complement
    spans a subalgebra.  None signals success.
    """
    m = mp_sets(D).m_cells
    n = D.n
    for cell in sorted(m):
        i, j = cell
        for k in range(j + 1, i):
            if Cell(i, k) not in m and Cell(k, j) not in m:
                return (i, k, j)
    return None


@dataclass(frozen=True)
class OrbitDimensions:
    m_size: int
    d_size: int
    dim_theta: int  # unipotent orbit: 2|M|
    dim_omega: int  # Borel orbit: 2|M| + |D|
    length: int  # Coxeter length of the attached permutation


def dimensions(D: RookPlacement) -> OrbitDimensions:
    """Closed-form orbit dimensions together with their length bounds.

    Raises BoundViolation if 2|M| > l(w) - |D| or 2|M| + |D| > l(w); either
    would contradict the proven inequality chain and must surface loudly.
    """
    data = mp_sets(D)
    length = inversions(permutation_of(D))
    m2 = 2 * len(data.m_cells)
    d = len(D.rooks)
    if m2 > length - d or m2 + d > length:
        raise BoundViolation(
            f"dimension bound violated for {D}: 2|M|={m2}, |D|={d}, l(w)={length}"
        )
    return OrbitDimensions(
        m_size=len(data.m_cells),
        d_size=d,
        dim_theta=m2,
        dim_omega=m2 + d,
        length=length,
    )
