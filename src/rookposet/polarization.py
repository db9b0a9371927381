"""Column-by-column mark cells of a placement and the orbit dimension formulas.

Each rook, taken in ascending column order, marks cells to its right in its
own row (the M cells) and pairs each mark with a cell above the rook in its
own column (the P cells).  The count |M| controls both orbit dimensions:
2|M| for the unipotent orbit and 2|M| + |D| for the Borel orbit, each bounded
by the length of the permutation attached to the placement.  The support of
the unipotent action at the placement form, read off the rooks, certifies
both dimensions and the polarization for every nonzero choice of rook
scalars.

This module owns every decision about M: the dimension bounds and the four
polarization clauses are stated and tested here, and nothing here builds a
matrix.  M is a tuple of integer row masks, and only this module reads it;
``per_rook`` decodes it into the cells that ``analyze`` prints.  The tests
compare the certificates against the dense ranks of the tangent and pairing
matrices, which stay independent of this module.
"""
from __future__ import annotations

from typing import NamedTuple

from .board import Cell, RookPlacement, permutation_of
from .errors import BoundViolation
from .permutations import inversions


def mp_sets(D: RookPlacement) -> tuple[int, ...]:
    """The mark cells M of D as n + 1 row masks: (i, q) is in M iff bit q of ``marks[i]`` is set.

    Rooks are scanned by ascending column.  A rook (i, j) marks (i, q) for
    j < q < i unless (q, j) was already marked by an earlier rook.  Only the
    rook in row q marks row q, and only at columns above its own, so no later
    rook marks (q, j), and each rook changes only the mask of its own row.
    """
    marks = [0] * (D.n + 1)
    for i, j in D.rooks:
        marks[i] = sum(1 << q for q in range(j + 1, i) if not marks[q] >> j & 1)
    return tuple(marks)


def per_rook(D: RookPlacement, marks: tuple[int, ...]) -> tuple[tuple[int, frozenset, frozenset], ...]:
    """The cells of each rook (i, j) of D, in rook order, as (j, M_j, P_j).

    M_j holds the marks (i, q) in the rook's row; P_j holds the partner (q, j)
    of each, the cell above the rook in its own column.
    """
    out = []
    for i, j in D.rooks:
        cols = [q for q in range(j + 1, i) if marks[i] >> q & 1]
        out.append((j, frozenset(Cell(i, q) for q in cols), frozenset(Cell(q, j) for q in cols)))
    return tuple(out)


def _subalgebra_witness(marks: tuple[int, ...]) -> tuple[int, int, int] | None:
    """Scan for a triple j < k < i with (i,k), (k,j) outside M but (i,j) in M.

    No such triple exists for the mark cells of a placement; returning one
    would disprove that the complement spans a subalgebra.  None signals
    success.
    """
    for i, row in enumerate(marks):
        for j in range(row.bit_length()):
            if row >> j & 1:
                for k in range(j + 1, i):
                    if not row >> k & 1 and not marks[k] >> j & 1:
                        return (i, k, j)
    return None


class OrbitDimensions(NamedTuple):
    dim_theta: int  # unipotent orbit: 2|M|
    dim_omega: int  # Borel orbit: 2|M| + |D|
    length: int  # Coxeter length of the attached permutation


def dimensions(D: RookPlacement, marks: tuple[int, ...]) -> OrbitDimensions:
    """Closed-form orbit dimensions together with their length bounds.

    ``marks`` is M as row masks, ``mp_sets(D)``.  Raises BoundViolation if
    2|M| + |D| > l(w), which is also the bound 2|M| <= l(w) - |D|; a breach
    would contradict the proven inequality chain and must surface loudly.
    """
    length = inversions(permutation_of(D))
    m2 = 2 * sum(row.bit_count() for row in marks)
    d = len(D.rooks)
    if m2 + d > length:
        raise BoundViolation(
            f"dimension bound violated for {D}: 2|M|={m2}, |D|={d}, l(w)={length}"
        )
    return OrbitDimensions(dim_theta=m2, dim_omega=m2 + d, length=length)


# ---------------------------------------------------------------------------
# Polarization certification


def polarization_clauses(n: int, marks: tuple[int, ...], isotropy: Edge | None, rank: int) -> dict:
    """The four polarization clauses for the mark cells M, as row masks, of an n-board placement.

    Returns {name: {"ok": bool, "witness": JSON value}}, as the report prints
    it.  Isotropy: the pairing vanishes on the span of the complement of M;
    ``isotropy`` is None or two complement cells it joins, the witness.
    Codimension: the complement misses exactly the |M| cells of M, so M lies
    in the lower triangle; the witness is the size of the complement.
    Maximality: the pairing has rank exactly 2|M|, which makes the isotropic
    subspace maximal.  Subalgebra: the complement is closed under
    commutators; the witness is a triple that breaks it, or None.
    """
    size = sum(row.bit_count() for row in marks)
    inside = sum((row & ((1 << i) - 2)).bit_count() for i, row in enumerate(marks[1:], 1))
    triple = _subalgebra_witness(marks)
    edge = None if isotropy is None else [list(c) for c in isotropy]
    return {
        "isotropy": {"ok": edge is None, "witness": edge},
        "codimension": {"ok": inside == size, "witness": n * (n - 1) // 2 - inside},
        "maximality": {"ok": rank == 2 * size, "witness": rank},
        "subalgebra": {"ok": triple is None, "witness": None if triple is None else list(triple)},
    }


# ---------------------------------------------------------------------------
# Scalar-free certificate: the support of the infinitesimal action

Edge = tuple[Cell, Cell]  # (row, column) of one nonzero matrix entry


class SupportCertificate(NamedTuple):
    """The forest test and matching of a placement form's unipotent support, and its isotropy witness."""

    cycle: tuple[Edge, ...] | None  # None when the support is a forest
    matching: int  # size of a maximum matching; exact when the support is a forest
    isotropy: Edge | None  # a pairing edge joining two cells outside M


def _support_certificate(D: RookPlacement, marks: tuple[int, ...]) -> SupportCertificate:
    """Supports of the tangent and pairing matrices at the form of D, from the rooks.

    ``marks`` is M as row masks, ``mp_sets(D)``; the isotropy witness is the
    first pairing edge that joins two cells outside it.

    Tangent matrices have a row per generator (a, b), a <= b (written as the
    cell (a, b)), and a column per lower cell; the pairing has a row and a
    column per lower cell.  For a rook (p, q) and each q < k < p:

    - the unipotent tangent has (k,p)-(k,q) and (q,k)-(p,k);
    - the Borel tangent has the same, plus (p,p)-(p,q) and (q,q)-(p,q);
    - the pairing has (k,q)-(p,k) and (p,k)-(k,q).

    Each cell has at most one edge of each kind, since the kind fixes its
    rook as the one in a row or column that the cell names.  So every
    support is a union of paths and even cycles.

    Every entry of these matrices is one term, ± the scalar of the rook that
    produced it: two rooks, or the two terms of one bracket, never reach the
    same entry, since that would need a rook on the diagonal.  So nothing
    cancels, and the support is the same for every choice of nonzero
    scalars.  When a support is a forest, each square submatrix has at most
    one perfect matching, so each minor is 0 or ± a product of scalars, and
    the rank equals the maximum matching for every nonzero choice (Brualdi &
    Ryser, Combinatorial Matrix Theory, 1991).  Isotropy is scalar-free too:
    the pairing vanishes on the complement of M iff no pairing edge joins
    two complement cells.

    Only the unipotent support is built; the other two follow from it.

    - Pairing: transposing each row cell maps the unipotent edges one to one
      onto the pairing edges, so the two supports are the same graph under a
      relabelling, with the same cycles and the same maximum matching.
    - Borel: the chain edges join diagonal rows to rook cells, which no
      unipotent edge meets, and form one path (p,p)-(p,q)-(q,q)-... per
      chain of r rooks, with 2r + 1 vertices and a maximum matching of r.
      So the Borel support is a forest iff the unipotent one is, and its
      matching is |D| larger.
    """
    # cell (i, j) has id i * w + j; rows lie above the diagonal and columns
    # below it, so one id per cell keeps the two sides apart
    w = D.n + 1
    edges: list[tuple[int, int]] = []
    isotropy = None
    for p, q in D.rooks:
        for k in range(q + 1, p):
            kq, pk = k * w + q, p * w + k
            edges += ((k * w + p, kq), (q * w + k, pk))
            if isotropy is None and not marks[k] >> q & 1 and not marks[p] >> k & 1:
                isotropy = (Cell(k, q), Cell(p, k))
    cycle, matching = forest_support(edges)
    if cycle is not None:
        cycle = tuple((Cell(*divmod(row, w)), Cell(*divmod(col, w))) for row, col in cycle)
    return SupportCertificate(cycle, matching, isotropy)


def forest_support(edges: list[tuple[int, int]]) -> tuple[tuple[tuple[int, int], ...] | None, int]:
    """One leaf-pruning pass: the forest test and maximum matching of (row, column) id edges.

    Row and column ids must be disjoint.  Each vertex keeps its count of
    unpruned edges and the XOR of their far ends, so a vertex with one edge
    left is pruned with it, towards the neighbour that XOR names, and matched
    to it when both are free.  On a forest every edge is pruned, and matching
    a leaf to its only neighbour is optimal.  An unpruned edge lies on a
    cycle: the witness walks on from the last one's column, never back along
    the edge just taken, until a vertex repeats, and is the loop it closes.
    Returns the cycle (None for a forest) and the matching size.
    """
    count: dict[int, int] = {}
    far: dict[int, int] = {}
    for row, col in edges:
        count[row] = count.get(row, 0) + 1
        count[col] = count.get(col, 0) + 1
        far[row] = far.get(row, 0) ^ col
        far[col] = far.get(col, 0) ^ row
    leaves = [v for v, d in count.items() if d == 1]
    matched: set[int] = set()
    while leaves:
        v = leaves.pop()
        if count[v] != 1:  # its last edge went with its neighbour
            continue
        u = far[v]
        count[v] = 0
        count[u] -= 1
        far[u] ^= v
        if v not in matched and u not in matched:
            matched.update((u, v))
        if count[u] == 1:
            leaves.append(u)
    core = [k for k, (row, col) in enumerate(edges) if count[row] and count[col]]
    if not core:
        return None, len(matched) // 2
    row, v = edges[core[-1]]
    visited, walk = [row], [core[-1]]  # walk[i] leaves visited[i]
    while v not in visited:
        visited.append(v)
        k = next(j for j in core if j != walk[-1] and v in edges[j])
        walk.append(k)
        v ^= edges[k][0] ^ edges[k][1]
    return tuple(edges[k] for k in walk[visited.index(v):]), len(matched) // 2
