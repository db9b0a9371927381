"""Reference implementations the tests compare the package against.

No command runs them: the entrywise rank-matrix order, cell dominance, the
mark cells as sets of cells, the Bruhat order by full dominance tables,
Fraction placement forms and their scaling to integers, the Bareiss rank,
the tangent rank over every generator, the normalizing diagonal and 4-board
quadratic of the paper's examples, and the forest test and maximum matching
of a bipartite graph.
They stay independent of the code they check: nothing here comes from the
exact engine ``rookposet.exactlin``, which takes integers only.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from rookposet.board import Cell, RookPlacement, all_lower_cells, chains, placement, rank_matrix
from rookposet.permutations import Perm

Matrix = list[list[Fraction]]

# ---------------------------------------------------------------------------
# Cells, the placement order, involutions and scalars


def cell_leq(a: Cell, b: Cell) -> bool:
    """South-West dominance: a <= b iff a.row <= b.row and a.col >= b.col."""
    return a.row <= b.row and a.col >= b.col


def cell_lt(a: Cell, b: Cell) -> bool:
    return a != b and cell_leq(a, b)


def leq(D: RookPlacement, other: RookPlacement) -> bool:
    """Partial order: D <= other iff the rank matrices compare entrywise."""
    if D.n != other.n:
        raise ValueError(f"board sizes differ: {D.n} vs {other.n}")
    pairs = zip(rank_matrix(D), rank_matrix(other))
    return all(a <= b for ra, rb in pairs for a, b in zip(ra, rb))


def involution_placement(sigma: Sequence[int]) -> RookPlacement:
    """The placement on the m-board with one rook per 2-cycle of sigma."""
    cycles = two_cycles(tuple(sigma))  # raises ValueError
    return placement(len(sigma), cycles)


def mark_cells(D: RookPlacement) -> tuple[tuple[int, frozenset[Cell], frozenset[Cell]], ...]:
    """The per-rook (j, M_j, P_j) cells of D, rooks scanned by ascending column.

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
    return tuple(per)


def normalize_scalars(
    D: RookPlacement, scalars: Mapping[Sequence[int], object] | None
) -> dict[Cell, Fraction]:
    """Coerce to {Cell: Fraction}, defaulting to all ones; values must be nonzero.

    Keys must be (row, col) tuples of ``int`` and values ``int``,
    ``Fraction`` or a pair (p, q) of ``int`` meaning p/q, as
    ``random_scalars`` draws them (not bool or float, whose binary value is
    rarely the one meant); anything else raises ValueError.
    """
    if scalars is None:
        return {c: Fraction(1) for c in D.rooks}
    out: dict[Cell, Fraction] = {}
    for key, value in scalars.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(type(x) is int for x in key)):
            raise ValueError(f"scalar keys must be (row, col) pairs of integers, got {key!r}")
        if type(value) is tuple and len(value) == 2 and all(type(x) is int for x in value) and value[1]:
            value = Fraction(*value)  # p/q
        if type(value) is not int and not isinstance(value, Fraction):
            raise ValueError(f"scalar values must be integers, Fractions or (p, q) pairs, got {value!r}")
        out[Cell(*key)] = Fraction(value)
    if set(out) != set(D.rooks):
        raise ValueError("scalar assignment domain must equal the rook set")
    bad = [c for c, v in out.items() if v == 0]
    if bad:
        raise ValueError(f"scalar assignment must be nonzero, got 0 at {bad[0]}")
    return out


def diagonal_normalizer(
    D: RookPlacement, scalars: Mapping[Sequence[int], object]
) -> tuple[Fraction, ...]:
    """Diagonal (t_1, ..., t_n) whose coadjoint action rescales every rook to 1.

    Along each chain a_1 < ... < a_b the entry at a_l is the inverse product
    of the scalars on the chain's first l-1 links; everything else is 1.
    """
    xi = normalize_scalars(D, scalars)
    t = [Fraction(1)] * D.n
    for chain in chains(D):
        acc = Fraction(1)
        for prev, cur in zip(chain, chain[1:]):
            acc = acc / xi[Cell(cur, prev)]
            t[cur - 1] = acc
    return tuple(t)


# ---------------------------------------------------------------------------
# Dense matrices, forms and ranks


class Scope(Enum):
    """Which triangular group acts: strictly upper (unipotent) or with diagonal."""

    UNIPOTENT = "unipotent"
    BOREL = "borel"


def zeros(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def diagonal(values: Sequence[object]) -> Matrix:
    mat = zeros(len(values))
    for i, v in enumerate(values):
        mat[i][i] = Fraction(v)
    return mat


def check_form(form: Sequence[Sequence[object]]) -> int:
    """The size of a square, strictly lower-triangular form; ValueError otherwise."""
    n = len(form)
    for i, row in enumerate(form):
        if len(row) != n:
            raise ValueError("form must be a square matrix")
        if any(x != 0 for x in row[i:]):
            raise ValueError("form must be strictly lower-triangular")
    return n


def scaled(mat: Sequence[Sequence[object]]) -> tuple[list[list[int]], int]:
    """(scale·mat, scale) in ints, scale the lcm of the denominators of the int or Fraction entries."""
    scale = math.lcm(*(Fraction(x).denominator for row in mat for x in row))
    return [[int(Fraction(x) * scale) for x in row] for row in mat], scale


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    pr = 0
    for c in range(ncols):
        piv = next((r for r in range(pr, nrows) if m[r][c]), None)
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        p = m[pr][c]
        for r in range(pr + 1, nrows):
            f = m[r][c]
            row_r = m[r]
            row_p = m[pr]
            for k in range(c + 1, ncols):
                row_r[k] = (p * row_r[k] - f * row_p[k]) // prev
            row_r[c] = 0
        prev = p
        pr += 1
        rank += 1
        if pr == nrows:
            break
    return rank


def placement_form(D: RookPlacement, scalars=None) -> Matrix:
    """The strictly lower-triangular form with the given value at each rook."""
    xi = normalize_scalars(D, scalars)
    form = zeros(D.n)
    for cell, value in xi.items():
        form[cell.row - 1][cell.col - 1] = value
    return form


def bracket_row(form: Sequence[Sequence[int]], a: int, b: int, cells: Sequence[Cell]) -> list[int]:
    """Vectorized lower part of e_{a,b}·form - form·e_{a,b} (1-based a <= b)."""
    row = []
    for r, s in cells:
        v = 0
        if r == a:
            v += form[b - 1][s - 1]
        if s == b:
            v -= form[r - 1][a - 1]
        row.append(v)
    return row


def tangent_dimension(form: Matrix, scope: Scope) -> int:
    """Dimension of the orbit through the form under the chosen group.

    Equals the rank of the family (x·form - form·x) over the elementary
    generators x of the acting Lie algebra, taken on the integer-scaled form.
    """
    n = check_form(form)
    int_form, _ = scaled(form)
    cells = all_lower_cells(n)
    gens = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if scope is Scope.BOREL:
        gens += [(a, a) for a in range(1, n + 1)]
    return integer_rank([bracket_row(int_form, a, b, cells) for a, b in gens])


def squared_corner(form: Matrix) -> Fraction:
    """Entry (4,1) of the matrix square of a 4x4 form.

    Expands to form[4,2]*form[2,1] + form[4,3]*form[3,1]; vanishes identically
    on some orbits, which certifies non-membership for forms where it does not.
    """
    n = check_form(form)
    if n != 4:
        raise ValueError(f"defined only on the 4-board, got n={n}")
    return form[3][1] * form[1][0] + form[3][2] * form[2][0]


# ---------------------------------------------------------------------------
# Bipartite graphs given as (row, column) edge lists, repeated edges allowed


def is_forest(edges: Sequence[tuple[int, int]]) -> bool:
    """A graph is a forest iff |E| = |V| - (its number of components)."""
    neighbours: dict[int, set[int]] = {}
    for a, b in edges:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    unseen, components = set(neighbours), 0
    while unseen:
        components += 1
        stack = [unseen.pop()]
        while stack:
            reached = neighbours[stack.pop()] & unseen
            unseen -= reached
            stack += reached
    return len(edges) == len(neighbours) - components


def maximum_matching(edges: Sequence[tuple[int, int]]) -> int:
    """Size of a maximum matching of a bipartite graph, by augmenting paths from each row."""
    columns: dict[int, list[int]] = {}
    for row, col in edges:
        columns.setdefault(row, []).append(col)
    mate: dict[int, int] = {}  # column -> its matched row

    def augment(row: int, tried: set[int]) -> bool:
        for col in columns[row]:
            if col not in tried:
                tried.add(col)
                if col not in mate or augment(mate[col], tried):
                    mate[col] = row
                    return True
        return False

    return sum(augment(row, set()) for row in columns)


# ---------------------------------------------------------------------------
# One-line permutations and the Bruhat order by full dominance tables


def identity_perm(m: int) -> Perm:
    return tuple(range(1, m + 1))


def inverse(w: Sequence[int]) -> Perm:
    """
    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def compose(f: Sequence[int], g: Sequence[int]) -> Perm:
    """Compose (f, g) -> f∘g, applying g first.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(f) != len(g):
        raise ValueError(f"cannot compose permutations of sizes {len(f)} and {len(g)}")
    return tuple(f[x - 1] for x in g)


def transposition(m: int, a: int, b: int) -> Perm:
    """The transposition swapping a and b inside S_m."""
    w = list(range(1, m + 1))
    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


def product_of_transpositions(m: int, pairs: Sequence[tuple[int, int]]) -> Perm:
    """Product t_1 t_2 ... t_s composed right to left (t_s applied first).

    >>> product_of_transpositions(3, [(1, 2), (2, 3)])
    (2, 3, 1)
    """
    # w = t_1 ∘ (t_2 ∘ (... ∘ t_s)); folding left keeps later factors innermost.
    w = identity_perm(m)
    for a, b in pairs:
        w = compose(w, transposition(m, a, b))
    return w


def is_involution(w: Sequence[int]) -> bool:
    is_permutation = sorted(w) == list(range(1, len(w) + 1))
    return is_permutation and all(w[w[x - 1] - 1] == x for x in range(1, len(w) + 1))


def two_cycles(w: Sequence[int]) -> list[tuple[int, int]]:
    """The 2-cycles of an involution as (larger, smaller) pairs.

    >>> two_cycles((2, 1, 3, 5, 4))
    [(2, 1), (5, 4)]
    """
    if not is_involution(w):
        raise ValueError(f"{w} is not an involution")
    return [(x, w[x - 1]) for x in range(1, len(w) + 1) if w[x - 1] < x]


def dominance_table(w: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Table T with T[i-1][j-1] = #{a <= i : w(a) >= j}."""
    m = len(w)
    rows = []
    prev = [0] * m
    for i in range(m):
        wi = w[i]
        cur = [prev[j] + (1 if wi >= j + 1 else 0) for j in range(m)]
        rows.append(tuple(cur))
        prev = cur
    return tuple(rows)


def bruhat_leq(v: Sequence[int], w: Sequence[int]) -> bool:
    """Bruhat--Chevalley comparison by the dominance criterion.

    v <= w iff #{a <= i : v(a) >= j} <= #{a <= i : w(a) >= j} for all i, j.

    >>> bruhat_leq((1, 2, 3), (3, 2, 1))
    True
    >>> bruhat_leq((2, 3, 4, 1), (3, 4, 1, 2))
    False
    """
    if len(v) != len(w):
        raise ValueError(f"permutation sizes differ: {len(v)} vs {len(w)}")
    tv = dominance_table(v)
    tw = dominance_table(w)
    return all(tv[i][j] <= tw[i][j] for i in range(len(v)) for j in range(len(v)))
