import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from rookposet import Cell, CoverMove, MoveKind, mp_sets, per_rook, placement
from rookposet.board import all_lower_cells
from rookposet.exactlin import random_upper
from rookposet.polarization import polarization_clauses

from oracles import Scope, cell_leq, cell_lt, integer_rank, placement_form, scaled


def upper_samples(n, seed, count):
    """``count`` invertible Borel matrices drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    return [random_upper(n, rng) for _ in range(count)]


# --- Fraction oracles for the integer engine ----------------------------------


def fraction_rank(rows):
    """Plain Gaussian elimination over Fraction; oracle for integer_rank."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    pr = 0
    for c in range(ncols):
        piv = next((r for r in range(pr, nrows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        for r in range(pr + 1, nrows):
            if m[r][c] != 0:
                factor = m[r][c] / m[pr][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pr])]
        pr += 1
        rank += 1
        if pr == nrows:
            break
    return rank


def corner_rank_profile(form):
    """Rank profile as one Bareiss rank per South-West corner, O(n^5) in all."""
    n = len(form)
    int_rows = []
    for row in form:
        scale = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
        int_rows.append([int(Fraction(x) * scale) for x in row])
    out = [[0] * n for _ in range(n)]
    for i in range(2, n + 1):
        rows = int_rows[i - 1 :]
        for j in range(1, i):
            out[i - 1][j - 1] = integer_rank([r[:j] for r in rows])
    return out


def fraction_product(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] != 0:
                for j in range(n):
                    out[i][j] += Fraction(a[i][k]) * b[k][j]
    return out


def upper_inverse(mat):
    """Inverse of an invertible upper-triangular matrix by Fraction back substitution."""
    n = len(mat)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in reversed(range(n)):
        inv[i][i] = 1 / Fraction(mat[i][i])
        for j in range(i + 1, n):
            s = sum((mat[i][k] * inv[k][j] for k in range(i + 1, j + 1)), Fraction(0))
            inv[i][j] = -s / mat[i][i]
    return inv


def strictly_lower(mat):
    n = len(mat)
    return [[mat[i][j] if i > j else Fraction(0) for j in range(n)] for i in range(n)]


def fraction_coadjoint(b, form):
    """The coadjoint action strictly_lower(b · form · b^{-1}), all in Fractions."""
    return strictly_lower(fraction_product(fraction_product(b, form), upper_inverse(b)))


def fraction_bracket_rows(form, scope):
    """Lower parts of x·form - form·x, x elementary in the acting Lie algebra."""
    n = len(form)
    gens = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if scope is Scope.BOREL:
        gens += [(a, a) for a in range(n)]
    rows = []
    for a, b in gens:
        x = [[Fraction(int(i == a and j == b)) for j in range(n)] for i in range(n)]
        left, right = fraction_product(x, form), fraction_product(form, x)
        rows.append([left[i][j] - right[i][j] for i in range(n) for j in range(i)])
    return rows


def matrix_rank(rows):
    """Exact rank of a rational matrix: scale to integers, then Bareiss."""
    return integer_rank(scaled(rows)[0])


def lower_cells_colmajor(n):
    return [Cell(i, j) for j in range(1, n) for i in range(j + 1, n + 1)]


@dataclass(frozen=True)
class SkewForm:
    """Commutator pairing on root vectors, basis in column-major cell order."""

    cells: tuple
    entries: tuple

    def rank(self):
        return matrix_rank(self.entries)


def kirillov_form(form):
    """The pairing (x, y) -> form([e_x, e_y]) on the root vectors e_x = e_{j,i}, x = (i, j).

    [e_{j,i}, e_{s,r}] = [i = s] e_{j,r} - [r = j] e_{s,i}, and the form's
    value on e_{a,b} is its (b, a) entry.
    """
    cells = lower_cells_colmajor(len(form))

    def value(a, b):
        return form[b - 1][a - 1]

    def pairing(x, y):
        (i, j), (r, s) = x, y
        return (value(j, r) if i == s else 0) - (value(s, i) if r == j else 0)

    return SkewForm(tuple(cells), tuple(tuple(pairing(x, y) for y in cells) for x in cells))


def pairing_entry(form, x, y):
    """Value of the form on the commutator of the root vectors at x and y."""
    i, j = x
    r, s = y
    v = 0
    if i == s:
        v += form[r - 1][j - 1]
    if j == r:
        v -= form[i - 1][s - 1]
    return v


def pairing_rows(form, cells):
    return [[pairing_entry(form, x, y) for y in cells] for x in cells]


def check_polarization(D, scalars=None):
    """The polarization clauses with the pairing evaluated densely at the form.

    Oracle for the support certificate: the first two complement cells with a
    nonzero pairing value are the isotropy witness, and the rank is taken by
    Bareiss.
    """
    cells = all_lower_cells(D.n)
    marks = mp_sets(D)
    m_cells = frozenset(c for _, m, _ in per_rook(D, marks) for c in m)
    comp = sorted(frozenset(cells) - m_cells)
    form = placement_form(D, scalars)
    isotropy = next(
        ((x, y) for a, x in enumerate(comp) for y in comp[a + 1 :] if pairing_entry(form, x, y) != 0),
        None,
    )
    rank = integer_rank(pairing_rows(scaled(form)[0], cells))
    return polarization_clauses(D.n, marks, isotropy, rank)


@st.composite
def placements(draw, min_n=10, max_n=40):
    """A placement drawn by proposing cells and keeping the non-attacking ones."""
    n = draw(st.integers(min_n, max_n))
    cell = st.integers(1, n - 1).flatmap(lambda j: st.tuples(st.integers(j + 1, n), st.just(j)))
    rooks, rows, cols = [], set(), set()
    for i, j in draw(st.lists(cell, max_size=n)):
        if i not in rows and j not in cols:
            rooks.append((i, j))
            rows.add(i)
            cols.add(j)
    return placement(n, rooks)


# --- dense oracles for the poset index -------------------------------


def lower_entries(R):
    """The strict lower-triangle entries of a rank matrix, row-major."""
    return tuple(x for i, row in enumerate(R) for x in row[:i])


def broadcast_pairwise_leq(rows):
    """le[a, b] = all(rows[a] <= rows[b]) by a chunked (width, count, count) broadcast.

    The columns lead, so the reduction ANDs whole (chunk, count) slices.
    """
    count, width = rows.shape
    cols = np.ascontiguousarray(rows.T)
    le = np.empty((count, count), dtype=bool)
    step = max(1, min(count, 16_000_000 // max(1, count * width)))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        le[lo:hi] = (cols[:, lo:hi, None] <= cols[:, None, :]).all(axis=0)
    return le


def matmul_covers(le):
    """covers[t, d]: t < d with no s between, by counting two-step paths in float32.

    Exact while every count stays below 2**24, which holds far beyond n = 8.
    """
    lt = le.copy()
    np.fill_diagonal(lt, False)
    f = lt.astype(np.float32)
    return lt & (f @ f == 0)


# --- guard-by-guard oracle for the mask-based move calculus -----------------------


def reference_cover_moves(D):
    """cover_moves written guard by guard over cell comparisons and row/column sets.

    Every result goes through placement(), which re-validates all its cells.
    """
    rooks, rows, cols = D.rooks, D.rows, {c.col for c in D.rooks}
    found = {}

    def add(kind, removed, added):
        cells = [c for c in rooks if c not in removed] + list(added)
        result = placement(D.n, cells)
        if result not in found:
            found[result] = CoverMove(kind, tuple(removed), tuple(added), result)

    def dominated(pivot):
        return [c for c in rooks if c != pivot and cell_leq(c, pivot)]

    minimal = [c for c in rooks if not dominated(c)]
    removable = [
        c for c in minimal if all(k in rows and k in cols for k in range(c.col + 1, c.row))
    ]
    for cell in sorted(removable):
        add(MoveKind.REMOVE, [cell], [])

    for cell in rooks:
        i, j = cell
        below = dominated(cell)
        m = next((k for k in range(j + 1, i) if k not in cols), None)
        if (
            m is not None
            and all(cell_leq(c, Cell(i, m)) for c in below)
            and all(k in rows for k in range(j + 1, m + 1))
        ):
            add(MoveKind.SLIDE_RIGHT, [cell], [Cell(i, m)])
        m = max((k for k in range(j + 1, i) if k not in rows), default=None)
        if (
            m is not None
            and all(cell_leq(c, Cell(m, j)) for c in below)
            and all(k in cols for k in range(m, i))
        ):
            add(MoveKind.SLIDE_UP, [cell], [Cell(m, j)])

    for cell in rooks:
        for other in rooks:
            if cell_lt(cell, other) and not any(
                cell_lt(cell, mid) and cell_lt(mid, other)
                for mid in rooks
                if mid != cell and mid != other
            ):
                i, j = cell
                a, b = other
                add(MoveKind.EXCHANGE, [cell, other], [Cell(i, b), Cell(a, j)])

    for cell in rooks:
        i, j = cell
        below = dominated(cell)
        for a in range(j + 1, i):
            if a in rows:
                continue
            for b in range(a, i):
                if b in cols:
                    continue
                if not all(k in rows and k in cols for k in range(a + 1, b)):
                    continue
                if a != b and not (b in rows and a in cols):
                    continue
                if not all(cell_leq(c, Cell(a, j)) or cell_leq(c, Cell(i, b)) for c in below):
                    continue
                add(MoveKind.SPLIT, [cell], [Cell(i, b), Cell(a, j)])

    return list(found.values())


@pytest.fixture
def golden8():
    """The running 8-board example used throughout the test suite."""
    return placement(8, [(3, 1), (6, 2), (7, 3), (5, 4), (8, 6)])


@pytest.fixture
def golden8_rank_table():
    return (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0, 0, 0),
        (1, 2, 0, 0, 0, 0, 0, 0),
        (0, 1, 2, 0, 0, 0, 0, 0),
        (0, 1, 2, 3, 0, 0, 0, 0),
        (0, 1, 2, 2, 2, 0, 0, 0),
        (0, 0, 1, 1, 1, 2, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0),
    )


@pytest.fixture
def chain6():
    """The 6-board example with a long chain and dimension gap."""
    return placement(6, [(3, 1), (5, 2), (4, 3), (6, 4)])
