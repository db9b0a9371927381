"""Exact rational matrix engine: forms, coadjoint action, ranks, dimensions.

Matrices are plain lists of lists of Fraction.  Linear forms are strictly
lower-triangular matrices paired with root cells via the trace form, so the
(i, j) entry of a form is its value on the elementary matrix e_{j,i}.  Ranks
are computed fraction-free (rows are scaled to integers, then eliminated by
the Bareiss scheme), so no rounding happens anywhere.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .board import Cell, RookPlacement, normalize_scalars
from .errors import NotInvertible, NotUpperTriangular, WrongBoardSize
from .polarization import all_lower_cells, mp_sets, polarization_complement, subalgebra_witness

Matrix = list[list[Fraction]]


class Scope(Enum):
    """Which triangular group acts: strictly upper (unipotent) or with diagonal."""

    UNIPOTENT = "unipotent"
    BOREL = "borel"


# ---------------------------------------------------------------------------
# Basic matrix helpers


def zeros(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def identity(n: int) -> Matrix:
    mat = zeros(n)
    for i in range(n):
        mat[i][i] = Fraction(1)
    return mat


def diagonal(values: Sequence[object]) -> Matrix:
    mat = zeros(len(values))
    for i, v in enumerate(values):
        mat[i][i] = Fraction(v)
    return mat


def as_fractions(mat: Sequence[Sequence[object]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in mat]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = zeros(n)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            f = ai[k]
            if f:
                bk = b[k]
                for j in range(n):
                    if bk[j]:
                        oi[j] += f * bk[j]
    return out


def strictly_lower(mat: Matrix) -> Matrix:
    n = len(mat)
    return [
        [mat[i][j] if i > j else Fraction(0) for j in range(n)] for i in range(n)
    ]


def upper_inverse(mat: Matrix) -> Matrix:
    """Inverse of an invertible upper-triangular matrix by back substitution."""
    n = len(mat)
    inv = zeros(n)
    for i in reversed(range(n)):
        inv[i][i] = 1 / mat[i][i]
        for j in range(i + 1, n):
            s = sum((mat[i][k] * inv[k][j] for k in range(i + 1, j + 1)), Fraction(0))
            inv[i][j] = -s / mat[i][i]
    return inv


def _check_form(form: Matrix) -> int:
    n = len(form)
    for i, row in enumerate(form):
        if len(row) != n:
            raise ValueError("form must be a square matrix")
        for j in range(i, n):
            if row[j] != 0:
                raise ValueError("form must be strictly lower-triangular")
    return n


# ---------------------------------------------------------------------------
# Fraction-free rank


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


def fraction_rank(rows: Sequence[Sequence[Fraction]]) -> int:
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


def _int_row(row: Sequence[Fraction]) -> list[int]:
    scale = math.lcm(*(x.denominator for x in row)) if row else 1
    return [int(x * scale) for x in row]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix (row scaling, then Bareiss)."""
    if not rows:
        return 0
    return integer_rank([_int_row(r) for r in rows])


# ---------------------------------------------------------------------------
# Forms and the coadjoint action


def placement_form(D: RookPlacement, scalars=None) -> Matrix:
    """The strictly lower-triangular form with the given value at each rook."""
    xi = normalize_scalars(D, scalars)
    form = zeros(D.n)
    for cell, value in xi.items():
        form[cell.row - 1][cell.col - 1] = value
    return form


def coadjoint(b: Sequence[Sequence[object]], form: Matrix) -> Matrix:
    """b.form = (b form b^{-1}) restricted to the strict lower triangle."""
    n = _check_form(form)
    bmat = as_fractions(b)
    if len(bmat) != n:
        raise ValueError(f"matrix size {len(bmat)} does not match form size {n}")
    for i in range(n):
        for j in range(i):
            if bmat[i][j] != 0:
                raise NotUpperTriangular(f"entry ({i + 1},{j + 1}) is nonzero")
        if bmat[i][i] == 0:
            raise NotInvertible(f"zero diagonal entry at ({i + 1},{i + 1})")
    return strictly_lower(mat_mul(mat_mul(bmat, form), upper_inverse(bmat)))


def rank_profile(form: Matrix) -> list[list[int]]:
    """Matrix of ranks of the lower-left corners of the form.

    Entry (i, j), i > j, is the rank of the submatrix on rows i..n and
    columns 1..j; other entries are 0.  On the form of a placement this
    reproduces its rank matrix, and it is invariant along coadjoint orbits.
    """
    n = _check_form(form)
    int_rows = [_int_row(r) for r in form]
    out = [[0] * n for _ in range(n)]
    for i in range(2, n + 1):
        rows = int_rows[i - 1 :]
        for j in range(1, i):
            out[i - 1][j - 1] = integer_rank([r[:j] for r in rows])
    return out


# ---------------------------------------------------------------------------
# Orbit dimensions from the infinitesimal action


def _bracket_row(form: Matrix, a: int, b: int, cells: Sequence[Cell]) -> list[Fraction]:
    """Vectorized lower part of e_{a,b}·form - form·e_{a,b} (1-based a <= b)."""
    row = []
    for r, s in cells:
        v = Fraction(0)
        if r == a:
            v += form[b - 1][s - 1]
        if s == b:
            v -= form[r - 1][a - 1]
        row.append(v)
    return row


def tangent_dimension(form: Matrix, scope: Scope) -> int:
    """Dimension of the orbit through the form under the chosen group.

    Equals the rank of the family (x·form - form·x) over the elementary
    generators x of the acting Lie algebra.
    """
    n = _check_form(form)
    cells = all_lower_cells(n)
    gens = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    if scope is Scope.BOREL:
        gens += [(a, a) for a in range(1, n + 1)]
    rows = [_bracket_row(form, a, b, cells) for a, b in gens]
    return matrix_rank(rows)


# ---------------------------------------------------------------------------
# The skew form of the commutator pairing


def lower_cells_colmajor(n: int) -> list[Cell]:
    return [Cell(i, j) for j in range(1, n) for i in range(j + 1, n + 1)]


def _pairing_entry(form: Matrix, x: Cell, y: Cell) -> Fraction:
    """Value of the form on the commutator of the root vectors at x and y."""
    i, j = x
    r, s = y
    v = Fraction(0)
    if i == s:
        v += form[r - 1][j - 1]
    if j == r:
        v -= form[i - 1][s - 1]
    return v


@dataclass(frozen=True)
class SkewForm:
    """Commutator pairing on root vectors, basis in column-major cell order."""

    cells: tuple[Cell, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def rank(self) -> int:
        return matrix_rank([list(r) for r in self.entries])


def kirillov_form(form: Matrix) -> SkewForm:
    n = _check_form(form)
    cells = lower_cells_colmajor(n)
    entries = tuple(
        tuple(_pairing_entry(form, x, y) for y in cells) for x in cells
    )
    return SkewForm(tuple(cells), entries)


# ---------------------------------------------------------------------------
# Polarization certification


@dataclass(frozen=True)
class ClauseResult:
    name: str
    ok: bool
    witness: object = None


@dataclass(frozen=True)
class PolarizationReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses)

    def to_json(self) -> dict:
        return {
            c.name: {"ok": c.ok, "witness": _jsonable(c.witness)} for c in self.clauses
        }


def _jsonable(obj):
    if obj is None or isinstance(obj, (int, str, bool)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return str(obj)


def check_polarization(D: RookPlacement, scalars=None) -> PolarizationReport:
    """Certify that the complement of M spans a polarization at the form.

    Four clauses: the pairing vanishes on the spanned subspace (isotropy),
    the codimension equals |M|, the full pairing has rank exactly 2|M|
    (which makes the isotropic subspace maximal), and the complement is
    closed under commutators.
    """
    data = mp_sets(D)
    comp = sorted(polarization_complement(D))
    form = placement_form(D, scalars)

    iso_witness = None
    for a in range(len(comp)):
        for b in range(a + 1, len(comp)):
            v = _pairing_entry(form, comp[a], comp[b])
            if v != 0:
                iso_witness = (comp[a], comp[b], v)
                break
        if iso_witness:
            break

    n_cells = D.n * (D.n - 1) // 2
    codim_ok = len(comp) == n_cells - len(data.m_cells) and not (
        data.m_cells & frozenset(comp)
    )

    rank = kirillov_form(form).rank()
    max_ok = rank == 2 * len(data.m_cells)

    triple = subalgebra_witness(D)

    return PolarizationReport(
        (
            ClauseResult("isotropy", iso_witness is None, iso_witness),
            ClauseResult("codimension", codim_ok, len(comp)),
            ClauseResult("maximality", max_ok, rank),
            ClauseResult("subalgebra", triple is None, triple),
        )
    )


# ---------------------------------------------------------------------------
# Deterministic sampling


def random_upper(n: int, rng: random.Random, bound: int, scope: Scope) -> Matrix:
    """Invertible upper-triangular sample: [-bound, bound] above a diagonal of 1 or [1, bound]."""
    mat = zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = Fraction(rng.randint(-bound, bound))
    for i in range(n):
        mat[i][i] = Fraction(1) if scope is Scope.UNIPOTENT else Fraction(rng.randint(1, bound))
    return mat


def random_scalars(D: RookPlacement, rng: random.Random, bound: int = 3) -> dict[Cell, Fraction]:
    """Nonzero rational scalars for each rook, drawn in canonical rook order."""
    out = {}
    for cell in D.rooks:
        num = rng.randint(1, bound)
        den = rng.randint(1, bound)
        sign = rng.choice((1, -1))
        out[cell] = Fraction(sign * num, den)
    return out


# ---------------------------------------------------------------------------
# The quadratic from the 4-board discussion


def squared_corner(form: Matrix) -> Fraction:
    """Entry (4,1) of the matrix square of a 4x4 form.

    Expands to form[4,2]*form[2,1] + form[4,3]*form[3,1]; vanishes identically
    on some orbits, which certifies non-membership for forms where it does not.
    """
    n = _check_form(form)
    if n != 4:
        raise WrongBoardSize(f"defined only on the 4-board, got n={n}")
    return form[3][1] * form[1][0] + form[3][2] * form[2][0]
