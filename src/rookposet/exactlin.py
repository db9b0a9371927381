"""Exact matrix engine: the coadjoint action and the South-West rank profile.

Forms are strictly lower-triangular matrices paired with root cells via the
trace form, so the (i, j) entry of a form is its value on the elementary
matrix e_{j,i}; ``rank_profile`` takes them as lists of lists of ints.
``random_upper`` samples group elements as lists of ints, and
``random_scalars`` draws rook scalars p/q as lowest-terms pairs (p, q); each
drawn integer lies within 3 of zero.

Only integers flow through this module.  Every rank computed here, corner
ranks included, is unchanged by a nonzero scalar, so the ``thm15`` suite
scales the rook scalars by the lcm of their denominators q.  The coadjoint
action is B·L·adj(B) on that integer form, one sparse rank-one term per
nonzero entry, each with only the adjugate entries it reads, solved exactly
in integers (``_integer_action``); the suite reads the corner ranks of that
integer result directly, without dividing.  The South-West rank profile
comes from a single bottom-up elimination whose pivots are counted per
corner.  No rounding happens anywhere.

This module owns matrices and their ranks only.  The mark cells, the orbit
dimension formulas and the polarization clauses belong to ``polarization``,
which certifies them from the supports of the action without a matrix.
"""
from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from .board import Cell, RookPlacement


def _check_form(form: Sequence[Sequence[int]]) -> int:
    n = len(form)
    for i, row in enumerate(form):
        if len(row) != n:
            raise ValueError("form must be a square matrix")
        for x in row:
            if type(x) is not int:
                raise ValueError(f"form entries must be integers, got {x!r}")
        if any(row[i:]):
            raise ValueError("form must be strictly lower-triangular")
    return n


# ---------------------------------------------------------------------------
# The coadjoint action and the rank profile


def _integer_action(
    big_b: Sequence[Sequence[int]], entries: Iterable[tuple[int, int, int]]
) -> list[list[int]]:
    """B·L·adj(B) on the strict lower triangle, for integer B and L.

    B is an invertible upper-triangular integer matrix of size n, as
    ``random_upper`` draws it, and is not checked; L is the n x n strictly
    lower integer form whose nonzero entries are ``entries``, triples
    (r, c, v) with 0-based r > c.  B·L·adj(B) = det(B)·(B L B^{-1}), so it
    has the corner ranks of the action on L.  It is the sum over entries of
    the rank-one terms v·B[:, r] ⊗ adj(B)[c, :]; both factors are upper
    triangular, so a term reaches only the cells (x, y) with c <= y < x <= r.

    A term reads adj(B)[c, y] only for c <= y < r and solves for just those,
    forward from adj(B)[c, :]·B = det(B)·e_c; each is an integer cofactor, so
    every division by B[y][y] is exact, whatever the signs of B's diagonal.
    """
    n = len(big_b)
    det = math.prod(big_b[i][i] for i in range(n))
    out = [[0] * n for _ in range(n)]
    for r, c, v in entries:
        adj_c = [0] * r
        adj_c[c] = det // big_b[c][c]
        for y in range(c + 1, r):
            adj_c[y] = -sum(adj_c[k] * big_b[k][y] for k in range(c, y)) // big_b[y][y]
        for x in range(c + 1, r + 1):
            f = v * big_b[x][r]
            if f:
                row = out[x]
                for y in range(c, x):
                    row[y] += f * adj_c[y]
    return out


def rank_profile(form: Sequence[Sequence[int]]) -> list[list[int]]:
    """Matrix of ranks of the lower-left corners of the form.

    Entry (i, j), i > j, is the rank of the submatrix on rows i..n and
    columns 1..j; other entries are 0.  On the form of a placement this
    reproduces its rank matrix, and it is invariant along coadjoint orbits.

    One elimination gives every corner: rows are taken bottom-up, a row's
    pivot is its leftmost nonzero entry, and that column is cleared in every
    row above by adding a multiple of the pivot row (then dividing by the gcd).
    Adding a lower row to a higher one and scaling a row keep every corner
    rank; at the end the pivots sit in distinct columns, so a corner's rank is
    the number of pivots inside it.  Row r keeps only its columns < r, the
    only ones any corner through it reads.
    """
    n = _check_form(form)
    rows = [list(row) for row in form]
    pivot_of_row = [n] * n  # n: no pivot
    for r in reversed(range(n)):
        row = rows[r]
        c = next((k for k in range(r) if row[k]), None)
        if c is None:
            continue
        pivot_of_row[r] = c
        p = row[c]
        for s in range(c + 1, r):
            above = rows[s]
            f = above[c]
            if f:
                for k in range(s):
                    above[k] = p * above[k] - f * row[k]
                g = math.gcd(*above[:s])
                if g > 1:
                    for k in range(s):
                        above[k] //= g
    out = [[0] * n for _ in range(n)]
    acc = [0] * n  # acc[j] = pivots in the rows below, in columns <= j
    for i in reversed(range(n)):
        c = pivot_of_row[i]
        for j in range(c, n):
            acc[j] += 1
        out[i][:i] = acc[:i]
    return out


# ---------------------------------------------------------------------------
# Deterministic sampling


#: the bound of every draw, which the reports and tests pin
_BOUND = 3


def random_upper(n: int, rng: random.Random) -> list[list[int]]:
    """Invertible upper-triangular integer sample: [-3, 3] above a diagonal in [1, 3]."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = rng.randint(-_BOUND, _BOUND)
    for i in range(n):
        mat[i][i] = rng.randint(1, _BOUND)
    return mat


def random_scalars(D: RookPlacement, rng: random.Random) -> dict[Cell, tuple[int, int]]:
    """Nonzero rational scalars p/q, as (p, q) in lowest terms with q > 0, drawn in canonical rook order."""
    out = {}
    for cell in D.rooks:
        num = rng.randint(1, _BOUND)
        den = rng.randint(1, _BOUND)
        sign = rng.choice((1, -1))
        g = math.gcd(num, den)
        out[cell] = (sign * num // g, den // g)
    return out
