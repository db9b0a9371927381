"""One-line permutations of {1, ..., m}, their Coxeter length, and the order engine.

A permutation w is stored as the tuple (w(1), ..., w(m)), 1-based throughout.

The order engine compares point lists, partial permutations whose rows
either hold one point or none, by their rank tables: the Bruhat order of
permutations and the rank-matrix order of the placements (``poset``) alike,
and it is the only code in the package that compares two elements.  An
element is <= another iff its table is at most the other's at the other's
essential cells (Fulton), and the elements whose entry at a cell is at most
v make one threshold mask (``_threshold``).  ``_cells`` reads all elements'
tables at every cell in one pass over their point lists held as byte rows,
and flags each element's essential cells; ``_points_order`` hands each
element the tuple of its masks at those (``_Order``), and the suites'
``d0max`` ANDs one mask per cell, at the top's entries.
"""
from __future__ import annotations

from functools import reduce
from itertools import chain, compress
from operator import and_
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def inversions(w: Sequence[int]) -> int:
    """Number of out-of-order pairs; equals the Coxeter length of w.

    >>> inversions((3, 5, 4, 6, 2, 1))
    10
    """
    m = len(w)
    return sum(1 for x in range(m) for y in range(x + 1, m) if w[x] > w[y])


# ---------------------------------------------------------------------------
# The order engine


def _cells(rows: Sequence[bytes], band: int) -> Iterator[tuple[tuple[int, int], bytes, bytes]]:
    """Per cell (I, J), the tables T(I, J) = #{x <= I : point of row x >= J} of all point lists at once.

    ``rows[x - 1]`` holds row x of every list, byte p the column of list p's
    point there (0: none; no two rows of a list share a column), and T lives
    on the cells 1 <= I, J <= m with J - I >= band.  A table T' there is <= T
    iff it is at T's essential cells (Fulton): T' is monotone with steps of 0
    or 1, so a cell follows from a neighbour unless N: row I has no point at
    a column >= J; E: column J has none at a row <= I; S: (I + 1, J) is off
    the table or row I + 1 has its point at a column >= J; W: (I, J - 1) is
    off the table or column J - 1 has its point at a row <= I.  Each test is
    an int with one byte, 0 or 1, per list: T(I, J) sums the rows <= I read
    as 1 where the point is >= J, and column J has a point at a row <= I
    where T(I, J) - T(I, J + 1) is 1; as m < 255, no byte carries.  Yields
    every cell of the band, row by row, T(I, J) as bytes, and key bytes:
    T(I, J) + 1 for the lists the cell is essential for, 0 for the others.
    """
    size, m = len(rows[0]), len(rows)
    ones = int.from_bytes(b"\1" * size, "little")
    tables = [bytes(J) + b"\1" * (256 - J) for J in range(m + 1)]  # byte v to 1 iff v >= J
    # each row read as 1 at index J where its point is >= J; below the last row S holds
    reads = ([int.from_bytes(row.translate(table), "little") for table in tables] for row in rows)
    reads = chain(reads, [[ones] * (m + 1)])
    total = [0] * (m + 2)  # total[J] = T(I, J), and T(I, m + 1) = 0
    here = next(reads)
    for I, below in enumerate(reads, start=1):
        for J in range(1, m + 1):
            total[J] += here[J]
        for J in range(max(1, I + band), m + 1):
            flags = (here[J] | total[J] - total[J + 1]) ^ ones  # N and E
            if J > I + band:  # on the band's edge J = I + band, S and W hold
                flags &= below[J] & (total[J - 1] - total[J] if J > 1 else ones)
            key = (total[J] + ones) & flags * 255
            yield (I, J), total[J].to_bytes(size, "little"), key.to_bytes(size, "little")
        here = below


def _threshold(column: bytes, v: int) -> int:
    """{p : column[p] <= v} as an int, position p at bit p: the bytes, last first, as binary digits."""
    return int(column[::-1].translate(b"1" * (v + 1) + b"0" * (255 - v)), 2)


class _Order:
    """An order on elements at bit positions 0, 1, ..., size - 1, by the threshold masks of each.

    ``masks[q]`` holds, per essential cell c of q's table, {p : T_p(c) <= T_q(c)}
    with position p at bit p, so p <= q iff p is in all of them and Down(q)
    is their AND; no down-set is kept.
    """

    def __init__(self, masks: list[tuple[int, ...]]):
        self._masks = masks
        self._all = (1 << len(masks)) - 1

    def down(self, q: int) -> int:
        return reduce(and_, self._masks[q], self._all)

    def lower_covers(self, q: int) -> list[int]:
        """Positions of q's lower covers, highest first, when positions ascend along a linear extension.

        The highest position t left in Down(q) - {q} is under no cover found so far, so it
        is a cover; clearing Down(t), built within the positions left, removes only non-covers.
        """
        masks = self._masks
        rest = reduce(and_, masks[q], (2 << q) - 1) ^ 1 << q
        found = []
        t = q
        while rest:
            last, t = t, rest.bit_length() - 1
            if t == last:  # a position missing from its own down-set is never cleared
                raise ValueError(f"position {t} is not in its own down-set")
            found.append(t)
            rest ^= reduce(and_, masks[t], rest)
        return found


def _points_order(points: Iterable[Sequence[int]], band: int) -> _Order:
    """The order of the point lists at their positions, by their tables (see ``_cells``).

    The lists, of one length m, are read once into rows, so a caller that
    passes a generator holds none of them while the masks are built.  At each
    cell, the positions it is essential for share one threshold mask per
    value; they are picked out of the key bytes by ``compress``, and a cell
    essential for none is skipped before its key is walked.
    """
    rows = [bytes(row) for row in zip(*points)]
    positions = range(len(rows[0]))
    masks: list[tuple[int, ...]] = [()] * len(positions)
    for _, column, key in _cells(rows, band):
        values = key.translate(None, b"\0")  # the keys of the flagged positions, in position order
        if not values:
            continue
        shared = {k: (_threshold(column, k - 1),) for k in set(values)}
        for p, mask in zip(compress(positions, key), map(shared.__getitem__, values)):
            masks[p] += mask
    return _Order(masks)
