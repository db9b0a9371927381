"""Enumeration of placements, covering moves, and the brute-force cover oracle.

The five move families (remove, slide right, slide up, exchange, split) are
defined once, in ``_steps``, with guards that make every produced placement
an immediate predecessor in the rank-matrix order.  A step tests only its
added cells, and a cell that leaves the board or attacks a rook is reported
by ``board.placement``, the one rule for a valid placement.  The guards are
not taken on faith: ``PosetIndex(n)`` enumerates the n-board and peels all
lower covers from scratch, from bit-packed down-sets of the rank-matrix
order along a linear extension, and ``PosetIndex.cover_mismatch`` is the
one diff of a move list against them, for ``verify_covers`` and the
``covers --brute-force`` command alike.  The down-sets come from the order
engine, the only code that compares two placements: an AND of threshold
masks (``_threshold``).  ``_cells`` reads all elements' tables at every
cell in one pass over their point lists held as byte rows, and flags each
element's essential cells; ``_points_order`` hands each element the tuple
of its masks at those (``_Order``), for this order and the Bruhat orders of
the suites, and ``d0max`` ANDs one mask per cell, at the top's entries.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from itertools import chain, compress
from operator import and_
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .board import Cell, RookPlacement, all_lower_cells, placement, to_json
from .errors import LimitExceeded, NotIndexed, RookError

if TYPE_CHECKING:
    import numpy as np

#: hard ceiling for plain enumeration (115 975 placements at n=10); kept equal
#: to INDEX_LIMIT while ``verify`` checks a suite's limit only as it starts
ENUM_LIMIT = 10
#: ceiling for the all-pairs index, which keeps no down-sets and no rank
#: tables: at n=10 (115 975 placements, 820 582 cover edges) it holds 95
#: threshold masks, 1.4 MB, per placement the tuple of its masks, all built
#: in one pass at set-up, 8.9 MB, and with the placements and their key and
#: position maps 50 MB in all, with a peak of 65 MB while it is built (1.3 s);
#: numpy is loaded only for the dense views (``le``, ``covers``)
INDEX_LIMIT = 10


class MoveKind(Enum):
    REMOVE = "remove"
    SLIDE_RIGHT = "slide_right"
    SLIDE_UP = "slide_up"
    EXCHANGE = "exchange"
    SPLIT = "split"


class CoverMove(NamedTuple):
    kind: MoveKind
    removed: tuple[Cell, ...]
    added: tuple[Cell, ...]
    result: RookPlacement

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "removed": [[c.row, c.col] for c in self.removed],
            "added": [[c.row, c.col] for c in self.added],
            "result": to_json(self.result),
        }


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_placements(n: int) -> list[RookPlacement]:
    """All placements on the n-board, lexicographic on the sorted rook tuple.

    Rook tuples are column-sorted and cells compare as (row, col) pairs, so
    the empty placement comes first and prefixes precede their extensions.
    """
    if not 1 <= n <= ENUM_LIMIT:
        raise LimitExceeded(f"enumeration supports 1 <= n <= {ENUM_LIMIT}, got {n}")
    # after[c]: the cells in columns above c, in (row, col) order, with their row bits
    cells = sorted(all_lower_cells(n))
    after = [[(cell, 1 << cell.row) for cell in cells if cell.col > c] for c in range(n)]
    out: list[RookPlacement] = []

    def extend(prefix: tuple[Cell, ...], used_rows: int, last_col: int) -> None:
        out.append(RookPlacement(n, prefix))
        for cell, bit in after[last_col]:
            if not used_rows & bit:
                extend(prefix + (cell,), used_rows | bit, cell.col)

    extend((), 0, 0)
    return out


def bell_number(n: int) -> int:
    """Count of set partitions of an n-set, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# The move calculus


def _key(D: RookPlacement) -> int:
    """D packed into one int: each rook (i, j) puts j in bits [w*i, w*i + w), w = n.bit_length().

    Rows are distinct and 0 < j < 2**w, so the key determines the rooks.
    """
    w = D.n.bit_length()
    key = 0
    for i, j in D.rooks:
        key |= j << w * i
    return key


def _check_added(D: RookPlacement, rows: int, cols: int, removed: tuple, added: tuple) -> None:
    """Raise what ``placement`` raises when an added cell leaves the board or attacks.

    ``rows`` and ``cols`` are D's occupied rows and columns as bit masks.  The
    rooks that stay come from a valid placement, so only an added cell can be
    at fault; ``placement`` is then given the rooks that stay followed by the
    added ones.
    """
    for i, j in removed:
        rows ^= 1 << i
        cols ^= 1 << j
    for i, j in added:
        if not 1 <= j < i <= D.n or (rows >> i | cols >> j) & 1:
            placement(D.n, [c for c in D.rooks if c not in removed] + list(added))
        rows |= 1 << i
        cols |= 1 << j


Step = tuple[MoveKind, tuple[Cell, ...], tuple[tuple[int, int], ...], int]  # kind, removed, added, key


def _steps(D: RookPlacement) -> list[Step]:
    """Every guarded move out of D (see ``cover_moves``): (kind, removed, added, result key).

    D must be a valid placement.  Its occupied rows, occupied columns and
    doubly occupied indices are read once as bit masks, with the rows of
    each prefix of its rooks, so every guard is a mask test, those on the
    dominated rooks included.  One pass over the rooks collects the steps of
    each family.  A step's key is D's ``_key`` updated by the cells it moves; its
    added cells are plain (row, column) pairs, tested by ``_check_added``,
    and no placement is built.  Two steps may reach the same placement; the
    steps come family by family, in the order of their rooks.
    """
    n, rooks = D.n, D.rooks
    w = n.bit_length()
    key = _key(D)
    rows = cols = 0
    upto = [0]  # upto[k]: the rows of the first k rooks
    for i, j in rooks:
        rows |= 1 << i
        cols |= 1 << j
        upto.append(rows)
    both = rows & cols
    removes, slides, exchanges, splits = [], [], [], []
    for p, cell in enumerate(rooks):
        i, j = cell
        removed = (cell,)
        inside = (1 << i) - (2 << j)  # the indices strictly between j and i
        # the rooks strictly South-West of (i, j) are the later ones with a
        # smaller row, and those among them with a column below c are the
        # rooks next after (i, j) in the columns strictly between j and c
        here = upto[p + 1]
        later = rows ^ here

        # a minimal rook is removable when every index strictly between j
        # and i is doubly occupied: a free row k would leave the strictly
        # intermediate D - (i, j) + (k, j), a free column likewise (the
        # minimal rooks ascend in row as in column, so these come sorted)
        if not later & (1 << i) - 1 and not ~both & inside:
            removes.append((MoveKind.REMOVE, removed, (), key - (j << w * i)))

        # (i, j) slides to the first free column and to the last free row
        # strictly between j and i, when no row in (j, right], no column in
        # [up, i), is free, and the rooks below (i, j) stay below the slid
        # rook: none has a column below right or a row above up
        free = ~cols & inside
        right = (free & -free).bit_length() - 1
        if free and not ~rows & (2 << right) - (2 << j) and not (upto[p + right - j] ^ here) & (1 << i) - 1:
            added = ((i, right),)
            _check_added(D, rows, cols, removed, added)
            slides.append((MoveKind.SLIDE_RIGHT, removed, added, key + (right - j << w * i)))
        free = ~rows & inside  # the free rows a with j < a < i
        up = free.bit_length() - 1
        if up > j and not ~cols & (1 << i) - (1 << up) and not later & (1 << i) - (2 << up):
            added = ((up, j),)
            _check_added(D, rows, cols, removed, added)
            slides.append((MoveKind.SLIDE_UP, removed, added, key - (j << w * i) + (j << w * up)))

        # the partners are the rooks with a smaller column and a larger row
        # than cell and no rook between; scanning down the columns, ceiling
        # is the lowest such row seen so far
        partners = []
        if upto[p] >> i:  # some earlier rook has a larger row
            ceiling = n + 1
            for other in reversed(rooks[:p]):
                if i < other[0] < ceiling:
                    partners.append(other)
                    ceiling = other[0]
        for other in reversed(partners):
            a, b = other
            added = ((i, b), (a, j))
            _check_added(D, rows, cols, (cell, other), added)
            moved = key + (b - j) * ((1 << w * i) - (1 << w * a))
            exchanges.append((MoveKind.EXCHANGE, (cell, other), added, moved))

        while free:
            a = (free & -free).bit_length() - 1
            free &= free - 1
            # column b must be free with (a, b) doubly occupied: b = a when
            # column a is free, else the first index above a that is not
            # doubly occupied, which must then be an occupied row; and no
            # rook below (i, j) with a column below b may have a row above a
            b = a
            if cols >> a & 1:
                gaps = ~both >> a + 1
                b += (gaps & -gaps).bit_length()
            if b < i and (b == a or rows >> b & 1):
                under = upto[p + 1 + (cols & (1 << b) - (2 << j)).bit_count()] ^ here
                if not under & (1 << i) - (2 << a):
                    added = ((i, b), (a, j))
                    _check_added(D, rows, cols, removed, added)
                    splits.append((MoveKind.SPLIT, removed, added, key + (b - j << w * i) + (j << w * a)))
    return removes + slides + exchanges + splits


def cover_moves(D: RookPlacement) -> list[CoverMove]:
    """All placements immediately below D, as tagged moves.

    * remove: delete a removable minimal rook.
    * slide right: move (i,j) to (i,m), m the first free column between j and
      i.  Guarded twice: every rook dominated by (i,j) must stay dominated by
      (i,m), and no row in (j, m] may be free (a free row k admits the
      strictly intermediate D - (i,j) + (i,m) + (k,j)).
    * slide up: mirror image, m the last free row, no free column in [m, i).
    * exchange: two comparable rooks with nothing between swap columns.
    * split: replace (i,j) by (i,b) and (a,j) where row a and column b are
      free, everything strictly between a and b is doubly occupied, row b and
      column a are occupied when a != b, and each rook dominated by (i,j)
      stays dominated by (a,j) or (i,b).

    D must be a valid placement.  The moves are the steps of ``_steps``;
    distinct moves reaching the same placement are merged (same key, first
    tag wins; generation order is deterministic), and only the first builds
    its result and makes its added cells ``Cell``s.
    """
    found: dict[int, CoverMove] = {}
    for kind, removed, added, key in _steps(D):
        if key not in found:
            added = tuple(Cell(i, j) for i, j in added)
            rest = [c for c in D.rooks if c not in removed] + list(added)
            rest.sort(key=lambda c: c.col)
            found[key] = CoverMove(kind, removed, added, RookPlacement(D.n, tuple(rest)))
    return list(found.values())


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


def _rank_points(D: RookPlacement) -> list[int]:
    """Points whose table on the band J > I is D's rank matrix: (I, J) holds entry (n + 1 - I, n + 1 - J)."""
    points = [0] * D.n
    for a, b in D.rooks:
        points[D.n - a] = D.n + 1 - b
    return points


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


# ---------------------------------------------------------------------------
# The brute-force oracle


class PosetIndex:
    """All placements of the n-board, in enumeration order, and their rank-matrix order.

    D <= E iff D's rank matrix is entrywise at most E's, so sorted by their
    rank-matrix sums the placements form a linear extension, ``_by_position``,
    in which ``_order`` holds the masks read off their rank matrices' points
    (``_rank_points``); lower covers are peeled from it on request.
    A placement's id is its place in the enumeration, looked up by its
    packed key (``_key``) in ``index_of``.  The dense order
    and cover relations, 17 MB each at n=8, are numpy bool matrices built on
    request and not kept; only they import numpy.
    """

    def __init__(self, n: int):
        if not 1 <= n <= INDEX_LIMIT:
            raise LimitExceeded(f"the all-pairs index supports 1 <= n <= {INDEX_LIMIT}, got {n}")
        self.n = n
        self.placements = placements = enumerate_placements(n)
        self._ids = {_key(D): k for k, D in enumerate(placements)}
        # rook (a, b) counts in the C(a - b + 1, 2) rank cells b <= j < i <= a,
        # and a < b entrywise makes the sum grow strictly
        sums = [sum((a - b) * (a - b + 1) // 2 for a, b in D.rooks) for D in placements]
        self._by_position = sorted(range(len(placements)), key=sums.__getitem__)
        self._position = sorted(range(len(placements)), key=self._by_position.__getitem__)
        self._order = _points_order((_rank_points(placements[k]) for k in self._by_position), 1)

    @property
    def le(self) -> np.ndarray:
        """le[a, b] is True iff placement a <= placement b (a fresh dense numpy matrix)."""
        import numpy as np

        size = (len(self.placements) + 7) // 8
        down = b"".join(self._order.down(q).to_bytes(size, "little") for q in self._position)
        bits = np.unpackbits(np.frombuffer(down, np.uint8).reshape(-1, size), axis=1, bitorder="little")
        return bits.view(bool)[:, self._position].T

    @property
    def covers(self) -> np.ndarray:
        """covers[t, d] is True iff placement t is an immediate predecessor of d (dense numpy)."""
        import numpy as np

        out = np.zeros((len(self.placements),) * 2, dtype=bool)
        for d in range(len(self.placements)):
            out[self.lower_cover_ids(d), d] = True
        return out

    def index_of(self, D: RookPlacement) -> int:
        k = self._ids.get(_key(D)) if D.n == self.n else None
        if k is None or self.placements[k] != D:
            raise NotIndexed(f"{D} is not a placement of the {self.n}-board index")
        return k

    def lower_cover_ids(self, d: int) -> list[int]:
        """Ids of the immediate predecessors of placement d, ascending."""
        return sorted(map(self._by_position.__getitem__, self._order.lower_covers(self._position[d])))

    def cover_mismatch(self, d: int, got: Sequence[int]) -> dict | None:
        """None if ``got`` are exactly the ids of d's lower covers, else the missing and extra ones, by id.

        A match is tested as the peel's list of positions, highest first; a
        repeated id fails that test and, like any other, goes to the set diff.
        """
        position = self._position
        covers = self._order.lower_covers(position[d])
        if sorted(map(position.__getitem__, got), reverse=True) == covers:
            return None
        got, expected = set(got), set(map(self._by_position.__getitem__, covers))
        if got == expected:
            return None
        return {
            "missing": [to_json(self.placements[t]) for t in sorted(expected - got)],
            "extra": [to_json(self.placements[t]) for t in sorted(got - expected)],
        }


@lru_cache(maxsize=None)
def poset_index(n: int) -> PosetIndex:
    return PosetIndex(n)


def verify_covers(n: int) -> tuple[int, list[dict]]:
    """Compare the move calculus with the brute-force covers, placement by placement.

    Each step's result is looked up by its key, so no result is built.
    Returns the number of placements checked and one witness per mismatch.  A
    move that raises (say, a result with attacking rooks) is a mismatch too,
    whose witness carries the error.
    """
    idx = poset_index(n)
    ids = idx._ids
    failures: list[dict] = []
    for d, D in enumerate(idx.placements):
        try:
            got = [ids[step[3]] for step in _steps(D)]
        except RookError as exc:
            failures.append({"placement": to_json(D), "error": str(exc)})
            continue
        mismatch = idx.cover_mismatch(d, got)
        if mismatch:
            failures.append({"placement": to_json(D), **mismatch})
    return len(idx.placements), failures


# ---------------------------------------------------------------------------
# The maximal element


def maximal_element(n: int) -> RookPlacement:
    """The top placement: rooks (n,1), (n-1,2), ... filling floor(n/2) columns."""
    return placement(n, [(n - k + 1, k) for k in range(1, n // 2 + 1)])


# ---------------------------------------------------------------------------
# DOT export


def hasse_dot(n: int) -> Iterator[str]:
    """Lines of the Graphviz digraph of the covering relation, one edge D -> cover.

    The index is built at the call; the lines are made as they are read.
    """
    idx = poset_index(n)
    labels = ['"' + "".join(f"({c.row},{c.col})" for c in D.rooks) + '"' for D in idx.placements]
    return chain(
        ["digraph hasse {\n", "  node [shape=box];\n"],
        (f"  {label};\n" for label in labels),
        (f"  {labels[d]} -> {labels[t]};\n" for d in range(len(labels)) for t in idx.lower_cover_ids(d)),
        ["}\n"],
    )
