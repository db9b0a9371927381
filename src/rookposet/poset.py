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
engine (``_Order``), the only code that compares two placements, at
essential cells; ``_points_order`` builds every order, this one, the top
element's and the Bruhat orders of the suites, reading a table cell of all
elements at once as sums of byte strings.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from itertools import chain
from operator import and_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .board import Cell, RookPlacement, all_lower_cells, placement, to_json
from .errors import LimitExceeded, NotIndexed, RookError

if TYPE_CHECKING:
    import numpy as np

#: hard ceiling for plain enumeration (21147 placements at n=9 is still cheap)
ENUM_LIMIT = 9
#: ceiling for the all-pairs index, which keeps no down-sets and no rank
#: tables: at n=9 (21147 placements, 126 487 cover edges) it holds 70
#: threshold masks, 0.2 MB, per placement a tuple of its masks, 1.5 MB, and
#: its key and position maps, 5.4 MB in all; numpy is loaded only for the
#: dense views (``le``, ``covers``)
INDEX_LIMIT = 9


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


def _essential(points: Sequence[int], band: int) -> list[tuple[tuple[int, int], int]]:
    """((I, J), T(I, J)) at the essential cells of T(I, J) = #{x <= I : points[x - 1] >= J}.

    Row x has its point at column ``points[x - 1]`` (0: none; no two share a
    column), and T lives on the cells 1 <= I, J <= m with J - I >= band.  A
    table T' there is <= T iff it is at T's essential cells (Fulton): T' is
    monotone with steps of 0 or 1, so a cell follows from a neighbour unless
    N: row I has no point at a column >= J; E: column J has none at a row <=
    I; S: (I + 1, J) is off the table or row I + 1 has its point at a column
    >= J; W: (I, J - 1) is off the table or column J - 1 has its point at a
    row <= I.  ``seen`` marks the columns of the rows <= I: E and W pick the
    starts of its gaps, N and S bound J, and S and W hold at J = I + band.
    """
    m = len(points)
    out = []
    seen = 0
    for I, (y, below) in enumerate(zip(points, [*points[1:], m]), start=1):
        if y:
            seen |= 1 << y
        lo = I + band - 1
        cand = 0
        if y > lo:
            lo = y
        elif lo < m and not seen >> lo + 1 & 1:
            cand = 1 << lo + 1  # the edge cell
        if below > lo:  # the last row has no row below: there S bounds J by m
            cand |= ((seen << 1) | 2) & ~seen & ((2 << below) - (2 << lo))
        while cand:
            J = (cand & -cand).bit_length() - 1
            out.append(((I, J), (seen >> J).bit_count()))
            cand &= cand - 1
    return out


def _rank_points(D: RookPlacement) -> list[int]:
    """Points whose table on the band J > I is D's rank matrix: (I, J) holds entry (n + 1 - I, n + 1 - J)."""
    points = [0] * D.n
    for a, b in D.rooks:
        points[D.n - a] = D.n + 1 - b
    return points


class _Masks(dict):
    """Threshold masks by (cell, value): {p : T_p(cell) <= value} as an int, position p at bit p.

    The first time a cell is asked for, the masks of all its values are read
    off ``column(cell)``, the bytes T_p(cell) over every position p: per
    value, ``bytes.translate`` turns them into the digits "1" and "0", which
    are parsed as a binary number.
    """

    def __init__(self, column: Callable[[object], bytes]):
        self.column = column

    def __missing__(self, pair: tuple) -> int:
        cell = pair[0]
        col = self.column(cell)[::-1]  # position 0 is the last digit
        for v in set(col):
            self[cell, v] = int(col.translate(b"1" * (v + 1) + b"0" * (255 - v)), 2)
        if pair not in self:
            raise KeyError(f"value {pair[1]} is not in the column of cell {cell}")
        return self[pair]


class _Order:
    """An order on elements at bit positions 0, 1, ..., size - 1, compared at essential cells.

    ``essential(q)`` yields the essential cells c of q's table with their
    values T_q(c), and p <= q iff T_p(c) <= T_q(c) at all of them;
    ``column(c)`` holds T_p(c) at byte p, so every value is below 256.
    Down(q) is the AND of q's threshold masks (``_Masks``), whose tuple is
    built the first time q is read; no down-set is kept.
    """

    def __init__(self, size: int, essential: Callable[[int], Iterable], column: Callable[[object], bytes]):
        self._essential = essential
        self._thresholds = _Masks(column)
        self._masks: list[tuple[int, ...] | None] = [None] * size
        self._all = (1 << size) - 1

    def masks(self, q: int) -> tuple[int, ...]:
        held = self._masks[q]
        if held is None:
            held = self._masks[q] = tuple(map(self._thresholds.__getitem__, self._essential(q)))
        return held

    def down(self, q: int) -> int:
        return reduce(and_, self.masks(q), self._all)

    def lower_covers(self, q: int) -> list[int]:
        """Positions of q's lower covers, highest first, when positions ascend along a linear extension.

        The highest position t left in Down(q) - {q} is under no cover found so far, so it
        is a cover; clearing Down(t), built within the positions left, removes only non-covers.
        """
        rest = reduce(and_, self.masks(q), (2 << q) - 1) ^ 1 << q
        found = []
        t = q
        while rest:
            last, t = t, rest.bit_length() - 1
            if t == last:  # a position missing from its own down-set is never cleared
                raise ValueError(f"position {t} is not in its own down-set")
            found.append(t)
            rest ^= reduce(and_, self.masks(t), rest)
        return found


def _points_order(points: Sequence[Sequence[int]], band: int) -> _Order:
    """The order of the point lists ``points`` at their positions, by their tables (see ``_essential``).

    The lists have one length m and points below 256.  Row x of them all is
    held as bytes, byte p the point of list p, and nothing else is kept.  So T(I, J) over all
    positions is the sum of the rows <= I translated to 1 where the point is
    >= J and 0 elsewhere (a 0, no point, is never counted), added as ints
    with one byte per position: no count reaches 256.
    """
    rows = [bytes(row) for row in zip(*points)]

    def column(cell: tuple[int, int]) -> bytes:
        at_least = bytes(v >= cell[1] for v in range(256))
        total = sum(int.from_bytes(row.translate(at_least), "little") for row in rows[: cell[0]])
        return total.to_bytes(len(points), "little")

    return _Order(len(points), lambda q: _essential([row[q] for row in rows], band), column)


# ---------------------------------------------------------------------------
# The brute-force oracle


class PosetIndex:
    """All placements of the n-board, in enumeration order, and their rank-matrix order.

    D <= E iff D's rank matrix is entrywise at most E's, so sorted by their
    rank-matrix sums the placements form a linear extension, ``_by_position``,
    in which ``_order`` holds them as the points of their rank matrices
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
        self._order = _points_order([_rank_points(placements[k]) for k in self._by_position], 1)

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

    def cover_mismatch(self, d: int, got: Iterable[int]) -> dict | None:
        """None if ``got`` are exactly the ids of d's lower covers, else the missing and extra ones, by id."""
        got, expected = set(got), set(self.lower_cover_ids(d))
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
    if n < 1:
        raise ValueError("board size must be at least 1")
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
