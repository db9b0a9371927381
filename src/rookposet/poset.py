"""Enumeration of placements, covering moves, and the brute-force cover oracle.

The five move families (remove, slide right, slide up, exchange, split) are
defined once, in ``_steps``, with guards that make every produced placement
an immediate predecessor in the rank-matrix order.  A step is the packed key
of its result (``_key``); ``cover_moves`` reads the move, its kind included,
off the key's diff with D's.  A step tests only its added cells
(``_blocked``), and a cell that leaves the board or attacks a rook is
reported by ``board.placement``, the one rule for a valid placement.  The
guards are not taken on faith: ``PosetIndex(n)`` enumerates the n-board and
peels all lower covers from scratch, from bit-packed down-sets of the
rank-matrix order along a linear extension, and
``PosetIndex.cover_mismatch`` is the one diff of the result keys of a move
list against them, for ``verify_covers`` and the ``covers --brute-force``
command alike.  The down-sets come from the order engine in
``permutations``, the only code that compares two placements, on the
points of their rank matrices (``_rank_points``).
"""
from __future__ import annotations

from bisect import insort
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .board import Cell, RookPlacement, all_lower_cells, placement, to_json
from .errors import LimitExceeded, NotIndexed, RookError
from .permutations import _points_order

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
    return _walk(n)[0]


def _walk(n: int) -> tuple[list[RookPlacement], list[int], list[int]]:
    """The placements of ``enumerate_placements`` with their keys (``_key``) and rank-matrix sums.

    A depth-first walk that adds one rook per level, in a column above the
    last one: each extension ORs the rook's key field into its prefix's key
    and adds the rook's rank cells to its prefix's sum.
    """
    w = n.bit_length()
    # after[c]: the cells in columns above c, in (row, col) order, with their
    # row bit, key field and rank cells: rook (a, b) counts in the
    # C(a - b + 1, 2) cells b <= j < i <= a
    after: list[list] = [[] for _ in range(n)]
    for cell in sorted(all_lower_cells(n)):
        a, b = cell
        for c in range(b):
            after[c].append((cell, 1 << a, b << w * a, (a - b) * (a - b + 1) // 2))
    out: list[RookPlacement] = []
    keys: list[int] = []
    sums: list[int] = []
    put, put_key, put_sum = out.append, keys.append, sums.append

    def extend(prefix: tuple[Cell, ...], used_rows: int, last_col: int, key: int, total: int) -> None:
        put(RookPlacement(n, prefix))
        put_key(key)
        put_sum(total)
        for cell, bit, field, size in after[last_col]:
            if not used_rows & bit:
                extend(prefix + (cell,), used_rows | bit, cell.col, key | field, total + size)

    extend((), 0, 0, 0, 0)
    del extend  # it holds itself, and so the lists, in a cycle
    return out, keys, sums


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


def _blocked(n: int, rows: int, cols: int, x: int, y: int, u: int | None = None, v: int = 0) -> bool:
    """Whether a step's added cell (x, y), and (u, v) after it when u is given, fails.

    ``rows`` and ``cols`` are the bit masks of the rows and columns of D's
    rooks that the step keeps.  A cell fails when it leaves the n-board or
    shares a row or a column with them or with the cell added before it.
    """
    if not 0 < y < x <= n or (rows >> x | cols >> y) & 1:
        return True
    return u is not None and (not 0 < v < u <= n or u == x or v == y or (rows >> u | cols >> v) & 1 == 1)


def _refuse(D: RookPlacement, removed: tuple, added: tuple) -> None:
    """Raise what ``placement`` raises on the rooks of D that a step keeps, followed by its added cells.

    ``_steps`` calls it for a step that ``_blocked`` fails; the kept rooks
    come from a valid placement, so ``placement`` names an added cell.
    """
    placement(D.n, [c for c in D.rooks if c not in removed] + list(added))


def _steps(D: RookPlacement) -> list[int]:
    """The result keys of every guarded move out of D (see ``cover_moves``).

    D must be a valid placement.  Its occupied rows, occupied columns and
    doubly occupied indices are read once as bit masks, with the rows of
    each prefix of its rooks, so every guard is a mask test, those on the
    dominated rooks included.  One pass over the rooks collects the steps of
    each family.  A step's key is D's ``_key`` updated by the cells it moves,
    and no placement is built.  Its added cells are tested against the
    masks of the rooks it keeps by ``_blocked``, and a step that fails goes
    to ``placement`` by ``_refuse``.  The keys come family by family
    (removes, slides, exchanges, splits), in the order of their rooks.
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
        kept_rows, kept_cols = rows ^ 1 << i, cols ^ 1 << j  # those of the other rooks
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
            removes.append(key - (j << w * i))

        # (i, j) slides to the first free column and to the last free row
        # strictly between j and i, when no row in (j, right], no column in
        # [up, i), is free, and the rooks below (i, j) stay below the slid
        # rook: none has a column below right or a row above up
        free = ~cols & inside
        right = (free & -free).bit_length() - 1
        if free and not ~rows & (2 << right) - (2 << j) and not (upto[p + right - j] ^ here) & (1 << i) - 1:
            if _blocked(n, kept_rows, kept_cols, i, right):
                _refuse(D, (cell,), ((i, right),))
            slides.append(key + (right - j << w * i))
        free = ~rows & inside  # the free rows a with j < a < i
        up = free.bit_length() - 1
        if up > j and not ~cols & (1 << i) - (1 << up) and not later & (1 << i) - (2 << up):
            if _blocked(n, kept_rows, kept_cols, up, j):
                _refuse(D, (cell,), ((up, j),))
            slides.append(key - (j << w * i) + (j << w * up))

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
            if _blocked(n, kept_rows ^ 1 << a, kept_cols ^ 1 << b, i, b, a, j):
                _refuse(D, (cell, other), ((i, b), (a, j)))
            exchanges.append(key + (b - j) * ((1 << w * i) - (1 << w * a)))

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
                    if _blocked(n, kept_rows, kept_cols, i, b, a, j):
                        _refuse(D, (cell,), ((i, b), (a, j)))
                    splits.append(key + (b - j << w * i) + (j << w * a))
    return removes + slides + exchanges + splits


#: the kind of a move by its numbers of removed and added rooks; one and one is a slide
_KINDS = {(1, 0): MoveKind.REMOVE, (2, 2): MoveKind.EXCHANGE, (1, 2): MoveKind.SPLIT}


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

    D must be a valid placement.  The moves are the distinct result keys of
    ``_steps``, in the order they first come.  Each is read off its diff with
    D's key, in the rows it changes alone: the removed rooks are D's rooks in
    those rows, highest column first, and the added cells the rooks of the
    result there, the one in the first removed rook's row first.  The kind
    follows from the shape: one rook removed and none added is a remove, one
    and one a slide, right within a row and up within a column, two and two
    an exchange, one and two a split.
    """
    n, w = D.n, D.n.bit_length()
    field = (1 << w) - 1
    base = _key(D)
    by_row = {c.row: c for c in D.rooks}
    col = itemgetter(1)
    moves = []
    for key in dict.fromkeys(_steps(D)):
        changed = []  # the rows whose fields differ
        diff = key ^ base
        while diff:
            i = (diff.bit_length() - 1) // w
            changed.append(i)
            diff ^= diff >> w * i << w * i
        removed = [by_row[i] for i in changed if i in by_row]
        if len(removed) > 1:
            removed.sort(key=col, reverse=True)
        first = removed[0].row
        if changed[0] != first:
            changed.sort(key=first.__ne__)
        added = tuple([Cell(i, j) for i in changed if (j := key >> w * i & field)])
        shape = len(removed), len(added)
        if shape == (1, 1):
            kind = MoveKind.SLIDE_RIGHT if added[0].row == first else MoveKind.SLIDE_UP
        else:
            kind = _KINDS[shape]
        rest = list(D.rooks)
        for cell in removed:
            rest.remove(cell)
        for cell in added:
            insort(rest, cell, key=col)
        moves.append(CoverMove(kind, tuple(removed), added, RookPlacement(n, tuple(rest))))
    return moves


# ---------------------------------------------------------------------------
# The brute-force oracle


def _rank_points(D: RookPlacement) -> list[int]:
    """Points whose table on the band J > I is D's rank matrix: (I, J) holds entry (n + 1 - I, n + 1 - J)."""
    points = [0] * D.n
    for a, b in D.rooks:
        points[D.n - a] = D.n + 1 - b
    return points


class PosetIndex:
    """All placements of the n-board, in enumeration order, and their rank-matrix order.

    D <= E iff D's rank matrix is entrywise at most E's, so sorted by their
    rank-matrix sums the placements form a linear extension, ``_by_position``,
    in which ``_order`` holds the masks read off their rank matrices' points
    (``_rank_points``); lower covers are peeled from it on request.
    A placement's id is its place in the enumeration, and ``_at`` gives its
    position by its packed key (``_key``); the walk that enumerates the
    placements hands over their keys and rank-matrix sums.  The dense order
    and cover relations, 17 MB each at n=8, are numpy bool matrices built on
    request and not kept; only they import numpy.
    """

    def __init__(self, n: int):
        if not 1 <= n <= INDEX_LIMIT:
            raise LimitExceeded(f"the all-pairs index supports 1 <= n <= {INDEX_LIMIT}, got {n}")
        self.n = n
        placements, keys, sums = _walk(n)
        self.placements = placements
        # a < b entrywise makes the rank-matrix sum grow strictly
        self._by_position = sorted(range(len(placements)), key=sums.__getitem__)
        self._position = sorted(range(len(placements)), key=self._by_position.__getitem__)
        self._at = dict(zip(map(keys.__getitem__, self._by_position), range(len(placements))))
        del keys, sums  # not held while the masks are built, the peak of the build
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
        q = self._at.get(_key(D)) if D.n == self.n else None
        k = None if q is None else self._by_position[q]
        if k is None or self.placements[k] != D:
            raise NotIndexed(f"{D} is not a placement of the {self.n}-board index")
        return k

    def lower_cover_ids(self, d: int) -> list[int]:
        """Ids of the immediate predecessors of placement d, ascending."""
        return sorted(map(self._by_position.__getitem__, self._order.lower_covers(self._position[d])))

    def cover_mismatch(self, d: int, keys: Iterable[int]) -> dict | None:
        """None if ``keys`` are exactly the keys of d's lower covers, else the missing and extra ones, by id.

        The keys are read as positions; a match is tested as the peel's list
        of positions, highest first.  A repeated key fails that test and, like
        any other, goes to the set diff.
        """
        covers = self._order.lower_covers(self._position[d])
        got = sorted(map(self._at.__getitem__, keys), reverse=True)
        if got == covers:
            return None
        got, expected = set(got), set(covers)
        if got == expected:
            return None
        ids = self._by_position
        return {
            "missing": [to_json(self.placements[t]) for t in sorted(ids[q] for q in expected - got)],
            "extra": [to_json(self.placements[t]) for t in sorted(ids[q] for q in got - expected)],
        }


@lru_cache(maxsize=None)
def poset_index(n: int) -> PosetIndex:
    return PosetIndex(n)


def verify_covers(n: int) -> tuple[int, list[dict]]:
    """Compare the move calculus with the brute-force covers, placement by placement.

    The steps' result keys go to the cover diff as they are, so no result
    is built.  Returns the number of placements checked and one witness per
    mismatch.  A move that raises (say, a result with attacking rooks) is a
    mismatch too, whose witness carries the error.
    """
    idx = poset_index(n)
    failures: list[dict] = []
    for d, D in enumerate(idx.placements):
        try:
            mismatch = idx.cover_mismatch(d, _steps(D))
        except RookError as exc:
            failures.append({"placement": to_json(D), "error": str(exc)})
            continue
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
