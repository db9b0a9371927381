"""Enumeration of placements, covering moves, and the brute-force cover oracle.

The five move families (remove, slide right, slide up, exchange, split) are
generated with guards that make every produced placement an immediate
predecessor in the rank-matrix order.  The guards are not taken on faith:
``verify_covers`` recomputes all lower covers from scratch, purely by pairwise
rank-matrix comparison over the full enumeration, and reports any discrepancy
with a witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import permutations as perms
from .board import (
    Cell,
    RookPlacement,
    cell_leq,
    cell_lt,
    placement,
    rank_matrix,
    to_json,
)
from .errors import LimitExceeded, NotIndexed, UndefinedMove

#: hard ceiling for plain enumeration (21147 placements at n=9 is still cheap)
ENUM_LIMIT = 9
#: ceiling for the quadratic all-pairs index; n=8 means ~17M comparisons
INDEX_LIMIT = 8


class MoveKind(Enum):
    REMOVE = "remove"
    SLIDE_RIGHT = "slide_right"
    SLIDE_UP = "slide_up"
    EXCHANGE = "exchange"
    SPLIT = "split"


@dataclass(frozen=True)
class CoverMove:
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
    out: list[RookPlacement] = []

    def extend(prefix: list[Cell], used_rows: set[int], last_col: int) -> None:
        out.append(RookPlacement(n, tuple(prefix)))
        candidates = sorted(
            Cell(i, j)
            for j in range(last_col + 1, n)
            for i in range(j + 1, n + 1)
            if i not in used_rows
        )
        for cell in candidates:
            prefix.append(cell)
            used_rows.add(cell.row)
            extend(prefix, used_rows, cell.col)
            used_rows.discard(cell.row)
            prefix.pop()

    extend([], set(), 0)
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


def removable_rooks(D: RookPlacement) -> tuple[frozenset[Cell], frozenset[Cell]]:
    """Minimal rooks, and the subset whose removal is an immediate step down.

    A minimal rook (i, j) is removable only when every index strictly between
    j and i has both its row and its column occupied; a free row k yields the
    strictly intermediate placement D - (i,j) + (k,j), a free column likewise.
    """
    rooks = D.rooks
    minimal = frozenset(
        c for c in rooks if not any(o != c and cell_leq(o, c) for o in rooks)
    )
    rows, cols = D.rows, D.cols
    removable = frozenset(
        c
        for c in minimal
        if all(k in rows and k in cols for k in range(c.col + 1, c.row))
    )
    return minimal, removable


def _dominated(D: RookPlacement, pivot: Cell) -> list[Cell]:
    return [c for c in D.rooks if c != pivot and cell_leq(c, pivot)]


def _slide_right_target(D: RookPlacement, i: int, j: int) -> int | None:
    cols = D.cols
    return next((k for k in range(j + 1, i) if k not in cols), None)


def _slide_up_target(D: RookPlacement, i: int, j: int) -> int | None:
    rows = D.rows
    return max((k for k in range(j + 1, i) if k not in rows), default=None)


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

    Distinct moves reaching the same placement are merged (first tag wins;
    generation order is deterministic).
    """
    found: dict[RookPlacement, CoverMove] = {}

    def add(kind: MoveKind, removed: Sequence[Cell], added: Sequence[Cell]) -> None:
        cells = [c for c in D.rooks if c not in removed] + list(added)
        result = placement(D.n, cells)
        if result not in found:
            found[result] = CoverMove(kind, tuple(removed), tuple(added), result)

    rows, cols = D.rows, D.cols

    _, removable = removable_rooks(D)
    for cell in sorted(removable):
        add(MoveKind.REMOVE, [cell], [])

    for cell in D.rooks:
        i, j = cell
        dominated = _dominated(D, cell)

        m = _slide_right_target(D, i, j)
        if (
            m is not None
            and all(cell_leq(c, Cell(i, m)) for c in dominated)
            and all(k in rows for k in range(j + 1, m + 1))
        ):
            add(MoveKind.SLIDE_RIGHT, [cell], [Cell(i, m)])

        m = _slide_up_target(D, i, j)
        if (
            m is not None
            and all(cell_leq(c, Cell(m, j)) for c in dominated)
            and all(k in cols for k in range(m, i))
        ):
            add(MoveKind.SLIDE_UP, [cell], [Cell(m, j)])

    for cell in D.rooks:
        for other in D.rooks:
            if cell_lt(cell, other) and not any(
                cell_lt(cell, mid) and cell_lt(mid, other)
                for mid in D.rooks
                if mid != cell and mid != other
            ):
                i, j = cell
                a, b = other
                add(MoveKind.EXCHANGE, [cell, other], [Cell(i, b), Cell(a, j)])

    for cell in D.rooks:
        i, j = cell
        dominated = _dominated(D, cell)
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
                if not all(
                    cell_leq(c, Cell(a, j)) or cell_leq(c, Cell(i, b))
                    for c in dominated
                ):
                    continue
                add(MoveKind.SPLIT, [cell], [Cell(i, b), Cell(a, j)])

    return list(found.values())


def raw_move(
    D: RookPlacement, kind: MoveKind, rook: Sequence[int], aux: Sequence[int] | None = None
) -> RookPlacement:
    """Literal set replacement of a single move, with no cover guards.

    Only structural preconditions apply: the target must exist and the result
    must be a valid placement.  Raises UndefinedMove otherwise.
    """
    rook = Cell(*rook)
    if rook not in D.cells:
        raise UndefinedMove(f"{rook} is not a rook of {D}")
    i, j = rook
    rest = [c for c in D.rooks if c != rook]
    try:
        if kind is MoveKind.REMOVE:
            return placement(D.n, rest)
        if kind is MoveKind.SLIDE_RIGHT:
            m = _slide_right_target(D, i, j)
            if m is None:
                raise UndefinedMove(f"no free column strictly between {j} and {i}")
            return placement(D.n, rest + [Cell(i, m)])
        if kind is MoveKind.SLIDE_UP:
            m = _slide_up_target(D, i, j)
            if m is None:
                raise UndefinedMove(f"no free row strictly between {j} and {i}")
            return placement(D.n, rest + [Cell(m, j)])
        if kind is MoveKind.EXCHANGE:
            if aux is None:
                raise UndefinedMove("exchange needs the second rook")
            other = Cell(*aux)
            if other not in D.cells or other == rook:
                raise UndefinedMove(f"{other} is not another rook of {D}")
            a, b = other
            rest2 = [c for c in rest if c != other]
            return placement(D.n, rest2 + [Cell(i, b), Cell(a, j)])
        if kind is MoveKind.SPLIT:
            if aux is None:
                raise UndefinedMove("split needs the pivot pair")
            a, b = aux
            if not j < a <= b < i:
                raise UndefinedMove(f"split pivot {(a, b)} must sit strictly inside ({j}, {i})")
            return placement(D.n, rest + [Cell(i, b), Cell(a, j)])
    except UndefinedMove:
        raise
    except Exception as exc:  # invalid resulting placement
        raise UndefinedMove(f"move produces an invalid placement: {exc}") from exc
    raise UndefinedMove(f"unknown move kind {kind}")


# ---------------------------------------------------------------------------
# The brute-force oracle


class PosetIndex:
    """All placements of one board with their full pairwise order relation.

    The strict relation is materialized as a boolean matrix from flattened
    rank matrices; lower covers come from the transitive-reduction double
    scan (t is covered by d iff t < d and no s has t < s < d).
    """

    def __init__(self, n: int, placements: list[RookPlacement], le: np.ndarray):
        self.n = n
        self.placements = placements
        self._index = {D: k for k, D in enumerate(placements)}
        self.le = le
        lt = le.copy()
        np.fill_diagonal(lt, False)
        self.lt = lt
        self._covers: np.ndarray | None = None
        self._lower: list[list[int]] | None = None

    @property
    def covers(self) -> np.ndarray:
        """covers[t, d] is True iff placement t is an immediate predecessor of d."""
        if self._covers is None:
            f = self.lt.astype(np.float32)
            two_step = f @ f  # exact: counts stay far below 2**24
            self._covers = self.lt & (two_step == 0)
        return self._covers

    def index_of(self, D: RookPlacement) -> int:
        try:
            return self._index[D]
        except KeyError:
            raise NotIndexed(f"{D} is not a placement of the {self.n}-board index") from None

    def lower_cover_ids(self, d: int) -> list[int]:
        """Ids of the immediate predecessors of placement d, ascending."""
        if self._lower is None:  # one pass over the cover matrix for all d
            # flatnonzero is far faster than a 2-D nonzero on the dense matrix
            ts, ds = np.divmod(np.flatnonzero(self.covers), len(self.placements))
            order = np.argsort(ds, kind="stable")  # by d; t stays ascending
            bounds = np.searchsorted(ds[order], np.arange(len(self.placements) + 1))
            ts = ts[order].tolist()
            self._lower = [ts[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        return list(self._lower[d])

    def lower_covers(self, D: RookPlacement) -> list[RookPlacement]:
        return [self.placements[t] for t in self.lower_cover_ids(self.index_of(D))]


def _pairwise_leq(rank_rows: np.ndarray) -> np.ndarray:
    count, width = rank_rows.shape
    le = np.empty((count, count), dtype=bool)
    step = max(1, min(count, 16_000_000 // max(1, count * width)))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        le[lo:hi] = (rank_rows[lo:hi, None, :] <= rank_rows[None, :, :]).all(axis=2)
    return le


@lru_cache(maxsize=None)
def poset_index(n: int) -> PosetIndex:
    if not 1 <= n <= INDEX_LIMIT:
        raise LimitExceeded(f"the all-pairs index supports 1 <= n <= {INDEX_LIMIT}, got {n}")
    all_placements = enumerate_placements(n)
    rank_rows = np.array(
        [rank_matrix(D).flatten_lower() for D in all_placements], dtype=np.int16
    )
    if rank_rows.ndim == 1:  # n == 1: no lower-triangle cells
        rank_rows = rank_rows.reshape(len(all_placements), 0)
    return PosetIndex(n, all_placements, _pairwise_leq(rank_rows))


def bruhat_relation(ws: Sequence[perms.Perm]) -> np.ndarray:
    """le[a, b] is True iff ws[a] <= ws[b] in the Bruhat order, by dominance tables."""
    tables = np.array([perms.dominance_table(w) for w in ws], dtype=np.int16)
    return _pairwise_leq(tables.reshape(len(ws), -1))


def verify_covers(n: int) -> tuple[int, list[dict]]:
    """Compare the move calculus with the brute-force covers, placement by placement.

    Returns the number of placements checked and one witness per mismatch.
    """
    idx = poset_index(n)
    failures: list[dict] = []
    for d, D in enumerate(idx.placements):
        expected = set(idx.lower_cover_ids(d))
        got = {idx.index_of(move.result) for move in cover_moves(D)}
        if got != expected:
            failures.append(
                {
                    "placement": to_json(D),
                    "missing": [to_json(idx.placements[t]) for t in sorted(expected - got)],
                    "extra": [to_json(idx.placements[t]) for t in sorted(got - expected)],
                }
            )
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


def hasse_dot(n: int, index: PosetIndex | None = None) -> str:
    """Graphviz digraph of the covering relation, one edge D -> cover."""
    idx = index if index is not None else poset_index(n)

    def label(D: RookPlacement) -> str:
        return "".join(f"({c.row},{c.col})" for c in D.rooks)

    lines = ["digraph hasse {", "  node [shape=box];"]
    for D in idx.placements:
        lines.append(f'  "{label(D)}";')
    for d, D in enumerate(idx.placements):
        for t in idx.lower_cover_ids(d):
            lines.append(f'  "{label(D)}" -> "{label(idx.placements[t])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
