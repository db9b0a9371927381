import hashlib
import json
import random
from itertools import compress
from itertools import permutations as iterperms

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookposet import (
    Cell,
    MoveKind,
    VerificationReport,
    bell_number,
    cover_moves,
    enumerate_placements,
    hasse_dot,
    inversions,
    kerov_involution,
    maximal_element,
    permutation_of,
    placement,
    poset_index,
    rank_matrix,
    run_suite,
    verify_covers,
)
from rookposet import suites
from rookposet.cli import ANALYZE_LIMIT
from rookposet.errors import AttackingRooks, LimitExceeded, NotIndexed, OutOfBoard
from rookposet.permutations import _cells, _Order, _points_order, _threshold
from rookposet.poset import _blocked, _key, _rank_points, _refuse, _steps, _walk

from conftest import broadcast_pairwise_leq, lower_entries, matmul_covers, placements, reference_cover_moves
from oracles import bruhat_leq, cell_lt, dominance_table, leq


def decoded(n, key):
    """The rooks packed in a key, column-sorted: row i holds the w-bit field at w*i."""
    w = n.bit_length()
    fields = [(i, key >> w * i & (1 << w) - 1) for i in range(2, n + 1)]
    return sorted(((i, j) for i, j in fields if j), key=lambda c: c[1])


# --- enumeration --------------------------------------------------------------


def test_counts_match_bell_numbers():
    expected = [1, 2, 5, 15, 52, 203, 877, 4140]
    for n, count in enumerate(expected, start=1):
        assert len(enumerate_placements(n)) == count
        assert bell_number(n) == count


def test_enumeration_is_lexicographic():
    for n in range(1, 7):
        everything = enumerate_placements(n)
        assert everything == sorted(everything, key=lambda D: D.rooks)
        assert len(set(everything)) == len(everything)
        assert everything[0] == placement(n, [])


@pytest.mark.parametrize("n", [0, 11])
def test_enumeration_limit(n):
    with pytest.raises(LimitExceeded):
        enumerate_placements(n)


def test_index_limit():
    with pytest.raises(LimitExceeded):
        poset_index(11)


@pytest.mark.parametrize("n", range(1, 10))
def test_keys_are_distinct_and_decode_to_the_rooks(n):
    everything = enumerate_placements(n)
    keys = [_key(D) for D in everything]
    assert len(set(keys)) == len(keys)
    for D, key in zip(everything, keys):
        assert decoded(n, key) == list(D.rooks)


@pytest.mark.parametrize("n", range(1, 10))
def test_rank_sums_in_closed_form(n):
    # the index sorts by rank-matrix sums taken from the rooks: rook (a, b)
    # counts in the C(a - b + 1, 2) cells b <= j < i <= a
    for D in enumerate_placements(n):
        assert 2 * sum(map(sum, rank_matrix(D))) == sum((a - b) * (a - b + 1) for a, b in D.rooks), D


@pytest.mark.parametrize("n", range(1, 10))
def test_walk_carries_the_keys_and_rank_sums(n):
    # the index takes each placement's key and rank-matrix sum from the walk
    everything, keys, sums = _walk(n)
    assert everything == enumerate_placements(n)
    assert keys == [_key(D) for D in everything]
    assert sums == [sum(map(sum, rank_matrix(D))) for D in everything]


# --- removable rooks ----------------------------------------------------------


def test_removable_golden(golden8):
    minimal = [c for c in golden8.rooks if not any(cell_lt(other, c) for other in golden8.rooks)]
    assert minimal == [Cell(3, 1), Cell(5, 4), Cell(8, 6)]
    # Row 2 is free, so dropping (3,1) is beaten by sliding it up; column 7 is
    # free, so dropping (8,6) is beaten by sliding it right.  Only (5,4) has
    # every strictly intermediate row and column occupied.
    removes = [m for m in cover_moves(golden8) if m.kind is MoveKind.REMOVE]
    assert [m.removed for m in removes] == [(Cell(5, 4),)]
    index = poset_index(8)
    covers = index.lower_cover_ids(index.index_of(golden8))
    for cell in (Cell(3, 1), Cell(8, 6)):
        dropped = placement(8, [c for c in golden8.rooks if c != cell])
        assert leq(dropped, golden8) and index.index_of(dropped) not in covers


def _minimal_and_removed(D):
    minimal = {c for c in D.rooks if not any(cell_lt(other, c) for other in D.rooks)}
    removed = {m.removed[0] for m in cover_moves(D) if m.kind is MoveKind.REMOVE}
    return minimal, removed


def test_removable_spread_rook():
    # rows 1..3 and columns 2..4 are free, so the lone rook slides instead
    minimal, removed = _minimal_and_removed(placement(4, [(4, 1)]))
    assert minimal == {Cell(4, 1)}
    assert removed == set()


def test_removable_empty():
    assert _minimal_and_removed(placement(3, [])) == (set(), set())


def test_remove_moves_are_the_covers_with_one_rook_fewer():
    # against the index: the REMOVE results are exactly the covers of D with
    # one rook fewer, and no rook lies strictly South-West of a removed one
    for n in range(1, 7):
        index = poset_index(n)
        for d, D in enumerate(index.placements):
            removes = [m for m in cover_moves(D) if m.kind is MoveKind.REMOVE]
            covers = [index.placements[t] for t in index.lower_cover_ids(d)]
            fewer = [E for E in covers if len(E.rooks) == len(D.rooks) - 1]
            assert sorted(m.result.rooks for m in removes) == sorted(E.rooks for E in fewer), D
            for move in removes:
                [cell] = move.removed
                assert not any(cell_lt(c, cell) for c in D.rooks), D


# --- cover moves ----------------------------------------------------------------


def test_cover_moves_golden_contains_exchange(golden8):
    moves = cover_moves(golden8)
    exchanges = [
        m for m in moves if m.kind is MoveKind.EXCHANGE and set(m.removed) == {Cell(5, 4), Cell(6, 2)}
    ]
    assert len(exchanges) == 1
    assert set(exchanges[0].added) == {Cell(5, 2), Cell(6, 4)}


def test_cover_moves_split_example():
    D = placement(6, [(4, 1), (6, 2), (5, 4)])
    moves = cover_moves(D)
    splits = [m for m in moves if m.kind is MoveKind.SPLIT and m.removed == (Cell(6, 2),)]
    results = {m.result for m in splits}
    assert placement(6, [(4, 1), (3, 2), (6, 3), (5, 4)]) in results


def test_cover_moves_empty():
    assert cover_moves(placement(4, [])) == []


def test_cover_moves_single_rook_small_board():
    # The bare slide targets are beaten by the diagonal split, which is the
    # unique cover here.
    moves = cover_moves(placement(3, [(3, 1)]))
    assert [m.kind for m in moves] == [MoveKind.SPLIT]
    assert moves[0].result == placement(3, [(2, 1), (3, 2)])


def test_cover_moves_spread_rook():
    moves = cover_moves(placement(4, [(4, 1)]))
    assert {m.result for m in moves} == {
        placement(4, [(2, 1), (4, 2)]),
        placement(4, [(3, 1), (4, 3)]),
    }
    assert all(m.kind is MoveKind.SPLIT for m in moves)


def test_cover_moves_one_rook_at_the_cli_limit():
    # each free index a in (1, n) splits (n, 1) into (a, 1) and (n, a); the
    # split scan stops at the first index between a and b not doubly occupied
    n = ANALYZE_LIMIT
    moves = cover_moves(placement(n, [(n, 1)]))
    assert all(m.kind is MoveKind.SPLIT for m in moves)
    assert {m.result for m in moves} == {placement(n, [(a, 1), (n, a)]) for a in range(2, n)}


@pytest.mark.parametrize("n", range(1, 9))
def test_cover_moves_match_reference(n):
    # the same moves, tags, cells, results and order as the guard-by-guard oracle,
    # and every result is a placement that validates in full; n = 8 is kept
    # because some wrong split guards first differ there
    for D in enumerate_placements(n):
        moves = cover_moves(D)
        assert moves == reference_cover_moves(D)
        for move in moves:
            assert placement(n, move.result.rooks) == move.result
            assert all(type(c) is Cell for c in move.result.rooks)


@pytest.mark.parametrize(
    "removed, added",
    [
        ((), ((3, 3),)),
        ((), ((7, 1),)),
        ((), ((6, 5),)),
        ((), ((4, 1),)),
        ((Cell(6, 2),), ((6, 5), (5, 3))),
        ((Cell(6, 2),), ((4, 2), (4, 3))),
        ((Cell(6, 2),), ((4, 2), (6, 2))),
        ((Cell(3, 1), Cell(6, 2)), ((6, 1), (3, 2))),
        ((Cell(6, 2),), ((2, 2),)),
        ((Cell(6, 2),), ((6, 3), (2, 2))),
    ],
)
def test_moved_raises_what_placement_raises(removed, added):
    # the one added-cell test of the move calculus, on plain (row, column)
    # pairs as the steps add them, given the rows and columns of D's rooks
    # that the step keeps; a step that fails it raises by _refuse.  The last
    # two cases add (2, 2) in a row and a column the kept rooks leave free,
    # so only the board test can fail them
    D = placement(6, [(3, 1), (6, 2), (5, 4)])
    kept = [c for c in D.rooks if c not in removed]
    rows, cols = sum(1 << i for i, _ in kept), sum(1 << j for _, j in kept)
    blocked = _blocked(6, rows, cols, *(x for cell in added for x in cell))
    try:
        placement(6, kept + list(added))
    except (OutOfBoard, AttackingRooks) as exc:
        assert blocked is True
        with pytest.raises(type(exc)) as got:
            _refuse(D, removed, added)
        assert str(got.value) == str(exc)
    else:
        assert blocked is False


@pytest.mark.parametrize("n", range(1, 8))
def test_step_keys_are_the_keys_of_their_results(n):
    # each family updates the key arithmetically, and no two steps reach one
    # placement, so every step is checked in its order against the
    # guard-by-guard oracle, not just the first one per key
    for D in enumerate_placements(n):
        assert _steps(D) == [_key(m.result) for m in reference_cover_moves(D)], D


def test_move_soundness_exhaustive():
    deltas = {
        MoveKind.REMOVE: -1,
        MoveKind.SLIDE_RIGHT: 0,
        MoveKind.SLIDE_UP: 0,
        MoveKind.EXCHANGE: 0,
        MoveKind.SPLIT: 1,
    }
    for n in range(1, 7):
        for D in enumerate_placements(n):
            for move in cover_moves(D):
                assert move.result != D
                assert leq(move.result, D)
                assert len(move.result.rooks) - len(D.rooks) == deltas[move.kind]


def test_cover_moves_order_is_pinned():
    # the moves, tags, cells and their order over every placement to n = 7,
    # in enumeration order: the covers output and every report depend on them
    digest = hashlib.md5()
    for n in range(1, 8):
        for D in enumerate_placements(n):
            digest.update(json.dumps([m.to_json() for m in cover_moves(D)], sort_keys=True).encode())
    assert digest.hexdigest() == "1047ad0cce16fe7fb1ea5e492a87f99f"


@settings(max_examples=50, deadline=None, database=None)
@given(placements(max_n=30))
def test_cover_moves_beyond_enumeration(D):
    # each result lies strictly below D, and the moves are the steps' keys
    # in the order they first come
    moves = cover_moves(D)
    assert [_key(m.result) for m in moves] == list(dict.fromkeys(_steps(D)))
    for move in moves:
        assert move.result != D and leq(move.result, D)


@settings(max_examples=50, deadline=None, database=None)
@given(placements(max_n=30))
def test_cover_moves_match_reference_beyond_enumeration(D):
    # the kinds, cells, results and their order that the decoder reads off
    # the key diffs, against the guard-by-guard oracle on boards up to n = 30
    assert cover_moves(D) == reference_cover_moves(D)


# --- the brute-force oracle ------------------------------------------------------


def test_brute_force_covers_small():
    index = poset_index(3)
    covers = index.lower_cover_ids(index.index_of(placement(3, [(3, 1)])))
    assert covers == [index.index_of(placement(3, [(2, 1), (3, 2)]))]
    assert index.lower_cover_ids(index.index_of(placement(3, []))) == []


def test_brute_force_not_indexed():
    index = poset_index(3)
    with pytest.raises(NotIndexed):
        index.index_of(placement(4, []))


def test_index_relation_agrees_with_leq():
    import random

    index = poset_index(4)
    le = index.le  # built on each access
    for a in range(15):
        for b in range(15):
            assert le[a, b] == leq(index.placements[a], index.placements[b])
    index = poset_index(5)
    le = index.le
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.randrange(52), rng.randrange(52)
        assert le[a, b] == leq(index.placements[a], index.placements[b])


@pytest.mark.parametrize("n", range(1, 8))
def test_index_matches_dense_oracles(n):
    index = poset_index(n)
    rows = [lower_entries(rank_matrix(D)) for D in index.placements]
    le = broadcast_pairwise_leq(np.array(rows).reshape(len(index.placements), -1))
    covers = matmul_covers(le)
    assert np.array_equal(index.le, le)
    assert np.array_equal(index.covers, covers)
    for d in range(len(index.placements)):
        assert index.lower_cover_ids(d) == np.flatnonzero(covers[:, d]).tolist()


def every_column(rows):
    """The order of ``rows`` (entries from -128 to 127) at their positions, every column essential."""
    rows = [[v + 128 for v in row] for row in rows]
    columns = [bytes(column) for column in zip(*rows)]
    return _Order([tuple(map(_threshold, columns, row)) for row in rows])


def down_matrix(order):
    """bits[p, q] is True iff bit p of Down(q) is set, as a dense numpy bool matrix."""
    count = len(order._masks)
    size = (count + 7) // 8
    packed = np.frombuffer(b"".join(order.down(q).to_bytes(size, "little") for q in range(count)), np.uint8)
    return np.unpackbits(packed.reshape(count, size), axis=1, count=count, bitorder="little").T.astype(bool)


def test_order_down_sets_on_random_small_ints():
    rng = np.random.default_rng(5)
    shapes = [(0, 3), (1, 0), (5, 0), (1, 4), (7, 1), (8, 2), (9, 3), (13, 5), (31, 4), (70, 2)]
    for count, width in shapes:
        for low, high in [(0, 2), (-2, 3), (-30, 30)]:
            rows = rng.integers(low, high, size=(count, width), dtype=np.int16)
            assert np.array_equal(down_matrix(every_column(rows.tolist())), broadcast_pairwise_leq(rows))


def test_order_lower_covers_on_random_distinct_rows():
    # any distinct rows: a < b entrywise forces sum(a) < sum(b), so rows
    # sorted by their sums are at positions of a linear extension
    rng = np.random.default_rng(6)
    cases = [(1, 0, 1), (6, 1, 4), (9, 3, 2), (40, 3, 3), (150, 4, 4), (300, 6, 3)]
    for count, width, high in cases:
        rows = np.unique(rng.integers(0, high, size=(count, width)), axis=0)
        rows = rows[rng.permutation(len(rows))]
        rows = rows[np.argsort(rows.sum(axis=1), kind="stable")]
        covers = matmul_covers(broadcast_pairwise_leq(rows))
        order = every_column(rows.tolist())
        for q in range(len(rows)):
            assert sorted(order.lower_covers(q)) == np.flatnonzero(covers[:, q]).tolist()


def test_position_missing_from_its_own_down_set_fails():
    # a table whose essential value undercuts its own column entry would
    # leave its own bit set for ever; the peel raises instead
    order = _Order([(_threshold(bytes([1, 2]), 1),)] * 2)
    assert order.down(1) == 0b01
    with pytest.raises(ValueError, match="own down-set"):
        order.lower_covers(1)


@pytest.mark.parametrize("n", range(1, 9))
def test_essential_down_sets_match_full_tables(n):
    # the engine compares at essential cells only; the oracle compares the
    # full rank rows and dominance tables of every pair
    index = poset_index(n)
    ranked = [index.placements[k] for k in index._by_position]
    tables = {"rank": [lower_entries(rank_matrix(D)) for D in ranked]}
    orders = {"rank": index._order}
    for name, perm_of in [("sigma", kerov_involution), ("w", permutation_of)]:
        if name == "sigma" and n == 1:
            continue
        tables[name] = [sum(dominance_table(perm_of(D)), ()) for D in ranked]
        orders[name] = suites._bruhat_order(index, perm_of)
    for name, order in orders.items():
        le = broadcast_pairwise_leq(np.array(tables[name], dtype=np.uint8).reshape(len(ranked), -1))
        assert np.array_equal(down_matrix(order), le), name


def essential_sets(lists, band):
    """Per point list, {((I, J), T(I, J))} at the cells that ``_cells`` flags for it."""
    out = [set() for _ in lists]
    for cell, column, key in _cells([bytes(row) for row in zip(*lists)], band):
        for p in compress(range(len(key)), key):
            assert column[p] == key[p] - 1, (cell, p)
            out[p].add((cell, key[p] - 1))
    return out


def point_table(points, I, J):
    """T(I, J) = #{x <= I : points[x - 1] >= J}, counted."""
    return sum(1 for y in points[:I] if y >= J)


def table_essential(T, on_table):
    """Cells of T (1-based, T[I][J]) that no neighbour implies, read off the entries.

    N: T(I - 1, J) = T(I, J); E: T(I, J + 1) = T(I, J); S and W: the cell
    below or to the left is off the table or one more.  Off the square, T is
    0 above and to the right.
    """
    def at(I, J):
        return T[I][J] if 1 <= I < len(T) and 1 <= J < len(T) else 0

    return {
        ((I, J), T[I][J])
        for I in range(1, len(T))
        for J in range(1, len(T))
        if on_table(I, J)
        and at(I - 1, J) == T[I][J] == at(I, J + 1)
        and (not on_table(I + 1, J) or I + 1 == len(T) or T[I + 1][J] == T[I][J] + 1)
        and (not on_table(I, J - 1) or J == 1 or T[I][J - 1] == T[I][J] + 1)
    }


def test_essential_cells_are_exactly_the_unimplied_entries():
    # the neighbour conditions on the points against the same conditions on
    # the entries of the full tables: no cell is missing and none is extra
    # (one pass per board and per permutation size, every list in one batch);
    # the pass yields every cell of the band once, row by row, with each
    # list's table entry there, flagged or not
    for m in range(1, 7):
        for lists, band in [
            ([_rank_points(D) for D in enumerate_placements(m)], 1),
            (list(iterperms(range(1, m + 1))), 1 - m),
        ]:
            yielded = list(_cells([bytes(row) for row in zip(*lists)], band))
            band_cells = [(I, J) for I in range(1, m + 1) for J in range(max(1, I + band), m + 1)]
            assert [cell for cell, _, _ in yielded] == band_cells, (m, band)
            for (I, J), column, _ in yielded:
                assert list(column) == [point_table(points, I, J) for points in lists], (I, J, band)
    for n in range(1, 7):
        everything = enumerate_placements(n)
        for D, found in zip(everything, essential_sets([_rank_points(D) for D in everything], 1)):
            R = rank_matrix(D)  # entry (i, j) sits at (n + 1 - i, n + 1 - j), on the band J > I
            T = [[0] * (n + 1)] + [
                [0] + [R[n - I][n - J] if J > I else 0 for J in range(1, n + 1)]
                for I in range(1, n + 1)
            ]
            assert found == table_essential(T, lambda I, J: J > I), D
    for m in range(1, 7):
        perms = list(iterperms(range(1, m + 1)))
        for w, found in zip(perms, essential_sets(perms, 1 - m)):
            T = [[0] * (m + 1)] + [[0, *row] for row in dominance_table(w)]
            assert found == table_essential(T, lambda I, J: True), w


def test_cells_of_a_list_do_not_depend_on_its_batch():
    # a carry or a borrow between the bytes of neighbouring lists would make
    # a list's cells depend on its company: each list alone against the
    # same list in a shuffled random batch, and every mask in the batch
    # against its threshold counted from the points
    rng = random.Random(20)
    batches = []
    for n in range(2, 10):
        everything = enumerate_placements(min(n, 7))
        batches.append(([_rank_points(rng.choice(everything)) for _ in range(rng.randrange(1, 90))], 1))
        m = rng.choice([n, 3 * n, 60])
        batches.append(([rng.sample(range(1, m + 1), m) for _ in range(rng.randrange(1, 90))], 1 - m))
    for lists, band in batches:
        rng.shuffle(lists)
        alone = [essential_sets([points], band)[0] for points in lists]
        assert essential_sets(lists, band) == alone
        order = _points_order(lists, band)
        for q, cells in enumerate(alone):
            expected = [
                sum(1 << p for p, points in enumerate(lists) if point_table(points, I, J) <= v)
                for (I, J), v in sorted(cells)
            ]
            assert list(order._masks[q]) == expected, (band, q)


def test_engine_counts_at_n8_without_numpy():
    # the sizes of the order and cover relations that the benchmark's gate reads
    index = poset_index(8)
    count = len(index.placements)
    assert sum(index._order.down(q).bit_count() for q in range(count)) == 3_139_072
    assert sum(len(index.lower_cover_ids(d)) for d in range(count)) == 20_500


def chain_below(D, rng):
    """D and the placements below it along a random chain of cover moves."""
    chain = [D]
    for _ in range(rng.randrange(6)):
        moves = cover_moves(chain[-1])
        if not moves:
            break
        chain.append(rng.choice(moves).result)
    return chain


def incitti_rank(D):
    """(inv + exc) / 2 of D's doubled involution, the rank function of Bruhat order on
    involutions (Incitti, J. Algebraic Combin. 20, 2004)."""
    sigma = kerov_involution(D)
    twice = inversions(sigma) + sum(s > i for i, s in enumerate(sigma, start=1))
    assert twice % 2 == 0, D
    return twice // 2


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(10, 40).flatmap(lambda n: st.tuples(placements(n, n), placements(n, n))), st.randoms())
def test_essential_cells_beyond_enumeration(pair, rng):
    # comparable pairs (E below D by a chain of covers) and unrelated pairs,
    # against the full tables; each cover along the chain lowers the Incitti
    # rank of the doubled involution by exactly one
    D, unrelated = pair
    chain = chain_below(D, rng)
    ranks = [incitti_rank(E) for E in chain]
    assert all(a - b == 1 for a, b in zip(ranks, ranks[1:])), chain
    for E in (chain[-1], unrelated):
        rank_E = rank_matrix(E)
        [essential] = essential_sets([_rank_points(D)], 1)
        by_cells = all(rank_E[D.n - I][D.n - J] <= v for (I, J), v in essential)
        assert by_cells == leq(E, D)
        assert _points_order([_rank_points(D), _rank_points(E)], 1).down(0) >> 1 == leq(E, D)
        for perm_of in (kerov_involution, permutation_of):
            v, w = perm_of(E), perm_of(D)
            table = dominance_table(v)
            [essential] = essential_sets([w], 1 - len(w))
            by_cells = all(table[I - 1][J - 1] <= x for (I, J), x in essential)
            assert by_cells == bruhat_leq(v, w)
            assert _points_order([w, v], 1 - len(w)).down(0) >> 1 == bruhat_leq(v, w)
        assert leq(E, D) == bruhat_leq(kerov_involution(E), kerov_involution(D))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_covers_small_boards(n):
    checked, failures = verify_covers(n)
    assert failures == []
    assert checked == bell_number(n)


def test_unremovable_minimal_rooks_are_not_covers():
    for n in range(2, 6):
        index = poset_index(n)
        for d, D in enumerate(index.placements):
            minimal, removed = _minimal_and_removed(D)
            assert removed <= minimal
            covers = index.lower_cover_ids(d)
            for cell in minimal - removed:
                dropped = placement(n, [c for c in D.rooks if c != cell])
                assert leq(dropped, D) and dropped != D
                assert index.index_of(dropped) not in covers


# --- maximal element --------------------------------------------------------------


def test_maximal_element_values():
    assert maximal_element(5) == placement(5, [(5, 1), (4, 2)])
    assert maximal_element(1) == placement(1, [])
    assert maximal_element(6) == placement(6, [(6, 1), (5, 2), (4, 3)])
    with pytest.raises(ValueError, match="^board size must be at least 1, got 0$"):
        maximal_element(0)  # the check of board.placement


def test_maximal_element_dominates_everything():
    for n in range(1, 8):
        top = maximal_element(n)
        for D in enumerate_placements(n):
            assert leq(D, top)


# --- order properties ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4])
def test_order_property_suite(n):
    for suite in ("cor18", "proctor"):
        report = run_suite(suite, n)
        assert report.passed
        assert report.checked == bell_number(n) ** 2


@pytest.mark.parametrize("n", range(2, 10))
def test_covers_lower_the_incitti_rank_by_one(n):
    # Bruhat order on involutions is graded by the Incitti rank; through cor18
    # every cover of the rank-row order must drop that rank by exactly one
    index = poset_index(n)
    rho = [incitti_rank(D) for D in index.placements]
    for d, r in enumerate(rho):
        assert all(r - rho[t] == 1 for t in index.lower_cover_ids(d)), index.placements[d]


@pytest.mark.parametrize("suite, checked", [("d0max", 21147), ("counts", 21147), ("thm15", 50)])
def test_whole_board_suites_reach_n9(suite, checked):
    report = run_suite(suite, 9, samples=1)  # d0max and counts ignore samples
    assert report.passed
    assert report.checked == checked


def test_order_property_limit():
    for suite in ("cor18", "proctor"):
        with pytest.raises(LimitExceeded):
            run_suite(suite, 11)


# --- DOT export ----------------------------------------------------------------------


def test_hasse_dot_tiny():
    text = "".join(hasse_dot(1))
    assert text.count("->") == 0
    assert '"";' in text

    text = "".join(hasse_dot(2))
    assert text.count("->") == 1
    assert '"(2,1)" -> "";' in text


def test_hasse_dot_edge_count_matches_oracle():
    index = poset_index(3)
    total = sum(len(index.lower_cover_ids(d)) for d in range(len(index.placements)))
    text = "".join(hasse_dot(3))
    assert text.count("->") == total
    assert text == "".join(hasse_dot(3))  # byte-stable


def test_hasse_dot_node_lines():
    text = "".join(hasse_dot(3))
    assert text.count(";") >= 5  # one node statement per placement
    assert text.startswith("digraph hasse {")


# --- reports ---------------------------------------------------------------------------


def test_report_json_fields():
    report = run_suite("thm33", 3)
    blob = report.to_json()
    assert set(blob) == {"suite", "n", "checked", "failures", "seed", "millis"}
    json.dumps(blob)  # serializable
    assert isinstance(report, VerificationReport)
