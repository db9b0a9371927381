import json

import pytest

from rookposet import (
    Cell,
    MoveKind,
    VerificationReport,
    bell_number,
    cover_moves,
    empty_placement,
    enumerate_placements,
    hasse_dot,
    leq,
    maximal_element,
    placement,
    poset_index,
    raw_move,
    removable_rooks,
    run_suite,
    verify_covers,
)
from rookposet.errors import LimitExceeded, NotIndexed, UndefinedMove


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
        assert everything[0] == empty_placement(n)


@pytest.mark.parametrize("n", [0, 10])
def test_enumeration_limit(n):
    with pytest.raises(LimitExceeded):
        enumerate_placements(n)


def test_index_limit():
    with pytest.raises(LimitExceeded):
        poset_index(9)


# --- removable rooks ----------------------------------------------------------


def test_removable_golden(golden8):
    minimal, removable = removable_rooks(golden8)
    assert minimal == {Cell(3, 1), Cell(5, 4), Cell(8, 6)}
    # Row 2 is free, so dropping (3,1) is beaten by sliding it up; column 7 is
    # free, so dropping (8,6) is beaten by sliding it right.  Only (5,4) has
    # every strictly intermediate row and column occupied.
    assert removable == {Cell(5, 4)}


def test_removable_spread_rook():
    minimal, removable = removable_rooks(placement(4, [(4, 1)]))
    assert minimal == {Cell(4, 1)}
    assert removable == frozenset()


def test_removable_empty():
    assert removable_rooks(empty_placement(3)) == (frozenset(), frozenset())


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
    assert cover_moves(empty_placement(4)) == []


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


# --- raw moves -------------------------------------------------------------------


def test_raw_moves_golden(golden8):
    up = raw_move(golden8, MoveKind.SLIDE_UP, (6, 2))
    assert up == placement(8, [(3, 1), (4, 2), (7, 3), (5, 4), (8, 6)])
    right = raw_move(golden8, MoveKind.SLIDE_RIGHT, (7, 3))
    assert right == placement(8, [(3, 1), (6, 2), (7, 5), (5, 4), (8, 6)])


def test_raw_move_simple_slide():
    assert raw_move(placement(3, [(3, 1)]), MoveKind.SLIDE_RIGHT, (3, 1)) == placement(
        3, [(3, 2)]
    )


def test_raw_move_undefined():
    D = placement(3, [(3, 1)])
    with pytest.raises(UndefinedMove):
        raw_move(D, MoveKind.SLIDE_RIGHT, (2, 1))  # not a rook
    with pytest.raises(UndefinedMove):
        raw_move(placement(2, [(2, 1)]), MoveKind.SLIDE_RIGHT, (2, 1))  # no free column
    with pytest.raises(UndefinedMove):
        raw_move(D, MoveKind.EXCHANGE, (3, 1))  # missing partner
    with pytest.raises(UndefinedMove):
        raw_move(D, MoveKind.SPLIT, (3, 1), (1, 2))  # pivot outside (j, i)


# --- the brute-force oracle ------------------------------------------------------


def test_brute_force_covers_small():
    index = poset_index(3)
    covers = index.lower_covers(placement(3, [(3, 1)]))
    assert covers == [placement(3, [(2, 1), (3, 2)])]
    assert index.lower_covers(empty_placement(3)) == []


def test_brute_force_not_indexed():
    index = poset_index(3)
    with pytest.raises(NotIndexed):
        index.lower_covers(empty_placement(4))


def test_index_relation_agrees_with_leq():
    import random

    index = poset_index(4)
    for a in range(15):
        for b in range(15):
            assert index.le[a, b] == leq(index.placements[a], index.placements[b])
    index = poset_index(5)
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.randrange(52), rng.randrange(52)
        assert index.le[a, b] == leq(index.placements[a], index.placements[b])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_covers_small_boards(n):
    checked, failures = verify_covers(n)
    assert failures == []
    assert checked == bell_number(n)


def test_unremovable_minimal_rooks_are_not_covers():
    for n in range(2, 6):
        index = poset_index(n)
        for D in index.placements:
            minimal, removable = removable_rooks(D)
            covers = index.lower_covers(D)
            for cell in minimal - removable:
                dropped = placement(n, [c for c in D.rooks if c != cell])
                assert leq(dropped, D) and dropped != D
                assert dropped not in covers


# --- maximal element --------------------------------------------------------------


def test_maximal_element_values():
    assert maximal_element(5) == placement(5, [(5, 1), (4, 2)])
    assert maximal_element(1) == empty_placement(1)
    assert maximal_element(6) == placement(6, [(6, 1), (5, 2), (4, 3)])


def test_maximal_element_dominates_everything():
    for n in range(1, 6):
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


def test_order_property_limit():
    for suite in ("cor18", "proctor"):
        with pytest.raises(LimitExceeded):
            run_suite(suite, 7)


# --- DOT export ----------------------------------------------------------------------


def test_hasse_dot_tiny():
    text = hasse_dot(1)
    assert text.count("->") == 0
    assert '"";' in text

    text = hasse_dot(2)
    assert text.count("->") == 1
    assert '"(2,1)" -> "";' in text


def test_hasse_dot_edge_count_matches_oracle():
    index = poset_index(3)
    total = sum(len(index.lower_cover_ids(d)) for d in range(len(index.placements)))
    text = hasse_dot(3, index)
    assert text.count("->") == total
    assert text == hasse_dot(3, index)  # byte-stable


def test_hasse_dot_node_lines():
    text = hasse_dot(3)
    assert text.count(";") >= 5  # one node statement per placement
    assert text.startswith("digraph hasse {")


# --- reports ---------------------------------------------------------------------------


def test_report_json_fields():
    report = run_suite("thm33", 3)
    blob = report.to_json()
    assert set(blob) == {"suite", "n", "checked", "failures", "seed", "millis"}
    json.dumps(blob)  # serializable
    assert isinstance(report, VerificationReport)
