"""Acceptance suite: every criterion at its stated scope, exact arithmetic only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heaviest item is the extended 8-board cover verification.
"""
import time
from fractions import Fraction

from rookposet import (
    Cell,
    bell_number,
    chains,
    cover_moves,
    dimensions,
    enumerate_placements,
    kerov_involution,
    mp_sets,
    per_rook,
    permutation_of,
    placement,
    placement_from_rank_matrix,
    poset_index,
    rank_matrix,
    run_suite,
    verify_covers,
)

from conftest import fraction_coadjoint, upper_samples
from oracles import (
    Scope,
    bruhat_leq,
    diagonal,
    diagonal_normalizer,
    leq,
    placement_form,
    squared_corner,
    tangent_dimension,
)

GOLDEN = [(3, 1), (6, 2), (7, 3), (5, 4), (8, 6)]


def _done(number, name, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_golden_examples(golden8, golden8_rank_table):
    t0 = time.perf_counter()

    assert rank_matrix(golden8) == golden8_rank_table

    per = {col: (m, p) for col, m, p in per_rook(golden8, mp_sets(golden8))}
    assert per[1][0] == {Cell(3, 2)} and per[1][1] == {Cell(2, 1)}
    assert per[2][0] == {Cell(6, 4), Cell(6, 5)}
    assert per[3][0] == {Cell(7, 4), Cell(7, 5), Cell(7, 6)}
    assert per[4][0] == set() and per[6][0] == set()
    assert per[2][1] == {Cell(4, 2), Cell(5, 2)}
    assert per[3][1] == {Cell(4, 3), Cell(5, 3), Cell(6, 3)}

    assert kerov_involution(golden8) == (4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11)

    chain6 = placement(6, [(3, 1), (5, 2), (4, 3), (6, 4)])
    dims = dimensions(chain6, mp_sets(chain6))
    assert dims.dim_theta == 4
    assert dims.length == 10
    assert dims.length - len(chain6.rooks) == 6

    xi = {(3, 1): 2, (6, 2): 3, (7, 3): 5, (5, 4): 7, (8, 6): 11}
    t = diagonal_normalizer(golden8, xi)
    assert t == (1, 1, Fraction(1, 2), 1, Fraction(1, 7), Fraction(1, 3), Fraction(1, 10), Fraction(1, 33))
    assert fraction_coadjoint(diagonal(t), placement_form(golden8, xi)) == placement_form(golden8)

    _done(1, "golden examples", t0, budget=1)


def test_criterion_2_rank_invariance():
    t0 = time.perf_counter()
    report5 = run_suite("thm15", 5, seed=0, samples=100)
    assert report5.passed and report5.checked == 52 * 100
    report8 = run_suite("thm15", 8, seed=0, samples=100)
    assert report8.passed and report8.checked == 50 * 100
    _done(2, "rank-profile invariance", t0, budget=120)


def test_criterion_3_polarization_certification():
    t0 = time.perf_counter()
    total = 0
    for n in range(1, 7):
        report = run_suite("thm24", n, seed=0, samples=3)
        assert report.passed, report.failures[:3]
        total += report.checked
    assert total == sum(bell_number(n) for n in range(1, 7))
    _done(3, "polarization and dimensions", t0, budget=300)


def test_criterion_3_polarization_at_n8():
    # every nonzero scalar choice at once, through the forest-support certificate
    t0 = time.perf_counter()
    report = run_suite("thm24", 8)
    assert report.passed, report.failures[:3]
    assert report.checked == 4140
    _done(3, "polarization and dimensions on the 8-board", t0, budget=120)


def test_criterion_4_cover_relation():
    t0 = time.perf_counter()
    for n in range(1, 8):
        checked, failures = verify_covers(n)
        assert not failures, failures[:3]
        assert checked == bell_number(n)
    assert time.perf_counter() - t0 < 120
    checked, failures = verify_covers(8)
    assert not failures and checked == 4140
    _done(4, "cover relation incl. extended 8-board run", t0, budget=900)


def test_criterion_4_cover_relation_at_n9():
    t0 = time.perf_counter()
    report = run_suite("thm33", 9)
    assert report.passed, report.failures[:3]
    assert report.checked == 21147
    _done(4, "cover relation on the 9-board", t0, budget=300)


def test_criterion_5_order_properties():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for suite in ("cor18", "proctor"):
            report = run_suite(suite, n)
            assert report.passed, report.failures[:3]
    # the named 4-board pairs, asserted directly as well
    chain = placement(4, [(2, 1), (3, 2), (4, 3)])
    orth = placement(4, [(3, 1), (4, 2)])
    assert leq(chain, orth)
    assert not bruhat_leq(permutation_of(chain), permutation_of(orth))
    assert not bruhat_leq(permutation_of(orth), permutation_of(chain))
    low = placement(4, [(3, 2), (4, 3)])
    high = placement(4, [(2, 1), (3, 2)])
    assert rank_matrix(low) != rank_matrix(high)
    assert not leq(low, high) and not leq(high, low)
    _done(5, "order properties", t0, budget=60)


def test_criterion_6_equal_dimension_composite():
    t0 = time.perf_counter()
    low = placement(4, [(3, 2), (4, 3)])
    high = placement(4, [(2, 1), (3, 2)])
    form_high = placement_form(high)
    for b in upper_samples(4, seed=11, count=100):
        assert squared_corner(fraction_coadjoint(b, form_high)) == 0
    assert tangent_dimension(placement_form(low), Scope.BOREL) == 2
    assert tangent_dimension(form_high, Scope.BOREL) == 2
    assert rank_matrix(low) != rank_matrix(high)
    _done(6, "equal-dimension composite", t0, budget=1)


def test_criterion_7_enumeration_and_roundtrip():
    t0 = time.perf_counter()
    expected = [1, 2, 5, 15, 52, 203, 877, 4140]
    for n, count in enumerate(expected, start=1):
        assert len(list(enumerate_placements(n))) == count
    for n in range(1, 8):
        assert run_suite("d0max", n).passed
    for n in range(1, 7):
        for D in enumerate_placements(n):
            assert placement_from_rank_matrix(rank_matrix(D)) == D
    _done(7, "enumeration, maximal element, round-trip", t0)


def test_criterion_8_orthogonal_sharpness():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        for D in enumerate_placements(n):
            if all(len(chain) <= 2 for chain in chains(D)):
                dims = dimensions(D, mp_sets(D))
                assert dims.dim_theta == dims.length - len(D.rooks), D
                checked += 1
    assert checked > 0
    _done(8, f"orthogonal sharpness ({checked} placements)", t0)


def test_criterion_9_guard_regression(golden8):
    t0 = time.perf_counter()
    index = poset_index(8)
    covers = {index.placements[t] for t in index.lower_cover_ids(index.index_of(golden8))}
    produced = {m.result for m in cover_moves(golden8)}
    assert produced == covers

    # the bare slides: (6,2) up to the last free row 4, (7,3) right to the first free column 5
    slid_up = placement(8, [(3, 1), (4, 2), (7, 3), (5, 4), (8, 6)])
    slid_right = placement(8, [(3, 1), (6, 2), (7, 5), (5, 4), (8, 6)])

    for moved in (slid_up, slid_right):
        assert leq(moved, golden8) and moved != golden8
        assert moved not in covers
        assert moved not in produced

    # the intermediate elements are the exchanges of (5,4) with (6,2) and with (7,3)
    between_up = placement(8, [(3, 1), (5, 2), (7, 3), (6, 4), (8, 6)])
    between_right = placement(8, [(3, 1), (6, 2), (5, 3), (7, 4), (8, 6)])
    assert leq(slid_up, between_up) and leq(between_up, golden8)
    assert between_up != slid_up and between_up != golden8
    assert leq(slid_right, between_right) and leq(between_right, golden8)
    assert between_right != slid_right and between_right != golden8
    _done(9, "slide guard regression", t0)
