import json
import random

import pytest

from rookposet import (
    Cell,
    chains,
    enumerate_placements,
    from_json,
    inversions,
    kerov_involution,
    permutation_of,
    placement,
    placement_from_rank_matrix,
    rank_matrix,
    to_json,
)
from rookposet.errors import AttackingRooks, BoardTooSmall, OutOfBoard
from fractions import Fraction

import oracles
from oracles import (
    bruhat_leq,
    cell_leq,
    cell_lt,
    diagonal_normalizer,
    involution_placement,
    leq,
    placement_form,
)


# --- validation -------------------------------------------------------------


def test_validate_golden(golden8):
    assert len(golden8.rooks) == 5
    assert [c.col for c in golden8.rooks] == [1, 2, 3, 4, 6]


def test_validate_empty():
    D = placement(4, [])
    assert D.rooks == ()


def test_validate_attacking_row_witness():
    with pytest.raises(AttackingRooks, match=r"^rooks \(3,1\) and \(3,2\) share a row$"):
        placement(4, [(3, 1), (3, 2)])


def test_validate_attacking_column():
    with pytest.raises(AttackingRooks, match=r"^rooks \(3,2\) and \(5,2\) share a column$"):
        placement(5, [(3, 2), (5, 2)])


@pytest.mark.parametrize("cell", [(2, 2), (1, 1), (9, 1), (3, 0), (2, 3)])
def test_validate_out_of_board(cell):
    with pytest.raises(OutOfBoard):
        placement(8, [cell])


def test_validate_bad_board_size():
    with pytest.raises(ValueError):
        placement(0, [])


@pytest.mark.parametrize(
    "n, cells",
    [
        (4, [(3.7, 1)]),
        (4, [("3", 1)]),
        (4, [(3, 1.0)]),
        (4, [(3, True)]),
        (4, ["31"]),
        (4.0, []),
        ("4", []),
        (True, [(2, 1)]),
    ],
)
def test_placement_rejects_non_integers(n, cells):
    # no coercion: placement(4, [(3.7, 1)]) must not quietly become (3,1)
    with pytest.raises(ValueError, match="integer"):
        placement(n, cells)


def test_input_order_is_canonicalized():
    a = placement(6, [(6, 4), (3, 1), (5, 2)])
    b = placement(6, [(3, 1), (5, 2), (6, 4)])
    assert a == b
    assert [c.col for c in a.rooks] == [1, 2, 4]


# --- rank matrices ----------------------------------------------------------


def test_rank_matrix_golden(golden8, golden8_rank_table):
    assert rank_matrix(golden8) == golden8_rank_table


def test_rank_matrix_empty():
    R = rank_matrix(placement(4, []))
    assert all(x == 0 for row in R for x in row)


def _count_sw(D, i, j):
    return sum(1 for p, q in D.rooks if p >= i and q <= j)


def test_rank_matrix_single_rook_corner():
    D = placement(4, [(4, 1)])
    R = rank_matrix(D)
    for i in range(1, 5):
        for j in range(1, 5):
            expected = _count_sw(D, i, j) if i > j else 0
            assert R[i - 1][j - 1] == expected
    assert all(R[i - 1][j - 1] == 1 for i in range(2, 5) for j in range(1, i))


def test_rank_matrix_against_direct_count_oracle():
    rng = random.Random(42)
    pool = [D for n in range(1, 7) for D in enumerate_placements(n)]
    for D in rng.sample(pool, 60):
        R = rank_matrix(D)
        for i in range(1, D.n + 1):
            for j in range(1, D.n + 1):
                expected = _count_sw(D, i, j) if i > j else 0
                assert R[i - 1][j - 1] == expected


def test_rank_matrix_neighbor_steps():
    # steps of 0 or 1 between adjacent cells, both inside the strict lower triangle
    for n in range(1, 6):
        for D in enumerate_placements(n):
            R = rank_matrix(D)
            for i in range(2, n + 1):
                for j in range(1, i):
                    if j > 1:
                        assert R[i - 1][j - 1] - R[i - 1][j - 2] in (0, 1)
                    if i - 1 > j:
                        assert R[i - 2][j - 1] - R[i - 1][j - 1] in (-1, 0, 1)


def test_reconstruction_round_trip_small_boards():
    for n in range(1, 6):
        for D in enumerate_placements(n):
            assert placement_from_rank_matrix(rank_matrix(D)) == D


# --- the partial order ------------------------------------------------------


def test_leq_remark_16iii_pair_is_incomparable():
    # The printed source claims these compare; the rank matrices say otherwise
    # (entry (4,3) is 1 vs 0 one way, entry (2,1) the other way).
    low = placement(4, [(3, 2), (4, 3)])
    high = placement(4, [(2, 1), (3, 2)])
    assert rank_matrix(low) != rank_matrix(high)
    assert not leq(low, high)
    assert not leq(high, low)


def test_leq_reflexive(golden8):
    assert leq(golden8, golden8)


def test_leq_remark_25_pair():
    chain = placement(4, [(2, 1), (3, 2), (4, 3)])
    orth = placement(4, [(3, 1), (4, 2)])
    assert leq(chain, orth)
    assert not leq(orth, chain)


def test_leq_size_mismatch():
    with pytest.raises(ValueError, match="board sizes differ: 3 vs 4"):
        leq(placement(3, []), placement(4, []))


def test_partial_order_axioms_exhaustive():
    for n in range(1, 6):
        everything = list(enumerate_placements(n))
        # antisymmetry via injectivity of the rank matrix
        assert len({rank_matrix(D) for D in everything}) == len(everything)
        le = [[leq(a, b) for b in everything] for a in everything]
        count = len(everything)
        for a in range(count):
            assert le[a][a]
            for b in range(count):
                if le[a][b] and le[b][a]:
                    assert a == b
                if le[a][b]:
                    for c in range(count):
                        if le[b][c]:
                            assert le[a][c]


# --- root order -------------------------------------------------------------


def test_compare_cells():
    assert cell_lt(Cell(5, 4), Cell(6, 2))  # less, hence not greater
    assert not cell_leq(Cell(6, 2), Cell(5, 4))
    assert not cell_leq(Cell(3, 2), Cell(4, 3)) and not cell_leq(Cell(4, 3), Cell(3, 2))
    assert cell_leq(Cell(4, 2), Cell(4, 2)) and not cell_lt(Cell(4, 2), Cell(4, 2))


# --- chains and permutations ------------------------------------------------


def test_chains_golden(golden8):
    assert chains(golden8) == ((1, 3, 7), (2, 6, 8), (4, 5))


def test_chains_empty():
    assert chains(placement(3, [])) == ()


def test_chains_derived(chain6):
    assert chains(chain6) == ((1, 3, 4, 6), (2, 5))


def test_permutation_of(chain6, golden8):
    assert permutation_of(chain6) == (3, 5, 4, 6, 2, 1)
    assert permutation_of(placement(5, [])) == (1, 2, 3, 4, 5)
    assert permutation_of(golden8) == (3, 6, 7, 5, 4, 8, 1, 2)


def test_permutation_matches_transposition_product():
    for n in range(1, 6):
        for D in enumerate_placements(n):
            via_product = oracles.product_of_transpositions(
                n, [(c.row, c.col) for c in D.rooks]
            )
            assert permutation_of(D) == via_product


def test_permutation_support_is_chain_membership():
    for n in range(1, 7):
        for D in enumerate_placements(n):
            w = permutation_of(D)
            for i, j in D.rooks:
                assert w[j - 1] == i
            support = {x for x in range(1, n + 1) if w[x - 1] != x}
            members = {x for chain in chains(D) for x in chain}
            assert support == members


def test_inversions(chain6, golden8):
    assert inversions(permutation_of(chain6)) == 10
    assert inversions((1, 2, 3, 4)) == 0
    assert inversions(permutation_of(golden8)) == 17


# --- Kerov involutions ------------------------------------------------------


def test_kerov_golden(golden8):
    assert kerov_involution(golden8) == (4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11)


def test_kerov_empty_and_single():
    assert kerov_involution(placement(3, [])) == (1, 2, 3, 4)
    assert kerov_involution(placement(4, [(3, 2)])) == (1, 2, 4, 3, 5, 6)


def test_kerov_rejects_unit_board():
    with pytest.raises(BoardTooSmall):
        kerov_involution(placement(1, []))


def test_kerov_is_involution_exhaustive():
    for n in range(2, 7):
        for D in enumerate_placements(n):
            sigma = kerov_involution(D)
            assert oracles.compose(sigma, sigma) == oracles.identity_perm(2 * n - 2)


def test_involution_placement():
    assert involution_placement((1, 2, 3, 4, 5)) == placement(5, [])
    assert involution_placement((1, 2, 4, 3, 5, 6)) == placement(6, [(4, 3)])
    with pytest.raises(ValueError, match=r"^\(2, 3, 1\) is not an involution$"):
        involution_placement((2, 3, 1))


def test_involution_placement_of_kerov(golden8):
    sigma = kerov_involution(golden8)
    expected = placement(14, [(4, 1), (10, 3), (12, 5), (8, 7), (14, 11)])
    assert involution_placement(sigma) == expected


# --- Bruhat comparison ------------------------------------------------------


def test_bruhat_identity_below_everything():
    import itertools

    for w in itertools.permutations(range(1, 5)):
        assert bruhat_leq((1, 2, 3, 4), w)


def test_bruhat_remark_25_incomparable():
    w = permutation_of(placement(4, [(2, 1), (3, 2), (4, 3)]))
    wp = permutation_of(placement(4, [(3, 1), (4, 2)]))
    assert not bruhat_leq(w, wp)
    assert not bruhat_leq(wp, w)


def test_bruhat_kerov_pair_tracks_placement_order():
    # Doubled involutions of the shifted-chain pair: incomparable, matching
    # the incomparability of the placements themselves.
    low = kerov_involution(placement(4, [(3, 2), (4, 3)]))
    high = kerov_involution(placement(4, [(2, 1), (3, 2)]))
    assert not bruhat_leq(low, high)
    assert not bruhat_leq(high, low)


def test_bruhat_cor18_oracle_remark_16iii():
    # Comparison of doubled involutions reduces to the rank matrices of
    # their orthogonal placements.
    low = involution_placement(kerov_involution(placement(4, [(3, 2), (4, 3)])))
    high = involution_placement(kerov_involution(placement(4, [(2, 1), (3, 2)])))
    assert not leq(low, high)
    assert not leq(high, low)


# --- normalizing diagonal ---------------------------------------------------


def test_diagonal_normalizer_golden(golden8):
    xi = {(3, 1): 2, (6, 2): 3, (7, 3): 5, (5, 4): 7, (8, 6): 11}
    t = diagonal_normalizer(golden8, xi)
    assert t == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1),
        Fraction(1, 7),
        Fraction(1, 3),
        Fraction(1, 10),
        Fraction(1, 33),
    )


def test_diagonal_normalizer_empty():
    assert diagonal_normalizer(placement(4, []), {}) == (1, 1, 1, 1)


def test_diagonal_normalizer_single_chain():
    assert diagonal_normalizer(placement(3, [(3, 1)]), {(3, 1): 4}) == (
        1,
        1,
        Fraction(1, 4),
    )


def test_diagonal_normalizer_rejects_zero():
    with pytest.raises(ValueError):
        diagonal_normalizer(placement(3, [(3, 1)]), {(3, 1): 0})


def test_diagonal_normalizer_rejects_wrong_domain():
    with pytest.raises(ValueError):
        diagonal_normalizer(placement(3, [(3, 1)]), {(2, 1): 1})


@pytest.mark.parametrize(
    "scalars",
    [
        {(3.0, 1): 1},
        {(3, True): 1},
        {(3, 1, 0): 1},
        {(3,): 1},
        {"31": 1},
        {31: 1},
        {(3, 1): 0.1},
        {(3, 1): 2.0},
        {(3, 1): True},
        {(3, 1): "1/2"},
        {(3, 1): None},
    ],
)
def test_scalars_reject_non_integer_keys_and_inexact_values(scalars):
    D = placement(3, [(3, 1)])
    with pytest.raises(ValueError):
        diagonal_normalizer(D, scalars)
    with pytest.raises(ValueError):
        placement_form(D, scalars)


def test_scalars_accept_int_fraction_and_cell_keys():
    D = placement(3, [(3, 1)])
    for scalars in ({(3, 1): -2}, {Cell(3, 1): Fraction(-2)}):
        assert diagonal_normalizer(D, scalars) == (1, 1, Fraction(-1, 2))


# --- JSON -------------------------------------------------------------------


def test_json_round_trip(golden8):
    blob = json.dumps(to_json(golden8))
    assert from_json(json.loads(blob)) == golden8


def test_json_accepts_unsorted_rooks():
    D = from_json({"n": 8, "rooks": [[8, 6], [3, 1], [5, 4], [7, 3], [6, 2]]})
    assert [c.col for c in D.rooks] == [1, 2, 3, 4, 6]


def test_json_rejects_missing_keys():
    with pytest.raises(ValueError):
        from_json({"rooks": []})
