import math
import random
from fractions import Fraction

import pytest

from rookposet import enumerate_placements, placement, rank_matrix, rank_profile
from rookposet.exactlin import _integer_action, random_scalars, random_upper
from rookposet.suites import _orbit_profile, _scalar_witness

from conftest import (
    check_polarization,
    corner_rank_profile,
    fraction_bracket_rows,
    fraction_coadjoint,
    fraction_rank,
    kirillov_form,
    matrix_rank,
    upper_samples,
)
from oracles import (
    Scope,
    diagonal,
    diagonal_normalizer,
    integer_rank,
    placement_form,
    scaled,
    squared_corner,
    tangent_dimension,
    zeros,
)


def random_rational(rng, bound=3):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound + 1))


def random_lower_form(rng, n):
    """A strictly lower rational form with zero rows, zero columns and dependent rows."""
    density = rng.random()
    form = zeros(n)
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                form[i][j] = random_rational(rng)
    for _ in range(rng.randint(0, 2)):
        k = rng.randrange(n)
        for j in range(k):
            form[k][j] = Fraction(0)  # a zero row
        for i in range(k + 1, n):
            form[i][k] = Fraction(0)  # a zero column
    for _ in range(rng.randint(0, 2)):
        if n >= 3:
            i, k = sorted(rng.sample(range(1, n), 2))
            a, c = random_rational(rng), random_rational(rng)
            for j in range(i):  # row i depends on rows k and n-1 below it
                form[i][j] = a * form[k][j] + c * form[n - 1][j]
    return form


def unit(n):
    """The n x n identity in ints, a group element for the integer kernel."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def int_product(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def form_entries(form):
    """The nonzero entries (r, c, v), 0-based, of a strictly lower integer form."""
    return [(r, c, v) for r, row in enumerate(form) for c, v in enumerate(row[:r]) if v]


# --- forms -------------------------------------------------------------------


def test_placement_form_golden(golden8):
    form = placement_form(golden8)
    hits = {(i + 1, j + 1) for i in range(8) for j in range(8) if form[i][j] != 0}
    assert hits == {(3, 1), (6, 2), (7, 3), (5, 4), (8, 6)}
    assert all(form[i - 1][j - 1] == 1 for i, j in hits)


def test_placement_form_empty():
    assert placement_form(placement(3, [])) == zeros(3)


def test_placement_form_scalar():
    for value in (Fraction(5, 2), (5, 2), (-10, -4)):
        form = placement_form(placement(4, [(3, 2)]), {(3, 2): value})
        assert form[2][1] == Fraction(5, 2)
        assert sum(1 for row in form for x in row if x != 0) == 1


# --- coadjoint ---------------------------------------------------------------


def test_coadjoint_identity(golden8):
    form = scaled(placement_form(golden8))[0]
    assert _integer_action(unit(8), form_entries(form)) == form


def test_coadjoint_normalizes_scaled_form(golden8):
    xi = {(3, 1): 2, (6, 2): 3, (7, 3): 5, (5, 4): 7, (8, 6): 11}
    t = diagonal_normalizer(golden8, xi)
    assert fraction_coadjoint(diagonal(t), placement_form(golden8, xi)) == placement_form(golden8)


def test_coadjoint_normalizer_sweep():
    rng = random.Random(5)
    for n in range(1, 6):
        for D in enumerate_placements(n):
            for _ in range(20):
                xi = random_scalars(D, rng)
                t = diagonal_normalizer(D, xi)
                assert fraction_coadjoint(diagonal(t), placement_form(D, xi)) == placement_form(D)


def test_coadjoint_is_group_action():
    # both sides are det(b1)·det(b2) times the action of b1·b2: the strict
    # lower part of b1·X·b1^{-1} does not see the upper part of X
    samples = upper_samples(5, seed=7, count=100)
    D = placement(5, [(3, 1), (5, 2), (4, 3)])
    entries = form_entries(scaled(placement_form(D))[0])
    for k in range(0, 100, 2):
        b1, b2 = samples[k], samples[k + 1]
        inner = _integer_action(b2, entries)
        outer = _integer_action(b1, form_entries(inner))
        assert _integer_action(int_product(b1, b2), entries) == outer


def test_coadjoint_accepts_integer_and_negative_diagonal_matrices():
    b = [[-2, 1, 0], [0, 3, -1], [0, 0, -1]]
    form = scaled(placement_form(placement(3, [(3, 1)]), {(3, 1): -3}))[0]
    lower = _integer_action(b, form_entries(form))
    assert lower == [[6 * x for x in row] for row in fraction_coadjoint(b, form)]  # 6 = det(b)


def test_integer_action_matches_fraction_oracle():
    # dense integer forms, then every one-entry form for n <= 8 under three B
    # draws, so each rank-one term, with its adjugate row c and its stop
    # column r, is checked alone; B's diagonal takes both signs, so det(B) < 0
    # occurs in both kinds
    rng = random.Random(29)

    def draw_b(n):
        big_b = [[0] * n for _ in range(n)]
        for i in range(n):
            big_b[i][i] = rng.choice((-1, 1)) * rng.randint(1, 4)
            for j in range(i + 1, n):
                big_b[i][j] = rng.randint(-4, 4)
        return big_b

    def negative_det(big_b, form):
        n = len(form)
        entries = [(r, c, v) for r, row in enumerate(form) for c, v in enumerate(row) if v]
        lower = _integer_action(big_b, entries)
        det = math.prod(big_b[i][i] for i in range(n))
        assert lower == [[det * x for x in row] for row in fraction_coadjoint(big_b, form)]
        assert all(type(x) is int for row in lower for x in row)
        return det < 0

    negative = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        big_b = draw_b(n)
        form = [[rng.randint(-5, 5) if j < i else 0 for j in range(n)] for i in range(n)]
        negative += negative_det(big_b, form)
    assert negative > 50
    negative = 0
    for n in range(2, 9):
        for r in range(n):
            for c in range(r):
                for _ in range(3):
                    v = rng.choice((-1, 1)) * rng.randint(1, 5)
                    form = [[v if (i, j) == (r, c) else 0 for j in range(n)] for i in range(n)]
                    negative += negative_det(draw_b(n), form)
    assert negative > 50


def test_orbit_profile_matches_fraction_path():
    # the thm15 suite's integer profile against the Fraction action it replaces
    rng = random.Random(31)
    cases = [(D, 5) for n in range(1, 6) for D in enumerate_placements(n)]
    cases += [(D, 1) for D in rng.sample(list(enumerate_placements(8)), 100)]
    for D, count in cases:
        for _ in range(count):
            xi = random_scalars(D, rng)
            b = random_upper(D.n, rng)
            expected = rank_profile(scaled(fraction_coadjoint(b, placement_form(D, xi)))[0])
            assert _orbit_profile(b, xi) == expected == [list(row) for row in rank_matrix(D)]


def test_form_validation():
    with pytest.raises(ValueError, match="^form must be strictly lower-triangular$"):
        rank_profile(unit(3))
    with pytest.raises(ValueError, match="^form must be a square matrix$"):
        rank_profile([[0, 0], [1]])
    # the engine takes integer forms only: a rational one is scaled first (oracles.scaled)
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError, match="^form entries must be integers, got "):
            rank_profile([[0, 0, 0], [1, 0, 0], [2, bad, 0]])


# --- rank profile ------------------------------------------------------------


def test_rank_profile_golden(golden8, golden8_rank_table):
    profile = rank_profile(scaled(placement_form(golden8))[0])
    assert tuple(tuple(r) for r in profile) == golden8_rank_table


def test_rank_profile_zero_form():
    assert rank_profile([[0] * 5 for _ in range(5)]) == [[0] * 5 for _ in range(5)]


def test_rank_profile_orbit_invariance_sampled():
    rng = random.Random(3)
    for D in enumerate_placements(4):
        expected = [list(row) for row in rank_matrix(D)]
        for k in range(20):
            xi = random_scalars(D, rng)
            b = random_upper(4, random.Random(100 + k))
            assert rank_profile(scaled(fraction_coadjoint(b, placement_form(D, xi)))[0]) == expected


def test_rank_profile_matches_corner_oracle_on_orbit_samples():
    rng = random.Random(17)
    everything = list(enumerate_placements(8))
    for b in upper_samples(8, seed=19, count=1000):
        D = rng.choice(everything)
        form, _ = scaled(placement_form(D, random_scalars(D, rng)))
        lam = _integer_action(b, form_entries(form))  # a multiple of the orbit form: same corner ranks
        profile = rank_profile(lam)
        assert profile == corner_rank_profile(lam)
        assert profile == [list(row) for row in rank_matrix(D)]


def test_rank_profile_matches_corner_oracle_on_random_forms():
    rng = random.Random(23)
    full = deficient = 0
    for k in range(2000):
        n = 1 + k % 9
        form = random_lower_form(rng, n)
        profile = rank_profile(scaled(form)[0])
        assert profile == corner_rank_profile(form)
        if k % 4 == 0:  # the same form scaled to ints by hand, which rank_profile leaves as it was
            scale = math.lcm(*(x.denominator for row in form for x in row))
            ints = [[int(x * scale) for x in row] for row in form]
            copy = [row[:] for row in ints]
            assert rank_profile(ints) == corner_rank_profile(ints) == profile
            assert ints == copy
        if n > 1:  # the largest corner, rows 2..n by columns 1..n-1
            full += profile[1][n - 2] == n - 1
            deficient += profile[1][n - 2] < n - 1
    assert full > 20 and deficient > 1000


# --- orbit dimensions ----------------------------------------------------------


def test_tangent_dimension_chain6(chain6):
    form = placement_form(chain6)
    assert tangent_dimension(form, Scope.UNIPOTENT) == 4
    assert tangent_dimension(form, Scope.BOREL) == 8


def test_tangent_dimension_zero_form():
    assert tangent_dimension(zeros(4), Scope.UNIPOTENT) == 0
    assert tangent_dimension(zeros(4), Scope.BOREL) == 0


def test_tangent_dimension_matches_fraction_rank():
    rng = random.Random(29)
    for n in range(1, 6):
        for D in enumerate_placements(n):
            form = placement_form(D, random_scalars(D, rng))
            for scope in Scope:
                assert tangent_dimension(form, scope) == fraction_rank(
                    fraction_bracket_rows(form, scope)
                )
    for _ in range(100):
        form = random_lower_form(rng, rng.randint(1, 6))
        for scope in Scope:
            assert tangent_dimension(form, scope) == fraction_rank(fraction_bracket_rows(form, scope))


# --- skew pairing --------------------------------------------------------------


def test_kirillov_form_zero():
    sf = kirillov_form(zeros(3))
    assert all(x == 0 for row in sf.entries for x in row)
    assert sf.rank() == 0


def test_kirillov_form_single_rook():
    sf = kirillov_form(placement_form(placement(3, [(3, 1)])))
    assert sf.rank() == 2
    # basis is column-major: (2,1), (3,1), (3,2)
    assert [tuple(c) for c in sf.cells] == [(2, 1), (3, 1), (3, 2)]
    idx = {tuple(c): k for k, c in enumerate(sf.cells)}
    assert sf.entries[idx[(2, 1)]][idx[(3, 2)]] == 1
    assert sf.entries[idx[(3, 2)]][idx[(2, 1)]] == -1


def test_kirillov_rank_equals_unipotent_dimension():
    rng = random.Random(9)
    for n in range(1, 6):
        for D in enumerate_placements(n):
            for _ in range(3):
                xi = random_scalars(D, rng)
                form = placement_form(D, xi)
                assert kirillov_form(form).rank() == tangent_dimension(form, Scope.UNIPOTENT)


def test_kirillov_rank_matches_fraction_rank():
    rng = random.Random(31)
    for n in range(1, 6):
        for D in enumerate_placements(n):
            xi = random_scalars(D, rng)
            sf = kirillov_form(placement_form(D, xi))
            expected = fraction_rank(sf.entries)
            assert sf.rank() == expected
            assert check_polarization(D, xi)["maximality"]["witness"] == expected
    for _ in range(100):
        sf = kirillov_form(random_lower_form(rng, rng.randint(1, 6)))
        assert sf.rank() == fraction_rank(sf.entries)


def test_skew_symmetry():
    form = placement_form(placement(4, [(4, 1), (3, 2)]))
    sf = kirillov_form(form)
    m = len(sf.cells)
    for a in range(m):
        for b in range(m):
            assert sf.entries[a][b] == -sf.entries[b][a]


# --- polarization checks --------------------------------------------------------


def test_check_polarization_golden(golden8):
    report = check_polarization(golden8)
    assert all(clause["ok"] for clause in report.values())
    assert set(report) == {
        "isotropy",
        "codimension",
        "maximality",
        "subalgebra",
    }


def test_check_polarization_empty():
    report = check_polarization(placement(4, []))
    assert all(clause["ok"] for clause in report.values())
    assert report["codimension"]["witness"] == 6  # whole lower triangle, codimension zero


def test_check_polarization_chain6(chain6):
    xi = {(3, 1): 2, (5, 2): 3, (4, 3): 5, (6, 4): 7}
    report = check_polarization(chain6, xi)
    assert all(clause["ok"] for clause in report.values())
    assert report["codimension"]["witness"] == 15 - 2


# --- sampling -------------------------------------------------------------------


def test_sample_borel_pinned():
    # one draw pinned, so the order of the randint calls cannot drift
    assert random_upper(4, random.Random(2024)) == [
        [3, 0, -2, 2],
        [0, 2, 1, -1],
        [0, 0, 3, -2],
        [0, 0, 0, 2],
    ]
    assert all(type(x) is int for row in random_upper(5, random.Random(1)) for x in row)


def test_sample_borel_deterministic():
    first = random_upper(5, random.Random(123))
    assert first == random_upper(5, random.Random(123))
    a = upper_samples(5, seed=123, count=10)
    b = upper_samples(5, seed=123, count=10)
    assert a == b


def test_sample_borel_always_invertible():
    for mat in upper_samples(4, seed=2, count=1000):
        for i in range(4):
            assert mat[i][i] != 0
            for j in range(i):
                assert mat[i][j] == 0


def test_random_scalars_are_the_fraction_draws_in_lowest_terms():
    # the same randint, randint, choice draws as Fraction(sign * num, den), so
    # every sample stays the same; the witness prints what str(Fraction) did
    seen = set()
    for D in enumerate_placements(5):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            xi = random_scalars(D, rng)
            expected = {}
            for cell in D.rooks:
                num, den = ref.randint(1, 3), ref.randint(1, 3)
                expected[cell] = Fraction(ref.choice((1, -1)) * num, den)
            assert xi == {c: (v.numerator, v.denominator) for c, v in expected.items()}
            assert rng.random() == ref.random()  # no draw more or less
            assert _scalar_witness(xi) == {f"({c.row},{c.col})": str(v) for c, v in expected.items()}
            seen.update(expected.values())
    assert seen == {Fraction(s * a, b) for s in (1, -1) for a in (1, 2, 3) for b in (1, 2, 3)}


# --- the 4-board quadratic -------------------------------------------------------


def test_squared_corner_vanishes_at_base_point():
    assert squared_corner(placement_form(placement(4, [(2, 1), (3, 2)]))) == 0


def test_squared_corner_vanishes_on_orbit_samples():
    form = placement_form(placement(4, [(2, 1), (3, 2)]))
    for b in upper_samples(4, seed=11, count=100):
        assert squared_corner(fraction_coadjoint(b, form)) == 0


def test_squared_corner_nonzero():
    assert squared_corner(placement_form(placement(4, [(4, 2), (2, 1)]))) == 1


def test_squared_corner_wrong_size():
    with pytest.raises(ValueError, match="^defined only on the 4-board, got n=5$"):
        squared_corner(zeros(5))


# --- rank kernels ----------------------------------------------------------------


def test_integer_rank_agrees_with_fraction_rank():
    rng = random.Random(77)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(mat) == fraction_rank([[Fraction(x) for x in r] for r in mat])


def test_matrix_rank_with_denominators():
    mat = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(2)],
    ]
    assert matrix_rank(mat) == 2  # determinant 1/2
    mat[1] = [x * 3 for x in mat[0]]
    assert matrix_rank(mat) == 1
