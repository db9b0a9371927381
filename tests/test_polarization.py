import json
import random
from collections import Counter

from hypothesis import given, settings

from rookposet import Cell, dimensions, enumerate_placements, mp_sets, per_rook, placement, to_json
from rookposet.board import all_lower_cells
from rookposet.cli import run
from rookposet.exactlin import random_scalars
from rookposet import polarization
from rookposet.polarization import (
    SupportCertificate,
    _subalgebra_witness,
    _support_certificate,
    forest_support,
)

from conftest import check_polarization, pairing_rows, placements
from oracles import (
    Scope,
    bracket_row,
    is_forest,
    mark_cells,
    maximum_matching,
    placement_form,
    scaled,
    tangent_dimension,
)


def cells(*pairs):
    return frozenset(Cell(*p) for p in pairs)


def unions(per):
    """M and P: the unions of the per-rook cells that the decoder gives."""
    return frozenset(c for _, m, _ in per for c in m), frozenset(c for _, _, p in per for c in p)


def oracle_marks(D):
    """The row masks of the oracle's mark cells: bit q of entry i for each (i, q) in M."""
    marks = [0] * (D.n + 1)
    for _, m, _ in mark_cells(D):
        for i, q in m:
            marks[i] |= 1 << q
    return tuple(marks)


def test_mp_sets_golden(golden8):
    marks = mp_sets(golden8)
    assert marks == (0, 0, 0, 0b100, 0, 0, 0b110000, 0b1110000, 0)
    data = per_rook(golden8, marks)
    per = {col: (m, p) for col, m, p in data}
    assert per[1] == (cells((3, 2)), cells((2, 1)))
    assert per[2] == (cells((6, 4), (6, 5)), cells((4, 2), (5, 2)))
    assert per[3] == (cells((7, 4), (7, 5), (7, 6)), cells((4, 3), (5, 3), (6, 3)))
    assert per[4] == (frozenset(), frozenset())
    assert per[6] == (frozenset(), frozenset())
    m_cells, p_cells = unions(data)
    assert m_cells == cells((3, 2), (6, 4), (6, 5), (7, 4), (7, 5), (7, 6))
    assert p_cells == cells((2, 1), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3))


def test_mp_sets_empty():
    D = placement(5, [])
    assert mp_sets(D) == (0,) * 6
    assert per_rook(D, mp_sets(D)) == ()


def test_mp_sets_chain6(chain6):
    m_cells, p_cells = unions(per_rook(chain6, mp_sets(chain6)))
    assert m_cells == cells((3, 2), (5, 4))
    assert p_cells == cells((2, 1), (4, 2))


def test_mp_sets_matches_the_cell_oracle():
    for n in range(1, 9):
        for D in enumerate_placements(n):
            marks = mp_sets(D)
            assert marks == oracle_marks(D)
            assert per_rook(D, marks) == mark_cells(D)


@settings(max_examples=50, deadline=None, database=None)
@given(placements())
def test_mp_sets_matches_the_cell_oracle_beyond_enumeration(D):
    marks = mp_sets(D)
    assert marks == oracle_marks(D)
    assert per_rook(D, marks) == mark_cells(D)


def test_marks_extend_the_prefix_marks():
    # the marks of a placement are those of its prefix (the placement without
    # its last rook (i, j) in column order) with only marks[i] changed, so a
    # walk down the enumeration tree can carry them from node to node
    for n in range(1, 10):
        marks = {D.rooks: mp_sets(D) for D in enumerate_placements(n)}
        for rooks, own in marks.items():
            if rooks:
                i = rooks[-1].row
                extended = list(marks[rooks[:-1]])
                extended[i] = own[i]
                assert tuple(extended) == own


def test_mp_per_rook_cardinalities_and_disjointness():
    for n in range(1, 8):
        for D in enumerate_placements(n):
            data = per_rook(D, mp_sets(D))
            m_cells, p_cells = unions(data)
            for _, m, p in data:
                assert len(m) == len(p)
            assert not m_cells & set(D.rooks)
            assert not p_cells & set(D.rooks)
            assert not m_cells & p_cells
            # unions are disjoint across rooks
            assert sum(len(m) for _, m, _ in data) == len(m_cells)
            assert sum(len(p) for _, _, p in data) == len(p_cells)


def test_complement_counts(golden8, chain6):
    def complement(D):
        return frozenset(all_lower_cells(D.n)) - unions(per_rook(D, mp_sets(D)))[0]

    assert len(complement(placement(4, []))) == 6
    assert len(complement(golden8)) == 28 - 6
    assert len(complement(chain6)) == 15 - 2


def test_subalgebra_witness_examples(golden8):
    assert _subalgebra_witness(mp_sets(golden8)) is None
    assert _subalgebra_witness(mp_sets(placement(4, []))) is None
    # no placement has a witness, but the mark set {(3,1)} alone does
    assert _subalgebra_witness((0, 0, 0, 1 << 1)) == (3, 2, 1)


def test_subalgebra_witness_exhaustive():
    for n in range(1, 8):
        for D in enumerate_placements(n):
            assert _subalgebra_witness(mp_sets(D)) is None


def test_dimensions_chain6(chain6):
    dims = dimensions(chain6, mp_sets(chain6))
    assert dims.dim_theta == 4
    assert dims.length == 10
    assert dims.length - len(chain6.rooks) == 6
    assert dims.dim_theta <= dims.length - len(chain6.rooks)
    assert dims.dim_omega == 8


def test_dimensions_empty():
    dims = dimensions(placement(4, []), (0,) * 5)
    assert (dims.dim_theta, dims.dim_omega, dims.length) == (0, 0, 0)


def test_dimensions_golden(golden8):
    dims = dimensions(golden8, mp_sets(golden8))
    assert dims.dim_theta == 12
    assert dims.dim_omega == 17
    assert dims.length == 17


def test_dimension_bounds_exhaustive():
    for n in range(1, 8):
        for D in enumerate_placements(n):
            dims = dimensions(D, mp_sets(D))  # raises BoundViolation on any breach
            assert dims.dim_theta <= dims.length - len(D.rooks)
            assert dims.dim_omega <= dims.length


def test_mp_json_shape(chain6, tmp_path, capsys):
    path = tmp_path / "chain6.json"
    path.write_text(json.dumps(to_json(chain6)))
    assert run(["analyze", str(path), "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)["mp"]
    assert blob["M"] == [[3, 2], [5, 4]]
    assert blob["P"] == [[2, 1], [4, 2]]
    assert blob["per_rook"]["1"] == {"M": [[3, 2]], "P": [[2, 1]]}
    assert blob["per_rook"]["3"] == {"M": [], "P": []}


# --- the scalar-free support certificate ------------------------------------------


def dense_supports(form):
    """Nonzero positions of the dense unipotent and Borel tangent matrices and the pairing."""
    n = len(form)
    int_form = scaled(form)[0]
    cells = all_lower_cells(n)

    def nonzero(keys, rows):
        return {(key, c) for key, row in zip(keys, rows) for c, v in zip(cells, row) if v}

    gens = [Cell(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    diagonal = [Cell(a, a) for a in range(1, n + 1)]
    unipotent = nonzero(gens, [bracket_row(int_form, a, b, cells) for a, b in gens])
    borel = unipotent | nonzero(diagonal, [bracket_row(int_form, a, a, cells) for a, _ in diagonal])
    return unipotent, borel, nonzero(cells, pairing_rows(int_form, cells))


def test_support_certificate_matches_dense_action(monkeypatch):
    # every placement with n <= 6 and 100 seeded ones at n = 7, at unit scalars
    # and at three random draws: the one support the certificate tests is the
    # dense unipotent support, its rows transposed are the dense pairing
    # support and its rows plus the chain edges the dense Borel support, and
    # the Bareiss ranks are its matching, its matching and its matching + |D|
    seen = []
    real = polarization.forest_support
    monkeypatch.setattr(polarization, "forest_support", lambda edges: seen.append(edges) or real(edges))
    chosen = [D for n in range(1, 7) for D in enumerate_placements(n)]
    chosen += random.Random(7).sample(list(enumerate_placements(7)), 100)
    rng = random.Random(24)
    for D in chosen:
        seen.clear()
        cert = _support_certificate(D, mp_sets(D))
        [edges] = seen  # one forest test per placement
        assert len(set(edges)) == len(edges)
        # each cell has at most one edge of each kind: paths and even cycles only
        assert max(Counter(v for edge in edges for v in edge).values(), default=0) <= 2
        assert cert.cycle is None
        unipotent = {(Cell(*divmod(row, D.n + 1)), Cell(*divmod(col, D.n + 1))) for row, col in edges}
        pairing = {(Cell(row.col, row.row), col) for row, col in unipotent}
        borel = unipotent | {(Cell(i, i), rook) for rook in D.rooks for i in rook}
        for scalars in [None] + [random_scalars(D, rng) for _ in range(3)]:
            form = placement_form(D, scalars)
            assert (unipotent, borel, pairing) == dense_supports(form)
            assert cert.matching == tangent_dimension(form, Scope.UNIPOTENT)
            assert cert.matching + len(D.rooks) == tangent_dimension(form, Scope.BOREL)
            clauses = check_polarization(D, scalars)
            assert cert.matching == clauses["maximality"]["witness"]
            assert (cert.isotropy is None) == clauses["isotropy"]["ok"]


def test_support_certificate_golden(golden8):
    cert = _support_certificate(golden8, mp_sets(golden8))
    dims = dimensions(golden8, mp_sets(golden8))
    assert (cert.cycle, cert.matching, cert.isotropy) == (None, 12, None)
    assert dims.dim_omega == 12 + 5 and dims.dim_theta == 12
    assert _support_certificate(placement(3, []), (0,) * 4) == SupportCertificate(None, 0, None)


def test_forest_support_reports_a_cycle():
    # the support of a 2x2 matrix with four nonzeros is a 4-cycle; vertices
    # are the ids i * 4 + j of the cells (1,2), (2,2) (rows), (2,1), (3,1)
    r1, r2, c1, c2 = 6, 10, 9, 13
    cycle, _ = forest_support([(r1, c1), (r1, c2), (r2, c1), (r2, c2)])
    assert cycle == ((r2, c2), (r1, c2), (r1, c1), (r2, c1))
    assert forest_support([(r1, c1), (r1, c2), (r2, c1)]) == (None, 2)
    # a repeated edge is a 2-cycle; a 4-cycle is found beside a separate edge
    assert forest_support([(1, 2), (1, 2)])[0] == ((1, 2), (1, 2))
    assert forest_support([(1, 2), (3, 2), (3, 4), (1, 4), (5, 6)])[0] == ((1, 4), (3, 4), (3, 2), (1, 2))


def is_closed_walk(edges):
    """Whether the edges, in order, can be walked from one end of the first back to it."""
    for start in edges[0]:
        at = start
        for a, b in edges:
            if at not in (a, b):
                break
            at = b if at == a else a
        else:
            if at == start:
                return True
    return False


def test_forest_support_matches_graph_oracles():
    # real supports have no vertex of degree 3 (see _support_certificate), so
    # branching trees come from here: seeded random bipartite graphs on at
    # most 5 rows (ids 0-4) and 5 columns (ids 10-14) with at most 8 edges,
    # repeated edges allowed
    rng = random.Random(26)
    shapes = set()
    for _ in range(3000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        edges = [(rng.randrange(rows), 10 + rng.randrange(cols)) for _ in range(rng.randint(0, 8))]
        cycle, matching = forest_support(edges)
        assert (cycle is None) == is_forest(edges)
        if cycle is None:
            assert matching == maximum_matching(edges)
            branching = max(Counter(v for edge in edges for v in edge).values(), default=0) >= 3
            shapes.add("branching tree" if branching else "paths")
        else:
            assert not Counter(cycle) - Counter(edges)
            assert is_closed_walk(cycle)
            shapes.add("repeated edge" if len(cycle) == 2 else "cycle")
    assert shapes == {"paths", "branching tree", "repeated edge", "cycle"}


def test_isotropy_reports_an_edge_between_complement_cells(golden8):
    # with M taken as empty, every pairing edge joins two complement cells;
    # the first is (k,q)-(p,k) for the first rook (3,1) and k = 2
    assert _support_certificate(golden8, (0,) * 9).isotropy == (Cell(2, 1), Cell(3, 2))


@settings(max_examples=50, deadline=None, database=None)
@given(placements())
def test_support_certificate_beyond_enumeration(D):
    cert = _support_certificate(D, mp_sets(D))
    dims = dimensions(D, mp_sets(D))  # raises BoundViolation on any breach
    assert cert.cycle is None
    assert cert.matching + len(D.rooks) == dims.dim_omega
    assert cert.matching == dims.dim_theta
    assert cert.isotropy is None
    assert dims.dim_theta <= dims.length - len(D.rooks)
    assert dims.dim_omega <= dims.length
