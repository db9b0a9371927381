import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rookposet
from rookposet import (
    Cell,
    cli,
    from_json,
    permutation_of,
    placement,
    polarization,
    poset,
    suites,
    to_json,
)
from rookposet.cli import run
from rookposet.errors import AttackingRooks


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(
        json.dumps({"n": 8, "rooks": [[3, 1], [6, 2], [7, 3], [5, 4], [8, 6]]})
    )
    return str(path)


def test_analyze_text(golden_file, capsys):
    assert run(["analyze", golden_file]) == 0
    out = capsys.readouterr().out
    assert "0 1 2 3 0 0 0 0" in out  # fifth row of the rank matrix
    assert "[3, 6, 7, 5, 4, 8, 1, 2]" in out
    assert "length l(w): 17" in out
    assert "dim theta = 2|M| = 12" in out
    assert "dim omega = 2|M| + |D| = 17" in out
    assert "[4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11]" in out


def test_analyze_json_round_trips(golden_file, capsys):
    assert run(["analyze", golden_file, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert from_json(blob).n == 8  # output parses as a placement again
    assert blob["dim_theta"] == 12
    assert blob["mp"]["M"] == [[3, 2], [6, 4], [6, 5], [7, 4], [7, 5], [7, 6]]
    assert blob["kerov_involution"] == [4, 2, 10, 1, 12, 6, 8, 7, 9, 3, 14, 5, 13, 11]


def test_analyze_deterministic(golden_file, capsys):
    run(["analyze", golden_file, "--json"])
    first = capsys.readouterr().out
    run(["analyze", golden_file, "--json"])
    assert capsys.readouterr().out == first


def test_covers_with_brute_force(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 3, "rooks": [[3, 1]]}))
    assert run(["covers", str(path), "--brute-force"]) == 0
    out = capsys.readouterr().out
    assert "exact match" in out
    assert "split" in out


def test_covers_json(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 4, "rooks": [[4, 1]]}))
    assert run(["covers", str(path), "--json", "--brute-force"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["brute_force_match"] is True
    assert len(blob["covers"]) == 2
    kinds = {c["kind"] for c in blob["covers"]}
    assert kinds == {"split"}


def test_covers_brute_force_reports_a_missing_move(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 4, "rooks": [[4, 1]]}))
    real = cli.cover_moves
    dropped = real(placement(4, [(4, 1)]))[0]
    monkeypatch.setattr(cli, "cover_moves", lambda D: real(D)[1:])
    assert run(["covers", str(path), "--brute-force", "--json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["brute_force_match"] is False
    assert blob["discrepancy"] == {"missing": [to_json(dropped.result)], "extra": []}
    assert run(["covers", str(path), "--brute-force"]) == 1
    assert "brute-force oracle: MISMATCH" in capsys.readouterr().out


def test_covers_huge_board_is_input_error(tmp_path, capsys):
    # rejected before the split scan walks the indices between column 1 and row n
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**5, "rooks": [[10**5, 1]]}))
    assert run(["covers", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: covers supports n <= {cli.ANALYZE_LIMIT}, got 100000\n"


def test_covers_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ANALYZE_LIMIT", 5)
    for n, code in [(5, 0), (6, 2)]:
        path = tmp_path / f"b{n}.json"
        path.write_text(json.dumps({"n": n, "rooks": [[3, 1]]}))
        assert run(["covers", str(path), "--json"]) == code
    assert capsys.readouterr().err == "error: covers supports n <= 5, got 6\n"


def test_hasse_and_brute_force_covers_match_golden(tmp_path, capsys):
    # captured before the index moved to packed bitsets: same edges, same order
    data = Path(__file__).parent / "data"
    out_path = tmp_path / "h.dot"
    assert run(["hasse", "--n", "5", "-o", str(out_path)]) == 0
    assert out_path.read_bytes() == (data / "hasse5.dot").read_bytes()
    capsys.readouterr()
    for case in json.loads((data / "covers6_brute_force.json").read_text()):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 6, "rooks": case["rooks"]}))
        assert run(["covers", str(path), "--brute-force", "--json"]) == 0
        assert capsys.readouterr().out == case["stdout"]


def test_verify_pass(capsys):
    assert run(["verify", "--n", "3", "--suite", "thm33"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "checked 5" in out


def test_verify_all_small(capsys):
    assert run(["verify", "--n", "2", "--suite", "all", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("thm15", "thm24", "thm33", "cor18", "proctor", "d0max", "counts"):
        assert name in out


def test_verify_json_report(capsys):
    assert run(["verify", "--n", "3", "--suite", "counts", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["suite"] == "counts"
    assert reports[0]["checked"] == 5
    assert reports[0]["failures"] == []
    assert set(reports[0]) == {"suite", "n", "checked", "failures", "seed", "millis"}


@pytest.mark.parametrize("n", ["0", "11"])
@pytest.mark.parametrize("suite", list(suites.SUITES))
def test_verify_limit_is_usage_error(suite, n, capsys):
    assert run(["verify", "--n", n, "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_broken_move_is_verification_failure(monkeypatch, capsys):
    # a move that raises inside the thm33 sweep is a failed check (exit 1) with
    # the error as its witness, not an input error (exit 2)
    real = poset._steps
    broken_on = placement(3, [(3, 1)])

    def steps(D):
        if D == broken_on:
            raise AttackingRooks(Cell(3, 1), Cell(3, 2), "row")
        return real(D)

    monkeypatch.setattr(poset, "_steps", steps)
    assert run(["verify", "--n", "3", "--suite", "thm33", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [report] = json.loads(captured.out)
    assert report["checked"] == 5
    assert report["failures"] == [
        {"placement": {"n": 3, "rooks": [[3, 1]]}, "error": "rooks (3,1) and (3,2) share a row"}
    ]


def test_extra_move_is_verification_failure(monkeypatch, capsys):
    # a valid step to a placement below D that is not a cover is an extra result
    real = poset._steps
    target = placement(3, [(3, 1)])
    below = placement(3, [(2, 1)])  # under (2,1)(3,2), the one cover of (3,1)

    def steps(D):
        yield from real(D)
        if D == target:
            yield poset._key(below)

    monkeypatch.setattr(poset, "_steps", steps)
    assert run(["verify", "--n", "3", "--suite", "thm33", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [report] = json.loads(captured.out)
    assert report["checked"] == 5
    assert report["failures"] == [
        {"placement": {"n": 3, "rooks": [[3, 1]]}, "missing": [], "extra": [{"n": 3, "rooks": [[2, 1]]}]}
    ]


def test_repeated_step_is_not_a_failure(monkeypatch, capsys):
    # a step emitted twice reaches one cover: the position-space match fails
    # on the repeat, and the set difference of the ids passes it
    real = poset._steps

    def steps(D):
        found = real(D)
        return found + found[:1]

    monkeypatch.setattr(poset, "_steps", steps)
    assert run(["verify", "--n", "4", "--suite", "thm33", "--json"]) == 0
    [report] = json.loads(capsys.readouterr().out)
    assert (report["checked"], report["failures"]) == (15, [])


def test_order_suites_report_planted_faults(monkeypatch, capsys):
    # swapping two doubled involutions breaks cor18 both ways; lifting two
    # attached permutations breaks proctor; witnesses come row-major in (a, b)
    real_sigma, real_w = suites.kerov_involution, suites.permutation_of
    low, high, top = placement(4, [(2, 1)]), placement(4, [(4, 3)]), placement(4, [(4, 2)])
    swap = {low: high, high: low}
    lift = {placement(4, [(3, 2)]): top, high: top}
    monkeypatch.setattr(suites, "kerov_involution", lambda D: real_sigma(swap.get(D, D)))
    monkeypatch.setattr(suites, "permutation_of", lambda D: real_w(lift.get(D, D)))

    def failures(suite):
        assert run(["verify", "--suite", suite, "--n", "4", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        [report] = json.loads(captured.out)
        assert report["checked"] == 225
        return report["failures"]

    def rooks(*cells):
        return {"n": 4, "rooks": [list(c) for c in cells]}

    assert failures("cor18") == [
        {"first": rooks(*a), "second": rooks(*b), "placement_leq": le, "involution_leq": not le}
        for a, b, le in [
            (((2, 1),), ((2, 1), (3, 2)), True),
            (((2, 1),), ((3, 1),), True),
            (((2, 1),), ((3, 2), (4, 3)), False),
            (((2, 1),), ((4, 2),), False),
            (((4, 3),), ((2, 1), (3, 2)), False),
            (((4, 3),), ((3, 1),), False),
            (((4, 3),), ((3, 2), (4, 3)), True),
            (((4, 3),), ((4, 2),), True),
        ]
    ]
    assert failures("proctor") == [
        {"smaller": rooks(*a), "larger": rooks(*b)}
        for a, b in [
            (((3, 2),), ((4, 3),)),
            (((3, 2), (4, 3)), ((3, 2),)),
            (((3, 2), (4, 3)), ((4, 3),)),
            (((4, 2),), ((3, 2),)),
            (((4, 2),), ((4, 3),)),
            (((4, 3),), ((3, 2),)),
        ]
    ]


def test_d0max_reports_planted_fault(monkeypatch, capsys):
    # a low top leaves ten placements above it or beside it; each is a
    # witness with that top, in enumeration order
    low = placement(4, [(3, 1)])
    monkeypatch.setattr(suites, "maximal_element", lambda n: low)
    assert run(["verify", "--suite", "d0max", "--n", "4", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [report] = json.loads(captured.out)
    assert report["checked"] == 15
    assert report["failures"] == [
        {"placement": {"n": 4, "rooks": [list(c) for c in cells]}, "top": {"n": 4, "rooks": [[3, 1]]}}
        for cells in [
            ((2, 1), (3, 2), (4, 3)),
            ((2, 1), (4, 2)),
            ((2, 1), (4, 3)),
            ((3, 1), (4, 2)),
            ((3, 1), (4, 3)),
            ((3, 2), (4, 3)),
            ((4, 1),),
            ((4, 1), (3, 2)),
            ((4, 2),),
            ((4, 3),),
        ]
    ]


def test_d0max_compares_every_entry(monkeypatch, capsys):
    # one placement's points name column 5 in rows 1 and 4, so its table
    # reads 2 at (4, 5), one above the top's and at or below it elsewhere;
    # the top has no essential cell, so only a comparison at every cell of
    # the band finds it
    real = suites._rank_points
    planted = placement(5, [(2, 1), (3, 2), (4, 3)])

    def rank_points(D):
        points = real(D)
        if D == planted:
            points[0] = 5
        return points

    monkeypatch.setattr(suites, "_rank_points", rank_points)
    assert run(["verify", "--suite", "d0max", "--n", "5", "--json"]) == 1
    [report] = json.loads(capsys.readouterr().out)
    assert report["checked"] == 52
    assert report["failures"] == [{"placement": to_json(planted), "top": to_json(poset.maximal_element(5))}]


def test_exhaustive_suites_leave_numpy_unloaded(tmp_path):
    # numpy serves only the dense views PosetIndex.le and .covers; the CLI
    # and every suite, cor18 and proctor included, never load it, and
    # neither do the one-board brute force and the Hasse diagram
    board = tmp_path / "board.json"
    board.write_text(json.dumps({"n": 6, "rooks": [[6, 1], [4, 2]]}))
    code = textwrap.dedent(
        f"""
        import contextlib, io, sys
        from rookposet import cli, poset
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["verify", "--suite", "all", "--n", "6", "--samples", "2"]) == 0
            for suite in ("cor18", "proctor"):
                assert cli.run(["verify", "--suite", suite, "--n", "8"]) == 0, suite
            assert cli.run(["covers", {str(board)!r}, "--brute-force"]) == 0
            assert cli.run(["hasse", "--n", "6", "-o", {str(tmp_path / "hasse6.dot")!r}]) == 0
        assert "numpy" not in sys.modules
        assert int(poset.poset_index(5).le.sum()) == 932
        assert "numpy" in sys.modules
        """
    )
    src = str(Path(rookposet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_dataclasses_unloaded():
    # the records are NamedTuples, so importing the CLI loads neither
    # dataclasses nor what it pulls in (inspect, ast, dis, tokenize); the rook
    # scalars are pairs of ints, so it loads neither fractions nor what that
    # pulls in (decimal, numbers)
    code = textwrap.dedent(
        """
        import sys
        import rookposet.cli
        loaded = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers"}
        print(sorted(loaded & set(sys.modules)))
        """
    )
    src = str(Path(rookposet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


THM24_TARGET = placement(4, [(3, 1), (4, 2)])
THM24_TARGET_JSON = {"n": 4, "rooks": [[3, 1], [4, 2]]}


def test_cyclic_support_is_verification_failure(monkeypatch, capsys):
    # a support that is not a forest proves nothing about the ranks: thm24
    # fails (exit 1) with the cycle as its witness, reported once, and reports
    # nothing read off the leaf-pruning matching, which on a cycle is too small

    def ids(*edges):  # cell (i, j) has id i * 5 + j on the 4-board
        return [(a * 5 + b, c * 5 + d) for (a, b), (c, d) in edges]

    # the target's support is the paths (2,1)-(2,3)-(4,3) and (1,2)-(3,2)-(3,4);
    # joining the rows (1,2) and (3,4) to the column (2,1) closes a 4-cycle
    target = ids(((2, 3), (2, 1)), ((1, 2), (3, 2)), ((3, 4), (3, 2)), ((2, 3), (4, 3)))
    extra = ids(((1, 2), (2, 1)), ((3, 4), (2, 1)))
    real = polarization.forest_support
    monkeypatch.setattr(
        polarization, "forest_support", lambda edges: real(edges + extra if edges == target else edges)
    )
    assert run(["verify", "--suite", "thm24", "--n", "4", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [report] = json.loads(captured.out)
    assert report["checked"] == 15
    assert report["failures"] == [
        {
            "placement": THM24_TARGET_JSON,
            "check": "forest",
            "support": "unipotent",
            "cycle": [[[3, 4], [2, 1]], [[1, 2], [2, 1]], [[1, 2], [3, 2]], [[3, 4], [3, 2]]],
        },
    ]
    assert run(["verify", "--suite", "thm24", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL (1 failures)" in out and '"cycle"' in out
    # the clauses that need no rank are still checked: M = {(3,1)} breaks two
    # (see test_thm24_reports_failed_clauses), and only they are reported
    real_mp = suites.mp_sets
    fake = (0, 0, 0, 1 << 1, 0)  # M = {(3,1)}
    monkeypatch.setattr(suites, "mp_sets", lambda D: fake if D == THM24_TARGET else real_mp(D))
    failures = failure_list(["verify", "--suite", "thm24", "--n", "4"], capsys)
    assert [f.get("check") for f in failures] == ["forest", None]
    assert failures[1] == {
        "placement": THM24_TARGET_JSON,
        "clauses": {
            "isotropy": {"ok": False, "witness": [[2, 1], [3, 2]]},
            "codimension": {"ok": True, "witness": 5},
            "subalgebra": {"ok": False, "witness": [3, 2, 1]},
        },
    }


def failure_list(argv, capsys):
    """The failures of the one report ``verify --json`` prints for argv, which must exit 1."""
    assert run(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [report] = json.loads(captured.out)
    return report["failures"]


def test_thm24_reports_raised_matchings(monkeypatch, capsys):
    # the target's support claims one matched edge too many, and with it the
    # pairing and the Borel tangent
    real = suites._support_certificate

    def support_certificate(D, marks):
        cert = real(D, marks)
        return cert._replace(matching=cert.matching + 1) if D == THM24_TARGET else cert

    monkeypatch.setattr(suites, "_support_certificate", support_certificate)
    assert failure_list(["verify", "--suite", "thm24", "--n", "4"], capsys) == [
        {
            "placement": THM24_TARGET_JSON,
            "check": "borel-dimension",
            "tangent": 5,
            "expected": 4,
            "length": 4,
        },
        {
            "placement": THM24_TARGET_JSON,
            "clauses": {
                "isotropy": {"ok": True, "witness": None},
                "codimension": {"ok": True, "witness": 5},
                "maximality": {"ok": False, "witness": 3},
                "subalgebra": {"ok": True, "witness": None},
            },
        },
        {"placement": THM24_TARGET_JSON, "check": "unipotent-dimension", "tangent": 3, "expected": 2},
    ]


def test_thm24_reports_a_bound_violation(monkeypatch, capsys):
    real, w = polarization.inversions, permutation_of(THM24_TARGET)
    monkeypatch.setattr(polarization, "inversions", lambda v: 0 if v == w else real(v))
    assert failure_list(["verify", "--suite", "thm24", "--n", "4"], capsys) == [
        {
            "placement": THM24_TARGET_JSON,
            "bound_violation": "dimension bound violated for (3,1)(4,2): 2|M|=2, |D|=2, l(w)=0",
        }
    ]


def test_thm24_reports_failed_clauses(monkeypatch, capsys):
    # with M = {(3,1)} in place of {(3,2)}, the pairing edge (2,1)-(3,2) joins two
    # complement cells, and [e(3,2), e(2,1)] lands on (3,1) in M
    real = suites.mp_sets
    fake = (0, 0, 0, 1 << 1, 0)  # M = {(3,1)}
    monkeypatch.setattr(suites, "mp_sets", lambda D: fake if D == THM24_TARGET else real(D))
    assert failure_list(["verify", "--suite", "thm24", "--n", "4"], capsys) == [
        {
            "placement": THM24_TARGET_JSON,
            "clauses": {
                "isotropy": {"ok": False, "witness": [[2, 1], [3, 2]]},
                "codimension": {"ok": True, "witness": 5},
                "maximality": {"ok": True, "witness": 2},
                "subalgebra": {"ok": False, "witness": [3, 2, 1]},
            },
        }
    ]


def test_thm24_reports_a_failed_codimension(monkeypatch, capsys):
    # with M = {(3,3)}, a diagonal cell, in place of {(3,2)}: the complement
    # misses no lower cell, so it keeps all 6, and the pairing edge
    # (2,1)-(3,2) joins two complement cells; |M| is still 1, so the rank 2
    # is maximal, and no lower cell of M breaks the subalgebra
    real = suites.mp_sets
    fake = (0, 0, 0, 1 << 3, 0)
    monkeypatch.setattr(suites, "mp_sets", lambda D: fake if D == THM24_TARGET else real(D))
    assert failure_list(["verify", "--suite", "thm24", "--n", "4"], capsys) == [
        {
            "placement": THM24_TARGET_JSON,
            "clauses": {
                "isotropy": {"ok": False, "witness": [[2, 1], [3, 2]]},
                "codimension": {"ok": False, "witness": 6},
                "maximality": {"ok": True, "witness": 2},
                "subalgebra": {"ok": True, "witness": None},
            },
        }
    ]


def test_thm15_reports_a_changed_rank_profile(monkeypatch, capsys):
    # an all-zero profile matches only the empty placement's rank matrix
    monkeypatch.setattr(suites, "rank_profile", lambda form: [[0] * len(form) for _ in form])
    argv = ["verify", "--suite", "thm15", "--n", "2", "--samples", "2", "--seed", "5"]
    assert failure_list(argv, capsys) == [
        {
            "placement": {"n": 2, "rooks": [[2, 1]]},
            "sample": s,
            "scalars": {"(2,1)": "-1/3"},
            "group_element": [[b, b], ["0", "3"]],
        }
        for s, b in [(0, "3"), (1, "2")]
    ]


def test_counts_reports_every_check(monkeypatch, capsys):
    real_bell, real_enum = suites.bell_number, suites.enumerate_placements
    real_back = suites.placement_from_rank_matrix
    moved = {placement(3, [(3, 1)]): placement(3, [(3, 2)])}

    def placement_from_rank_matrix(R):
        D = real_back(R)
        return moved.get(D, D)

    monkeypatch.setattr(suites, "bell_number", lambda n: real_bell(n) + 1)
    monkeypatch.setattr(suites, "enumerate_placements", lambda n: real_enum(n)[::-1])
    monkeypatch.setattr(suites, "placement_from_rank_matrix", placement_from_rank_matrix)
    assert failure_list(["verify", "--suite", "counts", "--n", "3"], capsys) == [
        {"check": "count", "got": 5, "expected": 6},
        {"check": "canonical-order"},
        {"check": "round-trip", "placement": {"n": 3, "rooks": [[3, 1]]}, "got": {"n": 3, "rooks": [[3, 2]]}},
    ]


@pytest.mark.parametrize("suite, samples", [("thm15", "-3"), ("thm15", "0")])
def test_verify_without_samples_is_usage_error(suite, samples, capsys):
    # a sampled suite that checked nothing must not report PASS
    assert run(["verify", "--n", "3", "--suite", suite, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_reports_match_golden(capsys):
    # the reports of every suite, pinned with millis dropped
    golden = json.loads((Path(__file__).parent / "data" / "verify_all_seed7_samples2.json").read_text())
    for k in range(1, 6):
        argv = ["verify", "--suite", "all", "--n", str(k), "--samples", "2", "--seed", "7", "--json"]
        assert run(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        for report in reports:
            del report["millis"]
        assert reports == golden[str(k)]


@pytest.mark.parametrize(
    "suite, n, samples", [("thm15", "8", "2"), ("thm24", "6", "1")]
)
def test_verify_reports_match_golden_at_benchmark_scope(suite, n, samples, capsys):
    # the exact-engine suites at the board sizes of the benchmark, millis dropped
    golden = json.loads((Path(__file__).parent / "data" / "verify_thm15_thm24_seed3.json").read_text())
    argv = ["verify", "--suite", suite, "--n", n, "--samples", samples, "--seed", "3", "--json"]
    assert run(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    for report in reports:
        del report["millis"]
    assert reports == golden[suite]


def test_enumerate_count_only(capsys):
    assert run(["enumerate", "--n", "4", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_enumerate_json(capsys):
    assert run(["enumerate", "--n", "2", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["placements"] == [{"n": 2, "rooks": []}, {"n": 2, "rooks": [[2, 1]]}]


def test_hasse_writes_file(tmp_path, capsys):
    out_path = tmp_path / "h.dot"
    assert run(["hasse", "--n", "2", "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("digraph hasse {")
    assert text.count("->") == 1


def test_missing_file_is_input_error(capsys):
    assert run(["analyze", "/nonexistent/nope.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["analyze", str(path)]) == 2


def test_invalid_placement_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "rooks": [[3, 1], [3, 2]]}))
    assert run(["analyze", str(path)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"n": "8", "rooks": []}',
        '{"n": 4.0, "rooks": []}',
        '{"n": true, "rooks": []}',
        '{"n": 4, "rooks": 5}',
        '{"n": 4, "rooks": null}',
        '{"n": 4, "rooks": [3, 1]}',
        '{"n": 4, "rooks": [[3.7, 1]]}',
        '{"n": 4, "rooks": [[3, true]]}',
        '{"n": 4, "rooks": [["3", 1]]}',
        '{"n": 4, "rooks": [[3, 1, 2]]}',
        pytest.param('{"n": 4, "rooks": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested-100000-deep"),
    ],
)
def test_malformed_placement_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_huge_board_is_input_error(tmp_path, capsys):
    # rejected before any n^2 structure is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**8, "rooks": [[3, 1]]}))
    assert run(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_analyze_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ANALYZE_LIMIT", 5)
    for n, code in [(5, 0), (6, 2)]:
        path = tmp_path / f"b{n}.json"
        path.write_text(json.dumps({"n": n, "rooks": [[3, 1]]}))
        assert run(["analyze", str(path), "--json"]) == code
    assert capsys.readouterr().err == "error: analyze supports n <= 5, got 6\n"


def test_unknown_flag_is_usage_error():
    assert run(["enumerate", "--n", "3", "--bogus"]) == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2
