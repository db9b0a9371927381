"""Command-line front end over the JSON placement format.

Exit codes: 0 success, 1 verification failure, 2 input or usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .board import (
    RookPlacement,
    from_json,
    kerov_involution,
    permutation_of,
    rank_matrix,
    to_json,
)
from .errors import LimitExceeded, RookError
from .polarization import dimensions, mp_sets, per_rook
from .poset import _key, cover_moves, enumerate_placements, hasse_dot, poset_index
from .suites import DEFAULT_SAMPLES, SUITES, run_suite


#: largest board ``analyze`` and ``covers`` accept: the rank matrix is dense,
#: n^2 entries, and the cover scans walk the indices between each rook's
#: column and row
ANALYZE_LIMIT = 1000


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_placement(args) -> RookPlacement:
    """The placement file of ``args``, on a board the command ``args.command`` accepts."""
    with open(args.placement, "r", encoding="utf-8") as fh:
        try:
            D = from_json(json.load(fh))
        except RecursionError:  # the decoder recurses once per nested list or object
            raise ValueError("placement JSON is nested too deeply") from None
    if D.n > ANALYZE_LIMIT:
        raise LimitExceeded(f"{args.command} supports n <= {ANALYZE_LIMIT}, got {D.n}")
    return D


def _cell_list(cells) -> str:
    ordered = sorted(cells, key=lambda c: (c.col, c.row))
    return " ".join(f"({c.row},{c.col})" for c in ordered) or "-"


def cmd_analyze(args) -> int:
    D = _load_placement(args)
    R = rank_matrix(D)
    marks = mp_sets(D)
    dims = dimensions(D, marks)
    per = per_rook(D, marks)
    m_cells = [c for _, m, _ in per for c in m]
    p_cells = [c for _, _, p in per for c in p]
    w = permutation_of(D)
    sigma = list(kerov_involution(D)) if D.n >= 2 else None
    if args.json:
        out = to_json(D)
        out.update(
            {
                "rank_matrix": [list(row) for row in R],
                "w": list(w),
                "length": dims.length,
                "mp": {  # a Cell is written as its [row, col] pair
                    "M": sorted(m_cells),
                    "P": sorted(p_cells),
                    "per_rook": {str(col): {"M": sorted(m), "P": sorted(p)} for col, m, p in per},
                },
                "dim_theta": dims.dim_theta,
                "dim_omega": dims.dim_omega,
                "kerov_involution": sigma,
            }
        )
        print(_dump(out))
        return 0
    print(f"board size: {D.n}")
    print(f"rooks: {_cell_list(D.rooks)}")
    print("rank matrix:")
    for row in R:
        print("  " + " ".join(str(x) for x in row))
    print(f"permutation w: {list(w)}")
    print(f"length l(w): {dims.length}")
    print(f"cells M: {_cell_list(m_cells)}")
    print(f"cells P: {_cell_list(p_cells)}")
    for col, m, p in per:
        print(f"  column {col}: M {_cell_list(m)} | P {_cell_list(p)}")
    print(f"dim theta = 2|M| = {dims.dim_theta} (bound l(w) - |D| = {dims.length - len(D.rooks)})")
    print(f"dim omega = 2|M| + |D| = {dims.dim_omega} (bound l(w) = {dims.length})")
    if sigma is None:
        print("doubled involution: undefined for n = 1")
    else:
        print(f"doubled involution: {sigma}")
    return 0


def cmd_covers(args) -> int:
    D = _load_placement(args)
    moves = cover_moves(D)
    mismatch = None
    if args.brute_force:
        idx = poset_index(D.n)
        mismatch = idx.cover_mismatch(idx.index_of(D), [_key(m.result) for m in moves])
    if args.json:
        out = to_json(D)
        out["covers"] = [m.to_json() for m in moves]
        if args.brute_force:
            out["brute_force_match"] = mismatch is None
            if mismatch:
                out["discrepancy"] = mismatch
        print(_dump(out))
    else:
        print(f"{len(moves)} covering moves for {D} on the {D.n}-board:")
        for m in moves:
            removed = " ".join(f"-{c}" for c in m.removed)
            added = " ".join(f"+{c}" for c in m.added)
            print(f"  {m.kind.value:<11} {removed} {added}".rstrip() + f"  ->  {m.result}")
        if args.brute_force:
            if mismatch is None:
                print("brute-force oracle: exact match")
            else:
                print("brute-force oracle: MISMATCH")
                print(_dump(mismatch))
    return 0 if mismatch is None else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, args.n, seed=args.seed, samples=args.samples) for name in names]
    if args.json:
        print(_dump([r.to_json() for r in reports]))
    else:
        for r in reports:
            status = "PASS" if r.passed else f"FAIL ({len(r.failures)} failures)"
            print(
                f"{r.suite} n={r.n}: checked {r.checked}, seed {r.seed}, "
                f"{r.millis} ms -> {status}"
            )
            for failure in r.failures:
                print("  witness: " + _dump(failure).replace("\n", " "))
    return 0 if all(r.passed for r in reports) else 1


def cmd_hasse(args) -> int:
    lines = hasse_dot(args.n)
    edges = 0
    with open(args.output, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            edges += "->" in line
    nodes = len(poset_index(args.n).placements)
    print(f"wrote covering diagram for n={args.n} ({nodes} nodes, {edges} edges) to {args.output}")
    return 0


def cmd_enumerate(args) -> int:
    everything = enumerate_placements(args.n)
    if args.count_only:
        if args.json:
            print(_dump({"n": args.n, "count": len(everything)}))
        else:
            print(len(everything))
        return 0
    if args.json:
        print(_dump({"n": args.n, "placements": [to_json(D) for D in everything]}))
    else:
        for D in everything:
            print(str(D))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookposet",
        description="Rook placements below the diagonal: analysis, covers, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="rank matrix, permutation, mark cells, dimensions")
    p.add_argument("placement", help="path to a placement JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("covers", help="covering moves of one placement")
    p.add_argument("placement")
    p.add_argument("--brute-force", action="store_true", help="cross-check against the all-pairs oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("verify", help="run a verification suite over a whole board")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite", required=True, choices=list(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hasse", help="write the covering relation as Graphviz DOT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("enumerate", help="list all placements of a board")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, RookError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
