"""Named verification suites over whole boards, as deterministic reports.

Each suite sweeps every placement of the requested board (sampling only where
the suite is explicitly sample-based), collects all failures with witnesses,
and never aborts mid-run.  Sampling is keyed off (seed, placement position),
so reports are reproducible and independent of any parallel split.

A suite's check returns ``(checked, failures)``; ``run_suite`` is the one
place that validates the suite name and sample count, times the check and
builds the report.
"""
from __future__ import annotations

import math
import random
import time
from itertools import chain
from typing import Callable, Iterable, NamedTuple

from .board import Cell, kerov_involution, permutation_of, placement_from_rank_matrix, rank_matrix, to_json
from .errors import BoundViolation
from .exactlin import _integer_action, random_scalars, random_upper, rank_profile
from .polarization import _support_certificate, dimensions, mp_sets, polarization_clauses
from .permutations import _byte_rows, _cells, _Order, _points_order, _threshold
from .poset import (
    _enumeration_limit,
    _index_limit,
    _rank_points,
    bell_number,
    enumerate_placements,
    maximal_element,
    poset_index,
    verify_covers,
)

DEFAULT_SAMPLES = 100


class VerificationReport(NamedTuple):
    suite: str
    n: int
    checked: int
    failures: list[dict]
    seed: int = 0
    millis: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return self._asdict()


def _rng_for(seed: int, position: int) -> random.Random:
    return random.Random(seed * 1_000_003 + position)


def _scalar_witness(xi: dict[Cell, tuple[int, int]]) -> dict:
    """Each rook's scalar p/q as text, lowest terms, ``"p"`` when q is 1."""
    return {f"({c.row},{c.col})": f"{p}/{q}" if q != 1 else str(p) for c, (p, q) in xi.items()}


# ---------------------------------------------------------------------------


def _thm15(n: int, seed: int, samples: int) -> tuple[int, list[dict]]:
    """Rank-profile invariance along orbits.

    Exhaustive over placements for n <= 5, else 50 seeded random placements;
    for each, ``samples`` random (group element, scalars) pairs must leave the
    rank profile equal to the rank matrix.  For i > j the corner of b·f·b⁻¹
    at rows >= i, columns <= j is b[>=i, >=i]·f[>=i, <=j]·b⁻¹[<=j, <=j], whose
    outer factors are invertible, so its rank is f's by that identity alone:
    what this suite tests is the code of ``_integer_action`` and
    ``rank_profile``.
    """
    everything = enumerate(enumerate_placements(n))
    picks = range(bell_number(n)) if n <= 5 else set(random.Random(seed).sample(range(bell_number(n)), 50))
    chosen = [(k, D) for k, D in everything if k in picks]
    failures: list[dict] = []
    for k, D in chosen:
        expected = [list(row) for row in rank_matrix(D)]
        rng = _rng_for(seed, k)
        for s in range(samples):
            xi = random_scalars(D, rng)
            b = random_upper(n, rng)
            if _orbit_profile(b, xi) != expected:
                failures.append(
                    {
                        "placement": to_json(D),
                        "sample": s,
                        "scalars": _scalar_witness(xi),
                        "group_element": [[str(x) for x in row] for row in b],
                    }
                )
    return len(chosen) * samples, failures


def _orbit_profile(b: list[list[int]], xi: dict[Cell, tuple[int, int]]) -> list[list[int]]:
    """The rank profile of b acting on the form with rook scalars ``xi``, from the integer action alone.

    The rook scalars p/q are scaled by the lcm of their denominators q.  The
    integer result is scale·det(b) times the true form, and corner ranks do
    not see that nonzero factor.
    """
    scale = math.lcm(*(q for _, q in xi.values()))
    entries = [(i - 1, j - 1, p * (scale // q)) for (i, j), (p, q) in xi.items()]
    return rank_profile(_integer_action(b, entries))


def _thm24(n: int) -> tuple[int, list[dict]]:
    """Polarization and orbit dimensions at every nonzero choice of rook scalars.

    Per placement: the closed-form dimensions respect their bounds, and the
    unipotent support of the placement form's action is a forest, so its
    maximum matching is the rank for every nonzero scalar choice; the pairing
    has the same rank and the Borel tangent |D| more (``_support_certificate``).
    Those ranks must be 2|M| + |D| (Borel tangent), 2|M| (unipotent tangent)
    and 2|M| (pairing, the maximality clause), and the other polarization
    clauses must pass.  A support with a cycle fails, and then only the
    clauses that need no rank are checked.
    """
    failures: list[dict] = []
    checked = 0
    for checked, D in enumerate(enumerate_placements(n), 1):
        marks = mp_sets(D)
        try:
            dims = dimensions(D, marks)
        except BoundViolation as exc:
            failures.append({"placement": to_json(D), "bound_violation": str(exc)})
            continue
        cert = _support_certificate(D, marks)
        clauses = polarization_clauses(n, marks, cert.isotropy, cert.matching)
        forest = cert.cycle is None
        if not forest:
            failures.append(
                {
                    "placement": to_json(D),
                    "check": "forest",
                    "support": "unipotent",
                    "cycle": [[list(row), list(col)] for row, col in cert.cycle],
                }
            )
            # on a cyclic support the leaf-pruning matching is no rank: nothing read off it is reported
            del clauses["maximality"]
        if forest and cert.matching + len(D.rooks) != dims.dim_omega:
            failures.append(
                {
                    "placement": to_json(D),
                    "check": "borel-dimension",
                    "tangent": cert.matching + len(D.rooks),
                    "expected": dims.dim_omega,
                    "length": dims.length,
                }
            )
        if not all(clause["ok"] for clause in clauses.values()):
            failures.append({"placement": to_json(D), "clauses": clauses})
        if forest and cert.matching != dims.dim_theta:
            failures.append(
                {
                    "placement": to_json(D),
                    "check": "unipotent-dimension",
                    "tangent": cert.matching,
                    "expected": dims.dim_theta,
                }
            )
    return checked, failures


def _cor18(n: int) -> tuple[int, list[dict]]:
    """Placement order == Bruhat order on the doubled involutions, all pairs."""
    idx = poset_index(n)
    failures: list[dict] = []
    if n >= 2:
        le, sigma_le = idx._order, _bruhat_order(idx, kerov_involution)
        for a, b in _pairs(idx, (le.down(q) ^ sigma_le.down(q) for q in range(len(idx.placements)))):
            p, q = idx._position[a], idx._position[b]
            leq = bool(le.down(q) >> p & 1)  # the pair is in the XOR: the other order says the opposite
            failures.append(
                {
                    "first": to_json(idx.placements[a]),
                    "second": to_json(idx.placements[b]),
                    "placement_leq": leq,
                    "involution_leq": not leq,
                }
            )
    return len(idx.placements) ** 2, failures


def _proctor(n: int) -> tuple[int, list[dict]]:
    """Comparable attached permutations force comparable placements, all pairs."""
    idx = poset_index(n)
    le, w_le = idx._order, _bruhat_order(idx, permutation_of)
    failures = [
        {"smaller": to_json(idx.placements[a]), "larger": to_json(idx.placements[b])}
        for a, b in _pairs(idx, (w_le.down(q) & ~le.down(q) for q in range(len(idx.placements))))
    ]
    return len(idx.placements) ** 2, failures


def _bruhat_order(idx, perm_of) -> _Order:
    """Bruhat order on ``perm_of`` of the placements, at the index's positions, by dominance tables."""
    m = len(perm_of(idx.placements[0]))  # the tables fill the m-square
    return _points_order((perm_of(idx.placements[k]) for k in idx._by_position), 1 - m)


def _pairs(idx, differences: Iterable[int]) -> list[tuple[int, int]]:
    """The id pairs (a, b), row-major, whose positions (p, q) are the bits p set in the q-th difference."""
    ids = idx._by_position
    out = []
    for q, x in enumerate(differences):
        while x:
            out.append((ids[(x & -x).bit_length() - 1], ids[q]))
            x &= x - 1
    return sorted(out)


def _d0max(n: int) -> tuple[int, list[dict]]:
    """Every placement sits below the staircase maximal element."""
    top = maximal_element(n)
    # the top at position 0 and placement k at position k + 1: Down(top) is the
    # AND of the thresholds at the top's entry in every cell of the band
    rows = _byte_rows(map(_rank_points, chain([top], enumerate_placements(n))))
    checked = len(rows[0]) - 1
    below = board = (2 << checked) - 1
    for _, column, _ in _cells(rows, 1):
        below &= _threshold(column, column[0])
    # a second walk names the placements outside Down(top), if there are any
    walk = enumerate(enumerate_placements(n), 1) if below != board else ()
    return checked, [{"placement": to_json(D), "top": to_json(top)} for k, D in walk if not below >> k & 1]


def _counts(n: int) -> tuple[int, list[dict]]:
    """Enumeration count against the Bell triangle, canonical order, round-trips."""
    round_trips: list[dict] = []
    checked, in_order, previous = 0, True, ()
    for checked, D in enumerate(enumerate_placements(n), 1):
        in_order &= previous <= D.rooks
        previous = D.rooks
        back = placement_from_rank_matrix(rank_matrix(D))
        if back != D:
            round_trips.append({"check": "round-trip", "placement": to_json(D), "got": to_json(back)})
    expected = bell_number(n)
    failures = [{"check": "count", "got": checked, "expected": expected}] if checked != expected else []
    if not in_order:
        failures.append({"check": "canonical-order"})
    return checked, failures + round_trips


class Suite(NamedTuple):
    check: Callable[..., tuple[int, list[dict]]]
    sampled: bool  # the check takes (n, seed, samples) rather than (n)
    limit: Callable[[int], None]  # raises LimitExceeded for a board size the check does not accept


SUITES = {
    "thm15": Suite(_thm15, True, _enumeration_limit),
    "thm24": Suite(_thm24, False, _enumeration_limit),
    "thm33": Suite(verify_covers, False, _index_limit),
    "cor18": Suite(_cor18, False, _index_limit),
    "proctor": Suite(_proctor, False, _index_limit),
    "d0max": Suite(_d0max, False, _enumeration_limit),
    "counts": Suite(_counts, False, _enumeration_limit),
}


def run_suite(name: str, n: int, seed: int = 0, samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    """Check one named suite's board-size limit, then run it on the n-board and report what it found."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'") from None
    if suite.sampled and samples < 1:
        raise ValueError(f"suite {name} needs at least 1 sample, got {samples}")
    suite.limit(n)
    t0 = time.perf_counter()
    checked, failures = suite.check(*((n, seed, samples) if suite.sampled else (n,)))
    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(name, n, checked, failures, seed, millis)
