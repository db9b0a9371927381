"""Rook placements below the diagonal: order, orbits, covers, verification."""

from .board import (
    Cell,
    RookPlacement,
    chains,
    from_json,
    kerov_involution,
    permutation_of,
    placement,
    placement_from_rank_matrix,
    rank_matrix,
    to_json,
)
from .exactlin import rank_profile
from .permutations import inversions
from .polarization import OrbitDimensions, dimensions, mp_sets, per_rook
from .poset import (
    CoverMove,
    MoveKind,
    PosetIndex,
    bell_number,
    cover_moves,
    enumerate_placements,
    hasse_dot,
    maximal_element,
    poset_index,
    verify_covers,
)
from .suites import VerificationReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
