"""Rook placements below the diagonal: order, orbits, covers, verification."""

from .board import (
    Cell,
    ChainDecomposition,
    RankMatrix,
    RookPlacement,
    cell_leq,
    cell_lt,
    chains,
    diagonal_normalizer,
    empty_placement,
    from_json,
    involution_placement,
    kerov_involution,
    leq,
    permutation_of,
    placement,
    placement_from_rank_matrix,
    rank_matrix,
    to_json,
)
from .exactlin import (
    Scope,
    coadjoint,
    placement_form,
    rank_profile,
    squared_corner,
    tangent_dimension,
)
from .permutations import bruhat_leq, inversions
from .polarization import (
    MPData,
    OrbitDimensions,
    dimensions,
    mp_sets,
    polarization_complement,
    subalgebra_witness,
    support_certificate,
)
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
