"""One-line permutations of {1, ..., m} and their Coxeter length.

A permutation w is stored as the tuple (w(1), ..., w(m)), 1-based throughout.
"""
from __future__ import annotations

from typing import Sequence

Perm = tuple[int, ...]


def inversions(w: Sequence[int]) -> int:
    """Number of out-of-order pairs; equals the Coxeter length of w.

    >>> inversions((3, 5, 4, 6, 2, 1))
    10
    """
    m = len(w)
    return sum(1 for x in range(m) for y in range(x + 1, m) if w[x] > w[y])
