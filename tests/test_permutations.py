import doctest
from itertools import permutations as iterperms

import pytest

from rookposet import permutations
from rookposet.permutations import inversions

import oracles
from oracles import (
    bruhat_leq,
    compose,
    identity_perm,
    inverse,
    is_involution,
    product_of_transpositions,
    transposition,
    two_cycles,
)


def test_doctests():
    for module in (permutations, oracles):
        failures, tried = doctest.testmod(module)
        assert failures == 0 and tried > 0, module


def test_identity_and_inverse():
    assert identity_perm(4) == (1, 2, 3, 4)
    for w in iterperms(range(1, 5)):
        assert compose(w, inverse(w)) == identity_perm(4)


def test_product_of_transpositions_matches_cycles():
    # (3,1)(6,2)(7,3)(5,4)(8,6) multiplied right to left gives the
    # three cycles (1,3,7)(2,6,8)(4,5).
    pairs = [(3, 1), (6, 2), (7, 3), (5, 4), (8, 6)]
    w = product_of_transpositions(8, pairs)
    assert w == (3, 6, 7, 5, 4, 8, 1, 2)


def test_inversions_known_values():
    assert inversions((3, 5, 4, 6, 2, 1)) == 10
    assert inversions(identity_perm(7)) == 0
    assert inversions((3, 6, 7, 5, 4, 8, 1, 2)) == 17


def test_two_cycles_and_involutions():
    assert is_involution((2, 1, 4, 3))
    assert two_cycles((2, 1, 4, 3)) == [(2, 1), (4, 3)]
    assert not is_involution((2, 3, 1))
    with pytest.raises(ValueError, match=r"^\(2, 3, 1\) is not an involution$"):
        two_cycles((2, 3, 1))


def test_size_mismatch():
    with pytest.raises(ValueError, match="sizes"):
        bruhat_leq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="sizes"):
        compose((1, 2), (1, 2, 3))


def _bruhat_by_covering_walks(m):
    """Independent oracle: reflection covers raising length by one, then closure."""
    elements = list(iterperms(range(1, m + 1)))
    reachable = {w: {w} for w in elements}
    by_length = sorted(elements, key=inversions)
    for w in by_length:
        lw = inversions(w)
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                t = transposition(m, a, b)
                u = compose(w, t)
                if inversions(u) == lw + 1:
                    reachable[u] |= reachable[w]
    changed = True
    while changed:
        changed = False
        for w in elements:
            lw = inversions(w)
            for a in range(1, m + 1):
                for b in range(a + 1, m + 1):
                    t = transposition(m, a, b)
                    u = compose(w, t)
                    if inversions(u) == lw + 1 and not reachable[w] <= reachable[u]:
                        reachable[u] |= reachable[w]
                        changed = True
    return reachable


@pytest.mark.parametrize("m", [3, 4])
def test_dominance_matches_covering_oracle(m):
    reachable = _bruhat_by_covering_walks(m)
    for w, below in reachable.items():
        for v in iterperms(range(1, m + 1)):
            assert bruhat_leq(v, w) == (v in below), (v, w)
