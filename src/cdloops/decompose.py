"""Recover central-product structure from a bare multiplication table.

Given only an N x N table and the doubling depth n, the pipeline is:

 1. infer_parameters: the center recovers Z.  Z is a normal subloop, so
    its cosets split the loop into blocks of |Z| and |Z| divides N; the bit
    length of N/|Z| gives the factor count m, as N/|Z| must be 2**(m*n).
 2. rank_of: an element of rank k commutes with exactly b_k(n) of the loop,
    and for n >= 3 the ratios b_0 > b_2 > ... > b_1 never collide, so the
    commutant size reveals the rank.  For n <= 2 every positive rank gives
    the ratio 1/2, which is why those depths are rejected.
 3. recover_factors: a rank-1 pivot x lies in a unique factor D_j, and the
    rank-1 elements failing to commute with x are exactly the rest of
    D_j outside Z<x>; closing over them and the center rebuilds D_j.  The
    lowest rank-1 element not yet in a factor seeds the next one.
 4. match_factors: factor lists of two decompositions are matched up to
    isomorphism, from the factor_compatibility matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abstract_loop import AbstractLoop, find_isomorphism
from .analytics import b_k_closed
from .errors import DecompositionError


def infer_parameters(loop: AbstractLoop, n: int) -> tuple[int, int]:
    """Deduce (m, |Z|) for a table claimed to be an m-fold product of depth n.

    Raises ValueError for n < 3 (rank detection is blind there) and
    DecompositionError when the element counts rule the shape out.
    """
    if n < 3:
        raise ValueError(
            f"decomposition requires n >= 3, got n = {n}: for depths 1 and 2 "
            "every element outside the center has commutant ratio 1/2, so "
            "ranks cannot be read off the table"
        )
    z_size = len(loop.center())
    # Z is a normal subloop, so |Z| divides |L| (Bruck, A Survey of Binary Systems, 1958).
    cosets = loop.size // z_size
    m, rest = divmod(cosets.bit_length() - 1, n)
    if cosets & (cosets - 1) or rest or m == 0:
        raise DecompositionError(
            f"not a central product of depth-{n} factors: |L|/|Z| = {cosets} "
            f"is not a positive power of 2**{n}"
        )
    return m, z_size


def _ranks(loop: AbstractLoop, n: int, m: int, elements: np.ndarray) -> np.ndarray:
    """Ranks of the given elements, read off their commutant sizes.

    An element of rank k commutes with b_k * |L| elements, and for n >= 3
    those sizes never collide.
    """
    lookup = np.full(loop.size + 1, -1)
    for k in range(m + 1):
        count = b_k_closed(n, k) * loop.size
        assert count.denominator == 1
        lookup[int(count)] = k
    counts = loop._commutant_counts[elements]
    ranks = lookup[counts]
    if (ranks < 0).any():
        i = int(np.flatnonzero(ranks < 0)[0])
        raise DecompositionError(
            f"element {elements[i]} commutes with {counts[i]} of {loop.size} elements, "
            f"a ratio {Fraction(int(counts[i]), loop.size)} matching no rank "
            f"0..{m}: table is not a central product of Cayley-Dickson loops"
        )
    return ranks


def rank_of(loop: AbstractLoop, x: int, n: int) -> int:
    """Rank of element x read off its commutant size."""
    m, _ = infer_parameters(loop, n)
    return int(_ranks(loop, n, m, loop._checked([x]))[0])


@dataclass
class Decomposition:
    """Factors of a table recognized as a central product."""

    n: int
    m: int
    z_size: int
    center: list[int]
    ranks: list[int]
    subsets: list[list[int]]
    factors: list[AbstractLoop]

    def rank_histogram(self) -> list[int]:
        return np.bincount(self.ranks, minlength=self.m + 1).tolist()


def recover_factors(loop: AbstractLoop, n: int) -> Decomposition:
    """Split a table into its m central factors of depth n.

    Rank-1 pivots are scanned upward; for a genuine product the split does
    not depend on the scan order, only the order of the factors does.
    """
    m, z_size = infer_parameters(loop, n)
    ranks = _ranks(loop, n, m, np.arange(loop.size))
    center = loop.center()
    expected_size = (1 << n) * z_size
    central = np.zeros(loop.size, dtype=bool)
    central[center] = True
    assigned = central.copy()
    rank1 = ranks == 1
    subsets: list[list[int]] = []
    for pivot in np.flatnonzero(rank1).tolist():
        if assigned[pivot]:
            continue
        if len(subsets) == m:
            raise DecompositionError(
                f"element {pivot} has rank 1 but belongs to none of the {m} "
                "recovered factors: table is not a central product"
            )
        members = central | (rank1 & (loop.table[pivot] != loop.table[:, pivot]))
        members[pivot] = True
        size = loop._grow(members)
        if size != expected_size:
            raise DecompositionError(
                f"factor seeded at element {pivot} closes to {size} "
                f"elements, expected {expected_size}: table is not a central "
                "product"
            )
        overlap = np.flatnonzero(members & assigned & ~central)
        if overlap.size:
            raise DecompositionError(
                f"factors seeded at different pivots share element {overlap[0]}: "
                "table is not a central product"
            )
        assigned |= members
        subsets.append(np.flatnonzero(members).tolist())
    if len(subsets) != m:
        raise DecompositionError(
            f"recovered {len(subsets)} factors, expected {m}: table is not a "
            "central product"
        )
    return Decomposition(
        n=n,
        m=m,
        z_size=z_size,
        center=center,
        ranks=ranks.tolist(),
        subsets=subsets,
        factors=[loop.subloop(subset) for subset in subsets],
    )


def factor_compatibility(left: Decomposition, right: Decomposition) -> list[list[bool]]:
    """compatible[j][k] is True iff left factor j is isomorphic to right factor k."""
    return [
        [find_isomorphism(a, b) is not None for b in right.factors]
        for a in left.factors
    ]


def match_factors(compatible: list[list[bool]]) -> list[int] | None:
    """Pair up factors of two decompositions by isomorphism.

    Takes the factor_compatibility matrix of two decompositions and returns
    the lexicographically first sigma with left factor j isomorphic to
    right factor sigma[j], or None when no perfect matching exists.  All
    m! orders may be tried: a table within the budget has few factors.
    """
    m = len(compatible)
    if any(len(row) != m for row in compatible):
        raise ValueError(
            f"decompositions have different factor counts: {m} and {len(compatible[0])}"
        )
    for sigma in itertools.permutations(range(m)):
        if all(compatible[j][k] for j, k in enumerate(sigma)):
            return list(sigma)
    return None
