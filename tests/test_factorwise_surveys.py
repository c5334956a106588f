"""Factorwise product surveys against the product-grid walks they replaced.

commutator_exponent_image, associator_exponent_image, commutant_coset_sizes,
moufang_identity_holds and is_di_associative walk each factor once, and
commutativity_degree_brute counts the commutator matrix band by band.  The
oracles here walk the whole product instead: the coset twist matrix
T = coset_twist_matrix(A), its commutator matrix (T - T.T) mod |Z|, and
every coset triple or pair span, reduced with Python-style % only.

Cayley-Dickson commutator and associator exponents lie in {0, |Z|/2}, and
every factor of one product has the same Moufang verdict.  So the surveys
also run on products whose factors are bare exponent tables (the surveys
read nothing else), where factor values are arbitrary and factor verdicts
differ.
"""

import itertools
import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from cdloops import (
    CDLoop,
    Scalar,
    associator_exponent_image,
    commutant_coset_sizes,
    commutativity_degree_brute,
    commutator_exponent_image,
    coset_twist_matrix,
    is_di_associative,
    make_product,
    make_scalar_group,
    moufang_identity_holds,
)
from cdloops.scalars import twist_dtype

ORDERS = (2, 4, 6, 8, 2**62 + 6, 2**64 + 2)
PAIR_SHAPES = [(m, n) for n in range(9) for m in range(1, 9) if m * n <= 8 and (n or m <= 3)]
TRIPLE_SHAPES = [(m, n) for m, n in PAIR_SHAPES if m * n <= 6]


@dataclass(eq=False)
class TableFactor:
    """A factor given only by its twist exponent table."""

    z: object
    n: int
    table: np.ndarray

    def twist_table(self) -> np.ndarray:
        return self.table


def loop_product(rng: random.Random, order: int, m: int, n: int):
    z = make_scalar_group(order)
    factors = [CDLoop(z, tuple(Scalar(z, rng.randrange(order)) for _ in range(n))) for _ in range(m)]
    return make_product(z, factors)


def table_product(rng: random.Random, order: int, m: int, n: int):
    """Each factor a random Cayley-Dickson loop's table or a random table."""
    z = make_scalar_group(order)
    factors = []
    for d in loop_product(rng, order, m, n).factors:
        if rng.random() < 0.5:
            cells = [[rng.randrange(order) for _ in range(1 << n)] for _ in range(1 << n)]
            factors.append(TableFactor(z, n, np.array(cells, dtype=twist_dtype(order))))
        else:
            factors.append(TableFactor(z, n, d.twist_table()))
    return make_product(z, factors)


# -- product-grid oracles ---------------------------------------------------------


def grid_pair_surveys(A):
    """Favorable pairs, commutant coset sizes and image over the whole grid."""
    T, order = coset_twist_matrix(A), A.z.order
    C = (T + (order - T.T)) % order
    zero = C == 0
    return int(zero.sum()) * order**2, zero.sum(axis=1).tolist(), {int(v) for v in np.unique(C)}


def grid_associator_image(A) -> set[int]:
    T, order = coset_twist_matrix(A), A.z.order
    c = np.arange(A.coset_count)
    e, f, g = c[:, None, None], c[None, :, None], c[None, None, :]
    left = (T[e, f] + T[e ^ f, g]) % order
    right = (T[f, g] + T[e, f ^ g]) % order
    return {int(v) for v in np.unique((left + (order - right)) % order)}


def grid_moufang(A) -> bool:
    T, order = coset_twist_matrix(A), A.z.order
    f = np.arange(A.coset_count)[:, None]
    g = f.T
    right_head = T[g, f] + T[f, g ^ f]
    return all(
        ((T[e, f] + T[e ^ f, g] + T[e ^ f ^ g, f]) % order == (right_head + T[e, g]) % order).all()
        for e in range(A.coset_count)
    )


def grid_di_associative(A) -> bool:
    """Every triple from every span {0, x, y, x ^ y} of two cosets associates."""
    T, order = coset_twist_matrix(A), A.z.order
    c = np.arange(A.coset_count)
    x, y = np.broadcast_arrays(c[:, None], c[None, :])
    span = (np.zeros_like(x), x, y, x ^ y)
    for a in span:
        for b in span:
            for d in span:
                left = (T[a, b] + T[a ^ b, d]) % order
                if (left != (T[b, d] + T[a, b ^ d]) % order).any():
                    return False
    return True


# -- surveys against the oracles --------------------------------------------------


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m, n", PAIR_SHAPES)
def test_pair_surveys_equal_the_grid_walk(order, m, n):
    rng = random.Random(f"pairs:{order}:{m}:{n}")
    for A in (loop_product(rng, order, m, n), table_product(rng, order, m, n)):
        favorable, sizes, image = grid_pair_surveys(A)
        assert commutativity_degree_brute(A).favorable == favorable
        assert commutant_coset_sizes(A) == sizes
        assert commutator_exponent_image(A) == image


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m, n", TRIPLE_SHAPES)
def test_triple_surveys_equal_the_grid_walk(order, m, n):
    rng = random.Random(f"triples:{order}:{m}:{n}")
    for A in (loop_product(rng, order, m, n), table_product(rng, order, m, n)):
        assert associator_exponent_image(A) == grid_associator_image(A)
        assert moufang_identity_holds(A) == grid_moufang(A)
        assert is_di_associative(A) == grid_di_associative(A)


def test_table_products_reach_values_and_verdicts_loops_do_not():
    # the oracles' agreement above is not vacuous: bare tables give images
    # past {0, |Z|/2}, and products whose factors disagree on both verdicts
    images, verdicts = set(), set()
    for order, (m, n) in itertools.product(ORDERS, TRIPLE_SHAPES):
        if m < 2 or n < 1:
            continue
        A = table_product(random.Random(f"verdicts:{order}:{m}:{n}"), order, m, n)
        images.add(commutator_exponent_image(A) <= {0, order // 2})
        factors = [make_product(A.z, [d]) for d in A.factors]
        for survey in (moufang_identity_holds, is_di_associative):
            verdicts.add((survey(A), len({survey(F) for F in factors})))
    assert images == {True, False}
    assert verdicts >= {(False, 2), (True, 1), (False, 1)}


@pytest.mark.parametrize("order", (2, 4))
def test_moufang_and_di_associativity_at_depth_four_products(order):
    # depth-4 factors fail Moufang; 8**8 coset triples need a raised budget
    A = loop_product(random.Random(order), order, 2, 4)
    assert moufang_identity_holds(A, 1 << 24) is grid_moufang(A) is False
    assert is_di_associative(A) == grid_di_associative(A)


# -- memory ---------------------------------------------------------------------------


def test_pair_surveys_at_4096_cosets_allocate_no_coset_pair_grid():
    # the 4096 x 4096 commutator grid is 16 MiB of uint8; the brute count
    # holds one 1 MiB band of it at a time
    z = make_scalar_group(2)
    A = make_product(z, [CDLoop.all_minus_one(z, 4)] * 3)
    peaks = {}
    for survey in (commutator_exponent_image, commutant_coset_sizes, commutativity_degree_brute):
        survey(make_product(z, [CDLoop.all_minus_one(z, 2)] * 2))  # numpy's first-call imports
        tracemalloc.start()
        try:
            result = survey(A, 1 << 24)
            _, peaks[survey.__name__] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if survey is commutant_coset_sizes:
            assert sum(result) * 4 == 24732544
        elif survey is commutator_exponent_image:
            assert result == {0, 1}
        else:
            assert result.favorable == 24732544
    assert peaks["commutator_exponent_image"] < 1 << 20
    assert peaks["commutant_coset_sizes"] < 1 << 20
    assert peaks["commutativity_degree_brute"] < 4 << 20
