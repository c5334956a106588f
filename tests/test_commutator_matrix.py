"""The commutator surveys against the twist-matrix formula they replaced.

commutativity_degree_brute counts the zeros of C[c1, c2] = t(c1, c2) -
t(c2, c1) mod |Z|, the Kronecker sum of the factors' commutator tables, band
by band; commutant_coset_sizes and commutator_exponent_image fold the
factors' commutator tables one at a time.  The oracles are that formula
taken over the coset twist matrix T, (T + (|Z| - T.T)) % |Z|, the surveys'
former counts over T == T.T, and pcommutator on elements.
"""

import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cdloops import (
    CDLoop,
    Scalar,
    associativity_degree_brute,
    associator_exponent_image,
    commutant,
    commutant_coset_sizes,
    commutativity_degree_brute,
    commutativity_degree_closed,
    commutator_exponent_image,
    coset_twist_matrix,
    generates_group,
    is_di_associative,
    make_product,
    make_scalar_group,
    moufang_identity_holds,
    rank_census_brute,
)
from cdloops.cdloop import twist_dtype
from cdloops.analytics import _factor_commutators
from cdloops.central_product import _kronecker_sum

ORDERS = (2, 4, 6, 2**64 + 2)
SHAPES = ((1, 1), (1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))


def random_product(rng: random.Random, order: int, m: int, n: int):
    z = make_scalar_group(order)
    factors = [
        CDLoop(z, tuple(Scalar(z, rng.randrange(order)) for _ in range(n))) for _ in range(m)
    ]
    return make_product(z, factors)


def commutators_over_twists(A) -> np.ndarray:
    T = coset_twist_matrix(A)
    order = A.z.order
    return (T + (order - T.T)) % order


def surveys_over_twists(A):
    """Favorable pairs, commutant coset sizes and image, read off T."""
    T = coset_twist_matrix(A)
    same = T == T.T
    image = {int(v) for v in np.unique(commutators_over_twists(A))}
    return int(same.sum()) * A.z.order**2, [int(c) for c in same.sum(axis=1)], image


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m, n", SHAPES)
def test_commutator_matrix_equals_the_twist_matrix_formula(order, m, n):
    A = random_product(random.Random(f"{order}:{m}:{n}"), order, m, n)
    C = _kronecker_sum(_factor_commutators(A), order)
    want = commutators_over_twists(A)
    assert C.dtype == want.dtype == twist_dtype(order)
    assert C.shape == want.shape == (A.coset_count, A.coset_count)
    assert (C == want).all()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m, n", SHAPES)
def test_commutator_matrix_equals_pcommutator_on_sampled_pairs(order, m, n):
    rng = random.Random(f"pairs:{order}:{m}:{n}")
    A = random_product(rng, order, m, n)
    C = commutators_over_twists(A)
    for _ in range(40):
        x, y = (A.element_at(rng.randrange(A.order)) for _ in range(2))
        c = A.pcommutator(x, y)
        assert c.is_scalar
        assert C[x.mask, y.mask] == c.scalar.exponent


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m, n", SHAPES)
def test_commutator_surveys_equal_their_twist_matrix_values(order, m, n):
    A = random_product(random.Random(f"surveys:{order}:{m}:{n}"), order, m, n)
    favorable, sizes, image = surveys_over_twists(A)
    report = commutativity_degree_brute(A)
    assert report.favorable == favorable and type(report.favorable) is int
    assert report.total == A.order**2
    assert report.degree == Fraction(favorable, A.order**2)
    assert report.degree == commutativity_degree_closed(m, n, order).degree
    assert commutant_coset_sizes(A) == sizes
    assert commutator_exponent_image(A) == image == ({0} if n < 2 else {0, order // 2})


# -- depth 0 and 1: read-only 1 x 1 and 2 x 2 twist tables ------------------------


@pytest.mark.parametrize("order", (2, 4, 6))
@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("n", (0, 1))
def test_every_survey_at_depth_zero_and_one(order, m, n):
    rng = random.Random(f"edge:{order}:{m}:{n}")
    A = random_product(rng, order, m, n)
    cached = [t.copy() for t in A.twist_tables()]
    assert not any(t.flags.writeable for t in A.twist_tables())
    cosets = A.coset_count
    assert cosets == 1 << (m * n)

    report = commutativity_degree_brute(A)
    assert report.degree == 1 and report.favorable == report.total == A.order**2
    assert commutant_coset_sizes(A) == [cosets] * cosets
    assert commutator_exponent_image(A) == {0}
    assert associativity_degree_brute(A).degree == 1
    assert associator_exponent_image(A) == {0}
    assert is_di_associative(A) and moufang_identity_holds(A)
    census = [order * comb(m, k) * (2**n - 1) ** k for k in range(m + 1)]
    assert rank_census_brute(A) == census
    x, y, z = (A.element_at(rng.randrange(A.order)) for _ in range(3))
    assert commutant(A, x) == A.penumerate()
    assert generates_group(A, x, y, z)
    if n:
        assert commutativity_degree_closed(m, n, order).degree == 1
    else:  # one coset: sizes [1], and the 1 x 1 tables are read-only
        assert commutators_over_twists(A).tolist() == [[0]]
    # the surveys work on copies: the cached tables are unchanged
    assert all(np.array_equal(t, c) for t, c in zip(A.twist_tables(), cached))


# -- memory ---------------------------------------------------------------------------


def test_commutativity_survey_at_4096_cosets_holds_one_coset_sized_matrix():
    # the 4096 x 4096 commutator matrix is 16 MiB of uint8; comparing the
    # twist matrix with its transpose held a second, boolean one
    z = make_scalar_group(2)
    A = make_product(z, [CDLoop.all_minus_one(z, 4)] * 3)
    tracemalloc.start()
    try:
        report = commutativity_degree_brute(A, 1 << 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.favorable == 24732544
    assert report.degree == commutativity_degree_closed(3, 4).degree
    assert peak < 24 << 20
