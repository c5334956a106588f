"""The dense twist kernel against the recursive doubling law it replaced."""

import random
import tracemalloc

import numpy as np
import pytest

from cdloops import (
    CDLoop,
    Scalar,
    associator_exponent_image,
    commutator_exponent_image,
    coset_twist_matrix,
    make_product,
    make_scalar_group,
)

ORDERS = (2, 6, 10, 130, 258)


def reference_twist(L: CDLoop, level: int, e: int, f: int) -> int:
    """The doubling law applied recursively, one top generator at a time.

    With x = q + r*l and y = s + t*l the law reads (q + r*l)(s + t*l) =
    qs + gamma*conj(t)*r + (t*q + r*conj(s))*l, and on single monomials
    each case keeps exactly one term.  conj negates every non-scalar
    monomial, whence the f1 != 0 sign.
    """
    if level == 0:
        return 0
    order = L.z.order
    top = 1 << (level - 1)
    low = top - 1
    a, b = e & top, f & top
    e1, f1 = e & low, f & low
    if not a:
        if not b:
            return reference_twist(L, level - 1, e1, f1)
        return reference_twist(L, level - 1, f1, e1)
    sign = order // 2 if f1 else 0
    if not b:
        return (sign + reference_twist(L, level - 1, e1, f1)) % order
    gamma = L.gammas[level - 1].exponent
    return (gamma + sign + reference_twist(L, level - 1, f1, e1)) % order


def random_loop(rng: random.Random, order: int, n: int) -> CDLoop:
    z = make_scalar_group(order)
    return CDLoop(z, tuple(Scalar(z, rng.randrange(order)) for _ in range(n)))


@pytest.mark.parametrize("order", ORDERS)
def test_twist_table_bit_loop_and_twist_exp_match_the_recursion(order):
    rng = random.Random(order)
    for n in range(7):
        for _ in range(2):
            L = random_loop(rng, order, n)
            table = L.twist_table()
            assert table.shape == (1 << n, 1 << n)
            assert table.dtype == (np.uint8 if order <= 128 else np.uint16)
            assert not table.flags.writeable
            size = 1 << n
            for e in range(size):
                for f in range(size):
                    expected = reference_twist(L, n, e, f)
                    assert table[e, f] == expected, (L.describe(), e, f)
                    assert L.twist_exp(e, f) == expected, (L.describe(), e, f)


@pytest.mark.parametrize("order", ORDERS)
def test_twist_tables_follow_the_commutator_and_gamma_rules(order):
    # t is the all-(+1) loop's twist plus the gammas over the bits e and f
    # share, a symmetric term; so b(e), b(f) anticommute exactly when e and f
    # are distinct and both nonzero, whatever the gammas (commutant's rule).
    rng = random.Random(order + 1)
    z = make_scalar_group(order)
    for n in range(8):
        L = random_loop(rng, order, n)
        t = L.twist_table().astype(np.int64)
        plus = CDLoop(z, (z.one,) * n).twist_table().astype(np.int64)
        e = np.arange(1 << n)[:, None]
        f = e.T
        anticommute = (e != 0) & (f != 0) & (e != f)
        assert np.array_equal((t - t.T) % order, np.where(anticommute, order // 2, 0)), L.describe()
        shared = sum(g.exponent * ((e & f) >> i & 1) for i, g in enumerate(L.gammas))
        assert np.array_equal(t, (plus + shared) % order), L.describe()


@pytest.mark.parametrize("order", (2, 6, 130))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_coset_twist_matrix_equals_pmul_over_all_coset_pairs(order, m):
    rng = random.Random(100 * order + m)
    z = make_scalar_group(order)
    A = make_product(z, [random_loop(rng, order, 2) for _ in range(m)])
    M = coset_twist_matrix(A)
    assert M.shape == (A.coset_count, A.coset_count)
    assert M.dtype == np.min_scalar_type(2 * (order - 1))
    cosets = [A.element(z.one, A.split_mask(c)) for c in range(A.coset_count)]
    for c1, x in enumerate(cosets):
        for c2, y in enumerate(cosets):
            assert M[c1, c2] == A.pmul(x, y).scalar.exponent, (c1, c2)


@pytest.mark.parametrize("order", (2, 6, 130))
@pytest.mark.parametrize("m, n", [(3, 3), (2, 6), (4, 2), (3, 4)])
def test_coset_twist_matrix_equals_the_factor_sum_in_several_bands(order, m, n):
    # these shapes fill the last Kronecker level in 2, 64, 1 and 128 bands
    A = make_product(make_scalar_group(order), [random_loop(random.Random(order + n), order, n)] * m)
    masks = A._split_masks(np.arange(A.coset_count))
    want = sum(t.astype(np.int64)[np.ix_(masks[:, i], masks[:, i])] for i, t in enumerate(A.twist_tables()))
    assert np.array_equal(coset_twist_matrix(A), want % order)


@pytest.mark.parametrize("order", (2, 6, 130))
def test_a_one_factor_coset_twist_matrix_is_the_cached_factor_table(order):
    # No copy is made: every caller only reads the matrix, so a one-factor
    # product hands back the factor's read-only table itself.
    L = random_loop(random.Random(order), order, 3)
    M = coset_twist_matrix(L.product)
    assert M is L.twist_table()
    assert not M.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        M[0, 0] = 1


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m", (1, 2))
def test_commutator_and_associator_images_stay_signs(order, m):
    rng = random.Random(order + m)
    z = make_scalar_group(order)
    A = make_product(z, [random_loop(rng, order, 3) for _ in range(m)])
    signs = {0, order // 2}
    cosets = [A.element(z.one, A.split_mask(c)) for c in range(A.coset_count)]
    oracle = {A.pcommutator(x, y).scalar.exponent for x in cosets for y in cosets}
    assert commutator_exponent_image(A) == oracle == signs
    assert associator_exponent_image(A) == signs


def test_twist_exp_at_sixteen_generators_builds_no_dense_table():
    z = make_scalar_group(258)
    rng = random.Random(16)
    L = random_loop(rng, 258, 16)
    pairs = [(rng.randrange(1 << 16), rng.randrange(1 << 16)) for _ in range(50)]
    tracemalloc.start()
    try:
        values = [L.twist_exp(e, f) for e, f in pairs]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "_twist_table" not in vars(L)
    assert values == [reference_twist(L, 16, e, f) for e, f in pairs]
    assert L.twist(pairs[0][0], pairs[0][1]) == Scalar(z, values[0])
