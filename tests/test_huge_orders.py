"""Coset surveys stay exact when |Z| is near or beyond the int64 range.

The twist matrix holds reduced exponents in twist_dtype(|Z|): uint64 up to
|Z| = 2**63, Python ints (object) beyond.  Each survey sums exponents with
add_exponents, so no sum leaves that dtype.  The oracles multiply elements
with pmul, whose exponents are Python ints, or reduce Python ints with %.
"""

import random
from itertools import product

import numpy as np
import pytest

from cdloops import cdloop
from cdloops.scalars import add_exponents, twist_dtype
from cdloops import (
    CDLoop,
    Scalar,
    associator_exponent_image,
    commutator_exponent_image,
    generates_group,
    make_product,
    make_scalar_group,
    moufang_identity_holds,
)

HUGE_ORDERS = (2**62 + 6, 2**63 - 2, 2**64 + 2)


def random_product(rng: random.Random, order: int, m: int, n: int):
    z = make_scalar_group(order)
    factors = [CDLoop(z, tuple(Scalar(z, rng.randrange(order)) for _ in range(n))) for _ in range(m)]
    return make_product(z, factors)


def cosets(A) -> list:
    """One element per coset of Z: the monomials with scalar 1."""
    return [A.element(A.z.one, A.split_mask(c)) for c in range(A.coset_count)]


def moufang_oracle(A) -> bool:
    mul, reps = A.pmul, cosets(A)
    return all(
        mul(mul(mul(x, y), z), y) == mul(x, mul(y, mul(z, y))) for x, y, z in product(reps, repeat=3)
    )


def span_associates(A, x, y, z) -> bool:
    span = [A.identity]
    for el in (x, y, z):
        span += [A.pmul(s, el) for s in span]
    return all(A.passociator(a, b, c).scalar.is_one for a, b, c in product(span, repeat=3))


@pytest.mark.parametrize("order", HUGE_ORDERS)
@pytest.mark.parametrize("m, n", [(1, 3), (2, 2)])
def test_exponent_images_match_pmul(order, m, n):
    A = random_product(random.Random(order + m), order, m, n)
    reps = cosets(A)
    commutators = {A.pcommutator(x, y).scalar.exponent for x, y in product(reps, repeat=2)}
    associators = {A.passociator(x, y, z).scalar.exponent for x, y, z in product(reps, repeat=3)}
    assert commutator_exponent_image(A) == commutators == {0, order // 2}
    assert associator_exponent_image(A) == associators == ({0} if n < 3 else {0, order // 2})


@pytest.mark.parametrize("order", HUGE_ORDERS)
def test_moufang_matches_pmul(order):
    rng = random.Random(order)
    for n in (3, 4):
        A = random_product(rng, order, 1, n)
        assert moufang_identity_holds(A) == moufang_oracle(A) == (n == 3), A.describe()


@pytest.mark.parametrize("order", HUGE_ORDERS)
def test_generates_group_matches_pmul(order):
    rng = random.Random(order + 1)
    A = random_product(rng, order, 2, 3)
    verdicts = set()
    for _ in range(12):
        x, y, z = (A.element_at(rng.randrange(A.order)) for _ in range(3))
        verdict = generates_group(A, x, y, z)
        assert verdict == span_associates(A, x, y, z), (A.describe(), x, y, z)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def check_add_exponents(order: int, a: list[int], b: list[int]) -> None:
    """add_exponents over every pair of a (reduced) and b (0..|Z|) equals
    (a + b) % |Z| in twist_dtype(|Z|), fresh, into out=, and in place."""
    dtype = twist_dtype(order)
    col = np.array(a, dtype=dtype)[:, None]
    row = np.array(b, dtype=dtype)[None, :]
    want = [[(x + y) % order for y in b] for x in a]
    fresh = add_exponents(col, row, order)
    assert fresh.dtype == dtype and fresh.tolist() == want
    out = np.empty((len(a), len(b)), dtype=dtype)
    assert add_exponents(col, row, order, out=out) is out
    assert out.tolist() == want
    left = np.repeat(col, len(b), axis=1)
    assert add_exponents(left, row, order, out=left) is left
    assert left.tolist() == want


@pytest.mark.parametrize("order", [2, 4, 6, 128, 130])
def test_add_exponents_is_exhaustively_a_reduced_sum(order):
    check_add_exponents(order, list(range(order)), list(range(order + 1)))


@pytest.mark.parametrize("order", [2**62 + 6, 2**63 - 2, 2**63, 2**64 + 2])
def test_add_exponents_is_a_reduced_sum_at_huge_orders(order):
    rng = random.Random(order)
    a = [0, 1, order // 2, order - 2, order - 1] + [rng.randrange(order) for _ in range(40)]
    b = [0, 1, order // 2, order - 1, order] + [rng.randrange(order + 1) for _ in range(40)]
    check_add_exponents(order, a, b)


def test_twist_dtype_bounds_and_home():
    """uint8 up to |Z| = 128, uint64 up to 2**63, object beyond; cdloop
    re-exports the one definition."""
    assert cdloop.twist_dtype is twist_dtype
    assert [twist_dtype(k) for k in (128, 130, 2**63, 2**63 + 2)] == [
        np.uint8, np.uint16, np.uint64, np.dtype(object)
    ]
