"""Coset-level surveys against the element walks they replaced.

Every survey in cdloops.analytics works on cosets of Z.  The oracles here
are the element-level walks it used to run: they enumerate elements and
multiply them with CDLoop.mul and CentralProduct.pmul, sharing no code with
the coset kernel beyond twist_exp.
"""

import random
import tracemalloc

import pytest

from cdloops import (
    CDLoop,
    Scalar,
    associativity_degree_brute,
    commutant,
    generates_group,
    is_di_associative,
    make_product,
    make_scalar_group,
    moufang_identity_holds,
    rank_census_brute,
)

ORDERS = (2, 4, 6)


def random_loop(rng: random.Random, order: int, n: int) -> CDLoop:
    z = make_scalar_group(order)
    return CDLoop(z, tuple(Scalar(z, rng.randrange(order)) for _ in range(n)))


# -- element-level oracles ---------------------------------------------------------


def xor_span(masks) -> frozenset:
    span = {0}
    for mask in masks:
        span |= {s ^ mask for s in span}
    return frozenset(span)


def span_is_associative(L: CDLoop, span) -> bool:
    order = L.z.order
    for e in span:
        for f in span:
            for g in span:
                exp = (
                    L.twist_exp(e, f) + L.twist_exp(e ^ f, g)
                    - L.twist_exp(f, g) - L.twist_exp(e, f ^ g)
                )
                if exp % order:
                    return False
    return True


def generates_group_oracle(L, x, y, z) -> bool:
    return span_is_associative(L, xor_span((x.mask, y.mask, z.mask)))


def associativity_count_oracle(L: CDLoop) -> int:
    verdicts: dict = {}
    favorable = 0
    elems = L.elements()
    for x in elems:
        for y in elems:
            for z in elems:
                span = xor_span((x.mask, y.mask, z.mask))
                if span not in verdicts:
                    verdicts[span] = span_is_associative(L, span)
                favorable += verdicts[span]
    return favorable


def span_count_oracle(L: CDLoop) -> int:
    """associativity_count_oracle over coset triples, times |Z|**3."""
    verdicts: dict = {}
    favorable = 0
    masks = range(1 << L.n)
    for e in masks:
        for f in masks:
            for g in masks:
                span = xor_span((e, f, g))
                if span not in verdicts:
                    verdicts[span] = span_is_associative(L, span)
                favorable += verdicts[span]
    return favorable * L.z.order**3


def di_associative_oracle(L: CDLoop) -> bool:
    verdicts: dict = {}
    elems = L.elements()
    for x in elems:
        for y in elems:
            span = xor_span((x.mask, y.mask))
            if span not in verdicts:
                verdicts[span] = span_is_associative(L, span)
            if not verdicts[span]:
                return False
    return True


def moufang_oracle(L: CDLoop) -> bool:
    elems = L.elements()
    mul = L.mul
    for x in elems:
        for y in elems:
            xy = mul(x, y)
            for z in elems:
                if mul(mul(xy, z), y) != mul(x, mul(y, mul(z, y))):
                    return False
    return True


def census_oracle(A) -> list[int]:
    counts = [0] * (A.m + 1)
    for x in A.penumerate():
        counts[x.rank] += 1
    return counts


def commutant_oracle(A, x) -> list:
    return [y for y in A.penumerate() if A.pmul(x, y) == A.pmul(y, x)]


# -- surveys against the oracles -------------------------------------------------


@pytest.mark.parametrize("order", ORDERS)
def test_moufang_matches_the_element_walk(order):
    rng = random.Random(10 + order)
    for n in range(4):
        L = random_loop(rng, order, n)
        assert moufang_identity_holds(L) == moufang_oracle(L), L.describe()


@pytest.mark.parametrize("order", ORDERS)
def test_moufang_fails_at_depth_four(order):
    z = make_scalar_group(order)
    rng = random.Random(20 + order)
    for L in (CDLoop.all_minus_one(z, 4), random_loop(rng, order, 4)):
        assert moufang_oracle(L) is False
        assert moufang_identity_holds(L) is False


@pytest.mark.parametrize("order", ORDERS)
def test_di_associativity_matches_the_element_walk(order):
    rng = random.Random(30 + order)
    for n in range(5):
        L = random_loop(rng, order, n)
        assert is_di_associative(L) == di_associative_oracle(L), L.describe()


@pytest.mark.parametrize("order", ORDERS)
def test_associativity_degree_matches_the_element_walk(order):
    rng = random.Random(40 + order)
    for n in range(4):
        L = random_loop(rng, order, n)
        report = associativity_degree_brute(L)
        assert report.total == L.order**3
        assert report.favorable == associativity_count_oracle(L), L.describe()


@pytest.mark.parametrize("order, n", [(2, 4), (4, 4), (6, 4), (2, 5)])
def test_associativity_degree_matches_the_coset_span_walk(order, n):
    L = random_loop(random.Random(45 + order + n), order, n)
    assert associativity_degree_brute(L).favorable == span_count_oracle(L), L.describe()


@pytest.mark.parametrize("order", ORDERS)
def test_generates_group_matches_the_span_oracle(order):
    rng = random.Random(50 + order)
    for n in (3, 4):
        L = random_loop(rng, order, n)
        elems = L.elements()
        verdicts = set()
        for _ in range(150):
            x, y, z = (rng.choice(elems) for _ in range(3))
            verdict = generates_group(L, x, y, z)
            assert verdict == generates_group_oracle(L, x, y, z)
            verdicts.add(verdict)
        assert verdicts == {True, False}
        l1, l2, l3 = (L.generator(i) for i in (1, 2, 3))
        assert generates_group_oracle(L, l1, l2, l3) is False
        assert generates_group(L, l1, l2, l3) is False


@pytest.mark.parametrize("order", ORDERS)
def test_rank_census_matches_the_element_walk(order):
    rng = random.Random(60 + order)
    z = make_scalar_group(order)
    for m in (1, 2):
        for n in (1, 2, 3):
            A = make_product(z, [random_loop(rng, order, n) for _ in range(m)])
            assert rank_census_brute(A) == census_oracle(A)


@pytest.mark.parametrize("order", ORDERS)
def test_commutant_matches_the_element_walk(order):
    rng = random.Random(70 + order)
    z = make_scalar_group(order)
    for m in (1, 2):
        for n in (1, 2, 3):
            A = make_product(z, [random_loop(rng, order, n) for _ in range(m)])
            picks = [0] + [rng.randrange(A.order) for _ in range(3)]
            for index in picks:
                x = A.element_at(index)
                assert commutant(A, x) == commutant_oracle(A, x), (A.describe(), index)


def test_commutant_rejects_an_element_of_another_product():
    z = make_scalar_group(2)
    A = make_product(z, [CDLoop.all_minus_one(z, 3)])
    B = make_product(z, [CDLoop.all_minus_one(z, 2)])
    with pytest.raises(ValueError, match="different product"):
        commutant(A, B.element_at(3))


# -- sixteen generators: no dense table ---------------------------------------------


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_generates_group_at_sixteen_generators_builds_no_dense_table():
    rng = random.Random(16)
    L = random_loop(rng, 4, 16)
    l1, l2, l3 = (L.generator(i) for i in (1, 2, 3))
    k = L.mul(l1, l2)
    (quaternion, octonion), peak = traced_peak(
        lambda: (generates_group(L, l1, l2, k), generates_group(L, l1, l2, l3))
    )
    assert peak < 1 << 20
    assert "_twist_table" not in vars(L)
    assert quaternion == generates_group_oracle(L, l1, l2, k)
    assert octonion == generates_group_oracle(L, l1, l2, l3)


def test_commutant_at_sixteen_generators_builds_no_dense_table():
    z = make_scalar_group(2)
    L = CDLoop.all_minus_one(z, 16)
    A = make_product(z, [L])
    x = A.embed(1, L.mul(L.generator(2), L.generator(16)))
    result, peak = traced_peak(lambda: commutant(A, x))
    assert peak < 1 << 20
    assert "_twist_table" not in vars(L)
    # a rank-1 element commutes with |Z| * 2**n * b_1(n) = 2 * |Z| elements:
    # the scalars times its own coset and the identity's
    c = x.mask
    assert [A.element_index(y) for y in result] == [0, c, A.coset_count, A.coset_count + c]
