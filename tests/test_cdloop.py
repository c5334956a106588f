import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_twist_kernel import reference_twist

from cdloops import CDLoop, Scalar, make_product, make_scalar_group
from cdloops.errors import BudgetExceeded

Z2 = make_scalar_group(2)
Z4 = make_scalar_group(4)

QUATERNIONS = CDLoop.all_minus_one(Z2, 2)
OCTONIONS = CDLoop.all_minus_one(Z2, 3)


def test_basic_shape():
    assert QUATERNIONS.n == 2
    assert QUATERNIONS.order == 8
    assert OCTONIONS.order == 16
    assert CDLoop.all_minus_one(Z4, 3).order == 32
    assert CDLoop(Z4, ()).order == 4


def test_generator_count_cap():
    with pytest.raises(ValueError):
        CDLoop.all_minus_one(Z2, 17)


def test_all_minus_one_checks_n_before_building_gammas():
    for n in (-1, 17):
        with pytest.raises(ValueError, match=f"n must be in 0..16, got {n}"):
            CDLoop.all_minus_one(Z2, n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            CDLoop.all_minus_one(Z2, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gamma_group_must_match():
    with pytest.raises(ValueError):
        CDLoop(Z2, (Z4.minus_one,))


def test_generator_indexing():
    l1 = QUATERNIONS.generator(1)
    assert l1.mask == 1 and l1.scalar.is_one
    assert QUATERNIONS.generator(2).mask == 2
    with pytest.raises(ValueError):
        QUATERNIONS.generator(0)
    with pytest.raises(ValueError):
        QUATERNIONS.generator(3)


# Hand-computed quaternion twist exponents: rows e = 0..3, columns f = 0..3,
# masks 1 -> i, 2 -> j, 3 -> k.  Encodes i*j = k, j*i = -k, k*k = -1, etc.
Q8_TWIST = [
    [0, 0, 0, 0],
    [0, 1, 0, 1],
    [0, 1, 1, 0],
    [0, 0, 1, 1],
]


def test_quaternion_twist_table_matches_hand_computation():
    for e in range(4):
        for f in range(4):
            assert QUATERNIONS.twist_exp(e, f) == Q8_TWIST[e][f], (e, f)


def test_twist_identity_and_squares():
    for L in (QUATERNIONS, OCTONIONS, CDLoop.all_minus_one(Z4, 3)):
        for f in range(1 << L.n):
            assert L.twist_exp(0, f) == 0
            assert L.twist_exp(f, 0) == 0
    # l_i**2 = gamma_i by construction
    mixed = CDLoop(Z4, (Z4.one, Z4.minus_one, Scalar(Z4, 1)))
    for i in range(3):
        assert mixed.twist_exp(1 << i, 1 << i) == mixed.gammas[i].exponent


def test_twist_mask_range_checked():
    with pytest.raises(ValueError, match="does not fit in 2 bits"):
        QUATERNIONS.twist(4, 0)
    with pytest.raises(ValueError):
        QUATERNIONS.twist(0, -1)


def test_quaternion_relations():
    L = QUATERNIONS
    i, j = L.generator(1), L.generator(2)
    k = L.mul(i, j)
    assert k.mask == 3 and k.scalar.is_one
    assert L.mul(i, i) == L.element(Z2.minus_one, 0)
    assert L.mul(j, j) == L.element(Z2.minus_one, 0)
    assert L.mul(k, k) == L.element(Z2.minus_one, 0)
    assert L.mul(j, i) == L.element(Z2.minus_one, 3)
    assert L.commutator(i, j) == L.element(Z2.minus_one, 0)
    # the quaternion loop is a group
    for x in L.elements():
        for y in L.elements():
            for z in L.elements():
                assert L.associator(x, y, z) == L.identity


def test_octonion_bracketings_differ_by_sign():
    L = OCTONIONS
    l1, l2, l3 = L.generator(1), L.generator(2), L.generator(3)
    left = L.mul(L.mul(l1, l2), l3)
    right = L.mul(l1, L.mul(l2, l3))
    assert left == L.element(Z2.one, 7)
    assert right == L.element(Z2.minus_one, 7)
    assert L.associator(l1, l2, l3) == L.element(Z2.minus_one, 0)


def conj_oracle(L, x):
    # Apply the doubling involution one level at a time: with x = q + r*l at
    # the top level, sigma(x) = sigma(q) - r*l, so a monomial picks up exactly
    # one sign at its highest generator and the recursion stops there.
    def rec(level, exp, mask):
        if level == 0:
            return exp, mask
        top = 1 << (level - 1)
        if mask & top:
            return (exp + L.z.order // 2) % L.z.order, mask
        return rec(level - 1, exp, mask)

    exp, mask = rec(L.n, x.scalar.exponent, x.mask)
    return L.element(Scalar(L.z, exp), mask)


def test_conj_matches_level_recursion():
    for L in (QUATERNIONS, OCTONIONS, CDLoop(Z4, (Z4.one, Z4.minus_one))):
        for x in L.elements():
            assert L.conj(x) == conj_oracle(L, x)


def test_conj_involution_and_anti_automorphism_exhaustive():
    for L in (QUATERNIONS, OCTONIONS, CDLoop(Z4, (Scalar(Z4, 1), Z4.one))):
        elems = L.elements()
        for x in elems:
            assert L.conj(L.conj(x)) == x
            for y in elems:
                assert L.conj(L.mul(x, y)) == L.mul(L.conj(y), L.conj(x))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 63),
    st.integers(0, 3),
    st.integers(0, 63),
    st.integers(0, 2 ** 6 - 1),
)
def test_conj_anti_automorphism_large_n(ze, xe, zf, xf, gbits):
    gammas = tuple(Z4.minus_one if gbits >> i & 1 else Z4.one for i in range(6))
    L = CDLoop(Z4, gammas)
    x = L.element(Scalar(Z4, ze), xe)
    y = L.element(Scalar(Z4, zf), xf)
    assert L.conj(L.mul(x, y)) == L.mul(L.conj(y), L.conj(x))
    assert L.conj(L.conj(x)) == x


def test_norm_is_central():
    # x * conj(x) always lands in the scalar part
    for L in (QUATERNIONS, OCTONIONS, CDLoop(Z4, (Z4.one, Z4.minus_one, Scalar(Z4, 3)))):
        for x in L.elements():
            assert L.mul(x, L.conj(x)).is_scalar
            assert L.mul(L.conj(x), x).is_scalar


def test_inverses_two_sided():
    for L in (QUATERNIONS, OCTONIONS, CDLoop(Z4, (Scalar(Z4, 1), Scalar(Z4, 2)))):
        for x in L.elements():
            assert L.mul(x, L.inv(x)) == L.identity
            assert L.mul(L.inv(x), x) == L.identity


def test_inverse_examples():
    plus = CDLoop(Z2, (Z2.one,))
    l1 = plus.generator(1)
    assert plus.inv(l1) == l1
    minus = CDLoop(Z2, (Z2.minus_one,))
    assert minus.inv(minus.generator(1)) == minus.element(Z2.minus_one, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1), st.integers(0, 255), st.integers(0, 1), st.integers(0, 255))
def test_inverse_two_sided_large_n(ze, xe, zf, xf):
    L = CDLoop.all_minus_one(Z2, 8)
    x = L.element(Scalar(Z2, ze), xe)
    y = L.element(Scalar(Z2, zf), xf)
    assert L.mul(x, L.inv(x)) == L.identity
    assert L.mul(L.inv(L.mul(x, y)), L.mul(x, y)) == L.identity


def test_commutators_and_associators_are_signs():
    for L in (OCTONIONS, CDLoop(Z4, (Z4.one, Z4.minus_one)), CDLoop.all_minus_one(Z4, 2)):
        one = L.z.one
        minus = L.z.minus_one
        elems = L.elements()
        for x in elems:
            for y in elems:
                c = L.commutator(x, y)
                assert c.mask == 0 and c.scalar in (one, minus)
        for e in range(1 << L.n):
            for f in range(1 << L.n):
                for g in range(1 << L.n):
                    x = L.element(one, e)
                    a = L.associator(x, L.element(one, f), L.element(one, g))
                    assert a.mask == 0 and a.scalar in (one, minus)


def test_mask_map_is_a_homomorphism_onto_bit_vectors():
    # x -> mask sends multiplication to XOR; its kernel is exactly Z
    for L in (QUATERNIONS, OCTONIONS):
        for x in L.elements():
            for y in L.elements():
                assert L.mul(x, y).mask == x.mask ^ y.mask
        kernel = [x for x in L.elements() if x.mask == 0]
        assert len(kernel) == L.z.order
        assert all(x.is_scalar for x in kernel)
        assert {x.mask for x in L.elements()} == set(range(1 << L.n))


def test_enumeration_counts_and_order():
    assert len(QUATERNIONS.elements()) == 8
    assert len(OCTONIONS.elements()) == 16
    trivial = CDLoop(Z4, ())
    elems = trivial.elements()
    assert len(elems) == 4
    assert [x.scalar.exponent for x in elems] == [0, 1, 2, 3]
    # scalar-major then mask
    masks = [x.mask for x in QUATERNIONS.elements()]
    assert masks == [0, 1, 2, 3, 0, 1, 2, 3]


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        QUATERNIONS.elements(max_elements=4)


def test_foreign_elements_rejected():
    other = CDLoop(Z2, (Z2.one, Z2.one))
    with pytest.raises(ValueError):
        QUATERNIONS.mul(QUATERNIONS.identity, other.identity)
    with pytest.raises(ValueError):
        QUATERNIONS.element(Z4.one, 0)
    with pytest.raises(ValueError):
        QUATERNIONS.element(Z2.one, 4)


def test_di_associativity_small_loops():
    from cdloops import is_di_associative

    for L in (
        QUATERNIONS,
        OCTONIONS,
        CDLoop.all_minus_one(Z2, 4),
        CDLoop(Z4, (Z4.one, Z4.minus_one, Scalar(Z4, 1))),
    ):
        assert is_di_associative(L)


def test_moufang_identity_up_to_octonions_but_not_beyond():
    from cdloops import moufang_identity_holds

    assert moufang_identity_holds(QUATERNIONS)
    assert moufang_identity_holds(OCTONIONS)
    assert moufang_identity_holds(CDLoop(Z2, (Z2.one, Z2.minus_one, Z2.one)))
    assert not moufang_identity_holds(CDLoop.all_minus_one(Z2, 4))


def test_element_rendering():
    L = OCTONIONS
    assert str(L.identity) == "+1"
    assert str(L.element(Z2.minus_one, 5)) == "-1*l1l3"
    assert str(L.generator(2)) == "l2"
    assert L.describe() == "(-1,-1,-1)_Z2"


def test_describe_mixed_gammas():
    L = CDLoop(Z4, (Z4.one, Scalar(Z4, 1)))
    assert L.describe() == "(+1,1)_Z4"


# -- a loop is its own one-factor central product -----------------------------
#
# The oracle below writes out the (scalar exponent, mask) formulas of one
# loop directly on the recursive doubling law, sharing no code with
# CentralProduct's arithmetic or with twist_exp.


def oracle_mul(L, a, b):
    (s, e), (t, f) = a, b
    return (s + t + reference_twist(L, L.n, e, f)) % L.z.order, e ^ f


def oracle_inv(L, a):
    s, e = a
    return (-s - reference_twist(L, L.n, e, e)) % L.z.order, e


def oracle_conj(L, a):
    s, e = a
    return (s + (L.z.order // 2 if e else 0)) % L.z.order, e


def oracle_commutator(L, a, b):
    return oracle_mul(L, oracle_mul(L, a, b), oracle_inv(L, oracle_mul(L, b, a)))


def oracle_associator(L, a, b, c):
    left = oracle_mul(L, oracle_mul(L, a, b), c)
    right = oracle_mul(L, a, oracle_mul(L, b, c))
    return oracle_mul(L, left, oracle_inv(L, right))


def pair(x):
    return x.scalar.exponent, x.mask


def assert_matches_oracle(L, x, y, z):
    a, b, c = pair(x), pair(y), pair(z)
    assert pair(L.mul(x, y)) == oracle_mul(L, a, b)
    assert pair(L.inv(x)) == oracle_inv(L, a)
    assert pair(L.conj(x)) == oracle_conj(L, a)
    assert pair(L.commutator(x, y)) == oracle_commutator(L, a, b)
    assert pair(L.associator(x, y, z)) == oracle_associator(L, a, b, c)


@pytest.mark.parametrize("order", (2, 4, 6))
def test_loop_arithmetic_matches_the_scalar_mask_formulas(order):
    rng = random.Random(order)
    z = make_scalar_group(order)
    for n in range(4):
        L = CDLoop(z, tuple(Scalar(z, rng.randrange(order)) for _ in range(n)))
        elems = L.elements()
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert_matches_oracle(L, x, y, elems[(7 * i + j) % len(elems)])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 4, 6)),
    st.sampled_from((8, 16)),
    st.lists(st.integers(0, 5), min_size=16, max_size=16),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**16 - 1)), min_size=3, max_size=3),
)
def test_loop_arithmetic_matches_the_formulas_at_large_n(order, n, gexps, picks):
    z = make_scalar_group(order)
    L = CDLoop(z, tuple(Scalar(z, g % order) for g in gexps[:n]))
    x, y, w = (L.element(Scalar(z, s % order), mask % (1 << n)) for s, mask in picks)
    assert_matches_oracle(L, x, y, w)


def test_loop_elements_are_its_one_factor_product_elements():
    for L in (QUATERNIONS, OCTONIONS, CDLoop(Z4, (Z4.one, Scalar(Z4, 1)))):
        elems = L.elements()
        assert L.product == make_product(L.z, [L])
        via_product = make_product(L.z, [L]).penumerate()
        assert len(elems) == len(via_product) == L.order
        for x, y in zip(elems, via_product):
            assert type(x) is type(y)
            assert x == y and hash(x) == hash(y)
        assert L.identity == L.product.identity
        assert L.generator(2) == L.product.element(L.z.one, (2,))


def test_loop_views_keep_the_product_checks():
    with pytest.raises(BudgetExceeded, match="product enumeration"):
        OCTONIONS.elements(max_elements=15)
    foreign = make_product(Z2, [OCTONIONS, OCTONIONS]).identity
    for view in (OCTONIONS.inv, OCTONIONS.conj):
        with pytest.raises(ValueError, match="different product"):
            view(foreign)
