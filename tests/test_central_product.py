import pytest

from cdloops import (
    CDLoop,
    CentralProduct,
    ProductElement,
    Scalar,
    coset_twist_matrix,
    make_product,
    make_scalar_group,
)
from cdloops.errors import BudgetExceeded

Z2 = make_scalar_group(2)
Z4 = make_scalar_group(4)

O = CDLoop.all_minus_one(Z2, 3)
A2 = make_product(Z2, [O, O])


def test_shape_of_two_octonion_factors():
    assert A2.m == 2
    assert A2.n == 3
    assert A2.coset_count == 64
    assert A2.order == 128


def test_validation_errors():
    with pytest.raises(ValueError):
        make_product(Z2, [])
    with pytest.raises(ValueError):
        make_product(Z2, [O, CDLoop.all_minus_one(Z4, 3)])
    with pytest.raises(ValueError):
        make_product(Z2, [O, CDLoop.all_minus_one(Z2, 2)])


def test_single_factor_matches_plain_loop():
    A = make_product(Z2, [O])
    assert A.order == O.order
    for x, px in zip(O.elements(), A.penumerate()):
        assert px.scalar == x.scalar and px.masks == (x.mask,)
    for x in O.elements():
        for y in O.elements():
            direct = O.mul(x, y)
            through = A.pmul(A.embed(1, x), A.embed(1, y))
            assert through == A.embed(1, direct)


def test_element_operators_are_the_product_arithmetic():
    x = A2.pmul(A2.embed(1, O.generator(1)), A2.embed(2, O.generator(3)))
    y = A2.embed(2, O.generator(2))
    assert x * y == A2.pmul(x, y)
    assert y * x == A2.pmul(y, x) != x * y
    assert x.inv() == A2.pinv(x)
    assert x * x.inv() == x.inv() * x == A2.identity


def test_embedding_preserves_factor_arithmetic():
    l1 = O.generator(1)
    assert A2.embed(1, O.identity) == A2.identity
    assert A2.embed(2, O.identity) == A2.identity
    sq = A2.pmul(A2.embed(1, l1), A2.embed(1, l1))
    assert sq == A2.embed(1, O.mul(l1, l1))
    assert sq.scalar == Z2.minus_one and sq.masks == (0, 0)
    with pytest.raises(ValueError):
        A2.embed(3, l1)
    with pytest.raises(ValueError):
        A2.embed(1, CDLoop.all_minus_one(Z2, 2).generator(1))


def test_central_gluing_identifies_scalars_across_factors():
    # -1 from factor 1 and -1 from factor 2 are the same product element
    minus = O.element(Z2.minus_one, 0)
    assert A2.embed(1, minus) == A2.embed(2, minus)
    assert A2.embed(1, minus) == A2.scale(Z2.minus_one, A2.identity)


def test_distinct_factors_commute_and_associate_exhaustively():
    for x in O.elements():
        ex = A2.embed(1, x)
        for y in O.elements():
            ey = A2.embed(2, y)
            assert A2.pmul(ex, ey) == A2.pmul(ey, ex)
            assert A2.pcommutator(ex, ey) == A2.identity
    l1, l2, l3 = (O.generator(i) for i in (1, 2, 3))
    # associators vanish whenever the three slots use at most one factor twice
    a = A2.passociator(A2.embed(1, l1), A2.embed(2, l2), A2.embed(1, l3))
    assert a == A2.identity


def test_in_factor_associator_survives_embedding():
    l1, l2, l3 = (O.generator(i) for i in (1, 2, 3))
    a = A2.passociator(A2.embed(1, l1), A2.embed(1, l2), A2.embed(1, l3))
    assert a == A2.scale(Z2.minus_one, A2.identity)


def test_rank_examples():
    l1 = O.generator(1)
    assert A2.identity.rank == 0
    assert A2.scale(Z2.minus_one, A2.identity).rank == 0
    assert A2.embed(1, l1).rank == 1
    both = A2.pmul(A2.embed(1, l1), A2.embed(2, O.generator(2)))
    assert both.rank == 2
    assert both.masks == (1, 2)
    # rank ignores the scalar part
    assert A2.scale(Z2.minus_one, both).rank == 2


def test_pinv_two_sided_exhaustive():
    mixed = make_product(
        Z4,
        [CDLoop(Z4, (Z4.one, Z4.minus_one)), CDLoop(Z4, (Scalar(Z4, 1), Scalar(Z4, 3)))],
    )
    for x in mixed.penumerate():
        assert mixed.pmul(x, mixed.pinv(x)) == mixed.identity
        assert mixed.pmul(mixed.pinv(x), x) == mixed.identity


def test_enumeration_and_index_round_trip():
    elems = A2.penumerate()
    assert len(elems) == 128
    assert len(set(elems)) == 128
    for i, x in enumerate(elems):
        assert A2.element_index(x) == i
        assert A2.element_at(i) == x
        assert hash(A2.element_at(i)) == hash(x)
    with pytest.raises(ValueError):
        A2.element_at(128)
    with pytest.raises(ValueError):
        A2.element_at(-1)


def test_combined_mask_puts_factor_one_in_low_bits():
    x = ProductElement(A2, Z2.one, (0b101, 0b011))
    assert x.mask == 0b011101
    assert A2.split_mask(0b011101) == (0b101, 0b011)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        A2.penumerate(max_elements=64)


def test_element_validation():
    with pytest.raises(ValueError):
        ProductElement(A2, Z4.one, (0, 0))
    with pytest.raises(ValueError):
        ProductElement(A2, Z2.one, (0,))
    with pytest.raises(ValueError, match="does not fit in 3 bits"):
        ProductElement(A2, Z2.one, (8, 0))
    other = make_product(Z2, [O])
    with pytest.raises(ValueError):
        A2.pmul(A2.identity, other.identity)


def test_coset_twist_matrix_matches_pmul():
    A = make_product(Z2, [CDLoop.all_minus_one(Z2, 2), CDLoop(Z2, (Z2.one, Z2.minus_one))])
    M = coset_twist_matrix(A)
    assert M.shape == (16, 16)
    for c1 in range(16):
        x = A.element(Z2.one, A.split_mask(c1))
        for c2 in range(16):
            y = A.element(Z2.one, A.split_mask(c2))
            assert M[c1, c2] == A.pmul(x, y).scalar.exponent


def test_rendering():
    l1 = O.generator(1)
    x = A2.pmul(A2.embed(1, l1), A2.embed(2, O.generator(2)))
    assert str(x) == "l1@1*l2@2"
    assert str(A2.scale(Z2.minus_one, x)) == "-1*l1@1*l2@2"
    assert str(A2.identity) == "+1"
    assert A2.describe() == "(-1,-1,-1)_Z2 * (-1,-1,-1)_Z2"


def test_rendering_tags_factors_only_in_products_of_two_or_more():
    l1, l2 = O.generator(1), O.generator(2)
    assert str(O.mul(l1, l2)) == "l1l2"
    assert "@" not in str(O.element(Z2.minus_one, 7))
    assert str(A2.embed(2, l1)) == "l1@2"
    assert str(A2.scale(Z2.minus_one, A2.embed(1, O.mul(l1, l2)))) == "-1*l1l2@1"


def test_element_index_is_scalar_major_over_the_combined_mask():
    A = make_product(Z4, [CDLoop.all_minus_one(Z4, 2)] * 3)
    for x in A.penumerate():
        assert A.element_index(x) == x.scalar.exponent * A.coset_count + x.mask
        assert A.split_mask(x.mask) == x.masks
    for L in (O, CDLoop.all_minus_one(Z4, 2)):
        for x in L.elements():
            assert x.mask == x.masks[0]
