import pytest

from cdloops import Scalar, make_scalar_group


def test_rejects_odd_or_tiny_orders():
    for bad in (1, 3, 5, 7, 0, -2):
        with pytest.raises(ValueError):
            make_scalar_group(bad)


def test_one_and_minus_one():
    for order in (2, 4, 6, 8, 16):
        z = make_scalar_group(order)
        assert z.one.exponent == 0
        assert z.minus_one.exponent == order // 2
        assert z.minus_one != z.one
        assert z.minus_one * z.minus_one == z.one


def test_multiplication_adds_exponents():
    z = make_scalar_group(4)
    a, b = Scalar(z, 1), Scalar(z, 3)
    assert a * b == z.one
    assert a * a == z.minus_one


def test_inverse_examples():
    z2 = make_scalar_group(2)
    assert Scalar(z2, 0).inv() == Scalar(z2, 0)
    assert Scalar(z2, 1).inv() == Scalar(z2, 1)
    z4 = make_scalar_group(4)
    assert Scalar(z4, 1).inv() == Scalar(z4, 3)


def test_group_axioms_exhaustive_small_orders():
    for order in (2, 4, 8, 16):
        z = make_scalar_group(order)
        elems = z.elements()
        assert len(elems) == order
        for a in elems:
            assert a * a.inv() == z.one
            for b in elems:
                assert a * b == b * a


def test_mixed_groups_rejected():
    z2, z4 = make_scalar_group(2), make_scalar_group(4)
    with pytest.raises(ValueError):
        z2.one * z4.one


def test_parse_shorthands_and_exponents():
    z = make_scalar_group(4)
    assert z.parse("+1") == z.one
    assert z.parse("-1") == z.minus_one
    assert z.parse("1") == Scalar(z, 1)
    assert z.parse("3") == Scalar(z, 3)
    assert z.parse("5") == Scalar(z, 1)
    with pytest.raises(ValueError):
        z.parse("banana")


def test_parse_reads_only_a_sign_and_ascii_digits():
    z = make_scalar_group(12)
    assert z.parse("+5") == Scalar(z, 5)
    assert z.parse("-5") == Scalar(z, 7)
    assert z.parse("-13") == Scalar(z, 11)
    assert z.parse(" 013 ") == Scalar(z, 1)
    # int() reads digit separators and non-ASCII digits; the CLI does not.
    for token in ("1_0", "\u0663", "\u00b2", "+-1", "--1", "+", "-", "", "1 0", "1.0", "0x3"):
        with pytest.raises(ValueError, match="^cannot parse scalar token"):
            z.parse(token)


def test_format_round_trips():
    for order in (2, 4, 8):
        z = make_scalar_group(order)
        for s in z.elements():
            assert z.parse(z.format(s)) == s
    z = make_scalar_group(4)
    assert z.format(z.one) == "+1"
    assert z.format(z.minus_one) == "-1"
    assert z.format(Scalar(z, 1)) == "1"


def test_exponents_reduced_modulo_order():
    z = make_scalar_group(4)
    assert z.scalar(7) == Scalar(z, 3)
    assert z.scalar(-1) == Scalar(z, 3)
