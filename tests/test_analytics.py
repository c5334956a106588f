from fractions import Fraction

import pytest

from cdloops import *
from cdloops import make_scalar_group

Z2 = make_scalar_group(2)
Z4 = make_scalar_group(4)
O = CDLoop.all_minus_one(Z2, 3)
A2 = make_product(Z2, [O, O])


def test_commuting_fraction_by_rank_exact_values():
    assert b_k_closed(2, 0) == 1
    assert b_k_closed(3, 0) == 1
    assert b_k_closed(3, 1) == Fraction(1, 4)
    assert b_k_closed(3, 2) == Fraction(5, 8)
    assert b_k_closed(3, 3) == Fraction(7, 16)
    assert b_k_closed(4, 1) == Fraction(1, 8)
    for k in range(1, 8):
        assert b_k_closed(2, k) == Fraction(1, 2)


def test_commuting_fraction_recurrence():
    # adding one more non-scalar factor flips agreement with probability 1-p
    for n in range(2, 7):
        p = Fraction(1, 2 ** (n - 1))
        for k in range(1, 9):
            prev = b_k_closed(n, k - 1)
            assert b_k_closed(n, k) == p * prev + (1 - p) * (1 - prev)


def test_commuting_fraction_range():
    for n in range(1, 8):
        for k in range(0, 10):
            assert 0 < b_k_closed(n, k) <= 1


def test_rank_census_closed_values():
    assert rank_census_closed(2, 3, 2) == [2, 28, 98]
    assert rank_census_closed(2, 3, 4) == [4, 56, 196]
    assert rank_census_closed(1, 3, 2) == [2, 14]
    assert rank_census_closed(1, 4, 6) == [6, 90]
    assert rank_census_closed(3, 3, 2) == [2, 42, 294, 686]
    assert sum(rank_census_closed(3, 3, 2)) == 2 * 8 ** 3


def test_rank_census_brute_matches_closed():
    for m, n, zo in [(1, 2, 2), (1, 3, 4), (2, 2, 2), (2, 3, 2), (3, 2, 2)]:
        z = make_scalar_group(zo)
        A = make_product(z, [CDLoop.all_minus_one(z, n)] * m)
        assert rank_census_brute(A) == rank_census_closed(m, n, zo)


def test_rank_census_ignores_gamma_choice():
    A = make_product(Z4, [CDLoop(Z4, (Z4.one, Scalar(Z4, 1), Z4.minus_one))] * 2)
    assert rank_census_brute(A) == rank_census_closed(2, 3, 4)


def test_commutant_of_scalar_is_everything():
    minus = A2.scale(Z2.minus_one, A2.identity)
    assert len(commutant(A2, A2.identity)) == 128
    assert len(commutant(A2, minus)) == 128


def test_commutant_contains_scalars_and_the_element():
    x = A2.pmul(A2.embed(1, O.generator(1)), A2.embed(2, O.generator(3)))
    c = commutant(A2, x)
    assert x in c
    assert A2.identity in c
    assert A2.scale(Z2.minus_one, A2.identity) in c
    assert A2.pmul(x, x) in c


def test_commutant_sizes_at_each_rank():
    # |C(y)| = |Z| * b_rank * 2^(m*n); rank 1 specializes to |Z| * 2^((m-1)n+1)
    l1 = A2.embed(1, O.generator(1))
    assert len(commutant(A2, l1)) == 32
    rank2 = A2.pmul(l1, A2.embed(2, O.generator(2)))
    assert len(commutant(A2, rank2)) == 80


def test_commutant_coset_sizes_match_rank_formula():
    sizes = commutant_coset_sizes(A2)
    assert len(sizes) == 64
    for combined, size in enumerate(sizes):
        k = A2.element(Z2.one, A2.split_mask(combined)).rank
        assert Fraction(size, 64) == b_k_closed(3, k)
    assert sizes[0] == 64
    assert sizes[1] == 16
    assert sizes[1 | 8] == 40


def test_commutativity_degree_closed_values():
    assert commutativity_degree_closed(1, 2).degree == Fraction(5, 8)
    assert commutativity_degree_closed(1, 3).degree == Fraction(11, 32)
    assert commutativity_degree_closed(2, 2).degree == Fraction(17, 32)
    assert commutativity_degree_closed(2, 3).degree == Fraction(281, 512)
    r = commutativity_degree_closed(2, 3)
    assert (r.favorable, r.total) == (8992, 16384)


def test_commutativity_degree_closed_single_factor_formula():
    # m = 1 degenerates to scalars + (non-scalars commuting with rate p)
    for n in range(1, 9):
        p = Fraction(1, 2 ** (n - 1))
        q = Fraction(1, 2 ** n)
        assert commutativity_degree_closed(1, n).degree == q + (1 - q) * p


def test_two_factor_polynomial_matches_general_formula():
    for n in range(1, 9):
        assert two_factor_commutativity_closed(n) == commutativity_degree_closed(2, n).degree


def test_commutativity_degree_brute_matches_closed():
    for m, n, zo in [(1, 2, 2), (1, 3, 2), (2, 2, 2), (2, 3, 2), (2, 2, 4), (3, 2, 2)]:
        z = make_scalar_group(zo)
        A = make_product(z, [CDLoop.all_minus_one(z, n)] * m)
        brute = commutativity_degree_brute(A)
        closed = commutativity_degree_closed(m, n, zo)
        assert brute.degree == closed.degree
        assert brute.favorable == closed.favorable
        assert brute.total == closed.total == A.order ** 2


def test_commutativity_degree_ignores_gamma_choice():
    A = make_product(Z2, [CDLoop(Z2, (Z2.one, Z2.minus_one)), CDLoop(Z2, (Z2.one, Z2.one))])
    assert commutativity_degree_brute(A).degree == Fraction(17, 32)


def test_limit_trends():
    rows = pc_limit_table("grow_n", 2, 2, 10)
    degrees = [d for _, d in rows]
    assert degrees[0] == Fraction(17, 32)
    assert all(a < b for a, b in zip(degrees, degrees[1:]))
    assert degrees[-1] > Fraction(99, 100)
    rows = pc_limit_table("grow_m", 2, 1, 4)
    assert [d for _, d in rows] == [
        Fraction(5, 8),
        Fraction(17, 32),
        Fraction(65, 128),
        Fraction(257, 512),
    ]
    with pytest.raises(ValueError):
        pc_limit_table("grow_k", 2, 1, 4)


def test_generates_group_when_the_loop_is_one():
    L = CDLoop.all_minus_one(Z2, 2)
    for x in L.elements():
        for y in L.elements():
            for z in L.elements():
                assert generates_group(L, x, y, z)


def test_generates_group_octonion_cases():
    l1, l2, l3 = (O.generator(i) for i in (1, 2, 3))
    assert not generates_group(O, l1, l2, l3)
    for x in O.elements():
        for y in O.elements():
            assert generates_group(O, x, y, O.identity)
    # any triple inside the quaternion subloop associates
    k = O.mul(l1, l2)
    assert generates_group(O, l1, l2, k)


def test_associativity_degree_closed_values():
    assert associativity_degree_closed(2).degree == 1
    assert associativity_degree_closed(3).degree == Fraction(43, 64)
    assert associativity_degree_closed(4).degree == Fraction(197, 512)
    r = associativity_degree_closed(3)
    assert (r.favorable, r.total) == (2752, 4096)


def test_associativity_degree_brute_matches_closed():
    for n in (1, 2, 3):
        brute = associativity_degree_brute(CDLoop.all_minus_one(Z2, n))
        assert brute.degree == associativity_degree_closed(n).degree
        assert brute.total == (2 * 2 ** n) ** 3


def test_associativity_degree_independent_of_z_and_gammas():
    assert associativity_degree_brute(CDLoop.all_minus_one(Z4, 3)).degree == Fraction(43, 64)
    mixed = CDLoop(Z2, (Z2.one, Z2.minus_one, Z2.one))
    assert associativity_degree_brute(mixed).degree == Fraction(43, 64)
    mixed4 = CDLoop(Z4, (Scalar(Z4, 1), Z4.minus_one, Z4.one))
    assert associativity_degree_brute(mixed4).degree == Fraction(43, 64)


def test_degree_reports_are_exact_counts():
    r = commutativity_degree_brute(A2)
    assert r.degree == Fraction(r.favorable, r.total)
    assert r.method == "brute"
    assert (r.m, r.n, r.z_order) == (2, 3, 2)


def test_commutator_and_associator_images_are_signs():
    assert commutator_exponent_image(A2) == {0, 1}
    assert associator_exponent_image(A2) == {0, 1}
    A4 = make_product(Z4, [CDLoop(Z4, (Scalar(Z4, 1), Z4.one, Z4.minus_one))] * 2)
    assert commutator_exponent_image(A4) == {0, 2}
    assert associator_exponent_image(A4) == {0, 2}


def test_brute_budget_guards():
    with pytest.raises(BudgetExceeded):
        commutativity_degree_brute(A2, max_elements=100)
    with pytest.raises(BudgetExceeded):
        associativity_degree_brute(O, max_elements=10)
    with pytest.raises(BudgetExceeded):
        rank_census_brute(A2, max_elements=100)


def test_coset_surveys_charge_coset_work():
    L6 = CDLoop.all_minus_one(Z2, 6)
    brute = associativity_degree_brute(L6, max_elements=1 << 18)
    assert brute.degree == associativity_degree_closed(6).degree
    assert brute.total == L6.order**3
    with pytest.raises(BudgetExceeded, match="coset triples needs 2097152 items"):
        associativity_degree_brute(CDLoop.all_minus_one(Z2, 7))
    # The charge is 8**n coset triples and 4**n coset pairs, whatever |Z|.
    L = CDLoop.all_minus_one(Z4, 3)
    assert associativity_degree_brute(L, max_elements=512).degree == Fraction(43, 64)
    assert moufang_identity_holds(L, max_elements=512)
    assert is_di_associative(L, max_elements=64)
    for survey, cells in (
        (associativity_degree_brute, 512),
        (moufang_identity_holds, 512),
        (is_di_associative, 64),
    ):
        with pytest.raises(BudgetExceeded, match=f"over coset (triples|pairs) needs {cells} "):
            survey(L, max_elements=cells - 1)
