import random
import tracemalloc
from fractions import Fraction

import pytest

from cdloops import (
    CDLoop,
    Decomposition,
    DecompositionError,
    Scalar,
    factor_compatibility,
    find_isomorphism,
    infer_parameters,
    make_product,
    make_scalar_group,
    match_factors,
    random_relabel,
    rank_census_closed,
    rank_of,
    recover_factors,
    to_table,
)
from cdloops.analytics import b_k_closed
from cdloops.abstract_loop import AbstractLoop
from cdloops.verify import _dihedral_table

Z2 = make_scalar_group(2)
Z4 = make_scalar_group(4)
O = CDLoop.all_minus_one(Z2, 3)
SPLIT3 = CDLoop(Z2, (Z2.one, Z2.minus_one, Z2.one))
A2 = make_product(Z2, [O, O])
T2 = to_table(A2)


def test_infer_parameters_on_true_products():
    assert infer_parameters(T2, 3) == (2, 2)
    assert infer_parameters(to_table(O), 3) == (1, 2)
    assert infer_parameters(to_table(CDLoop.all_minus_one(Z4, 3)), 3) == (1, 4)
    assert infer_parameters(to_table(CDLoop.all_minus_one(Z2, 4)), 4) == (1, 2)


def test_infer_parameters_rejects_shallow_depths():
    q8 = to_table(CDLoop.all_minus_one(Z2, 2))
    with pytest.raises(ValueError, match="requires n >= 3"):
        infer_parameters(q8, 2)
    with pytest.raises(ValueError, match="requires n >= 3"):
        recover_factors(q8, 1)


def test_infer_parameters_rejects_wrong_coset_counts():
    # cyclic: the center is everything, so there are no cosets to split
    c96 = AbstractLoop([[(i + j) % 96 for j in range(96)] for i in range(96)])
    with pytest.raises(DecompositionError, match="not a positive power"):
        infer_parameters(c96, 3)
    # dihedral of order 12: 6 cosets of the center, not a power of 8
    with pytest.raises(DecompositionError, match="not a positive power"):
        infer_parameters(AbstractLoop(_dihedral_table(6)), 3)
    # dihedral of order 20: 10 cosets have the bit length of 8
    with pytest.raises(DecompositionError, match="= 10 is not a positive power"):
        infer_parameters(AbstractLoop(_dihedral_table(10)), 3)
    # octonion table read at the wrong depth
    with pytest.raises(DecompositionError, match="not a positive power"):
        infer_parameters(to_table(O), 4)


def test_infer_parameters_never_builds_a_power_of_the_depth():
    # A huge depth is refused from the bit length of |L|/|Z| alone, without
    # an integer of n bits.
    table = to_table(O)
    tracemalloc.start()
    try:
        with pytest.raises(DecompositionError, match="not a positive power"):
            infer_parameters(table, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rank_read_from_the_table():
    assert rank_of(T2, 0, 3) == 0
    minus_one = A2.element_index(A2.scale(Z2.minus_one, A2.identity))
    assert rank_of(T2, minus_one, 3) == 0
    l1 = A2.element_index(A2.embed(1, O.generator(1)))
    assert rank_of(T2, l1, 3) == 1
    both = A2.element_index(
        A2.pmul(A2.embed(1, O.generator(1)), A2.embed(2, O.generator(2)))
    )
    assert rank_of(T2, both, 3) == 2


@pytest.mark.parametrize("x", [-1, 128])
def test_rank_of_refuses_indices_outside_the_table(x):
    # Unchecked, numpy would read element 127's rank for -1.
    with pytest.raises(ValueError, match=rf"^index {x} is outside 0\.\.127$"):
        rank_of(T2, x, 3)


def set_based_recover_factors(loop: AbstractLoop, n: int) -> Decomposition:
    """Reference split on Python sets and lists, one element at a time."""
    m, z_size = infer_parameters(loop, n)
    lookup = {int(b_k_closed(n, k) * loop.size): k for k in range(m + 1)}
    counts = loop.commutant_sizes()
    for x, count in enumerate(counts):
        if count not in lookup:
            raise DecompositionError(
                f"element {x} commutes with {count} of {loop.size} elements, "
                f"a ratio {Fraction(count, loop.size)} matching no rank"
            )
    ranks = [lookup[count] for count in counts]
    center = loop.center()
    assigned = set(center)
    subsets: list[list[int]] = []
    for pivot in (x for x in range(loop.size) if ranks[x] == 1):
        if pivot in assigned:
            continue
        if len(subsets) == m:
            raise DecompositionError(f"element {pivot} has rank 1 but belongs to none")
        anti = {
            y for y in range(loop.size)
            if ranks[y] == 1 and loop.mul(pivot, y) != loop.mul(y, pivot)
        }
        members = loop.closure(anti | {pivot} | set(center))
        if len(members) != (1 << n) * z_size:
            raise DecompositionError(f"factor seeded at element {pivot} closes to")
        if (members & assigned) - set(center):
            raise DecompositionError("factors seeded at different pivots share")
        assigned |= members
        subsets.append(sorted(members))
    if len(subsets) != m:
        raise DecompositionError(f"recovered {len(subsets)} factors, expected {m}")
    factors = [loop.subloop(subset) for subset in subsets]
    return Decomposition(n, m, z_size, center, ranks, subsets, factors)


@pytest.mark.parametrize(
    "z, m",
    [(Z2, 1), (Z4, 1), (Z2, 2), (Z4, 2), (Z2, 3), (Z4, 3)],
    ids=["Z2-m1", "Z4-m1", "Z2-m2", "Z4-m2", "Z2-m3", "Z4-m3"],
)
def test_recover_factors_matches_the_set_based_oracle(z, m):
    gammas = [(z.minus_one,) * 3, (z.one, z.minus_one, z.one), (z.minus_one, z.one, z.one)]
    A = make_product(z, [CDLoop(z, gs) for gs in gammas[:m]])
    table = to_table(A, max_elements=A.order**2)
    shuffled, _ = random_relabel(table, random.Random(z.order * 10 + m))
    got = recover_factors(shuffled, 3)
    want = set_based_recover_factors(shuffled, 3)
    for field in ("m", "z_size", "center", "ranks", "subsets"):
        assert getattr(got, field) == getattr(want, field), field
    assert type(got.ranks[0]) is int and type(got.subsets[0][0]) is int
    assert got.factors == want.factors


def test_recovered_subsets_are_the_embedded_factors():
    dec = recover_factors(T2, 3)
    assert (dec.m, dec.z_size) == (2, 2)
    assert dec.center == [0, 64]
    assert dec.rank_histogram() == [2, 28, 98]
    embedded = [
        {A2.element_index(A2.embed(j + 1, x)) for x in O.elements()} for j in range(2)
    ]
    recovered = [set(s) for s in dec.subsets]
    assert sorted(map(sorted, recovered)) == sorted(map(sorted, embedded))
    for F in dec.factors:
        assert F.size == 16
        assert find_isomorphism(F, to_table(O)) is not None


def test_recover_rejects_non_product_tables_with_matching_size():
    # dihedral of order 16 has 8 center cosets but the wrong commutant profile
    with pytest.raises(DecompositionError, match="matching no rank"):
        recover_factors(AbstractLoop(_dihedral_table(8)), 3)


def test_round_trip_with_relabeling_and_mixed_gammas():
    rng = random.Random(20260825)
    cases = [
        (Z2, [(Z2.one, Z2.minus_one, Z2.one), (Z2.minus_one,) * 3]),
        (Z4, [(Scalar(Z4, 1), Z4.one, Z4.minus_one)]),
        (Z2, [(Z2.minus_one,) * 4, (Z2.one, Z2.one, Z2.minus_one, Z2.one)]),
    ]
    for z, gamma_lists in cases:
        factors = [CDLoop(z, gs) for gs in gamma_lists]
        A = make_product(z, factors)
        n = factors[0].n
        original = to_table(A)
        shuffled, _ = random_relabel(original, rng)
        dec = recover_factors(shuffled, n)
        assert dec.m == len(factors)
        assert dec.z_size == z.order
        assert dec.rank_histogram() == rank_census_closed(len(factors), n, z.order)
        base = recover_factors(original, n)
        sigma = match_factors(factor_compatibility(dec, base))
        assert sigma is not None
        assert sorted(sigma) == list(range(len(factors)))
        for j, F in enumerate(base.factors):
            assert find_isomorphism(F, to_table(factors[j])) is not None


def test_pivot_order_changes_nothing_essential():
    # Upward pivots on the reversed labels scan T2's pivots downward.
    asc = recover_factors(T2, 3)
    top = T2.size - 1
    desc = recover_factors(T2.relabel(range(top, -1, -1)), 3)
    back = [sorted(top - x for x in subset) for subset in desc.subsets]
    assert sorted(asc.subsets) == sorted(back)
    assert asc.subsets != back  # the scans seed the factors in opposite orders


def test_match_factors_finds_the_factor_swap():
    left = recover_factors(to_table(make_product(Z2, [O, SPLIT3])), 3)
    right = recover_factors(to_table(make_product(Z2, [SPLIT3, O])), 3)
    sigma = match_factors(factor_compatibility(left, right))
    assert sigma is not None
    assert sorted(sigma) == [0, 1]
    for j in range(2):
        assert find_isomorphism(left.factors[j], right.factors[sigma[j]]) is not None
    # O and the mixed-gamma loop are non-isomorphic, so the pairing is forced
    o_side = [find_isomorphism(F, to_table(O)) is not None for F in left.factors]
    o_image = [
        find_isomorphism(right.factors[sigma[j]], to_table(O)) is not None
        for j in range(2)
    ]
    assert o_side == o_image and o_side.count(True) == 1


def test_match_factors_failure_modes():
    both_o = recover_factors(to_table(make_product(Z2, [O, O])), 3)
    mixed = recover_factors(to_table(make_product(Z2, [O, SPLIT3])), 3)
    assert match_factors(factor_compatibility(both_o, mixed)) is None
    single = recover_factors(to_table(O), 3)
    with pytest.raises(ValueError):
        match_factors(factor_compatibility(single, both_o))


def test_match_factors_returns_the_lexicographically_first_matching():
    T, F = True, False
    # Three perfect matchings, (0, 2, 1), (1, 2, 0) and (2, 0, 1).
    assert match_factors([[T, T, T], [T, F, T], [T, T, F]]) == [0, 2, 1]
    # Two, (1, 0, 2) and (1, 2, 0); sigma[0] = 0 admits none.
    assert match_factors([[T, T, F], [T, F, T], [T, F, T]]) == [1, 0, 2]
    # Rows 1 and 2 both need column 0.
    assert match_factors([[T, T, T], [T, F, F], [T, F, F]]) is None


def test_match_factors_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="different factor counts: 1 and 2"):
        match_factors([[True, True]])
    with pytest.raises(ValueError, match="different factor counts: 2 and 1"):
        match_factors([[True], [True]])


def test_factor_tables_are_loops_in_their_own_right():
    dec = recover_factors(T2, 3)
    for F in dec.factors:
        AbstractLoop(F.table)  # revalidates Latin + identity
        assert sorted(F.element_orders()) == sorted(to_table(O).element_orders())
