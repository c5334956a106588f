"""Acceptance gate: one test per criterion, one printed pass line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
every check is an exact equality, there are no tolerances anywhere.
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from cdloops import (
    AbstractLoop,
    CDLoop,
    Scalar,
    associativity_degree_brute,
    associativity_degree_closed,
    associator_exponent_image,
    b_k_closed,
    commutant_coset_sizes,
    commutativity_degree_brute,
    commutativity_degree_closed,
    commutator_exponent_image,
    factor_compatibility,
    find_isomorphism,
    is_di_associative,
    make_product,
    make_scalar_group,
    match_factors,
    moufang_identity_holds,
    parse_loop_table,
    pc_limit_table,
    random_relabel,
    rank_census_brute,
    rank_census_closed,
    recover_factors,
    serialize_loop_table,
    to_table,
)


def passed(k, text):
    print(f"[PASS] criterion {k}: {text}")


def test_criterion_1_associativity_degree_brute_equals_closed():
    expected = {2: Fraction(1), 3: Fraction(43, 64), 4: Fraction(197, 512)}
    for zo in (2, 4):
        z = make_scalar_group(zo)
        for n in (2, 3, 4):
            brute = associativity_degree_brute(CDLoop.all_minus_one(z, n))
            closed = associativity_degree_closed(n, zo)
            assert brute.degree == closed.degree == expected[n], (n, zo)
            assert brute.favorable == closed.favorable
            assert brute.total == closed.total == (zo * 2 ** n) ** 3
    passed(1, "associativity degree brute == closed: 1, 43/64, 197/512 for |Z| in {2,4}")


def test_criterion_2_two_factor_commutativity_brute_equals_closed():
    expected = {2: Fraction(17, 32), 3: Fraction(281, 512), 4: Fraction(5777, 8192)}
    z = make_scalar_group(2)
    for n in (2, 3, 4):
        A = make_product(z, [CDLoop.all_minus_one(z, n)] * 2)
        brute = commutativity_degree_brute(A)
        closed = commutativity_degree_closed(2, n)
        assert brute.degree == closed.degree == expected[n], n
        assert brute.favorable == closed.favorable
        assert brute.total == closed.total == A.order ** 2
    passed(2, "two-factor commutativity brute == closed for n = 2, 3, 4")


def test_criterion_3_commutant_sizes_follow_the_rank_formula():
    z = make_scalar_group(2)
    cases = 0
    for m in (1, 2, 3):
        for n in (3, 4):
            if m * n > 9:
                continue
            A = make_product(z, [CDLoop.all_minus_one(z, n)] * m)
            sizes = commutant_coset_sizes(A)
            p = Fraction(1, 2 ** (n - 1))
            for combined, size in enumerate(sizes):
                k = A.element(z.one, A.split_mask(combined)).rank
                assert Fraction(size, A.coset_count) == Fraction(1, 2) + Fraction(
                    (2 * p - 1) ** k, 2
                )
                assert Fraction(size, A.coset_count) == b_k_closed(n, k)
                if k == 1:
                    assert size == 2 ** ((m - 1) * n + 1)
                cases += 1
    assert cases == 2 ** 3 + 2 ** 4 + 2 ** 6 + 2 ** 8 + 2 ** 9
    passed(3, "commutant ratios equal 1/2 + (2p-1)^rank/2 with the rank-1 special case")


def test_criterion_4_rank_census_brute_equals_closed():
    z = make_scalar_group(2)
    for m in (1, 2, 3):
        for n in (3, 4):
            if m * n > 9:
                continue
            A = make_product(z, [CDLoop.all_minus_one(z, n)] * m)
            assert rank_census_brute(A) == rank_census_closed(m, n, 2), (m, n)
    passed(4, "rank census brute == |Z| * C(m,k) * (2^n - 1)^k across the sweep")


def test_criterion_5_degree_trends_at_desk_scale():
    rows = pc_limit_table("grow_n", 2, 2, 10)
    degrees = [d for _, d in rows]
    assert all(a < b for a, b in zip(degrees, degrees[1:]))
    assert degrees[-1] > Fraction(99, 100)
    grow_m = dict(pc_limit_table("grow_m", 2, 40, 40))
    assert abs(grow_m[40] - Fraction(1, 2)) < Fraction(1, 100)
    passed(5, "P_c(2, n) climbs past 0.99 by n = 10; P_c(40, 2) is within 0.01 of 1/2")


def test_criterion_6_decomposition_round_trip():
    rng = random.Random(1789)
    trials = 0
    for zo in (2, 4):
        z = make_scalar_group(zo)
        for n in (3, 4):
            for m in (1, 2):
                for _ in range(3):
                    gamma_lists = [
                        tuple(Scalar(z, rng.randrange(zo)) for _ in range(n))
                        for _ in range(m)
                    ]
                    factors = [CDLoop(z, gs) for gs in gamma_lists]
                    A = make_product(z, factors)
                    exported = parse_loop_table(serialize_loop_table(to_table(A)))
                    shuffled, _ = random_relabel(exported, rng)
                    dec = recover_factors(shuffled, n)
                    assert (dec.m, dec.z_size) == (m, zo)
                    base = recover_factors(exported, n)
                    sigma = match_factors(factor_compatibility(dec, base))
                    assert sigma is not None and sorted(sigma) == list(range(m))
                    for j, F in enumerate(base.factors):
                        assert find_isomorphism(F, to_table(factors[j])) is not None
                    trials += 1
    assert trials == 24 >= 20
    z2 = make_scalar_group(2)
    q8 = to_table(CDLoop.all_minus_one(z2, 2))
    with pytest.raises(ValueError, match="requires n >= 3"):
        recover_factors(q8, 2)
    passed(6, "24/24 randomized relabeled round trips recovered; n = 2 input rejected")


def test_criterion_7_structural_suites():
    z2, z4 = make_scalar_group(2), make_scalar_group(4)
    family = [
        CDLoop.all_minus_one(z2, 1),
        CDLoop.all_minus_one(z2, 2),
        CDLoop.all_minus_one(z2, 3),
        CDLoop.all_minus_one(z2, 4),
        CDLoop(z2, (z2.one, z2.minus_one, z2.one)),
        CDLoop.all_minus_one(z4, 2),
        CDLoop(z4, (Scalar(z4, 1), z4.minus_one, z4.one)),
    ]
    for L in family:
        assert is_di_associative(L)
        half = L.z.order // 2
        signs = {0, half}
        A = make_product(L.z, [L])
        assert commutator_exponent_image(A) <= signs
        assert associator_exponent_image(A) <= signs
        elems = L.elements()
        for x in elems:
            assert L.conj(L.conj(x)) == x
            for y in elems:
                assert L.conj(L.mul(x, y)) == L.mul(L.conj(y), L.conj(x))
        T = to_table(L)
        AbstractLoop(T.table)  # re-runs Latin + identity validation
        # the mask map realizes D/Z as (Z/2Z)^n
        for x in elems:
            for y in elems:
                assert L.mul(x, y).mask == x.mask ^ y.mask
        assert sum(1 for x in elems if x.mask == 0) == L.z.order
    assert moufang_identity_holds(CDLoop.all_minus_one(z2, 3))
    passed(7, "di-associativity, sign-valued (co)associators, conj, Latin tables, mask kernel, Moufang at n = 3")


def test_criterion_8_verify_command_exits_clean():
    cdl = shutil.which("cdl")
    cmd = [cdl, "verify"] if cdl else [sys.executable, "-m", "cdloops.cli", "verify"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] >= 60
    passed(8, f"`{' '.join(cmd[-2:])}` exited 0 with {payload['summary']['pass']} checks passing")
