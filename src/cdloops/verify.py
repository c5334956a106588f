"""Self-verification suite: every claim the package relies on, re-checked.

Each check pits an exhaustive enumeration against a closed form, a known
reference value, or a structural identity, at zero tolerance.  Checks that
would blow the enumeration budget are reported as skipped, informational
measurements as info.  The suite is deterministic for a fixed seed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .abstract_loop import (
    AbstractLoop,
    find_isomorphism,
    parse_loop_table,
    random_relabel,
    serialize_loop_table,
    to_table,
)
from .analytics import (
    associativity_degree_brute,
    associativity_degree_closed,
    associator_exponent_image,
    b_k_closed,
    commutant,
    commutant_coset_sizes,
    commutativity_degree_brute,
    commutativity_degree_closed,
    commutator_exponent_image,
    is_di_associative,
    moufang_identity_holds,
    pc_limit_table,
    rank_census_brute,
    rank_census_closed,
    two_factor_commutativity_closed,
)
from .budget import resolve_max_elements
from .cdloop import CDLoop
from .central_product import make_product
from .decompose import DecompositionError, factor_compatibility, match_factors, recover_factors
from .errors import BudgetExceeded
from .scalars import Scalar, ScalarGroup, make_scalar_group


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skipped | info
    expected: str
    actual: str
    source: str  # reference | derived | direct | enumeration


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for c in self.checks if c.status == status)

    @property
    def ok(self) -> bool:
        return self.count("fail") == 0

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(
                f"[{c.status.upper():>7}] {c.name}: expected {c.expected}, "
                f"got {c.actual} ({c.source})"
            )
        lines.append(
            f"{self.count('pass')} passed, {self.count('fail')} failed, "
            f"{self.count('skipped')} skipped, {self.count('info')} info"
        )
        return "\n".join(lines)


class _Runner:
    def __init__(self):
        self.report = VerifyReport()

    def check(self, name: str, source: str, expected, compute) -> None:
        """Run one check; compute() returns the actual value."""
        status, actual = self._run(compute)
        if status is None:
            status = "pass" if actual == expected else "fail"
        self.report.checks.append(
            CheckResult(name, status, str(expected), str(actual), source)
        )

    def info(self, name: str, source: str, compute) -> None:
        status, actual = self._run(compute)
        if status == "skipped":
            actual = f"skipped: {actual}"
        self.report.checks.append(CheckResult(name, "info", "n/a", str(actual), source))

    @staticmethod
    def _run(compute) -> tuple[str | None, object]:
        """(None, value) of compute(), or the status and text of its error:
        BudgetExceeded is skipped, any other error fails as `Type: message`."""
        try:
            return None, compute()
        except BudgetExceeded as exc:
            return "skipped", str(exc)
        except Exception as exc:
            return "fail", f"{type(exc).__name__}: {exc}"


def _expect_raises(fn, exc_type, needle: str | None = None) -> str:
    try:
        fn()
    except exc_type as exc:
        if needle is not None and needle not in str(exc):
            return f"raised {exc_type.__name__} without {needle!r} in message"
        return f"raised {exc_type.__name__}"
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    return "no exception"


def _gamma_variants(z: ScalarGroup, n: int) -> list[tuple[Scalar, ...]]:
    """All-minus-one plus a couple of mixed vectors."""
    minus, one = z.minus_one, z.one
    variants = [tuple(minus for _ in range(n))]
    if n >= 1:
        variants.append(tuple(one if i % 2 else minus for i in range(n)))
    if z.order > 2:
        variants.append(tuple(Scalar(z, 1) if i == 0 else minus for i in range(n)))
    return variants


def _dihedral_table(rotations: int) -> list[list[int]]:
    """Multiplication table of the dihedral group with `rotations` rotations.

    Element i + rotations*s is r^i s^s; used as a negative control, since
    dihedral groups are not central products of doubled loops.
    """
    size = 2 * rotations
    table = [[0] * size for _ in range(size)]
    for i in range(rotations):
        for s in range(2):
            for j in range(rotations):
                for t in range(2):
                    k = (i + (j if s == 0 else -j)) % rotations
                    table[i + rotations * s][j + rotations * t] = (
                        k + rotations * (s ^ t)
                    )
    return table


def _half_set(order: int) -> set[int]:
    return {0, order // 2}


def run_verify(
    max_n: int = 4,
    max_m: int = 3,
    z_orders: tuple[int, ...] = (2, 4),
    trials: int = 24,
    seed: int = 2024,
    max_elements: int | None = None,
) -> VerifyReport:
    """Run the whole cross-check suite and return its report.

    An invalid budget raises ValueError before the first check runs.
    """
    me = resolve_max_elements(max_elements)
    r = _Runner()
    rng = random.Random(seed)

    # -- closed forms against reference and hand-derived values ---------------
    r.check(
        "assoc-degree-closed-n2-is-1",
        "reference",
        Fraction(1),
        lambda: associativity_degree_closed(2).degree,
    )
    r.check(
        "assoc-degree-closed-n3-is-43/64",
        "reference",
        Fraction(43, 64),
        lambda: associativity_degree_closed(3).degree,
    )
    r.check(
        "assoc-degree-closed-n4-is-197/512",
        "derived",
        Fraction(197, 512),
        lambda: associativity_degree_closed(4).degree,
    )
    r.check(
        "comm-degree-closed-m1-n2-is-5/8",
        "derived",
        Fraction(5, 8),
        lambda: commutativity_degree_closed(1, 2).degree,
    )
    r.check(
        "comm-degree-closed-m2-n2-is-17/32",
        "derived",
        Fraction(17, 32),
        lambda: commutativity_degree_closed(2, 2).degree,
    )
    r.check(
        "comm-degree-closed-m2-n3-is-281/512",
        "derived",
        Fraction(281, 512),
        lambda: commutativity_degree_closed(2, 3).degree,
    )
    r.check(
        "b2-at-n3-is-5/8",
        "derived",
        Fraction(5, 8),
        lambda: b_k_closed(3, 2),
    )
    r.check(
        "bk-satisfies-its-recurrence",
        "reference",
        True,
        lambda: all(
            b_k_closed(n, k)
            == Fraction(1, 2 ** (n - 1)) * b_k_closed(n, k - 1)
            + (1 - Fraction(1, 2 ** (n - 1))) * (1 - b_k_closed(n, k - 1))
            for n in range(2, 7)
            for k in range(1, 9)
        ),
    )
    r.check(
        "two-factor-polynomial-matches-general-form",
        "reference",
        True,
        lambda: all(
            two_factor_commutativity_closed(n)
            == commutativity_degree_closed(2, n).degree
            for n in range(1, 13)
        ),
    )
    r.check(
        "census-closed-m2-n3-z2-is-2-28-98",
        "derived",
        [2, 28, 98],
        lambda: rank_census_closed(2, 3, 2),
    )

    # -- brute force against closed forms --------------------------------------
    for n in range(2, max_n + 1):
        for zo in z_orders:
            r.check(
                f"assoc-degree-brute-vs-closed-n{n}-z{zo}",
                "enumeration",
                associativity_degree_closed(n, zo).degree,
                lambda n=n, zo=zo: associativity_degree_brute(
                    CDLoop.all_minus_one(make_scalar_group(zo), n), me
                ).degree,
            )
    for n in range(2, max_n + 1):
        z = make_scalar_group(2)
        A = make_product(z, [CDLoop.all_minus_one(z, n) for _ in range(2)])
        r.check(
            f"comm-degree-brute-vs-closed-m2-n{n}-z2",
            "enumeration",
            commutativity_degree_closed(2, n, 2).degree,
            lambda A=A: commutativity_degree_brute(A, me).degree,
        )
    r.check(
        "comm-degree-brute-m1-n2-q8",
        "enumeration",
        Fraction(5, 8),
        lambda: commutativity_degree_brute(
            CDLoop.all_minus_one(make_scalar_group(2), 2), me
        ).degree,
    )

    def _mixed_gamma_comm() -> bool:
        z = make_scalar_group(2)
        closed = commutativity_degree_closed(2, 3, 2).degree
        return all(
            commutativity_degree_brute(
                make_product(z, [CDLoop(z, gammas), CDLoop.all_minus_one(z, 3)]), me
            ).degree
            == closed
            for gammas in _gamma_variants(z, 3)[1:]
        )

    r.check(
        "comm-degree-independent-of-gammas-m2-n3",
        "enumeration",
        True,
        _mixed_gamma_comm,
    )

    # -- commutant ratios and censuses over the acceptance grid ----------------
    # Products are equal by value, so each grid product is surveyed once
    # however many checks read it; a budget skip is not cached.
    coset_sizes = functools.cache(lambda A: commutant_coset_sizes(A, me))
    grid = [
        (m, n)
        for m in range(1, max_m + 1)
        for n in range(3, max_n + 1)
        if m * n <= 9
    ]
    for m, n in grid:
        z = make_scalar_group(2)
        A = make_product(z, [CDLoop.all_minus_one(z, n) for _ in range(m)])

        def _ratios_match(A=A, n=n) -> bool:
            return all(
                Fraction(size, A.coset_count) == b_k_closed(n, int(rank))
                for size, rank in zip(coset_sizes(A), A.coset_ranks())
            )

        r.check(
            f"commutant-ratios-match-bk-m{m}-n{n}-z2",
            "enumeration",
            True,
            _ratios_match,
        )

        def _rank1_size(A=A, m=m, n=n) -> bool:
            sizes = np.array(coset_sizes(A))
            return bool((sizes[A.coset_ranks() == 1] == 2 ** ((m - 1) * n + 1)).all())

        r.check(
            f"rank1-commutant-coset-size-m{m}-n{n}-z2",
            "reference",
            True,
            _rank1_size,
        )
        r.check(
            f"census-brute-vs-closed-m{m}-n{n}-z2",
            "enumeration",
            rank_census_closed(m, n, 2),
            lambda A=A: rank_census_brute(A, me),
        )

    if 4 in z_orders and max_m >= 2 and max_n >= 3:
        z4 = make_scalar_group(4)
        A4 = make_product(z4, [CDLoop.all_minus_one(z4, 3) for _ in range(2)])
        r.check(
            "census-brute-vs-closed-m2-n3-z4",
            "enumeration",
            rank_census_closed(2, 3, 4),
            lambda: rank_census_brute(A4, me),
        )

    def _commutant_elements_consistent() -> bool:
        z = make_scalar_group(2)
        A = make_product(z, [CDLoop.all_minus_one(z, 3) for _ in range(2)])
        sizes = coset_sizes(A)
        picks = (A.element(z.one, masks) for masks in ((1, 0), (1, 2)))
        return all(len(commutant(A, x, me)) == sizes[x.mask] * z.order for x in picks)

    r.check(
        "commutant-elements-agree-with-coset-survey-m2-n3",
        "enumeration",
        True,
        _commutant_elements_consistent,
    )

    # -- limit behaviour ---------------------------------------------------------
    r.check(
        "pc-strictly-increasing-in-n-m2",
        "reference",
        True,
        lambda: all(
            a < b
            for (_, a), (_, b) in zip(
                pc_limit_table("grow_n", 2, 2, 10), pc_limit_table("grow_n", 2, 3, 10)
            )
        ),
    )
    r.check(
        "pc-m2-n10-exceeds-0.99",
        "reference",
        True,
        lambda: pc_limit_table("grow_n", 2, 10, 10)[0][1] > Fraction(99, 100),
    )
    r.check(
        "pc-m40-n2-within-0.01-of-half",
        "reference",
        True,
        lambda: abs(commutativity_degree_closed(40, 2).degree - Fraction(1, 2))
        < Fraction(1, 100),
    )
    r.check(
        "pc-decreasing-to-half-in-m-n2",
        "derived",
        True,
        lambda: all(
            a > b > Fraction(1, 2)
            for (_, a), (_, b) in zip(
                pc_limit_table("grow_m", 2, 1, 12), pc_limit_table("grow_m", 2, 2, 12)
            )
        ),
    )

    # -- structural identities over a gamma sweep ---------------------------------
    swept: list[CDLoop] = []
    for zo in z_orders:
        z = make_scalar_group(zo)
        for n in range(1, min(max_n, 4) + 1):
            for gammas in _gamma_variants(z, n):
                swept.append(CDLoop(z, gammas))

    r.check(
        "di-associativity-across-sweep",
        "reference",
        True,
        lambda: all(is_di_associative(L, me) for L in swept),
    )

    def _images_in_pm1(loops) -> bool:
        return all(
            commutator_exponent_image(L, me) <= _half_set(L.z.order)
            and associator_exponent_image(L, me) <= _half_set(L.z.order)
            for L in loops
        )

    r.check(
        "commutators-and-associators-in-pm1-across-sweep",
        "reference",
        True,
        lambda: _images_in_pm1(swept),
    )
    r.check(
        "product-commutators-and-associators-in-pm1",
        "reference",
        True,
        lambda: _images_in_pm1(
            make_product(z, [CDLoop.all_minus_one(z, n)] * m)
            for z in map(make_scalar_group, z_orders)
            for m, n in ((2, 2), (2, 3))
            if m <= max_m and n <= max_n
        ),
    )

    def _conj_anti_automorphism() -> bool:
        for L in swept:
            if L.n > 3:
                continue
            elems = L.elements(me)
            for x in elems:
                if L.conj(L.conj(x)) != x:
                    return False
            for x in elems:
                for y in elems:
                    if L.conj(L.mul(x, y)) != L.mul(L.conj(y), L.conj(x)):
                        return False
        return True

    r.check(
        "conj-is-an-involutory-anti-automorphism",
        "reference",
        True,
        _conj_anti_automorphism,
    )

    def _two_sided_inverses() -> bool:
        for L in swept:
            for x in L.elements(me):
                if L.mul(x, L.inv(x)) != L.identity:
                    return False
                if L.mul(L.inv(x), x) != L.identity:
                    return False
        return True

    r.check("inverses-are-two-sided", "direct", True, _two_sided_inverses)

    def _mask_map_is_onto_with_kernel_z() -> bool:
        for L in swept:
            elems = L.elements(me)
            masks = {x.mask for x in elems}
            if masks != set(range(1 << L.n)):
                return False
            if sum(1 for x in elems if x.mask == 0) != L.z.order:
                return False
            for x in elems[:: max(1, len(elems) // 8)]:
                for y in elems[:: max(1, len(elems) // 8)]:
                    if L.mul(x, y).mask != x.mask ^ y.mask:
                        return False
        return True

    r.check(
        "mask-map-quotient-is-elementary-abelian",
        "direct",
        True,
        _mask_map_is_onto_with_kernel_z,
    )

    r.check(
        "to-table-yields-latin-squares-across-sweep",
        "direct",
        True,
        lambda: all(
            AbstractLoop(to_table(L, me).table).size == L.order
            for L in swept
            if L.order <= 256
        ),
    )

    for zo in z_orders:
        r.check(
            f"moufang-identity-n3-z{zo}",
            "reference",
            True,
            lambda zo=zo: moufang_identity_holds(
                CDLoop.all_minus_one(make_scalar_group(zo), 3), me
            ),
        )
    if max_n >= 4:
        r.info(
            "moufang-identity-n4-z2",
            "enumeration",
            lambda: moufang_identity_holds(
                CDLoop.all_minus_one(make_scalar_group(2), 4), me
            ),
        )

    # -- table round trips and isomorphism search ----------------------------------
    z2 = make_scalar_group(2)
    o16 = functools.cache(lambda: to_table(CDLoop.all_minus_one(z2, 3), me))

    def _table_roundtrip() -> bool:
        return parse_loop_table(serialize_loop_table(o16())) == o16()

    r.check("loop-table-serialize-parse-roundtrip", "direct", True, _table_roundtrip)

    def _iso_roundtrip() -> bool:
        shuffled, _ = random_relabel(o16(), rng)
        return find_isomorphism(o16(), shuffled) is not None

    r.check("iso-search-finds-self-relabeling", "enumeration", True, _iso_roundtrip)

    def _iso_distinguishes() -> bool:
        q8 = to_table(CDLoop.all_minus_one(z2, 2), me)
        split = to_table(
            CDLoop(z2, (z2.one, z2.minus_one)), me
        )
        return find_isomorphism(q8, split) is None

    r.check(
        "iso-search-separates-q8-from-mixed-gamma-loop",
        "enumeration",
        True,
        _iso_distinguishes,
    )

    # -- decomposition -------------------------------------------------------------
    r.check(
        "decompose-rejects-depth-2",
        "direct",
        "raised ValueError",
        lambda: _expect_raises(
            lambda: recover_factors(to_table(CDLoop.all_minus_one(z2, 2), me), 2),
            ValueError,
            "n >= 3",
        ),
    )
    r.check(
        "decompose-rejects-dihedral-group",
        "derived",
        "raised DecompositionError",
        lambda: _expect_raises(
            lambda: recover_factors(AbstractLoop(_dihedral_table(8)), 3),
            DecompositionError,
        ),
    )

    combos = [
        (n, m, zo)
        for n in (3, 4)
        if n <= max_n
        for m in (1, 2)
        if m <= max_m
        for zo in z_orders
    ]
    per_combo = max(1, -(-trials // max(1, len(combos))))
    # None until a round trip reaches the pivot comparison.
    pivot_partitions_agree: bool | None = None

    for n, m, zo in combos:

        def _roundtrip_trials(n=n, m=m, zo=zo) -> str:
            nonlocal pivot_partitions_agree
            z = make_scalar_group(zo)
            for t in range(per_combo):
                gammas_per_factor = [
                    tuple(Scalar(z, rng.randrange(zo)) for _ in range(n))
                    for _ in range(m)
                ]
                factors = [CDLoop(z, gs) for gs in gammas_per_factor]
                A = make_product(z, factors)
                original = to_table(A, me)
                shuffled, _ = random_relabel(original, rng)
                parsed = parse_loop_table(serialize_loop_table(shuffled))
                dec = recover_factors(parsed, n)
                if dec.m != m or dec.z_size != zo:
                    return f"trial {t}: recovered shape ({dec.m}, {dec.z_size})"
                if dec.rank_histogram() != rank_census_closed(m, n, zo):
                    return f"trial {t}: rank histogram {dec.rank_histogram()}"
                base = recover_factors(original, n)
                sigma = match_factors(factor_compatibility(dec, base))
                if sigma is None:
                    return f"trial {t}: factors do not match the originals"
                for j, D in enumerate(base.factors):
                    direct = to_table(factors[j], me)
                    if find_isomorphism(D, direct) is None:
                        return f"trial {t}: factor {j} differs from its constructor"
                if t == 0:
                    # Upward pivots on the reversed labels scan parsed downward.
                    top = parsed.size - 1
                    desc = recover_factors(parsed.relabel(range(top, -1, -1)), n)
                    same = sorted(
                        tuple(sorted(top - x for x in s)) for s in desc.subsets
                    ) == sorted(map(tuple, dec.subsets))
                    pivot_partitions_agree = same and pivot_partitions_agree is not False
            return "all trials succeeded"

        r.check(
            f"decompose-roundtrip-n{n}-m{m}-z{zo}-x{per_combo}",
            "enumeration",
            "all trials succeeded",
            _roundtrip_trials,
        )

    r.info(
        "decompose-pivot-order-invariance",
        "enumeration",
        lambda: "not compared: no decompose round trip reached the comparison"
        if pivot_partitions_agree is None
        else f"ascending and descending pivots split identically: {pivot_partitions_agree}",
    )

    return r.report
