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
from .cdloop import MAX_GENERATORS, CDLoop
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


# The expected value of an info row: its value is recorded, never judged.
_INFO = object()


def _judge(name: str, source: str, expected, compute) -> CheckResult:
    """Run one row; compute() returns the actual value.

    BudgetExceeded is reported as skipped, any other error fails as
    `Type: message`, and an info row records its value or `skipped: ...`.
    """
    try:
        actual, status = compute(), None
    except BudgetExceeded as exc:
        actual, status = exc, "skipped"
    except Exception as exc:
        actual, status = f"{type(exc).__name__}: {exc}", "fail"
    if expected is _INFO:
        text = f"skipped: {actual}" if status == "skipped" else str(actual)
        return CheckResult(name, "info", "n/a", text, source)
    if status is None:
        status = "pass" if actual == expected else "fail"
    return CheckResult(name, status, str(expected), str(actual), source)


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


def _minus_one(z_order: int, n: int, m: int | None = None):
    """(-1, ..., -1) of depth n over Z of z_order; with m, the product of m copies."""
    z = make_scalar_group(z_order)
    loop = CDLoop.all_minus_one(z, n)
    return loop if m is None else make_product(z, [loop] * m)


def _images_in_pm1(loops, me: int) -> bool:
    return all(
        commutator_exponent_image(L, me) <= {0, L.z.order // 2}
        and associator_exponent_image(L, me) <= {0, L.z.order // 2}
        for L in loops
    )


def _conj_is_anti_automorphism(L: CDLoop, elems) -> bool:
    return all(L.conj(L.conj(x)) == x for x in elems) and all(
        L.conj(L.mul(x, y)) == L.mul(L.conj(y), L.conj(x))
        for x in elems
        for y in elems
    )


def _mask_map_is_onto_with_kernel_z(L: CDLoop, elems) -> bool:
    sample = elems[:: max(1, len(elems) // 8)]
    return (
        {x.mask for x in elems} == set(range(1 << L.n))
        and sum(1 for x in elems if x.mask == 0) == L.z.order
        and all(L.mul(x, y).mask == x.mask ^ y.mask for x in sample for y in sample)
    )


def _roundtrip_trials(n, m, zo, trials, rng, me, pivots: list[bool]) -> str:
    """Build, relabel, re-read and split `trials` random products.

    The first trial also splits the table with its labels reversed, and
    appends to `pivots` whether both pivot orders found the same subsets.
    """
    z = make_scalar_group(zo)
    for t in range(trials):
        factors = [
            CDLoop(z, tuple(Scalar(z, rng.randrange(zo)) for _ in range(n)))
            for _ in range(m)
        ]
        original = to_table(make_product(z, factors), me)
        shuffled, _ = random_relabel(original, rng)
        parsed = parse_loop_table(serialize_loop_table(shuffled))
        dec = recover_factors(parsed, n)
        if dec.m != m or dec.z_size != zo:
            return f"trial {t}: recovered shape ({dec.m}, {dec.z_size})"
        if dec.rank_histogram() != rank_census_closed(m, n, zo):
            return f"trial {t}: rank histogram {dec.rank_histogram()}"
        base = recover_factors(original, n)
        if match_factors(factor_compatibility(dec, base)) is None:
            return f"trial {t}: factors do not match the originals"
        for j, D in enumerate(base.factors):
            if find_isomorphism(D, to_table(factors[j], me)) is None:
                return f"trial {t}: factor {j} differs from its constructor"
        if t == 0:
            # Upward pivots on the reversed labels scan parsed downward.
            top = parsed.size - 1
            desc = recover_factors(parsed.relabel(range(top, -1, -1)), n)
            pivots.append(
                sorted(tuple(sorted(top - x for x in s)) for s in desc.subsets)
                == sorted(map(tuple, dec.subsets))
            )
    return "all trials succeeded"


# Closed forms against reference and hand-derived values.
_CLOSED_FORMS = (
    ("assoc-degree-closed-n2-is-1", "reference", Fraction(1),
     lambda: associativity_degree_closed(2).degree),
    ("assoc-degree-closed-n3-is-43/64", "reference", Fraction(43, 64),
     lambda: associativity_degree_closed(3).degree),
    ("assoc-degree-closed-n4-is-197/512", "derived", Fraction(197, 512),
     lambda: associativity_degree_closed(4).degree),
    ("comm-degree-closed-m1-n2-is-5/8", "derived", Fraction(5, 8),
     lambda: commutativity_degree_closed(1, 2).degree),
    ("comm-degree-closed-m2-n2-is-17/32", "derived", Fraction(17, 32),
     lambda: commutativity_degree_closed(2, 2).degree),
    ("comm-degree-closed-m2-n3-is-281/512", "derived", Fraction(281, 512),
     lambda: commutativity_degree_closed(2, 3).degree),
    ("b2-at-n3-is-5/8", "derived", Fraction(5, 8), lambda: b_k_closed(3, 2)),
    ("bk-satisfies-its-recurrence", "reference", True, lambda: all(
        b_k_closed(n, k)
        == Fraction(1, 2 ** (n - 1)) * b_k_closed(n, k - 1)
        + (1 - Fraction(1, 2 ** (n - 1))) * (1 - b_k_closed(n, k - 1))
        for n in range(2, 7)
        for k in range(1, 9)
    )),
    ("two-factor-polynomial-matches-general-form", "reference", True, lambda: all(
        two_factor_commutativity_closed(n) == commutativity_degree_closed(2, n).degree
        for n in range(1, 13)
    )),
    ("census-closed-m2-n3-z2-is-2-28-98", "derived", [2, 28, 98],
     lambda: rank_census_closed(2, 3, 2)),
)

# Limit behaviour of the commutativity degree.
_LIMITS = (
    ("pc-strictly-increasing-in-n-m2", "reference", True, lambda: all(
        a < b
        for (_, a), (_, b) in zip(
            pc_limit_table("grow_n", 2, 2, 10), pc_limit_table("grow_n", 2, 3, 10)
        )
    )),
    ("pc-m2-n10-exceeds-0.99", "reference", True,
     lambda: pc_limit_table("grow_n", 2, 10, 10)[0][1] > Fraction(99, 100)),
    ("pc-m40-n2-within-0.01-of-half", "reference", True,
     lambda: abs(commutativity_degree_closed(40, 2).degree - Fraction(1, 2))
     < Fraction(1, 100)),
    ("pc-decreasing-to-half-in-m-n2", "derived", True, lambda: all(
        a > b > Fraction(1, 2)
        for (_, a), (_, b) in zip(
            pc_limit_table("grow_m", 2, 1, 12), pc_limit_table("grow_m", 2, 2, 12)
        )
    )),
)


def _checks(max_n, max_m, z_orders, trials, rng, me):
    """Yield the suite's (name, source, expected, compute) rows in report order.

    Each row is judged before the next is drawn, so a compute may read the
    loop variables current at its yield, and the seeded rng is consumed in
    row order.
    """
    yield from _CLOSED_FORMS

    # -- brute force against closed forms --------------------------------------
    for n in range(2, max_n + 1):
        for zo in z_orders:
            yield (
                f"assoc-degree-brute-vs-closed-n{n}-z{zo}", "enumeration",
                associativity_degree_closed(n, zo).degree,
                lambda: associativity_degree_brute(_minus_one(zo, n), me).degree,
            )
    for n in range(2, max_n + 1):
        yield (
            f"comm-degree-brute-vs-closed-m2-n{n}-z2", "enumeration",
            commutativity_degree_closed(2, n, 2).degree,
            lambda: commutativity_degree_brute(_minus_one(2, n, 2), me).degree,
        )
    yield (
        "comm-degree-brute-m1-n2-q8", "enumeration", Fraction(5, 8),
        lambda: commutativity_degree_brute(_minus_one(2, 2), me).degree,
    )
    z2 = make_scalar_group(2)
    yield (
        "comm-degree-independent-of-gammas-m2-n3", "enumeration", True,
        lambda: all(
            commutativity_degree_brute(
                make_product(z2, [CDLoop(z2, gammas), _minus_one(2, 3)]), me
            ).degree
            == commutativity_degree_closed(2, 3, 2).degree
            for gammas in _gamma_variants(z2, 3)[1:]
        ),
    )

    # -- commutant ratios and censuses over the acceptance grid ----------------
    # Products are equal by value, so each grid product is surveyed once
    # however many checks read it; a budget skip is not cached.
    coset_sizes = functools.cache(lambda A: commutant_coset_sizes(A, me))
    for m in range(1, min(max_m, 3) + 1):  # n >= 3 and m * n <= 9 leave m <= 3
        for n in range(3, max_n + 1):
            if m * n > 9:
                continue
            A = _minus_one(2, n, m)
            yield (
                f"commutant-ratios-match-bk-m{m}-n{n}-z2", "enumeration", True,
                lambda: all(
                    Fraction(size, A.coset_count) == b_k_closed(n, int(rank))
                    for size, rank in zip(coset_sizes(A), A.coset_ranks())
                ),
            )
            yield (
                f"rank1-commutant-coset-size-m{m}-n{n}-z2", "reference", True,
                lambda: bool(
                    (np.array(coset_sizes(A))[A.coset_ranks() == 1]
                     == 2 ** ((m - 1) * n + 1)).all()
                ),
            )
            yield (
                f"census-brute-vs-closed-m{m}-n{n}-z2", "enumeration",
                rank_census_closed(m, n, 2), lambda: rank_census_brute(A, me),
            )
    if 4 in z_orders and max_m >= 2 and max_n >= 3:
        yield (
            "census-brute-vs-closed-m2-n3-z4", "enumeration",
            rank_census_closed(2, 3, 4),
            lambda: rank_census_brute(_minus_one(4, 3, 2), me),
        )

    def _commutant_elements_consistent() -> bool:
        A = _minus_one(2, 3, 2)
        sizes = coset_sizes(A)
        picks = (A.element(z2.one, masks) for masks in ((1, 0), (1, 2)))
        return all(len(commutant(A, x, me)) == sizes[x.mask] * z2.order for x in picks)

    yield (
        "commutant-elements-agree-with-coset-survey-m2-n3", "enumeration", True,
        _commutant_elements_consistent,
    )
    yield from _LIMITS

    # -- structural identities over a gamma sweep ---------------------------------
    swept = [
        CDLoop(z, gammas)
        for z in map(make_scalar_group, z_orders)
        for n in range(1, min(max_n, 4) + 1)
        for gammas in _gamma_variants(z, n)
    ]
    yield (
        "di-associativity-across-sweep", "reference", True,
        lambda: all(is_di_associative(L, me) for L in swept),
    )
    yield (
        "commutators-and-associators-in-pm1-across-sweep", "reference", True,
        lambda: _images_in_pm1(swept, me),
    )
    products = [(zo, n) for zo in z_orders for n in (2, 3) if max_m >= 2 and n <= max_n]
    yield (
        "product-commutators-and-associators-in-pm1", "reference", True,
        lambda: _images_in_pm1((_minus_one(zo, n, 2) for zo, n in products), me),
    )
    yield (
        "conj-is-an-involutory-anti-automorphism", "reference", True,
        lambda: all(
            _conj_is_anti_automorphism(L, L.elements(me)) for L in swept if L.n <= 3
        ),
    )
    yield (
        "inverses-are-two-sided", "direct", True,
        lambda: all(
            L.mul(x, L.inv(x)) == L.identity and L.mul(L.inv(x), x) == L.identity
            for L in swept
            for x in L.elements(me)
        ),
    )
    yield (
        "mask-map-quotient-is-elementary-abelian", "direct", True,
        lambda: all(_mask_map_is_onto_with_kernel_z(L, L.elements(me)) for L in swept),
    )
    yield (
        "to-table-yields-latin-squares-across-sweep", "direct", True,
        lambda: all(
            AbstractLoop(to_table(L, me).table).size == L.order
            for L in swept
            if L.order <= 256
        ),
    )
    for zo in z_orders:
        yield (
            f"moufang-identity-n3-z{zo}", "reference", True,
            lambda: moufang_identity_holds(_minus_one(zo, 3), me),
        )
    if max_n >= 4:
        yield (
            "moufang-identity-n4-z2", "enumeration", _INFO,
            lambda: moufang_identity_holds(_minus_one(2, 4), me),
        )

    # -- table round trips and isomorphism search ----------------------------------
    o16 = functools.cache(lambda: to_table(_minus_one(2, 3), me))
    yield (
        "loop-table-serialize-parse-roundtrip", "direct", True,
        lambda: parse_loop_table(serialize_loop_table(o16())) == o16(),
    )
    yield (
        "iso-search-finds-self-relabeling", "enumeration", True,
        lambda: find_isomorphism(o16(), random_relabel(o16(), rng)[0]) is not None,
    )
    yield (
        "iso-search-separates-q8-from-mixed-gamma-loop", "enumeration", True,
        lambda: find_isomorphism(
            to_table(_minus_one(2, 2), me),
            to_table(CDLoop(z2, (z2.one, z2.minus_one)), me),
        )
        is None,
    )

    # -- decomposition -------------------------------------------------------------
    yield (
        "decompose-rejects-depth-2", "direct", "raised ValueError",
        lambda: _expect_raises(
            lambda: recover_factors(to_table(_minus_one(2, 2), me), 2),
            ValueError,
            "n >= 3",
        ),
    )
    yield (
        "decompose-rejects-dihedral-group", "derived", "raised DecompositionError",
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
    per_combo = -(-trials // max(1, len(combos)))
    pivots: list[bool] = []
    for n, m, zo in combos:
        yield (
            f"decompose-roundtrip-n{n}-m{m}-z{zo}-x{per_combo}", "enumeration",
            "all trials succeeded",
            lambda: _roundtrip_trials(n, m, zo, per_combo, rng, me, pivots),
        )
    yield (
        "decompose-pivot-order-invariance", "enumeration", _INFO,
        lambda: "not compared: no decompose round trip reached the comparison"
        if not pivots
        else f"ascending and descending pivots split identically: {all(pivots)}",
    )


def run_verify(
    max_n: int = 4,
    max_m: int = 3,
    z_orders: tuple[int, ...] = (2, 4),
    trials: int = 24,
    seed: int = 2024,
    max_elements: int | None = None,
) -> VerifyReport:
    """Run the whole cross-check suite and return its report.

    An invalid budget or option raises ValueError before the first check runs.
    """
    me = resolve_max_elements(max_elements)
    if not 1 <= max_n <= MAX_GENERATORS:
        raise ValueError(f"max_n must be in 1..{MAX_GENERATORS}, got {max_n}")
    if max_m < 1:
        raise ValueError(f"max_m must be at least 1, got {max_m}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    bad = [zo for zo in z_orders if zo < 2 or zo % 2]
    if bad or not z_orders or len(set(z_orders)) < len(z_orders):
        raise ValueError(f"z_orders must be distinct even orders >= 2, got {z_orders}")
    rows = _checks(max_n, max_m, z_orders, trials, random.Random(seed), me)
    return VerifyReport([_judge(*row) for row in rows])
