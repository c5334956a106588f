"""Commutativity and associativity statistics for loops and their products.

Brute-force routines enumerate honestly and report exact counts as
fractions.  Closed-form routines evaluate the matching exact expressions so
the two can be compared at zero tolerance.  Commutation of two elements
never depends on their scalar parts (those are central and cancel in the
commutator), so pairwise surveys run over cosets of Z, read the coset twist
matrix T, and multiply counts back by |Z|**2: cosets c1, c2 commute exactly
when T[c1, c2] == T[c2, c1], because T's entries are already reduced.  T
is unsigned, so surveys that subtract entries upcast to int64 first.
Associator scalars cancel the same way, but the associativity, Moufang and
di-associativity surveys still walk full element lists, reading the
per-loop twist table through twist_exp and caching per-span verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .budget import ensure_budget
from .cdloop import CDLoop, LoopElement
from .central_product import CentralProduct, ProductElement, coset_twist_matrix


@dataclass(frozen=True)
class DegreeReport:
    """Exact degree together with the counts and method that produced it."""

    degree: Fraction
    favorable: int
    total: int
    method: str
    m: int
    n: int
    z_order: int


# -- closed forms -------------------------------------------------------------


def b_k_closed(n: int, k: int) -> Fraction:
    """Probability that a uniform pair from a rank-k coset profile commutes.

    Picking one element of rank k and one uniform element, each of the k
    shared factors flips a fair-ish coin: two non-scalar monomials of one
    factor commute with probability p = 1/2**(n-1).  Folding the k
    independent flips gives 1/2 + (2p-1)**k / 2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    p = Fraction(1, 2 ** (n - 1))
    return Fraction(1, 2) + (2 * p - 1) ** k / 2


def rank_census_closed(m: int, n: int, z_order: int) -> list[int]:
    """Element counts by rank: |Z| * C(m, k) * (2**n - 1)**k for k = 0..m."""
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    return [z_order * comb(m, k) * (2**n - 1) ** k for k in range(m + 1)]


def commutativity_degree_closed(m: int, n: int, z_order: int = 2) -> DegreeReport:
    """Exact probability that two uniform elements of the product commute.

    Conditioning on the rank of the first element weights b_k by the rank
    census, giving sum_k C(m, k) (2**n - 1)**k b_k / 2**(m*n).
    """
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    cosets = 2 ** (m * n)
    degree = Fraction(0)
    for k in range(m + 1):
        degree += Fraction(comb(m, k) * (2**n - 1) ** k, cosets) * b_k_closed(n, k)
    total = (z_order * cosets) ** 2
    favorable = degree * total
    assert favorable.denominator == 1
    return DegreeReport(degree, int(favorable), total, "closed", m, n, z_order)


def two_factor_commutativity_closed(n: int) -> Fraction:
    """The m = 2 degree as the printed polynomial in x = 1/2**n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = Fraction(1, 2**n)
    return 1 - 6 * x + 22 * x**2 - 24 * x**3 + 8 * x**4


def associativity_degree_closed(n: int, z_order: int = 2) -> DegreeReport:
    """Exact probability that a uniform triple of the all-minus-one loop
    generates a group: (7*4**n - 14*2**n + 8) / 8**n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    degree = Fraction(7 * 4**n - 14 * 2**n + 8, 8**n)
    total = (z_order * 2**n) ** 3
    favorable = degree * total
    assert favorable.denominator == 1
    return DegreeReport(degree, int(favorable), total, "closed", 1, n, z_order)


def pc_limit_table(
    mode: str, fixed: int, start: int, stop: int
) -> list[tuple[int, Fraction]]:
    """Closed-form commutativity degrees along a growing parameter.

    mode "grow_n" varies n with m = fixed; mode "grow_m" varies m with
    n = fixed.  Returns (parameter, degree) pairs for start..stop inclusive.
    """
    if mode not in ("grow_n", "grow_m"):
        raise ValueError(f"mode must be grow_n or grow_m, got {mode!r}")
    if start < 1 or stop < start:
        raise ValueError(f"need 1 <= start <= stop, got {start}..{stop}")
    out = []
    for value in range(start, stop + 1):
        if mode == "grow_n":
            report = commutativity_degree_closed(fixed, value)
        else:
            report = commutativity_degree_closed(value, fixed)
        out.append((value, report.degree))
    return out


# -- brute-force surveys -------------------------------------------------------


def commutant(
    A: CentralProduct, x: ProductElement, max_elements: int | None = None
) -> list[ProductElement]:
    """All y with x*y = y*x, in enumeration order."""
    ensure_budget(A.order, max_elements, "commutant enumeration")
    return [y for y in A.penumerate(max_elements) if A.pmul(x, y) == A.pmul(y, x)]


def commutant_coset_sizes(
    A: CentralProduct, max_elements: int | None = None
) -> list[int]:
    """|C_A(x)/Z| for one representative per coset, indexed by combined mask."""
    pairs = A.coset_count**2
    ensure_budget(pairs, max_elements, "commutant survey over coset pairs")
    twist = coset_twist_matrix(A)
    return [int(c) for c in (twist == twist.T).sum(axis=1)]


def commutativity_degree_brute(
    A: CentralProduct, max_elements: int | None = None
) -> DegreeReport:
    """Count commuting pairs exhaustively over A/Z x A/Z."""
    pairs = A.coset_count**2
    ensure_budget(pairs, max_elements, "commutativity survey over coset pairs")
    twist = coset_twist_matrix(A)
    favorable = int((twist == twist.T).sum()) * A.z.order**2
    total = A.order**2
    return DegreeReport(
        Fraction(favorable, total), favorable, total, "brute", A.m, A.n, A.z.order
    )


def rank_census_brute(
    A: CentralProduct, max_elements: int | None = None
) -> list[int]:
    """Histogram of element ranks over the full enumeration."""
    counts = [0] * (A.m + 1)
    for x in A.penumerate(max_elements):
        counts[x.rank] += 1
    return counts


# -- associativity -------------------------------------------------------------


def _xor_span(masks: tuple[int, ...]) -> frozenset[int]:
    span = {0}
    for mask in masks:
        span |= {s ^ mask for s in span}
    return frozenset(span)


def _span_is_associative(L: CDLoop, span: frozenset[int]) -> bool:
    twist = L.twist_exp
    order = L.z.order
    for e in span:
        for f in span:
            ef = e ^ f
            head = twist(e, f)
            for g in span:
                if (head + twist(ef, g) - twist(f, g) - twist(e, f ^ g)) % order:
                    return False
    return True


def generates_group(
    L: CDLoop, x: LoopElement, y: LoopElement, z: LoopElement
) -> bool:
    """True iff the subloop generated by {x, y, z} is a group.

    The closure of three monomials consists of monomials whose masks span
    the XOR-span of the three input masks, and associators never see the
    scalar parts, so the subloop is associative exactly when every mask
    triple from that span associates.  A finite associative subloop is a
    group.
    """
    for el in (x, y, z):
        if el.loop != L:
            raise ValueError("element belongs to a different loop")
    return _span_is_associative(L, _xor_span((x.mask, y.mask, z.mask)))


def associativity_degree_brute(
    L: CDLoop, max_elements: int | None = None
) -> DegreeReport:
    """Count group-generating triples over the full element list."""
    total = L.order**3
    ensure_budget(total, max_elements, "associativity survey over element triples")
    masks = [el.mask for el in L.elements(max_elements)]
    triple_verdict: dict[tuple[int, int, int], bool] = {}
    span_verdict: dict[frozenset[int], bool] = {}
    favorable = 0
    for em in masks:
        for fm in masks:
            for gm in masks:
                key = (em, fm, gm)
                ok = triple_verdict.get(key)
                if ok is None:
                    span = _xor_span(key)
                    ok = span_verdict.get(span)
                    if ok is None:
                        ok = _span_is_associative(L, span)
                        span_verdict[span] = ok
                    triple_verdict[key] = ok
                favorable += ok
    return DegreeReport(
        Fraction(favorable, total), favorable, total, "brute", 1, L.n, L.z.order
    )


def commutator_exponent_image(
    A: CentralProduct, max_elements: int | None = None
) -> set[int]:
    """Scalar exponents of x*y / (y*x) over all pairs.

    Scalar parts of x and y cancel in the commutator, so the image over
    coset pairs equals the image over all element pairs.
    """
    ensure_budget(A.coset_count**2, max_elements, "commutator image over coset pairs")
    twist = coset_twist_matrix(A).astype(np.int64)
    return {int(v) for v in np.unique((twist - twist.T) % A.z.order)}


def associator_exponent_image(
    A: CentralProduct, max_elements: int | None = None
) -> set[int]:
    """Scalar exponents of ((x*y)*z) / (x*(y*z)) over all triples.

    As with commutators, scalar parts cancel, so coset triples cover the
    full element-triple image.
    """
    size = A.coset_count
    ensure_budget(size**3, max_elements, "associator image over coset triples")
    twist = coset_twist_matrix(A).astype(np.int64)
    combo = np.arange(size)
    xor = combo[:, None] ^ combo[None, :]
    exps = (
        twist[:, :, None]
        + twist[xor, :]
        - twist[None, :, :]
        - twist[combo[:, None, None], xor[None, :, :]]
    ) % A.z.order
    return {int(v) for v in np.unique(exps)}


# -- structural identity checks -------------------------------------------------


def is_di_associative(L: CDLoop, max_elements: int | None = None) -> bool:
    """True iff every 2-generated subloop of L is a group."""
    ensure_budget(L.order**2, max_elements, "di-associativity survey over pairs")
    verdicts: dict[frozenset[int], bool] = {}
    elems = L.elements(max_elements)
    for x in elems:
        for y in elems:
            span = _xor_span((x.mask, y.mask))
            ok = verdicts.get(span)
            if ok is None:
                ok = _span_is_associative(L, span)
                verdicts[span] = ok
            if not ok:
                return False
    return True


def moufang_identity_holds(L: CDLoop, max_elements: int | None = None) -> bool:
    """Exhaustively check ((x*y)*z)*y == x*(y*(z*y))."""
    ensure_budget(L.order**3, max_elements, "Moufang survey over element triples")
    elems = L.elements(max_elements)
    mul = L.mul
    for x in elems:
        for y in elems:
            xy = mul(x, y)
            for z in elems:
                if mul(mul(xy, z), y) != mul(x, mul(y, mul(z, y))):
                    return False
    return True
