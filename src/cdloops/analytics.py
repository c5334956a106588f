"""Commutativity and associativity statistics for loops and their products.

Brute-force routines enumerate honestly and report exact counts as
fractions.  Closed-form routines evaluate the matching exact expressions so
the two can be compared at zero tolerance.  Scalars are central, so they
cancel in every commutator, associator and Moufang word: each survey is a
statement about cosets of Z, walks masks rather than elements, and
multiplies counts back by powers of |Z|.  Pairwise surveys read the coset
twist matrix T: cosets c1, c2 commute exactly when T[c1, c2] == T[c2, c1],
because T's entries are already reduced.  Associativity, Moufang and
di-associativity surveys read the loop's dense twist table, whose narrow
unsigned dtype holds the sum of two entries; surveys that subtract entries
upcast to int64 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .budget import ensure_budget
from .cdloop import CDLoop
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
    mode: str, fixed: int, start: int, stop: int, max_elements: int | None = None
) -> list[tuple[int, Fraction]]:
    """Closed-form commutativity degrees along a growing parameter.

    mode "grow_n" varies n with m = fixed; mode "grow_m" varies m with
    n = fixed.  Returns (parameter, degree) pairs for start..stop inclusive.
    Row (m, n) sums m + 1 fractions of about m*n bits, so the budget is
    charged the sum of (m + 1) * n over all rows before the first is built.
    """
    if mode not in ("grow_n", "grow_m"):
        raise ValueError(f"mode must be grow_n or grow_m, got {mode!r}")
    if start < 1 or stop < start:
        raise ValueError(f"need 1 <= start <= stop, got {start}..{stop}")
    values = range(start, stop + 1)
    shapes = [(fixed, v) if mode == "grow_n" else (v, fixed) for v in values]
    ensure_budget(sum((m + 1) * n for m, n in shapes), max_elements, "limit table")
    return [
        (v, commutativity_degree_closed(m, n).degree)
        for v, (m, n) in zip(values, shapes)
    ]


# -- brute-force surveys -------------------------------------------------------


def commutant(
    A: CentralProduct, x: ProductElement, max_elements: int | None = None
) -> list[ProductElement]:
    """All y with x*y = y*x, in enumeration order.

    Whether y commutes with x depends only on y's coset.  The commutator
    exponents of x against every coset are the Kronecker sum of per-factor
    rows t_i(x_i, f) - t_i(f, x_i), read through twist_exp and kept in
    twist_table's dtype, which holds the sum of two reduced exponents.
    """
    ensure_budget(A.order, max_elements, "commutant enumeration")
    if x.product != A:
        raise ValueError("element belongs to a different product")
    order = A.z.order
    dtype = np.min_scalar_type(2 * (order - 1))
    exps = np.zeros(1, dtype=dtype)
    for d, e in zip(A.factors, x.masks):
        row = ((d.twist_exp(e, f) - d.twist_exp(f, e)) % order for f in range(1 << d.n))
        exps = (np.fromiter(row, dtype)[:, None] + exps).ravel() % order
    return A._coset_elements(np.flatnonzero(exps == 0))


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
    """Histogram of element ranks: combined masks counted by rank, times |Z|."""
    ensure_budget(A.order, max_elements, "product enumeration")
    masks = np.arange(A.coset_count)
    ranks = sum((masks >> (A.n * i)) % (1 << A.n) != 0 for i in range(A.m))
    return [int(c) * A.z.order for c in np.bincount(ranks, minlength=A.m + 1)]


# -- associativity -------------------------------------------------------------


def _associates(t: np.ndarray, order: int, e, f, g) -> np.ndarray:
    """Whether (b(e)*b(f))*b(g) == b(e)*(b(f)*b(g)), over broadcast index arrays.

    t is a twist table whose index XOR matches mask XOR; each side's
    exponent is a sum of two entries of t, which t's dtype holds.
    """
    return (t[e, f] + t[e ^ f, g]) % order == (t[f, g] + t[e, f ^ g]) % order


def generates_group(
    L: CDLoop, x: ProductElement, y: ProductElement, z: ProductElement
) -> bool:
    """True iff the subloop generated by {x, y, z} is a group.

    The closure of three monomials consists of monomials whose masks span
    the XOR-span of the three input masks, and associators never see the
    scalar parts, so the subloop is associative exactly when every mask
    triple from that span associates.  A finite associative subloop is a
    group.  Span member i is the XOR of the input masks picked by the bits
    of i, so the span's own 8 x 8 twist table indexes like the dense one.
    """
    for el in (x, y, z):
        if el.product != L.product:
            raise ValueError("element belongs to a different loop")
    span = [0]
    for mask in (x.mask, y.mask, z.mask):
        span += [s ^ mask for s in span]
    table = np.array([[L.twist_exp(a, b) for b in span] for a in span])
    i = np.arange(8)
    return bool(_associates(table, L.z.order, i[:, None, None], i[:, None], i).all())


def associativity_degree_brute(
    L: CDLoop, max_elements: int | None = None
) -> DegreeReport:
    """Count group-generating element triples exhaustively.

    A triple's verdict depends only on the XOR span of its masks (see
    generates_group).  Each coset triple's span, as a sorted row of 8 masks
    (an r-dimensional span lists each member 2**(3 - r) times), is judged
    once per distinct row, and the good coset triples are counted times
    |Z|**3.  The budget is charged the 8**n coset triples.
    """
    ensure_budget(8**L.n, max_elements, "associativity survey over coset triples")
    total = L.order**3
    size = 1 << L.n
    masks = np.arange(size, dtype=np.min_scalar_type(size - 1))
    rows = np.zeros((1, 1), dtype=masks.dtype)
    for _ in range(3):
        rows = np.repeat(rows, size, axis=0)
        rows = np.hstack([rows, rows ^ np.tile(masks, len(rows) // size)[:, None]])
    rows.sort(axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * 8))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    s = rows[first]
    e, f, g = s[:, :, None, None], s[:, None, :, None], s[:, None, None]
    ok = _associates(L.twist_table(), L.z.order, e, f, g).all(axis=(1, 2, 3))
    favorable = int(counts[ok].sum()) * L.z.order**3
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
    """True iff every 2-generated subloop of L is a group: for each coset e,
    every span {0, e, f, e^f} associates (see generates_group)."""
    ensure_budget(4**L.n, max_elements, "di-associativity survey over coset pairs")
    t = L.twist_table()
    f = np.arange(1 << L.n)
    for e in range(len(f)):
        s = np.stack([np.zeros_like(f), np.full_like(f, e), f, f ^ e])
        if not _associates(t, L.z.order, s[:, None, None], s[:, None], s).all():
            return False
    return True


def moufang_identity_holds(L: CDLoop, max_elements: int | None = None) -> bool:
    """Exhaustively check ((x*y)*z)*y == x*(y*(z*y)).

    Both sides carry the same central scalar parts, so it suffices that
    t(e,f) + t(e^f,g) + t(e^f^g,f) == t(g,f) + t(f,g^f) + t(e,g) mod |Z|
    for all masks, checked one coset e at a time.
    """
    ensure_budget(8**L.n, max_elements, "Moufang survey over coset triples")
    t = L.twist_table().astype(np.int64)
    f = np.arange(1 << L.n)[:, None]
    g = f.T
    for e in range(len(f)):
        left = t[e, f] + t[e ^ f, g] + t[e ^ f ^ g, f]
        if ((left - t[g, f] - t[f, g ^ f] - t[e, g]) % L.z.order).any():
            return False
    return True
