"""Commutativity and associativity statistics for loops and their products.

Brute-force routines enumerate honestly and report exact counts as
fractions.  Closed-form routines evaluate the matching exact expressions so
the two can be compared at zero tolerance.  Scalars are central, so they
cancel in every commutator, associator and Moufang word: each survey is a
statement about cosets of Z, walks masks rather than elements, and
multiplies counts back by powers of |Z|.  Every survey takes a loop or a
central product (a loop is its own one-factor product).  The coset twist
matrix T and C = T - T.T mod |Z| (c1, c2 commute iff C[c1, c2] = 0) are
Kronecker sums of factor tables, so survey exponents sum factor terms at
free indices: the images, commutant coset sizes, Moufang and
di-associativity walk each factor once (each docstring proves how), the
brute degrees every coset pair or triple.  Array exponents add through
add_exponents, exact for every |Z|.  Associativity depends only on the XOR
span of the masks: each subspace of dimension <= 3 (or 2) is judged once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .budget import _BLOCK_CELLS, ensure_budget
from .cdloop import CDLoop, as_product
from .central_product import CentralProduct, ProductElement, coset_twist_matrix
from .central_product import _kronecker_bands, _kronecker_sum
from .scalars import add_exponents, twist_dtype

# Ordered triples of vectors that span a given r-dimensional space, for
# r = 0..3: the surjections F2**3 -> F2**r.
_SPANNING_TRIPLES = np.array([1, 7, 42, 168])


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
    """Exact probability that a uniform triple of any single loop of depth n
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
    charged the sum of (m + 1) * n over all rows, an arithmetic series in
    start..stop summed in closed form before the first row is built.
    """
    if mode not in ("grow_n", "grow_m"):
        raise ValueError(f"mode must be grow_n or grow_m, got {mode!r}")
    if start < 1 or stop < start:
        raise ValueError(f"need 1 <= start <= stop, got {start}..{stop}")
    values = range(start, stop + 1)
    total = (start + stop) * len(values) // 2
    cells = (fixed + 1) * total if mode == "grow_n" else fixed * (total + len(values))
    ensure_budget(cells, max_elements, "limit table")
    shapes = [(fixed, v) if mode == "grow_n" else (v, fixed) for v in values]
    return [
        (v, commutativity_degree_closed(m, n).degree)
        for v, (m, n) in zip(values, shapes)
    ]


# -- brute-force surveys -------------------------------------------------------


def commutant(
    A: CDLoop | CentralProduct, x: ProductElement, max_elements: int | None = None
) -> list[ProductElement]:
    """All y with x*y = y*x, in enumeration order.

    Whether y commutes with x depends only on y's coset.  By the doubling
    law t(e, f) is the all-(+1) loop's twist plus the gamma_i over the bits
    e and f share, a symmetric term that cancels in t(e, f) - t(f, e); in
    the all-(+1) loop distinct non-scalar monomials anticommute.  So b(e),
    b(f) commute unless e and f are distinct and both nonzero, whatever the
    gammas, and y commutes with x iff an even number of factors anticommute:
    one boolean row per factor, XORed as a Kronecker sum, factor 1 lowest.
    """
    A = as_product(A)
    ensure_budget(A.order, max_elements, "commutant enumeration")
    A._check_member(x)
    f = np.arange(1 << A.n)
    odd = np.zeros(1, dtype=bool)
    for e in x.masks:
        anticommutes = (f != 0) & (f != e) & (e != 0)
        odd = (anticommutes[:, None] ^ odd).ravel()
    return A._coset_elements(np.flatnonzero(~odd))


def _factor_commutators(A: CentralProduct) -> list[np.ndarray]:
    """Each factor's commutator exponents t_i - t_i.T mod |Z| over its mask pairs."""
    return [add_exponents(t, A.z.order - t.T, A.z.order) for t in A.twist_tables()]


def commutant_coset_sizes(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> list[int]:
    """|C_A(x)/Z| for one representative per coset, indexed by combined mask.

    Row (e_1..e_m) counts the (f_1..f_m), each f_i free, with sum_i
    c_i(e_i, f_i) = 0 mod |Z|: the zero coefficient of the convolution over
    Z_|Z| of the rows' value counts, folded factor by factor (the last one
    only at the values that cancel).  Counts (int64) <= coset_count.
    """
    A = as_product(A)
    ensure_budget(A.coset_count**2, max_elements, "commutant survey over coset pairs")
    order = A.z.order
    *inner, last = _factor_commutators(A)
    values, counts = np.zeros(1, twist_dtype(order)), np.ones((1, 1), np.int64)
    for c in inner:
        image = np.unique(c)
        hist = (c[:, :, None] == image).sum(axis=1)
        cross = (hist[:, None, None] * counts[:, :, None]).reshape(len(c) * len(counts), -1)
        values, where = np.unique(add_exponents(values[:, None], image, order), return_inverse=True)
        counts = np.zeros((len(cross), values.size), np.int64)
        np.add.at(counts, (slice(None), where.ravel()), cross)
    zero = (last[:, :, None] == (order - values) % order).sum(axis=1)
    return (zero @ counts.T).ravel().tolist()


def commutativity_degree_brute(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> DegreeReport:
    """Count commuting pairs exhaustively over A/Z x A/Z: the zeros of C, one
    band of its last Kronecker level at a time, never holding it whole."""
    A = as_product(A)
    pairs = A.coset_count**2
    ensure_budget(pairs, max_elements, "commutativity survey over coset pairs")
    *inner, last = _factor_commutators(A)
    bands = _kronecker_bands(last, _kronecker_sum(inner, A.z.order), A.z.order) if inner else [last]
    zeros = pairs - sum(int(np.count_nonzero(band)) for band in bands)
    favorable = zeros * A.z.order**2
    total = A.order**2
    return DegreeReport(
        Fraction(favorable, total), favorable, total, "brute", A.m, A.n, A.z.order
    )


def rank_census_brute(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> list[int]:
    """Histogram of element ranks: combined masks counted by rank, times |Z|."""
    A = as_product(A)
    ensure_budget(A.order, max_elements, "product enumeration")
    ranks = np.bincount(A.coset_ranks(), minlength=A.m + 1)
    return [int(c) * A.z.order for c in ranks]


# -- associativity -------------------------------------------------------------


def _associates(t: np.ndarray, order: int, spans: np.ndarray) -> np.ndarray:
    """Whether (b(e)*b(f))*b(g) == b(e)*(b(f)*b(g)) for all e, f, g from
    each row of span members (see generates_group), one verdict per row.

    t is a twist table whose index XOR matches mask XOR; each side's
    exponent is a sum of two entries of t.  Rows are judged in blocks whose
    temporaries stay within _BLOCK_CELLS cells.
    """
    block = max(1, _BLOCK_CELLS // spans.shape[1] ** 3)
    verdicts = []
    for start in range(0, len(spans), block):
        s = spans[start : start + block]
        e, f, g = s[:, :, None, None], s[:, None, :, None], s[:, None, None]
        left = add_exponents(t[e, f], t[e ^ f, g], order)
        same = left == add_exponents(t[f, g], t[e, f ^ g], order)
        verdicts.append(same.all(axis=(1, 2, 3)))
    return np.concatenate(verdicts)


def generates_group(
    A: CDLoop | CentralProduct, x: ProductElement, y: ProductElement, z: ProductElement
) -> bool:
    """True iff the subloop generated by {x, y, z} is a group.

    The closure of three monomials consists of monomials whose masks span
    the XOR-span of the three input masks, and associators never see the
    scalar parts, so the subloop is associative exactly when every mask
    triple from that span associates.  A finite associative subloop is a
    group.  Span member i XORs the input mask tuples picked by the bits of
    i, so the span's own 8 x 8 twist table indexes like the dense one.
    """
    A = as_product(A)
    span = [(0,) * A.m]
    for el in (x, y, z):
        A._check_member(el)
        span += [tuple(a ^ b for a, b in zip(s, el.masks)) for s in span]
    order = A.z.order
    sums = [[A._twist_sum(a, b) % order for b in span] for a in span]
    table = np.array(sums, dtype=twist_dtype(order))
    return bool(_associates(table, order, np.arange(8)[None])[0])


def _subspaces(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every subspace of F2**k of dimension <= d once, and its dimension.

    A subspace is grown from its reduced echelon basis one vector at a time:
    with P the OR of the pivots (leading bits) so far, the next vector v
    lies above all of them (v > P) and is clear at each (v & P == 0).  Row
    member i is the XOR of the basis vectors picked by the bits of i, so
    members XOR like their indices.  An r-dimensional subspace pads its
    basis with zeros, so its row lists each member 2**(d - r) times.
    """
    vectors = np.arange(1 << k, dtype=np.min_scalar_type((1 << k) - 1))
    lead = np.array([1 << v.bit_length() >> 1 for v in range(1 << k)], vectors.dtype)
    rows, pivots = np.zeros((1, 1), vectors.dtype), np.zeros(1, vectors.dtype)
    levels = [rows]
    for _ in range(d):
        P = pivots[:, None]
        which, v = np.nonzero((vectors > P) & (vectors & P == 0))
        rows = np.hstack([rows[which], rows[which] ^ vectors[v, None]])
        pivots = pivots[which] | lead[v]
        levels.append(rows)
    spans = np.vstack([np.tile(r, (1 << d) // r.shape[1]) for r in levels])
    return spans, np.repeat(np.arange(d + 1), [len(r) for r in levels])


def associativity_degree_brute(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> DegreeReport:
    """Count group-generating element triples exhaustively.

    A triple's verdict depends only on the XOR span of its masks (see
    generates_group).  Each subspace of A/Z of dimension <= 3 is judged
    once and stands for the coset triples that span it; the good coset
    triples are counted times |Z|**3.  The budget is charged the 8**(m*n)
    coset triples.
    """
    A = as_product(A)
    ensure_budget(
        8 ** (A.m * A.n), max_elements, "associativity survey over coset triples"
    )
    spans, dims = _subspaces(A.m * A.n, 3)
    ok = _associates(coset_twist_matrix(A), A.z.order, spans)
    favorable = int(_SPANNING_TRIPLES[dims[ok]].sum()) * A.z.order**3
    total = A.order**3
    return DegreeReport(
        Fraction(favorable, total), favorable, total, "brute", A.m, A.n, A.z.order
    )


def commutator_exponent_image(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> set[int]:
    """Scalar exponents of x*y / (y*x) over all pairs.

    Scalar parts of x and y cancel in the commutator, so the image over
    coset pairs equals the image over all element pairs: sum_i c_i(e_i, f_i)
    with each (e_i, f_i) free, the sumset of the factor images.
    """
    A = as_product(A)
    ensure_budget(A.coset_count**2, max_elements, "commutator image over coset pairs")
    image = {0}
    for factor in (np.unique(c).tolist() for c in _factor_commutators(A)):
        image = {(a + b) % A.z.order for a in image for b in factor}
    return image


def associator_exponent_image(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> set[int]:
    """Scalar exponents of ((x*y)*z) / (x*(y*z)) over all triples.

    As with commutators, scalar parts cancel, so coset triples cover the
    full element-triple image.  Masks XOR factorwise, so the exponent sums
    free factor terms a_i(e_i, f_i, g_i): the sumset of the factor images.
    Masks e go in blocks whose temporaries stay within _BLOCK_CELLS cells.
    """
    A = as_product(A)
    ensure_budget(A.coset_count**3, max_elements, "associator image over coset triples")
    order = A.z.order
    image = {0}
    for twist in A.twist_tables():
        combo = np.arange(len(twist))
        xor = combo[:, None] ^ combo[None, :]
        block = max(1, _BLOCK_CELLS // len(twist) ** 2)
        factor = set()
        for start in range(0, len(twist), block):
            e = combo[start : start + block, None]
            left = add_exponents(twist[start : start + block, :, None], twist[e ^ combo], order)
            right = add_exponents(twist, twist[start : start + block][:, xor], order)
            factor.update(np.unique(add_exponents(left, order - right, order)).tolist())
        image = {(a + b) % order for a in image for b in factor}
    return image


# -- structural identity checks -------------------------------------------------


def is_di_associative(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> bool:
    """True iff every 2-generated subloop is a group: every subspace of A/Z
    of dimension <= 2 associates (see generates_group).  Defects on
    span{x, y} sum the factors' defects on span{x_i, y_i}, and are 0 on the
    zero triple: a product passes iff every factor does (a failing factor
    pair, masks 0 elsewhere, fails in the product)."""
    A = as_product(A)
    ensure_budget(
        4 ** (A.m * A.n), max_elements, "di-associativity survey over coset pairs"
    )
    spans, _ = _subspaces(A.n, 2)
    return all(_associates(t, A.z.order, spans).all() for t in A.twist_tables())


def moufang_identity_holds(
    A: CDLoop | CentralProduct, max_elements: int | None = None
) -> bool:
    """Exhaustively check ((x*y)*z)*y == x*(y*(z*y)).

    Both sides carry the same central scalar parts, so it suffices that
    t(e,f) + t(e^f,g) + t(e^f^g,f) == t(g,f) + t(f,g^f) + t(e,g) mod |Z|
    for all coset masks.  The defect, left minus right, sums the factors'
    defects and is 0 on the zero triple: a product passes iff every factor
    does (a failing factor triple, masks 0 elsewhere, fails in the product).
    Per factor, masks e go one at a time; t(g,f) + t(f,g^f) is summed once.
    """
    A = as_product(A)
    ensure_budget(8 ** (A.m * A.n), max_elements, "Moufang survey over coset triples")
    order = A.z.order
    for t in A.twist_tables():
        f = np.arange(len(t))[:, None]
        g = f.T
        head = add_exponents(t[g, f], t[f, g ^ f], order)
        for e in range(len(f)):
            left = add_exponents(t[e, f], t[e ^ f, g], order)
            add_exponents(left, t[e ^ f ^ g, f], order, out=left)
            if (left != add_exponents(head, t[e, g], order)).any():
                return False
    return True
