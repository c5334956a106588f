"""Coset-level surveys against the element walks they replaced.

Every survey in cdloops.analytics works on cosets of Z.  The oracles here
are the element-level walks it used to run: they enumerate elements and
multiply them with CDLoop.mul and CentralProduct.pmul, sharing no code with
the coset kernel beyond twist_exp.  The associativity surveys list each
subspace of A/Z once; their oracles are the element walks and the coset
triple dedupe that listing replaced.
"""

import random
import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from cdloops import (
    CDLoop,
    Scalar,
    associativity_degree_brute,
    associator_exponent_image,
    commutant,
    commutant_coset_sizes,
    commutativity_degree_brute,
    coset_twist_matrix,
    generates_group,
    is_di_associative,
    make_product,
    make_scalar_group,
    moufang_identity_holds,
    rank_census_brute,
    to_table,
)
from cdloops import analytics

ORDERS = (2, 4, 6)


def random_loop(rng: random.Random, order: int, n: int) -> CDLoop:
    z = make_scalar_group(order)
    return CDLoop(z, tuple(Scalar(z, rng.randrange(order)) for _ in range(n)))


# -- element-level oracles ---------------------------------------------------------


def xor_span(masks) -> frozenset:
    span = {0}
    for mask in masks:
        span |= {s ^ mask for s in span}
    return frozenset(span)


def span_is_associative(L: CDLoop, span) -> bool:
    order = L.z.order
    for e in span:
        for f in span:
            for g in span:
                exp = (
                    L.twist_exp(e, f) + L.twist_exp(e ^ f, g)
                    - L.twist_exp(f, g) - L.twist_exp(e, f ^ g)
                )
                if exp % order:
                    return False
    return True


def generates_group_oracle(L, x, y, z) -> bool:
    return span_is_associative(L, xor_span((x.mask, y.mask, z.mask)))


def associativity_count_oracle(L: CDLoop) -> int:
    verdicts: dict = {}
    favorable = 0
    elems = L.elements()
    for x in elems:
        for y in elems:
            for z in elems:
                span = xor_span((x.mask, y.mask, z.mask))
                if span not in verdicts:
                    verdicts[span] = span_is_associative(L, span)
                favorable += verdicts[span]
    return favorable


def span_count_oracle(L: CDLoop) -> int:
    """associativity_count_oracle over coset triples, times |Z|**3."""
    verdicts: dict = {}
    favorable = 0
    masks = range(1 << L.n)
    for e in masks:
        for f in masks:
            for g in masks:
                span = xor_span((e, f, g))
                if span not in verdicts:
                    verdicts[span] = span_is_associative(L, span)
                favorable += verdicts[span]
    return favorable * L.z.order**3


def di_associative_oracle(L: CDLoop) -> bool:
    verdicts: dict = {}
    elems = L.elements()
    for x in elems:
        for y in elems:
            span = xor_span((x.mask, y.mask))
            if span not in verdicts:
                verdicts[span] = span_is_associative(L, span)
            if not verdicts[span]:
                return False
    return True


def moufang_oracle(L: CDLoop) -> bool:
    elems = L.elements()
    mul = L.mul
    for x in elems:
        for y in elems:
            xy = mul(x, y)
            for z in elems:
                if mul(mul(xy, z), y) != mul(x, mul(y, mul(z, y))):
                    return False
    return True


def census_oracle(A) -> list[int]:
    counts = [0] * (A.m + 1)
    for x in A.penumerate():
        counts[x.rank] += 1
    return counts


def commutant_oracle(A, x) -> list:
    return [y for y in A.penumerate() if A.pmul(x, y) == A.pmul(y, x)]


# -- surveys against the oracles -------------------------------------------------


@pytest.mark.parametrize("order", ORDERS)
def test_moufang_matches_the_element_walk(order):
    rng = random.Random(10 + order)
    for n in range(4):
        L = random_loop(rng, order, n)
        assert moufang_identity_holds(L) == moufang_oracle(L), L.describe()


@pytest.mark.parametrize("order", ORDERS)
def test_moufang_fails_at_depth_four(order):
    z = make_scalar_group(order)
    rng = random.Random(20 + order)
    for L in (CDLoop.all_minus_one(z, 4), random_loop(rng, order, 4)):
        assert moufang_oracle(L) is False
        assert moufang_identity_holds(L) is False


@pytest.mark.parametrize("order", ORDERS)
def test_di_associativity_matches_the_element_walk(order):
    rng = random.Random(30 + order)
    for n in range(5):
        L = random_loop(rng, order, n)
        assert is_di_associative(L) == di_associative_oracle(L), L.describe()


@pytest.mark.parametrize("order", ORDERS)
def test_associativity_degree_matches_the_element_walk(order):
    rng = random.Random(40 + order)
    for n in range(4):
        L = random_loop(rng, order, n)
        report = associativity_degree_brute(L)
        assert report.total == L.order**3
        assert report.favorable == associativity_count_oracle(L), L.describe()


@pytest.mark.parametrize("order, n", [(2, 4), (4, 4), (6, 4), (2, 5)])
def test_associativity_degree_matches_the_coset_span_walk(order, n):
    L = random_loop(random.Random(45 + order + n), order, n)
    assert associativity_degree_brute(L).favorable == span_count_oracle(L), L.describe()


@pytest.mark.parametrize("order", ORDERS)
def test_generates_group_matches_the_span_oracle(order):
    rng = random.Random(50 + order)
    for n in (3, 4):
        L = random_loop(rng, order, n)
        elems = L.elements()
        verdicts = set()
        for _ in range(150):
            x, y, z = (rng.choice(elems) for _ in range(3))
            verdict = generates_group(L, x, y, z)
            assert verdict == generates_group_oracle(L, x, y, z)
            verdicts.add(verdict)
        assert verdicts == {True, False}
        l1, l2, l3 = (L.generator(i) for i in (1, 2, 3))
        assert generates_group_oracle(L, l1, l2, l3) is False
        assert generates_group(L, l1, l2, l3) is False


@pytest.mark.parametrize("order", ORDERS)
def test_rank_census_matches_the_element_walk(order):
    rng = random.Random(60 + order)
    z = make_scalar_group(order)
    for m in (1, 2):
        for n in (1, 2, 3):
            A = make_product(z, [random_loop(rng, order, n) for _ in range(m)])
            assert rank_census_brute(A) == census_oracle(A)


@pytest.mark.parametrize("order", ORDERS)
def test_commutant_matches_the_element_walk(order):
    rng = random.Random(70 + order)
    z = make_scalar_group(order)
    for m in (1, 2):
        for n in (1, 2, 3):
            A = make_product(z, [random_loop(rng, order, n) for _ in range(m)])
            picks = [0] + [rng.randrange(A.order) for _ in range(3)]
            for index in picks:
                x = A.element_at(index)
                assert commutant(A, x) == commutant_oracle(A, x), (A.describe(), index)


def test_commutant_rejects_an_element_of_another_product():
    z = make_scalar_group(2)
    A = make_product(z, [CDLoop.all_minus_one(z, 3)])
    B = make_product(z, [CDLoop.all_minus_one(z, 2)])
    with pytest.raises(ValueError, match="different product"):
        commutant(A, B.element_at(3))


# -- sixteen generators: no dense table ---------------------------------------------


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_generates_group_at_sixteen_generators_builds_no_dense_table():
    rng = random.Random(16)
    L = random_loop(rng, 4, 16)
    l1, l2, l3 = (L.generator(i) for i in (1, 2, 3))
    k = L.mul(l1, l2)
    (quaternion, octonion), peak = traced_peak(
        lambda: (generates_group(L, l1, l2, k), generates_group(L, l1, l2, l3))
    )
    assert peak < 1 << 20
    assert "_twist_table" not in vars(L)
    assert quaternion == generates_group_oracle(L, l1, l2, k)
    assert octonion == generates_group_oracle(L, l1, l2, l3)


def test_commutant_at_sixteen_generators_builds_no_dense_table():
    z = make_scalar_group(2)
    L = CDLoop.all_minus_one(z, 16)
    A = make_product(z, [L])
    x = A.embed(1, L.mul(L.generator(2), L.generator(16)))
    result, peak = traced_peak(lambda: commutant(A, x))
    assert peak < 1 << 20
    assert "_twist_table" not in vars(L)
    # a rank-1 element commutes with |Z| * 2**n * b_1(n) = 2 * |Z| elements:
    # the scalars times its own coset and the identity's
    c = x.mask
    assert [A.element_index(y) for y in result] == [0, c, A.coset_count, A.coset_count + c]


def test_associator_image_walks_cosets_in_bounded_blocks():
    z = make_scalar_group(2)
    L = CDLoop.all_minus_one(z, 8)
    image, peak = traced_peak(lambda: associator_exponent_image(L, 1 << 24))
    assert image == {0, 1}
    assert peak < 64 << 20


def test_associator_image_is_the_same_in_any_block_size(monkeypatch):
    rng = random.Random(7)
    shapes = [(4, 1, 3), (2, 2, 2), (6, 1, 4), (4, 2, 3)]
    products = [random_product(rng, order, m, n) for order, m, n in shapes]
    whole = [associator_exponent_image(A) for A in products]
    # three cosets e per block at 16 cosets leaves a short last block
    monkeypatch.setattr(analytics, "_BLOCK_CELLS", 3 * 16**2)
    assert [associator_exponent_image(A) for A in products] == whole
    monkeypatch.setattr(analytics, "_BLOCK_CELLS", 1)
    assert [associator_exponent_image(A) for A in products] == whole


# -- products: element walks and the coset triple dedupe ---------------------------


def random_product(rng: random.Random, order: int, m: int, n: int):
    z = make_scalar_group(order)
    return make_product(z, [random_loop(rng, order, n) for _ in range(m)])


class ProductWalk:
    """Element-level oracles for a product, over its pmul multiplication table.

    Element i of penumerate() has element_index i, so the table's entries
    index the same list.
    """

    def __init__(self, A):
        self.elems = A.penumerate()
        assert [A.element_index(x) for x in self.elems] == list(range(A.order))
        self.T = np.array(
            [[A.element_index(A.pmul(x, y)) for y in self.elems] for x in self.elems]
        )
        self.masks = [x.mask for x in self.elems]
        self.by_span: dict = {}
        self.by_masks: dict = {}

    def closure(self, seed) -> np.ndarray:
        inside = np.zeros(len(self.elems), dtype=bool)
        inside[list(seed)] = True
        inside[0] = True
        while True:
            current = np.flatnonzero(inside)
            inside[self.T[np.ix_(current, current)]] = True
            if inside.sum() == len(current):
                return current

    def generates_group(self, *picks) -> bool:
        """Whether the subloop generated by the picked indices is associative.

        Verdicts are shared by picks whose masks have one XOR span.
        """
        masks = tuple(self.masks[i] for i in picks)
        if masks not in self.by_masks:
            span = xor_span(masks)
            if span not in self.by_span:
                self.by_span[span] = self.closure_associates(picks)
            self.by_masks[masks] = self.by_span[span]
        return self.by_masks[masks]

    def closure_associates(self, picks) -> bool:
        """Whether the subloop generated by the picked indices is associative,
        judged on that subloop's own table without appeal to spans."""
        s = self.closure(picks)
        a, b, c = s[:, None, None], s[:, None], s
        T = self.T
        return bool((T[T[a, b], c] == T[a, T[b, c]]).all())

    def associativity_count(self) -> int:
        size = len(self.elems)
        return sum(
            self.generates_group(i, j, k)
            for i in range(size)
            for j in range(size)
            for k in range(size)
        )

    def di_associative(self) -> bool:
        size = len(self.elems)
        return all(self.generates_group(i, j) for i in range(size) for j in range(size))

    def moufang(self) -> bool:
        T = self.T
        x, y, z = np.ogrid[: len(T), : len(T), : len(T)]
        return bool((T[T[T[x, y], z], y] == T[x, T[y, T[z, y]]]).all())


def triple_dedupe_oracle(A) -> int:
    """The associativity survey's favorable count as it was first written:
    every coset triple's span as a sorted row of 8 masks, deduped with a
    void view, each distinct row judged on coset_twist_matrix(A)."""
    size = A.coset_count
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
    t, order = coset_twist_matrix(A), A.z.order
    ok = ((t[e, f] + t[e ^ f, g]) % order == (t[f, g] + t[e, f ^ g]) % order).all(
        axis=(1, 2, 3)
    )
    return int(counts[ok].sum()) * order**3


@pytest.mark.parametrize("order", (2, 4))
@pytest.mark.parametrize("n", (1, 2))
def test_product_surveys_match_the_element_walks(order, n):
    rng = random.Random(80 + 10 * order + n)
    for _ in range(2):
        A = random_product(rng, order, 2, n)
        walk = ProductWalk(A)
        report = associativity_degree_brute(A)
        assert (report.m, report.n, report.z_order) == (2, n, order)
        assert report.total == A.order**3
        assert report.favorable == walk.associativity_count(), A.describe()
        assert is_di_associative(A) == walk.di_associative(), A.describe()
        assert moufang_identity_holds(A) == walk.moufang(), A.describe()


def test_product_moufang_and_di_associativity_match_the_walks_at_depth_three():
    rng = random.Random(90)
    for _ in range(2):
        A = random_product(rng, 2, 2, 3)
        walk = ProductWalk(A)
        assert is_di_associative(A) == walk.di_associative(), A.describe()
        assert moufang_identity_holds(A) == walk.moufang(), A.describe()


def test_product_associativity_matches_the_triple_dedupe():
    z = make_scalar_group(2)
    octonions = make_product(z, [CDLoop.all_minus_one(z, 3)] * 2)
    report = associativity_degree_brute(octonions)
    assert report.degree == Fraction(1145, 2048)
    assert report.favorable == triple_dedupe_oracle(octonions)
    rng = random.Random(95)
    for order, n in ((2, 2), (4, 2), (2, 3), (4, 3)):
        A = random_product(rng, order, 2, n)
        favorable = associativity_degree_brute(A).favorable
        assert favorable == triple_dedupe_oracle(A), A.describe()


@pytest.mark.parametrize("order, n", [(2, 4), (6, 4), (2, 5)])
def test_loop_associativity_matches_the_triple_dedupe(order, n):
    L = random_loop(random.Random(97 + order + n), order, n)
    assert associativity_degree_brute(L).favorable == triple_dedupe_oracle(L.product)


@pytest.mark.parametrize("order", (2, 4))
def test_product_generates_group_matches_the_closure_walk(order):
    rng = random.Random(100 + order)
    verdicts = set()
    for n in (1, 2, 3):
        A = random_product(rng, order, 2, n)
        walk = ProductWalk(A)
        for _ in range(100):
            picks = [rng.randrange(A.order) for _ in range(3)]
            verdict = generates_group(A, *(walk.elems[i] for i in picks))
            assert verdict == walk.closure_associates(picks), (A.describe(), picks)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_generates_group_rejects_an_element_of_another_product():
    z = make_scalar_group(2)
    L = CDLoop.all_minus_one(z, 3)
    A = make_product(z, [L, L])
    x, l1, l2 = A.element_at(9), L.generator(1), L.generator(2)
    with pytest.raises(ValueError, match="different product"):
        generates_group(A, x, x, l1)
    with pytest.raises(ValueError, match="different product"):
        generates_group(L, l1, l2, x)


# -- associator and Moufang exponents do not depend on the gammas -------------------


def associator_and_moufang_exponents(L: CDLoop) -> tuple[np.ndarray, np.ndarray]:
    """((x*y)*z) / (x*(y*z)) and ((x*y)*z)*y / (x*(y*(z*y))) exponents over
    all coset triples (e, f, g), read off the loop's twist table."""
    t = L.twist_table().astype(np.int64)
    e, f, g = np.ix_(*[np.arange(1 << L.n)] * 3)
    associator = t[e, f] + t[e ^ f, g] - t[f, g] - t[e, f ^ g]
    moufang = t[e, f] + t[e ^ f, g] + t[e ^ f ^ g, f] - t[g, f] - t[f, g ^ f] - t[e, g]
    return associator % L.z.order, moufang % L.z.order


@pytest.mark.parametrize("order", (2, 6, 10))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_associator_and_moufang_exponents_do_not_depend_on_the_gammas(order, n):
    # per shared bit, gamma_i * e_i * f_i cancels in both differences, so a
    # per-factor associator census is the same for every gamma vector of depth n
    z = make_scalar_group(order)
    plus = CDLoop(z, (z.one,) * n)
    associator, moufang = associator_and_moufang_exponents(plus)
    assert associator.any() and moufang.any() == (n > 3)
    rng = random.Random(f"gammas:{order}:{n}")
    for _ in range(3):
        gammas = [rng.randrange(1, order)] + [rng.randrange(order) for _ in range(n - 1)]
        rng.shuffle(gammas)
        L = CDLoop(z, tuple(Scalar(z, g) for g in gammas))
        assert not np.array_equal(L.twist_table(), plus.twist_table())
        other_associator, other_moufang = associator_and_moufang_exponents(L)
        assert np.array_equal(other_associator, associator)
        assert np.array_equal(other_moufang, moufang)


# -- blocked span verdicts --------------------------------------------------------


def test_blocked_verdicts_match_one_block(monkeypatch):
    A = random_product(random.Random(99), 2, 2, 3)
    t, spans = coset_twist_matrix(A), analytics._subspaces(6, 3)[0]
    whole = analytics._associates(t, A.z.order, spans)
    assert whole.any() and not whole.all()
    report, di = associativity_degree_brute(A), is_di_associative(A)
    # blocks of 3, 1 and 5 rows: the last block is ragged in the first and
    # third case
    for cells in (3 * 8**3, 1, 5 * 8**3 + 7):
        monkeypatch.setattr(analytics, "_BLOCK_CELLS", cells)
        assert np.array_equal(analytics._associates(t, A.z.order, spans), whole)
        assert associativity_degree_brute(A) == report
        assert is_di_associative(A) == di


def test_associativity_survey_memory_is_bounded_by_blocks():
    # one broadcast over all 14606 listed subspaces of F2**7 would peak above 20 MiB
    z = make_scalar_group(2)
    L = CDLoop.all_minus_one(z, 7)
    report, peak = traced_peak(lambda: associativity_degree_brute(L, 1 << 21))
    assert report.degree == Fraction(14113, 262144)
    assert peak < 8 << 20


# -- the subspace lister ---------------------------------------------------------


def gaussian_binomial(k: int, r: int) -> int:
    """Number of r-dimensional subspaces of F2**k."""
    top = prod(2 ** (k - i) - 1 for i in range(r))
    return top // prod(2 ** (i + 1) - 1 for i in range(r))


@pytest.mark.parametrize("k", range(9))
def test_spanning_triple_weights_sum_to_all_coset_triples(k):
    _, dims = analytics._subspaces(k, 3)
    assert int(analytics._SPANNING_TRIPLES[dims].sum()) == 8**k


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("k", range(7))
def test_subspaces_are_listed_once_each(k, d):
    spans, dims = analytics._subspaces(k, d)
    assert spans.shape == (len(dims), 1 << d)
    for r in range(d + 1):
        assert int((dims == r).sum()) == gaussian_binomial(k, r), r
    members = [frozenset(row.tolist()) for row in spans]
    assert len(set(members)) == len(members)
    i = np.arange(1 << d)
    for row, r, span in zip(spans, dims, members):
        assert len(span) == 1 << r
        assert all(0 <= v < 1 << k for v in span)
        # members XOR like their indices, which _associates relies on
        assert (row[i[:, None] ^ i] == row[:, None] ^ row).all()


# -- one coercion for every survey ------------------------------------------------


SURVEYS = (
    associativity_degree_brute,
    commutant_coset_sizes,
    commutativity_degree_brute,
    is_di_associative,
    moufang_identity_holds,
    rank_census_brute,
)


@pytest.mark.parametrize("survey", SURVEYS + (to_table,))
def test_surveys_take_a_loop_as_its_one_factor_product(survey):
    L = random_loop(random.Random(7), 4, 3)
    assert survey(L) == survey(L.product)
    with pytest.raises(TypeError, match="expected CDLoop or CentralProduct, got tuple"):
        survey((L,))


def test_generates_group_takes_a_loop_as_its_one_factor_product():
    L = random_loop(random.Random(9), 4, 3)
    l1, l2, l3 = (L.generator(i) for i in (1, 2, 3))
    k = L.mul(l1, l2)
    for triple in ((l1, l2, l3), (l1, l2, k)):
        assert generates_group(L, *triple) == generates_group(L.product, *triple)
    with pytest.raises(TypeError, match="expected CDLoop or CentralProduct, got tuple"):
        generates_group((L,), l1, l2, l3)


def test_commutant_takes_a_loop_as_its_one_factor_product():
    L = random_loop(random.Random(8), 2, 3)
    x = L.generator(2)
    assert commutant(L, x) == commutant(L.product, x)
    with pytest.raises(TypeError, match="expected CDLoop or CentralProduct, got int"):
        commutant(3, x)
