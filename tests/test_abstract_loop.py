import itertools
import random

import numpy as np
import pytest

from cdloops import (
    AbstractLoop,
    CDLoop,
    TableFormatError,
    find_isomorphism,
    make_product,
    make_scalar_group,
    parse_loop_table,
    random_relabel,
    recover_factors,
    serialize_loop_table,
    to_table,
    verify_isomorphism,
)
from cdloops import abstract_loop
from cdloops.central_product import coset_twist_matrix
from cdloops.errors import BudgetExceeded
from cdloops.verify import _dihedral_table

Z2 = make_scalar_group(2)
Z4 = make_scalar_group(4)

Q8 = to_table(CDLoop.all_minus_one(Z2, 2))
SPLIT = to_table(CDLoop(Z2, (Z2.one, Z2.minus_one)))
O16 = to_table(CDLoop.all_minus_one(Z2, 3))


def test_zero_generators_gives_the_scalar_group_table():
    L = to_table(CDLoop(Z2, ()))
    assert L.table.tolist() == [[0, 1], [1, 0]]
    L4 = to_table(CDLoop(Z4, ()))
    assert L4.size == 4
    assert L4.table.tolist() == [[(i + j) % 4 for j in range(4)] for i in range(4)]


def test_quaternion_table_shape_and_center():
    assert Q8.size == 8
    assert Q8.identity == 0
    assert Q8.center() == [0, 4]
    assert O16.center() == [0, 8]


def three_law_center(loop: AbstractLoop) -> list[int]:
    """Test-only oracle: the center scan that checks all three nucleus laws."""
    arr = loop.table.astype(np.int64)
    out = []
    for x in np.flatnonzero((arr == arr.T).all(axis=1)):
        fx, cx = arr[x], arr[:, x]
        if (
            np.array_equal(arr[fx], arr[x, arr])
            and np.array_equal(arr[cx], arr[:, fx])
            and np.array_equal(arr[arr, x], arr[:, cx])
        ):
            out.append(int(x))
    return out


# Commutative, identity 0; elements 3 and 5 satisfy the middle nucleus law
# (ax)b = a(xb) but not the left one, so a center without the left law
# would return [0, 3, 5].
MIDDLE_ONLY = [
    [0, 1, 2, 3, 4, 5],
    [1, 3, 0, 2, 5, 4],
    [2, 0, 5, 4, 3, 1],
    [3, 2, 4, 5, 1, 0],
    [4, 5, 3, 1, 0, 2],
    [5, 4, 1, 0, 2, 3],
]
# Not commutative, identity 0; elements 1 and 2 commute with everything and
# satisfy the left nucleus law (xa)b = x(ab) but not the middle one, so a
# center without the middle law would return [0, 1, 2].  (In a commutative
# loop the left law implies the middle law, so MIDDLE_ONLY cannot show this.)
LEFT_ONLY = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 0, 2, 1],
    [4, 5, 3, 1, 0, 2],
    [5, 3, 4, 2, 1, 0],
]


def test_center_matches_the_three_law_oracle():
    loops = [
        to_table(CDLoop(Z2, tuple(Z2.scalar(g) for g in gammas)))
        for gammas in itertools.product((0, 1), repeat=4)
    ]
    rng = random.Random(5)
    for k in (2, 4, 6):
        z = make_scalar_group(k)
        factors = [
            CDLoop(z, tuple(z.scalar(rng.randrange(k)) for _ in range(3))) for _ in range(2)
        ]
        table = to_table(make_product(z, factors))
        shuffled, _ = random_relabel(table, rng)
        assert len(shuffled.center()) == len(table.center()) >= k
        loops += [table, shuffled]
    loops += [AbstractLoop(_dihedral_table(r)) for r in range(3, 9)]
    loops += [AbstractLoop(MIDDLE_ONLY), AbstractLoop(LEFT_ONLY)]
    for loop in loops:
        assert loop.center() == three_law_center(loop)


def direct_product(left, right) -> AbstractLoop:
    """Test helper: the direct product table, (a, b) at index a * |right| + b."""
    a, b = np.asarray(left), np.asarray(right)
    table = a[:, None, :, None] * len(b) + b[None, :, None, :]
    size = len(a) * len(b)
    return AbstractLoop(table.reshape(size, size))


def relabelled_off_zero(loop: AbstractLoop, rng: random.Random) -> AbstractLoop:
    """Test helper: a random relabelling whose identity is not at index 0."""
    while True:
        shuffled, _ = random_relabel(loop, rng)
        if shuffled.identity != 0:
            return shuffled


def test_center_matches_the_oracle_on_wider_centers():
    # Non-cyclic centers (Z2^3 is all center, with three generators; Q8 x Z2
    # has center Z2 x Z2) and elements that commute with everything but are
    # not central, in several cosets of Z (LEFT_ONLY x Z2, MIDDLE_ONLY x Z2).
    z2 = [[0, 1], [1, 0]]
    z2_cubed = direct_product(direct_product(z2, z2).table, z2)
    cases = [
        (z2_cubed, 8),
        (direct_product(Q8.table, z2), 4),
        (direct_product(LEFT_ONLY, z2), 2),
        (direct_product(MIDDLE_ONLY, z2), 2),
    ]
    rng = random.Random(17)
    cases += [(relabelled_off_zero(loop, rng), size) for loop, size in cases]
    big = to_table(make_product(Z4, [CDLoop.all_minus_one(Z4, 4)] * 2))
    cases.append((relabelled_off_zero(big, rng), 4))
    for loop, size in cases:
        assert loop.center() == three_law_center(loop)
        assert len(loop.center()) == size


def test_center_runs_one_full_check_per_generator(monkeypatch):
    # A passing check brings in the closure of the center found so far and a
    # failing one refuses its products with it, so the identity is never
    # checked and a cyclic Z of order k passes at most one check per prime
    # factor of k: one for Z2, two for Z4 and Z6, three for Z8 (Z2 < Z4 < Z8).
    checked = []
    nuclear = AbstractLoop._nuclear

    def counting(self, x, reps=None):
        checked.append(int(x))
        return nuclear(self, x, reps)

    monkeypatch.setattr(AbstractLoop, "_nuclear", counting)

    def checks(loop):
        checked.clear()
        loop = AbstractLoop(loop.table, validate=False)  # nothing cached
        assert loop.center() == three_law_center(loop)
        assert loop.identity not in checked
        return len(checked)

    rng = random.Random(23)
    for k, most in ((2, 1), (4, 2), (6, 2), (8, 3)):
        z = make_scalar_group(k)
        factors = [
            CDLoop(z, tuple(z.scalar(rng.randrange(k)) for _ in range(3))) for _ in range(2)
        ]
        table = to_table(make_product(z, factors))
        # index 2**(m*n) holds the scalar generator, the first candidate
        assert checks(table) == 1
        for _ in range(5):
            assert checks(relabelled_off_zero(table, rng)) <= most
    z2 = [[0, 1], [1, 0]]
    assert checks(direct_product(direct_product(z2, z2).table, z2)) == 3
    # Z2 passes once; (1, 0) and (2, 0) fail and refuse (1, 1) and (2, 1).
    assert checks(direct_product(LEFT_ONLY, z2)) == 3


def law_breaking_rows(loop: AbstractLoop, x: int) -> list[int]:
    """Test-only oracle: the rows a with (xa)b != x(ab) or (xa)b != a(xb)
    for some b, over the whole table at once."""
    arr = loop.table.astype(np.int64)
    fx = arr[x]
    broken = (arr[fx] != fx[arr]) | (arr[fx] != arr[:, fx])
    return np.flatnonzero(broken.any(axis=1)).tolist()


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_nucleus_check_in_uneven_bands_matches_the_oracles(monkeypatch, rows):
    # _nuclear checks `rows` rows a band.  LEFT_ONLY's 1 and 2 break the laws
    # only in rows 3..5, at three rows a band the last band alone.  The other
    # tables run several bands, most of them ending in a short one.
    assert law_breaking_rows(AbstractLoop(LEFT_ONLY), 1) == [3, 4, 5]
    z2, z3 = [[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    loops = [
        AbstractLoop(LEFT_ONLY),
        direct_product(LEFT_ONLY, z2),
        direct_product(z2, LEFT_ONLY),
        direct_product(LEFT_ONLY, z3),
    ]
    rng = random.Random(rows)
    for k in (2, 4, 6):
        z = make_scalar_group(k)
        factors = [CDLoop(z, tuple(z.scalar(rng.randrange(k)) for _ in range(2))) for _ in range(2)]
        loops.append(to_table(make_product(z, factors)))
    loops += [relabelled_off_zero(loop, rng) for loop in loops]
    for loop in loops:
        monkeypatch.setattr(abstract_loop, "_GATHER_CELLS", rows * loop.size)
        fresh = AbstractLoop(loop.table, validate=False)  # nothing cached
        for x in np.flatnonzero(np.array(fresh.commutant_sizes()) == fresh.size):
            assert fresh._nuclear(x) == (not law_breaking_rows(fresh, x))
        assert fresh.center() == three_law_center(fresh)


def relabelled_products(rng: random.Random) -> list[AbstractLoop]:
    """Test helper: relabelled two-factor products over |Z| in {2, 4, 6, 8}."""
    loops = []
    for k in (2, 4, 6, 8):
        z = make_scalar_group(k)
        factors = [CDLoop(z, tuple(z.scalar(rng.randrange(k)) for _ in range(2))) for _ in range(2)]
        loops.append(relabelled_off_zero(to_table(make_product(z, factors)), rng))
    return loops


@pytest.mark.parametrize("rows", [1, 3, 10**6])
def test_nucleus_check_over_coset_pairs_matches_the_oracles(monkeypatch, rows):
    # Over the coset representatives of any central subgroup K, the check
    # gives the verdict of the full laws: for the elements that commute with
    # everything, central or not (LEFT_ONLY's 1 and 2), in uneven bands too.
    z2 = [[0, 1], [1, 0]]
    rng = random.Random(rows)
    loops = [direct_product(LEFT_ONLY, z2), direct_product(z2, LEFT_ONLY),
             direct_product(direct_product(LEFT_ONLY, z2).table, z2)]
    loops += [relabelled_off_zero(loop, rng) for loop in loops] + relabelled_products(rng)
    for loop in loops:
        monkeypatch.setattr(abstract_loop, "_GATHER_CELLS", rows * loop.size)
        fresh = AbstractLoop(loop.table, validate=False)  # nothing cached
        center = three_law_center(fresh)
        assert fresh.center() == center and len(center) > 1
        arr = fresh.table.astype(np.int64)
        for k in center:
            K = sorted(fresh.closure([k]))
            reps = np.unique(arr[:, K].min(axis=1))
            assert reps.size * len(K) == fresh.size
            for x in np.flatnonzero(np.array(fresh.commutant_sizes()) == fresh.size):
                assert fresh._nuclear(x, reps) == (not law_breaking_rows(fresh, x))


def test_element_orders_distinguish_gamma_signs():
    # all minus: six elements of order 4; one +1 gamma: only two
    assert sorted(Q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert sorted(SPLIT.element_orders()) == [1, 2, 2, 2, 2, 2, 4, 4]
    orders = O16.element_orders()
    assert orders.count(1) == 1 and orders.count(2) == 1 and orders.count(4) == 14


def test_commutant_sizes_in_the_quaternion_table():
    assert sorted(Q8.commutant_sizes()) == [4, 4, 4, 4, 4, 4, 8, 8]


def test_divisions_solve_their_equations():
    for a in range(O16.size):
        for b in range(O16.size):
            assert O16.mul(a, O16.left_div(a, b)) == b
            assert O16.mul(O16.right_div(b, a), a) == b


def test_table_agrees_with_elementwise_products():
    A = make_product(Z2, [CDLoop.all_minus_one(Z2, 2), CDLoop(Z2, (Z2.one, Z2.minus_one))])
    T = to_table(A)
    elems = A.penumerate()
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            assert T.mul(i, j) == A.element_index(A.pmul(x, y))


def coset_formula_table(A) -> np.ndarray:
    """Test-only oracle: every cell of to_table from the coset formula."""
    k, cosets = A.z.order, A.coset_count
    twists = coset_twist_matrix(A)
    index = np.arange(A.order)
    s, c = index // cosets, index % cosets
    scalar_grid = (s[:, None] + s[None, :] + twists[c[:, None], c[None, :]]) % k
    return scalar_grid * cosets + (c[:, None] ^ c[None, :])


def test_to_table_matches_the_coset_formula():
    rng = random.Random(29)
    shapes = [(1, 3, 8), (3, 3, 2), (1, 0, 2), (2, 1, 6), (2, 2, 4), (3, 2, 8), (1, 4, 6)]
    shapes += [(rng.randint(1, 3), rng.randint(0, 3), rng.choice((2, 4, 6, 8))) for _ in range(8)]
    for m, n, k in shapes:
        z = make_scalar_group(k)
        factors = [
            CDLoop(z, tuple(z.scalar(rng.randrange(k)) for _ in range(n))) for _ in range(m)
        ]
        A = make_product(z, factors)
        loop = to_table(A)
        assert np.array_equal(loop.table, coset_formula_table(A)), (m, n, k)
        assert loop.table.dtype == np.min_scalar_type(loop.size - 1)
        assert not loop.table.flags.writeable
        assert loop.identity == 0


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda L: L.closure([-1]), -1),
        (lambda L: L.closure([2, 8]), 8),
        (lambda L: L.subloop([0, -4]), -4),
        (lambda L: L.left_div(1, 9), 9),
        (lambda L: L.left_div(-1, 0), -1),
        (lambda L: L.right_div(9, 1), 9),
        (lambda L: L.right_div(0, -2), -2),
        (lambda L: L.mul(-1, 0), -1),
        (lambda L: L.mul(3, 8), 8),
    ],
    ids=["closure-negative", "closure-past-end", "subloop-negative", "left-div-past-end",
         "left-div-negative", "right-div-past-end", "right-div-negative", "mul-negative",
         "mul-past-end"],
)
def test_table_methods_refuse_indices_outside_the_table(call, bad):
    # Unchecked, numpy wraps a negative index around (closure([-1]) would
    # take element 7) and raises a bare IndexError past the end.
    with pytest.raises(ValueError, match=rf"^index {bad} is outside 0\.\.7$"):
        call(Q8)


@pytest.mark.parametrize(
    "call",
    [
        lambda L: L.mul(1.5, 0),
        lambda L: L.mul(True, 0),
        lambda L: L.closure([2.7]),
        lambda L: L.closure([np.float64(2)]),
        lambda L: L.closure([np.True_]),
        lambda L: L.subloop([0, 1.0]),
        lambda L: L.left_div(1, "2"),
        lambda L: L.right_div(None, 1),
    ],
    ids=["mul-float", "mul-bool", "closure-float", "closure-numpy-float",
         "closure-numpy-bool", "subloop-float", "left-div-string", "right-div-none"],
)
def test_table_methods_refuse_indices_that_are_not_integers(call):
    # np.fromiter would truncate 2.7 to element 2 and read True as 1.
    with pytest.raises(ValueError, match=r"^index .+ is not an integer$"):
        call(Q8)


def test_numpy_integer_indices_are_accepted():
    assert Q8.mul(np.int64(1), np.uint8(2)) == Q8.mul(1, 2)
    assert Q8.closure(np.array([1], dtype=np.int32)) == Q8.closure([1])
    assert Q8.left_div(np.int16(3), 0) == Q8.left_div(3, 0)


def test_closure_examples():
    assert Q8.closure([]) == {0}
    assert Q8.closure([Q8.identity]) == {0}
    i = 1  # index of l1 in enumeration order
    assert Q8.closure([i]) == {0, 1, 4, 5}
    assert Q8.closure([1, 2]) == set(range(8))


@pytest.mark.parametrize(
    "loop, seed",
    [
        (Q8, [1]),
        (O16, [3, 12]),
        (random_relabel(to_table(make_product(Z2, [CDLoop.all_minus_one(Z2, 3)] * 2)),
                        random.Random(7))[0], [5, 40, 99]),
    ],
    ids=["quaternions", "octonions", "relabelled-product"],
)
def test_close_reports_each_wave_it_takes(loop, seed):
    inside = np.zeros(loop.size, dtype=bool)
    inside[[loop.identity] + seed] = True
    before = inside.copy()
    waves = loop._close(inside)
    assert waves
    for xs, us, vs in waves:
        assert np.array_equal(loop.table[us, vs], xs)
        assert np.unique(xs).size == xs.size
        assert not before[xs].any()
        assert before[us].all() and before[vs].all()
        before[xs] = True
    assert np.array_equal(before, inside)
    assert set(np.flatnonzero(inside).tolist()) == loop.closure(seed)


def reference_close(loop: AbstractLoop, inside: np.ndarray) -> list:
    """Test-only oracle: the wave loop that gathers S x S once more to find
    nothing fresh, through np.ix_."""
    waves = []
    while True:
        S = np.flatnonzero(inside)
        products = loop.table[np.ix_(S, S)].ravel()
        fresh = np.flatnonzero(~inside[products])
        if fresh.size == 0:
            return waves
        xs, first = np.unique(products[fresh], return_index=True)
        cell = fresh[first]
        waves.append((xs, S[cell // S.size], S[cell % S.size]))
        inside[xs] = True


@pytest.mark.parametrize("seed", [[], [1], [2, 3], [1, 2, 4, 8, 16, 32, 64, 128, 256]])
def test_close_takes_the_reference_waves(seed):
    loop = to_table(CDLoop.all_minus_one(Z4, 8))
    for table in (loop, random_relabel(loop, random.Random(len(seed)))[0]):
        got, want = (np.zeros(table.size, dtype=bool) for _ in range(2))
        got[[table.identity] + seed] = want[[table.identity] + seed] = True
        waves = table._close(got)
        expected = reference_close(table, want)
        assert np.array_equal(got, want)
        assert len(waves) == len(expected)
        for wave, reference in zip(waves, expected):
            assert all(np.array_equal(a, b) for a, b in zip(wave, reference))


def test_grow_finds_the_closure_close_finds():
    # The mask-only closure that scores ladder candidates, center() and
    # closure() use against the wave-recording one, from random seed sets.
    z2 = [[0, 1], [1, 0]]
    rng = random.Random(41)
    loops = [Q8, AbstractLoop(LEFT_ONLY), direct_product(LEFT_ONLY, z2),
             direct_product(z2, direct_product(LEFT_ONLY, z2).table), O16]
    loops += relabelled_products(rng)
    for loop in loops:
        for _ in range(8):
            grown = np.zeros(loop.size, dtype=bool)
            grown[rng.sample(range(loop.size), rng.randrange(1, 4))] = True
            closed = grown.copy()
            count = loop._grow(grown)
            loop._close(closed)
            assert np.array_equal(grown, closed)
            assert count == np.count_nonzero(grown)


def test_subloop_extraction_and_diagnostic():
    sub = Q8.subloop([0, 1, 4, 5])
    assert sub.size == 4
    assert sorted(sub.element_orders()) == [1, 2, 4, 4]
    with pytest.raises(ValueError, match=r"subset is not closed: 1 \* 1 = 4"):
        Q8.subloop([0, 1])
    with pytest.raises(TableFormatError, match="^table is empty$"):
        Q8.subloop([])


def reference_subloop(loop: AbstractLoop, indices) -> np.ndarray:
    """Test-only oracle: an int64 lookup over an np.ix_ gather, -1 outside."""
    idx = sorted(set(indices))
    lut = np.full(loop.size, -1, dtype=np.int64)
    lut[idx] = np.arange(len(idx))
    return lut[loop.table[np.ix_(idx, idx)]]


def test_subloop_of_a_1024_element_loop_equals_the_reference():
    loop, _ = random_relabel(to_table(CDLoop.all_minus_one(Z4, 8)), random.Random(3))
    for subset in (range(loop.size), loop.closure([5, 77]), loop.closure([900])):
        sub = loop.subloop(subset)
        assert sub.table.dtype == np.min_scalar_type(sub.size - 1)
        assert not sub.table.flags.writeable
        assert np.array_equal(sub.table, reference_subloop(loop, subset))


@pytest.mark.parametrize("cells", [1, 1 << 16], ids=["row-blocks", "default-blocks"])
def test_subloop_names_the_first_product_outside_the_subset(monkeypatch, cells):
    monkeypatch.setattr(abstract_loop, "_GATHER_CELLS", cells)
    # The identity stays at 0: row 0 of every subset is clean.
    rng = random.Random(cells)
    rest = list(range(1, 1024))
    rng.shuffle(rest)
    loop = to_table(CDLoop.all_minus_one(Z4, 8)).relabel([0] + rest)
    for _ in range(8):
        subset = sorted(loop.closure([rng.randrange(loop.size)]) | set(rng.sample(range(1024), 2)))
        a, b = (subset[k] for k in np.argwhere(reference_subloop(loop, subset) < 0)[0])
        with pytest.raises(ValueError, match=rf"^subset is not closed: {a} \* {b} = {loop.mul(a, b)}$"):
            loop.subloop(subset)
    sub = loop.subloop(loop.closure([5, 77]))
    assert np.array_equal(sub.table, reference_subloop(loop, loop.closure([5, 77])))


def test_latin_square_diagnostics():
    with pytest.raises(TableFormatError, match="row 0 is not a permutation"):
        AbstractLoop([[0, 0], [1, 1]])
    with pytest.raises(TableFormatError, match="column 0 is not a permutation"):
        AbstractLoop([[0, 1], [0, 1]])
    with pytest.raises(TableFormatError, match="outside 0..1"):
        AbstractLoop([[0, 1], [1, 5]])
    with pytest.raises(TableFormatError, match="no two-sided identity"):
        AbstractLoop([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(TableFormatError):
        AbstractLoop([[0, 1]])
    for empty in ([], [[]]):
        with pytest.raises(TableFormatError, match="^table must be square"):
            AbstractLoop(empty)


def sorted_latin_defect(arr: np.ndarray) -> str | None:
    """Test-only reference: the first row, then column, whose sorted entries
    are not 0..N-1, for a table with every entry in range."""
    n = len(arr)
    for name, lines in (("row", arr), ("column", arr.T)):
        bad = np.flatnonzero(~(np.sort(lines, axis=1) == np.arange(n)).all(axis=1))
        if bad.size:
            return f"{name} {bad[0]} is not a permutation of 0..{n - 1}"
    return None


def test_latin_check_names_the_first_bad_row_or_column():
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randrange(2, 9)
        perm = np.array(rng.sample(range(n), n))
        arr = perm[(np.arange(n)[:, None] + np.arange(n)[None, :]) % n]
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5:  # swap two cells of a row: its columns break
                i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                arr[i, j], arr[i, k] = arr[i, k], arr[i, j]
            else:
                arr[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        want = sorted_latin_defect(arr)
        if want is None:
            continue
        seen.add(want.split()[0])
        with pytest.raises(TableFormatError, match=f"^{want}$"):
            AbstractLoop(arr)
    assert seen == {"row", "column"}


def test_latin_check_names_the_first_bad_line_past_the_first_block():
    # 1024 rows are sorted 64 at a time: defects sit in later blocks.
    rng = random.Random(12)
    base = to_table(CDLoop.all_minus_one(Z4, 8)).table
    for _ in range(6):
        arr = base.copy()
        i = rng.randrange(100, 1024)
        j, k = rng.sample(range(1024), 2)
        if rng.random() < 0.5:  # a swap in row i breaks columns j and k only
            arr[i, j], arr[i, k] = arr[i, k], arr[i, j]
        else:
            arr[i, j] = arr[i, k]
        want = sorted_latin_defect(arr)
        assert want is not None
        with pytest.raises(TableFormatError, match=f"^{want}$"):
            AbstractLoop(arr)


def set_latin_defect(table: list[list[int]]) -> str | None:
    """Test-only oracle in pure Python: the first row, else the first column,
    whose entries do not form the set {0..N-1}."""
    n = len(table)
    everything = set(range(n))
    for name, lines in (("row", table), ("column", zip(*table))):
        for i, line in enumerate(lines):
            if set(line) != everything:
                return f"{name} {i} is not a permutation of 0..{n - 1}"
    return None


@pytest.mark.parametrize("n", [200, 256, 300, 1001, 1024])
def test_latin_check_agrees_with_a_set_oracle_on_single_cell_defects(n):
    # uint8 tables at 200 and 256 elements, uint16 above.  Bands are 65536 // N
    # lines and column bands are transposed 256 rows at a time: 300 and 1001
    # are multiples of neither.  A changed cell breaks its row; a swap within
    # a row breaks two columns only.
    rng = random.Random(n)
    perm = np.array(rng.sample(range(n), n))
    base = perm[(np.arange(n)[:, None] + np.arange(n)[None, :]) % n].astype(np.min_scalar_type(n - 1))
    for i, j, k in [(n - 1, n - 1, n - 2)] + [(rng.randrange(n), *rng.sample(range(n), 2)) for _ in range(3)]:
        for swap in (False, True):
            arr = base.copy()
            if swap:
                arr[i, j], arr[i, k] = arr[i, k], arr[i, j]
            else:
                arr[i, j] = arr[i, k]
            want = set_latin_defect(arr.tolist())
            assert want == (f"column {min(j, k)}" if swap else f"row {i}") + f" is not a permutation of 0..{n - 1}"
            with pytest.raises(TableFormatError, match=f"^{want}$"):
                AbstractLoop(arr)


@pytest.mark.parametrize("rows", [None, 3], ids=["full-bands", "uneven-bands"])
@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
def test_latin_check_names_last_row_defects_alike_in_uint8_and_uint16(monkeypatch, rows, n, dtype):
    # uint8 bands sort by radix, uint16 ones by the default sort; at three
    # rows a band both sizes end in a short band.
    if rows:
        monkeypatch.setattr(abstract_loop, "_GATHER_CELLS", rows * n)
    index = np.arange(n)
    base = ((index[:, None] + index[None, :]) % n).astype(dtype)
    duplicate, swapped = base.copy(), base.copy()
    duplicate[n - 1, n - 1] = duplicate[n - 1, 0]
    swapped[n - 1, [n - 2, n - 1]] = swapped[n - 1, [n - 1, n - 2]]
    for arr, line in ((duplicate, f"row {n - 1}"), (swapped, f"column {n - 2}")):
        with pytest.raises(TableFormatError, match=f"^{line} is not a permutation of 0..{n - 1}$"):
            AbstractLoop(arr)
    assert AbstractLoop(base).table.dtype == dtype


@pytest.mark.parametrize(
    "table, dtype",
    [
        ([[0, 1.7], [1.2, 0]], "float64"),  # an int64 cast truncates it to a group
        ([[True, False], [False, True]], "bool"),
        ([[0, 2**70], [2**70, 0]], "object"),  # an int64 cast overflows
    ],
)
@pytest.mark.parametrize("validate", (True, False))
def test_non_integer_tables_are_rejected(table, dtype, validate):
    message = f"^table entries must be integers, got {dtype}$"
    with pytest.raises(TableFormatError, match=message):
        AbstractLoop(table, validate=validate)


def test_serialize_parse_round_trip():
    text = serialize_loop_table(O16)
    lines = text.strip().split("\n")
    assert lines[0] == "loop-table v1 16"
    assert len(lines) == 17
    assert parse_loop_table(text) == O16


def test_parse_normalizes_identity_to_zero():
    L = AbstractLoop([[1, 0], [0, 1]])
    assert L.identity == 1
    reparsed = parse_loop_table(serialize_loop_table(L))
    assert reparsed.identity == 0
    assert find_isomorphism(L, reparsed) is not None


def test_parse_diagnostics():
    with pytest.raises(TableFormatError, match="expected header"):
        parse_loop_table("loop-table v2 2\n0 1\n1 0\n")
    with pytest.raises(TableFormatError, match="expected 2 rows"):
        parse_loop_table("loop-table v1 2\n0 1\n")
    with pytest.raises(TableFormatError, match="non-integer"):
        parse_loop_table("loop-table v1 2\n0 1\n1 x\n")
    with pytest.raises(TableFormatError, match="3 entries"):
        parse_loop_table("loop-table v1 2\n0 1 1\n1 0\n")
    with pytest.raises(TableFormatError, match="row 1 has an entry outside 0..1"):
        parse_loop_table(f"loop-table v1 2\n0 1\n1 {2**70}\n")
    # int() reads all of these, but loop-table v1 writes none of them.
    for rows, bad in (
        ("0 +1\n+1 0", 0), ("0 1\n1 0_0", 1), ("\u0660 1\n1 \u0660", 0), (f"0 1\n1 {-(2**70)}", 1)
    ):
        with pytest.raises(TableFormatError, match=f"row {bad} contains a non-integer entry"):
            parse_loop_table(f"loop-table v1 2\n{rows}\n")
    for size in ("+2", "-2", "\u0662", "2_0", "\u00b2"):
        with pytest.raises(TableFormatError, match="invalid size in header"):
            parse_loop_table(f"loop-table v1 {size}\n0 1\n1 0\n")
    for text in ("loop-table v1 2\n0 1\u20281 0\n", "loop-table v1 2\n0 1\n\u3000\n1 0\n"):
        with pytest.raises(TableFormatError, match="non-ASCII whitespace or line breaks"):
            parse_loop_table(text)


@pytest.mark.parametrize(
    "text, row",
    [
        ("loop-table v1 1\n-0\n", 0),
        ("loop-table v1 2\n-00 1\n1 0\n", 0),
        ("loop-table v1 2\n1 0\n0 -1\n", 1),
    ],
)
def test_parse_rejects_signed_entries(text, row):
    # loop-table v1 writes no sign, so "-0" is not another spelling of 0.
    with pytest.raises(TableFormatError, match=f"^row {row} contains a non-integer entry$"):
        parse_loop_table(text)


def test_parse_charges_the_header_size_before_reading_rows():
    text = serialize_loop_table(O16)
    assert parse_loop_table(text, max_elements=16 * 16) == O16
    with pytest.raises(BudgetExceeded, match="table parse needs 256 items"):
        parse_loop_table(text, max_elements=255)
    # The rows below the header are never read, so their defects go unseen.
    with pytest.raises(BudgetExceeded, match="table parse"):
        parse_loop_table("loop-table v1 1000\nnot a row\n", max_elements=10)


def test_tables_are_read_only():
    # The cached center, orders, signatures and word program describe the
    # table, so no loop may be changed through it.
    loops = [
        to_table(CDLoop.all_minus_one(Z2, 2)),
        Q8.relabel([0, 2, 1, 7, 4, 6, 5, 3]),
        O16.subloop(O16.closure([1, 2])),
        parse_loop_table(serialize_loop_table(O16)),
        parse_loop_table("loop-table v1 2\n1 0\n0 1\n"),  # relabelled to identity 0
        AbstractLoop([[0, 1], [1, 0]]),
    ]
    for loop in loops:
        with pytest.raises(ValueError, match="read-only"):
            loop.table[0, 0] = 1


def test_a_writable_table_is_copied_and_a_read_only_one_kept():
    assert AbstractLoop(Q8.table).table is Q8.table
    arr = Q8.table.copy()
    loop = AbstractLoop(arr)
    arr[1] = arr[1, ::-1].copy()
    with pytest.raises(TableFormatError, match="no two-sided identity"):
        AbstractLoop(arr, validate=False)
    assert np.array_equal(loop.table, Q8.table)
    assert loop.center() == [0, 4]


def test_relabel_is_an_isomorphism():
    rng = random.Random(7)
    shuffled, perm = random_relabel(O16, rng)
    assert shuffled.size == 16
    assert verify_isomorphism(O16, shuffled, perm)
    assert sorted(shuffled.element_orders()) == sorted(O16.element_orders())


def test_verify_isomorphism_accepts_and_rejects():
    # indices: 0 +1, 1 i, 2 j, 3 k, then the negatives in the same order
    assert verify_isomorphism(Q8, Q8, list(range(8)))
    swap_only = [0, 2, 1, 3, 4, 6, 5, 7]
    assert not verify_isomorphism(Q8, Q8, swap_only)  # ij = k but ji = -k
    swap_and_flip = [0, 2, 1, 7, 4, 6, 5, 3]
    assert verify_isomorphism(Q8, Q8, swap_and_flip)
    assert not verify_isomorphism(Q8, SPLIT, list(range(8)))


def test_verify_isomorphism_on_a_relabelled_uint16_table():
    left = to_table(make_product(Z2, [CDLoop.all_minus_one(Z2, 4)] * 2))
    assert (left.size, left.table.dtype) == (512, np.uint16)
    right, perm = random_relabel(left, random.Random(512))
    assert verify_isomorphism(left, right, perm)
    assert verify_isomorphism(left, right, np.array(perm, dtype=np.uint16))
    # The images of 1 and 2 swapped (the identity is 0): still a permutation,
    # not an isomorphism.
    assert left.identity == 0
    wrong = list(perm)
    wrong[1], wrong[2] = wrong[2], wrong[1]
    assert not verify_isomorphism(left, right, wrong)


@pytest.mark.parametrize(
    "loop, mapping",
    [
        (to_table(CDLoop.all_minus_one(Z2, 1)), [0.4, 1.9, 2.2, 3.0]),
        (to_table(CDLoop.all_minus_one(Z2, 1)), ["0", "1", "2", "3"]),
        (to_table(CDLoop.all_minus_one(Z2, 0)), [False, True]),
    ],
    ids=["floats", "digit-strings", "bools"],
)
def test_mappings_must_hold_integers(loop, mapping):
    # Each would truncate or parse to the identity map if cast to integers.
    assert not verify_isomorphism(loop, loop, mapping)
    with pytest.raises(ValueError, match="relabeling must be a permutation"):
        loop.relabel(mapping)


def test_unsigned_and_range_mappings_are_permutations():
    assert verify_isomorphism(Q8, Q8, np.arange(8, dtype=np.uint8))
    assert Q8.relabel(np.arange(8, dtype=np.uint64)) == Q8
    assert O16.relabel(range(16)) == O16


def test_find_isomorphism_reflexive_and_undoes_relabeling():
    assert find_isomorphism(Q8, Q8) is not None
    rng = random.Random(3)
    for L in (Q8, O16):
        shuffled, _ = random_relabel(L, rng)
        w = find_isomorphism(L, shuffled)
        assert w is not None
        assert verify_isomorphism(L, shuffled, w)
        back = find_isomorphism(shuffled, L)
        assert back is not None and verify_isomorphism(shuffled, L, back)


def test_find_isomorphism_separates_non_isomorphic_loops():
    assert find_isomorphism(Q8, SPLIT) is None
    assert find_isomorphism(Q8, O16) is None  # size mismatch
    c8 = AbstractLoop([[(i + j) % 8 for j in range(8)] for i in range(8)])
    assert find_isomorphism(Q8, c8) is None


def test_isomorphisms_respect_the_center():
    rng = random.Random(11)
    shuffled, _ = random_relabel(O16, rng)
    w = find_isomorphism(O16, shuffled)
    assert w is not None
    assert {w[c] for c in O16.center()} == set(shuffled.center())


def test_find_isomorphism_size_guard():
    big = to_table(make_product(Z2, [CDLoop.all_minus_one(Z2, 4)] * 2))
    assert big.size == 512
    with pytest.raises(BudgetExceeded):
        find_isomorphism(big, big)


def test_to_table_budget():
    with pytest.raises(BudgetExceeded):
        to_table(CDLoop.all_minus_one(Z2, 3), max_elements=100)


def test_tables_compare_by_contents():
    again = to_table(CDLoop.all_minus_one(Z2, 2))
    assert again == Q8
    assert again != SPLIT
    assert np.array_equal(again.table, Q8.table)


# -- tables across the index dtype boundaries -----------------------------------------
#
# Tables are stored in np.min_scalar_type(N - 1), where products of entries
# would wrap.  Each oracle below is an independent formula on the table
# widened to int64.


def cyclic(n: int) -> AbstractLoop:
    index = np.arange(n)
    return AbstractLoop((index[:, None] + index[None, :]) % n)


# N -> (|Z|, m, n) of an all -1 product, or None for the cyclic group, and
# the loop.  256 elements is the largest uint8 table and 257 the smallest
# uint16 one; from 257 on the flat index x * N + y passes 2^16.
BOUNDARY_LOOPS = {
    256: ((4, 2, 3), lambda: to_table(make_product(Z4, [CDLoop.all_minus_one(Z4, 3)] * 2))),
    257: (None, lambda: cyclic(257)),
    512: ((2, 2, 4), lambda: to_table(make_product(Z2, [CDLoop.all_minus_one(Z2, 4)] * 2))),
    1024: ((4, 2, 4), lambda: to_table(make_product(Z4, [CDLoop.all_minus_one(Z4, 4)] * 2))),
}


def scatter_relabel(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Test-only oracle: the scatter relabel, new[p[i], p[j]] = p[t[i, j]]."""
    new = np.empty_like(t)
    new[p[:, None], p[None, :]] = p[t]
    return new


def power_orders(t: np.ndarray, e: int) -> list[int]:
    """Test-only oracle: left-power orders by a Python loop."""
    rows, orders = t.tolist(), []
    for x in range(len(rows)):
        y, k = x, 1
        while y != e:
            y, k = rows[x][y], k + 1
        orders.append(k)
    return orders


def closure_oracle(t: np.ndarray, e: int, seed) -> list[int]:
    """Test-only oracle: add all products of the set until none is new."""
    inside = {e, *seed}
    while True:
        S = sorted(inside)
        grown = inside | set(np.unique(t[np.ix_(S, S)]).tolist())
        if grown == inside:
            return S
        inside = grown


def subloop_oracle(t: np.ndarray, subset) -> np.ndarray:
    idx = np.array(sorted(subset))
    return np.searchsorted(idx, t[np.ix_(idx, idx)])


@pytest.mark.parametrize("size", sorted(BOUNDARY_LOOPS))
def test_table_invariants_match_int64_oracles_across_dtype_boundaries(size):
    shape, build = BOUNDARY_LOOPS[size]
    canonical = build()
    p = np.array(random.Random(size).sample(range(size), size))
    p = np.roll(p, 1) if p[0] == 0 else p  # the identity 0 moves off index 0
    loop = canonical.relabel(p)
    t = loop.table.astype(np.int64)
    assert loop.size == size and loop.table.dtype == np.min_scalar_type(size - 1)
    assert np.array_equal(t, scatter_relabel(canonical.table.astype(np.int64), p))
    e = loop.identity
    assert e == p[0] != 0
    assert loop.center() == three_law_center(loop)
    assert loop.commutant_sizes() == (t == t.T).sum(axis=1).tolist()
    assert loop.element_orders() == power_orders(t, e)
    for seed in ([int(p[1])], [int(p[2]), int(p[size // 2])], [int(p[-1])]):
        closed = closure_oracle(t, e, seed)
        assert sorted(loop.closure(seed)) == closed
        sub = loop.subloop(closed)
        assert sub.table.dtype == np.min_scalar_type(len(closed) - 1)
        assert np.array_equal(sub.table, subloop_oracle(t, closed))

    # The codec round trip: the reference writer's text, parsed back with the
    # identity swapped to 0.
    text = serialize_loop_table(loop)
    rows = text.splitlines()[1:]
    assert rows == [" ".join(map(str, row)) for row in t.tolist()]
    swap = np.arange(size)
    swap[[0, e]] = swap[[e, 0]]
    parsed = parse_loop_table(text)
    assert parsed.table.dtype == loop.table.dtype
    assert np.array_equal(parsed.table, scatter_relabel(t, swap))

    if shape is None:
        return
    z, m, n = shape
    dec = recover_factors(loop, n)
    c = np.arange(size) % (size // z)
    fields = [(c >> (n * j)) & ((1 << n) - 1) for j in range(m)]
    ranks = np.empty(size, dtype=np.int64)
    ranks[p] = sum(field != 0 for field in fields)
    embedded = [sorted(p[np.flatnonzero(c == field << (n * j))].tolist())
                for j, field in enumerate(fields)]
    assert (dec.m, dec.z_size) == (m, z)
    assert dec.ranks == ranks.tolist()
    assert sorted(dec.subsets) == sorted(embedded)
    for subset, factor in zip(dec.subsets, dec.factors):
        assert np.array_equal(factor.table, subloop_oracle(t, subset))


def test_find_isomorphism_on_a_relabelled_uint8_table():
    # At 256 elements the flat index x * 256 + y reaches 65535, past uint8.
    left = BOUNDARY_LOOPS[256][1]()
    right, _ = random_relabel(left, random.Random(256))
    assert left.table.dtype == right.table.dtype == np.uint8
    mapping = find_isomorphism(left, right)
    assert mapping is not None
    assert np.array_equal(scatter_relabel(left.table.astype(np.int64), np.array(mapping)),
                          right.table)


@pytest.mark.parametrize("size, wrap", [(256, 1 << 8), (1024, 1 << 16)])
def test_an_entry_that_wraps_in_the_table_dtype_is_refused(size, wrap):
    # Written as wrap + v, the entry would read as v once stored narrow.
    lines = serialize_loop_table(BOUNDARY_LOOPS[size][1]()).splitlines()
    row = lines[1].split()
    row[5] = str(wrap + int(row[5]))
    lines[1] = " ".join(row)
    with pytest.raises(TableFormatError, match=rf"^entry at row 0, column 5 is outside 0\.\.{size - 1}$"):
        parse_loop_table("\n".join(lines) + "\n")
