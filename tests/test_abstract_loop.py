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
    serialize_loop_table,
    to_table,
    verify_isomorphism,
)
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
    arr = loop.table
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

    def counting(self, x):
        checked.append(int(x))
        return nuclear(self, x)

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
        assert loop.table.dtype == np.int64 and not loop.table.flags.writeable
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


def test_subloop_extraction_and_diagnostic():
    sub = Q8.subloop([0, 1, 4, 5])
    assert sub.size == 4
    assert sorted(sub.element_orders()) == [1, 2, 4, 4]
    with pytest.raises(ValueError, match=r"subset is not closed: 1 \* 1 = 4"):
        Q8.subloop([0, 1])


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
