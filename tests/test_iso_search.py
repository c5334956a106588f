"""The vectorized isomorphism search and the generator ladder against slow oracles.

`reference_find_isomorphism` is the propagating backtracking search that the
word-program search replaced, and `reference_ladder` the greedy ladder that
tries every candidate at every step; both are kept here as test-only oracles.
"""

import itertools
import random

import numpy as np
import pytest

from cdloops import (
    AbstractLoop,
    CDLoop,
    find_isomorphism,
    make_product,
    make_scalar_group,
    random_relabel,
    to_table,
    verify_isomorphism,
)
from cdloops import abstract_loop
from cdloops.errors import BudgetExceeded
from test_abstract_loop import LEFT_ONLY, Q8, direct_product as table_product

Z2 = make_scalar_group(2)


def reference_ladder(loop: AbstractLoop) -> list[int]:
    known = loop.closure(())
    gens: list[int] = []
    while len(known) < loop.size:
        best_g, best_closure = -1, known
        for g in range(loop.size):
            if g in known:
                continue
            grown = loop.closure(list(known) + [g])
            if len(grown) > len(best_closure):
                best_g, best_closure = g, grown
        gens.append(best_g)
        known = best_closure
    return gens


def reference_find_isomorphism(left: AbstractLoop, right: AbstractLoop):
    if left.size != right.size:
        return None
    sig_left = left._signatures
    sig_right = right._signatures
    if sorted(sig_left) != sorted(sig_right):
        return None
    n = left.size
    t1 = left.table.tolist()
    t2 = right.table.tolist()
    gens = reference_ladder(left)
    pools = [[h for h in range(n) if sig_right[h] == sig_left[g]] for g in gens]
    mapping = [-1] * n
    reverse = [-1] * n
    known: list[int] = []
    trail: list[int] = []

    def assign(a: int, b: int) -> bool:
        queue = [(a, b)]
        while queue:
            p, q = queue.pop()
            if mapping[p] != -1:
                if mapping[p] != q:
                    return False
                continue
            if reverse[q] != -1:
                return False
            mapping[p] = q
            reverse[q] = p
            known.append(p)
            trail.append(p)
            for c in known:
                for u, v in ((p, c), (c, p)):
                    product = t1[u][v]
                    image = t2[mapping[u]][mapping[v]]
                    got = mapping[product]
                    if got == -1:
                        queue.append((product, image))
                    elif got != image:
                        return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            p = trail.pop()
            known.pop()
            reverse[mapping[p]] = -1
            mapping[p] = -1

    if not assign(left.identity, right.identity):
        return None

    def search(level: int) -> bool:
        if level == len(gens):
            return all(v != -1 for v in mapping)
        g = gens[level]
        if mapping[g] != -1:
            return search(level + 1)
        for h in pools[level]:
            if reverse[h] != -1:
                continue
            mark = len(trail)
            if assign(g, h) and search(level + 1):
                return True
            undo(mark)
        return False

    return list(mapping) if search(0) else None


def fixed_zero_relabel(loop: AbstractLoop, rng: random.Random) -> AbstractLoop:
    rest = list(range(1, loop.size))
    rng.shuffle(rest)
    return loop.relabel([0] + rest)


def random_product(rng: random.Random, m: int, n: int, z_order: int):
    z = make_scalar_group(z_order)
    loops = [
        CDLoop(z, tuple(z.scalar(rng.randrange(z_order)) for _ in range(n)))
        for _ in range(m)
    ]
    return make_product(z, loops)


N4_Z2 = {
    gammas: to_table(CDLoop(Z2, tuple(Z2.scalar(g) for g in gammas)))
    for gammas in itertools.product((0, 1), repeat=4)
}


def test_verdicts_match_the_reference_on_every_n4_z2_pair():
    equal_signatures_only = 0
    for a, b in itertools.combinations(N4_Z2, 2):
        left, right = N4_Z2[a], N4_Z2[b]
        got = find_isomorphism(left, right)
        want = reference_find_isomorphism(left, right)
        assert (got is None) == (want is None), (a, b)
        if got is not None:
            assert verify_isomorphism(left, right, got)
        elif sorted(left._signatures) == sorted(right._signatures):
            equal_signatures_only += 1
    # The pairs that only an exhaustive search can tell apart.
    assert equal_signatures_only == 7
    assert find_isomorphism(N4_Z2[(0, 0, 0, 0)], N4_Z2[(1, 1, 1, 0)]) is None


def test_witnesses_on_random_relabelings_are_isomorphisms():
    rng = random.Random(20240)
    for gammas in [(1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 0)]:
        left = N4_Z2[gammas]
        for _ in range(3):
            right = fixed_zero_relabel(left, rng)
            witness = find_isomorphism(left, right)
            assert witness is not None
            assert verify_isomorphism(left, right, witness)
    for dims in [(1, 3, 4), (2, 2, 4), (1, 3, 8), (2, 3, 2)]:
        left = to_table(random_product(rng, *dims))
        right = fixed_zero_relabel(left, rng)
        witness = find_isomorphism(left, right)
        assert witness is not None
        assert verify_isomorphism(left, right, witness)
        assert witness == reference_find_isomorphism(left, right)


def test_a_non_isomorphic_relabeled_pair_is_rejected_like_the_reference():
    rng = random.Random(7)
    left = N4_Z2[(0, 0, 0, 0)]
    right = fixed_zero_relabel(N4_Z2[(1, 1, 1, 0)], rng)
    assert sorted(left._signatures) == sorted(right._signatures)
    assert reference_find_isomorphism(left, right) is None
    assert find_isomorphism(left, right) is None


def block_test_pairs():
    """A non-isomorphic pair with equal signatures, then two relabelings."""
    rng = random.Random(11)
    pairs = [
        (N4_Z2[(0, 0, 0, 0)], fixed_zero_relabel(N4_Z2[(1, 1, 1, 0)], rng)),
        (N4_Z2[(1, 1, 1, 1)], fixed_zero_relabel(N4_Z2[(1, 1, 1, 1)], rng)),
    ]
    table = to_table(random_product(rng, 2, 3, 2))
    pairs.append((table, fixed_zero_relabel(table, rng)))
    return pairs


def test_one_candidate_per_block_gives_the_same_answers(monkeypatch):
    pairs = block_test_pairs()
    expected = [find_isomorphism(left, right) for left, right in pairs]
    assert expected[0] is None and None not in expected[1:]
    monkeypatch.setattr(abstract_loop, "_BLOCK_CELLS", 1)
    for (left, right), want in zip(pairs, expected):
        fresh = AbstractLoop(left.table, validate=False)
        assert find_isomorphism(fresh, right) == want


def test_trivial_and_guarded_inputs():
    one = AbstractLoop([[0]])
    assert find_isomorphism(one, AbstractLoop([[0]])) == [0]
    z4 = to_table(CDLoop(make_scalar_group(4), ()))
    assert find_isomorphism(z4, z4) == [0, 1, 2, 3]
    assert find_isomorphism(z4, N4_Z2[(0, 0, 0, 0)]) is None
    big = to_table(CDLoop.all_minus_one(Z2, 8))
    assert big.size == 512
    with pytest.raises(BudgetExceeded, match="up to 256 elements, got 512"):
        find_isomorphism(big, big)


def test_word_program_rebuilds_every_element_from_the_ladder():
    rng = random.Random(3)
    loop = fixed_zero_relabel(to_table(random_product(rng, 2, 2, 4)), rng)
    program = loop._word_program
    assert [step.g for step in program] == reference_ladder(loop)
    known = {loop.identity}
    for step in program:
        assert step.g not in known
        known.add(step.g)
        for xs, us, vs in step.waves:
            assert set(us.tolist()) <= known and set(vs.tolist()) <= known
            assert np.array_equal(loop.table[us, vs], xs)
            known.update(xs.tolist())
        assert sorted(known) == step.S.tolist()
    assert known == set(range(loop.size))


@pytest.mark.parametrize(
    "dims",
    [(1, 3, 2), (1, 4, 4), (1, 5, 8), (1, 6, 2), (2, 2, 2), (2, 2, 8), (2, 3, 2), (2, 3, 4)],
)
def test_ladder_equals_the_reference_greedy_ladder(dims):
    rng = random.Random(f"ladder-{dims}")
    table = to_table(random_product(rng, *dims))
    assert table.size <= 256
    for loop in (table, fixed_zero_relabel(table, rng)):
        fresh = AbstractLoop(loop.table, validate=False)
        assert [s.g for s in fresh._word_program] == reference_ladder(loop)
        # Each level at least doubles the closure: at most log2 N levels.
        assert 2 ** len(fresh._word_program) <= loop.size


def test_the_first_level_does_not_close_involutions(monkeypatch):
    # {e, g} for an involution g is the least closure, so once a candidate is
    # held the first level skips them: 66 of the 153 scoring closures on this
    # loop.  Waves are taken once per level, for its generator alone.
    rng = random.Random("ladder-(2, 3, 2)")
    loop = fixed_zero_relabel(to_table(random_product(rng, 2, 3, 2)), rng)
    involutions = sum(int(loop.table[g, g]) == loop.identity for g in range(loop.size)) - 1
    want = reference_ladder(loop)
    calls, waves = [], []
    grow, close = AbstractLoop._grow, AbstractLoop._close
    monkeypatch.setattr(AbstractLoop, "_grow", lambda self, inside: calls.append(1) or grow(self, inside))
    monkeypatch.setattr(AbstractLoop, "_close", lambda self, inside: waves.append(1) or close(self, inside))
    fresh = AbstractLoop(loop.table, validate=False)
    assert [s.g for s in fresh._word_program] == want
    assert involutions == 67 and len(calls) == 153 - 66
    assert len(waves) == len(want)


def cd_table(z_order: int, gammas) -> AbstractLoop:
    z = make_scalar_group(z_order)
    return to_table(CDLoop(z, tuple(z.scalar(g) for g in gammas)))


def test_a_z4_factor_pair_with_equal_signatures_is_told_apart():
    # The factor pair of the benchmark's two-factor match: equal signature
    # multisets, so only the search's exhaustion tells them apart.
    rng = random.Random(17)
    a, b = cd_table(4, (2, 3, 3, 3)), cd_table(4, (2, 2, 0, 3))
    assert sorted(a._signatures) == sorted(b._signatures)
    assert find_isomorphism(a, fixed_zero_relabel(b, rng)) is None
    assert find_isomorphism(b, fixed_zero_relabel(a, rng)) is None
    for loop in (a, b):
        right = fixed_zero_relabel(loop, rng)
        witness = find_isomorphism(loop, right)
        assert witness is not None
        assert witness == reference_find_isomorphism(loop, right)


@pytest.mark.parametrize("cells", [1, 10**9], ids=["one-cell", "every-cell"])
def test_the_probe_size_never_changes_an_answer(monkeypatch, cells):
    pairs = block_test_pairs()
    expected = [find_isomorphism(left, right) for left, right in pairs]
    assert expected[0] is None and None not in expected[1:]
    monkeypatch.setattr(abstract_loop, "_PROBE_CELLS", cells)
    for (left, right), want in zip(pairs, expected):
        fresh = AbstractLoop(left.table, validate=False)
        for step in fresh._word_program:
            a, b, ab, ba = step.probe
            probed = set(zip(a.tolist(), b.tolist()))
            assert len(probed) == min(cells, step.new.size * step.S.size)
            assert np.array_equal(ab, fresh.table[a, b])
            assert np.array_equal(ba, fresh.table[b, a])
        assert find_isomorphism(fresh, right) == want


def reference_signatures(loop: AbstractLoop) -> list[tuple[int, int, int]]:
    """Test-only oracle: one associator pass over all pairs per element."""
    arr = loop.table
    assoc = [int((arr[arr[x]] == arr[x, arr]).sum()) for x in range(loop.size)]
    commutants = (arr == arr.T).sum(axis=1).tolist()
    return list(zip(loop.element_orders(), commutants, assoc))


# A non-associative loop of order 5 whose center is its identity alone.
ORDER_5 = AbstractLoop(
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
)


# Products of at most 256 elements as (|Z|, m, n), and tables off Cayley-Dickson
# loops with centers from the identity alone (LEFT_ONLY) to the whole loop (Z2^3).
SIGNATURE_SHAPES = [(2, 2, 3), (2, 1, 7), (4, 2, 3), (6, 2, 2), (6, 1, 5), (8, 2, 2), (8, 1, 5)]
Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "loop, center_size",
    [
        (cd_table(2, (1, 0, 1, 1)), 2),
        (cd_table(4, (2, 3, 3, 3)), 4),
        (cd_table(8, (5, 2, 7)), 8),
        (to_table(random_product(random.Random(23), 2, 3, 4)), 4),
        (ORDER_5, 1),
        *[(to_table(random_product(random.Random(k * m * n), m, n, k)), k) for k, m, n in SIGNATURE_SHAPES],
        (AbstractLoop(LEFT_ONLY), 1),
        (table_product(LEFT_ONLY, Z2_TABLE), 2),
        (table_product(Z2_TABLE, table_product(LEFT_ONLY, Z2_TABLE).table), 4),
        (table_product(table_product(Z2_TABLE, Z2_TABLE).table, Z2_TABLE), 8),
        (Q8, 2),
    ],
    ids=["z2", "z4", "z8", "m2-product", "trivial-center"]
    + [f"z{k}-m{m}-n{n}" for k, m, n in SIGNATURE_SHAPES]
    + ["left-only", "left-only-x-z2", "z2-x-left-only-x-z2", "z2-cubed", "q8"],
)
def test_signatures_equal_the_per_element_oracle(loop, center_size):
    # The associating count runs over pairs of cosets of the center, times
    # |Z|^2; the oracle counts over all N^2 pairs of elements.
    for table in (loop, fixed_zero_relabel(loop, random.Random(center_size))):
        fresh = AbstractLoop(table.table, validate=False)
        assert len(fresh.center()) == center_size
        assert fresh._signatures == reference_signatures(fresh)


# -- pruning by a central involution ---------------------------------------------


def unpruned(monkeypatch) -> None:
    """From here on no right loop has a square central involution, so the
    search tries every candidate at every level: the unpruned oracle."""
    monkeypatch.setattr(AbstractLoop, "_square_involution", property(lambda self: None))


def direct_product(a: AbstractLoop, b: AbstractLoop) -> AbstractLoop:
    """Element (x, y) at index x * |b| + y."""
    table = a.table.astype(np.intp)[:, None, :, None] * b.size + b.table[None, :, None, :]
    return AbstractLoop(table.reshape(a.size * b.size, a.size * b.size))


Z4_CYCLIC = to_table(CDLoop(make_scalar_group(4), ()))
# ORDER_5 has odd order, so no homomorphism onto Z2: past the Z4 level every
# level of this product's ladder is unprunable, while z = (0, 2) exists.
ORDER_5_BY_Z4 = direct_product(ORDER_5, Z4_CYCLIC)


def n4_z2_pairs():
    rng = random.Random(25)
    return [(N4_Z2[a], fixed_zero_relabel(N4_Z2[b], rng))
            for a, b in itertools.combinations(N4_Z2, 2)]


def test_pruning_keeps_every_n4_z2_answer(monkeypatch):
    pairs = n4_z2_pairs()
    assert len(pairs) == 120
    assert all(right._square_involution is not None for _, right in pairs)
    pruned = [find_isomorphism(left, right) for left, right in pairs]
    assert sum(w is not None for w in pruned) == 42
    unpruned(monkeypatch)
    assert [find_isomorphism(left, right) for left, right in pairs] == pruned


def relabel_test_pairs():
    """Relabelled copies and relabelled strangers over |Z| in {2, 4, 6, 8}."""
    rng = random.Random(2025)
    pairs = []
    for dims in [(1, 3, 2), (1, 4, 4), (1, 3, 6), (1, 2, 8), (1, 1, 6), (2, 2, 2),
                 (2, 2, 4), (2, 2, 6), (2, 3, 2), (2, 1, 8), (1, 5, 2), (1, 4, 8)]:
        left = to_table(random_product(rng, *dims))
        pairs.append((left, fixed_zero_relabel(left, rng)))
        pairs.append((left, fixed_zero_relabel(to_table(random_product(rng, *dims)), rng)))
    pairs.append((ORDER_5_BY_Z4, fixed_zero_relabel(ORDER_5_BY_Z4, rng)))
    return pairs


def test_pruning_keeps_every_answer_on_random_relabelings(monkeypatch):
    pairs = relabel_test_pairs()
    pruned = [find_isomorphism(left, right) for left, right in pairs]
    assert None in pruned and pruned.count(None) < len(pruned) // 2
    pruning = [right._square_involution is not None and any(left._parity_levels)
               for left, right in pairs]
    assert pruning.count(False) == 1  # a 12-element |Z| = 6 loop with no square z
    unpruned(monkeypatch)
    for (left, right), want in zip(pairs, pruned):
        fresh = AbstractLoop(left.table, validate=False)
        assert find_isomorphism(fresh, right) == want


def brute_parity_levels(loop: AbstractLoop) -> list[bool]:
    """Test-only oracle: try every Z2 value on every ladder generator, extend
    by products to the whole loop, and keep the homomorphisms."""
    gens = reference_ladder(loop)
    table = loop.table.astype(np.intp)
    homs = []
    for values in itertools.product((0, 1), repeat=len(gens)):
        lam = np.full(loop.size, -1)
        lam[loop.identity] = 0
        lam[gens] = values
        while (lam < 0).any():
            known = np.flatnonzero(lam >= 0)
            lam[table[np.ix_(known, known)]] = lam[known][:, None] ^ lam[known][None, :]
        if np.array_equal(lam[table], lam[:, None] ^ lam[None, :]):
            homs.append(values)
    return [any(not any(v[:k]) and v[k] for v in homs) for k in range(len(gens))]


@pytest.mark.parametrize(
    "loop",
    [N4_Z2[(1, 1, 1, 1)], N4_Z2[(0, 1, 1, 0)], cd_table(4, (2, 3, 3)), cd_table(6, (1, 5)),
     cd_table(8, (0, 1)), Z4_CYCLIC, to_table(random_product(random.Random(5), 2, 2, 4)),
     ORDER_5, ORDER_5_BY_Z4],
    ids=["z2-minus", "z2-mixed", "z4", "z6", "z8", "cyclic-4", "m2-product", "order-5",
         "order-5-by-z4"],
)
def test_parity_levels_equal_the_brute_force_homomorphisms(loop):
    for table in (loop, fixed_zero_relabel(loop, random.Random(loop.size))):
        fresh = AbstractLoop(table.table, validate=False)
        assert fresh._parity_levels == brute_parity_levels(fresh)


def test_an_unprunable_level_and_a_right_loop_without_a_square_involution():
    assert ORDER_5._parity_levels == [False, False]
    assert ORDER_5_BY_Z4._parity_levels == [True, False, False]
    assert ORDER_5_BY_Z4._square_involution == 2  # (0, 2), the square of (0, 1)
    # Z6 and Z6 x Z2: central involutions, none of them a square.
    for loop in (cd_table(6, ()), cd_table(6, (0,)), ORDER_5):
        assert loop._square_involution is None
    rng = random.Random(6)
    for loop in (ORDER_5_BY_Z4, cd_table(6, (0,)), ORDER_5):
        right = fixed_zero_relabel(loop, rng)
        witness = find_isomorphism(loop, right)
        assert witness == reference_find_isomorphism(loop, right)
        assert verify_isomorphism(loop, right, witness)


def count_rows(monkeypatch) -> dict:
    """Rows tried and rows kept per ladder generator, summed over the search."""
    counts: dict = {}
    survivors = abstract_loop._survivors

    def counted(step, C, *args):
        kept = survivors(step, C, *args)
        tried_kept = counts.setdefault(step.g, [0, 0])
        tried_kept[0] += len(C)
        tried_kept[1] += len(kept)
        return kept

    monkeypatch.setattr(abstract_loop, "_survivors", counted)
    return counts


def test_pruned_row_counts_on_the_n5_minus_one_loop(monkeypatch):
    left = to_table(CDLoop.all_minus_one(Z2, 5))
    right, _ = random_relabel(left, random.Random(1))
    assert left._parity_levels == [True] * 5
    gens = [step.g for step in left._word_program]
    counts = count_rows(monkeypatch)
    witness = find_isomorphism(left, right)
    # The leaf level returns only its first survivor, of the 4 and the 32 that pass there.
    assert [counts[g] for g in gens] == [[30, 30], [120, 112], [2670, 352], [10560, 4], [4, 1]]
    counts.clear()
    unpruned(monkeypatch)
    assert find_isomorphism(AbstractLoop(left.table), right) == witness
    assert [counts[g] for g in gens] == [
        [60, 60], [240, 224], [10380, 1328], [79680, 16], [32, 1]
    ]


def leaf_survivors(monkeypatch) -> list[int]:
    """Rows that pass the full check at each call on the leaf level, counted
    on a copy of its rows; the first of them is what the leaf returns."""
    counts = []
    survivors = abstract_loop._survivors

    def counted(step, C, t2, cls_left, cls_right, first=False):
        if not first:
            return survivors(step, C, t2, cls_left, cls_right)
        every = survivors(step, C.copy(), t2, cls_left, cls_right)
        counts.append(len(every))
        kept = survivors(step, C, t2, cls_left, cls_right, first)
        assert np.array_equal(kept, every[:1])
        return kept

    monkeypatch.setattr(abstract_loop, "_survivors", counted)
    return counts


def test_the_first_leaf_survivor_is_the_reference_witness(monkeypatch):
    # The benchmark's shapes, and a Z4 pair with equal signatures and no
    # isomorphism.  An m1n3z8 leaf has more than 50 survivors: the first one
    # in depth-first order is the witness, as it was when the leaf kept all.
    rng = random.Random("leaf-oracle")
    pairs = []
    for dims in [(1, 4, 4), (1, 3, 8), (2, 3, 2), (1, 5, 2)]:
        left = to_table(random_product(rng, *dims))
        pairs.append((left, fixed_zero_relabel(left, rng)))
    pairs.append((cd_table(4, (2, 3, 3, 3)), fixed_zero_relabel(cd_table(4, (2, 2, 0, 3)), rng)))
    want = [reference_find_isomorphism(left, right) for left, right in pairs]
    assert want[-1] is None and None not in want[:-1]
    leaves = leaf_survivors(monkeypatch)
    assert [find_isomorphism(left, right) for left, right in pairs] == want
    assert max(leaves) > 50
    unpruned(monkeypatch)
    for (left, right), witness in zip(pairs, want):
        assert find_isomorphism(AbstractLoop(left.table, validate=False), right) == witness


def test_the_leaf_check_returns_the_first_row_that_passes(monkeypatch):
    # Rows into the last level: a witness with its generator's image replaced
    # by every element in turn, shuffled, with no class test and no probe
    # cells, so most rows fail the full check and the first passing row sits
    # anywhere among the chunks of 1, 2, 4, ... rows.
    monkeypatch.setattr(abstract_loop, "_PROBE_CELLS", 0)
    rng = random.Random(43)
    left = to_table(random_product(rng, 1, 3, 8))
    right = fixed_zero_relabel(left, rng)
    witness = np.array(find_isomorphism(left, right))
    step = left._word_program[-1]
    classes = np.zeros(left.size, dtype=np.int64)
    t2 = right.table.ravel()
    firsts = set()
    for _ in range(40):
        C = np.repeat(witness[None], left.size, axis=0)
        C[:, step.new] = -1
        C[:, step.g] = rng.sample(range(left.size), left.size)
        every = abstract_loop._survivors(step, C.copy(), t2, classes, classes)
        first = abstract_loop._survivors(step, C.copy(), t2, classes, classes, True)
        assert 0 < len(every) < left.size // 4
        assert np.array_equal(first, every[:1])
        firsts.add(int(np.flatnonzero(C[:, step.g] == first[0, step.g])[0]))
    assert len(firsts) > 10 and max(firsts) > 15


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, object])
def test_span_leading_bits_equal_the_enumerated_span(dtype):
    rng = random.Random(str(dtype))
    for _ in range(300):
        bits = rng.randrange(1, 9)
        vectors = [rng.randrange(1 << bits) for _ in range(rng.randrange(0, 6))]
        span = {0}
        for v in vectors:
            span |= {u ^ v for u in span}
        want = {u.bit_length() - 1 for u in span if u}
        array = np.array(vectors, dtype=dtype).reshape(-1, 1)
        assert abstract_loop._span_leading_bits(array) == want, vectors
    # Two vectors with one leading bit span a third with a lower one.
    assert abstract_loop._span_leading_bits(np.array([6, 5], dtype=np.uint8)) == {2, 1}
