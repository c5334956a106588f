"""Finite loops presented as bare multiplication tables.

Everything downstream of table export forgets the (scalar, mask) coordinates
and works with an N x N Latin square over indices 0..N-1.  This module
validates such tables, computes centers, closures and element orders, builds
tables from loop descriptors, searches for isomorphisms, and reads/writes
the loop-table v1 interchange format.

Isomorphism search runs on a word program compiled once per loop: a greedy
generator ladder, and for each generator the waves of products that reach
every element it adds to the closure.  Evaluating the program on a whole
array of candidate images at once turns the backtracking search into a few
numpy passes per node.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .budget import ensure_budget
from .cdloop import CDLoop, as_product
from .central_product import CentralProduct, coset_twist_matrix
from .errors import BudgetExceeded, TableFormatError

MAX_ISO_SIZE = 256

# Cap on the cells of one candidate block's temporaries in find_isomorphism.
_BLOCK_CELLS = 1 << 20
# Rows of a level's new elements checked before the rest (see find_isomorphism).
_PROBE_ROWS = 4


class AbstractLoop:
    """A finite loop given by its multiplication table.

    table[i][j] is the index of the product of elements i and j.  The table
    must be a Latin square with a two-sided identity; the identity may sit
    at any index (parse_loop_table normalizes it to 0).
    """

    def __init__(self, table, validate: bool = True):
        arr = np.array(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise TableFormatError(f"table must be square, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise TableFormatError("table is empty")
        # Casting would truncate floats and overflow on huge Python ints.
        if arr.dtype.kind not in "iu":
            raise TableFormatError(f"table entries must be integers, got {arr.dtype}")
        self.table = arr = arr.astype(np.int64, copy=False)
        self.size = int(arr.shape[0])
        if validate:
            self._validate_latin()
        self.identity = self._find_identity()
        self._center: list[int] | None = None
        self._orders: list[int] | None = None
        self._commutant_counts: np.ndarray | None = None
        self._signature_cache: list[tuple[int, int, int]] | None = None
        self._ladder_cache: list[int] | None = None
        self._program_cache: list[_Step] | None = None

    # -- validation ------------------------------------------------------------

    def _validate_latin(self) -> None:
        arr, n = self.table, self.size
        if arr.min() < 0 or arr.max() >= n:
            bad = np.argwhere((arr < 0) | (arr >= n))[0]
            raise TableFormatError(
                f"entry at row {bad[0]}, column {bad[1]} is outside 0..{n - 1}"
            )
        expected = np.arange(n)
        row_ok = (np.sort(arr, axis=1) == expected).all(axis=1)
        if not row_ok.all():
            i = int(np.flatnonzero(~row_ok)[0])
            raise TableFormatError(f"row {i} is not a permutation of 0..{n - 1}")
        col_ok = (np.sort(arr.T, axis=1) == expected).all(axis=1)
        if not col_ok.all():
            j = int(np.flatnonzero(~col_ok)[0])
            raise TableFormatError(f"column {j} is not a permutation of 0..{n - 1}")

    def _find_identity(self) -> int:
        arr = self.table
        expected = np.arange(self.size)
        for e in range(self.size):
            if np.array_equal(arr[e], expected) and np.array_equal(arr[:, e], expected):
                return e
        raise TableFormatError("table has no two-sided identity element")

    # -- basic operations --------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def left_div(self, a: int, b: int) -> int:
        """The unique x with a * x = b."""
        return int(np.flatnonzero(self.table[a] == b)[0])

    def right_div(self, b: int, a: int) -> int:
        """The unique x with x * a = b."""
        return int(np.flatnonzero(self.table[:, a] == b)[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbstractLoop):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.table, other.table)

    __hash__ = None

    # -- structure ----------------------------------------------------------------

    def center(self) -> list[int]:
        """Indices commuting and associating (in all three slots) with everything.

        For an x that commutes with everything, put P = (ax)b, Q = (ab)x and
        R = a(bx): the left, middle and right nucleus laws read P = Q, P = R
        and Q = R, so any two imply the third.  Only the left law
        (xa)b = x(ab) and the middle law (xa)b = a(xb) are checked.
        """
        if self._center is None:
            arr = self.table
            comm = np.array(self.commutant_sizes())
            out = []
            for x in np.flatnonzero(comm == self.size):
                fx = arr[x]
                xa_b = arr[fx]
                if np.array_equal(xa_b, fx[arr]) and np.array_equal(xa_b, arr[:, fx]):
                    out.append(int(x))
            self._center = out
        return list(self._center)

    def closure(self, seed) -> set[int]:
        """Smallest subset containing the identity and seed, closed under mul."""
        inside = np.zeros(self.size, dtype=bool)
        inside[np.fromiter(seed, dtype=np.int64)] = True
        inside[self.identity] = True
        current = np.flatnonzero(inside)
        while True:
            inside[self.table[np.ix_(current, current)]] = True
            grown = np.flatnonzero(inside)
            if grown.size == current.size:
                return set(grown.tolist())
            current = grown

    def element_orders(self) -> list[int]:
        """Left-power order of each element: least k with x^(k) = identity,
        where x^(k+1) = x * x^(k)."""
        if self._orders is None:
            n = self.size
            orders = np.zeros(n, dtype=np.int64)
            idx = np.arange(n)
            power = idx.copy()
            k = 1
            while (orders == 0).any():
                hit = (power == self.identity) & (orders == 0)
                orders[hit] = k
                power = self.table[idx, power]
                k += 1
            self._orders = [int(o) for o in orders]
        return list(self._orders)

    def commutant_sizes(self) -> list[int]:
        """|{y : x * y = y * x}| for every x."""
        if self._commutant_counts is None:
            arr = self.table
            self._commutant_counts = (arr == arr.T).sum(axis=1)
        return [int(c) for c in self._commutant_counts]

    def subloop(self, indices) -> "AbstractLoop":
        """Induced loop on a closed subset, elements renumbered in sorted order."""
        idx = sorted(set(int(i) for i in indices))
        lut = np.full(self.size, -1, dtype=np.int64)
        lut[idx] = np.arange(len(idx))
        sub = lut[self.table[np.ix_(idx, idx)]]
        if (sub < 0).any():
            a, b = (idx[k] for k in np.argwhere(sub < 0)[0])
            raise ValueError(f"subset is not closed: {a} * {b} = {self.mul(a, b)}")
        return AbstractLoop(sub, validate=False)

    def relabel(self, perm) -> "AbstractLoop":
        """Transport the table along i -> perm[i]."""
        p = np.asarray(perm, dtype=np.int64)
        if p.shape != (self.size,) or not np.array_equal(np.sort(p), np.arange(self.size)):
            raise ValueError(f"relabeling must be a permutation of 0..{self.size - 1}")
        new = np.empty_like(self.table)
        new[p[:, None], p[None, :]] = p[self.table]
        return AbstractLoop(new, validate=False)

    # -- signatures for isomorphism search ------------------------------------------

    def _signatures(self) -> list[tuple[int, int, int]]:
        if self._signature_cache is None:
            arr = self.table
            orders = self.element_orders()
            comm = self.commutant_sizes()
            assoc = [
                int((arr[arr[x]] == arr[x, arr]).sum()) for x in range(self.size)
            ]
            self._signature_cache = list(zip(orders, comm, assoc))
        return self._signature_cache

    def _generator_ladder(self) -> list[int]:
        """Greedy generating sequence, each pick growing the closure the most.

        Ties go to the smallest index.  A candidate inside an earlier
        candidate's closure at the same step is skipped: its own closure is
        contained in that one, so it can never strictly win.
        """
        if self._ladder_cache is None:
            known = self.closure(())
            gens: list[int] = []
            while len(known) < self.size:
                best_g, best_closure = -1, known
                covered = set(known)
                for g in range(self.size):
                    if g in covered:
                        continue
                    grown = self.closure(list(known) + [g])
                    covered |= grown
                    if len(grown) > len(best_closure):
                        best_g, best_closure = g, grown
                        if len(grown) == self.size:
                            break
                gens.append(best_g)
                known = best_closure
            self._ladder_cache = gens
        return list(self._ladder_cache)

    def _word_program(self) -> list[_Step]:
        """The ladder as words: how each element is reached from the generators.

        One step per ladder generator g; the ladder never picks a g inside
        the closure of the generators before it.  A step adds g, then closes
        the set in waves; each wave is (xs, us, vs) with xs[i] = us[i] * vs[i]
        for us, vs already in the set.
        """
        if self._program_cache is None:
            arr = self.table
            inside = np.zeros(self.size, dtype=bool)
            inside[self.identity] = True
            program: list[_Step] = []
            for g in self._generator_ladder():
                inside[g] = True
                waves = []
                while True:
                    S = np.flatnonzero(inside)
                    products = arr[np.ix_(S, S)].ravel()
                    fresh = np.flatnonzero(~inside[products])
                    if fresh.size == 0:
                        break
                    xs, first = np.unique(products[fresh], return_index=True)
                    cell = fresh[first]
                    waves.append((xs, S[cell // S.size], S[cell % S.size]))
                    inside[xs] = True
                new = np.concatenate([[g]] + [xs for xs, _, _ in waves])
                program.append(
                    _Step(g, waves, new, S, arr[np.ix_(new, S)], arr[np.ix_(S, new)])
                )
            self._program_cache = program
        return self._program_cache


class _Step(NamedTuple):
    """One ladder level of the word program (see AbstractLoop._word_program).

    new lists g and then the elements its waves add; S is the closure after
    this level; new_by_S and S_by_new are left's products over new x S and
    S x new.
    """

    g: int
    waves: list
    new: np.ndarray
    S: np.ndarray
    new_by_S: np.ndarray
    S_by_new: np.ndarray


def to_table(obj: CDLoop | CentralProduct, max_elements: int | None = None) -> AbstractLoop:
    """Multiplication table of a loop or central product.

    Element i = s * 2**(m*n) + c is the coset representative with scalar
    exponent s and combined mask c (factor 1 in the low n bits), so the
    identity always lands at index 0.
    """
    A = as_product(obj)
    size = A.order
    ensure_budget(size * size, max_elements, "table construction")
    k = A.z.order
    cosets = A.coset_count
    twists = coset_twist_matrix(A)
    index = np.arange(size)
    s = index // cosets
    c = index % cosets
    scalar_grid = (s[:, None] + s[None, :] + twists[c[:, None], c[None, :]]) % k
    mask_grid = c[:, None] ^ c[None, :]
    return AbstractLoop(scalar_grid * cosets + mask_grid, validate=False)


# -- loop-table v1 interchange format -----------------------------------------------


def serialize_loop_table(loop: AbstractLoop) -> str:
    """Render as 'loop-table v1 N' plus N rows of N space-separated indices."""
    lines = [f"loop-table v1 {loop.size}"]
    lines.extend(" ".join(map(str, row)) for row in loop.table.tolist())
    return "\n".join(lines) + "\n"


def parse_loop_table(text: str, max_elements: int | None = None) -> AbstractLoop:
    """Parse the loop-table v1 format and normalize the identity to index 0.

    The N^2 cells named by the header are charged against the enumeration
    budget before any row is parsed.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TableFormatError("empty input")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "loop-table" or header[1] != "v1":
        raise TableFormatError(
            f"expected header 'loop-table v1 N', got {lines[0]!r}"
        )
    if not (header[2].isascii() and header[2].isdigit()):
        raise TableFormatError(f"invalid size in header: {header[2]!r}")
    n = int(header[2])
    if n < 1:
        raise TableFormatError(f"size must be positive, got {n}")
    ensure_budget(n * n, max_elements, "table parse")
    if len(lines) - 1 != n:
        raise TableFormatError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise TableFormatError(f"row {i} has {len(parts)} entries, expected {n}")
        # int() would also read signs, digit separators and non-ASCII digits.
        if not line.isascii() or "+" in line or "_" in line:
            raise TableFormatError(f"row {i} contains a non-integer entry")
        try:
            rows.append(np.fromiter(map(int, parts), dtype=np.int64, count=n))
        except ValueError:
            raise TableFormatError(f"row {i} contains a non-integer entry") from None
        except OverflowError:
            raise TableFormatError(f"row {i} has an entry outside 0..{n - 1}") from None
    if not text.isascii():
        raise TableFormatError("table has non-ASCII whitespace or line breaks")
    loop = AbstractLoop(np.vstack(rows))
    if loop.identity != 0:
        perm = list(range(loop.size))
        perm[0], perm[loop.identity] = perm[loop.identity], perm[0]
        loop = loop.relabel(perm)
    return loop


def random_relabel(
    loop: AbstractLoop, rng: random.Random
) -> tuple[AbstractLoop, list[int]]:
    """Apply a uniformly random permutation; returns (new loop, permutation)."""
    perm = list(range(loop.size))
    rng.shuffle(perm)
    return loop.relabel(perm), perm


# -- isomorphism search ---------------------------------------------------------------


def verify_isomorphism(left: AbstractLoop, right: AbstractLoop, mapping) -> bool:
    """Full N^2 check that mapping transports left's table onto right's."""
    if left.size != right.size:
        return False
    p = np.asarray(mapping, dtype=np.int64)
    if p.shape != (left.size,) or not np.array_equal(np.sort(p), np.arange(left.size)):
        return False
    return bool(np.array_equal(p[left.table], right.table[p[:, None], p[None, :]]))


def fixes_center_setwise(left: AbstractLoop, right: AbstractLoop, mapping) -> bool:
    """Whether the witness carries left's center onto right's center."""
    return {mapping[c] for c in left.center()} == set(right.center())


def find_isomorphism(
    left: AbstractLoop, right: AbstractLoop, max_size: int = MAX_ISO_SIZE
) -> list[int] | None:
    """Search for an isomorphism left -> right; returns the index map or None.

    Elements are classed by (left-power order, commutant size, count of
    associating pairs).  The search walks left's word program one ladder
    generator g at a time.  At each node, every right element in g's class
    is tried as g's image at once: the level's words give the images of
    everything g adds, and a candidate row survives only if those images
    are in matching classes and products over new x S and S x new are
    preserved (pairs inside the old S passed at earlier levels).  Injectivity
    follows: a surviving row is a homomorphism on S, and if phi(a) = phi(b)
    then the x in S with a * x = b has phi(x) = e, so x has order 1 like e
    and is the identity.  Each test is necessary for an isomorphism, so the
    search is exhaustive: None means none exists.  Any witness found is
    re-verified over the full table.
    """
    if left.size != right.size:
        return None
    if left.size > max_size:
        raise BudgetExceeded(
            f"isomorphism search supports tables up to {max_size} elements, "
            f"got {left.size}",
            required=left.size,
            budget=max_size,
        )
    sig_left = left._signatures()
    sig_right = right._signatures()
    if sorted(sig_left) != sorted(sig_right):
        return None

    n = left.size
    classes = {sig: k for k, sig in enumerate(sorted(set(sig_left)))}
    cls_left = np.array([classes[sig] for sig in sig_left])
    cls_right = np.array([classes[sig] for sig in sig_right])
    t2 = right.table
    program = left._word_program()

    def survivors(step: _Step, row: np.ndarray, cands: np.ndarray):
        C = np.repeat(row[None, :], cands.size, axis=0)
        C[:, step.g] = cands
        for xs, us, vs in step.waves:
            C[:, xs] = t2[C[:, us], C[:, vs]]
        img = C[:, step.new]
        ok = (cls_right[img] == cls_left[step.new]).all(axis=1)
        C, img = C[ok], img[ok]
        img_S = C[:, step.S]
        # A wrong image breaks most products, so a few rows of new reject
        # nearly every failing candidate before the full check.
        for rows in (slice(0, _PROBE_ROWS), slice(_PROBE_ROWS, None)):
            sub = img[:, rows]
            left_mul = C[:, step.new_by_S[rows]] == t2[sub[:, :, None], img_S[:, None, :]]
            right_mul = C[:, step.S_by_new[:, rows]] == t2[img_S[:, :, None], sub[:, None, :]]
            ok = left_mul.all(axis=(1, 2)) & right_mul.all(axis=(1, 2))
            C, img, img_S = C[ok], img[ok], img_S[ok]
        return C

    def search(level: int, row: np.ndarray) -> np.ndarray | None:
        if level == len(program):
            return row
        step = program[level]
        cands = np.flatnonzero(cls_right == cls_left[step.g])
        # Candidate rows per block, so that the (rows, |new|, |S|)
        # temporaries stay within _BLOCK_CELLS cells.
        block = max(1, _BLOCK_CELLS // (step.new.size * step.S.size))
        for lo in range(0, cands.size, block):
            for nxt in survivors(step, row, cands[lo:lo + block]):
                found = search(level + 1, nxt)
                if found is not None:
                    return found
        return None

    row = np.full(n, -1, dtype=np.int64)
    row[left.identity] = right.identity
    found = search(0, row)
    if found is None:
        return None
    mapping = found.tolist()
    if not verify_isomorphism(left, right, mapping):
        raise RuntimeError("internal error: isomorphism witness failed verification")
    return mapping
