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
numpy passes per node; every level checks the surviving rows, and descends
with them, in chunks of 1, 2, 4, ... rows.
"""

from __future__ import annotations

import random
import re
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .budget import _BLOCK_CELLS, ensure_budget
from .cdloop import CDLoop, as_product
from .central_product import CentralProduct, coset_twist_matrix
from .errors import BudgetExceeded, TableFormatError
from .scalars import add_exponents

MAX_ISO_SIZE = 256

# Cells of a level's new x S block checked before the rest (see find_isomorphism).
_PROBE_CELLS = 32
# Cells per band of take gathers (relabel, subloop, nucleus check, signatures), of
# the Latin check's flags and of the commutant counts: take copies an index to intp first.
_GATHER_CELLS = 1 << 16


class AbstractLoop:
    """A finite loop given by its multiplication table.

    table[i][j] is the index of the product of elements i and j.  The table
    must be a Latin square with a two-sided identity; the identity may sit
    at any index (parse_loop_table normalizes it to 0).  Entries outside
    0..N-1 are refused, validate or not, in the input's own dtype.
    self.table is a read-only array of np.min_scalar_type(N - 1) (uint8 up
    to 256 elements, uint16 up to 65536): one passed in as such is kept,
    anything else is copied once, so the cached invariants always describe
    the table.  Arithmetic on entries runs in intp, where it cannot wrap.
    """

    def __init__(self, table, validate: bool = True):
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise TableFormatError(f"table must be square, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise TableFormatError("table is empty")
        # Casting would truncate floats and overflow on huge Python ints.
        if arr.dtype.kind not in "iu":
            raise TableFormatError(f"table entries must be integers, got {arr.dtype}")
        n = arr.shape[0]
        if arr.min() < 0 or arr.max() >= n:
            bad = np.argwhere((arr < 0) | (arr >= n))[0]
            raise TableFormatError(
                f"entry at row {bad[0]}, column {bad[1]} is outside 0..{n - 1}"
            )
        dtype = np.min_scalar_type(n - 1)
        if arr.dtype != dtype or arr.flags.writeable:
            arr = arr.astype(dtype)
            arr.flags.writeable = False
        self.table = arr
        self.size = n
        if validate:
            self._validate_latin()
        self.identity = self._find_identity()

    # -- validation ------------------------------------------------------------

    def _validate_latin(self) -> None:
        # A line is a permutation iff it holds all N values: per band of rows, then
        # of columns, clear band x N flags, set flags[i * N + v] for each entry v of
        # line i (in range: __init__ checked) and name the first line with one clear.
        arr, n = self.table, self.size
        rows = min(n, max(1, _GATHER_CELLS // n))
        flags = np.empty(rows * n, dtype=bool)
        offsets = np.arange(0, rows * n, n)[:, None]
        for name, lines in (("row", arr), ("column", arr.T)):
            for r in range(0, n, rows):
                band = lines[r : r + rows]
                seen = flags[: band.size]
                seen[:] = False
                seen[band + offsets[: len(band)]] = True
                bad = np.flatnonzero(~seen.reshape(band.shape).all(axis=1))
                if bad.size:
                    raise TableFormatError(
                        f"{name} {r + bad[0]} is not a permutation of 0..{n - 1}"
                    )

    def _find_identity(self) -> int:
        arr = self.table
        expected = np.arange(self.size)
        for e in np.flatnonzero(arr[0] == 0).tolist():  # an identity e has 0 * e = 0
            if np.array_equal(arr[e], expected) and np.array_equal(arr[:, e], expected):
                return e
        raise TableFormatError("table has no two-sided identity element")

    # -- basic operations --------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        i, j = self._checked([i, j])
        return int(self.table[i, j])

    def left_div(self, a: int, b: int) -> int:
        """The unique x with a * x = b."""
        a, b = self._checked([a, b])
        return int(np.flatnonzero(self.table[a] == b)[0])

    def right_div(self, b: int, a: int) -> int:
        """The unique x with x * a = b."""
        b, a = self._checked([b, a])
        return int(np.flatnonzero(self.table[:, a] == b)[0])

    def _checked(self, indices) -> np.ndarray:
        """indices as an int64 array, refused unless each is a Python or numpy
        integer, not a bool, in 0..N-1 (numpy would truncate a float, wrap a
        negative index around or raise a bare error)."""
        idx = list(indices)
        for i in idx:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise ValueError(f"index {i!r} is not an integer")
            if not 0 <= i < self.size:
                raise ValueError(f"index {i} is outside 0..{self.size - 1}")
        return np.array(idx, dtype=np.int64)

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

        The center is a subgroup (Bruck, A Survey of Binary Systems, 1958),
        so the full check runs once per generator found, never on the
        identity: a passing x brings in the closure of the central elements
        so far, and a failing x refuses x * c for every central c found so
        far (c and x * c central would make x central).  Each pass strictly
        grows the verified subgroup, so a cyclic center of order k passes
        at most as many checks as k has prime factors, with multiplicity;
        every other check fails on an element that commutes with everything.
        """
        return list(self._center)

    @cached_property
    def _center(self) -> list[int]:
        # For central k, (x(ak))b = ((xa)b)k, x((ak)b) = (x(ab))k and (ak)(xb) =
        # (a(xb))k, likewise for b -> bk, and y -> yk is a bijection: the laws for
        # x hold at (a, b) iff they hold at (ak, b) and (a, bk).  So once a central
        # subgroup K is found, a check runs over pairs of coset representatives
        # of K (the least element of each coset): N^2/|K|^2 cells.
        arr = self.table
        central = np.zeros(self.size, dtype=bool)
        central[self.identity] = True
        refused = np.zeros(self.size, dtype=bool)
        reps = None
        for x in np.flatnonzero(self._commutant_counts == self.size):
            if central[x] or refused[x]:
                continue
            if self._nuclear(x, reps):
                central[x] = True
                self._grow(central)
                reps = np.unique(arr.take(np.flatnonzero(central), axis=1).min(axis=1))
            else:
                refused[arr[x, central]] = True
        return np.flatnonzero(central).tolist()

    def _nuclear(self, x: int, reps: np.ndarray | None = None) -> bool:
        """The nucleus laws (xa)b = x(ab) and (xa)b = a(xb) for a and b in reps
        (every element if None), a band of rows a at a time."""
        arr, n = self.table, self.size
        fx = arr[x]
        rows = max(1, _GATHER_CELLS // n)
        if reps is not None:
            x_b = fx.take(reps)
            for lo in range(0, reps.size, rows):
                a = reps[lo : lo + rows]
                band = arr.take(a, axis=0)
                xa_b = arr.take(fx.take(a), axis=0).take(reps, axis=1)
                ab = band.take(reps, axis=1)
                if (xa_b != fx.take(ab)).any() or (xa_b != band.take(x_b, axis=1)).any():
                    return False
            return True
        for lo in range(0, n, rows):
            band = arr[lo : lo + rows]
            xa_b = arr.take(fx[lo : lo + rows], axis=0)
            if (xa_b != fx.take(band)).any() or (xa_b != band.take(fx, axis=1)).any():
                return False
        return True

    def closure(self, seed) -> set[int]:
        """Smallest subset containing the identity and seed, closed under mul."""
        inside = np.zeros(self.size, dtype=bool)
        inside[self._checked(seed)] = True
        inside[self.identity] = True
        self._grow(inside)
        return set(np.flatnonzero(inside).tolist())

    def _grow(self, inside: np.ndarray) -> int:
        """Grow the boolean mask inside, in place, until it is closed under mul,
        by scattering S x S into it until its count stops growing; returns the
        count.  For the callers that read no waves: it sorts nothing."""
        count = np.count_nonzero(inside)
        while count < self.size:
            S = np.flatnonzero(inside)
            inside[self.table.take(S, axis=0).take(S, axis=1)] = True
            count, before = np.count_nonzero(inside), count
            if count == before:
                break
        return count

    def _close(self, inside: np.ndarray) -> list:
        """Grow the boolean mask inside, in place, until it is closed under mul.
        Returns the waves taken, each (xs, us, vs) with xs[i] = us[i] * vs[i]:
        xs are the distinct products outside the set, us and vs inside it.
        Each wave sorts (np.unique); _grow finds the closure with no waves."""
        waves = []
        while not inside.all():
            S = np.flatnonzero(inside)
            products = self.table.take(S, axis=0).take(S, axis=1).ravel()
            fresh = np.flatnonzero(~inside[products])
            if fresh.size == 0:
                break
            xs, first = np.unique(products[fresh], return_index=True)
            cell = fresh[first]
            waves.append((xs, S[cell // S.size], S[cell % S.size]))
            inside[xs] = True
        return waves

    def element_orders(self) -> list[int]:
        """Left-power order of each element: least k with x^(k) = identity,
        where x^(k+1) = x * x^(k)."""
        return self._orders.tolist()

    @cached_property
    def _orders(self) -> np.ndarray:
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
        return orders

    def commutant_sizes(self) -> list[int]:
        """|{y : x * y = y * x}| for every x."""
        return self._commutant_counts.tolist()

    @cached_property
    def _commutant_counts(self) -> np.ndarray:
        # Bands of rows against their transposed columns from the diagonal on: a
        # match right of the diagonal block counts for both its rows.
        arr, counts = self.table, np.zeros(self.size, dtype=np.int64)
        rows = max(1, _GATHER_CELLS // self.size)
        for lo in range(0, self.size, rows):
            same = arr[lo : lo + rows, lo:] == arr[lo:, lo : lo + rows].T
            counts[lo : lo + rows] += same.sum(axis=1)
            counts[lo + rows :] += same[:, rows:].sum(axis=0)
        return counts

    def subloop(self, indices) -> "AbstractLoop":
        """Induced loop on a closed subset, elements renumbered in sorted order,
        by gathers and a lookup that stay in the table dtype."""
        idx = np.unique(self._checked(indices))
        inside = np.zeros(self.size, dtype=bool)
        inside[idx] = True
        lut = np.zeros(self.size, dtype=self.table.dtype)
        lut[idx] = np.arange(idx.size)
        sub = self.table.take(idx, axis=0).take(idx, axis=1)
        rows = max(1, _GATHER_CELLS // max(1, idx.size))
        for r in range(0, idx.size, rows):
            block = sub[r : r + rows]
            closed = inside.take(block)
            if not closed.all():
                i, j = np.argwhere(~closed)[0]
                a, b = int(idx[r + i]), int(idx[j])
                raise ValueError(f"subset is not closed: {a} * {b} = {self.mul(a, b)}")
            lut.take(block, out=block)
        sub.flags.writeable = False
        return AbstractLoop(sub, validate=False)

    def relabel(self, perm) -> "AbstractLoop":
        """Transport the table along i -> perm[i]: cell (a, b) becomes
        perm[table[q[a], q[b]]], q the inverse of perm, by gathers that stay
        in the table dtype."""
        p = np.asarray(perm)
        n = self.size
        if not _is_permutation(p, n):
            raise ValueError(f"relabeling must be a permutation of 0..{n - 1}")
        q = np.empty(n, dtype=np.intp)
        q[p] = np.arange(n)
        new = self.table.take(q, axis=0).take(q, axis=1)
        values = p.astype(new.dtype)
        rows = max(1, _GATHER_CELLS // n)
        for r in range(0, n, rows):
            values.take(new[r : r + rows], out=new[r : r + rows])
        new.flags.writeable = False
        return AbstractLoop(new, validate=False)

    # -- signatures for isomorphism search ------------------------------------------

    @cached_property
    def _signatures(self) -> list[tuple[int, int, int]]:
        # A central c is nuclear: ((xc)a)b = ((xa)b)c, (xc)(ab) = (x(ab))c, (x(ac))b =
        # ((xa)b)c and x((ac)b) = (x(ab))c, likewise for b -> bc, and y -> yc is a
        # bijection, so x associates with (a, b) iff xc does, iff (ac, b) and (a, bc) do.
        # A coset's count is |Z|^2 times its count over pairs of coset representatives
        # of Z(L): R^3 cells (R = N/|Z|), for a band of representatives x at a time.
        arr, z = self.table, len(self._center)
        reps, coset = np.unique(arr[:, self._center].min(axis=1), return_inverse=True)
        by_reps = arr.take(reps, axis=1)  # u * b for every u and representative b
        ab = by_reps.take(reps, axis=0).astype(np.intp)
        assoc = np.empty(reps.size, dtype=np.int64)
        band = max(1, _GATHER_CELLS // reps.size**2)
        for lo in range(0, reps.size, band):
            xs = arr.take(reps[lo : lo + band], axis=0)
            same = by_reps.take(xs.take(reps, axis=1), axis=0) == xs.take(ab, axis=1)
            assoc[lo : lo + band] = z * z * np.count_nonzero(same.reshape(len(xs), -1), axis=1)
        return list(zip(self.element_orders(), self.commutant_sizes(), assoc[coset].tolist()))

    @cached_property
    def _word_program(self) -> list[_Step]:
        """A greedy generator ladder as words: how each element is reached.

        Each step adds the generator g whose closure with the set so far is
        largest (ties go to the smallest index), with the waves _close took
        to reach the elements it adds.  Candidates are scored by the size of
        their closure alone (_grow, no waves); only the winner's waves are
        recorded, once per step.  A candidate inside an earlier candidate's
        closure at the same step is skipped: its own closure is contained in
        that one, so it can never strictly win.  Nor can, at the first step
        once a candidate is held, an involution: {e, g} is least.
        """
        arr = self.table
        inside = np.zeros(self.size, dtype=bool)
        inside[self.identity] = True
        program: list[_Step] = []
        while not inside.all():
            best, most = None, 0
            covered = inside.copy()
            for g in range(self.size):
                if covered[g] or best is not None and not program and arr[g, g] == self.identity:
                    continue
                grown = inside.copy()
                grown[g] = True
                count = self._grow(grown)
                covered |= grown
                if count > most:
                    best, most = g, count
                    if count == self.size:
                        break
            g = best
            inside[g] = True
            waves = self._close(inside)
            S = np.flatnonzero(inside)
            new = np.concatenate([[g]] + [xs for xs, _, _ in waves])
            # Probe cells: steps of an odd integer stride near 618/1000 of the new x S
            # block, taken mod its size, so they spread over its rows and columns alike.
            size = new.size * S.size
            cell = np.arange(min(_PROBE_CELLS, size)) * (618 * size // 1000 | 1) % size
            a, b = new[cell // S.size], S[cell % S.size]
            program.append(_Step(g, waves, new, S, arr[np.ix_(new, S)], arr[np.ix_(S, new)],
                                 (a, b, arr[a, b], arr[b, a])))
        return program

    @cached_property
    def _parity_levels(self) -> list[bool]:
        """For each ladder level k, whether some homomorphism onto Z2 is 0 on
        the closure before the level and 1 on its generator g_k.

        Each element gets a parity vector w over F2 from the word program:
        w[g_k] = e_k and w[x] = w[u] ^ w[v] for each wave product x = u * v.
        A homomorphism is f(w) for the linear f with f(e_k) = its value on
        g_k, and f(w) is one iff f vanishes on R, the set of values
        w[a * b] ^ w[a] ^ w[b].  So level k passes iff e_k lies outside the
        span of R and e_0..e_(k-1), that is, iff no vector in the span of R
        has leading bit k.  Vectors are bit masks in the narrowest unsigned
        dtype.  For a subloop S and x outside it, x * S is disjoint from S,
        so each level at least doubles the closure: there are at most
        log2 N levels, and 64 bits always suffice.
        """
        program = self._word_program
        w = np.zeros(self.size, dtype=np.min_scalar_type((1 << len(program)) - 1))
        for k, step in enumerate(program):
            w[step.g] = 1 << k
            for xs, us, vs in step.waves:
                w[xs] = w[us] ^ w[vs]
        leading = _span_leading_bits(w[self.table] ^ w[:, None] ^ w[None, :])
        return [k not in leading for k in range(len(program))]

    @cached_property
    def _square_involution(self) -> int | None:
        """The least central z other than e with z * z = e that is a square."""
        arr, e = self.table, self.identity
        squares = np.zeros(self.size, dtype=bool)
        squares[np.diagonal(arr)] = True
        return next((z for z in self._center if z != e and arr[z, z] == e and squares[z]), None)


def _span_leading_bits(vectors: np.ndarray) -> set[int]:
    """The leading bits of the nonzero vectors in the span of vectors, bit
    masks over F2, by elimination in array passes: the largest vector left
    gives a new leading bit, which it clears from every vector that has it."""
    leading = set()
    while top := int(vectors.max(initial=0)):
        lead = top.bit_length() - 1
        leading.add(lead)
        vectors = np.where(vectors >> lead & 1, vectors ^ top, vectors)
    return leading


class _Step(NamedTuple):
    """One ladder level of the word program (see AbstractLoop._word_program).

    new lists g and then the elements its waves add; S is the closure after
    this level; new_by_S and S_by_new are left's products over new x S and
    S x new, and probe is (a, b, a * b, b * a) at the probe cells (a, b).
    """

    g: int
    waves: list
    new: np.ndarray
    S: np.ndarray
    new_by_S: np.ndarray
    S_by_new: np.ndarray
    probe: tuple


def to_table(obj: CDLoop | CentralProduct, max_elements: int | None = None) -> AbstractLoop:
    """Multiplication table of a loop or central product.

    Element i = s * 2**(m*n) + c is the coset representative with scalar
    exponent s and combined mask c (factor 1 in the low n bits), so the
    identity always lands at index 0.

    With C = 2**(m*n) cosets of Z and t the coset twist matrix, cell
    (s1*C + c1, s2*C + c2) is ((s1 + s2 + t[c1, c2]) % |Z|)*C + (c1 ^ c2).
    Scalars are central, so it depends on s1 and s2 only through
    d = (s1 + s2) % |Z|: the table holds |Z| distinct C x C blocks, one per
    d, and each band of C rows is those blocks rotated by s1, gathered
    straight into place.
    """
    A = as_product(obj)
    size = A.order
    ensure_budget(size * size, max_elements, "table construction")
    k = A.z.order
    cosets = A.coset_count
    twists = coset_twist_matrix(A)
    dtype = np.min_scalar_type(size - 1)
    c = np.arange(cosets, dtype=dtype)
    s = np.arange(k, dtype=twists.dtype)
    # blocks[c1, d, c2] is cell (c1, c2) of block d.  The reduced exponents
    # are cast to the table dtype before the multiply, which would wrap in
    # a narrower twist dtype; every cell s * C + (c1 ^ c2) <= N - 1 fits.
    blocks = add_exponents(twists[:, None, :], s[:, None], k).astype(dtype) * cosets
    blocks += (c[:, None] ^ c[None, :])[:, None, :]
    table = np.empty((k, cosets, k, cosets), dtype=dtype)
    for s1 in range(k):
        # column band s2 of row band s1 is block (s1 + s2) % k
        np.take(blocks, s1 + s, axis=1, out=table[s1], mode="wrap")
    table = table.reshape(size, size)
    table.flags.writeable = False
    return AbstractLoop(table, validate=False)


# -- loop-table v1 interchange format -----------------------------------------------

# Bytes of text decoded per pass of parse_loop_table (blocks are whole lines),
# and the rough output size of one serialize_loop_table pass.
_CODEC_BLOCK_BYTES = 1 << 17
# Digits an entry may carry in the block decoder, which sums them in the
# narrowest exact unsigned dtype; rows with a longer entry are read one by one.
_MAX_DIGITS = 18

# ASCII byte classes as str.split and str.splitlines see them: the block
# decoder's bytes.translate table, a text's first non-blank line, a line break.
_OTHER, _SPACE, _BREAK, _DIGIT = range(4)
_SPACES, _BREAKS = "\t\x1f ", "\n\r\x0b\x0c\x1c\x1d\x1e"
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[[ord(c) for c in _SPACES]] = _SPACE
_BYTE_CLASS[[ord(c) for c in _BREAKS]] = _BREAK
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_CLASS_OF = _BYTE_CLASS.tobytes()
_FIRST_LINE = re.compile(f"[{_SPACES}]*[^{_SPACES}{_BREAKS}][^{_BREAKS}]*")
_LINE_BREAK = re.compile(f"[{_BREAKS}]".encode())


def serialize_loop_table(loop: AbstractLoop) -> str:
    """Render as 'loop-table v1 N' plus N rows of N space-separated indices.

    Each value's token, its digits and a space (a line break in the last
    column), is a NUL-padded fixed-width record in a per-value table.  A
    block of rows is gathered from that table and the padding is dropped by
    one bytes.translate; the result is copied into the one output buffer.
    Every entry has a token: AbstractLoop refuses entries outside 0..N-1.
    """
    n, table = loop.size, loop.table
    head = f"loop-table v1 {n}\n".encode()
    digits = np.arange(n).astype(f"S{len(str(n - 1))}")
    spaced, broken = np.char.add(digits, b" "), np.char.add(digits, b"\n")
    buf = np.empty(len(head) + n * n * spaced.itemsize, dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    end = len(head)
    rows = max(1, _CODEC_BLOCK_BYTES // (n * spaced.itemsize))
    for r in range(0, n, rows):
        block = table[r : r + rows]
        tokens = spaced.take(block)
        tokens[:, -1] = broken.take(block[:, -1])
        chunk = tokens.tobytes().translate(None, b"\0")
        buf[end : end + len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
        end += len(chunk)
    return str(buf[:end], "ascii")


def parse_loop_table(text: str, max_elements: int | None = None) -> AbstractLoop:
    """Parse the loop-table v1 format and normalize the identity to index 0.

    The header is the first non-blank line; the N^2 cells it names are
    charged against the budget before any row is read.  ASCII text is
    encoded once and its body decoded by _decode_body into the N x N table.
    Non-ASCII text, and a body _decode_body refuses, go to the line reader,
    which reads the non-blank lines in order and reports the first defect.
    """
    head = _FIRST_LINE.search(text) if text.isascii() else None
    lines = None if head else [line for line in text.splitlines() if line.strip()]
    if not (head or lines):
        raise TableFormatError("empty input")
    n = _read_header(head.group() if head else lines[0], max_elements)
    table = _decode_body(text.encode("ascii"), head.end(), n) if head else None
    if table is None:
        rows = (lines or [line for line in text.splitlines() if line.strip()])[1:]
        if len(rows) != n:
            raise TableFormatError(f"expected {n} rows after the header, got {len(rows)}")
        table = np.vstack([_read_row(i, row, n) for i, row in enumerate(rows)])
        if not text.isascii():
            raise TableFormatError("table has non-ASCII whitespace or line breaks")
    loop = AbstractLoop(table)
    if loop.identity != 0:
        perm = list(range(loop.size))
        perm[0], perm[loop.identity] = perm[loop.identity], perm[0]
        loop = loop.relabel(perm)
    return loop


def _read_header(line: str, max_elements: int | None) -> int:
    """The size N on a header line, charged as N^2 cells."""
    header = line.split()
    if len(header) != 3 or header[0] != "loop-table" or header[1] != "v1":
        raise TableFormatError(f"expected header 'loop-table v1 N', got {line!r}")
    if not (header[2].isascii() and header[2].isdigit()):
        raise TableFormatError(f"invalid size in header: {header[2]!r}")
    n = int(header[2])
    if n < 1:
        raise TableFormatError(f"size must be positive, got {n}")
    ensure_budget(n * n, max_elements, "table parse")
    return n


def _decode_body(data: bytes, start: int, n: int) -> np.ndarray | None:
    """The n x n table in the ASCII lines of data[start:], or None for the
    line reader: a row count other than n, an entry past N - 1 or a defect.
    Blocks end at the first line break past _CODEC_BLOCK_BYTES bytes; only
    the lines of a block _decode_block refuses go to _read_row."""
    # A row holds at least 2n - 1 bytes: no table is allocated for less.
    if len(data) - start < n * (2 * n - 1):
        return None
    out = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    row = 0
    while start < len(data):
        cut = _LINE_BREAK.search(data, start + _CODEC_BLOCK_BYTES)
        block = data[start : cut.end() if cut else len(data)]
        start += len(block)
        values = _decode_block(block, n)
        if values is None:
            lines = [line for line in str(block, "ascii").splitlines() if line.strip()]
            try:
                values = np.concatenate([_read_row(i, line, n) for i, line in enumerate(lines, row)])
            except TableFormatError:
                return None
        rows = values.reshape(-1, n)
        # An entry past N - 1 would wrap in out.
        if row + len(rows) > n or values.max(initial=0) >= n:
            return None
        out[row : row + len(rows)] = rows
        row += len(rows)
    if row != n:
        return None
    out.flags.writeable = False
    return out


def _decode_block(data: bytes, n: int) -> np.ndarray | None:
    """The entries of whole body lines in order, or None if a byte is not a
    digit or whitespace, a non-blank line does not hold n entries, or an
    entry has more than _MAX_DIGITS digits.  An entry is read two digits a
    gather, from pair[i + 1] = 10 d[i - 1] + d[i] at a digit byte i (d the
    digit values, 0 off digits) and 0 at any other byte: at its last digit,
    then every second byte back, clamped to the byte before its first digit."""
    cls = np.frombuffer(data.translate(_CLASS_OF), dtype=np.uint8)
    digit = cls == _DIGIT
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    line_ends = np.searchsorted(starts, np.flatnonzero(cls == _BREAK))
    per_line = np.diff(line_ends, prepend=0, append=starts.size)
    width = int((ends - starts).max(initial=0))
    if not cls.all() or ((per_line != 0) & (per_line != n)).any() or width > _MAX_DIGITS:
        return None
    d = (np.frombuffer(data, dtype=np.uint8) - np.uint8(ord("0"))) * digit
    pair = np.append(np.uint8(0), d)
    pair[2:] += d[:-1] * np.uint8(10) * digit[1:]
    dtype = np.min_scalar_type(10**width - 1)
    values = pair[ends].astype(dtype)
    pos = ends.copy()
    for k in range(1, (width + 1) // 2):
        pos -= 2
        np.maximum(pos, starts, out=pos)
        values += np.multiply(pair[pos], dtype.type(100**k), dtype=dtype)
    return values


def _read_row(i: int, line: str, n: int) -> np.ndarray:
    """Row i's n entries as int64, or the error for its first defect; reads
    entries of any length, past _MAX_DIGITS digits too, and non-ASCII text."""
    parts = line.split()
    if len(parts) != n:
        raise TableFormatError(f"row {i} has {len(parts)} entries, expected {n}")
    # int() would also read signs, digit separators and non-ASCII digits.
    if not line.isascii() or "+" in line or "-" in line or "_" in line:
        raise TableFormatError(f"row {i} contains a non-integer entry")
    try:
        return np.fromiter(map(int, parts), dtype=np.int64, count=n)
    except ValueError:
        raise TableFormatError(f"row {i} contains a non-integer entry") from None
    except OverflowError:
        raise TableFormatError(f"row {i} has an entry outside 0..{n - 1}") from None


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
    p = np.asarray(mapping)
    return left.size == right.size and _is_permutation(p, left.size) and left.relabel(p) == right


def _is_permutation(p: np.ndarray, n: int) -> bool:
    """Integer entries only: floats, strings and bools are never cast."""
    return (
        p.dtype.kind in "iu"
        and p.shape == (n,)
        and np.array_equal(np.sort(p), np.arange(n))
    )


def find_isomorphism(left: AbstractLoop, right: AbstractLoop) -> list[int] | None:
    """Search for an isomorphism left -> right; returns the index map or None.

    Elements are classed by (left-power order, commutant size, count of
    associating pairs); the count runs once per pair of cosets of the center, times |Z|^2.
    The search walks left's word program one ladder generator g at a time,
    depth first.  At each node, every right element in g's class is tried
    as g's image at once: the level's words give the images of everything g
    adds, and a candidate row survives only if those images are in matching
    classes and products over new x S and S x new are preserved (pairs
    inside the old S passed at earlier levels).  A wrong image breaks
    products all over new x S, so _PROBE_CELLS cells spread over the block
    are checked before the rest.  Every level then runs the full check on
    the rows left in chunks of 1, 2, 4, ... rows and descends with each
    chunk's survivors together, before the next chunk is checked: rows keep
    depth-first order, so the witness is the first isomorphism along the
    ladder, and the search stops checking at the first one.  A failing row
    is never returned, so None stays exact.  Injectivity follows: a surviving
    row is a homomorphism on S, and if phi(a) = phi(b) then the x in S with
    a * x = b has phi(x) = e, so x has order 1 like e and is the identity.

    A central involution halves the candidates at most levels.  Let z be
    the least central element of right with z * z = e that is a square,
    and at level k let lam be a homomorphism from left onto Z2 with lam = 0
    on the closure S before the level and lam(g) = 1.  For an isomorphism
    psi put psi'(x) = psi(x) * z^lam(x): a homomorphism, since z is central
    and z * z = e.  It has no kernel: psi'(x) = e means psi(x) = z^lam(x),
    so x = e where lam(x) = 0, and where lam(x) = 1, x = psi^-1(z), which
    is a square because z is one, and lam is 0 on squares.  So psi -> psi'
    is a bijection, its own inverse, from the isomorphisms with g -> c onto
    those with g -> c * z that agree with psi on S.  Below any node, c
    leads to a full map iff c * z does, and the first full map in
    depth-first order maps g to the smaller of the two; such a level tries
    only the c with c < c * z, the witness stays the same, and None stays
    exact.  lam exists iff e_k is outside the span over F2 of the level
    vectors before it and the defects of a parity labelling of left (see
    AbstractLoop._parity_levels).

    Each test is necessary for an isomorphism, so the search is exhaustive:
    None means none exists.  Any witness found is re-verified over the full
    table.  Tables over MAX_ISO_SIZE elements are refused with BudgetExceeded.
    """
    if left.size != right.size:
        return None
    if left.size > MAX_ISO_SIZE:
        raise BudgetExceeded(
            f"isomorphism search supports tables up to {MAX_ISO_SIZE} elements, "
            f"got {left.size}",
            required=left.size,
            budget=MAX_ISO_SIZE,
        )
    sig_left = left._signatures
    sig_right = right._signatures
    if sorted(sig_left) != sorted(sig_right):
        return None

    classes = {sig: k for k, sig in enumerate(sorted(set(sig_left)))}
    cls_left = np.array([classes[sig] for sig in sig_left])
    cls_right = np.array([classes[sig] for sig in sig_right])
    t2 = right.table.ravel()  # gathered flat at x * n + y
    program = left._word_program
    z = right._square_involution
    pools = []  # right elements tried as each level's generator image
    for k, step in enumerate(program):
        pool = np.flatnonzero(cls_right == cls_left[step.g])
        if z is not None and left._parity_levels[k]:
            pool = pool[pool < right.table[pool, z]]
        pools.append(pool)

    def search(level: int, rows: np.ndarray) -> np.ndarray | None:
        """The first full map below the partial maps rows, depth first."""
        if level == len(program):
            return rows[0]
        step, cands = program[level], pools[level]
        # (row, candidate) pairs per block, candidates varying fastest, so
        # that the (pairs, |new|, |S|) temporaries stay within _BLOCK_CELLS.
        block = max(1, _BLOCK_CELLS // (step.new.size * step.S.size))
        pairs = np.arange(len(rows) * cands.size)
        for lo in range(0, pairs.size, block):
            pick = pairs[lo : lo + block]
            C = rows[pick // cands.size]
            C[:, step.g] = cands[pick % cands.size]
            for part in _survivors(step, C, t2, cls_left, cls_right):
                found = search(level + 1, part)
                if found is not None:
                    return found
        return None

    row = np.full(left.size, -1, dtype=np.int64)  # int64: C * n + C would wrap in the table dtype
    row[left.identity] = right.identity
    found = search(0, row[None])
    if found is None:
        return None
    mapping = found.tolist()
    if not verify_isomorphism(left, right, mapping):
        raise RuntimeError("internal error: isomorphism witness failed verification")
    return mapping


def _survivors(step: _Step, C: np.ndarray, t2: np.ndarray, cls_left, cls_right):
    """The rows of C, maps with step.g's image set, that pass step's tests,
    in order; t2 is the right table, flat, and cls_* the signature classes.
    The class and probe tests run over the whole block, then the full check
    over new x S and S x new runs on the rows left in chunks of 1, 2, 4, ...
    rows, and each chunk's survivors, if any, are yielded in turn."""
    n = cls_right.size
    for xs, us, vs in step.waves:
        C[:, xs] = t2[C[:, us] * n + C[:, vs]]
    C = C[(cls_right[C[:, step.new]] == cls_left[step.new]).all(axis=1)]
    a, b, ab, ba = step.probe
    ok = (C[:, ab] == t2[C[:, a] * n + C[:, b]]).all(axis=1)
    C = C[ok & (C[:, ba] == t2[C[:, b] * n + C[:, a]]).all(axis=1)]
    lo = 0
    while lo < len(C):
        part = C[lo : 2 * lo + 1]
        img, img_S = part[:, step.new], part[:, step.S]
        left_mul = part[:, step.new_by_S] == t2[img[:, :, None] * n + img_S[:, None, :]]
        right_mul = part[:, step.S_by_new] == t2[img_S[:, :, None] * n + img[:, None, :]]
        kept = part[left_mul.all(axis=(1, 2)) & right_mul.all(axis=(1, 2))]
        if len(kept):
            yield kept
        lo = 2 * lo + 1
