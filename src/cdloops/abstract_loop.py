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
import re
from functools import cached_property
from typing import NamedTuple, NoReturn

import numpy as np

from .budget import _BLOCK_CELLS, ensure_budget
from .cdloop import CDLoop, as_product
from .central_product import CentralProduct, coset_twist_matrix
from .errors import BudgetExceeded, TableFormatError

MAX_ISO_SIZE = 256

# Rows of a level's new elements checked before the rest (see find_isomorphism).
_PROBE_ROWS = 4


class AbstractLoop:
    """A finite loop given by its multiplication table.

    table[i][j] is the index of the product of elements i and j.  The table
    must be a Latin square with a two-sided identity; the identity may sit
    at any index (parse_loop_table normalizes it to 0).  self.table is a
    read-only int64 array: one passed in as such is kept, anything else is
    copied once, so the cached invariants always describe the table.
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
        if arr.dtype != np.int64 or arr.flags.writeable:
            arr = arr.astype(np.int64)
            arr.flags.writeable = False
        self.table = arr
        self.size = int(arr.shape[0])
        if validate:
            self._validate_latin()
        self.identity = self._find_identity()

    # -- validation ------------------------------------------------------------

    def _validate_latin(self) -> None:
        arr, n = self.table, self.size
        if arr.min() < 0 or arr.max() >= n:
            bad = np.argwhere((arr < 0) | (arr >= n))[0]
            raise TableFormatError(
                f"entry at row {bad[0]}, column {bad[1]} is outside 0..{n - 1}"
            )
        # Mark which values each row and each column hits.
        index = np.arange(n)
        seen = np.zeros((n, n), dtype=bool)
        seen[index[:, None], arr] = True
        row_ok = seen.all(axis=1)
        if not row_ok.all():
            i = int(np.flatnonzero(~row_ok)[0])
            raise TableFormatError(f"row {i} is not a permutation of 0..{n - 1}")
        seen[:] = False
        seen[arr, index] = True
        col_ok = seen.all(axis=0)
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
        """indices as an int64 array, refused if any is outside 0..N-1
        (numpy would wrap a negative one around or raise a bare error)."""
        idx = np.fromiter(indices, dtype=np.int64)
        bad = (idx < 0) | (idx >= self.size)
        if bad.any():
            raise ValueError(f"index {idx[bad][0]} is outside 0..{self.size - 1}")
        return idx

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
        arr = self.table
        central = np.zeros(self.size, dtype=bool)
        central[self.identity] = True
        refused = np.zeros(self.size, dtype=bool)
        for x in np.flatnonzero(self._commutant_counts == self.size):
            if central[x] or refused[x]:
                continue
            if self._nuclear(x):
                central[x] = True
                self._close(central)
            else:
                refused[arr[x, central]] = True
        return np.flatnonzero(central).tolist()

    def _nuclear(self, x: int) -> bool:
        """The left and middle nucleus laws for x, over all pairs a, b."""
        arr = self.table
        fx = arr[x]
        xa_b = arr[fx]
        if not np.array_equal(xa_b, fx[arr]):
            return False
        return np.array_equal(xa_b, np.take(arr, fx, axis=1))

    def closure(self, seed) -> set[int]:
        """Smallest subset containing the identity and seed, closed under mul."""
        inside = np.zeros(self.size, dtype=bool)
        inside[self._checked(seed)] = True
        inside[self.identity] = True
        self._close(inside)
        return set(np.flatnonzero(inside).tolist())

    def _close(self, inside: np.ndarray) -> list:
        """Grow the boolean mask inside, in place, until it is closed under mul.
        Returns the waves taken, each (xs, us, vs) with xs[i] = us[i] * vs[i]:
        xs are the distinct products outside the set, us and vs inside it."""
        waves = []
        while True:
            S = np.flatnonzero(inside)
            products = self.table[np.ix_(S, S)].ravel()
            fresh = np.flatnonzero(~inside[products])
            if fresh.size == 0:
                return waves
            xs, first = np.unique(products[fresh], return_index=True)
            cell = fresh[first]
            waves.append((xs, S[cell // S.size], S[cell % S.size]))
            inside[xs] = True

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
        arr = self.table
        return (arr == arr.T).sum(axis=1)

    def subloop(self, indices) -> "AbstractLoop":
        """Induced loop on a closed subset, elements renumbered in sorted order."""
        idx = np.unique(self._checked(indices)).tolist()
        lut = np.full(self.size, -1, dtype=np.int64)
        lut[idx] = np.arange(len(idx))
        sub = lut[self.table[np.ix_(idx, idx)]]
        if (sub < 0).any():
            a, b = (idx[k] for k in np.argwhere(sub < 0)[0])
            raise ValueError(f"subset is not closed: {a} * {b} = {self.mul(a, b)}")
        sub.flags.writeable = False
        return AbstractLoop(sub, validate=False)

    def relabel(self, perm) -> "AbstractLoop":
        """Transport the table along i -> perm[i]."""
        p = np.asarray(perm)
        if not _is_permutation(p, self.size):
            raise ValueError(f"relabeling must be a permutation of 0..{self.size - 1}")
        new = np.empty_like(self.table)
        new[p[:, None], p[None, :]] = p[self.table]
        new.flags.writeable = False
        return AbstractLoop(new, validate=False)

    # -- signatures for isomorphism search ------------------------------------------

    @cached_property
    def _signatures(self) -> list[tuple[int, int, int]]:
        arr = self.table
        assoc = [
            int((arr[arr[x]] == arr[x, arr]).sum()) for x in range(self.size)
        ]
        return list(zip(self.element_orders(), self.commutant_sizes(), assoc))

    @cached_property
    def _word_program(self) -> list[_Step]:
        """A greedy generator ladder as words: how each element is reached.

        Each step adds the generator g whose closure with the set so far is
        largest (ties go to the smallest index), with the waves _close took
        to reach the elements it adds.  A candidate inside an earlier
        candidate's closure at the same step is skipped: its own closure is
        contained in that one, so it can never strictly win.
        """
        arr = self.table
        inside = np.zeros(self.size, dtype=bool)
        inside[self.identity] = True
        program: list[_Step] = []
        while not inside.all():
            best = None
            covered = inside.copy()
            for g in range(self.size):
                if covered[g]:
                    continue
                grown = inside.copy()
                grown[g] = True
                waves = self._close(grown)
                covered |= grown
                if best is None or grown.sum() > best[1].sum():
                    best = g, grown, waves
                    if grown.all():
                        break
            g, inside, waves = best
            S = np.flatnonzero(inside)
            new = np.concatenate([[g]] + [xs for xs, _, _ in waves])
            program.append(
                _Step(g, waves, new, S, arr[np.ix_(new, S)], arr[np.ix_(S, new)])
            )
        return program


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
    c = np.arange(cosets)
    s = np.arange(k)
    # blocks[c1, d, c2] is cell (c1, c2) of block d
    blocks = (twists[:, None, :] + s[None, :, None]) % k * cosets
    blocks += (c[:, None] ^ c[None, :])[:, None, :]
    table = np.empty((k, cosets, k, cosets), dtype=np.int64)
    for s1 in range(k):
        # column band s2 of row band s1 is block (s1 + s2) % k
        np.take(blocks, s1 + s, axis=1, out=table[s1], mode="wrap")
    table = table.reshape(size, size)
    table.flags.writeable = False
    return AbstractLoop(table, validate=False)


# -- loop-table v1 interchange format -----------------------------------------------

# Bytes of text decoded per pass of parse_loop_table (blocks are cut after a
# line break), and the rough output size of one serialize_loop_table pass.
_CODEC_BLOCK_BYTES = 1 << 20
# Significant digits an entry may carry for exact int64 accumulation; any
# longer entry is out of range for every table that fits in memory.
_MAX_DIGITS = 18

# ASCII byte classes as str.split and str.splitlines see them.
_OTHER, _SPACE, _BREAK, _DIGIT = range(4)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[[ord(c) for c in "\t\x1f "]] = _SPACE
_BYTE_CLASS[[ord(c) for c in "\n\r\x0b\x0c\x1c\x1d\x1e"]] = _BREAK
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c-\x1e]")
_NON_BLANK = re.compile("[^\t\n\x0b\x0c\r\x1c-\x1f ]")


def serialize_loop_table(loop: AbstractLoop) -> str:
    """Render as 'loop-table v1 N' plus N rows of N space-separated indices.

    The text is assembled in one byte buffer, a block of rows at a time:
    each entry's separator offset is a cumsum of decimal widths plus one,
    and its digits are written right-aligned, one pass per decimal place,
    gathered from per-value digit tables.  Entries outside 0..N-1 (only a
    table built with validate=False holds them) raise TableFormatError.
    """
    n, table = loop.size, loop.table
    if table.min() < 0 or table.max() >= n:
        raise TableFormatError(f"cannot write a table with entries outside 0..{n - 1}")
    head = f"loop-table v1 {n}\n"
    places = len(str(n - 1))
    values = np.arange(n)
    digits = (values // 10 ** np.arange(places)[:, None] % 10 + ord("0")).astype(np.uint8)
    # an entry's width plus its separator
    step = 2 + (values >= 10 ** np.arange(1, places)[:, None]).sum(axis=0)
    buf = np.empty(len(head) + n * n * (places + 1), dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head.encode(), dtype=np.uint8)
    end = len(head)
    rows = max(1, _CODEC_BLOCK_BYTES // (n * (places + 1)))
    for r in range(0, n, rows):
        block = table[r : r + rows].ravel()
        sep = np.cumsum(step[block])
        sep += end - 1
        # Highest place first: an entry with fewer digits writes a stray
        # digit to its left, over a byte whose own digit is written in a
        # later pass or which is a separator, written last.
        for p in range(places - 1, -1, -1):
            buf[np.maximum(sep - 1 - p, end)] = digits[p, block]
        buf[sep] = ord(" ")
        buf[sep[n - 1 :: n]] = ord("\n")
        end = int(sep[-1]) + 1
    return str(buf[:end], "ascii")


def parse_loop_table(text: str, max_elements: int | None = None) -> AbstractLoop:
    """Parse the loop-table v1 format and normalize the identity to index 0.

    The N^2 cells named by the header are charged against the enumeration
    budget before any row is parsed.  The body is decoded from ASCII bytes
    in blocks of about 1 MiB, straight into the N x N table; text the
    decoder refuses is re-read line by line to report its first defect.
    """
    loop = _decode_loop_table(text, max_elements) if text.isascii() else None
    if loop is None:
        _raise_first_defect(text, max_elements)
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


def _decode_loop_table(text: str, max_elements: int | None) -> AbstractLoop | None:
    """The table in ASCII text, or None where the text has any defect
    below its header (a header defect raises here)."""
    first = _NON_BLANK.search(text)
    if first is None:
        return None
    brk = _LINE_BREAK.search(text, first.start())
    head_end = brk.start() if brk else len(text)
    n = _read_header(text[:head_end].splitlines()[-1], max_elements)
    start = brk.end() if brk else len(text)
    # n rows of n one-digit entries need 2n^2 - 1 bytes; refusing shorter
    # bodies here keeps the table below 4 bytes per byte of text.
    if len(text) - start < 2 * n * n - 1:
        return None
    out = np.empty(n * n, dtype=np.int64)
    filled = 0
    while start < len(text):
        stop = _LINE_BREAK.search(text, start + _CODEC_BLOCK_BYTES)
        stop = stop.end() if stop else len(text)
        values = _decode_block(text[start:stop].encode("ascii"), n)
        if values is None or filled + values.size > out.size:
            return None
        out[filled : filled + values.size] = values
        filled += values.size
        start = stop
    out.flags.writeable = False
    return AbstractLoop(out.reshape(n, n)) if filled == out.size else None


def _decode_block(data: bytes, n: int) -> np.ndarray | None:
    """The entries of whole body lines in order, or None if a byte is not a
    digit or whitespace, a non-blank line does not hold n entries, or an
    entry has more than _MAX_DIGITS significant digits."""
    u = np.frombuffer(data, dtype=np.uint8)
    cls = _BYTE_CLASS.take(u)
    if not cls.all():
        return None
    bounds = np.flatnonzero(np.diff(cls >= _DIGIT, prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    line_ends = np.searchsorted(starts, np.flatnonzero(cls == _BREAK))
    per_line = np.diff(line_ends, prepend=0, append=starts.size)
    if ((per_line != 0) & (per_line != n)).any():
        return None
    if starts.size == 0:
        return starts
    first = starts
    width = int((ends - first).max())
    if width > _MAX_DIGITS:
        # Only leading zeros may precede an entry's last _MAX_DIGITS digits.
        long = np.flatnonzero(ends - first > _MAX_DIGITS)
        lead = np.column_stack([first[long], ends[long] - _MAX_DIGITS]).ravel()
        if (np.maximum.reduceat(u, lead)[::2] > ord("0")).any():
            return None
        first = np.maximum(first, ends - _MAX_DIGITS)
        width = _MAX_DIGITS
    values = np.zeros(starts.size, dtype=np.int64)
    pos = ends - 1
    for p in range(width):
        digit = u[pos].astype(np.int64)
        digit -= ord("0")
        digit[pos < first] = 0
        digit *= 10**p
        values += digit
        pos -= 1
    return values


def _raise_first_defect(text: str, max_elements: int | None) -> NoReturn:
    """Read text line by line and raise the error for its first defect.

    Called only on text the block decoder refused, every one of which has a
    defect: the header, the row count, a row's entries, non-ASCII text, or
    an entry of 19 or more significant digits, which is outside 0..N-1.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TableFormatError("empty input")
    n = _read_header(lines[0], max_elements)
    if len(lines) - 1 != n:
        raise TableFormatError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise TableFormatError(f"row {i} has {len(parts)} entries, expected {n}")
        # int() would also read signs, digit separators and non-ASCII digits.
        if not line.isascii() or "+" in line or "-" in line or "_" in line:
            raise TableFormatError(f"row {i} contains a non-integer entry")
        try:
            rows.append(np.fromiter(map(int, parts), dtype=np.int64, count=n))
        except ValueError:
            raise TableFormatError(f"row {i} contains a non-integer entry") from None
        except OverflowError:
            raise TableFormatError(f"row {i} has an entry outside 0..{n - 1}") from None
    if not text.isascii():
        raise TableFormatError("table has non-ASCII whitespace or line breaks")
    AbstractLoop(np.vstack(rows))  # range check of the long entries
    raise RuntimeError("internal error: the block decoder refused a well-formed table")


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
    p = np.asarray(mapping)
    if not _is_permutation(p, left.size):
        return False
    return bool(np.array_equal(p[left.table], right.table[p[:, None], p[None, :]]))


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
    re-verified over the full table.  Tables over MAX_ISO_SIZE elements are
    refused with BudgetExceeded.
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

    n = left.size
    classes = {sig: k for k, sig in enumerate(sorted(set(sig_left)))}
    cls_left = np.array([classes[sig] for sig in sig_left])
    cls_right = np.array([classes[sig] for sig in sig_right])
    t2 = right.table
    program = left._word_program

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
