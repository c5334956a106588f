"""Hypothesis fuzz of the loop-table v1 parser and of `cdl import`.

Whatever the input, `parse_loop_table` either returns a loop or raises
TableFormatError / BudgetExceeded, and `cdl import` exits 2 with a single
`error:` line on stderr.  On every input it also agrees with
`reference_parse`, the line-by-line parser its block decoder replaced: the
same table, or the same exception type and message.  The runs are
derandomized so that the suite stays deterministic.
"""

import contextlib
import io
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdloops import abstract_loop
from cdloops import (
    AbstractLoop,
    CDLoop,
    make_product,
    make_scalar_group,
    parse_loop_table,
    random_relabel,
    serialize_loop_table,
    to_table,
)
from cdloops.budget import ensure_budget
from cdloops.cli import main
from cdloops.errors import BudgetExceeded, TableFormatError

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)
MAX_ELEMENTS = 64
Q8_LOOP = to_table(CDLoop.all_minus_one(make_scalar_group(2), 2))
Q8_TEXT = serialize_loop_table(Q8_LOOP)

# Arbitrary text is drawn as latin-1 decoded bytes plus a few characters that
# str.split, str.splitlines or int treat specially; st.text over all of
# Unicode would first build Hypothesis' character tables, which costs seconds.
SPECIAL = st.sampled_from(
    "0123456789 -+_.\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u3000\u0661\u00b2"
)
TEXT = st.one_of(
    st.binary(max_size=200).map(lambda b: b.decode("latin-1")),
    st.text(alphabet=SPECIAL, max_size=200),
)
TOKENS = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from([str(2**80), str(-(2**80)), str(2**63), "x", "1.5", "0x1", "--1", "1_0"]),
    # 19 and 20 digits: in int64 but out of range, over int64, leading zeros
    st.sampled_from(["5000000000000000000", "9999999999999999999", "0000000000000000001"]),
    st.sampled_from(["-0", "-00", "0-", "-", "00", "007"]),
    st.text(alphabet=SPECIAL, min_size=1, max_size=3),
)
# What str.split and str.splitlines take between entries and between rows.
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f", "\x0b", "\x0c"])
LINE_BREAKS = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\n\n", "\n \t\n", "\r\n\r\n"]
)


def reference_parse(text: str, max_elements: int | None = None) -> AbstractLoop:
    """Test-only reference: the line-by-line loop-table v1 parser."""
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
    loop = AbstractLoop(np.vstack(rows))
    if loop.identity != 0:
        perm = list(range(loop.size))
        perm[0], perm[loop.identity] = perm[loop.identity], perm[0]
        loop = loop.relabel(perm)
    return loop


def outcome(parse, text: str):
    """The parsed table as nested lists, or the exception's type and message."""
    try:
        return parse(text).table.tolist()
    except (TableFormatError, BudgetExceeded) as exc:
        return type(exc), str(exc)


def assert_agrees_with_reference(text: str) -> None:
    assert outcome(parse_loop_table, text) == outcome(reference_parse, text), repr(text)


@st.composite
def near_valid_tables(draw, max_order: int = 6) -> str:
    """A relabeled cyclic group table of order n <= max_order, then a few
    defects, written with drawn entry separators and line breaks."""
    n = draw(st.integers(1, max_order))
    perm = draw(st.permutations(range(n)))
    rows = [[str(perm[(a + b) % n]) for b in range(n)] for a in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, n - 1))]
        edit = draw(st.sampled_from(["replace", "drop", "extra"]))
        if edit == "replace" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(TOKENS)
        elif edit == "drop" and row:
            row.pop()
        elif edit == "extra":
            row.append(draw(TOKENS))
    if draw(st.integers(0, 3)) == 3:
        rows = rows[:-1] if draw(st.booleans()) else rows + [rows[0]]
    size = draw(TOKENS) if draw(st.integers(0, 7)) == 7 else str(n)
    sep, eol = draw(SEPARATORS), draw(LINE_BREAKS)
    lines = [f"loop-table v1 {size}"] + [sep.join(row) for row in rows]
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def parses_or_rejects(text: str) -> None:
    try:
        loop = parse_loop_table(text, max_elements=MAX_ELEMENTS)
    except (TableFormatError, BudgetExceeded):
        return
    assert isinstance(loop, AbstractLoop) and loop.identity == 0
    assert text.isascii() and "+" not in text and "_" not in text, text


@FUZZ
@given(TEXT, st.sampled_from(["", "loop-table v1 2\n", "loop-table v1 3\n"]))
def test_arbitrary_text_parses_or_is_rejected(text, header):
    parses_or_rejects(header + text)


@FUZZ
@given(near_valid_tables())
def test_near_valid_tables_parse_or_are_rejected(text):
    parses_or_rejects(text)


@FUZZ
@given(TEXT, st.sampled_from(["", "loop-table v1 2\n", "loop-table v1 3\n"]))
def test_arbitrary_text_parses_as_the_reference_does(text, header):
    assert_agrees_with_reference(header + text)


@FUZZ
@given(near_valid_tables(max_order=12))
def test_near_valid_tables_parse_as_the_reference_does(text):
    assert_agrees_with_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "loop-table v1 1\n-0\n",
        "loop-table v1 2\n-00 1\n1 0\n",
        "loop-table v1 2\n0 1\n1 -1\n",
        "loop-table v1 2\n0 1\n1 0-\n",
        "loop-table v1 2\n0 -\n1 0\n",
        "loop-table v1 2\n0 1\n1 0000000000000000000000000000000\n",
        "loop-table v1 2\n0 1\n1 0000000000000000000000000000001\n",
        "loop-table v1 2\n0 1\n1 5000000000000000000\n",
        "loop-table v1 2\n0 5000000000000000000\n1 9999999999999999999\n",
        "loop-table v1 2\n0 -9223372036854775808\n1 0\n",
        "loop-table v1 2\n0 -9223372036854775809\n1 0\n",
        "loop-table v1 2\n0 999999999999999999\n1 0\n",
        "loop-table v1 2\n0\t1\r\n\r\n1\x1f0\x1c",
        "\n \t\nloop-table v1 2\x0b0 1\x0c1 0",
        "  loop-table\tv1 02 \r0 1\r1 0\r",
        "loop-table v1 2",
        "loop-table v1 2\n0 1\n",
        "loop-table v1 2\n0 1\n1 0\n0 1\n",
        "loop-table v1 2\n0 1\n1\n",
        "loop-table v1 2\n0 1\n1 0 \x00\n",
        "loop-table v1 2\n0 1\n1 0\n\x85",
        "loop-table v1 2\n0 1\x851 0\n",
        "loop-table v1 3\n0 1 2\n1 2 0\n2 0 1\n",
        "loop-table v1 3\n0 1 2\n1 1 0\n2 0 1\n",
        "loop-table v1 0\n",
        "loop-table v1\n0\n",
        " \t\n\x1f",
    ],
)
def test_edge_cases_parse_as_the_reference_does(text):
    assert_agrees_with_reference(text)


@pytest.mark.parametrize("block_bytes", [1, 2, 5, 7, 64])
def test_tiny_decoding_blocks_give_the_same_result(monkeypatch, block_bytes):
    rng = random.Random(block_bytes)
    texts = []
    for eol in ("\n", "\r\n", "\r", "\x1e\n"):
        shuffled, _ = random_relabel(Q8_LOOP, rng)
        texts.append(serialize_loop_table(shuffled).replace("\n", eol))
    texts.append(texts[0].replace("\n4", "\n\n 4"))
    texts.append(texts[0].replace(" 3", " 9", 1))
    texts.append(texts[0][:-5] + "\n" + texts[0][-5:])
    want = [outcome(reference_parse, text) for text in texts]
    monkeypatch.setattr(abstract_loop, "_CODEC_BLOCK_BYTES", block_bytes)
    assert [outcome(parse_loop_table, text) for text in texts] == want



@pytest.mark.parametrize("blank", ["\n", " \t\n", "\r\n\r\n", "\x1f\x0b \x0c", "\x1c\x1d\x1e", "\n\r  \n\t"])
def test_blank_lines_before_the_header_parse_as_the_reference_does(blank):
    assert_agrees_with_reference(blank + Q8_TEXT)
    assert parse_loop_table(blank + Q8_TEXT) == Q8_LOOP
    assert_agrees_with_reference(blank + "loop-table v1 x\n")


@pytest.mark.parametrize(
    "text",
    ["loop-table v1 1", "loop-table v1 8", " loop-table v1 1 \t", "\nloop-table v1 1\r\n", "loop-table v1 2\n \n\t"],
)
def test_a_header_followed_by_end_of_text_parses_as_the_reference_does(text):
    assert_agrees_with_reference(text)


Q16_LOOP = to_table(CDLoop.all_minus_one(make_scalar_group(2), 3))


@pytest.mark.parametrize("block_bytes", [1, 7, 64])
@pytest.mark.parametrize("eol", list(abstract_loop._BREAKS) + ["\r\n"])
def test_each_line_break_cuts_blocks_as_the_reference_reads_it(monkeypatch, block_bytes, eol):
    # Only eol breaks lines, so every block but the last ends at one of them.
    shuffled, _ = random_relabel(Q16_LOOP, random.Random(block_bytes))
    text = serialize_loop_table(shuffled).replace("\n", eol)
    want = outcome(reference_parse, text)
    monkeypatch.setattr(abstract_loop, "_CODEC_BLOCK_BYTES", block_bytes)
    assert outcome(parse_loop_table, text) == want
    assert outcome(parse_loop_table, text.replace(" 3 ", " x ", 1)) == outcome(
        reference_parse, text.replace(" 3 ", " x ", 1)
    )


def padded_row(text: str, row: int, token: str | None = None) -> str:
    """text with the first entry of body row `row` zero-padded to 20 digits,
    or replaced by token."""
    head, *rows = text.split("\n")
    first, rest = rows[row].split(" ", 1)
    rows[row] = (token or f"{int(first):020d}") + " " + rest
    return "\n".join([head, *rows])


def read_rows(monkeypatch) -> list[int]:
    """The rows the row reader is asked for, in order, from now on."""
    calls = []
    read_row = abstract_loop._read_row

    def counting(i, line, n):
        calls.append(i)
        return read_row(i, line, n)

    monkeypatch.setattr(abstract_loop, "_read_row", counting)
    return calls


@pytest.mark.parametrize("block_bytes", [1, 7, 64, None])
@pytest.mark.parametrize("row", [0, 7, 15])
def test_a_refused_block_between_accepted_ones_reads_only_its_own_rows(monkeypatch, block_bytes, row):
    shuffled, _ = random_relabel(Q16_LOOP, random.Random(row))
    text = serialize_loop_table(shuffled)
    if block_bytes is not None:
        monkeypatch.setattr(abstract_loop, "_CODEC_BLOCK_BYTES", block_bytes)
    cases = {
        "padded": padded_row(text, row),
        "padded, then a sign": padded_row(padded_row(text, row), (row + 9) % 16, "-1"),
        "a sign, then padded": padded_row(padded_row(text, row), (row + 3) % 16, "x"),
        "padded, one row short": padded_row(text, row).replace(text.split("\n")[1 + (row + 1) % 16] + "\n", ""),
        "padded, one row over": padded_row(text, row) + text.split("\n")[1],
        "padded past N - 1": padded_row(text, row, "0" * 18 + "16"),
        "padded, then past N - 1": padded_row(padded_row(text, row), (row + 5) % 16, "16"),
    }
    want = {name: outcome(reference_parse, case) for name, case in cases.items()}
    calls = read_rows(monkeypatch)
    assert outcome(parse_loop_table, cases["padded"]) == want["padded"]
    assert want["padded"] == parse_loop_table(text).table.tolist()
    # The row reader gets the refused block's rows, in order: at one byte a
    # block is one line, and a 16-element body is one default block.
    assert row in calls and calls == list(range(calls[0], calls[0] + len(calls)))
    assert calls == {1: [row], None: list(range(16))}.get(block_bytes, calls)
    for name, case in cases.items():
        assert outcome(parse_loop_table, case) == want[name], name


@pytest.mark.parametrize("row", [0, 511, 1023])
def test_a_refused_block_in_a_1024_element_table_reads_only_its_own_rows(monkeypatch, row):
    loop = to_table(make_product(make_scalar_group(4), [CDLoop.all_minus_one(make_scalar_group(4), 4)] * 2))
    text = padded_row(serialize_loop_table(loop), row)
    calls = read_rows(monkeypatch)
    assert parse_loop_table(text) == loop
    # A default block holds about 30 rows of this table; the row reader
    # gets those of the refused one, in order.
    assert row in calls and len(calls) < 64
    assert calls == list(range(calls[0], calls[0] + len(calls)))


@pytest.mark.parametrize("width", range(1, 19))
def test_digit_pairs_decode_every_width_as_the_reference_does(width):
    # Entry (i, j) of a relabelled 16-element table, zero-padded to width
    # digits in odd columns and to 1 + (i + j) % width in even ones.
    shuffled, _ = random_relabel(Q16_LOOP, random.Random(width))
    rows = [
        " ".join(f"{v:0{width if j % 2 else 1 + (i + j) % width}d}" for j, v in enumerate(row))
        for i, row in enumerate(shuffled.table.tolist())
    ]
    text = "loop-table v1 16\n" + "\n".join(rows) + "\n"
    assert_agrees_with_reference(text)
    assert parse_loop_table(text) == parse_loop_table(serialize_loop_table(shuffled))
    entries = ["9" * width, "1" + "0" * (width - 1), "123456789012345678"[:width], "987654321098765432"[-width:]]
    values = abstract_loop._decode_block((" ".join(entries) + "\n").encode(), len(entries))
    assert values.dtype == np.min_scalar_type(10**width - 1)
    assert values.tolist() == [int(e) for e in entries]


def run_import(data: bytes) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["import", "--table", path, "--max-elements", str(MAX_ELEMENTS)])
    return code, err.getvalue()


def assert_one_error_line(code: int, err: str) -> None:
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "data",
    [
        bytes(range(256)),
        Q8_TEXT[: len(Q8_TEXT) // 2].encode(),
        b"loop-table v1 2\n0 1\n1 1\n",
        b"loop-table v1 3\n0 1 2\n2 0 1\n1 2 0\n",
        f"loop-table v1 2\n0 1\n1 {2**70}\n".encode(),
        f"loop-table v1 2\n0 1\n1 {-(2**70)}\n".encode(),
    ],
    ids=["random-bytes", "truncated", "non-latin", "no-identity", "over-int64", "under-int64"],
)
def test_import_rejects_bad_files_with_one_error_line(data):
    assert_one_error_line(*run_import(data))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.binary(max_size=120))
def test_import_of_random_bytes_exits_two(data):
    assert_one_error_line(*run_import(data))
