"""Hypothesis fuzz of the loop-table v1 parser and of `cdl import`.

Whatever the input, `parse_loop_table` either returns a loop or raises
TableFormatError / BudgetExceeded, and `cdl import` exits 2 with a single
`error:` line on stderr.  The runs are derandomized so that the suite stays
deterministic.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdloops import (
    AbstractLoop,
    CDLoop,
    make_scalar_group,
    parse_loop_table,
    serialize_loop_table,
    to_table,
)
from cdloops.cli import main
from cdloops.errors import BudgetExceeded, TableFormatError

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)
MAX_ELEMENTS = 64

# Arbitrary text is drawn as latin-1 decoded bytes plus a few characters that
# str.split, str.splitlines or int treat specially; st.text over all of
# Unicode would first build Hypothesis' character tables, which costs seconds.
SPECIAL = st.sampled_from("0123456789 -+_.\t\n\r\x0b\x1c\x85\u2028\u3000\u0661\u00b2")
TEXT = st.one_of(
    st.binary(max_size=200).map(lambda b: b.decode("latin-1")),
    st.text(alphabet=SPECIAL, max_size=200),
)
TOKENS = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from([str(2**80), str(-(2**80)), str(2**63), "x", "1.5", "0x1", "--1", "1_0"]),
    st.text(alphabet=SPECIAL, min_size=1, max_size=3),
)


@st.composite
def near_valid_tables(draw) -> str:
    """A relabeled cyclic group table of order n <= 6, then a few defects."""
    n = draw(st.integers(1, 6))
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
    lines = [f"loop-table v1 {size}"] + [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


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


Q8_TEXT = serialize_loop_table(to_table(CDLoop.all_minus_one(make_scalar_group(2), 2)))


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
