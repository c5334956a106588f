"""The loop-table v1 writer against its reference, the block decoder against
the row reader, and the codec's memory.

`reference_serialize` is the `" ".join` writer that `serialize_loop_table`
replaced; the output must stay byte-identical to it.  The parser's
agreement with its own reference is fuzzed in test_parse_fuzz.py.
"""

import random
import tracemalloc

import numpy as np
import pytest

from cdloops import (
    AbstractLoop,
    CDLoop,
    TableFormatError,
    make_product,
    make_scalar_group,
    parse_loop_table,
    random_relabel,
    serialize_loop_table,
    to_table,
)
from cdloops import abstract_loop

Z2 = make_scalar_group(2)
Z4 = make_scalar_group(4)


def reference_serialize(loop: AbstractLoop) -> str:
    """Test-only reference: the row-by-row loop-table v1 writer."""
    lines = [f"loop-table v1 {loop.size}"]
    lines.extend(" ".join(map(str, row)) for row in loop.table.tolist())
    return "\n".join(lines) + "\n"


def cyclic(n: int) -> AbstractLoop:
    index = np.arange(n)
    return AbstractLoop((index[:, None] + index[None, :]) % n)


def product_1024() -> AbstractLoop:
    return to_table(make_product(Z4, [CDLoop.all_minus_one(Z4, 4)] * 2))


LOOPS = {
    1: lambda: cyclic(1),
    2: lambda: to_table(CDLoop(Z2, ())),
    8: lambda: to_table(CDLoop.all_minus_one(Z2, 2)),
    10: lambda: cyclic(10),
    11: lambda: cyclic(11),
    16: lambda: to_table(CDLoop.all_minus_one(Z2, 3)),
    100: lambda: cyclic(100),
    101: lambda: cyclic(101),
    128: lambda: to_table(CDLoop.all_minus_one(Z2, 6)),
    1024: product_1024,
}


def relabelled(loop: AbstractLoop, seed: int) -> AbstractLoop:
    """A random relabelling that moves the identity off index 0 (when N > 1)."""
    shuffled, perm = random_relabel(loop, random.Random(seed))
    if loop.size > 1 and perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
        shuffled = loop.relabel(perm)
    return shuffled


@pytest.mark.parametrize("size", sorted(LOOPS))
def test_serialize_is_byte_identical_to_the_reference(size):
    loop = LOOPS[size]()
    assert loop.size == size
    moved = relabelled(loop, size)
    assert size == 1 or moved.identity != 0
    for table in (loop, moved):
        text = serialize_loop_table(table)
        assert text == reference_serialize(table)
        reparsed = parse_loop_table(text)
        assert reparsed.identity == 0
        if table.identity == 0:
            assert reparsed == table


@pytest.mark.parametrize("size", [999, 1000, 1001])
def test_serialize_is_byte_identical_across_the_four_digit_boundary(size):
    # Tokens are as wide as N - 1's digits plus a separator: 4 bytes up to
    # 1000 elements, 5 from 1001, with 1-digit entries padded the most.
    loop = cyclic(size)
    assert serialize_loop_table(loop) == reference_serialize(loop)


@pytest.mark.parametrize("block_bytes", [1, 9, 100])
def test_serialize_is_the_same_in_any_block_size(monkeypatch, block_bytes):
    loops = [relabelled(LOOPS[size](), size) for size in (8, 11, 101)]
    monkeypatch.setattr(abstract_loop, "_CODEC_BLOCK_BYTES", block_bytes)
    for loop in loops:
        assert serialize_loop_table(loop) == reference_serialize(loop)


def test_serialize_refuses_entries_outside_the_table():
    # No reader accepts a sign or an out-of-range entry, so no loop holds
    # one for the writer to write: construction refuses it, validate or not.
    for bad in (-7, 3, 2**63 - 1, -(2**63)):
        for validate in (False, True):
            with pytest.raises(TableFormatError, match="^entry at row 1, column 1 is outside 0..2$"):
                AbstractLoop([[0, 1, 2], [1, bad, 0], [2, 0, 1]], validate=validate)


def test_byte_classes_match_str_split_and_splitlines():
    for code in range(128):
        c = chr(code)
        kind = abstract_loop._BYTE_CLASS[code]
        assert (kind == abstract_loop._BREAK) == (len(f"a{c}b".splitlines()) == 2), repr(c)
        assert (kind == abstract_loop._SPACE) == (c.isspace() and kind != abstract_loop._BREAK)
        assert (kind == abstract_loop._DIGIT) == (c in "0123456789")
    # The decoder's translate table is these classes, and a byte in front of
    # a 5 reads as its digit value times 10, as whitespace that adds 0, or
    # else refuses the block.
    for code in range(256):
        kind = abstract_loop._BYTE_CLASS[code]
        assert abstract_loop._CLASS_OF[code] == kind
        values = abstract_loop._decode_block(bytes([code]) + b"5", 1)
        if kind == abstract_loop._OTHER:
            assert values is None
        else:
            assert values.tolist() == [10 * int(chr(code)) + 5 if kind == abstract_loop._DIGIT else 5]


def table_text(cells, sep=" ", eol="\n", final=True) -> str:
    rows = [sep.join(row) for row in cells]
    return f"loop-table v1 {len(cells)}\n" + eol.join(rows) + (eol if final else "")


def q8_cells(width) -> list[list[str]]:
    """A relabelled Q8 table, entry (i, j) zero-padded to width(i, j) digits."""
    table = relabelled(LOOPS[8](), 8).table.tolist()
    return [[f"{v:0{width(i, j)}d}" for j, v in enumerate(row)] for i, row in enumerate(table)]


DECODER_CASES = {
    "18-digit entries": table_text(q8_cells(lambda i, j: 18)),
    "1- and 18-digit entries in a row": table_text(q8_cells(lambda i, j: 1 + 17 * (j % 2))),
    "no final line break": table_text(q8_cells(lambda i, j: 1), final=False),
    "unit separators and file separators": table_text(
        q8_cells(lambda i, j: 1), sep="\x1f", eol="\x1c"
    ),
}


@pytest.mark.parametrize("case", sorted(DECODER_CASES))
def test_the_block_decoder_reads_what_the_line_reader_reads(case):
    text = DECODER_CASES[case]
    values = abstract_loop._decode_block(text[text.index("\n") + 1 :].encode(), 8)
    assert values is not None
    rows = text.splitlines()[1:]
    want = np.vstack([abstract_loop._read_row(i, row, 8) for i, row in enumerate(rows)])
    assert np.array_equal(values, want.ravel())
    assert np.array_equal(abstract_loop._decode_body(text.encode(), text.index("\n"), 8), want)
    assert values.dtype == (np.uint64 if "18-digit" in case else np.uint8)


def test_the_block_decoder_is_exact_in_its_widest_accumulator():
    # Out of range for a table, so compared with int(), which the line
    # reader applies to each entry.
    entries = ["999999999999999999", "100000000000000000", "123456789012345678", "0", "07"]
    values = abstract_loop._decode_block((" ".join(entries) + "\n").encode(), len(entries))
    assert values.dtype == np.uint64
    assert values.tolist() == [int(e) for e in entries]


@pytest.mark.parametrize("width", [19, 20, 40])
def test_entries_padded_with_leading_zeros_parse_to_the_same_loop(width):
    # Rows with entries longer than the block decoder's digit limit go to
    # the row reader, which builds the table when it finds no defect.
    loop = relabelled(LOOPS[16](), 16)
    padded = [f"loop-table v1 {loop.size}"]
    padded += [" ".join(f"{v:0{width}d}" for v in row) for row in loop.table.tolist()]
    parsed = parse_loop_table("\n".join(padded) + "\n")
    assert np.array_equal(parsed.table, parse_loop_table(serialize_loop_table(loop)).table)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_loops_hold_no_second_copy_of_their_table():
    # A 2 MiB uint16 table at 1024 elements: a read-only table is kept as it
    # is, and to_table hands over the array it builds in that dtype.  With a
    # copy each the int64 peaks were 9.1 and 32.1 MiB; built in int64 and
    # kept, to_table peaked at 10.1 MiB.
    loop = product_1024()
    assert traced_peak(lambda: AbstractLoop(loop.table)) < 2 << 20
    assert traced_peak(product_1024) < 8 << 20


def test_codec_memory_on_a_relabelled_1024_element_table():
    # Decoding in blocks keeps parse near the table and its checked copy;
    # the line-by-line parser peaked at 37 MiB, the block decoder into an
    # int64 table at 24.2 MiB, and the join writer at 36 MiB.
    # The writer holds its 5 MiB buffer and the returned text, plus one
    # block: 9.4 MiB, where a writer joining a list of blocks took 12.9 MiB.
    loop = relabelled(product_1024(), 1024)
    text = serialize_loop_table(loop)
    assert traced_peak(lambda: parse_loop_table(text)) < 20 << 20
    assert traced_peak(lambda: serialize_loop_table(loop)) < 12 << 20


def test_a_body_too_short_for_its_header_allocates_no_table():
    def parse():
        with pytest.raises(TableFormatError, match="expected 1024 rows after the header, got 1"):
            parse_loop_table("loop-table v1 1024\n" + "0 " * 1000 + "\n")

    assert traced_peak(parse) < 1 << 20


def test_a_body_of_short_rows_allocates_no_table():
    # Enough rows for the header, each far shorter than a row of 3000
    # entries: refused at row 0 without a 3000 x 3000 table.
    def parse():
        with pytest.raises(TableFormatError, match="^row 0 has 1 entries, expected 3000$"):
            parse_loop_table("loop-table v1 3000\n" + "0\n" * 3000, max_elements=3000**2)

    assert traced_peak(parse) < 1 << 20


def wide_center_table() -> AbstractLoop:
    """The direct product of the octonion loop and Z12: 192 elements, the
    last band of 128 rows partly filled, and a center of 24, not |Z| = 2."""
    octonions = to_table(CDLoop.all_minus_one(Z2, 3)).table
    twelve = cyclic(12).table
    table = octonions[:, None, :, None] * 12 + twelve[None, :, None, :]
    return AbstractLoop(table.reshape(192, 192))


@pytest.mark.parametrize("size", sorted(LOOPS) + [192])
def test_commutant_counts_equal_the_transposed_compare(size):
    loop = wide_center_table() if size == 192 else LOOPS[size]()
    assert size != 192 or len(loop.center()) == 24
    for table in (loop, relabelled(loop, size)):
        arr = table.table
        assert table.commutant_sizes() == (arr == arr.T).sum(axis=1).tolist()
