import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import cdloops
from cdloops import cli, decompose, parse_loop_table, pc_limit_table
from cdloops.cli import main
from cdloops.errors import BudgetExceeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_build_summary(capsys):
    payload = run_json(capsys, "build", "--z-order", "2", "--gammas", "-1,-1")
    assert payload["z_order"] == 2
    assert payload["n"] == 2
    assert payload["gammas"] == ["-1", "-1"]
    assert payload["order"] == 8
    assert payload["generator_squares"] == {"l1": "-1", "l2": "-1"}
    assert payload["sample_commutators"] == [{"pair": ["l1", "l2"], "value": "-1"}]
    assert payload["sample_associators"] == []


def test_build_samples_the_first_ten_pairs_and_triples(capsys):
    # n = 6 has 15 generator pairs and 20 triples; the first ten of each are
    # listed in lexicographic order
    payload = run_json(capsys, "build", "--z-order", "2", "--gammas", "-1,-1,-1,-1,-1,-1")
    pairs = [row["pair"] for row in payload["sample_commutators"]]
    triples = [row["triple"] for row in payload["sample_associators"]]
    assert pairs == [
        ["l1", "l2"], ["l1", "l3"], ["l1", "l4"], ["l1", "l5"], ["l1", "l6"],
        ["l2", "l3"], ["l2", "l4"], ["l2", "l5"], ["l2", "l6"], ["l3", "l4"],
    ]
    assert triples == [
        ["l1", "l2", "l3"], ["l1", "l2", "l4"], ["l1", "l2", "l5"], ["l1", "l2", "l6"],
        ["l1", "l3", "l4"], ["l1", "l3", "l5"], ["l1", "l3", "l6"], ["l1", "l4", "l5"],
        ["l1", "l4", "l6"], ["l1", "l5", "l6"],
    ]
    # distinct generators anticommute and any three of them anti-associate
    assert {row["value"] for row in payload["sample_commutators"]} == {"-1"}
    assert {row["value"] for row in payload["sample_associators"]} == {"-1"}


def test_build_octonions_has_a_nontrivial_associator(capsys):
    payload = run_json(capsys, "build", "--z-order", "2", "--gammas", "-1,-1,-1")
    assert payload["order"] == 16
    values = {tuple(row["triple"]): row["value"] for row in payload["sample_associators"]}
    assert values[("l1", "l2", "l3")] == "-1"


def test_degrees_associativity_both_methods(capsys):
    payload = run_json(
        capsys, "degrees", "--kind", "associativity", "--n", "3", "--method", "both"
    )
    for key in ("brute", "closed"):
        assert payload[key]["degree"] == {"num": 43, "den": 64, "decimal": "0.671875"}
    assert payload["agree"] is True


@pytest.mark.parametrize(
    "flags",
    [["--kind", "associativity", "--n", "3"],
     ["--kind", "commutativity", "--factors", "-1,-1,-1;+1,-1,+1"]],
    ids=["associativity", "commutativity"],
)
def test_degrees_closed_alone_is_the_closed_half_of_both(capsys, flags):
    both = run_json(capsys, "degrees", *flags, "--method", "both")
    closed = run_json(capsys, "degrees", *flags, "--method", "closed")
    assert closed == {"kind": both["kind"], **both["closed"]}
    assert closed["method"] == "closed"


def test_degrees_closed_associativity_rejects_a_product(capsys):
    code, out, err = run_cli(
        capsys,
        "degrees", "--kind", "associativity",
        "--method", "closed", "--factors", "+1,-1,-1;-1,-1,-1",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "brute" in err


@pytest.mark.parametrize("order", (2, 4, 6))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_degrees_closed_associativity_covers_every_single_loop(capsys, order, n):
    # Associator exponents do not depend on the gammas, so neither does the
    # degree: the closed form holds for any gamma vector.
    rng = random.Random(100 * order + n)
    gammas = ",".join(str(rng.randrange(order)) for _ in range(n))
    payload = run_json(
        capsys,
        "degrees", "--kind", "associativity", "--z-order", str(order),
        f"--gammas={gammas}", "--method", "both",
    )
    assert payload["agree"] is True, gammas
    assert payload["brute"]["total"] == payload["closed"]["total"] == (order * 2**n) ** 3


@pytest.mark.parametrize("gammas", ("+1,+1,+1,+1", "3,1,2,0"))
def test_degrees_closed_associativity_at_z4(capsys, gammas):
    payload = run_json(
        capsys,
        "degrees", "--kind", "associativity", "--z-order", "4",
        f"--gammas={gammas}", "--method", "both",
    )
    assert payload["agree"] is True
    assert payload["closed"]["degree"] == {"num": 197, "den": 512, "decimal": "0.384765625"}


def test_degrees_brute_accepts_mixed_gammas(capsys):
    payload = run_json(
        capsys,
        "degrees", "--kind", "associativity", "--n", "3",
        "--method", "brute", "--gammas", "+1,-1,+1",
    )
    assert payload["degree"] == {"num": 43, "den": 64, "decimal": "0.671875"}
    assert payload["method"] == "brute"


def test_degrees_commutativity(capsys):
    payload = run_json(
        capsys,
        "degrees", "--kind", "commutativity",
        "--factors", "-1,-1;-1,-1", "--method", "both",
    )
    assert payload["brute"]["degree"] == {"num": 17, "den": 32, "decimal": "0.53125"}
    assert payload["agree"] is True


def test_degrees_commutativity_requires_factors(capsys):
    code, out, err = run_cli(capsys, "degrees", "--kind", "commutativity")
    assert code == 2 and err.startswith("error:")


def test_census(capsys):
    payload = run_json(capsys, "census", "--factors", "-1,-1,-1;-1,-1,-1")
    assert payload["counts"] == [2, 28, 98]
    assert payload["closed_form"] == [2, 28, 98]
    assert payload["agree"] is True
    payload = run_json(
        capsys, "census", "--z-order", "4", "--factors", "-1,-1,-1;-1,-1,-1"
    )
    assert payload["counts"] == [4, 56, 196]


def test_limits(capsys):
    payload = run_json(
        capsys, "limits", "--mode", "grow_n", "--fixed", "2", "--start", "2", "--stop", "5"
    )
    degrees = [row["degree"]["num"] / row["degree"]["den"] for row in payload["rows"]]
    assert degrees == sorted(degrees)
    assert payload["rows"][0]["degree"] == {"num": 17, "den": 32, "decimal": "0.53125"}
    payload = run_json(
        capsys, "limits", "--mode", "grow_m", "--fixed", "2", "--start", "1", "--stop", "3"
    )
    assert [row["m"] for row in payload["rows"]] == [1, 2, 3]


def test_limits_admits_long_rows_under_the_default_budget(capsys):
    # sum of 3 * n over n = 1..600 is 541800 items, inside 2**20
    payload = run_json(
        capsys, "limits", "--mode", "grow_n", "--fixed", "2", "--start", "1", "--stop", "600"
    )
    assert [row["n"] for row in payload["rows"]] == list(range(1, 601))


def test_limits_charges_its_rows_before_building_them(capsys):
    # sum of (m + 1) * 4 over m = 1..800 is 1284800 items, beyond 2**20
    code, out, err = run_cli(
        capsys, "limits", "--mode", "grow_m", "--fixed", "4", "--start", "1", "--stop", "800"
    )
    assert code == 3 and out == ""
    assert err.startswith("error: limit table needs 1284800 items")
    assert err.count("\n") == 1
    code, out, err = run_cli(
        capsys, "limits", "--mode", "grow_n", "--fixed", "2", "--start", "2", "--stop", "5",
        "--max-elements", "41",
    )
    assert code == 3
    assert err.startswith("error: limit table needs 42 items")


@pytest.mark.parametrize("mode", ["grow_n", "grow_m"])
def test_limits_refuses_a_huge_range_in_constant_time(capsys, mode):
    # The charge is an arithmetic series in start..stop, summed in closed
    # form before any row is listed, so refusing costs the same at any stop.
    stop = 10**18
    charge = 3 * (stop * (stop + 1) // 2) if mode == "grow_n" else 2 * (stop * (stop + 1) // 2 + stop)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded, match=f"^limit table needs {charge} items"):
            pc_limit_table(mode, 2, 1, stop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 0.5
    assert peak < 1 << 20
    code, out, err = run_cli(
        capsys, "limits", "--mode", mode, "--fixed", "2", "--start", "1", "--stop", str(stop)
    )
    assert code == 3 and out == ""
    assert err.startswith(f"error: limit table needs {charge} items") and err.count("\n") == 1


def test_limits_charge_is_the_sum_over_its_rows():
    with pytest.raises(BudgetExceeded, match="^limit table needs 150015000 items"):
        pc_limit_table("grow_n", 2, 1, 10**4)
    for mode in ("grow_n", "grow_m"):
        for fixed, start, stop in ((2, 1, 30), (3, 5, 17), (1, 4, 4)):
            shapes = [(fixed, v) if mode == "grow_n" else (v, fixed) for v in range(start, stop + 1)]
            charge = sum((m + 1) * n for m, n in shapes)
            assert len(pc_limit_table(mode, fixed, start, stop, charge)) == len(shapes)
            with pytest.raises(BudgetExceeded, match=f"^limit table needs {charge} items"):
                pc_limit_table(mode, fixed, start, stop, charge - 1)


def test_export_import_round_trip(capsys, tmp_path):
    table = tmp_path / "q8.txt"
    code, out, err = run_cli(
        capsys, "export", "--z-order", "2", "--gammas", "-1,-1", "--out", str(table)
    )
    assert code == 0
    lines = table.read_text().strip().split("\n")
    assert lines[0] == "loop-table v1 8"
    assert len(lines) == 9
    payload = run_json(capsys, "import", "--table", str(table))
    assert payload == {"size": 8, "identity": 0, "center": [0, 4], "valid": True}
    copy = tmp_path / "copy.txt"
    code, out, err = run_cli(capsys, "import", "--table", str(table), "--out", str(copy))
    assert code == 0
    assert copy.read_text() == table.read_text()


def test_export_writes_to_stdout_without_out(capsys):
    code, out, err = run_cli(capsys, "export", "--z-order", "2", "--gammas", "-1")
    assert code == 0
    assert out.startswith("loop-table v1 4\n")
    parse_loop_table(out)


def test_export_product_is_a_latin_square(capsys, tmp_path):
    table = tmp_path / "a.txt"
    code, out, err = run_cli(
        capsys,
        "export", "--z-order", "2",
        "--factors", "-1,-1,-1;-1,-1,-1", "--out", str(table),
    )
    assert code == 0
    loop = parse_loop_table(table.read_text())  # parse validates Latin + identity
    assert loop.size == 128


def test_export_needs_exactly_one_descriptor(capsys):
    code, out, err = run_cli(capsys, "export", "--z-order", "2")
    assert code == 2 and err.startswith("error:")
    code, out, err = run_cli(
        capsys,
        "export", "--z-order", "2", "--gammas", "-1", "--factors", "-1;-1",
    )
    assert code == 2 and err.startswith("error:")


def test_import_rejects_corrupt_tables(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("loop-table v1 2\n0 1\n1 1\n")
    code, out, err = run_cli(capsys, "import", "--table", str(bad))
    assert code == 2
    assert err.startswith("error:")
    code, out, err = run_cli(capsys, "import", "--table", str(tmp_path / "nope.txt"))
    assert code == 2


def text_mode_import(path) -> tuple[int, str]:
    """What a text-mode read of the file gives: the normalized table, or the
    exit-2 line."""
    try:
        with open(path) as fh:
            return 0, cdloops.serialize_loop_table(parse_loop_table(fh.read()))
    except (ValueError, cdloops.TableFormatError) as exc:
        return 2, f"error: {exc}\n"


def table_variants() -> dict[str, bytes]:
    """A relabelled 256-element table (two 128 KiB blocks and more) and a
    16-element one, with other line breaks and separators and with defects."""
    z = cdloops.make_scalar_group(4)
    big = cdloops.to_table(cdloops.make_product(z, [cdloops.CDLoop.all_minus_one(z, 3)] * 2))
    small = cdloops.to_table(cdloops.CDLoop.all_minus_one(cdloops.make_scalar_group(2), 3))
    rng = random.Random(31)
    text = {name: cdloops.serialize_loop_table(cdloops.random_relabel(loop, rng)[0]).encode()
            for name, loop in (("big", big), ("small", small))}
    head, *rows = text["small"].split(b"\n")
    short = b"\n".join([head, *rows[:3], rows[3].rsplit(b" ", 1)[0], *rows[4:]])
    return {
        "crlf": text["big"].replace(b"\n", b"\r\n"),
        "bare-cr": text["big"].replace(b"\n", b"\r"),
        "tabs": text["big"].replace(b" ", b"\t"),
        "crlf-small": text["small"].replace(b"\n", b"\r\n"),
        "crlf-duplicate": text["small"].replace(b"\n", b"\r\n").replace(b"\r\n1 ", b"\r\n2 ", 1),
        "bare-cr-short-row": short.replace(b"\n", b"\r"),
        "crlf-header": text["small"].replace(b"v1", b"v2").replace(b"\n", b"\r\n"),
        "non-utf-8": text["small"].replace(b"\n", b" \xff\n", 2),
        "utf-8-space": text["small"].replace(b" ", "\u00a0".encode(), 1),
    }


@pytest.mark.parametrize("name", list(table_variants()))
def test_import_reads_the_bytes_as_the_text_mode_read_did(capsys, tmp_path, name):
    # ASCII files are decoded from their bytes, with no newline translation;
    # the table or the exit-2 line is the one a text-mode read gives.
    table = tmp_path / "table.txt"
    table.write_bytes(table_variants()[name])
    want_code, want = text_mode_import(table)
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli(capsys, "import", "--table", str(table), "--out", str(out))
    assert code == want_code, err
    if code == 0:
        assert out.read_text() == want
    else:
        assert err == want and not out.exists()
    assert (code == 0) == (name in ("crlf", "bare-cr", "tabs", "crlf-small")), err


@pytest.mark.parametrize(
    "body", ["-0\n", "-00 1\n1 0\n", "1 0\n0 -1\n"], ids=["-0", "-00", "0 -1"]
)
def test_import_rejects_signed_entries_in_one_line(capsys, tmp_path, body):
    bad = tmp_path / "signed.txt"
    bad.write_text(f"loop-table v1 {body.count(chr(10))}\n{body}")
    code, out, err = run_cli(capsys, "import", "--table", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "contains a non-integer entry" in err


@pytest.mark.parametrize("token", ["1_0", "\u0663"])
def test_build_rejects_non_ascii_or_separated_scalar_tokens(capsys, token):
    code, out, err = run_cli(capsys, "build", "--z-order", "12", "--gammas", f"{token},-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "cannot parse scalar token" in err


def test_decompose_cli(capsys, tmp_path):
    table = tmp_path / "prod.txt"
    run_cli(
        capsys,
        "export", "--z-order", "2",
        "--factors", "-1,-1,-1;+1,-1,+1", "--out", str(table),
    )
    payload = run_json(capsys, "decompose", "--table", str(table), "--n", "3")
    assert payload["m"] == 2
    assert payload["z_size"] == 2
    assert payload["rank_histogram"] == [2, 28, 98]
    assert len(payload["factors"]) == 2
    assert all(len(subset) == 16 for subset in payload["factors"])


def test_decompose_cli_match_against(capsys, tmp_path):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    run_cli(
        capsys,
        "export", "--z-order", "2",
        "--factors", "-1,-1,-1;+1,-1,+1", "--out", str(left),
    )
    run_cli(
        capsys,
        "export", "--z-order", "2",
        "--factors", "+1,-1,+1;-1,-1,-1", "--out", str(right),
    )
    payload = run_json(
        capsys,
        "decompose", "--table", str(left), "--n", "3",
        "--match-against", str(right),
    )
    assert payload["match"] is not None
    assert sorted(payload["match"]["sigma"]) == [0, 1]
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--table", str(left), "--n", "3", "--pivot-order", "descending"])
    assert exc.value.code == 2


def test_decompose_match_against_searches_each_factor_pair_once(
    capsys, tmp_path, monkeypatch
):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    run_cli(capsys, "export", "--z-order", "2",
            "--factors", "-1,-1,-1;+1,-1,+1", "--out", str(left))
    run_cli(capsys, "export", "--z-order", "2",
            "--factors", "+1,-1,+1;-1,-1,-1", "--out", str(right))
    calls = []
    search = decompose.find_isomorphism
    for module in (cli, decompose):  # every binding the CLI can reach it by
        if hasattr(module, "find_isomorphism"):
            monkeypatch.setattr(module, "find_isomorphism",
                                lambda a, b: calls.append(1) or search(a, b))
    payload = run_json(capsys, "decompose", "--table", str(left), "--n", "3",
                       "--match-against", str(right))
    assert len(calls) == 4  # one search per factor pair at m = 2
    assert payload["match"] == {"sigma": [1, 0], "pairs": [[False, True], [True, False]]}


def test_decompose_cli_rejects_shallow_depth(capsys, tmp_path):
    table = tmp_path / "q8.txt"
    run_cli(capsys, "export", "--z-order", "2", "--gammas", "-1,-1", "--out", str(table))
    code, out, err = run_cli(capsys, "decompose", "--table", str(table), "--n", "2")
    assert code == 2
    assert "n >= 3" in err


def test_budget_exits_with_code_three(capsys):
    code, out, err = run_cli(
        capsys,
        "degrees", "--kind", "associativity", "--n", "3",
        "--method", "brute", "--max-elements", "10",
    )
    assert code == 3
    assert "budget" in err


def test_import_and_decompose_charge_table_parsing(capsys, tmp_path):
    table = tmp_path / "prod.txt"  # 128 elements: 16384 cells
    run_cli(capsys, "export", "--z-order", "2",
            "--factors", "-1,-1,-1;+1,-1,+1", "--out", str(table))
    for argv in (["import", "--table", str(table)],
                 ["decompose", "--table", str(table), "--n", "3"]):
        code, out, err = run_cli(capsys, *argv, "--max-elements", "10")
        assert code == 3
        assert out == ""
        assert err.startswith("error: table parse needs 16384 items")
        assert len(err.splitlines()) == 1


def test_decompose_charges_each_table_separately(capsys, tmp_path):
    left = tmp_path / "left.txt"    # 128 elements
    right = tmp_path / "right.txt"  # 128 elements
    bigger = tmp_path / "z4.txt"    # 256 elements: 65536 cells
    run_cli(capsys, "export", "--z-order", "2",
            "--factors", "-1,-1,-1;+1,-1,+1", "--out", str(left))
    run_cli(capsys, "export", "--z-order", "2",
            "--factors", "+1,-1,+1;-1,-1,-1", "--out", str(right))
    run_cli(capsys, "export", "--z-order", "4",
            "--factors", "-1,-1,-1;+1,-1,+1", "--out", str(bigger))
    payload = run_json(capsys, "decompose", "--table", str(left), "--n", "3",
                       "--match-against", str(right), "--max-elements", "16384")
    assert sorted(payload["match"]["sigma"]) == [0, 1]
    code, out, err = run_cli(capsys, "decompose", "--table", str(left), "--n", "3",
                             "--match-against", str(bigger), "--max-elements", "16384")
    assert code == 3
    assert err.startswith("error: table parse needs 65536 items")


def test_usage_errors_raise_system_exit(capsys):
    with pytest.raises(SystemExit):
        main(["degrees"])  # missing --kind
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_verify_cli_small_run(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--max-n", "3", "--max-m", "2",
        "--z-orders", "2", "--trials", "4", "--seed", "9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] >= 40
    assert "PASS" in err


def test_closed_stdout_pipe_exits_quietly():
    src = str(Path(cdloops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cdloops.cli", "limits", "--mode", "grow_n",
         "--fixed", "2", "--start", "1", "--stop", "600"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.read(10) == b'{\n  "mode"'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_associativity_brute_is_charged_by_coset_triples(capsys):
    payload = run_json(
        capsys, "degrees", "--kind", "associativity", "--n", "6", "--method", "both"
    )
    assert payload["agree"] is True
    assert payload["brute"]["degree"]["den"] == 32768
    code, out, err = run_cli(
        capsys, "degrees", "--kind", "associativity", "--n", "7", "--method", "brute"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: associativity survey over coset triples needs 2097152 items")


def test_verify_under_a_small_budget_reports_skips(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--max-n", "3", "--max-m", "1", "--trials", "1",
        "--max-elements", "200",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["ok"] is True
    checks = {c["name"]: c for c in payload["checks"]}
    for name in ("loop-table-serialize-parse-roundtrip", "iso-search-finds-self-relabeling"):
        assert checks[name]["status"] == "skipped"
        assert "table construction needs 256 items" in checks[name]["actual"]
    roundtrips = [c for name, c in checks.items() if name.startswith("decompose-roundtrip")]
    assert roundtrips and all(c["status"] == "skipped" for c in roundtrips)
    pivot = checks["decompose-pivot-order-invariance"]
    assert pivot["status"] == "info"
    assert "not compared" in pivot["actual"] and "True" not in pivot["actual"]


def test_verify_rejects_an_invalid_budget_before_any_check(capsys, monkeypatch):
    # build charges no budget, and is held to the same rule
    for argv in (["verify"], ["build", "--z-order", "2", "--gammas", "-1,-1"]):
        code, out, err = run_cli(capsys, *argv, "--max-elements", "0")
        assert (code, out) == (2, "")
        assert err == "error: budget must be positive, got 0\n"
    with pytest.raises(ValueError, match="budget must be positive, got 0"):
        cdloops.run_verify(max_elements=0)
    monkeypatch.setenv("CDL_MAX_ELEMENTS", "abc")
    for argv in (["verify"], ["build", "--z-order", "2", "--gammas", "-1,-1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: CDL_MAX_ELEMENTS must be an integer, got 'abc'\n"


def test_the_budget_environment_variable_is_obeyed_and_checked(capsys, monkeypatch):
    argv = ["degrees", "--kind", "associativity", "--n", "3", "--method", "brute"]
    monkeypatch.setenv("CDL_MAX_ELEMENTS", "512")  # 8**3 coset triples
    assert run_json(capsys, *argv)["degree"]["num"] == 43
    monkeypatch.setenv("CDL_MAX_ELEMENTS", "511")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "exceeding the budget of 511" in err and len(err.splitlines()) == 1
    # an explicit flag wins over the environment
    assert run_json(capsys, *argv, "--max-elements", "512")["degree"]["num"] == 43
    monkeypatch.setenv("CDL_MAX_ELEMENTS", "0")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: CDL_MAX_ELEMENTS must be positive, got 0\n"


@pytest.mark.parametrize(
    "flags, param",
    [
        (["--max-n", "0"], "max_n"),
        (["--max-n", "17", "--max-elements", "64"], "max_n"),
        (["--max-m", "0"], "max_m"),
        (["--trials", "0"], "trials"),
        (["--trials", "-5"], "trials"),
        (["--z-orders", ""], "z_orders"),
        (["--z-orders", "3"], "z_orders"),
        (["--z-orders", "2,0"], "z_orders"),
        (["--z-orders", "2,-2"], "z_orders"),
        (["--z-orders", "2,2"], "z_orders"),
        (["--z-orders", "2,x"], "z_orders"),
    ],
)
def test_verify_rejects_bad_options_before_any_check(capsys, flags, param):
    code, out, err = run_cli(capsys, "verify", *flags)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {param} must be ") and err.count("\n") == 1


# sha256 of `python -m cdloops.cli verify <args>` stdout; the default
# configuration is pinned in CI.
VERIFY_STDOUT_PINS = [
    ("--max-n 3 --max-m 2 --z-orders 2,4,6 --trials 5 --seed 7",
     "bb3d3056acc185042cc7c698c42544d9bfba0501e12e86e9aee079574cd6a177"),
    ("--max-n 2 --z-orders 2",
     "c2f708dcf3b448921e0631daf45ea098bfc4fb56badf37a6fe0a8a29dc6a55ce"),
    ("--max-n 4 --max-m 2 --trials 2 --max-elements 64",
     "f4d6b9b0c75134eda47e627f9288742b84977c04d1e7a3d31fa1144b6d7038fc"),
    ("--max-n 4 --max-m 2 --trials 2 --max-elements 300",
     "f8d8d786bb9faf123408f25c96211ceac880566bc84e4bfc7a25e2fca2ff6fca"),
]


@pytest.mark.parametrize("args, digest", VERIFY_STDOUT_PINS)
def test_verify_stdout_is_pinned(args, digest):
    src = str(Path(cdloops.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "CDL_MAX_ELEMENTS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cdloops.cli", "verify", *args.split()],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# sha256 of `cdl <args>` stdout, recorded before the report and sample
# builders were rewritten; the bytes must not change.
STDOUT_PINS = [
    (["build", "--z-order", "4", "--gammas", "1,3,2,0"],
     "e9fccf912541655b583f618eebf9810e77c4c196b316692c2e61b1f723a26f94"),
    (["degrees", "--kind", "commutativity", "--factors=-1,-1;-1,+1", "--method", "both"],
     "491f191baa31a51aad38f33ca61f7f38aa45dccc104e17c81a622802adea2b38"),
]


@pytest.mark.parametrize("argv, digest", STDOUT_PINS, ids=["build", "degrees"])
def test_stdout_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_at_a_huge_max_m_is_the_report_at_three():
    # m * n <= 9 with n >= 3 leaves m <= 3: a larger max_m adds no check,
    # and must not walk up to it either.  A child process, so that a walk
    # fails on its timeout instead of hanging the suite.
    src = str(Path(cdloops.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "CDL_MAX_ELEMENTS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys, cdloops\n"
        "m = int(sys.argv[1])\n"
        "print(repr(cdloops.run_verify(max_n=3, max_m=m, z_orders=(2,), trials=1)))\n"
    )
    huge, three = (
        subprocess.run(
            [sys.executable, "-c", script, str(max_m)],
            capture_output=True, env=env, timeout=60, check=True, text=True,
        ).stdout
        for max_m in (10**18, 3)
    )
    assert huge == three
    assert "status='fail'" not in huge and "status='pass'" in huge


# -- degrees: one descriptor for either kind ------------------------------------


def test_degrees_rejects_an_n_that_disagrees_with_the_descriptor(capsys):
    # --n must not pick a loop of its own and drop --factors without a word
    code, out, err = run_cli(
        capsys,
        "degrees", "--kind", "associativity", "--n", "3",
        "--factors", "-1,-1", "--method", "brute",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --n is 3 but the descriptor has depth 2\n"


def test_degrees_associativity_of_a_product(capsys):
    payload = run_json(
        capsys,
        "degrees", "--kind", "associativity",
        "--factors", "-1,-1,-1;-1,-1,-1", "--method", "brute",
    )
    assert payload["degree"]["num"] == 1145 and payload["degree"]["den"] == 2048
    assert (payload["m"], payload["n"], payload["method"]) == (2, 3, "brute")


def test_degrees_closed_associativity_refuses_a_product(capsys):
    code, out, err = run_cli(
        capsys,
        "degrees", "--kind", "associativity",
        "--factors", "-1,-1,-1;-1,-1,-1", "--method", "both",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "--method brute" in err


@pytest.mark.parametrize("descriptor", (["--gammas", "-1,-1"], ["--n", "2"]))
def test_degrees_commutativity_of_one_loop(capsys, descriptor):
    payload = run_json(
        capsys, "degrees", "--kind", "commutativity", *descriptor, "--method", "both"
    )
    assert payload["brute"]["degree"] == {"num": 5, "den": 8, "decimal": "0.625"}
    assert payload["brute"]["degree"] == payload["closed"]["degree"]
    assert payload["brute"]["m"] == 1
    assert payload["agree"] is True


@pytest.mark.parametrize(
    "flags",
    (
        ["--n", "0"],
        ["--n", "-1"],
        ["--n", "17"],
        ["--gammas", "-1,-1", "--factors", "-1,-1;-1,-1"],
        [],
    ),
)
@pytest.mark.parametrize("kind", ("commutativity", "associativity"))
def test_degrees_descriptor_errors_are_one_line(capsys, kind, flags):
    code, out, err = run_cli(capsys, "degrees", "--kind", kind, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
