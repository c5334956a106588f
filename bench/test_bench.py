"""Tests of the benchmark itself, at small sizes.

Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

sys.path.insert(0, str(run.SRC))

import cdloops as cd  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cdloops import analytics, central_product  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def kinds(ops):
    return [op.name.split(":")[0] for op in ops]


def test_spec_names_the_workloads_and_maps_every_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    layer_map = json.loads((run.ROOT / "bench" / "layer_map.json").read_text())
    assert list(layer_map) == PER_LAYER
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["dominant_on"] + entry["flat_on"]) <= set(workloads.BUILDERS)


def test_operation_lists_budgets_and_items(tmp_path):
    ops = {w: workloads.build(w, 1, tmp_path) for w in workloads.BUILDERS}
    assert kinds(ops["degrees"]) == ["commutativity_degree_brute"] * 3 + [
        "commutant_coset_sizes", "commutator_exponent_image", "associator_exponent_image"]
    assert kinds(ops["elements"]) == [
        "moufang_identity_holds", "is_di_associative", "moufang_identity_holds",
        "associativity_degree_brute", "rank_census_brute"] + ["commutant"] * 3
    chain = ["to_table", "serialize_loop_table", "parse_loop_table", "recover_factors",
             "element_orders"]
    assert kinds(ops["tables"]) == chain * 8 + ["cli.decompose"]
    assert kinds(ops["iso"]) == ["find_isomorphism"] * 20 + ["cli.decompose.match"] * 2
    for listed in ops.values():
        assert len({op.name for op in listed}) == len(listed)

    # Operations above the default budget carry the max_elements they pass.
    budgets = {op.name: (op.items, op.max_elements) for listed in ops.values() for op in listed}
    raised = {name: b for name, b in budgets.items() if b[1] is not None}
    assert raised == {"commutativity_degree_brute:m3n4z2": (4096**2, 4096**2),
                      "associativity_degree_brute:m1n6z2": (128**3, 128**3)}
    aei = next(b for n, b in budgets.items() if n.startswith("associator_exponent_image"))
    assert aei == (64**3, None)
    assert all(items > 0 for items, _ in budgets.values())


def test_same_seed_same_inputs(tmp_path):
    def files(seed, name):
        out = tmp_path / name
        out.mkdir()
        ops = [(op.name, op.items) for w in workloads.BUILDERS
               for op in workloads.build(w, seed, out, small=True)]
        return ops, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first[1] != other[1]


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_small_passes_meet_their_oracles(workload, tmp_path):
    ops = workloads.build(workload, 3, tmp_path, small=True)
    times, failures = run.run_pass(ops)
    assert failures == []
    assert len(times) == len(ops)


def test_wrong_expected_value_is_a_failed_operation(tmp_path):
    ops = workloads.build("degrees", 1, tmp_path, small=True)
    ops[0] = dataclasses.replace(ops[0], check=lambda r, s: r.degree == Fraction(1, 3))
    times, failures = run.run_pass(ops)
    assert len(times) == len(ops)
    assert failures == [f"{ops[0].name}: result differs from its oracle"]


def test_raising_operation_fails_and_so_do_operations_that_need_its_result(tmp_path):
    ops = workloads.build("tables", 1, tmp_path, small=True)

    def refuse(state):
        raise cd.BudgetExceeded("refused")

    ops[0] = dataclasses.replace(ops[0], run=refuse)
    times, failures = run.run_pass(ops)
    assert len(times) == len(ops)
    assert [f.split(":")[0] for f in failures] == [
        "to_table", "serialize_loop_table", "parse_loop_table", "recover_factors",
        "element_orders"]


def test_self_time_subtracts_the_time_children_cover():
    root = tracer.Span("root", 0.0, 10.0, None, 0)
    child = tracer.Span("child", 1.0, 5.0, root, 0)
    spans = [root, child, tracer.Span("grandchild", 2.0, 3.0, child, 0),
             tracer.Span("child", 6.0, 7.5, root, 0)]
    assert tracer.self_times(spans) == [10.0 - 4.0 - 1.5, 3.0, 1.0, 1.5]
    metrics = tracer.layer_metrics(spans, {"cdloop.mul": 5})
    assert metrics["child.calls"] == 2
    assert metrics["child.self_s"] == 4.5
    assert metrics["child.max_s"] == 4.0
    assert metrics["cdloop.mul.calls"] == 5


def test_spans_nest_through_every_binding():
    snapshot = tracer.all_bindings()
    wrapped_at = {(getattr(b.owner, "__name__", ""), b.attr) for b in snapshot}
    for module in ("cdloops", "cdloops.central_product", "cdloops.analytics",
                   "cdloops.abstract_loop"):
        assert (module, "coset_twist_matrix") in wrapped_at
    tr = tracer.Tracer()
    tr.install()
    try:
        assert hasattr(analytics.coset_twist_matrix, tracer.MARK)
        assert analytics.coset_twist_matrix is central_product.coset_twist_matrix
        tr.op_id = 4
        z = cd.make_scalar_group(2)
        A = cd.make_product(z, [cd.CDLoop.all_minus_one(z, 3)] * 2)
        cd.commutativity_degree_brute(A)
    finally:
        tr.uninstall()
    assert tracer.unwrapped(snapshot)
    names = [s.name for s in tr.spans]
    assert names == ["analytics.commutativity_degree_brute",
                     "central_product.coset_twist_matrix", "central_product.twist_tables"]
    assert [s.parent for s in tr.spans] == [None, tr.spans[0], tr.spans[1]]
    assert {s.op_id for s in tr.spans} == {4}
    root = tr.spans[0]
    assert sum(tracer.self_times(tr.spans)) == pytest.approx(root.end - root.start)
    assert tr.counts["cdloop.twist_exp"] == 2 * 8 * 8
    assert tr.counts["budget.ensure_budget"] == 1


def test_unwrapped_notices_a_leftover_wrapper():
    snapshot = tracer.all_bindings()
    original = analytics.commutant
    analytics.commutant = tracer.Tracer()._span_wrapper("x", original, None)
    try:
        assert not tracer.unwrapped(snapshot)
    finally:
        analytics.commutant = original
    assert tracer.unwrapped(snapshot)


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_untraced_run_reports_end_to_end_metrics_and_wraps_nothing(workload):
    snapshot = tracer.all_bindings()
    meta, result = run.run_workload(workload, 2, 0.01, trace=False, small=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(meta["ops"]) * meta["samples"][0]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert tracer.unwrapped(snapshot)
    assert meta["seed"] == 2 and meta["nproc"] >= 1 and meta["numpy"]


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    per_run = []
    for _ in range(2):
        meta, result = run.run_workload("iso", 5, 0.01, trace=True, small=True)
        assert result["correct"]
        assert list(result["metrics"]) == PER_LAYER
        per_run.append({k: v["value"] for k, v in result["metrics"].items()})
    for key in ("abstract_loop.find_isomorphism.calls", "cli.decompose.iso_calls_per_match",
                "budget.ensure_budget.calls"):
        assert per_run[0][key] == per_run[1][key]
    assert per_run[0]["cli.decompose.iso_calls_per_match"] == 8  # 2 m^2 at m = 2


def test_elements_mul_count_is_exact():
    counts = []
    for _ in range(2):
        meta, result = run.run_workload("elements", 1, 0.01, trace=True, small=True)
        counts.append(result["metrics"]["cdloop.mul.calls"]["value"])
    assert counts[0] == counts[1] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "degrees", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
