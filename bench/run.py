"""Run one cdloops benchmark workload and print its metrics as JSON.

From the root of a checkout:

    python3 bench/run.py --workload degrees --seed 1 --seconds 20 --trace 0

The workload's operations come from `workloads.py`; they are built from the
seed, then run in passes, one process and one thread, each call issued after
the previous one returns, until `--seconds` have been measured.  Every result
is checked against its exact oracle; an operation that raises or differs
counts as failed.

With `--trace 0` the last stdout line carries the end-to-end metrics named in
BENCHMARK.json and nothing is wrapped.  With `--trace 1` the first half of the
time runs untraced passes and the second half traced ones (see `tracer.py`),
and the line carries the per-layer metrics, medians over the traced passes,
plus the tracing overhead.  `layer_map.json` says which end-to-end metric
each per-layer metric should move, on which workload.  The line before the
result is a `{"meta": ...}` record of the machine, the versions, the seed,
the sample counts and each operation's budget and median time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cdloops; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time `import cdloops` in a fresh interpreter, start-up excluded."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_pass(ops, tr=None) -> tuple[list[float], list[str]]:
    """One closed-loop pass: per-operation seconds and failure messages."""
    state: dict = {}
    times, failures = [], []
    for i, op in enumerate(ops):
        if tr is not None:
            tr.op_id = i
        start = perf_counter()
        try:
            state[op.name] = op.run(state)
        except Exception as exc:  # a raising operation is a failed operation
            times.append(perf_counter() - start)
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - start)
        try:
            ok = bool(op.check(state[op.name], state))
        except Exception:  # a malformed result differs from its oracle
            ok = False
        if not ok:
            failures.append(f"{op.name}: result differs from its oracle")
    return times, failures


def passes(ops, seconds: float, tr=None) -> dict:
    """Run passes until `seconds` are spent (at least one)."""
    walls, op_times, failures, layers = [], [[] for _ in ops], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        if tr is None:
            times, failed = run_pass(ops)
        else:
            (times, failed), metrics = tr.measure(lambda: run_pass(ops, tr))
            layers.append(metrics)
        walls.append(sum(times))
        for column, t in zip(op_times, times):
            column.append(t)
        failures += failed
    return dict(walls=walls, op_times=op_times, failures=failures, layers=layers)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        commit = out.stdout.strip() if out.returncode == 0 else None
    import numpy

    return dict(nproc=os.cpu_count(), cpu_model=cpu, python=platform.python_version(),
                numpy=numpy.__version__, commit=commit)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (meta, result line)."""
    spec = load_spec()
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    import cdloops

    if Path(cdloops.__file__).resolve().parent != (SRC / "cdloops").resolve():
        raise RuntimeError(f"cdloops imported from {cdloops.__file__}, not from {SRC}")
    import tracer
    import workloads

    snapshot = tracer.all_bindings()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        builds = []
        for k in range(SETUP_REPEATS):
            # A fresh directory per set-up: overwriting a just-written file
            # can wait for it to be flushed, which is not set-up work.
            workdir = Path(tmp) / str(k)
            workdir.mkdir()
            start = perf_counter()
            ops = workloads.build(workload, seed, workdir, small)
            builds.append(perf_counter() - start)
        setup_s = statistics.median(i + b for i, b in zip(imports, builds))
        pass_items = sum(op.items for op in ops)

        if trace:
            plain = passes(ops, seconds / 2)
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = passes(ops, seconds / 2, tr)
            finally:
                tr.uninstall()
            runs = [plain, traced]
            values = tracer.median_metrics(traced["layers"])
            values["trace.overhead_s"] = (statistics.median(traced["walls"])
                                          - statistics.median(plain["walls"]))
            declared = spec["per_layer"]
        else:
            measured = passes(ops, seconds)
            runs = [measured]
            wall_s = statistics.median(measured["walls"])
            values = dict(
                wall_s=wall_s,
                items_per_s=pass_items / wall_s,
                setup_s=setup_s,
                peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
            declared = spec["end_to_end"]

    failures = [f for r in runs for f in r["failures"]]
    restored = tracer.unwrapped(snapshot)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(len(ops) * len(r["walls"]) for r in runs)
    result = dict(correct=not failures and restored, attempted=attempted,
                  failed=len(failures), metrics=metrics)
    meta = dict(
        workload=workload, seed=seed, seconds=seconds, trace=trace, **machine(),
        samples=[len(r["walls"]) for r in runs],
        wall_s_samples=[r["walls"] for r in runs],
        setup=dict(import_s=imports, build_s=builds),
        pass_items=pass_items,
        ops=[dict(name=op.name, items=op.items, max_elements=op.max_elements,
                  median_s=statistics.median(runs[-1]["op_times"][i]))
             for i, op in enumerate(ops)],
        failures=failures[:20],
        unwrapped_after_run=restored,
    )
    return meta, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cdloops" / "__init__.py").is_file():
        print(f"error: no cdloops sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in meta["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
