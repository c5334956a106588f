"""The benchmark's tracer resolves its targets by name at start-up.

bench/run.py calls tracer.all_bindings() before every run, traced or not,
and that reads each target straight out of its defining class or module.
A target that is renamed, moved or only inherited would crash every
benchmark run, so the lookup is checked here with the library's own tests.
"""

import importlib.util
import sys
from pathlib import Path

import cdloops.cli  # noqa: F401  (the tracer reads cdloops modules from sys.modules)
from cdloops import CDLoop, CentralProduct

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("cdloops_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    bindings = tracer.all_bindings()
    targets = len(tracer.SPANS) + len(tracer.COUNTERS)
    assert len(bindings) >= targets
    assert tracer.unwrapped(bindings)
    for cls, names in ((CDLoop, ("mul", "twist_exp")), (CentralProduct, ("pmul", "twist_tables"))):
        for name in names:
            assert callable(vars(cls)[name])
