"""Spans and call counters wrapped around cdloops' layers from outside.

The tracer replaces each traced function at every module binding and class
attribute that cdloops reaches it through (for example
`analytics.coset_twist_matrix` as well as `central_product.coset_twist_matrix`),
so calls made inside the library are seen as well as calls made by the
benchmark.  Layer functions get spans; hot per-element methods get counters
only, because a span per call would cost more than the call.  Nothing is
installed until `Tracer.install` runs, and `uninstall` puts every original
object back.
"""

from __future__ import annotations

import functools
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

MARK = "__cdbench_wrapped__"


# (metric prefix, module, attribute path, items(args, result) or None).
# Items are counted in the enumeration budget's units: coset or element
# pairs and triples, and N^2 cells for table-wide passes.
SPANS = (
    ("central_product.twist_tables", "central_product", "CentralProduct.twist_tables", None),
    ("central_product.coset_twist_matrix", "central_product", "coset_twist_matrix",
     lambda a, r: a[0].coset_count ** 2),
    ("analytics.commutativity_degree_brute", "analytics", "commutativity_degree_brute", None),
    ("analytics.commutant_coset_sizes", "analytics", "commutant_coset_sizes", None),
    ("analytics.commutator_exponent_image", "analytics", "commutator_exponent_image", None),
    ("analytics.associator_exponent_image", "analytics", "associator_exponent_image", None),
    ("analytics.associativity_degree_brute", "analytics", "associativity_degree_brute",
     lambda a, r: a[0].order ** 3),
    ("analytics.moufang_identity_holds", "analytics", "moufang_identity_holds",
     lambda a, r: a[0].order ** 3),
    ("analytics.is_di_associative", "analytics", "is_di_associative", None),
    ("analytics.rank_census_brute", "analytics", "rank_census_brute", None),
    ("analytics.commutant", "analytics", "commutant", None),
    ("abstract_loop.to_table", "abstract_loop", "to_table", lambda a, r: r.size ** 2),
    ("abstract_loop.serialize_loop_table", "abstract_loop", "serialize_loop_table",
     lambda a, r: a[0].size ** 2),
    ("abstract_loop.parse_loop_table", "abstract_loop", "parse_loop_table",
     lambda a, r: r.size ** 2),
    ("abstract_loop.AbstractLoop.center", "abstract_loop", "AbstractLoop.center", None),
    ("abstract_loop.AbstractLoop.commutant_sizes", "abstract_loop", "AbstractLoop.commutant_sizes", None),
    ("abstract_loop.AbstractLoop.element_orders", "abstract_loop", "AbstractLoop.element_orders", None),
    ("abstract_loop.AbstractLoop.closure", "abstract_loop", "AbstractLoop.closure", None),
    ("abstract_loop.find_isomorphism", "abstract_loop", "find_isomorphism", None),
    ("decompose.recover_factors", "decompose", "recover_factors", None),
    ("decompose.match_factors", "decompose", "match_factors", None),
    ("cli", "cli", "main", None),
)

COUNTERS = (
    ("cdloop.mul", "cdloop", "CDLoop.mul"),
    ("cdloop.twist_exp", "cdloop", "CDLoop.twist_exp"),
    ("central_product.pmul", "central_product", "CentralProduct.pmul"),
    ("budget.ensure_budget", "budget", "ensure_budget"),
)


@dataclass(eq=False)
class Span:
    """One traced call; `parent` is the span that was open when it began."""

    name: str
    start: float
    end: float
    parent: "Span | None"
    op_id: int
    items: int = 0
    found: bool = False
    match: bool = False


@dataclass
class Binding:
    """One place a traced function is reachable: owner.attr holds original."""

    owner: object
    attr: str
    original: object


def _cdloops_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cdloops" or name.startswith("cdloops."))]


def _resolve(module: str, path: str):
    """The defining object (a class for methods) and the original function."""
    owner = sys.modules[f"cdloops.{module}"]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


def bindings(module: str, path: str) -> list[Binding]:
    """Every cdloops module binding and class attribute holding the function."""
    owner, attr, original = _resolve(module, path)
    if isinstance(owner, type):
        return [Binding(owner, attr, original)]
    return [Binding(m, name, original)
            for m in _cdloops_modules()
            for name, value in vars(m).items() if value is original]


def all_bindings() -> list[Binding]:
    """The bindings of every span and counter target, as found now."""
    targets = [(module, path) for _, module, path, _ in SPANS]
    targets += [(module, path) for _, module, path in COUNTERS]
    return [b for module, path in targets for b in bindings(module, path)]


def unwrapped(snapshot: list[Binding]) -> bool:
    """True if every binding still holds its original, unwrapped object."""
    return all(vars(b.owner).get(b.attr) is b.original
               and not hasattr(b.original, MARK) for b in snapshot)


@dataclass
class Tracer:
    """In-memory span recorder; spans stay in memory until the process ends."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    op_id: int = -1
    _stack: list[Span] = field(default_factory=list)
    _installed: list[Binding] = field(default_factory=list)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, prefix: str, fn, items):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(prefix, perf_counter(), 0.0, stack[-1] if stack else None, self.op_id)
            if prefix == "cli":  # cli.main: one span name per subcommand
                argv = list((args[0] if args else kwargs.get("argv")) or ["main"])
                span.name = f"cli.{argv[0]}"
                span.match = "--match-against" in argv
            stack.append(span)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if items is not None:
                span.items = items(args, result)
            span.found = result is not None
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counter_wrapper(self, prefix: str, fn):
        counts = self.counts
        counts.setdefault(prefix, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for prefix, module, path, items in SPANS:
            found = bindings(module, path)
            self._rebind(found, self._span_wrapper(prefix, found[0].original, items))
        for prefix, module, path in COUNTERS:
            found = bindings(module, path)
            self._rebind(found, self._counter_wrapper(prefix, found[0].original))

    def _rebind(self, found: list[Binding], wrapper) -> None:
        """One wrapper per function, shared by all of its bindings."""
        for b in found:
            setattr(b.owner, b.attr, wrapper)
            self._installed.append(b)

    def uninstall(self) -> None:
        for b in reversed(self._installed):
            setattr(b.owner, b.attr, b.original)
        self._installed.clear()

    # -- per-pass bookkeeping -------------------------------------------------

    def measure(self, run_pass):
        """Run one pass; returns its result and the pass's per-layer metrics."""
        first = len(self.spans)
        for key in self.counts:
            self.counts[key] = 0
        result = run_pass()
        return result, layer_metrics(self.spans[first:], self.counts)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(id(s), ())):
            start, end = max(start, reach, s.start), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for prefix, *_ in SPANS:
        if prefix != "cli":
            stats[prefix] = dict(calls=0, self_s=0.0, items=0, found=0, max_s=0.0)
    stats["cli.decompose"] = dict(calls=0, self_s=0.0, items=0, found=0, max_s=0.0)
    for s, own in zip(spans, selfs):
        row = stats.setdefault(s.name, dict(calls=0, self_s=0.0, items=0, found=0, max_s=0.0))
        row["calls"] += 1
        row["self_s"] += own
        row["items"] += s.items
        row["found"] += s.found
        row["max_s"] = max(row["max_s"], s.end - s.start)

    # find_isomorphism calls made under `cdl decompose --match-against`.
    matches = sum(1 for s in spans if s.name == "cli.decompose" and s.match)
    under = 0
    for s in spans:
        if s.name != "abstract_loop.find_isomorphism":
            continue
        parent = s.parent
        while parent is not None and not (parent.name == "cli.decompose" and parent.match):
            parent = parent.parent
        under += parent is not None

    out: dict[str, float] = {}
    for name, row in stats.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.items_per_s"] = row["items"] / row["self_s"] if row["self_s"] > 0 else 0.0
        out[f"{name}.found"] = row["found"]
        out[f"{name}.max_s"] = row["max_s"]
    out["cli.decompose.iso_calls_per_match"] = under / matches if matches else 0.0
    for prefix, count in counts.items():
        out[f"{prefix}.calls"] = count
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes; counts that agree across passes stay integers."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        exact = all(isinstance(v, int) for v in values) and len(set(values)) == 1
        out[key] = values[0] if exact else statistics.median(values)
    return out
