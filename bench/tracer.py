"""Spans and counters recorded at sylsum's module boundaries, from outside.

``install(tracer)`` replaces each public function in ``HOOKS`` with a wrapper
that records a span (name, start, end, parent, request id) or bumps a
counter, wherever a ``sylsum`` module has the function bound, so a call made
through ``sums``'s own import of ``apery_set`` is seen as well as one made
through ``sylsum.semigroup``.  Nothing inside ``sylsum`` changes; the
wrappers are removed again by ``uninstall``.

A layer's self time is its span's duration minus the durations of its direct
child spans.  Spans are kept in memory and written out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (span or counter name, module, attribute, mode).  ``span`` records every
# call, ``outermost`` only calls not already inside a span of the same name
# (``__pow__`` squares through ``__mul__`` and recurses for negative
# exponents), ``count`` only counts calls.
HOOKS = (
    ("exactnum.pow", "sylsum.exactnum", "FieldElement.__pow__", "outermost"),
    ("exactnum.mul", "sylsum.exactnum", "FieldElement.__mul__", "count"),
    ("exactnum.mul", "sylsum.exactnum", "FieldElement.__rmul__", "count"),
    ("exactnum.inverse", "sylsum.exactnum", "FieldElement.inverse", "span"),
    ("sums.dispatch", "sylsum.sums", "dispatch_sum", "span"),
    ("semigroup.apery", "sylsum.semigroup", "apery_set", "span"),
    ("semigroup.gap_set", "sylsum.semigroup", "gap_set", "span"),
    ("combinatorics.eulerian", "sylsum.combinatorics", "eulerian", "span"),
    ("combinatorics.bernoulli", "sylsum.combinatorics", "bernoulli", "span"),
    ("oracle.brute_force", "sylsum.oracle", "brute_force_weighted_sum", "span"),
    ("cli.run_command", "sylsum.cli", "run_command", "span"),
    ("cli.parse", "sylsum.cli", "parse_element", "span"),
    ("cli.serialise", "sylsum.cli", "canonical_str", "span"),
    ("cli.serialise", "sylsum.cli", "pretty_str", "span"),
    ("cli.serialise", "sylsum.cli", "element_to_obj", "span"),
)

# Spans the benchmark itself opens: the request root, and for a CLI request
# the time from spawning the child to its entry into ``run_command``.
REQUEST = "request"
STARTUP = "cli.startup"

# (metric, unit, source name, statistic).  ``self_ms`` / ``incl_ms`` are
# mean self / inclusive milliseconds per request, ``spans`` the mean number
# of spans per request, ``count`` the mean counter value per request and
# ``median`` the median over requests of a per-request size.
LAYER_METRICS = (
    ("exactnum.pow_ms", "ms", "exactnum.pow", "self_ms"),
    ("exactnum.pow_calls", "count", "exactnum.pow", "spans"),
    ("exactnum.mul_calls", "count", "exactnum.mul", "count"),
    ("exactnum.inverse_ms", "ms", "exactnum.inverse", "self_ms"),
    ("exactnum.result_bits", "bits", "exactnum.result_bits", "median"),
    ("sums.dispatch_ms", "ms", "sums.dispatch", "incl_ms"),
    ("sums.self_ms", "ms", "sums.dispatch", "self_ms"),
    ("semigroup.apery_ms", "ms", "semigroup.apery", "self_ms"),
    ("semigroup.apery_calls", "count", "semigroup.apery", "spans"),
    ("semigroup.gap_set_ms", "ms", "semigroup.gap_set", "self_ms"),
    ("semigroup.max_apery", "count", "semigroup.max_apery", "median"),
    ("combinatorics.eulerian_ms", "ms", "combinatorics.eulerian", "self_ms"),
    ("combinatorics.eulerian_calls", "count", "combinatorics.eulerian", "spans"),
    ("combinatorics.bernoulli_ms", "ms", "combinatorics.bernoulli", "self_ms"),
    ("oracle.brute_force_ms", "ms", "oracle.brute_force", "self_ms"),
    ("oracle.gaps_enumerated", "count", "oracle.gaps_enumerated", "count"),
    ("cli.startup_ms", "ms", STARTUP, "self_ms"),
    ("cli.parse_ms", "ms", "cli.parse", "self_ms"),
    ("cli.serialise_ms", "ms", "cli.serialise", "self_ms"),
    ("cli.self_ms", "ms", "cli.run_command", "self_ms"),
    ("trace.request_ms", "ms", REQUEST, "incl_ms"),
    ("trace.unattributed_ms", "ms", REQUEST, "self_ms"),
)

# Sizes recorded by a hook from its return value, and the hook they belong to.
SIZE_SOURCES = {
    "semigroup.max_apery": "semigroup.apery",
    "oracle.gaps_enumerated": "semigroup.gap_set",
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.stack: list[int] = []
        self.counters: dict[tuple, int] = {}
        self.sizes: dict[tuple, int] = {}
        self.depth: dict[str, int] = {}
        self.request = None  # id of the request being traced; None = off
        self.installed: list[tuple] = []
        self.missing: set[str] = set()

    def open(self, name: str, start: int | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        now = time.monotonic_ns() if start is None else start
        self.spans.append([name, now, now, parent, self.request])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic_ns()
        self.stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        key = (self.request, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def size(self, name: str, value: int) -> None:
        key = (self.request, name)
        self.sizes[key] = max(self.sizes.get(key, value), value)

    def in_span(self, name: str) -> bool:
        return self.depth.get(name, 0) > 0

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [[r, n, v] for (r, n), v in self.counters.items()],
            "sizes": [[r, n, v] for (r, n), v in self.sizes.items()],
            "missing": sorted(self.missing),
        }

    def merge(self, data: dict, parent: int, request) -> None:
        """Graft spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _ in data["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else base + par, request])
        for _, name, value in data["counters"]:
            key = (request, name)
            self.counters[key] = self.counters.get(key, 0) + value
        for _, name, value in data["sizes"]:
            key = (request, name)
            self.sizes[key] = max(self.sizes.get(key, value), value)
        self.missing.update(data["missing"])


def _observe(tracer: Tracer, name: str, result) -> None:
    if name == "semigroup.apery":
        tracer.size("semigroup.max_apery", max(result.reps))
    elif name == "semigroup.gap_set" and tracer.in_span("oracle.brute_force"):
        tracer.count("oracle.gaps_enumerated", len(result))


def _wrap(tracer: Tracer, name: str, mode: str, fn):
    if mode == "count":

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.request is not None:
                tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if tracer.request is None or (mode == "outermost" and tracer.in_span(name)):
            return fn(*args, **kwargs)
        tracer.depth[name] = tracer.depth.get(name, 0) + 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.depth[name] -= 1
        _observe(tracer, name, result)
        return result

    return spanned


def install(tracer: Tracer) -> None:
    """Wrap every hook that exists; record the names of those that do not."""
    modules = [m for n, m in sys.modules.items() if n == "sylsum" or n.startswith("sylsum.")]
    for name, module_name, attr, mode in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[method] if cls_name else getattr(owner, method)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.add(name)
            continue
        wrapper = _wrap(tracer, name, mode, original)
        if cls_name:
            setattr(owner, method, wrapper)
            tracer.installed.append((owner, method, original))
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    tracer.installed.append((module, key, original))


def uninstall(tracer: Tracer) -> None:
    for owner, key, original in reversed(tracer.installed):
        setattr(owner, key, original)
    tracer.installed.clear()


def layer_metrics(tracer: Tracer, requests: int, expected: set[str]) -> dict:
    """Per-layer metrics over ``requests`` traced requests.

    A metric whose hook is absent from the program, or whose layer the
    workload is expected to run (``expected`` holds hook names) but which
    recorded nothing, is reported with value None and ``"missing": True``.
    """
    n = max(requests, 1)
    children = [0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    incl: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    nspans: dict[str, int] = {}
    for idx, (name, start, end, _, _) in enumerate(tracer.spans):
        incl[name] = incl.get(name, 0) + end - start
        self_ns[name] = self_ns.get(name, 0) + end - start - children[idx]
        nspans[name] = nspans.get(name, 0) + 1
    counters: dict[str, int] = {}
    for (_, name), value in tracer.counters.items():
        counters[name] = counters.get(name, 0) + value
    sizes: dict[str, list] = {}
    for (_, name), value in tracer.sizes.items():
        sizes.setdefault(name, []).append(value)

    out = {}
    for metric, unit, source, stat in LAYER_METRICS:
        hook = SIZE_SOURCES.get(source, source)
        seen = nspans.get(source, 0) + counters.get(source, 0) + len(sizes.get(source, ()))
        if hook in tracer.missing or (hook in expected and not seen):
            out[metric] = {"value": None, "unit": unit, "missing": True}
            continue
        if stat == "self_ms":
            value = self_ns.get(source, 0) / n / 1e6
        elif stat == "incl_ms":
            value = incl.get(source, 0) / n / 1e6
        elif stat == "spans":
            value = nspans.get(source, 0) / n
        elif stat == "count":
            value = counters.get(source, 0) / n
        else:
            value = statistics.median(sizes[source]) if source in sizes else 0
        out[metric] = {"value": value, "unit": unit}
    return out


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
