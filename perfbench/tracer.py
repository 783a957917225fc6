"""Layer spans for the traced benchmark run, recorded from outside the package.

``install`` replaces each layer's public functions, wherever an ``ewfs``
module binds them (the defining module and every layer above it), with a
wrapper that records a span: its name, start, end and the span that was open
when it began.  ``DensityMatrix.__post_init__`` and
``SpaceLayout.__post_init__`` are wrapped on the class.  Spans stay in memory
and are reduced to per-name call counts and self times (span time minus the
time of its child spans) when the traced process ends.

Nothing in ``src/`` is edited: a function that a later version removes or
renames simply reads 0 calls.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc

# Layer -> public functions wrapped at every binding site.
WRAPPED = {
    "qcore": (
        "partial_trace", "project_component", "born_probability", "embed",
        "apply", "slice_state", "mix", "dephase",
    ),
    "measurement": ("complete_basis", "build_dilation", "outcome_distribution"),
    "protocol": ("exact_joint", "sample_records", "tally_joint", "episode_lengths"),
    "perspectives": ("assign", "record_distribution"),
    "reasoning": ("audit", "evaluate"),
    "cli": ("_cmd_exact", "_cmd_mc", "_cmd_perspectives", "_cmd_audit", "_write_outputs"),
}

SEMANTICS = ("collapse", "unitary")
RULES = ("collapse-aware", "unitary-global", "own-record-pure")
RULESETS = ("fr-mixed", "all-collapse", "all-unitary")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Span names that depend on an argument: one span name per semantics, rule or rule set.
_NAMERS = {
    "protocol.exact_joint": lambda a, k: "protocol.exact_joint." + _arg(a, k, 0, "config").semantics,
    "perspectives.assign": lambda a, k: "perspectives.assign." + _arg(a, k, 0, "p").rule.kind,
    "reasoning.audit": lambda a, k: "reasoning.audit." + _arg(a, k, 0, "ruleset_name"),
}
_RENAMED = {
    "cli._cmd_exact": "cli.command",
    "cli._cmd_mc": "cli.command",
    "cli._cmd_perspectives": "cli.command",
    "cli._cmd_audit": "cli.command",
    "cli._write_outputs": "cli.write_outputs",
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, alloc: bool = False) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.alloc = alloc  # tracemalloc around sample_records (slow; off for timing)
        self.rounds = 0
        self.peak_alloc_bytes = 0

    def wrap(self, fn, name: str, namer=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_sampler(self, fn):
        """sample_records: a span, the round count, and optionally its tracemalloc peak."""
        inner = self.wrap(fn, "protocol.sample_records")

        def sampler(config, n_rounds, *args, **kwargs):
            self.rounds += int(n_rounds)
            if not self.alloc:
                return inner(config, n_rounds, *args, **kwargs)
            tracemalloc.start()
            try:
                return inner(config, n_rounds, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak)

        sampler.__wrapped__ = fn
        return sampler

    def aggregate(self) -> dict:
        """Per span name: call count and self time in ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
        return {
            "calls": calls,
            "self_ns": self_ns,
            "rounds": self.rounds,
            "peak_alloc_bytes": self.peak_alloc_bytes,
        }


def _ewfs_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "ewfs" or name.startswith("ewfs.")]


def install(tracer: Tracer) -> None:
    """Wrap every layer function at each of its bindings in the loaded ``ewfs`` modules."""
    from ewfs import qcore

    modules = _ewfs_modules()
    for layer, names in WRAPPED.items():
        mod = sys.modules.get(f"ewfs.{layer}")
        if mod is None:
            continue
        for fname in names:
            orig = getattr(mod, fname, None)
            if orig is None:
                continue
            key = f"{layer}.{fname}"
            if key == "protocol.sample_records":
                traced = tracer.wrap_sampler(orig)
            else:
                traced = tracer.wrap(orig, _RENAMED.get(key, key), _NAMERS.get(key))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)
    for cls, name in ((qcore.DensityMatrix, "qcore.density_matrix"), (qcore.SpaceLayout, "qcore.space_layout")):
        cls.__post_init__ = tracer.wrap(cls.__post_init__, name)


def theta_caches() -> dict:
    """Summed ``cache_info()`` of every ``lru_cache`` in ``ewfs`` whose function takes ``theta``."""
    out = {"hits": 0, "misses": 0, "entries": 0}
    seen = set()
    for mod in _ewfs_modules():
        for value in list(vars(mod).values()):
            info = getattr(value, "cache_info", None)
            if info is None or id(value) in seen:
                continue
            try:
                params = inspect.signature(value).parameters
            except (TypeError, ValueError):
                continue
            if "theta" not in params:
                continue
            seen.add(id(value))
            ci = info()
            out["hits"] += ci.hits
            out["misses"] += ci.misses
            out["entries"] += ci.currsize
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics: names, units, and how they are read off merged aggregates.
# ---------------------------------------------------------------------------


def _calls_self(span: str) -> list[tuple[str, str, str]]:
    return [(f"{span}.calls", "count", span), (f"{span}.self_s", "s", span)]


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    return [(name, unit) for name, unit, _ in _span_metrics()] + _EXTRA


def _span_metrics() -> list[tuple[str, str, str]]:
    """(metric name, unit, span name) for metrics read straight off span aggregates."""
    rows = [
        ("qcore.density_matrix.constructed", "count", "qcore.density_matrix"),
        ("qcore.density_matrix.validate_s", "s", "qcore.density_matrix"),
        ("qcore.space_layout.constructed", "count", "qcore.space_layout"),
    ]
    for fname in WRAPPED["qcore"]:
        rows += _calls_self(f"qcore.{fname}")
    for fname in WRAPPED["measurement"]:
        rows += _calls_self(f"measurement.{fname}")
    for sem in SEMANTICS:
        rows += _calls_self(f"protocol.exact_joint.{sem}")
    rows += [
        ("protocol.sample_records.calls", "count", "protocol.sample_records"),
        ("protocol.sample_records.self_s", "s", "protocol.sample_records"),
        ("protocol.tally_joint.self_s", "s", "protocol.tally_joint"),
        ("protocol.episode_lengths.self_s", "s", "protocol.episode_lengths"),
    ]
    for rule in RULES:
        rows += _calls_self(f"perspectives.assign.{rule}")
    rows += _calls_self("perspectives.record_distribution")
    for rs in RULESETS:
        rows.append((f"reasoning.audit.{rs}.self_s", "s", f"reasoning.audit.{rs}"))
    rows += [
        ("reasoning.evaluate.calls", "count", "reasoning.evaluate"),
        ("cli.command.self_s", "s", "cli.command"),
        ("cli.write_outputs.self_s", "s", "cli.write_outputs"),
    ]
    return rows


_EXTRA = [
    ("protocol.sample_records.ns_per_round", "ns"),
    ("protocol.sample_records.peak_alloc_mb", "MB"),
    ("protocol.theta_cache.entries", "count"),
    ("protocol.theta_cache.hits", "count"),
    ("protocol.theta_cache.misses", "count"),
    ("cli.import_s", "s"),
    ("probe.qcore.dephase_ms", "ms"),
    ("probe.protocol.run_round.collapse_ms", "ms"),
    ("probe.protocol.run_round.unitary_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


def merge(aggregates: list[dict]) -> dict:
    """Sum the span and cache aggregates of several traced processes."""
    out = {"calls": {}, "self_ns": {}, "rounds": 0, "theta_cache": {"hits": 0, "misses": 0, "entries": 0}}
    for agg in aggregates:
        for key in ("calls", "self_ns"):
            for name, v in agg[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["rounds"] += agg["rounds"]
        for k, v in agg.get("theta_cache", {}).items():
            out["theta_cache"][k] += v
    return out


def span_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """Metrics computed from merged span aggregates (everything but import, probes, overhead)."""
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, span in _span_metrics():
        if unit == "count":
            out[metric] = (agg["calls"].get(span, 0), unit)
        else:
            out[metric] = (agg["self_ns"].get(span, 0) / 1e9, unit)
    sample_ns = agg["self_ns"].get("protocol.sample_records", 0)
    rounds = agg["rounds"]
    out["protocol.sample_records.ns_per_round"] = (sample_ns / rounds if rounds else 0.0, "ns")
    out["protocol.sample_records.peak_alloc_mb"] = (agg["peak_alloc_bytes"] / 2**20, "MB")
    cache = agg["theta_cache"]
    out["protocol.theta_cache.entries"] = (cache["entries"], "count")
    out["protocol.theta_cache.hits"] = (cache["hits"], "count")
    out["protocol.theta_cache.misses"] = (cache["misses"], "count")
    return out
