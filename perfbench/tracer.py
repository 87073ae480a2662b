"""Spans around calls into divcorr's public functions, recorded from outside.

The tracer rebinds each traced function in every divcorr module that holds
it, the package namespace included, because harness and cli import functions
by name and call them through their own bindings.  A span records wall time
and, in a memory-tracing iteration, the peak of the allocations that
tracemalloc sees inside a sieve or correlate span.  tracemalloc runs only
while such a span is open, and never in the iterations that give the time
metrics, because tracking every Python object multiplies the time of the
per-n loops (tau, genrec, the general-spec sums).  Per-n helpers of arith are
counted, not timed, since a span per call would distort the run.

Self time: a span's duration minus that of its child spans.  The self time of
a span that has no metric of its own is credited to the nearest enclosing
span of the same layer, and the private seams are credited to whichever span
encloses them, so that metrics keyed on public names do not change when a
private helper appears or disappears.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

from workloads import SUITES, shape_of

LAYERS = ("sieve", "correlate", "arith", "constants", "harness", "cli")
COUNTED = ("arith.factorize", "arith.trial_factorize", "arith.eval_mult")
SPANNED_ARITH = ("arith.ramanujan_tau_table",)
PER_N = ("sieve.shifted_product_divisor_count",)
PRIVATE_SEAMS = ("correlate._exact_sum", "correlate._dpoly_prefix_sum")
MAIN_TERMS = (
    "constants.estermann_main_term",
    "constants.shifted_product_main_term",
    "constants.sigma_correlation_main_term",
)
IDENTITY_REPORTS = (
    "constants.sigma_lambda_identity",
    "constants.binomial_log_identity",
    "constants.coefficient_consistency",
)
MEMORY_LAYERS = ("sieve", "correlate")
MEMORY_METRICS = tuple(f"{layer}.peak_alloc_mb" for layer in MEMORY_LAYERS)
SHAPE_KEYS = {"1": "v1", "p": "p", "p2": "p2", "pq": "pq", "p2q": "p2q", "p2qr": "p2qr"}
MIB = 1 << 20

# span names that carry a metric own their self time
METRIC_SPANS = frozenset(
    (
        "sieve.build_divisor_table",
        "sieve.build_spf",
        "sieve.shifted_product_values",
        "correlate.sum_dd",
        "correlate.sum_dd_from_dpoly",
        "correlate.sum_dpoly_from_dd",
        "correlate.transform_correlation",
        "correlate.sum_shifted_product",
        "correlate.sum_correlation",
        "arith.ramanujan_tau_table",
        "constants.compute_zeta_constants",
        "harness.run_compare",
        "harness.run_verify",
        "harness.emit",
        "cli.main",
    )
    + MAIN_TERMS
    + IDENTITY_REPORTS
    + tuple(f"harness.suite.{s}" for s in SUITES)
)

# name -> unit, better; the per-layer metrics of a traced run, in print order
PER_LAYER = {
    "sieve.build_divisor_table.self_s": ("s", "lower"),
    "sieve.build_divisor_table.elems": ("count", "lower"),
    "sieve.build_divisor_table.ns_per_elem": ("ns", "lower"),
    "sieve.build_spf.self_s": ("s", "lower"),
    "sieve.build_spf.elems": ("count", "lower"),
    "sieve.shifted_product_values.self_s": ("s", "lower"),
    "sieve.shifted_product_values.calls": ("count", "lower"),
    "sieve.shifted_product_values.elems": ("count", "lower"),
    **{
        f"sieve.shifted_product_values.ns_per_elem.{k}": ("ns", "lower")
        for k in SHAPE_KEYS.values()
    },
    "sieve.peak_alloc_mb": ("MiB", "lower"),
    "sieve.table_mb_computed": ("MiB", "lower"),
    "correlate.sum_dd.self_s": ("s", "lower"),
    "correlate.sum_dd.terms": ("count", "lower"),
    "correlate.sum_dd.ns_per_term": ("ns", "lower"),
    "correlate.sum_dd_from_dpoly.self_s": ("s", "lower"),
    "correlate.sum_dpoly_from_dd.self_s": ("s", "lower"),
    "correlate.transform_correlation.self_s": ("s", "lower"),
    "correlate.sum_shifted_product.self_s": ("s", "lower"),
    "correlate.sum_shifted_product.terms": ("count", "lower"),
    "correlate.sum_shifted_product.us_per_term": ("us", "lower"),
    "correlate.sum_correlation.self_s": ("s", "lower"),
    "correlate.sum_correlation.terms": ("count", "lower"),
    "correlate.sieved_elems_per_term": ("ratio", "lower"),
    "correlate.peak_alloc_mb": ("MiB", "lower"),
    "arith.ramanujan_tau_table.self_s": ("s", "lower"),
    "arith.ramanujan_tau_table.limit": ("count", "lower"),
    "arith.factorize.calls": ("count", "lower"),
    "arith.trial_factorize.calls": ("count", "lower"),
    "arith.eval_mult.calls": ("count", "lower"),
    "constants.compute_zeta_constants.self_s": ("s", "lower"),
    "constants.compute_zeta_constants.calls": ("count", "lower"),
    "constants.compute_zeta_constants.cache_hits": ("count", "higher"),
    "constants.main_term.calls": ("count", "lower"),
    "constants.main_term.self_s": ("s", "lower"),
    "constants.identity_reports.self_s": ("s", "lower"),
    "harness.run_compare.self_s": ("s", "lower"),
    "harness.run_verify.self_s": ("s", "lower"),
    "harness.emit.self_s": ("s", "lower"),
    "harness.emit.bytes": ("bytes", "lower"),
    **{
        f"harness.suite.{s}.{field}": unit
        for s in SUITES
        for field, unit in (("s", ("s", "lower")), ("checks", ("count", "higher")))
    },
    "cli.main.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "run.cpu_s": ("s", "lower"),
    "run.tracing_overhead_s": ("s", "lower"),
    "run.unattributed_s": ("s", "lower"),
    "run.coverage": ("ratio", "higher"),
}


def rebind(original, replacement) -> None:
    """Replace every binding of `original` in the loaded divcorr modules."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "divcorr" or name.startswith("divcorr.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class _Span:
    __slots__ = ("name", "layer", "owner", "t0", "child", "base", "peak", "parent", "starts")

    def __init__(self, name, layer, owner, parent, base, starts):
        self.name = name
        self.starts = starts
        self.layer = layer
        self.owner = owner
        self.parent = parent
        self.child = 0.0
        self.base = base
        self.peak = base
        self.t0 = time.perf_counter()


class Tracer:
    """In-memory span and counter store for one traced workload iteration."""

    def __init__(self, track_memory: bool) -> None:
        self.track_memory = track_memory
        self.stack: list[_Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.owned: dict[str, float] = defaultdict(float)
        self.elems: dict[str, int] = defaultdict(int)
        self.checks: dict[str, int] = defaultdict(int)
        self.shape_self: dict[str, float] = defaultdict(float)
        self.shape_elems: dict[str, int] = defaultdict(int)
        self.layer_peak: dict[str, int] = defaultdict(int)
        self.table_bytes = 0
        self.emit_bytes = 0
        self.sieved_in_correlate = 0
        self.correlate_terms = 0
        self.top_level_s = 0.0

    # -- memory -----------------------------------------------------------
    def _sample_peak(self) -> int:
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for span in self.stack:
            if peak > span.peak:
                span.peak = peak
        tracemalloc.reset_peak()
        return current

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> _Span:
        layer = name.split(".", 1)[0]
        parent = self.stack[-1] if self.stack else None
        if name in PRIVATE_SEAMS and parent is not None:
            owner = parent.owner
        elif name in METRIC_SPANS or parent is None or parent.layer != layer:
            owner = name
        else:
            owner = parent.owner
        starts = (
            self.track_memory and layer in MEMORY_LAYERS and not tracemalloc.is_tracing()
        )
        if starts:
            tracemalloc.start()
        span = _Span(name, layer, owner, parent, self._sample_peak(), starts)
        self.stack.append(span)
        return span

    def _exit(self, span: _Span) -> float:
        duration = time.perf_counter() - span.t0
        self._sample_peak()
        if span.starts:
            tracemalloc.stop()
        self.stack.pop()
        self_s = duration - span.child
        self.calls[span.name] += 1
        self.total[span.name] += duration
        self.owned[span.owner] += self_s
        alloc = span.peak - span.base
        if alloc > self.layer_peak[span.layer]:
            self.layer_peak[span.layer] = alloc
        if span.parent is None:
            self.top_level_s += duration
        else:
            span.parent.child += duration
        return self_s

    def _in_layer(self, layer: str) -> bool:
        return any(s.layer == layer for s in self.stack)

    def _record(self, name: str, args: dict, result, self_s: float) -> None:
        """Work counts taken from a finished call's arguments and result."""
        if name in ("sieve.build_divisor_table", "sieve.build_spf"):
            self.elems[name] += result.limit
            arr = result.values if name.endswith("divisor_table") else result.spf
            self.table_bytes += arr.nbytes
        elif name == "sieve.shifted_product_values":
            limit = args["limit"]
            self.elems[name] += limit
            self.table_bytes += result.nbytes
            shape = shape_of(args["shift"])
            self.shape_self[shape] += self_s
            self.shape_elems[shape] += limit
            if self._in_layer("correlate"):
                self.sieved_in_correlate += limit
        elif name == "harness.emit":
            self.emit_bytes += len(result)
        elif name == "arith.ramanujan_tau_table":
            self.elems[name] += args["limit"]
        elif name.startswith("harness.suite."):
            self.checks[name] += result.checks
        if name.startswith("correlate.") and name not in PRIVATE_SEAMS and "x" in args:
            x = max(int(args["x"]), 0)
            self.elems[name] += x
            if not self._in_layer("correlate"):
                self.correlate_terms += x

    def span_wrapper(self, name: str, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s = self._exit(span)
            bound = {}
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            self._record(name, bound, result, self_s)
            return result

        return traced

    def count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap the traced functions of the six layers."""
        import divcorr  # noqa: F401  (loads every layer module)

        for layer in LAYERS:
            mod = sys.modules[f"divcorr.{layer}"]
            for attr, fn in list(vars(mod).items()):
                full = f"{layer}.{attr}"
                if full in COUNTED:
                    rebind(fn, self.count_wrapper(full, fn))
                    continue
                public = (
                    not attr.startswith("_")
                    and callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                )
                if full in PRIVATE_SEAMS or (
                    public
                    and full not in PER_N
                    and (layer != "arith" or full in SPANNED_ARITH)
                ):
                    rebind(fn, self.span_wrapper(full, fn))
            if layer == "harness":
                # verify suites are private seams; key them on the public
                # suite names and skip any that a refactor removed
                for suite in SUITES:
                    fn = getattr(mod, f"_suite_{suite}", None)
                    if fn is not None:
                        rebind(fn, self.span_wrapper(f"harness.suite.{suite}", fn))

    # -- metrics ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this iteration (the run.* ones excepted)."""
        owned, calls, elems = self.owned, self.calls, self.elems

        def rate(num: float, den: float, scale: float) -> float:
            return num * scale / den if den else 0.0

        m: dict[str, float] = {}
        for fn in ("build_divisor_table", "build_spf", "shifted_product_values"):
            m[f"sieve.{fn}.self_s"] = owned[f"sieve.{fn}"]
            m[f"sieve.{fn}.elems"] = elems[f"sieve.{fn}"]
        m["sieve.build_divisor_table.ns_per_elem"] = rate(
            owned["sieve.build_divisor_table"], elems["sieve.build_divisor_table"], 1e9
        )
        m["sieve.shifted_product_values.calls"] = calls["sieve.shifted_product_values"]
        for shape, key in SHAPE_KEYS.items():
            m[f"sieve.shifted_product_values.ns_per_elem.{key}"] = rate(
                self.shape_self[shape], self.shape_elems[shape], 1e9
            )
        m["sieve.peak_alloc_mb"] = self.layer_peak["sieve"] / MIB
        m["sieve.table_mb_computed"] = self.table_bytes / MIB

        for fn in (
            "sum_dd",
            "sum_dd_from_dpoly",
            "sum_dpoly_from_dd",
            "transform_correlation",
            "sum_shifted_product",
            "sum_correlation",
        ):
            m[f"correlate.{fn}.self_s"] = owned[f"correlate.{fn}"]
        for fn in ("sum_dd", "sum_shifted_product", "sum_correlation"):
            m[f"correlate.{fn}.terms"] = elems[f"correlate.{fn}"]
        m["correlate.sum_dd.ns_per_term"] = rate(
            owned["correlate.sum_dd"], elems["correlate.sum_dd"], 1e9
        )
        m["correlate.sum_shifted_product.us_per_term"] = rate(
            owned["correlate.sum_shifted_product"], elems["correlate.sum_shifted_product"], 1e6
        )
        m["correlate.sieved_elems_per_term"] = rate(
            self.sieved_in_correlate, self.correlate_terms, 1.0
        )
        m["correlate.peak_alloc_mb"] = self.layer_peak["correlate"] / MIB

        m["arith.ramanujan_tau_table.self_s"] = owned["arith.ramanujan_tau_table"]
        m["arith.ramanujan_tau_table.limit"] = elems["arith.ramanujan_tau_table"]
        for name in COUNTED:
            m[f"{name}.calls"] = calls[name]

        m["constants.compute_zeta_constants.self_s"] = owned["constants.compute_zeta_constants"]
        m["constants.compute_zeta_constants.calls"] = calls["constants.compute_zeta_constants"]
        m["constants.main_term.calls"] = sum(calls[n] for n in MAIN_TERMS)
        m["constants.main_term.self_s"] = sum(owned[n] for n in MAIN_TERMS)
        m["constants.identity_reports.self_s"] = sum(owned[n] for n in IDENTITY_REPORTS)

        for fn in ("run_compare", "run_verify", "emit"):
            m[f"harness.{fn}.self_s"] = owned[f"harness.{fn}"]
        m["harness.emit.bytes"] = self.emit_bytes
        for suite in SUITES:
            m[f"harness.suite.{suite}.s"] = self.total[f"harness.suite.{suite}"]
            m[f"harness.suite.{suite}.checks"] = self.checks[f"harness.suite.{suite}"]
        m["cli.main.self_s"] = owned["cli.main"]
        return m

    def span_table(self) -> dict[str, dict[str, float]]:
        """Every span name seen: calls, total seconds, owned self seconds."""
        return {
            n: {"calls": self.calls[n], "total_s": self.total[n], "owned_s": self.owned[n]}
            for n in sorted(self.calls)
            if self.calls[n]
        }
