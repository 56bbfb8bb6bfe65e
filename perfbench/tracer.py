"""Spans and counters recorded around calls from the benchmark into boundkey.

A span is (id, name, start, end, parent).  Spans live in memory and are
written out once, when a run ends.  Every span is opened by benchmark code
around a call into one of boundkey's public functions; nothing inside
``src/boundkey`` is instrumented.  Clock: ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux, so spans recorded in child processes line up with
the parent's.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from types import SimpleNamespace

#: the public functions each layer's metrics are recorded for, by module
LAYER_FUNCTIONS = {
    "observables": ("min_settings_cover", "build_observables"),
    "shots": ("sample_scheme", "sample_prepared", "estimate_parameters", "certify"),
    "serialize": ("save_records", "load_records", "load_state", "save_state"),
    "keyrate": (
        "er_upper_bound",
        "canonical_twisting",
        "privacy_squeeze",
        "ccq_from_state",
        "dw_rate",
        "certified_bounds",
    ),
    "ppt": ("ppt_check", "ppt_invariance", "robustness_threshold"),
    "states": ("rho_u", "depolarize"),
    "linalg": ("von_neumann_entropy", "partial_transpose"),
}

#: span name of one CLI process, as seen from the benchmark
PROCESS_SPAN = "cli.process"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, parent: str | None = None):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[dict] = []
        self._root_parent = parent
        self._prefix = f"{os.getpid()}-"

    def open(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else self._root_parent
        span = {
            "id": f"{self._prefix}{len(self.spans)}",
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call and the
        counter hook for ``name``, if any, applied to the result."""
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def merge(self, doc: dict) -> None:
        """Add the spans and counters another process wrote out."""
        self.spans.extend(doc["spans"])
        for name, value in doc["counters"].items():
            self.count(name, value)

    def document(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.document(), fh)


def _count_cover(tracer, args, kwargs, cover):
    tracer.count("observables.cover_size", cover.size)
    tracer.count("observables.exhausted_up_to", cover.exhausted_up_to)


def _count_shots(tracer, args, kwargs, records):
    if not isinstance(records, list):
        records = [records]
    tracer.count("shots.shots_drawn", sum(rec.shots for rec in records))


def _count_floor(tracer, args, kwargs, report):
    floor = report.certified_bound
    tracer.count("shots.floors")
    tracer.count("shots.positive_floors", int(floor is not None and floor > 0.0))


def _count_records_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("serialize.records_bytes", os.path.getsize(path))


def _count_er(tracer, args, kwargs, result):
    tracer.count("keyrate.er_iterations", result.iterations)
    tracer.count("keyrate.er_restarts_completed", result.restarts_completed)
    tracer.count("keyrate.er_value", result.value)


RESULT_HOOKS = {
    "observables.min_settings_cover": _count_cover,
    "shots.sample_scheme": _count_shots,
    "shots.sample_prepared": _count_shots,
    "shots.estimate_parameters": _count_floor,
    "serialize.save_records": _count_records_bytes,
    "keyrate.er_upper_bound": _count_er,
}


def bind_layers(tracer: Tracer | None) -> SimpleNamespace:
    """boundkey's layer functions by bare name, wrapped when tracing.  A name
    the library no longer has is left out, so only a workload that calls it
    fails, and it reports zero calls."""
    bound = {}
    for module, names in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"boundkey.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn):
                bound[name] = fn if tracer is None else tracer.wrap(f"{module}.{name}", fn)
    return SimpleNamespace(**bound)


def wrap_module_names(tracer: Tracer, namespace) -> None:
    """Wrap, in place, every layer function that ``namespace`` imported.

    A name the namespace does not hold (because a later version dropped or
    renamed it) is skipped and reports zero calls.
    """
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            fn = getattr(namespace, name, None)
            if callable(fn):
                setattr(namespace, name, tracer.wrap(f"{module}.{name}", fn))


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""

    def noop():
        return None

    scratch = Tracer()
    traced = scratch.wrap("calibration", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    return max(wrapped - plain, 0.0) / calls


def layer_metrics(tracer: Tracer, scaled) -> dict[str, float]:
    """Per-layer figures: calls, self time and median call time of every
    function in LAYER_FUNCTIONS plus the CLI process span, then the
    counters, each normalised per call or per operation so that the
    counts fixed by the inputs repeat exactly from run to run.

    ``scaled(start, end, duration)`` converts a span's duration into the
    reported unit of time (reference seconds, in the benchmark)."""
    by_name: dict[str, list[dict]] = {}
    child_s: dict[str, float] = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            child_s[span["parent"]] = child_s.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    names = [f"{m}.{f}" for m, fs in LAYER_FUNCTIONS.items() for f in fs]
    out: dict[str, float] = {}
    for name in names + [PROCESS_SPAN]:
        spans = by_name.get(name, [])
        durations = [scaled(s["start"], s["end"], None) for s in spans]
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.busy_s"] = sum(
            scaled(s["start"], s["end"], s["end"] - s["start"] - child_s.get(s["id"], 0.0))
            for s in spans
        )
        out[f"{name}.p50_ms"] = 1000.0 * statistics.median(durations) if spans else 0.0

    c = tracer.counters

    def per(counter: str, calls: float) -> float:
        return c.get(counter, 0.0) / calls if calls else 0.0

    covers = out["observables.min_settings_cover.calls"]
    out["observables.cover_size"] = per("observables.cover_size", covers)
    out["observables.exhausted_up_to"] = per("observables.exhausted_up_to", covers)
    out["shots.shots_drawn"] = per("shots.shots_drawn", c.get("ops", 0))
    out["shots.positive_floor_ratio"] = per("shots.positive_floors", c.get("shots.floors", 0))
    out["serialize.records_bytes"] = per(
        "serialize.records_bytes", out["serialize.save_records.calls"]
    )
    searches = out["keyrate.er_upper_bound.calls"]
    out["keyrate.er_iterations"] = per("keyrate.er_iterations", searches)
    out["keyrate.er_restarts_completed"] = per("keyrate.er_restarts_completed", searches)
    out["keyrate.er_value"] = per("keyrate.er_value", searches)
    out["ppt.robustness_evals"] = per(
        "ppt.robustness_evals", out["ppt.robustness_threshold.calls"]
    )
    return out
