"""Span tracer that wraps tankfdi's public functions from outside the package.

Nothing under ``src/`` is touched: ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back. Each call records a span (id, parent id, name, start, end,
run id, counts) in memory; ``write_spans`` dumps them at the end of a run.

Targets that no longer exist (a refactor deleted or renamed them) are
recorded as absent instead of failing, and targets that exist but are never
called simply report zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + dotted ``attr`` -> span ``name``."""

    module: str
    attr: str
    name: str
    #: (args, result) -> counts recorded with the span, e.g. rows processed.
    count: Callable | None = None
    #: If set, the returned callable is wrapped too, under this span name.
    wrap_result: str | None = None


TARGETS = (
    Target("tankfdi.cli", "main", "cli.main"),
    Target("tankfdi.plant", "run", "plant.run"),
    Target("tankfdi.residuals", "residual_trace", "residuals.trace"),
    Target("tankfdi.residuals", "ResidualEvaluator.update", "residuals.update"),
    Target("tankfdi.fuzzy", "params_to_config", "fuzzy.config",
           count=lambda args, result: {"repaired": int(bool(result[1]))}),
    Target("tankfdi.fuzzy", "DetectorKernel.activations", "fuzzy.activations",
           count=lambda args, result: {"rows": len(args[1])}),
    Target("tankfdi.fuzzy", "DetectorKernel.degrees", "fuzzy.degrees"),
    Target("tankfdi.fuzzy", "DetectorKernel.run_block", "fuzzy.run_block"),
    Target("tankfdi.fuzzy", "Detector.detect", "fuzzy.detect"),
    Target("tankfdi.harness", "ResidualBank.from_suite", "harness.bank",
           count=lambda args, result: {"scenarios": len(result.scenarios)}),
    Target("tankfdi.harness", "evaluate_bank", "harness.evaluate_bank"),
    # tuner binds the name at import time, so its copy is patched as well.
    Target("tankfdi.tuner", "evaluate_bank", "harness.evaluate_bank"),
    Target("tankfdi.tuner", "make_fitness", "tuner.make_fitness",
           wrap_result="tuner.objective"),
    Target("tankfdi.tuner", "pso_tune", "tuner.optimizer"),
    Target("tankfdi.render", "emit_dot", "render.emit_dot"),
)


class Tracer:
    """Records spans while installed; the wrappers add two clock reads per call."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self.run_id = 0
        self.absent: set[str] = set()
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 1
        self._restore: list[tuple] = []

    def _wrap(self, fn: Callable, name: str, count: Callable | None,
              wrap_result: str | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            spans.append((span_id, parent, name, start, end, self.run_id,
                          count(args, result) if count else None))
            if wrap_result:
                return self._wrap(result, wrap_result, None, None)
            return result

        return wrapper

    def install(self) -> None:
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.update(filter(None, (target.name, target.wrap_result)))
                continue
            self.present.update(filter(None, (target.name, target.wrap_result)))
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = self._wrap(fn, target.name, target.count, target.wrap_result)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
        # A name is absent only if none of its targets was found.
        self.absent -= self.present

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, run, counts in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "run": run, "counts": counts}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans

#: (metric, unit, better, span name, statistic). Totals are divided by the
#: number of traced workload units (one CLI job, or one replayed scenario),
#: so runs that fit a different number of units stay comparable. Times are
#: scaled by their unit's host-speed factor, like the end-to-end timings.
LAYER_METRICS = (
    ("plant.run.calls", "count", "lower", "plant.run", "calls"),
    ("plant.run.ms_p50", "ms", "lower", "plant.run", "p50_ms"),
    ("plant.run.busy_s", "s", "lower", "plant.run", "busy_s"),
    ("residuals.trace.ms_p50", "ms", "lower", "residuals.trace", "p50_ms"),
    ("residuals.trace.busy_s", "s", "lower", "residuals.trace", "busy_s"),
    ("residuals.update.us_p50", "us", "lower", "residuals.update", "p50_us"),
    ("residuals.update.busy_s", "s", "lower", "residuals.update", "busy_s"),
    ("fuzzy.activations.calls", "count", "lower", "fuzzy.activations", "calls"),
    ("fuzzy.activations.rows", "count", "lower", "fuzzy.activations", "rows"),
    ("fuzzy.activations.ms_p50", "ms", "lower", "fuzzy.activations", "p50_ms"),
    ("fuzzy.activations.busy_s", "s", "lower", "fuzzy.activations", "busy_s"),
    ("fuzzy.activations.rows_per_s", "1/s", "higher", "fuzzy.activations", "rows_per_s"),
    ("fuzzy.degrees.busy_s", "s", "lower", "fuzzy.degrees", "busy_s"),
    ("fuzzy.decide.self_s", "s", "lower", "fuzzy.run_block", "self_s"),
    ("fuzzy.detect.us_p50", "us", "lower", "fuzzy.detect", "p50_us"),
    ("fuzzy.detect.busy_s", "s", "lower", "fuzzy.detect", "busy_s"),
    ("fuzzy.config.us_p50", "us", "lower", "fuzzy.config", "p50_us"),
    ("fuzzy.config.repaired_ratio", "ratio", "lower", "fuzzy.config", "repaired_ratio"),
    ("harness.bank.s", "s", "lower", "harness.bank", "busy_s"),
    ("harness.bank.scenarios", "count", "lower", "harness.bank", "scenarios"),
    ("harness.classify.self_s", "s", "lower", "harness.evaluate_bank", "self_s"),
    ("harness.evaluate_bank.ms_p50", "ms", "lower", "harness.evaluate_bank", "p50_ms"),
    ("tuner.objective.calls", "count", "lower", "tuner.objective", "calls"),
    ("tuner.objective.ms_p50", "ms", "lower", "tuner.objective", "p50_ms"),
    ("tuner.objective.busy_s", "s", "lower", "tuner.objective", "busy_s"),
    ("tuner.optimizer.self_s", "s", "lower", "tuner.optimizer", "self_s"),
    ("render.emit_dot.calls", "count", "lower", "render.emit_dot", "calls"),
    ("render.emit_dot.busy_s", "s", "lower", "render.emit_dot", "busy_s"),
    ("cli.self_s", "s", "lower", "cli.main", "self_s"),
)


def layer_metrics(tracer: Tracer, scales: dict[int, float]) -> dict[str, float]:
    """Per-layer numbers from the recorded spans; absent layers read 0.

    ``scales`` maps each traced unit's run id to its host-speed factor.
    """
    durations: dict[str, list[float]] = {}
    counts: dict[str, dict[str, int]] = {}
    child_ns: dict[int, float] = {}
    for span_id, parent, name, start, end, run, cnt in tracer.spans:
        ns = (end - start) * scales.get(run, 1.0)
        durations.setdefault(name, []).append(ns)
        child_ns[parent] = child_ns.get(parent, 0) + ns
        for key, value in (cnt or {}).items():
            counts.setdefault(name, {}).setdefault(key, 0)
            counts[name][key] += value
    self_ns: dict[str, float] = {}
    for span_id, _parent, name, start, end, run, _cnt in tracer.spans:
        ns = (end - start) * scales.get(run, 1.0)
        self_ns[name] = self_ns.get(name, 0) + ns - child_ns.get(span_id, 0)

    units = max(len(scales), 1)
    out = {}
    for metric, _unit, _better, span, stat in LAYER_METRICS:
        d = durations.get(span, [])
        c = counts.get(span, {})
        busy = sum(d) / 1e9
        if not d:
            value = 0.0
        elif stat == "calls":
            value = len(d) / units
        elif stat == "busy_s":
            value = busy / units
        elif stat == "self_s":
            value = self_ns[span] / 1e9 / units
        elif stat == "p50_ms":
            value = statistics.median(d) / 1e6
        elif stat == "p50_us":
            value = statistics.median(d) / 1e3
        elif stat == "rows":
            value = c.get("rows", 0) / units
        elif stat == "rows_per_s":
            value = c.get("rows", 0) / busy
        elif stat == "repaired_ratio":
            value = c.get("repaired", 0) / len(d)
        elif stat == "scenarios":
            value = c.get("scenarios", 0) / units
        else:
            raise ValueError(f"unknown statistic {stat!r}")
        out[metric] = value
    return out


def layer_status(tracer: Tracer) -> dict[str, str]:
    """Per metric: 'absent' if its function no longer exists, '0 calls' if
    it exists but the workload never reached it, '' otherwise."""
    seen = {span[2] for span in tracer.spans}
    status = {}
    for metric, _unit, _better, span, _stat in LAYER_METRICS:
        if span in tracer.absent:
            status[metric] = "absent"
        else:
            status[metric] = "" if span in seen else "0 calls"
    return status
