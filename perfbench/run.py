"""tankfdi benchmark runner: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload tune_pso --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``./src``. With ``--trace 0`` the end-to-end metrics are measured untraced;
with ``--trace 1`` units alternate untraced/traced, per-layer metrics come
from the traced units and ``trace.overhead_ratio`` compares the two. The
last line of stdout is one JSON object; the lines above it name every
metric with its unit. Details, spans and digests go to
``perfbench/out/<workload>/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
#: Seconds one calibration slice takes on the reference host. Bounded
#: timings are scaled by CAL_REF_S / (slice time measured around them).
CAL_REF_S = 0.010
#: Calibration after a unit runs for this share of its wall time, and
#: before it for this share of the previous unit's (at least one slice each),
#: so long units get more slices.
CAL_SHARE = 0.03

#: End-to-end metrics, identical for every workload: (name, unit).
END_TO_END = (
    ("throughput", "1/s"),
    ("latency_ms.p50", "ms"),
    ("error_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: What the generic end-to-end names mean on each workload.
LABELS = {
    "tune_pso": {"throughput": "tune.evals_per_s", "latency_ms.p50": "tune.job_ms.p50",
                 "error_rate": "tune.best_fitness"},
    "evaluate_heldout": {"throughput": "evaluate.scenarios_per_s",
                         "latency_ms.p50": "evaluate.call_ms.p50",
                         "error_rate": "evaluate.improper_rate"},
    "stream": {"throughput": "stream.samples_per_s", "latency_ms.p50": "stream.sample_ms.p50",
               "error_rate": "stream.improper_rate"},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(LABELS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window; mandatory units run even past it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_package():
    """Import tankfdi from ./src, refusing any installed copy."""
    if not os.path.isfile(os.path.join(SRC, "tankfdi", "__init__.py")):
        sys.exit(f"error: {SRC}/tankfdi not found; run from the root of a tankfdi checkout")
    sys.path.insert(0, SRC)
    import tankfdi
    if os.path.dirname(os.path.abspath(tankfdi.__file__)) != os.path.join(SRC, "tankfdi"):
        sys.exit(f"error: imported tankfdi from {tankfdi.__file__}, not {SRC}")
    return tankfdi


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "tankfdi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _finite(value: float) -> float:
    return 1.0 if math.isnan(value) else value


_CAL_VALUES = numpy.arange(64.0)
_CAL_RNG = numpy.random.default_rng(0)
_CAL_ROWS = _CAL_RNG.random((10_000, 5, 7))
_CAL_COLS = _CAL_RNG.integers(0, 7, (5, 29))
_CAL_VARS = numpy.arange(5)[:, None]


def calibration_slice(kind: str) -> float:
    """Time one fixed slice of work that contains no tankfdi code.

    The benchmark host is shared. Other tenants' load slows it by up to 2x
    for seconds to minutes, which moved the median unit time by 20-35 %
    between runs. Timed right around each unit, a slice of the same kind of
    work slows by about the same factor, so scaling by it leaves a few
    percent. ``interp`` is plain Python arithmetic and small numpy calls,
    like simulation and per-sample streaming; ``array`` is a gather and
    min/max reductions over a 12 MB temporary, like the batch fuzzy kernel.
    """
    start = time.perf_counter()
    total = 0.0
    if kind == "array":
        for _ in range(3):
            firing = _CAL_ROWS[:, _CAL_VARS, _CAL_COLS].min(axis=1)
            total += float(firing.max(axis=1).sum())
    else:
        for i in range(50_000):
            total += (i * 0.5) % 7.0
        for _ in range(3_000):
            total += float(numpy.maximum(_CAL_VALUES, 3.0).min())
    return time.perf_counter() - start


def calibrate(kind: str, budget_s: float) -> list[float]:
    """Slice times of at least one slice and about ``budget_s`` seconds."""
    times = [calibration_slice(kind)]
    while sum(times) < budget_s:
        times.append(calibration_slice(kind))
    return times


def host_adjusted(kind: str, budget_s: float, step, *args):
    """Run ``step(*args)`` between two calibrations of ``kind``.

    The one before lasts about ``budget_s``, the one after CAL_SHARE of the
    step's wall time. Returns (result, scale) where scale = CAL_REF_S /
    median slice time: multiply a measured time by it to get reference-host
    seconds.
    """
    before = calibrate(kind, budget_s)
    start = time.perf_counter()
    result = step(*args)
    after = calibrate(kind, CAL_SHARE * (time.perf_counter() - start))
    return result, CAL_REF_S / statistics.median(before + after)


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else the maximum."""
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if len(latencies) * (1 - q) >= 10:
            return _percentile(latencies, q), label
    return max(latencies), "max"


def run_units(workload, seconds: float, tracer=None):
    """Closed loop: run units until the window is used, at least the mandatory ones.

    With a tracer, each index runs twice, untraced and traced, so both
    halves see the same inputs. Returns (untraced results, traced results).
    """
    @contextlib.contextmanager
    def traced_region():
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    plain, traced, costs = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < (1 if tracer else workload.mandatory_units)
           or time.perf_counter() + statistics.median(costs) <= deadline):
        start = time.perf_counter()
        budget = CAL_SHARE * costs[-1] if costs else 0.0
        if tracer is None:
            result, result.scale = host_adjusted(workload.calibration, budget,
                                                 workload.unit, index)
            plain.append(result)
        else:
            # Alternate which half runs first so warm-up does not bias the overhead.
            tracer.run_id = index
            first, second = (plain, traced) if index % 2 == 0 else (traced, plain)
            for results in (first, second):
                region = traced_region if results is traced else contextlib.nullcontext
                result, result.scale = host_adjusted(workload.calibration, budget,
                                                     workload.unit, index, region)
                results.append(result)
        costs.append(time.perf_counter() - start)
        index += 1
    return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    tankfdi = import_package()
    from tracer import LAYER_METRICS, Tracer, layer_metrics, layer_status
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)

    def timed_setup() -> float:
        start = time.perf_counter()
        workload.setup()
        return time.perf_counter() - start

    # The first slice of each kind runs cold (allocation, page faults).
    for slice_kind in ("interp", workload.calibration):
        calibration_slice(slice_kind)
    # Every set-up builds suites by simulation, so it is calibrated as such.
    setups = [host_adjusted("interp", 0.0, timed_setup) for _ in range(SETUP_REPEATS)]
    setup_times = [t for t, _ in setups]

    tracer = Tracer() if args.trace else None
    plain, traced = run_units(workload, args.seconds, tracer)
    results = plain + traced
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    notes = [n for r in results for n in r.notes]

    labels = LABELS[args.workload]
    printed = {}
    if tracer is None:
        adjusted = [x * r.scale for r in plain for x in r.latencies_ms]
        values = {
            "throughput": sum(r.work for r in plain) / sum(r.wall_s * r.scale for r in plain),
            "latency_ms.p50": _percentile(adjusted, 0.5),
            # NaN means a quality check failed (correct is false then).
            "error_rate": _finite(workload.error_rate()),
            "setup_s": statistics.median(t * scale for t, scale in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            printed[labels.get(name, name)] = (values[name], unit)
        if args.workload == "evaluate_heldout":
            printed["evaluate.proper_rate"] = (1.0 - values["error_rate"], "ratio")
        # As measured on this host, not bounded: these move with other tenants' load.
        raw = [x for r in plain for x in r.latencies_ms]
        tail, kind = tail_latency(raw)
        printed["host speed (CAL_REF_S / slice)"] = (
            statistics.median(r.scale for r in plain), "x")
        printed["raw: throughput"] = (
            sum(r.work for r in plain) / sum(r.wall_s for r in plain), "1/s")
        printed["raw: latency_ms.p50"] = (_percentile(raw, 0.5), "ms")
        if kind == "p99.9":
            # Shown next to the p99.9 tail for workloads with enough samples.
            p99 = _percentile(raw, 0.99)
            printed["raw: latency_ms.p99"] = (
                p99, f"ms (n={len(raw)}, {sum(x > p99 for x in raw)} beyond)")
        printed[f"raw: latency_ms.{kind}"] = (tail, f"ms (n={len(raw)})")
        printed["raw: setup_s"] = (statistics.median(setup_times), "s")
    else:
        layers = layer_metrics(tracer, {i: r.scale for i, r in enumerate(traced)})
        plain_s = sum(r.wall_s * r.scale for r in plain)
        layers["trace.overhead_ratio"] = sum(r.wall_s * r.scale for r in traced) / plain_s - 1.0
        status = layer_status(tracer)
        units = {m[0]: m[1] for m in LAYER_METRICS}
        units["trace.overhead_ratio"] = "ratio"
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
        for name, value in layers.items():
            printed[name] = (value, units[name] + (f"  [{status[name]}]"
                                                   if status.get(name) else ""))
        printed["traced units"] = (len(traced), "count")
        spans_path = os.path.join(workdir, f"spans-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
    printed["failed_ratio"] = (failed / attempted, f"ratio ({failed}/{attempted})")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "tankfdi_version": tankfdi.__version__,
        "setup_times_s": setup_times, "units": len(plain),
        "unit_walls_s": [r.wall_s for r in plain], "unit_work": [r.work for r in plain],
        "unit_scales": [r.scale for r in plain], "setup_scales": [c for _, c in setups],
        "digest_sha256": workload.digest, "check_failures": notes[:50],
        "metrics": metrics, "labelled": {k: v[0] for k, v in printed.items()},
    }
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  units {len(plain)}"
          f"{'  traced ' + str(len(traced)) if tracer else ''}")
    for label, (value, unit) in printed.items():
        print(f"  {label:32s} {value:.6g} {unit}")
    print(f"  artifacts sha256                 {workload.digest}")
    for note in notes[:10]:
        print(f"  check failed: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
