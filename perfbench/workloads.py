"""The three benchmark workloads, each a closed loop with one client.

A workload has a ``setup`` (inputs and reference outputs, timed separately
as ``setup_s``) and a sequence of units that ``run.py`` runs one after the
other: a ``tankfdi tune`` job, a ``tankfdi evaluate`` call on one chunk of
the held-out suite, or one scenario replayed sample by sample through the
streaming API. Every unit checks its own outputs and reports how many of
its operations failed a check. ``unit(index, region)`` enters ``region()``
around the program calls only, so a tracer installed there never sees the
checks.

The program is reached only through ``tankfdi.cli.main(argv)`` and the
``ResidualEvaluator``/``Detector`` streaming classes; internal functions
are used only to build inputs and reference outputs for the checks.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from tankfdi import cli, fuzzy, harness, plant, residuals, tuner

#: Seeds of the pinned 50-scenario suite and swarm used by the tier-1 tuning
#: fixtures; tune_pso and stream run on that suite.
PINNED_SEED = 42
PINNED_SUITE_SIZE = 50
#: PSO iterations per tune job: enough that the residual bank build inside
#: each job is under a tenth of it, few enough that several jobs fit in a run.
TUNE_SWARM = 30
TUNE_ITERATIONS = 10
#: Held-out suite: 1,000 scenarios from a pinned seed other than the tuning
#: seed, split into chunks, one evaluate call each, so a run has many units.
HELDOUT_SEED = 1000
HELDOUT_SCENARIOS = 1000
HELDOUT_CHUNKS = 40


@dataclass
class UnitResult:
    """Outcome of one unit: wall time, work done, failed output checks."""

    wall_s: float
    ops: int
    failed: int
    work: int
    latencies_ms: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Host-speed factor run.py measures around the unit.
    scale: float = 1.0


def _sha256(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Call the CLI in-process; returns (exit code, stdout, wall seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def _reset_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------

class TunePso:
    """``tankfdi tune --method pso`` on the pinned 50-scenario suite.

    Every job is the same pinned job, so the best fitness is a
    deterministic quality guard and job times are directly comparable.
    """

    name = "tune_pso"
    #: Kind of calibration slice run.py times around each unit.
    calibration = "array"
    mandatory_units = 1

    def __init__(self, seed: int, workdir: str):
        self.argv = [
            "tune", "--method", "pso", "--generate", str(PINNED_SUITE_SIZE),
            "--suite-seed", str(PINNED_SEED), "--seed", str(PINNED_SEED),
            "--swarm-size", str(TUNE_SWARM), "--iterations", str(TUNE_ITERATIONS),
            "--out-config", os.path.join(workdir, "tuned.json"),
            "--out-history", os.path.join(workdir, "history.csv"),
        ]
        self.best_fitness = math.nan
        self.digest = ""

    def setup(self) -> None:
        """Reference bank for re-scoring the tuned config."""
        self.params = plant.PlantParams()
        self.suite = harness.generate_suite(PINNED_SUITE_SIZE, PINNED_SEED)
        self.bank = harness.ResidualBank.from_suite(self.suite, self.params)

    def unit(self, index: int, region=contextlib.nullcontext) -> UnitResult:
        cfg_path, hist_path = self.argv[-3], self.argv[-1]
        for path in (cfg_path, hist_path):
            if os.path.exists(path):
                os.remove(path)
        with region():
            code, stdout, wall = _run_cli(self.argv)
        notes = self._check(code, stdout, cfg_path, hist_path)
        if not notes and index == 0:
            self.digest = _sha256(cfg_path, hist_path)
        work = TUNE_SWARM * (TUNE_ITERATIONS + 1)
        return UnitResult(wall, 1, int(bool(notes)), work, [wall * 1e3], notes)

    def _check(self, code, stdout, cfg_path, hist_path) -> list[str]:
        if code != 0:
            return [f"tune exited with {code}"]
        with open(hist_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        notes = []
        if [int(r["iteration"]) for r in rows] != list(range(TUNE_ITERATIONS + 1)):
            notes.append(f"history has {len(rows)} rows, want {TUNE_ITERATIONS + 1}")
        best = [float(r["best_fitness"]) for r in rows]
        if any(b1 > b0 for b0, b1 in zip(best, best[1:])):
            notes.append("best fitness history increases")
        if not best:
            return notes + ["history is empty"]
        if f"final fitness: {best[-1]!r}" not in stdout:
            notes.append("printed final fitness differs from the history")
        x = fuzzy.config_to_params(fuzzy.load_config(cfg_path))
        rescored = tuner.fitness(x, self.suite, self.params, bank=self.bank).scalar()
        if rescored != best[-1]:
            notes.append(f"saved config re-scores to {rescored!r}, reported {best[-1]!r}")
        self.best_fitness = best[-1]
        return notes

    def error_rate(self) -> float:
        return self.best_fitness


class EvaluateHeldout:
    """``tankfdi evaluate`` of the shipped swarm-tuned config on a held-out suite.

    The pinned 1,000-scenario suite (never the tuning seed 42) is cut into
    chunks; each unit evaluates one chunk with reports and per-scenario DOT
    rendering, and the workload seed fixes the chunk order. The first pass
    covers every chunk, and its pooled proper rate is the quality guard.
    """

    name = "evaluate_heldout"
    #: Kind of calibration slice run.py times around each unit.
    calibration = "interp"
    mandatory_units = HELDOUT_CHUNKS

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.order = np.random.default_rng(seed).permutation(HELDOUT_CHUNKS)
        self.proper = [None] * HELDOUT_CHUNKS
        self.digests = [""] * HELDOUT_CHUNKS

    def setup(self) -> None:
        """Write the config and the held-out suite chunks the CLI will read."""
        self.config_path = os.path.join(self.workdir, "swarm_tuned.json")
        fuzzy.save_config(fuzzy.example_tuned_config("swarm"), self.config_path)
        suite = harness.generate_suite(HELDOUT_SCENARIOS, HELDOUT_SEED)
        size = HELDOUT_SCENARIOS // HELDOUT_CHUNKS
        self.chunks = []
        for c in range(HELDOUT_CHUNKS):
            path = os.path.join(self.workdir, f"heldout_{c}.json")
            harness.save_suite(suite[c * size:(c + 1) * size], path)
            self.chunks.append((path, size))

    def unit(self, index: int, region=contextlib.nullcontext) -> UnitResult:
        c = int(self.order[index % HELDOUT_CHUNKS])
        suite_path, size = self.chunks[c]
        metrics_path = os.path.join(self.workdir, "metrics.csv")
        reports_path = os.path.join(self.workdir, "reports.jsonl")
        dots = _reset_dir(os.path.join(self.workdir, "dots"))
        for path in (metrics_path, reports_path):
            if os.path.exists(path):
                os.remove(path)
        with region():
            code, _stdout, wall = _run_cli([
                "evaluate", "--config", self.config_path, "--name", "heldout",
                "--suite", suite_path, "--jobs", "1", "--out", metrics_path,
                "--reports", reports_path, "--render", dots])
        notes = self._check(code, c, size, metrics_path, reports_path, dots)
        if not notes and not self.digests[c]:
            self.digests[c] = _sha256(metrics_path, reports_path)
        return UnitResult(wall, 1, int(bool(notes)), size, [wall * 1e3], notes)

    def _check(self, code, c, size, metrics_path, reports_path, dots) -> list[str]:
        if code != 0:
            return [f"evaluate exited with {code}"]
        with open(metrics_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            return [f"metrics CSV has {len(rows)} rows, want 1"]
        row = rows[0]
        counts = {k: int(row[k]) for k in harness.CLASSIFICATIONS}
        notes = []
        if int(row["scenarios"]) != size or sum(counts.values()) != size:
            notes.append(f"counts {counts} do not sum to the suite size {size}")
        if float(row["proper_rate"]) != counts["proper"] / size:
            notes.append("proper_rate differs from proper / total")
        with open(reports_path) as fh:
            reports = [json.loads(line) for line in fh]
        tally = {k: 0 for k in harness.CLASSIFICATIONS}
        for rep in reports:
            tally[rep["classification"]] += 1
        if [r["scenario_id"] for r in reports] != list(range(size)) or tally != counts:
            notes.append("reports JSONL disagrees with the metrics CSV")
        n_dots = len([f for f in os.listdir(dots) if f.endswith(".dot")])
        if n_dots != size:
            notes.append(f"{n_dots} DOT files for {size} scenarios")
        if not notes:
            self.proper[c] = counts["proper"]
        return notes

    def error_rate(self) -> float:
        if any(p is None for p in self.proper):
            return math.nan
        return 1.0 - sum(self.proper) / HELDOUT_SCENARIOS

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


class Stream:
    """The operator's online loop: frames through ResidualEvaluator + Detector.

    Setup simulates the pinned suite and computes the batch reference
    (``residual_trace`` + ``DetectorKernel.run``). Each unit replays one
    scenario, timing every sample from frame handoff to flags returned; the
    workload seed fixes the replay order. The streamed residuals, degrees
    and flags must equal the batch reference exactly.
    """

    name = "stream"
    #: Kind of calibration slice run.py times around each unit.
    calibration = "interp"
    mandatory_units = PINNED_SUITE_SIZE

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.proper: dict[int, bool] = {}
        self.digests: dict[int, str] = {}

    def setup(self) -> None:
        self.params = plant.PlantParams()
        self.cfg = fuzzy.example_tuned_config("swarm")
        self.suite = harness.generate_suite(PINNED_SUITE_SIZE, PINNED_SEED)
        self.order = np.random.default_rng(self.seed).permutation(len(self.suite))
        self.frames, self.reference = [], []
        kernel = fuzzy.DetectorKernel(self.cfg)
        for scenario in self.suite:
            trace = plant.run(scenario, self.params, (1.0, 0.8))
            self.frames.append(list(trace.frames()))
            times, resid = residuals.residual_trace(
                trace, self.params, tau=harness.DERIVATIVE_TAU_FACTOR * scenario.dt,
                spike_window=harness.DERIVATIVE_SPIKE_WINDOW)
            degrees, flags = kernel.run(resid)
            self.reference.append((times, resid, degrees, flags))

    def unit(self, index: int, region=contextlib.nullcontext) -> UnitResult:
        idx = int(self.order[index % len(self.order)])
        scenario, frames = self.suite[idx], self.frames[idx]
        evaluator = residuals.ResidualEvaluator(
            self.params, scenario.dt, tau=harness.DERIVATIVE_TAU_FACTOR * scenario.dt,
            spike_window=harness.DERIVATIVE_SPIKE_WINDOW)
        detector = fuzzy.Detector(self.cfg)
        try:
            evaluator.update(frames[0])
        except residuals.InsufficientHistory:
            pass  # the first frame only primes the derivative history
        n = len(frames) - 1
        lat_ns = np.empty(n, dtype=np.int64)
        resid = np.empty((n, 5))
        degrees = np.empty((n, 7))
        flags = np.empty((n, 7), dtype=bool)
        clock = time.perf_counter_ns
        with region():
            for k in range(n):
                frame = frames[k + 1]
                t0 = clock()
                vec = evaluator.update(frame)
                deg, flg = detector.detect(vec)
                lat_ns[k] = clock() - t0
                resid[k] = vec.as_array()
                degrees[k] = deg
                flags[k] = flg

        times, ref_resid, ref_degrees, ref_flags = self.reference[idx]
        bad = ((resid != ref_resid).any(axis=1) | (degrees != ref_degrees).any(axis=1)
               | (flags != ref_flags).any(axis=1))
        failed = int(bad.sum())
        notes = [f"scenario {idx}: {failed} samples differ from the batch path"] if failed else []
        if idx not in self.digests:
            self.digests[idx] = hashlib.sha256(degrees.tobytes() + flags.tobytes()).hexdigest()
            label, _ = harness.classify(scenario.events, harness._first_flag_times(times, flags))
            self.proper[idx] = label == "proper"
        busy_s = lat_ns.sum() / 1e9
        return UnitResult(busy_s, n, failed, n, list(lat_ns / 1e6), notes)

    def error_rate(self) -> float:
        if len(self.proper) < len(self.suite):
            return math.nan
        return 1.0 - sum(self.proper.values()) / len(self.suite)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests[i] for i in sorted(self.digests))
                              .encode()).hexdigest()


WORKLOADS = {w.name: w for w in (TunePso, EvaluateHeldout, Stream)}
