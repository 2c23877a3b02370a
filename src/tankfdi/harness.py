"""Scenario suites, detector evaluation and comparison metrics.

A suite is a list of fault scenarios sharing one operating point. Evaluation
simulates the suite once into a ``ResidualBank``, runs the detector over the
bank's residual block in one pass, and classifies the outcome per scenario:

    proper       flagged set equals injected set, every flag after its fault
    missed       some but not all injected faults flagged, no extras
    bad          faults injected but nothing flagged at all
    false_alarm  an un-faulted variable flagged, or a flag before its fault

``classify_rows`` applies these rules to all scenarios at once, on (n, 7)
arrays of first flag times, injected variables and fault starts; ``classify``
is its one-scenario form. ``evaluate_bank`` builds per-scenario reports from
it, and ``score_bank`` returns only the proper rate and mean delay, the two
numbers a tuning objective reads.

Suite generation samples fault combinations from the catalog that the
detector's rule structure can isolate in principle (sign-blind reasoning on
residual supports cannot distinguish fault sets whose combined signatures
coincide, so sampling those would put a hard ceiling on any tuning run).
Constructed compensation pairs on {De2, Df2} with canceling contributions
to the second residual are mixed in at a fixed cadence.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fuzzy, plant, residuals
from .fuzzy import DetectorConfig, DetectorKernel, RuleBase
from .plant import OPERATING_POINT, FaultEvent, FaultScenario, PlantParams, SchemaError, VARIABLES

CLASSIFICATIONS = ("proper", "missed", "bad", "false_alarm")


@dataclass(frozen=True)
class DetectionReport:
    """Per-scenario decision, first-flag times, detection delays and the
    alarm degrees (VARIABLES order) at the scenario's last sample."""

    scenario_id: int
    injected: frozenset[str]
    flagged: dict[str, float]
    classification: str
    delays: dict[str, float]
    final_degrees: tuple[float, ...]


@dataclass(frozen=True)
class SuiteMetrics:
    """Aggregate outcome over one suite."""

    proper_rate: float
    mean_delay: float
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class SuiteSpec:
    """Knobs for random suite generation."""

    multiplicity: dict[int, float] = field(
        default_factory=lambda: {1: 0.5, 2: 0.5})
    magnitude_range: tuple[float, float] = (1.0, 2.5)
    start_fraction: tuple[float, float] = (0.2, 0.4)
    duration: float = 20.0
    dt: float = 0.1
    noise_std_R: float = 0.02
    noise_std_C: float = 0.02
    ramp_fraction: float = 0.3
    # Ramp slope = magnitude / ramp_time. Kept shallow: a pressure-channel
    # ramp feeds its slope straight into the residual derivative term, and
    # slopes near the fault detection band would mimic a source fault during
    # the initial climb.
    ramp_time: float = 20.0
    compensation_every: int = 25
    restrict_to_isolable: bool = True
    max_fault_order: int = fuzzy.DEFAULT_MAX_FAULT_ORDER

    def __post_init__(self):
        if not self.multiplicity:
            raise ValueError("multiplicity distribution must not be empty")
        for m, p in self.multiplicity.items():
            if not 1 <= m <= 7:
                raise ValueError(f"fault multiplicity {m} outside [1, 7]")
            if p < 0:
                raise ValueError("multiplicity weights must be non-negative")
        if sum(self.multiplicity.values()) <= 0:
            raise ValueError("multiplicity weights must sum to a positive value")
        lo, hi = self.magnitude_range
        if not 0 < lo <= hi:
            raise ValueError("magnitude_range must be positive and ordered")
        f0, f1 = self.start_fraction
        if not 0 <= f0 <= f1 < 1:
            raise ValueError("start_fraction must satisfy 0 <= lo <= hi < 1")


# ---------------------------------------------------------------------------
# Isolability analysis of the rule structure

def isolable_combinations(rulebase: RuleBase | None = None,
                          max_multiplicity: int = 2,
                          ) -> dict[int, list[tuple[str, ...]]]:
    """Fault sets whose generic residual pattern is flagged exactly.

    A candidate set's idealized pattern has full non-zero membership on
    the residuals of its combined signature and full zero membership
    elsewhere; it is isolable when the rule base then raises AL fully and
    OK nowhere on exactly its variables. Combinations whose combined
    signatures collide with other candidate sets fail this; no tuning can
    separate them under sign-blind support reasoning.
    """
    if rulebase is None:
        rulebase = fuzzy.build_rulebase()
    combos = [c for m in range(1, max_multiplicity + 1)
              for c in itertools.combinations(VARIABLES, m)]
    chosen = np.array([[v in c for v in VARIABLES] for c in combos]).reshape(-1, 7).T
    support = residuals.signature_matrix().matrix.T @ chosen
    work = rulebase.program.work(len(combos))
    work[:5], work[5:10] = ~support, support
    al, ok = rulebase.program.run(work)
    exact = (((al == 1.0) & (ok == 0.0)) == chosen).all(axis=0)
    return {m: [c for c, good in zip(combos, exact) if good and len(c) == m]
            for m in range(1, max_multiplicity + 1)}


def compensation_pair(magnitude: float, params: PlantParams,
                      start: float) -> tuple[FaultEvent, FaultEvent]:
    """Step faults on De2 and Df2 whose contributions to r2 cancel exactly.

    A settled De2 offset m shifts r2 by -m/R2; the Df2 offset is chosen as
    -m/R2 so the two contributions sum to zero while r3, r4 and r5 remain
    perturbed.
    """
    return (FaultEvent("De2", start, magnitude, "step"),
            FaultEvent("Df2", start, -magnitude / params.R2, "step"))


# ---------------------------------------------------------------------------
# Suite generation

def generate_suite(n: int, seed: int, spec: SuiteSpec | None = None,
                   params: PlantParams | None = None) -> list[FaultScenario]:
    """Generate ``n`` fault scenarios, deterministic for a given seed."""
    if n < 1:
        raise ValueError("suite size must be at least 1")
    spec = spec or SuiteSpec()
    params = params or PlantParams()
    rng = np.random.default_rng(seed)

    max_mult = max(spec.multiplicity)
    if spec.restrict_to_isolable:
        rulebase = fuzzy.build_rulebase(max_fault_order=spec.max_fault_order)
        catalog = isolable_combinations(rulebase, max_mult)
        for m, weight in spec.multiplicity.items():
            if weight > 0 and not catalog.get(m):
                raise ValueError(
                    f"no isolable fault combination of multiplicity {m}; "
                    "the suite spec is infeasible for this rule structure")
    else:
        catalog = {m: list(itertools.combinations(VARIABLES, m))
                   for m in range(1, max_mult + 1)}

    mults = sorted(spec.multiplicity)
    weights = np.array([spec.multiplicity[m] for m in mults], dtype=float)
    weights /= weights.sum()

    comp_indices = {i for i in range(n) if (i + 1) % spec.compensation_every == 0}
    if not comp_indices:
        comp_indices = {n - 1}

    def draw_start() -> float:
        f0, f1 = spec.start_fraction
        return float(rng.uniform(f0, f1) * spec.duration)

    def draw_magnitude() -> float:
        lo, hi = spec.magnitude_range
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return float(sign * rng.uniform(lo, hi))

    scenarios = []
    for i in range(n):
        scenario_seed = int(rng.integers(0, 2**31 - 1))
        if i in comp_indices:
            events = compensation_pair(draw_magnitude(), params, draw_start())
        else:
            m = int(rng.choice(mults, p=weights))
            combo = catalog[m][int(rng.integers(len(catalog[m])))]
            events = []
            for target in combo:
                magnitude = draw_magnitude()
                if rng.random() < spec.ramp_fraction:
                    events.append(FaultEvent(target, draw_start(),
                                             magnitude / spec.ramp_time, "ramp"))
                else:
                    events.append(FaultEvent(target, draw_start(), magnitude, "step"))
            events = tuple(events)
        scenarios.append(FaultScenario(
            seed=scenario_seed,
            duration=spec.duration,
            dt=spec.dt,
            noise_std_R=spec.noise_std_R,
            noise_std_C=spec.noise_std_C,
            events=events,
        ))
    return scenarios


# ---------------------------------------------------------------------------
# Evaluation

#: Derivative conditioning used by the evaluation pipeline: single-pole
#: smoothing at 3*dt and median-of-3 impulse rejection, so one-sample
#: derivative spikes from measured step faults do not masquerade as
#: short-lived residual support.
DERIVATIVE_TAU_FACTOR = 3.0
DERIVATIVE_SPIKE_WINDOW = 3


def _simulate_residuals(scenario: FaultScenario, params: PlantParams,
                        inputs: tuple[float, float],
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One scenario through ``plant.run`` and ``residual_trace``: the
    per-scenario path that a ResidualBank build equals bit for bit."""
    trace = plant.run(scenario, params, inputs)
    return residuals.residual_trace(trace, params,
                                    tau=DERIVATIVE_TAU_FACTOR * scenario.dt,
                                    spike_window=DERIVATIVE_SPIKE_WINDOW)


#: Scenarios simulated together in one array pass of a bank build. Bigger
#: blocks amortize the per-step Python overhead further; the cap bounds the
#: working set of a 1,000+-scenario build to a few MB.
BANK_BLOCK = 256


@dataclass(frozen=True)
class ResidualBank:
    """Precomputed residual traces of a suite, reusable across detectors.

    Also carries the suite's residual rows concatenated into one read-only
    block so a detector can be evaluated in a single vectorized pass;
    ``offsets`` holds each scenario's start row (plus one trailing
    sentinel), and ``residuals[i]`` is scenario i's slice of the block.
    ``row_times`` is the time of every block row, and ``injected`` and
    ``fault_starts`` are the ``fault_arrays`` of the scenarios.
    """

    scenarios: tuple[FaultScenario, ...]
    times: tuple[np.ndarray, ...]
    residuals: tuple[np.ndarray, ...]
    block: np.ndarray
    offsets: np.ndarray
    row_times: np.ndarray
    injected: np.ndarray
    fault_starts: np.ndarray

    @classmethod
    def from_suite(cls, suite: Sequence[FaultScenario], params: PlantParams,
                   inputs: tuple[float, float] = OPERATING_POINT) -> "ResidualBank":
        """Simulate and condition every scenario, in suite order.

        Scenarios sharing (dt, duration) are simulated and conditioned
        together in blocks of at most BANK_BLOCK. A divergence is reported
        for the earliest diverging scenario in suite order.
        """
        groups: dict[tuple[float, float], list[int]] = {}
        for i, scenario in enumerate(suite):
            groups.setdefault((scenario.dt, scenario.duration), []).append(i)
        times: list = [None] * len(suite)
        resid: list = [None] * len(suite)
        diverged: plant.SimulationDiverged | None = None
        for (dt, _), members in groups.items():
            for lo in range(0, len(members), BANK_BLOCK):
                idx = members[lo:lo + BANK_BLOCK]
                try:
                    t, signals = plant.simulate_suite([suite[i] for i in idx], params, inputs)
                except plant.SimulationDiverged as exc:
                    i = idx[exc.scenario]
                    if diverged is None or i < diverged.scenario:
                        diverged = plant.SimulationDiverged(exc.variable, exc.t, i)
                    continue
                t = t[1:]
                t.setflags(write=False)
                rows = residuals.residual_batch(signals, dt, params,
                                                tau=DERIVATIVE_TAU_FACTOR * dt,
                                                spike_window=DERIVATIVE_SPIKE_WINDOW)
                for j, i in enumerate(idx):
                    times[i], resid[i] = t, rows[j]
        if diverged is not None:
            raise diverged
        block = np.vstack(resid)
        block.setflags(write=False)
        offsets = np.cumsum([0] + [len(r) for r in resid])
        views = tuple(block[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
        row_times = np.concatenate(times)
        injected, fault_starts = fault_arrays([sc.events for sc in suite])
        for arr in (row_times, injected, fault_starts):
            arr.setflags(write=False)
        return cls(tuple(suite), tuple(times), views, block, offsets,
                   row_times, injected, fault_starts)


def fault_arrays(event_lists: Sequence[Sequence[FaultEvent]],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Injected mask and earliest event start per scenario and variable.

    Both are (n, 7) in VARIABLES order; a variable without events starts
    at +inf.
    """
    injected = np.zeros((len(event_lists), len(VARIABLES)), dtype=bool)
    starts = np.full(injected.shape, math.inf)
    for i, events in enumerate(event_lists):
        for ev in events:
            j = VARIABLES.index(ev.target)
            injected[i, j] = True
            starts[i, j] = min(starts[i, j], ev.start)
    return injected, starts


def classify_rows(flag_times: np.ndarray, injected: np.ndarray,
                  starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classify scenario outcomes and compute per-fault delays.

    ``flag_times`` (n, 7) holds each variable's first flag time, NaN where
    it never flagged; ``injected`` and ``starts`` are ``fault_arrays``.
    Returns the labels (n,) as indices into CLASSIFICATIONS and the delays
    (n, 7), NaN where a variable has none: it was not both injected and
    flagged, or it flagged before its fault started.
    """
    flagged = ~np.isnan(flag_times)
    found = flagged & injected
    on_time = found & (flag_times >= starts - 1e-9)
    delays = np.subtract(flag_times, starts, out=np.full(flag_times.shape, math.nan),
                         where=on_time)
    false_alarm = (flagged & ~injected).any(axis=1) | (found & ~on_time).any(axis=1)
    bad = injected.any(axis=1) & ~flagged.any(axis=1)
    missed = (injected & ~flagged).any(axis=1)
    # first match wins: false_alarm, bad, missed, else proper
    labels = np.select([false_alarm, bad, missed], [3, 2, 1], 0)
    return labels, delays


def classify(injected_events: Sequence[FaultEvent],
             flag_times: dict[str, float]) -> tuple[str, dict[str, float]]:
    """Classify one scenario outcome and compute per-fault delays."""
    unknown = set(flag_times) - set(VARIABLES)
    if unknown:
        raise ValueError(f"flag times for unknown variables {sorted(unknown)}")
    times = np.array([[flag_times.get(v, math.nan) for v in VARIABLES]])
    labels, delays = classify_rows(times, *fault_arrays([injected_events]))
    return CLASSIFICATIONS[labels[0]], _named(delays[0].tolist())


def _named(row: list[float]) -> dict[str, float]:
    """{variable: value} of a VARIABLES-ordered row, skipping NaN."""
    return {name: value for name, value in zip(VARIABLES, row) if not math.isnan(value)}


def _first_flag_rows(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """First flagged row of every segment and variable, -1 where none.

    ``offsets`` holds each segment's first row in ``flags`` plus a trailing
    sentinel; rows are counted from the segment start -> (segments, 7).
    """
    t_len = flags.shape[0]
    if t_len == 0:
        return np.full((len(offsets) - 1, flags.shape[1]), -1)
    rows = np.where(flags, np.arange(t_len)[:, None], t_len)
    first = np.minimum.reduceat(rows, offsets[:-1], axis=0)
    return np.where(first < offsets[1:, None], first - offsets[:-1, None], -1)


def _first_flag_times(times: np.ndarray, flags: np.ndarray) -> dict[str, float]:
    first = _first_flag_rows(flags, np.array([0, len(flags)]))[0]
    return {name: float(times[row])
            for name, row in zip(VARIABLES, first.tolist()) if row >= 0}


def _outcomes(bank: ResidualBank, flags: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First flag times (n, 7), labels and delays of the bank's scenarios
    from the flags of its block."""
    first = _first_flag_rows(flags, bank.offsets)
    flagged = first >= 0
    rows = np.where(flagged, first + bank.offsets[:-1, None], 0)
    flag_times = np.where(flagged, bank.row_times[rows], math.nan)
    return (flag_times, *classify_rows(flag_times, bank.injected, bank.fault_starts))


def _rates(labels: np.ndarray, delays: np.ndarray) -> tuple[float, float]:
    """Proper rate and mean delay. The delays are averaged row-major,
    scenario order and then VARIABLES order: the order of the sum sets the
    last bit of the mean."""
    proper_rate = int(np.count_nonzero(labels == 0)) / len(labels)
    found = delays[~np.isnan(delays)]
    return proper_rate, float(np.mean(found)) if found.size else math.nan


def score_bank(cfg: DetectorConfig, bank: ResidualBank) -> tuple[float, float]:
    """The (proper_rate, mean_delay) of ``evaluate_bank``, without reports
    or degrees."""
    flags = DetectorKernel(cfg).block_flags(bank.block, bank.offsets[:-1])
    _, labels, delays = _outcomes(bank, flags)
    return _rates(labels, delays)


def evaluate_bank(cfg: DetectorConfig, bank: ResidualBank,
                  ) -> tuple[list[DetectionReport], SuiteMetrics]:
    """Run the detector over precomputed residual traces and aggregate."""
    degrees, flags = DetectorKernel(cfg).run_block(bank.block, bank.offsets[:-1])
    flag_times, labels, delays = _outcomes(bank, flags)
    final_degrees = degrees[bank.offsets[1:] - 1].tolist()
    reports = [
        DetectionReport(idx, scenario.injected, _named(times), CLASSIFICATIONS[label],
                        _named(delay), tuple(final))
        for idx, (scenario, times, label, delay, final) in enumerate(zip(
            bank.scenarios, flag_times.tolist(), labels.tolist(), delays.tolist(),
            final_degrees))
    ]
    counts = np.bincount(labels, minlength=len(CLASSIFICATIONS)).tolist()
    proper_rate, mean_delay = _rates(labels, delays)
    return reports, SuiteMetrics(proper_rate, mean_delay,
                                 dict(zip(CLASSIFICATIONS, counts)))


def compare(configs: Sequence[tuple[str, DetectorConfig]],
            suite: Sequence[FaultScenario], params: PlantParams,
            inputs: tuple[float, float] = OPERATING_POINT,
            ) -> tuple[list[dict], list[list[DetectionReport]]]:
    """Side-by-side metrics rows of several configurations on one suite,
    and each configuration's per-scenario reports."""
    if len(configs) < 2:
        raise ValueError("compare needs at least two configurations")
    bank = ResidualBank.from_suite(suite, params, inputs)
    rows, reports = [], []
    for name, cfg in configs:
        config_reports, metrics = evaluate_bank(cfg, bank)
        rows.append(metrics_row(name, metrics))
        reports.append(config_reports)
    return rows, reports


#: The columns of the metrics CSV and table: the config's name, the suite
#: size, the count of each classification, then the SuiteMetrics rates.
METRICS_COLUMNS = ("config", "scenarios", *CLASSIFICATIONS, "proper_rate", "mean_delay")

#: Table cells of the columns that ``format_table`` does not show with ``str``.
_TABLE_CELLS = {"proper_rate": "{:.3f}".format,
                "mean_delay": lambda d: "-" if math.isnan(d) else f"{d:.2f}s"}


def metrics_row(name: str, metrics: SuiteMetrics) -> dict:
    """One config's METRICS_COLUMNS row."""
    values = {"config": name, "scenarios": metrics.total, **metrics.counts}
    return {c: values[c] if c in values else getattr(metrics, c) for c in METRICS_COLUMNS}


def write_metrics_csv(rows: Sequence[dict], path: str) -> None:
    plant.write_csv(METRICS_COLUMNS, ([row[c] for c in METRICS_COLUMNS] for row in rows), path)


def format_table(rows: Sequence[dict]) -> str:
    """Human-readable fixed-width rendering of comparison rows."""
    header = METRICS_COLUMNS
    body = [[_TABLE_CELLS.get(c, str)(row[c]) for c in header] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def write_reports_jsonl(reports: Sequence[DetectionReport], path: str) -> None:
    """One JSON object per scenario, in suite order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rep in reports:
            obj = {
                "scenario_id": rep.scenario_id,
                "injected": sorted(rep.injected),
                "flagged": {k: rep.flagged[k] for k in sorted(rep.flagged)},
                "classification": rep.classification,
                "delays": {k: rep.delays[k] for k in sorted(rep.delays)},
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Suite files

def suite_to_dict(suite: Sequence[FaultScenario],
                  inputs: tuple[float, float] = OPERATING_POINT) -> dict:
    return {
        "schema": 1,
        "inputs": plant.inputs_to_dict(inputs),
        "scenarios": [plant.scenario_to_dict(sc) for sc in suite],
    }


def suite_from_dict(obj: dict) -> tuple[list[FaultScenario], tuple[float, float]]:
    plant.check_fields(obj, "suite", ("inputs", "scenarios"), required=("scenarios",),
                       lists=("scenarios",))
    if not obj["scenarios"]:
        raise SchemaError("suite has no scenarios")
    scenarios = [plant.scenario_from_dict(sc, f"suite scenarios[{i}]")
                 for i, sc in enumerate(obj["scenarios"])]
    return scenarios, plant.parse_inputs(obj, "suite")


def save_suite(suite: Sequence[FaultScenario], path: str,
               inputs: tuple[float, float] = OPERATING_POINT) -> None:
    plant.write_json(suite_to_dict(suite, inputs), path)


def load_suite(path: str) -> tuple[list[FaultScenario], tuple[float, float]]:
    return suite_from_dict(plant.read_json(path, "suite"))
