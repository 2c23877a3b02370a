"""Scalar reference forms, for tests to compare the array code against.

The fuzzy detector one residual value at a time, written from the paper's
definitions: five trapezoid memberships per residual, MIN-MAX inference
rule by rule, and defuzzification as the AL share of the clipped output
areas; the rule base itself by set algebra on the fault directions. The
vectorized ``tankfdi.fuzzy.DetectorKernel`` must agree with it bit for
bit; its hold, which fills each gap from its source sample, must
equal ``hold`` here, a running maximum over whole rows. Likewise the plant
one step at a time: a ``PlantState`` advanced by one RK4 ``step``, R/C
noise drawn step by step, the ``coupling_flows`` and sensor frames with
each event's ``offset_at``, which ``simulate`` runs from any initial
state and ``tankfdi.plant.run`` must reproduce row for row from the
steady state; and the valve law on ``math`` floats, ``valve_flow``,
which ``tankfdi.plant._flows`` must equal on floats and on arrays. The
DOT graph line by line, as ``tankfdi.render.emit_dot`` must write it.
One scenario's conditioned residuals through ``tankfdi.plant.run`` and
``residual_trace``, ``simulate_residuals``, which a ``ResidualBank`` build
must equal bit for bit. Last, the accessors and fixtures only tests use:
the residual fault directions, a variable's signature row, a de-tuned
detector, a bank's per-scenario rows, the metrics rows of several configs
on one suite, and plain forms of plant parameters, frames and trace
columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from tankfdi import plant, residuals
from tankfdi.fuzzy import (DetectorConfig, InputPartition, OutputPartition, Rule,
                          RuleBase, params_to_config)
from tankfdi.harness import (DERIVATIVE_SPIKE_WINDOW, DERIVATIVE_TAU_FACTOR, DetectionReport,
                             ResidualBank, evaluate_bank, metrics_row)
from tankfdi.plant import (NOISY_PARAMS, VARIABLE_INDEX, VARIABLES, FaultEvent,
                           FaultScenario, MeasurementFrame, PlantParams,
                           SimulationDiverged, Trace, _flows, _rk4)
from tankfdi.render import EDGES, _degree_map, color_index


class Memberships(NamedTuple):
    """Degrees of one residual value in the five input sets."""

    nb: float
    n: float
    z: float
    p: float
    pb: float

    @property
    def non_zero(self) -> float:
        return max(self.nb, self.n, self.p, self.pb)


def _trapezoid(x: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    """Trapezoid membership with support [a, d] and core [b, c].

    Degenerate (vertical) edges are allowed: a == b or c == d.
    """
    out = np.zeros_like(x, dtype=float)
    out[(x >= b) & (x <= c)] = 1.0
    if b > a:
        rise = (x > a) & (x < b)
        out[rise] = (x[rise] - a) / (b - a)
    if d > c:
        fall = (x > c) & (x < d)
        out[fall] = (d - x[fall]) / (d - c)
    return out


def _membership_table(r: np.ndarray, p: InputPartition, beta: float) -> np.ndarray:
    """Memberships of residual samples ``r`` -> array (..., 5) in set order."""
    x = np.clip(np.asarray(r, dtype=float), -beta, beta)
    return np.stack([
        _trapezoid(x, -beta, -beta, -p.a4, -p.a3),
        _trapezoid(x, -p.a4, -p.a3, -p.a2, -p.a1),
        _trapezoid(x, -p.a2, -p.a1, p.a1, p.a2),
        _trapezoid(x, p.a1, p.a2, p.a3, p.a4),
        _trapezoid(x, p.a3, p.a4, beta, beta),
    ], axis=-1)


def fuzzify(r: float, p: InputPartition, beta: float = math.inf) -> Memberships:
    """Crisp residual value -> five membership degrees (NB, N, Z, P, PB).

    ``beta`` >= a4 is the paper's domain bound: NB and PB end at -beta and
    beta, and a residual beyond it is clipped to it. Neither changes a
    degree, which is why the detector has no beta; by default there is no
    bound."""
    assert beta >= p.a4
    table = _membership_table(np.array([r]), p, beta)[0]
    return Memberships(*(float(v) for v in table))


def _constraint_degree(constraint: str, m: Memberships) -> float:
    if constraint == "Z":
        return m.z
    if constraint == "nonZ":
        return m.non_zero
    return 1.0


def infer(memberships: Sequence[Memberships], rb: RuleBase) -> dict[str, dict[str, float]]:
    """MIN-MAX inference: rule firing = min over premise reads, conclusions
    aggregated per variable with max. Returns {variable: {"OK": x, "AL": y}}.
    """
    if len(memberships) != 5:
        raise ValueError("inference needs memberships for exactly 5 residuals")
    activations = {v: {"OK": 0.0, "AL": 0.0} for v in VARIABLES}
    for rule in rb.rules:
        firing = min(_constraint_degree(c, m) for c, m in zip(rule.premise, memberships))
        for v in rule.al:
            activations[v]["AL"] = max(activations[v]["AL"], firing)
        for v in rule.ok:
            activations[v]["OK"] = max(activations[v]["OK"], firing)
    return activations


def clipped_ok_area(activation: float, p: OutputPartition) -> float:
    """Area of the OK trapezoid clipped at ``activation``."""
    s, c = p.support, p.core
    return activation * s - activation * activation * (s - c) / 2.0


def clipped_al_area(activation: float, p: OutputPartition) -> float:
    """Area of the complement-shaped AL flanks clipped at ``activation``."""
    s, c = p.support, p.core
    return (s - c) * (activation - activation * activation / 2.0)


def defuzzify(activation: dict[str, float], p: OutputPartition,
              fallback: float = 0.0) -> float:
    """Alarm degree = AL-side mass fraction of the clipped output sets.

    When neither set is activated there is no information; the caller's
    ``fallback`` (the previously held degree, 0 at the start of a stream)
    is returned instead of forcing a decision.
    """
    ok_mass = clipped_ok_area(activation["OK"], p)
    al_mass = clipped_al_area(activation["AL"], p)
    total = ok_mass + al_mass
    if total <= 0.0:
        return fallback
    return al_mass / total


def rules(max_fault_order: int) -> tuple[Rule, ...]:
    """The rule base by set algebra on each variable's residual support,
    the non-zero entries of its ``fault_direction``: per candidate fault
    set, Z outside the union of its members' supports, nonZ on a residual
    one member touches and any on a shared one; AL for each member owning
    a residual no other member touches, OK for every variable outside the
    set. Last, the all-Z rule concludes OK for all seven."""
    support = {v: {i + 1 for i in np.flatnonzero(fault_direction(v, PlantParams()))}
               for v in VARIABLES}
    out = []
    for order in range(1, max_fault_order + 1):
        for members in itertools.combinations(VARIABLES, order):
            union = set().union(*(support[v] for v in members))
            premise = tuple("Z" if arr not in union
                            else "nonZ" if sum(arr in support[v] for v in members) == 1
                            else "any" for arr in range(1, 6))
            al = tuple(v for v in members if support[v] - set().union(
                *(support[w] for w in members if w != v)))
            ok = tuple(v for v in VARIABLES if v not in members)
            out.append(Rule(premise, al, ok, members))
    out.append(Rule(("Z",) * 5, (), VARIABLES, ()))
    return tuple(out)


def ideal_flag_set(support: Iterable[int], rulebase: RuleBase) -> frozenset[str]:
    """Variables a detector would flag for an idealized residual pattern.

    The pattern has saturated non-zero membership on the residuals in
    ``support`` (1-based indices) and perfect zero membership elsewhere;
    a variable is flagged when its alarm activation is full and no rule
    upholds its normal state.
    """
    support = set(support)
    table = [
        Memberships(0.0, 0.0, 0.0, 1.0, 0.0) if arr in support
        else Memberships(0.0, 0.0, 1.0, 0.0, 0.0)
        for arr in range(1, 6)
    ]
    act = infer(table, rulebase)
    return frozenset(v for v in VARIABLES
                     if act[v]["AL"] >= 1.0 - 1e-12 and act[v]["OK"] <= 1e-12)


def hold(values: np.ndarray, defined: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Forward-fill ``values`` (V, T) in place over its undefined samples,
    with the contract of ``tankfdi.fuzzy._hold``: a running maximum of the
    last defined column over every row that has a gap, each column of
    ``starts`` and column 0 counting as defined."""
    defined[:, starts] = True
    defined[:, 0] = True
    rows = (~defined.all(axis=1)).nonzero()[0]
    if not rows.size:
        return values
    t_len = values.shape[1]
    dtype = np.int32 if values.size < 2**31 else np.intp
    # last defined column of every sample, then its index in the flat array
    idx = np.where(defined[rows], np.arange(t_len, dtype=dtype), dtype(0))
    np.maximum.accumulate(idx, axis=1, out=idx)
    idx += (rows * t_len).astype(dtype)[:, None]
    values[rows] = values.take(idx)
    return values


@dataclass(frozen=True)
class PlantState:
    """Tank pressures and simulation time."""

    De1: float = 0.0
    De2: float = 0.0
    De3: float = 0.0
    t: float = 0.0


def coupling_flows(De1: float, De2: float, De3: float, params: PlantParams,
                   mode: str = "linear") -> tuple[float, float]:
    """Coupling flows Df1 (tank1 -> tank2) and Df2 (tank3 -> tank2) at the
    nominal coupling resistances of ``params``."""
    return _flows(De1, De2, De3, params.R12, params.R23, params, mode)


def valve_flow(hi: float, hj: float, params: PlantParams) -> float:
    """The square-root valve law from pressure ``hi`` to ``hj`` on Python
    floats, through ``math``: 0.0 where the pressures are equal."""
    k = params.az * params.S_conn
    d = (hi - hj) / (params.rho * params.g)
    return k * math.copysign(math.sqrt(2.0 * params.g * abs(d)), d) if d else 0.0


def step(state: PlantState, inputs: tuple[float, float], params: PlantParams,
         dt: float, mode: str = "linear") -> PlantState:
    """Advance the plant one fixed RK4 step; raises SimulationDiverged at the
    step's end for the first pressure that is no longer finite."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rc = tuple(getattr(params, name) for name in NOISY_PARAMS)
    new = _rk4((state.De1, state.De2, state.De3), inputs, rc, params, dt, mode)
    for name, value in zip(("De1", "De2", "De3"), new):
        if not math.isfinite(value):
            raise SimulationDiverged(name, state.t + dt)
    return PlantState(new[0], new[1], new[2], state.t + dt)


def offset_at(event: FaultEvent, t: float) -> float:
    """The event's additive offset at time t."""
    if t < event.start:
        return 0.0
    if event.profile == "step":
        return event.magnitude
    return event.magnitude * (t - event.start)


def perturb_params(params: PlantParams, noise_std_R: float, noise_std_C: float,
                   rng: np.random.Generator) -> PlantParams:
    """Multiply each R and C by (1 + N(0, sigma)), floored at 1% of nominal."""
    if noise_std_R < 0 or noise_std_C < 0:
        raise ValueError("noise standard deviations must be non-negative")
    updates = {}
    for name in NOISY_PARAMS:
        nominal = getattr(params, name)
        sigma = noise_std_R if name.startswith("R") else noise_std_C
        updates[name] = max(nominal * (1.0 + sigma * rng.standard_normal()),
                            0.01 * nominal)
    return replace(params, **updates)


def measure(state: PlantState, inputs: tuple[float, float], params: PlantParams,
            events: Sequence[FaultEvent] = (), t: float | None = None,
            mode: str = "linear") -> MeasurementFrame:
    """Sensor frame at time t: true signals plus any active additive offsets."""
    if t is None:
        t = state.t
    df1, df2 = coupling_flows(state.De1, state.De2, state.De3, params, mode)
    values = [inputs[0], inputs[1], state.De1, state.De2, state.De3, df1, df2]
    for ev in events:
        values[VARIABLE_INDEX[ev.target]] += offset_at(ev, t)
    return MeasurementFrame(t, *values)


def simulate(scenario: FaultScenario, params: PlantParams, inputs: tuple[float, float],
             x0: PlantState, mode: str = "linear") -> Trace:
    """The trace of a scenario, one frame at a time from state ``x0``: per
    step the perturbed params, a measured frame with the active offsets,
    then one RK4 step from that frame's time."""
    dt = scenario.dt
    times = np.arange(math.ceil(scenario.duration / dt - 1e-9) + 1) * dt
    rng = np.random.default_rng(scenario.seed)
    state, rows = x0, []
    for t in times.tolist():
        p = perturb_params(params, scenario.noise_std_R, scenario.noise_std_C, rng)
        rows.append(frame_vector(measure(state, inputs, p, scenario.events, t, mode)))
        state = step(replace(state, t=t), inputs, p, dt, mode)
    return Trace(times, np.array(rows), dt)


def emit_dot(degrees) -> str:
    """The DOT graph built line by line on every call: the header, one node
    per variable in canonical order, the edges sorted."""
    table = _degree_map(degrees)
    lines = [
        "digraph system_state {",
        "  rankdir=LR;",
        "  node [style=filled, shape=ellipse, fontname=\"Helvetica\"];",
    ]
    for name in VARIABLES:
        d = table[name]
        lines.append(
            f"  \"{name}\" [fillcolor=\"{color_index(d)}\", "
            f"label=\"{name} ({d:.2f})\"];")
    for src, dst in sorted(EDGES):
        lines.append(f"  \"{src}\" -> \"{dst}\";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fault_direction(variable: str, params: PlantParams) -> np.ndarray:
    """Post-settling residual change per unit additive fault on ``variable``.

    The residuals are linear in the measured signals, so a settled step fault
    of magnitude m shifts the residual vector by m times this direction.
    Its support is exactly the variable's signature row.
    """
    p = params
    directions = {
        "Msf1": (1.0, 0.0, 0.0, 0.0, 0.0),
        "Msf2": (0.0, 0.0, 1.0, 0.0, 0.0),
        "De1": (-1.0 / p.R1, 0.0, 0.0, 0.0, 1.0 / p.R12),
        "De2": (0.0, -1.0 / p.R2, 0.0, -1.0 / p.R23, -1.0 / p.R12),
        "De3": (0.0, 0.0, -1.0 / p.R3, 1.0 / p.R23, 0.0),
        "Df1": (-1.0, 1.0, 0.0, 0.0, -1.0),
        "Df2": (0.0, -1.0, -1.0, -1.0, 0.0),
    }
    return np.array(directions[variable])


def signature_row(sig: np.ndarray, variable: str) -> frozenset[int]:
    """Residual indices (1-based) affected by a fault on ``variable``."""
    i = VARIABLES.index(variable)
    return frozenset(int(j) + 1 for j in np.flatnonzero(sig[i]))


def detuned_config() -> DetectorConfig:
    """A deliberately de-tuned but valid detector, used as a weak baseline.

    Input partitions sit far above the usual residual scale, so weak fault
    components go unseen and ramping faults cross late; the OK output sets
    are wide relative to AL, biasing degrees low.
    """
    cfg, _ = params_to_config(np.array([0.75, 1.5, 3.5, 4.8] * 5
                                       + [-4.8, -0.45, 0.45, 0.5] * 7))
    return cfg


def plant_params_dict(params: PlantParams) -> dict:
    """A plant config object, as ``plant.from_json`` reads it for ``PlantParams``."""
    return {"schema": 1, **{k: getattr(params, k) for k in params.__dataclass_fields__}}


def frame_vector(frame: MeasurementFrame) -> np.ndarray:
    """A frame's signals in canonical VARIABLES order (time excluded)."""
    return np.array([getattr(frame, name) for name in VARIABLES])


def column(trace: Trace, name: str) -> np.ndarray:
    """One supervised signal of a trace."""
    return trace.signals[:, VARIABLE_INDEX[name]]


def bank_traces(bank: ResidualBank) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each scenario's (times, residual rows): its slices of the bank's
    ``row_times`` and ``block``."""
    bounds = zip(bank.offsets[:-1].tolist(), bank.offsets[1:].tolist())
    return [(bank.row_times[lo:hi], bank.block[lo:hi]) for lo, hi in bounds]


def simulate_residuals(scenario: FaultScenario, params: PlantParams,
                       inputs: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """One scenario through ``plant.run`` and ``residual_trace``: the
    per-scenario path that a ResidualBank build equals bit for bit."""
    trace = plant.run(scenario, params, inputs)
    return residuals.residual_trace(trace, params,
                                    tau=DERIVATIVE_TAU_FACTOR * scenario.dt,
                                    spike_window=DERIVATIVE_SPIKE_WINDOW)


def compare(configs: Sequence[tuple[str, DetectorConfig]], suite: Sequence[FaultScenario],
            params: PlantParams, inputs: tuple[float, float],
            ) -> tuple[list[dict], list[list[DetectionReport]]]:
    """Side-by-side metrics rows of several (name, config) pairs on one
    suite's bank, and each config's per-scenario reports."""
    bank = ResidualBank.from_suite(suite, params, inputs)
    scored = [(name, *evaluate_bank(cfg, bank)) for name, cfg in configs]
    return ([metrics_row(name, metrics) for name, _, metrics in scored],
            [reports for _, reports, _ in scored])
