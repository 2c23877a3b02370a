"""Three-tank process simulation under nominal, noisy and faulty conditions.

The plant carries three pressure states (effort variables De1, De2, De3) and
exposes seven supervised signals per timestep: the two source flows, the
three pressures, and the two coupling flows. Faults are additive offsets on
the *measured* channels (sensor/actuator reading faults); parameter noise
perturbs the physical R and C values each step. The model is stated once,
in ``_derivatives`` and ``_flows``, and ``steady_state`` is its zero.
``run`` (floats, either mode) and ``simulate_suite`` (a suite's arrays,
linear mode) differ only in their RK4 time loop: ``_signals`` measures both.

Every module's file handling is also here: ``check_fields`` (the rule of
every JSON input object), ``json_value`` (the type rule of every JSON
value), ``shown`` (how an error echoes a value), ``read_json``,
``write_json`` and ``write_csv``. Each JSON file format is declared once,
by its dataclass (``Inputs`` is the ``inputs`` object of a scenario or
suite file): ``to_json`` writes and ``from_json`` reads any of them from
``dataclasses.fields`` and the fields' type hints. A nested object holds
no ``schema`` of its own.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

#: The seven supervised variables, in canonical order.
VARIABLES = ("Msf1", "Msf2", "De1", "De2", "De3", "Df1", "Df2")

VARIABLE_INDEX = {name: i for i, name in enumerate(VARIABLES)}

FAULT_PROFILES = ("step", "ramp")

#: The default operating point: the constant source flows (Msf1, Msf2).
OPERATING_POINT = (1.0, 0.8)


class SimulationDiverged(RuntimeError):
    """Raised when a simulated signal is non-finite: a diverged pressure, or
    a flow or fault offset that overflows.

    ``scenario`` is the index of the diverging scenario when a whole suite
    was simulated, else None.
    """

    def __init__(self, variable: str, t: float, scenario: int | None = None):
        self.variable = variable
        self.t = t
        self.scenario = scenario
        where = "" if scenario is None else f" in scenario {scenario}"
        super().__init__(f"simulation diverged: {variable} is non-finite at t={t:.6g}s{where}")


class SchemaError(ValueError):
    """Raised when a JSON artifact does not match its documented schema."""


def check_fields(obj, owner: str, fields, required=(), lists=()) -> None:
    """The rule of every JSON input object: a dict whose ``schema`` (if any)
    is 1, with every ``required`` field, no field outside ``fields`` and
    ``schema``, and a list in each ``lists`` field present. Errors name
    ``owner`` and the field."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{owner} must be a JSON object")
    schema = obj.get("schema", 1)
    if type(schema) is not int or schema != 1:   # neither true nor 1.0 is schema 1
        raise SchemaError(f"unsupported {owner} schema {shown(schema)}")
    unknown = [key for key in obj if key not in fields and key != "schema"]
    if unknown:
        raise SchemaError(f"unknown field(s) in {owner}: {shown(sorted(unknown))}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{owner} is missing required field {key!r}")
    for key in lists:
        if not isinstance(obj.get(key, []), list):
            raise SchemaError(f"{owner} field {key!r} must be a list")


def shown(value) -> str:
    """``repr(value)`` as error messages echo it: past 80 characters its
    middle is cut to "...", so that no input value makes a message long."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:40]}...{text[-37:]}"


#: The type rule of JSON values: the Python types that a parsed JSON value
#: of an int, float or str field may have, and their name in messages.
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
               str: (str, "a string")}


def json_value(value, tp: type, owner: str, key: str):
    """``value`` of field ``key`` under the type rule of every JSON field: an
    int field takes an integer, a float field a number (an integer is widened
    to float) and a str field a string; a bool is never a number."""
    accepted, kind = _JSON_TYPES[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise SchemaError(f"{owner} field {key!r} must be {kind}, got {shown(value)}")
    try:
        return float(value) if tp is float else value
    except OverflowError:
        raise SchemaError(f"{owner} field {key!r} is too large for a number") from None


@lru_cache(maxsize=None)
def _layout(cls) -> tuple[dict, tuple, tuple]:
    """Dataclass ``cls`` as JSON sees it, resolved once per class: (type,
    form) by field name, with form "list" for a ``tuple[X, ...]`` field (a
    list of X objects, type X), "object" for a dataclass field (one object)
    and None for a value; the fields with no default; the tuple fields."""
    hints = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        tp, args = hints[f.name], typing.get_args(hints[f.name])
        fields[f.name] = ((args[0], "list") if args else
                          (tp, "object" if dataclasses.is_dataclass(tp) else None))
    required = tuple(f.name for f in dataclasses.fields(cls)
                     if f.default is f.default_factory is dataclasses.MISSING)
    return fields, required, tuple(name for name, (_, form) in fields.items() if form == "list")


def to_json(obj, schema: bool = True) -> dict:
    """The JSON object of dataclass instance ``obj``: each field under its
    name, a tuple field as a list of its items' objects and a dataclass
    field as its object (neither of which holds a ``schema``), and
    ``"schema": 1`` if ``schema``."""
    out = {"schema": 1} if schema else {}
    for name, (_, form) in _layout(type(obj))[0].items():
        value = getattr(obj, name)
        out[name] = ([to_json(v, False) for v in value] if form == "list" else
                     to_json(value, False) if form == "object" else value)
    return out


def from_json(cls, obj, owner: str, extra: Sequence[str] = ()):
    """The instance of dataclass ``cls`` that JSON object ``obj`` holds.

    ``obj`` follows ``check_fields`` with the fields of ``cls``: those with
    no default are required, a tuple field is a list of objects read the
    same way, and a dataclass field is one such object, read with the owner
    ``"<owner> field '<name>'"``. Values follow ``json_value``. ``obj`` may
    also hold the keys in ``extra``, which the caller reads. A
    ``ValueError`` from ``cls`` is a SchemaError naming ``owner``.
    """
    fields, required, lists = _layout(cls)
    check_fields(obj, owner, [*fields, *extra] if extra else fields, required, lists)
    kwargs = {}
    for name, (tp, form) in fields.items():
        if name in obj:
            value = obj[name]
            if form == "list":
                value = tuple([from_json(tp, v, f"{owner} {name}[{i}]")
                               for i, v in enumerate(value)])
            elif form == "object":
                value = from_json(tp, value, f"{owner} field {name!r}")
            elif type(value) is not tp:   # a value of type tp passes json_value as it is
                value = json_value(value, tp, owner, name)
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"invalid {owner}: {exc}") from exc


def read_json(path: str, owner: str):
    """The parsed content of a JSON file; invalid JSON is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{owner} file is not valid JSON: {exc}") from exc


def write_json(obj, path: str) -> None:
    """Write ``obj`` as JSON: indent 2, sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str) -> None:
    """Write ``header`` and ``rows`` as CSV: floats at full precision
    (``repr``), booleans as 0/1 and anything else as ``str``, quoted where
    it holds a comma, quote or line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(map(_cell, row) for row in rows)


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the process, each finite and positive.

    Defaults are normalized units chosen to give O(1) signals and time
    constants of a few seconds; all values can be overridden via config.
    ``valve`` is nonlinear mode's coupling flow at unit pressure difference.
    """

    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0
    R1: float = 2.0
    R2: float = 2.0
    R3: float = 2.0
    R12: float = 1.0
    R23: float = 1.0
    valve: float = 1.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"PlantParams.{name} must be finite and positive, "
                                 f"got {shown(value)}")


@dataclass(frozen=True)
class FaultEvent:
    """Additive fault on one supervised channel.

    ``step`` adds ``magnitude`` from ``start`` on; ``ramp`` interprets
    ``magnitude`` as a slope (units per second) and adds
    ``magnitude * (t - start)``.
    """

    target: str
    start: float
    magnitude: float
    profile: str = "step"

    def __post_init__(self):
        if self.target not in VARIABLES:
            raise ValueError(f"FaultEvent.target must be one of {VARIABLES}, "
                             f"got {shown(self.target)}")
        if self.profile not in FAULT_PROFILES:
            raise ValueError(f"FaultEvent.profile must be one of {FAULT_PROFILES}")
        for name in ("start", "magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"FaultEvent.{name} must be finite")


#: Most time steps, ``duration / dt``, of one scenario. A run keeps every
#: step's noise row and pressures, so a longer one would fill memory.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class FaultScenario:
    """One simulation run: horizon, noise levels and injected fault events."""

    seed: int = 0
    duration: float = 20.0
    dt: float = 0.1
    noise_std_R: float = 0.0
    noise_std_C: float = 0.0
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        for name in ("duration", "dt", "noise_std_R", "noise_std_C"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"FaultScenario.{name} must be finite")
        if self.dt <= 0:
            raise ValueError("FaultScenario.dt must be positive")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError("FaultScenario.duration / dt must be finite, got "
                             f"{self.duration!r} / {self.dt!r}")
        if self.duration / self.dt > MAX_STEPS:
            raise ValueError(f"FaultScenario.duration / dt must be at most {MAX_STEPS} "
                             f"steps, got {self.duration!r} / {self.dt!r}")
        if self.duration < self.dt:
            raise ValueError("FaultScenario.duration must be at least one step")
        if self.seed < 0:
            raise ValueError(f"FaultScenario.seed must be non-negative, got {shown(self.seed)}")
        if self.noise_std_R < 0 or self.noise_std_C < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if len(self.events) > 7:
            raise ValueError("at most 7 fault events per scenario")
        for ev in self.events:
            if not 0 <= ev.start <= self.duration:
                raise ValueError(f"event start {ev.start} outside [0, {self.duration}]")
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def injected(self) -> frozenset[str]:
        return frozenset(ev.target for ev in self.events)


@dataclass(frozen=True)
class Trace:
    """Time-ordered supervised signals of one run; immutable once produced."""

    times: np.ndarray           # (T,)
    signals: np.ndarray         # (T, 7) in VARIABLES order
    dt: float

    def __post_init__(self):
        self.times.setflags(write=False)
        self.signals.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)

    def frames(self) -> Iterable[tuple[float, ...]]:
        """Rows ``(t, Msf1, Msf2, De1, De2, De3, Df1, Df2)`` of Python floats,
        as ``write_trace_csv`` writes them and ``ResidualEvaluator`` takes them."""
        return map(tuple, np.column_stack([self.times, self.signals]).tolist())


def _flows(de1, de2, de3, r12, r23, params: PlantParams, mode: str) -> tuple:
    """Coupling flows Df1 (tank1 -> tank2) and Df2 (tank3 -> tank2) of floats or arrays.

    Linear mode divides the pressure difference by the step's (possibly
    noisy) coupling resistance ``r12`` or ``r23``. Nonlinear mode uses the
    sign-preserving square-root valve law
    ``valve * sgn(hi - hj) * sqrt(|hi - hj|)``, in numpy ufuncs: a
    difference of +0.0 or -0.0 gives +0.0, and NaN propagates.
    """
    if mode == "linear":
        return (de1 - de2) / r12, (de3 - de2) / r23
    if mode == "nonlinear":
        def q(hi, hj):
            d = hi - hj
            return params.valve * np.copysign(np.sqrt(np.abs(d)), d + 0.0)

        return q(de1, de2), q(de3, de2)
    raise ValueError(f"unknown plant mode {mode!r}")


#: The parameters that noise perturbs: the columns of a ``noise_table``.
NOISY_PARAMS = ("R1", "R2", "R3", "R12", "R23", "C1", "C2", "C3")


def _derivatives(de: tuple[float, float, float], inputs: tuple[float, float],
                 rc: Sequence[float], params: PlantParams,
                 mode: str) -> tuple[float, float, float]:
    de1, de2, de3 = de
    msf1, msf2 = inputs
    r1, r2, r3, r12, r23, c1, c2, c3 = rc
    df1, df2 = _flows(de1, de2, de3, r12, r23, params, mode)
    return (
        (msf1 - de1 / r1 - df1) / c1,
        (df1 - de2 / r2 - df2) / c2,
        (msf2 - df2 - de3 / r3) / c3,
    )


def _rk4(de: tuple, inputs: tuple[float, float], rc: Sequence[float],
         params: PlantParams, dt: float, mode: str) -> tuple:
    """One classical RK4 step of the three pressures, on Python floats.

    ``rc`` holds the step's R and C in NOISY_PARAMS order; ``params``
    supplies the valve constant of nonlinear mode.
    """
    k1 = _derivatives(de, inputs, rc, params, mode)
    k2 = _derivatives(tuple(x + 0.5 * dt * k for x, k in zip(de, k1)), inputs, rc, params, mode)
    k3 = _derivatives(tuple(x + 0.5 * dt * k for x, k in zip(de, k2)), inputs, rc, params, mode)
    k4 = _derivatives(tuple(x + dt * k for x, k in zip(de, k3)), inputs, rc, params, mode)
    return tuple(
        x + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for x, a, b, c, d in zip(de, k1, k2, k3, k4)
    )


def noise_table(scenario: FaultScenario, params: PlantParams, n_rows: int) -> np.ndarray:
    """Per-step R and C of a scenario, (n_rows, 8) in NOISY_PARAMS order.

    Each value is its nominal times (1 + N(0, sigma)), floored at 1% of
    nominal, with sigma the scenario's ``noise_std_R`` or ``noise_std_C``.
    The normals are one ``default_rng(scenario.seed)`` draw of shape
    (n_rows, 8). A noise-free scenario draws nothing: every row is nominal,
    in a read-only broadcast view.
    """
    nominal = np.array([getattr(params, name) for name in NOISY_PARAMS])
    if scenario.noise_std_R == 0 and scenario.noise_std_C == 0:
        return np.broadcast_to(nominal, (n_rows, len(NOISY_PARAMS)))
    sigma = np.array([scenario.noise_std_R if name.startswith("R") else scenario.noise_std_C
                      for name in NOISY_PARAMS])
    z = np.random.default_rng(scenario.seed).standard_normal((n_rows, len(NOISY_PARAMS)))
    return np.maximum(nominal * (1.0 + sigma * z), 0.01 * nominal)


def steady_state(inputs: tuple[float, float],
                 params: PlantParams) -> tuple[float, float, float]:
    """Equilibrium pressures (De1, De2, De3) of the linear model for
    constant source flows: the zero of ``_derivatives``, which are affine in
    the pressures. At unit capacitances, which do not move the zero, the
    Jacobian's columns are the derivatives at unit pressures and no inflow."""
    rc = [*(getattr(params, name) for name in NOISY_PARAMS[:5]), 1.0, 1.0, 1.0]
    jacobian = np.array([_derivatives(unit, (0.0, 0.0), rc, params, "linear")
                         for unit in np.eye(3).tolist()]).T
    constant = np.array(_derivatives((0.0, 0.0, 0.0), inputs, rc, params, "linear"))
    # + 0.0: a zero pressure is +0.0 whatever sign LAPACK's pivoting leaves
    return tuple(float(x) + 0.0 for x in np.linalg.solve(jacobian, -constant))


def _signals(de: np.ndarray, rc: np.ndarray, inputs: tuple[float, float],
             params: PlantParams, mode: str, dt: float,
             suite: Sequence[FaultScenario]) -> tuple[np.ndarray, np.ndarray]:
    """Times (T,) and signals (S, T, 7) of ``suite`` from its pressures
    ``de`` (T, 3, S) and R/C rows ``rc`` (T, 8, S), with each scenario's
    fault offsets; raises SimulationDiverged for the first non-finite
    signal by scenario, then sample, then VARIABLES order, at that
    sample's time."""
    times = np.arange(len(de)) * dt
    signals = np.empty((de.shape[2], len(de), 7))
    signals[:, :, 0], signals[:, :, 1] = inputs
    signals[:, :, 2:5] = de.transpose(2, 0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        df1, df2 = _flows(de[:, 0], de[:, 1], de[:, 2], rc[:, 3], rc[:, 4], params, mode)
        signals[:, :, 5], signals[:, :, 6] = df1.T, df2.T
        for rows, sc in zip(signals, suite):
            for ev in sc.events:
                offset = ev.magnitude if ev.profile == "step" else ev.magnitude * (times - ev.start)
                rows[:, VARIABLE_INDEX[ev.target]] += np.where(times < ev.start, 0.0, offset)
    if not np.isfinite(signals).all():
        i, k, j = np.argwhere(~np.isfinite(signals))[0]
        raise SimulationDiverged(VARIABLES[j], float(times[k]), scenario=int(i))
    return times, signals


def run(scenario: FaultScenario, params: PlantParams, inputs: tuple[float, float],
        mode: str = "linear") -> Trace:
    """Simulate a scenario and return the measured trace.

    ``inputs`` is the constant operating point (Msf1, Msf2). The run starts
    at its linear steady state, so fault-free runs sit at the operating
    point from the first frame. Each step's R and C are a row of the
    scenario's ``noise_table``, so the run is deterministic given the
    scenario seed.
    """
    u = (float(inputs[0]), float(inputs[1]))
    dt = scenario.dt
    rc = noise_table(scenario, params, math.ceil(scenario.duration / dt - 1e-9) + 1)
    de = [steady_state(u, params)]
    # past a divergence, nonlinear mode's ufuncs meet inf and NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rc[:-1].tolist():
            de.append(_rk4(de[-1], u, row, params, dt, mode))
    try:
        times, signals = _signals(np.array(de)[:, :, None], rc[:, :, None], u, params,
                                  mode, dt, [scenario])
    except SimulationDiverged as exc:
        raise SimulationDiverged(exc.variable, exc.t) from None
    return Trace(times, signals[0], dt)


def simulate_suite(suite: Sequence[FaultScenario], params: PlantParams,
                   inputs: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Simulate scenarios that share ``dt`` and ``duration`` in one RK4 pass.

    Returns (times (T,), signals (S, T, 7)); ``signals[i]`` equals
    ``run(suite[i], params, inputs).signals`` bit for bit (linear mode,
    constant inputs). The pressures of all scenarios are one (T, 3, S)
    array and their R/C one (T, 8, S) stack of ``noise_table``s, so each
    RK4 stage is a few whole-array operations on (3, S) buffers, written in
    ``_derivatives``' operation order; ``_signals`` measures the result.
    If any scenario diverges, raises the SimulationDiverged that simulating
    the suite one scenario at a time would raise first.
    """
    if not suite:
        raise ValueError("simulate_suite needs at least one scenario")
    dt, duration = suite[0].dt, suite[0].duration
    if any(sc.dt != dt or sc.duration != duration for sc in suite):
        raise ValueError("simulate_suite needs scenarios sharing dt and duration")
    n_rows, n_scen = math.ceil(duration / dt - 1e-9) + 1, len(suite)
    u = (float(inputs[0]), float(inputs[1]))

    rc = np.empty((n_rows, len(NOISY_PARAMS), n_scen))
    for i, sc in enumerate(suite):
        rc[:, :, i] = noise_table(sc, params, n_rows)
    # The loop keeps the tanks in the order (3, 1, 2) so that every operand
    # below is a contiguous block of rows: a strided view makes a ufunc call
    # cost about twice as much. rcp holds (R3, R1, R2 | R23, R12 | C3, C1,
    # C2) and de the pressures (De3, De1, De2) until the loop ends.
    rcp = rc.take([2, 0, 1, 4, 3, 7, 5, 6], axis=1)
    de = np.empty((n_rows, 3, n_scen))
    de[0] = np.array(steady_state(u, params))[[2, 0, 1], None]

    k1, k2, k3, k4, stage, q = (np.empty((3, n_scen)) for _ in range(6))
    # terms = [Msf2 - Df2, Msf1, Df1, Df2, Df1]: rows 0:3 are the inflow
    # terms of tanks (3, 1, 2), rows 2:4 the flows that tanks 1 and 2 shed
    # and rows 3:5 the coupling flows, so each derivative row is
    # ((inflow - De/R) - shed) / C in _derivatives' order; tank 3 sheds
    # nothing, as Df2 is already in its inflow.
    terms = np.empty((5, n_scen))
    terms[1] = u[0]
    inflow, shed, flows = terms[0:3], terms[2:4], terms[3:5]
    tank3_in, tank2_in, df2, df1 = terms[0], terms[2], terms[3], terms[4]
    msf2 = np.full(n_scen, u[1])

    def derivatives(x, x31, x2, r_de, r_df, cap, out, out12):
        # ufuncs take ``out`` positionally: the keyword costs a third more per call
        np.subtract(x31, x2, flows)
        np.divide(flows, r_df, flows)
        np.subtract(msf2, df2, tank3_in)
        np.positive(df1, tank2_in)
        np.divide(x, r_de, q)
        np.subtract(inflow, q, out)
        np.subtract(out12, shed, out12)
        np.divide(out, cap, out)

    # constants are arrays too: a Python float operand costs a call half as much again
    half, full, sixth, two = (np.full((3, n_scen), c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    stage31, stage2 = stage[0:2], stage[2]
    k1_12, k2_12, k3_12, k4_12 = (k[1:] for k in (k1, k2, k3, k4))   # rows of tanks 1, 2
    with np.errstate(over="ignore", invalid="ignore"):
        for x, x31, x2, new, r_de, r_df, cap in zip(
                de[:-1], de[:-1, 0:2], de[:-1, 2], de[1:],
                rcp[:, 0:3], rcp[:, 3:5], rcp[:, 5:8]):
            derivatives(x, x31, x2, r_de, r_df, cap, k1, k1_12)
            np.add(x, np.multiply(k1, half, stage), stage)
            derivatives(stage, stage31, stage2, r_de, r_df, cap, k2, k2_12)
            np.add(x, np.multiply(k2, half, stage), stage)
            derivatives(stage, stage31, stage2, r_de, r_df, cap, k3, k3_12)
            np.add(x, np.multiply(k3, full, stage), stage)
            derivatives(stage, stage31, stage2, r_de, r_df, cap, k4, k4_12)
            # x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), left to right
            np.add(k1, np.multiply(k2, two, k2), k1)
            np.add(k1, np.multiply(k3, two, k3), k1)
            np.add(k1, k4, k1)
            np.add(x, np.multiply(k1, sixth, k1), new)
    return _signals(de.take([1, 2, 0], axis=1), rc, u, params, "linear", dt, suite)


# ---------------------------------------------------------------------------
# JSON / CSV interfaces

@dataclass(frozen=True)
class Inputs:
    """The ``inputs`` object of a scenario or suite file: the constant
    source flows of the operating point."""

    Msf1: float
    Msf2: float

    def __post_init__(self):
        for name in ("Msf1", "Msf2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Inputs.{name} must be finite")


def load_scenario(path: str) -> tuple[FaultScenario, tuple[float, float]]:
    """Read a scenario JSON file; returns (scenario, operating inputs)."""
    obj = read_json(path, "scenario")
    # only a file's top level holds ``inputs``, not a scenario in a suite
    scenario = from_json(FaultScenario, obj, "scenario", ("inputs",))
    if "inputs" not in obj:
        return scenario, OPERATING_POINT
    inputs = from_json(Inputs, obj["inputs"], "scenario field 'inputs'")
    return scenario, (inputs.Msf1, inputs.Msf2)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write `t,Msf1,Msf2,De1,De2,De3,Df1,Df2` rows at full float precision."""
    write_csv(("t",) + VARIABLES, trace.frames(), path)
