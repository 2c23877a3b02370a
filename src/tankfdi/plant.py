"""Three-tank process simulation under nominal, noisy and faulty conditions.

The plant carries three pressure states (effort variables De1, De2, De3) and
exposes seven supervised signals per timestep: the two source flows, the
three pressures, and the two coupling flows. Faults are additive offsets on
the *measured* channels (sensor/actuator reading faults); parameter noise
perturbs the physical R and C values each step.

Every module's file handling is also here: ``check_fields`` (the rule of
every JSON input object), ``json_value`` (the type rule of every JSON
value), ``read_json``, ``write_json`` and ``write_csv``. Each JSON file
format is declared once, by its dataclass: ``to_json`` writes and
``from_json`` reads any of them from ``dataclasses.fields`` and the fields'
type hints.
"""

from __future__ import annotations

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
    """Raised when a state variable becomes non-finite during integration.

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
        raise SchemaError(f"unsupported {owner} schema {schema!r}")
    unknown = [key for key in obj if key not in fields and key != "schema"]
    if unknown:
        raise SchemaError(f"unknown field(s) in {owner}: {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{owner} is missing required field {key!r}")
    for key in lists:
        if not isinstance(obj.get(key, []), list):
            raise SchemaError(f"{owner} field {key!r} must be a list")


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
        raise SchemaError(f"{owner} field {key!r} must be {kind}, got {value!r}")
    try:
        return float(value) if tp is float else value
    except OverflowError:
        raise SchemaError(f"{owner} field {key!r} is too large for a number") from None


@lru_cache(maxsize=None)
def _layout(cls) -> tuple[dict, tuple, tuple]:
    """Dataclass ``cls`` as JSON sees it, resolved once per class: (type,
    item) by field name, with item X for a ``tuple[X, ...]`` field (a list
    of X objects) else None; the fields with no default; the tuple fields."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: (hints[f.name], (typing.get_args(hints[f.name]) or (None,))[0])
              for f in dataclasses.fields(cls)}
    required = tuple(f.name for f in dataclasses.fields(cls)
                     if f.default is f.default_factory is dataclasses.MISSING)
    return fields, required, tuple(name for name, (_, item) in fields.items() if item)


def to_json(obj, schema: bool = True) -> dict:
    """The JSON object of dataclass instance ``obj``: each field under its
    name, a tuple field as a list of its items' objects (which hold no
    ``schema``), and ``"schema": 1`` if ``schema``."""
    out = {"schema": 1} if schema else {}
    for name, (_, item) in _layout(type(obj))[0].items():
        value = getattr(obj, name)
        out[name] = [to_json(v, False) for v in value] if item else value
    return out


def from_json(cls, obj, owner: str, extra: Sequence[str] = (), **stored):
    """The instance of dataclass ``cls`` that JSON object ``obj`` holds.

    ``obj`` follows ``check_fields`` with the fields of ``cls``: those with
    no default are required, and a tuple field is a list of objects read
    the same way. Values follow ``json_value``. ``obj`` may also hold the
    keys in ``extra``, which the caller reads. ``stored`` maps a field that
    JSON holds in another form to (key, type, build): the field is
    ``build(key=value)``, or ``build()`` when ``obj`` has no ``key``.
    """
    fields, required, lists = _layout(cls)
    names = fields
    if extra or stored:
        names = [*(name for name in fields if name not in stored), *extra,
                 *(key for key, _, _ in stored.values())]
        required = [name for name in required if name not in stored]
    check_fields(obj, owner, names, required, lists)
    kwargs = {}
    for name, (tp, item) in fields.items():
        if name in obj:
            value = obj[name]
            if item:
                value = tuple([from_json(item, v, f"{owner} {name}[{i}]")
                               for i, v in enumerate(value)])
            elif type(value) is not tp:   # a value of type tp passes json_value as it is
                value = json_value(value, tp, owner, name)
            kwargs[name] = value
    try:
        for name, (key, tp, build) in stored.items():
            kwargs[name] = build(**{key: json_value(obj[key], tp, owner, key)}
                                 if key in obj else {})
        return cls(**kwargs)
    except SchemaError:
        raise
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
    (``repr``), booleans as 0/1 and anything else as ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the process.

    Defaults are normalized units chosen to give O(1) signals and time
    constants of a few seconds; all values can be overridden via config.
    """

    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0
    R1: float = 2.0
    R2: float = 2.0
    R3: float = 2.0
    R12: float = 1.0
    R23: float = 1.0
    az: float = 1.0       # outflow coefficient, dimensionless
    S_conn: float = 1.0   # connecting-valve cross section
    g: float = 9.81
    rho: float = 2.0      # chosen so the square-root coupling law matches the
                          # linear one at unit pressure difference

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"PlantParams.{name} must be finite")
        for name in ("C1", "C2", "C3", "R1", "R2", "R3", "R12", "R23"):
            if getattr(self, name) <= 0:
                raise ValueError(f"PlantParams.{name} must be strictly positive")
        if not 0 < self.az <= 1:
            raise ValueError("PlantParams.az must be in (0, 1]")
        if self.S_conn <= 0 or self.g <= 0 or self.rho <= 0:
            raise ValueError("PlantParams S_conn, g and rho must be positive")

    @classmethod
    def from_dict(cls, obj: dict) -> "PlantParams":
        return from_json(cls, obj, "plant config")


@dataclass(frozen=True)
class PlantState:
    """Tank pressures and simulation time."""

    De1: float = 0.0
    De2: float = 0.0
    De3: float = 0.0
    t: float = 0.0


@dataclass(frozen=True)
class MeasurementFrame:
    """The seven supervised signals at one timestep."""

    t: float
    Msf1: float
    Msf2: float
    De1: float
    De2: float
    De3: float
    Df1: float
    Df2: float


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
            raise ValueError(f"FaultEvent.target must be one of {VARIABLES}, got {self.target!r}")
        if self.profile not in FAULT_PROFILES:
            raise ValueError(f"FaultEvent.profile must be one of {FAULT_PROFILES}")
        for name in ("start", "magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"FaultEvent.{name} must be finite")

    def offset_at(self, t: float) -> float:
        if t < self.start:
            return 0.0
        if self.profile == "step":
            return self.magnitude
        return self.magnitude * (t - self.start)


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
        if self.duration < self.dt:
            raise ValueError("FaultScenario.duration must be at least one step")
        if self.seed < 0:
            raise ValueError(f"FaultScenario.seed must be non-negative, got {self.seed}")
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

    def frame(self, i: int) -> MeasurementFrame:
        row = self.signals[i]
        return MeasurementFrame(float(self.times[i]), *(float(v) for v in row))

    def frames(self) -> Iterable[MeasurementFrame]:
        return (self.frame(i) for i in range(len(self)))


def coupling_flows(De1: float, De2: float, De3: float, params: PlantParams,
                   mode: str = "linear") -> tuple[float, float]:
    """Coupling flows Df1 (tank1 -> tank2) and Df2 (tank3 -> tank2).

    Linear mode divides the pressure difference by the coupling resistance.
    Nonlinear mode uses the sign-preserving square-root valve law
    ``az * S * sgn(hi - hj) * sqrt(2 g |hi - hj|)`` with ``h = De / (rho g)``.
    """
    return _flows(De1, De2, De3, params.R12, params.R23, params, mode)


def _flows(de1: float, de2: float, de3: float, r12: float, r23: float,
           params: PlantParams, mode: str) -> tuple[float, float]:
    """``coupling_flows`` with the step's (possibly noisy) coupling
    resistances passed apart from the valve constants in ``params``."""
    if mode == "linear":
        return (de1 - de2) / r12, (de3 - de2) / r23
    if mode == "nonlinear":
        k = params.az * params.S_conn

        def q(hi: float, hj: float) -> float:
            d = (hi - hj) / (params.rho * params.g)
            return k * math.copysign(math.sqrt(2.0 * params.g * abs(d)), d) if d else 0.0

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
    supplies the valve constants of nonlinear mode.
    """
    k1 = _derivatives(de, inputs, rc, params, mode)
    k2 = _derivatives(tuple(x + 0.5 * dt * k for x, k in zip(de, k1)), inputs, rc, params, mode)
    k3 = _derivatives(tuple(x + 0.5 * dt * k for x, k in zip(de, k2)), inputs, rc, params, mode)
    k4 = _derivatives(tuple(x + dt * k for x, k in zip(de, k3)), inputs, rc, params, mode)
    return tuple(
        x + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for x, a, b, c, d in zip(de, k1, k2, k3, k4)
    )


def _advance(de: tuple, inputs: tuple[float, float], rc: Sequence[float],
             params: PlantParams, dt: float, mode: str, t: float) -> tuple:
    """``_rk4`` from time t; raises SimulationDiverged at t + dt for the
    first pressure that is no longer finite."""
    new = _rk4(de, inputs, rc, params, dt, mode)
    for name, value in zip(("De1", "De2", "De3"), new):
        if not math.isfinite(value):
            raise SimulationDiverged(name, t + dt)
    return new


def step(state: PlantState, inputs: tuple[float, float], params: PlantParams,
         dt: float, mode: str = "linear") -> PlantState:
    """Advance the plant one fixed RK4 step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rc = tuple(getattr(params, name) for name in NOISY_PARAMS)
    new = _advance((state.De1, state.De2, state.De3), inputs, rc, params, dt, mode, state.t)
    return PlantState(new[0], new[1], new[2], state.t + dt)


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


def _add_faults(signals: np.ndarray, times: np.ndarray,
                events: Sequence[FaultEvent]) -> None:
    """Add each event's ``offset_at`` to its channel of one scenario's
    (T, 7) signals, in place."""
    for ev in events:
        offset = ev.magnitude if ev.profile == "step" else ev.magnitude * (times - ev.start)
        signals[:, VARIABLE_INDEX[ev.target]] += np.where(times < ev.start, 0.0, offset)


def steady_state(inputs: tuple[float, float], params: PlantParams) -> PlantState:
    """Equilibrium pressures of the linear model for constant source flows."""
    msf1, msf2 = inputs
    p = params
    # Zeros of the three pressure derivatives; note the middle tank sheds
    # both coupling flows, so the R23 terms enter its balance negatively.
    a = np.array([
        [1.0 / p.R1 + 1.0 / p.R12, -1.0 / p.R12, 0.0],
        [1.0 / p.R12, -(1.0 / p.R2 + 1.0 / p.R12 - 1.0 / p.R23), -1.0 / p.R23],
        [0.0, -1.0 / p.R23, 1.0 / p.R23 + 1.0 / p.R3],
    ])
    b = np.array([msf1, 0.0, msf2])
    de = np.linalg.solve(a, b)
    return PlantState(float(de[0]), float(de[1]), float(de[2]), 0.0)


def run(scenario: FaultScenario, params: PlantParams, inputs: tuple[float, float],
        x0: PlantState | None = None, mode: str = "linear") -> Trace:
    """Simulate a scenario and return the measured trace.

    ``inputs`` is the constant operating point (Msf1, Msf2). The initial
    state defaults to its linear steady state, so fault-free runs sit at the
    operating point from the first frame. Each step's R and C are a row of
    the scenario's ``noise_table``, so the run is deterministic given the
    scenario seed.
    """
    u = (float(inputs[0]), float(inputs[1]))
    if x0 is None:
        x0 = steady_state(u, params)
    dt = scenario.dt
    n_steps = math.ceil(scenario.duration / dt - 1e-9)
    de = (x0.De1, x0.De2, x0.De3)
    rows = []
    for k, rc in enumerate(noise_table(scenario, params, n_steps + 1).tolist()):
        rows.append((*u, *de, *_flows(*de, rc[3], rc[4], params, mode)))
        if k < n_steps:
            de = _advance(de, u, rc, params, dt, mode, k * dt)
    times = np.arange(n_steps + 1) * dt
    signals = np.array(rows, dtype=float)
    _add_faults(signals, times, scenario.events)
    return Trace(times, signals, dt)


def simulate_suite(suite: Sequence[FaultScenario], params: PlantParams,
                   inputs: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Simulate scenarios that share ``dt`` and ``duration`` in one RK4 pass.

    Returns (times (T,), signals (S, T, 7)); ``signals[i]`` equals
    ``run(suite[i], params, inputs).signals`` bit for bit (linear mode,
    constant inputs). The pressures of all scenarios are one (T, 3, S)
    array and their R/C one (T, 8, S) stack of ``noise_table``s, so each
    RK4 stage is a few whole-array operations on (3, S) buffers, written in
    ``_derivatives``' operation order. The fault offsets are added after
    integration. If any scenario diverges, raises the SimulationDiverged
    that simulating the suite one scenario at a time would raise first.
    """
    if not suite:
        raise ValueError("simulate_suite needs at least one scenario")
    dt, duration = suite[0].dt, suite[0].duration
    if any(sc.dt != dt or sc.duration != duration for sc in suite):
        raise ValueError("simulate_suite needs scenarios sharing dt and duration")
    n_steps = math.ceil(duration / dt - 1e-9)
    n_rows, n_scen = n_steps + 1, len(suite)
    u = (float(inputs[0]), float(inputs[1]))
    x0 = steady_state(u, params)

    rc = np.empty((n_rows, len(NOISY_PARAMS), n_scen))
    for i, sc in enumerate(suite):
        rc[:, :, i] = noise_table(sc, params, n_rows)
    # The loop keeps the tanks in the order (3, 1, 2) so that every operand
    # below is a contiguous block of rows: a strided view makes a ufunc call
    # cost about twice as much. rcp holds (R3, R1, R2 | R23, R12 | C3, C1,
    # C2) and de the pressures (De3, De1, De2) until the loop ends.
    rcp = rc.take([2, 0, 1, 4, 3, 7, 5, 6], axis=1)
    de = np.empty((n_rows, 3, n_scen))
    de[0] = np.array([x0.De3, x0.De1, x0.De2])[:, None]

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
        de = de.take([1, 2, 0], axis=1)
        finite = np.isfinite(de[1:])
        if not finite.all():
            bad = ~finite.all(axis=1)                       # (steps, S)
            i = int(np.argmax(bad.any(axis=0)))
            k = int(np.argmax(bad[:, i]))
            j = int(np.argmin(finite[k, :, i]))
            raise SimulationDiverged(("De1", "De2", "De3")[j], k * dt + dt, scenario=i)
        coupling = (de[:, ::2] - de[:, 1:2]) / rc[:, 3:5]  # (T, 2, S)

    times = np.arange(n_rows) * dt
    signals = np.empty((n_scen, n_rows, 7))
    signals[:, :, 0], signals[:, :, 1] = u
    signals[:, :, 2:5] = de.transpose(2, 0, 1)
    signals[:, :, 5:7] = coupling.transpose(2, 0, 1)
    for rows, sc in zip(signals, suite):
        _add_faults(rows, times, sc.events)
    return times, signals


# ---------------------------------------------------------------------------
# JSON / CSV interfaces

def scenario_to_dict(scenario: FaultScenario) -> dict:
    return to_json(scenario)


def scenario_from_dict(obj: dict, owner: str = "scenario") -> FaultScenario:
    return from_json(FaultScenario, obj, owner)


#: The keys of an ``inputs`` object: the source flows, in VARIABLES order.
_SOURCES = VARIABLES[:2]


def inputs_to_dict(inputs: tuple[float, float]) -> dict:
    """The ``inputs`` object of a scenario or suite file."""
    return dict(zip(_SOURCES, inputs))


def parse_inputs(obj: dict, owner: str) -> tuple[float, float]:
    """Operating inputs (Msf1, Msf2) of a scenario or suite file object."""
    if "inputs" not in obj:
        return OPERATING_POINT
    inputs, where = obj["inputs"], f"{owner} field 'inputs'"
    check_fields(inputs, where, _SOURCES, required=_SOURCES)
    pair = tuple(json_value(inputs[key], float, where, key) for key in _SOURCES)
    if not all(math.isfinite(v) for v in pair):
        raise SchemaError(f"{where} must hold finite Msf1 and Msf2")
    return pair


def load_scenario(path: str) -> tuple[FaultScenario, tuple[float, float]]:
    """Read a scenario JSON file; returns (scenario, operating inputs)."""
    obj = read_json(path, "scenario")
    # only a file's top level holds ``inputs``, not a scenario in a suite
    scenario = from_json(FaultScenario, obj, "scenario", ("inputs",))
    return scenario, parse_inputs(obj, "scenario")


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write `t,Msf1,Msf2,De1,De2,De3,Df1,Df2` rows at full float precision."""
    write_csv(("t",) + VARIABLES, np.column_stack([trace.times, trace.signals]).tolist(), path)
