"""Online evaluation of the five analytical-redundancy residuals.

Each residual is a consistency constraint among the seven supervised
signals, normalized to flow units so all five share an order of magnitude:

    r1 = Msf1 - C1*dDe1 - De1/R1 - Df1
    r2 = Df1  - C2*dDe2 - De2/R2 - Df2
    r3 = Msf2 - Df2 - C3*dDe3 - De3/R3
    r4 = (De3 - De2)/R23 - Df2
    r5 = (De1 - De2)/R12 - Df1

Pressure derivatives are estimated by first-order backward differences,
optionally smoothed by a single-pole low-pass to bound noise amplification.
All residuals vanish (to numerical precision) on fault-free, noise-free
linear-mode traces by construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .plant import MeasurementFrame, PlantParams, Trace, write_csv

RESIDUAL_NAMES = ("r1", "r2", "r3", "r4", "r5")


class InsufficientHistory(ValueError):
    """Raised when a derivative is requested before two samples exist."""


@dataclass(frozen=True)
class ResidualVector:
    """The five residual values at one timestep."""

    t: float
    r1: float
    r2: float
    r3: float
    r4: float
    r5: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3, self.r4, self.r5])


def arr_residuals(s, d, params: PlantParams) -> tuple:
    """The five ARR residuals (r1..r5) from the seven supervised signals
    ``s`` (VARIABLES order) and the three pressure derivatives ``d``.

    Works on Python floats and on same-shaped arrays alike, so the
    streaming and the batch paths share one implementation.
    """
    msf1, msf2, de1, de2, de3, df1, df2 = s
    d_de1, d_de2, d_de3 = d
    p = params
    return (msf1 - p.C1 * d_de1 - de1 / p.R1 - df1,
            df1 - p.C2 * d_de2 - de2 / p.R2 - df2,
            msf2 - df2 - p.C3 * d_de3 - de3 / p.R3,
            (de3 - de2) / p.R23 - df2,
            (de1 - de2) / p.R12 - df1)


def _frame_signals(frame: MeasurementFrame) -> tuple[float, ...]:
    return (frame.Msf1, frame.Msf2, frame.De1, frame.De2, frame.De3,
            frame.Df1, frame.Df2)


class ResidualEvaluator:
    """Streaming residual evaluation with optional derivative conditioning.

    Feed frames in time order; the first frame primes the derivative history
    and raises InsufficientHistory if a residual is requested for it.

    ``spike_window`` > 1 runs a rolling median of that many raw differences
    before smoothing. An additive step fault on a pressure channel shows up
    as a one-sample impulse in the measured derivative; the median rejects
    it so the detector only sees the settled offset.

    Each step conditions the three derivative channels on Python floats,
    equal bit for bit to ``residual_batch`` on the same signals: a full
    window of three takes ``_float_median3`` and the low-pass
    ``_float_low_pass``. Other windows, such as the warm-up ones, take
    ``np.median`` over the window as the batch path does.
    """

    def __init__(self, params: PlantParams, dt: float, tau: float | None = None,
                 spike_window: int = 1):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be a finite positive number, got {dt!r}")
        if spike_window < 1:
            raise ValueError("spike_window must be at least 1")
        self.params = params
        self.dt = dt
        self.tau = tau
        self.spike_window = spike_window
        self._alpha = _low_pass_alpha(tau, dt)
        self._prev: MeasurementFrame | None = None
        self._filtered: tuple[float, ...] | None = None
        self._recent: deque[tuple[float, ...]] = deque(maxlen=spike_window)

    def update(self, frame: MeasurementFrame) -> ResidualVector:
        prev = self._prev
        self._prev = frame
        if prev is None:
            raise InsufficientHistory("first frame of a trace has no derivative")
        dt = self.dt
        raw = ((frame.De1 - prev.De1) / dt, (frame.De2 - prev.De2) / dt,
               (frame.De3 - prev.De3) / dt)
        if self.spike_window > 1:
            window = self._recent
            window.append(raw)
            raw = (tuple(map(_float_median3, *window)) if len(window) == 3
                   else tuple(np.median(window, axis=0).tolist()))
        filtered, alpha = self._filtered, self._alpha
        if filtered is not None and alpha is not None:
            raw = (_float_low_pass(filtered[0], raw[0], alpha),
                   _float_low_pass(filtered[1], raw[1], alpha),
                   _float_low_pass(filtered[2], raw[2], alpha))
        self._filtered = raw
        return ResidualVector(frame.t, *arr_residuals(_frame_signals(frame), raw, self.params))


def _median3(a, b, c):
    """Median of three by exact selection; the value ``np.median`` picks,
    NaN propagating as it does there."""
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _float_median3(a: float, b: float, c: float) -> float:
    """``_median3`` on Python floats. Without NaN, conditional expressions
    that return the second operand on a tie, as ``np.minimum`` and
    ``np.maximum`` do (0.0 and -0.0 tie with different bits); with one,
    the first NaN, which those two return."""
    if a == a and b == b and c == c:
        lo = a if a < b else b
        hi = a if a > b else b
        mid = hi if hi < c else c
        return lo if lo > mid else mid
    return a if a != a else b if b != b else c


def _window_median(rows):
    """Median of a window of equal-shaped derivative rows: ``_median3`` for
    three rows, ``np.median`` over the window otherwise."""
    return _median3(*rows) if len(rows) == 3 else np.median(rows, axis=0)


def check_tau(tau: float) -> float:
    """``tau`` if it is a low-pass time constant: finite and >= 0, where 0
    means no filter. Otherwise ValueError: -dt divides by zero, (-dt, 0)
    gives a gain above 1 that overshoots, and NaN makes every residual NaN."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be a finite non-negative number, got {tau!r}")
    return tau


def _low_pass_alpha(tau: float | None, dt: float) -> float | None:
    """Gain ``dt / (tau + dt)`` of the low-pass with time constant ``tau``
    (``check_tau``); None (no filter) for a ``tau`` of None or 0."""
    return dt / (check_tau(tau) + dt) if tau else None


def _low_pass(filtered, raw, alpha, out=None, scratch=None):
    """One single-pole low-pass step from ``filtered`` towards ``raw``:
    ``filtered + alpha * (raw - filtered)``, written to ``out`` through
    ``scratch`` (new arrays where None). ``out`` may be ``raw``."""
    step = np.subtract(raw, filtered, scratch)
    return np.add(filtered, np.multiply(alpha, step, step), out)


def _float_low_pass(filtered: float, raw: float, alpha: float) -> float:
    """``_low_pass`` on one channel's Python floats. A NaN state stays as it
    is, the NaN numpy's add returns on a one-trace block given two NaNs:
    CPython's float add returns either, depending on whether the
    interpreter has specialised the instruction yet."""
    return filtered if filtered != filtered else filtered + alpha * (raw - filtered)


def _rolling_median(raw: np.ndarray, window: int) -> np.ndarray:
    """``_window_median`` of each row along axis 1 and the ``window - 1``
    rows before it; the first rows take the history they have."""
    out = np.empty_like(raw)
    n = raw.shape[1]
    for k in range(min(window - 1, n)):
        out[:, k] = _window_median([raw[:, j] for j in range(k + 1)])
    if n >= window:
        out[:, window - 1:] = _window_median(
            [raw[:, j:n - window + 1 + j] for j in range(window)])
    return out


def residual_batch(signals: np.ndarray, dt: float, params: PlantParams,
                   tau: float | None = None, spike_window: int = 1) -> np.ndarray:
    """Residuals of S traces sampled at ``dt``: signals (S, T, 7) -> (S, T-1, 5).

    Rows start at each trace's second frame. Every trace is conditioned on
    its own: a rolling median of ``spike_window`` raw differences, then a
    single-pole low-pass run as one loop over time across all traces.
    """
    alpha = _low_pass_alpha(tau, dt)
    raw = np.diff(signals[:, :, 2:5], axis=1) / dt
    if spike_window > 1:
        raw = _rolling_median(raw, spike_window)
    if alpha is not None:
        # filtered in place, time-major: each step's rows are one (S, 3) block
        d = np.moveaxis(raw, 1, 0).copy()
        alpha = np.full(d.shape[1:], alpha)
        scratch = np.empty(d.shape[1:])
        for prev, cur in zip(d[:-1], d[1:]):
            _low_pass(prev, cur, alpha, cur, scratch)
        d = np.moveaxis(d, 0, 1)
    else:
        d = raw
    out = arr_residuals(np.moveaxis(signals[:, 1:], -1, 0), np.moveaxis(d, -1, 0), params)
    return np.stack(out, axis=-1)


def residual_trace(trace: Trace, params: PlantParams, tau: float | None = None,
                   spike_window: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Residuals over a whole trace; rows start at the second frame.

    Returns (times (T-1,), residuals (T-1, 5)), equal sample for sample to
    a streaming ResidualEvaluator with the same settings.
    """
    return trace.times[1:], residual_batch(trace.signals[None], trace.dt, params,
                                           tau, spike_window)[0]


# ---------------------------------------------------------------------------
# Fault-signature structure

def signature_matrix() -> np.ndarray:
    """Which residuals a fault on each variable enters: a read-only (7, 5)
    bool array, True where ``arr_residuals`` responds to a unit offset on
    that variable alone, rows in VARIABLES order. Every coefficient of the
    equations is a positive plant constant, so the default plant's pattern
    is every plant's."""
    response = np.stack(arr_residuals(np.eye(7), np.zeros((3, 7)), PlantParams()), axis=1)
    matrix = response != 0
    matrix.setflags(write=False)
    return matrix


def write_residual_csv(times: np.ndarray, residuals: np.ndarray, path: str) -> None:
    """Write `t,r1,r2,r3,r4,r5` rows at full float precision.

    A leading zero row at t = 0 stands in for the first trace frame, which
    precedes any derivative history.
    """
    rows = np.column_stack([times, residuals]).tolist()
    rows.insert(0, [0.0] * 6)
    write_csv(("t",) + RESIDUAL_NAMES, rows, path)
