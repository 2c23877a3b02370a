"""Multiple-fault fuzzy detector over the five residuals.

Pipeline per timestep: fuzzify each residual over the symmetric five-set
partition {NB, N, Z, P, PB}, fire a compensation-aware rule base with
MIN-MAX inference to per-variable OK/AL activations, and defuzzify those to
an alarm degree in [0, 1] per supervised variable. Degrees above the alarm
threshold for ``debounce`` consecutive samples raise the fault flag. Rule
premises read Z, nonZ = max(NB, N, P, PB), or nothing (``any``).

``DetectorKernel`` is the one implementation of this pipeline. It computes
Z and nonZ in closed form on |r| over rows of residuals and runs the rule
base as a compiled program (``compile_rules``, ``RuleProgram.run``):
binary min/max operations on rows (on Python floats for a single row),
with the pairs that several rules or several variables share computed
once. Batch evaluation runs it over whole suites; the streaming
``Detector`` runs it one row at a time on the hold and debounce state it
carries.

The rule base is generated mechanically from the fault-signature matrix:
one rule per candidate fault set (each single fault and each pair), with
residuals shared by several candidate faults left unconstrained so that
mutually canceling faults (compensation) still fire their rule. A rule
only concludes AL for the candidates it actually evidences (those with at
least one exclusively owned residual in the premise) and vouches OK for
everything outside its fault set; without both restrictions, superset
hypotheses of the true fault set would raise false alarms on variables
the pattern cannot implicate.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .plant import (MAX_STEPS, VARIABLES, SchemaError, from_json, read_json, shown, to_json,
                    write_json)
from .residuals import signature_matrix

#: Premise constraints a rule may place on one residual.
CONSTRAINTS = ("Z", "nonZ", "any")

DEFAULT_ALARM_THRESHOLD = 0.5
DEFAULT_DEBOUNCE = 3
#: Largest candidate fault set of the rule base.
FAULT_ORDER = 2


@dataclass(frozen=True)
class InputPartition:
    """Symmetric trapezoid boundaries for one residual. PB and NB reach to
    infinity: the partition needs no domain bound."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        if not 0 < self.a1 < self.a2 <= self.a3 < self.a4 < math.inf:
            raise ValueError(
                "input partition requires 0 < a1 < a2 <= a3 < a4 < inf, got "
                f"({self.a1}, {self.a2}, {self.a3}, {self.a4})")


@dataclass(frozen=True)
class OutputPartition:
    """OK/AL boundaries on one variable's deviation axis: a < b <= 0 <= c < d,
    with a finite support d - a."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a < self.b <= 0.0 <= self.c < self.d and math.isfinite(self.d - self.a)):
            raise ValueError(
                f"output partition requires a < b <= 0 <= c < d with d - a finite, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})")

    @property
    def support(self) -> float:
        return self.d - self.a

    @property
    def core(self) -> float:
        return self.c - self.b


# ---------------------------------------------------------------------------
# Rule base

@dataclass(frozen=True)
class Rule:
    """One linguistic if-then rule.

    ``premise`` holds one constraint per residual (index order r1..r5) from
    {Z, nonZ, any}; ``al``/``ok`` are the variables concluded in alarm /
    normal state; ``members`` records the candidate fault set the rule was
    generated for (empty for the all-clear rule).
    """

    premise: tuple[str, str, str, str, str]
    al: tuple[str, ...]
    ok: tuple[str, ...]
    members: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.premise) != 5:
            raise ValueError("rule premise must constrain exactly 5 residuals")
        for c in self.premise:
            if c not in CONSTRAINTS:
                raise ValueError(f"unknown premise constraint {c!r}")
        for v in self.al + self.ok:
            if v not in VARIABLES:
                raise ValueError(f"unknown variable {v!r} in rule conclusion")


@dataclass(frozen=True)
class RuleBase:
    rules: tuple[Rule, ...]

    def __post_init__(self):
        al_covered = set()
        ok_covered = set()
        for rule in self.rules:
            al_covered.update(rule.al)
            ok_covered.update(rule.ok)
        missing = [v for v in VARIABLES if v not in al_covered or v not in ok_covered]
        if missing:
            raise ValueError(f"rule base leaves variables without AL or OK rules: {missing}")

    @cached_property
    def program(self) -> "RuleProgram":
        """The min/max program the detection kernel runs for this rule base."""
        return compile_rules(self.rules)


#: Rows the compiled program addresses: AL of the seven variables (0-6),
#: OK (7-13), then from ``_TABLE`` the membership table (Z of r1..r5, then
#: nonZ of r1..r5) and temporaries.
_TABLE = 14
_COLUMN = {"Z": 0, "nonZ": 1}


@dataclass(frozen=True)
class RuleProgram:
    """A rule base compiled to straight-line binary min/max operations.

    ``run`` executes it over ``rows`` rows of length T laid out as
    ``_TABLE`` says. Each op ``(ufunc, dst, a, b)`` computes
    ``ufunc(row[a], row[b], out=row[dst])``. ``ones`` lists the output rows
    that are 1.0 everywhere: a rule with no premise reads fires at 1.0, and
    the max of any firing with 1.0 is 1.0.

    Rules absorbed by a concluding rule with a subset of their premise
    reads are left out (see ``compile_rules``). AL/OK are therefore those
    of the full rule base bit for bit only on a table that holds no NaN
    and no -0.0; ``DetectorKernel`` writes neither. On such a table the
    builtin ``min``/``max`` return the same operand as ``np.minimum``/
    ``np.maximum``, so a single sample runs the same ops on Python floats
    (numpy call overhead dominates one-element rows) with the same bits.
    """

    rows: int
    ops: tuple[tuple[np.ufunc, int, int, int], ...]
    ones: tuple[int, ...]

    @cached_property
    def _float_ops(self) -> tuple[tuple[object, int, int, int], ...]:
        """``ops`` with each ufunc replaced by its builtin on floats."""
        builtin = {np.minimum: min, np.maximum: max}
        return tuple((builtin[ufunc], dst, a, b) for ufunc, dst, a, b in self.ops)

    def work(self, t_len: int) -> np.ndarray:
        """An empty work buffer for ``run`` over ``t_len`` samples."""
        return np.empty((self.rows - _TABLE, t_len))

    def run(self, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """AL and OK rows (7, T) of the membership table in ``work[:10]``
        (Z of r1..r5, then nonZ; one column per sample). The rest of
        ``work`` is scratch, and so is the table once the program read it.
        A single column runs on Python floats.
        """
        t_len = work.shape[1]
        if t_len == 1:
            rows = [0.0] * _TABLE + work[:, 0].tolist()
            for op, dst, a, b in self._float_ops:
                rows[dst] = op(rows[a], rows[b])
            for row in self.ones:
                rows[row] = 1.0
            al, ok = np.array(rows[:_TABLE]).reshape(2, 7, 1)
            return al, ok
        al, ok = np.empty((7, t_len)), np.empty((7, t_len))
        rows = [*al, *ok, *work]
        for ufunc, dst, a, b in self.ops:
            ufunc(rows[a], rows[b], out=rows[dst])
        for row in self.ones:
            rows[row].fill(1.0)
        return al, ok


def _share_pairs(sets: list[set[int]], ufunc: np.ufunc,
                 ops: list, next_node: int) -> tuple[list[int], int]:
    """Reduce each operand set with ``ufunc``; returns its result node per set.

    Greedy pair elimination: while some pair of operands occurs in two or
    more sets, compute it once as a new node that replaces the pair in all
    of them. What is left of each set is reduced as a chain. Exact for
    min/max on NaN-free rows, whatever the bracketing.
    """
    sets = [set(s) for s in sets]
    while True:
        counts = Counter(pair for s in sets for pair in itertools.combinations(sorted(s), 2))
        if not counts:
            break
        (a, b), n = counts.most_common(1)[0]
        if n < 2:
            break
        ops.append((ufunc, next_node, a, b))
        for s in sets:
            if a in s and b in s:
                s -= {a, b}
                s.add(next_node)
        next_node += 1
    results = []
    for s in sets:
        acc, *rest = sorted(s)
        for x in rest:
            ops.append((ufunc, next_node, acc, x))
            acc = next_node
            next_node += 1
        results.append(acc)
    return results, next_node


def _allocate(ops: list, outputs: dict[int, int]) -> tuple[int, list]:
    """Order ``ops`` and map their nodes to work-buffer rows.

    ``outputs`` maps output row -> node; nodes 0..9 are the table rows.
    Of the ops whose operands are computed, the next is the one that frees
    the most rows (operands at their last read) net of the row its result
    needs. A result goes to its output row, else to the lowest free row.
    Returns the number of rows and the ops on rows.
    """
    out_row: dict[int, int] = {}
    copies = []
    for row, node in sorted(outputs.items()):
        if node in out_row or node < 10:
            copies.append((row, node))
        else:
            out_row[node] = row
    unread = Counter(x for op in ops for x in op[2:])
    unread.update(node for _, node in copies)
    where = {node: _TABLE + node for node in range(10)}
    free: list[int] = []
    rows = _TABLE + 10
    program = []

    def gain(op):
        last = sum(unread[x] == n and x not in out_row for x, n in Counter(op[2:]).items())
        return last - (op[1] not in out_row)

    pending = list(ops)
    while pending:
        op = max((op for op in pending if op[2] in where and op[3] in where), key=gain)
        pending.remove(op)
        ufunc, dst, a, b = op
        operands = where[a], where[b]
        for x in (a, b):
            unread[x] -= 1
            if not unread[x] and x not in out_row:
                free.append(where[x])
        if dst in out_row:
            where[dst] = out_row[dst]
        elif free:
            where[dst] = min(free)
            free.remove(where[dst])
        else:
            where[dst] = rows
            rows += 1
        program.append((ufunc, where[dst], *operands))
    # an output that is a table row or another output's node: max(x, x) == x
    program += [(np.maximum, row, where[node], where[node]) for row, node in copies]
    return rows, program


def compile_rules(rules: tuple[Rule, ...]) -> RuleProgram:
    """Compile MIN-MAX inference over ``rules`` to a ``RuleProgram``.

    Rule firing is the min over the rule's premise reads and each
    variable's AL/OK the max over the firings of the rules concluding it.
    By absorption, a concluding rule whose read set contains another
    concluding rule's read set fires no higher than that rule, so each
    output keeps only the rules with minimal read sets (one per set), and
    only the firings some output keeps are computed. Pairs shared between
    rules' read lists, and then between outputs' rule lists, are computed
    once. Both steps are exact because min and max return one of their
    operands, provided the table holds no NaN and no -0.0 (max(-0.0, 0.0)
    may return either).
    """
    reads = [frozenset(5 * _COLUMN[c] + i for i, c in enumerate(rule.premise) if c != "any")
             for rule in rules]
    concluded = []
    for side in ("al", "ok"):
        for v in VARIABLES:
            sets = {reads[k] for k, rule in enumerate(rules) if v in getattr(rule, side)}
            concluded.append({s for s in sets if not any(t < s for t in sets)})
    # a rule with no premise reads fires at 1.0 and absorbs every other
    ones = tuple(row for row, s in enumerate(concluded) if frozenset() in s)
    rest = [row for row, s in enumerate(concluded) if frozenset() not in s]
    ops: list = []
    distinct = sorted(set().union(*(concluded[row] for row in rest)), key=sorted)
    fired, next_node = _share_pairs(distinct, np.minimum, ops, 10)
    node_of = dict(zip(distinct, fired))
    results, _ = _share_pairs([{node_of[s] for s in concluded[row]} for row in rest],
                              np.maximum, ops, next_node)
    rows, program = _allocate(ops, dict(zip(rest, results)))
    return RuleProgram(rows, tuple(program), ones)


def fault_set_rule(members: tuple[str, ...]) -> Rule:
    """The rule for one candidate fault set, read off the signature matrix:
    Z on the residuals no member touches, nonZ on those exactly one member
    touches and ``any`` on shared ones, so that canceling faults still fire
    it. It concludes AL for each member that alone touches a residual, and
    OK for every variable outside the set (see the module docstring)."""
    rows = signature_matrix()[[VARIABLES.index(v) for v in members]]
    # how many candidates touch each residual: 0 -> Z, 1 -> nonZ, 2+ -> any
    counts = rows.sum(axis=0)
    premise = tuple(CONSTRAINTS[min(n, 2)] for n in counts.tolist())
    al = tuple(v for v, row in zip(members, rows) if (row & (counts == 1)).any())
    ok = tuple(v for v in VARIABLES if v not in members)
    return Rule(premise, al, ok, members)


@cache
def build_rulebase() -> RuleBase:
    """The detector's rule base: a ``fault_set_rule`` for each set of at
    most ``FAULT_ORDER`` faults, then an all-Z rule concluding OK for all
    seven variables. Sets of three or more faults would explain most
    single-fault patterns by cancellation and isolate fewer faults
    (README). Built once per process and shared by every caller and
    ``DetectorKernel``: the rule base is frozen and its program is compiled
    on first use."""
    rules = [fault_set_rule(members) for order in range(1, FAULT_ORDER + 1)
             for members in itertools.combinations(VARIABLES, order)]
    rules.append(Rule(("Z",) * 5, (), VARIABLES, ()))
    return RuleBase(tuple(rules))


# ---------------------------------------------------------------------------
# Detector configuration

@dataclass(frozen=True)
class DetectorConfig:
    """The full 48-parameter detector plus decision settings: 50 values.

    The rule base is ``build_rulebase()``, which no config carries. A
    ``debounce`` longer than ``MAX_STEPS``, the longest trace, could never
    flag.
    """

    input_partitions: tuple[InputPartition, ...]
    output_partitions: tuple[OutputPartition, ...]
    alarm_threshold: float = DEFAULT_ALARM_THRESHOLD
    debounce: int = DEFAULT_DEBOUNCE

    def __post_init__(self):
        if len(self.input_partitions) != 5:
            raise ValueError("exactly 5 input partitions required")
        if len(self.output_partitions) != 7:
            raise ValueError("exactly 7 output partitions required")
        if not 0.0 < self.alarm_threshold < 1.0:
            raise ValueError("alarm_threshold must lie strictly between 0 and 1")
        if not 1 <= self.debounce <= MAX_STEPS:
            raise ValueError(f"debounce must be between 1 and {MAX_STEPS} samples, "
                             f"got {shown(self.debounce)}")


#: Genome layout: (a1, a2, a3, a4) per residual 1..5, then (a, b, c, d) per
#: output variable in VARIABLES order. 48 entries total.
PARAM_COUNT = 48


def params_to_config(x: Sequence[float]) -> tuple[DetectorConfig, bool]:
    """Build a DetectorConfig from a 48-entry parameter vector.

    Ordering violations are repaired (inputs: sort ascending plus epsilon
    separation of strict boundaries; outputs: sign projection and ordering)
    and reported through the returned flag. The alarm threshold and the
    debounce take their DEFAULT_* values.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (PARAM_COUNT,):
        raise ValueError(f"parameter vector must have exactly {PARAM_COUNT} entries")
    eps = 1e-6
    repaired = False

    inputs = []
    for i in range(5):
        raw = tuple(x[4 * i: 4 * i + 4])
        v = sorted(raw)
        a1 = max(v[0], eps)
        a2 = max(v[1], a1 + eps)
        a3 = max(v[2], a2)
        a4 = max(v[3], a3 + eps)
        if (a1, a2, a3, a4) != raw:
            repaired = True
        inputs.append(InputPartition(a1, a2, a3, a4))

    outputs = []
    for j in range(7):
        raw = tuple(x[20 + 4 * j: 20 + 4 * j + 4])
        a, b = sorted((min(raw[0], 0.0), min(raw[1], 0.0)))
        c, d = sorted((max(raw[2], 0.0), max(raw[3], 0.0)))
        if a == b:
            a = b - eps
        if c == d:
            d = c + eps
        if (a, b, c, d) != raw:
            repaired = True
        outputs.append(OutputPartition(a, b, c, d))

    return DetectorConfig(tuple(inputs), tuple(outputs)), repaired


def config_to_params(cfg: DetectorConfig) -> np.ndarray:
    """Inverse of params_to_config for valid configs (round-trip identity)."""
    out = np.empty(PARAM_COUNT)
    for i, p in enumerate(cfg.input_partitions):
        out[4 * i: 4 * i + 4] = (p.a1, p.a2, p.a3, p.a4)
    for j, p in enumerate(cfg.output_partitions):
        out[20 + 4 * j: 20 + 4 * j + 4] = (p.a, p.b, p.c, p.d)
    return out


def save_config(cfg: DetectorConfig, path: str) -> None:
    write_json(to_json(cfg), path)


def load_config(path: str) -> DetectorConfig:
    return from_json(DetectorConfig, read_json(path, "detector config"), "detector config")


# ---------------------------------------------------------------------------
# Vectorized detection kernel and streaming detector

#: Extra entries in ``_hold``'s gap-sized temporaries. NumPy keeps freed
#: buffers under 1 KiB for reuse, a few per byte size; gap counts vary from
#: call to call, and temporaries of every small size left that way scattered
#: over the heap push the kernel's large buffers onto fresh pages (minor
#: faults over repeated objective calls). Padded, none is under 1 KiB.
_GAP_PAD = 1024


def _hold(values: np.ndarray, defined: np.ndarray, held0: np.ndarray | None = None,
          starts: np.ndarray | None = None) -> np.ndarray:
    """Forward-fill ``values`` (V, T) in place over its undefined samples.

    An undefined sample takes the value of the last defined one in its
    row; before column 0 a row reads ``held0`` (V,). Undefined samples must
    read 0 (False), the default ``held0``, and each column listed in
    ``starts`` starts a fresh trace from that value.
    """
    if starts is not None:
        defined[:, starts] = True
    if defined.all():
        return values
    if held0 is not None:
        np.copyto(values[:, 0], held0, where=~defined[:, 0])
    defined[:, 0] = True
    if defined.all():
        return values
    # flat (C order) indices of the gaps, then _GAP_PAD indices past the
    # end. With column 0 defined, the last defined sample before a gap lies
    # in the gap's row; before a pad index it is the last defined sample.
    size = defined.size
    undefined = np.ones(size + _GAP_PAD, dtype=bool)
    np.logical_not(defined, out=undefined[:size].reshape(defined.shape))
    gaps = np.flatnonzero(undefined)
    n = gaps.size - _GAP_PAD
    sources = np.flatnonzero(defined)
    held = values.take(sources[sources.searchsorted(gaps) - 1])
    # take and put index a non-contiguous array in C order too, in place
    values.put(gaps[:n], held[:n])
    return values


class DetectorKernel:
    """The detector: the whole pipeline over residual rows (T, 5).

    Memberships are closed forms on ``x = |r|``. The partition is symmetric,
    so with ``w12 = a2 - a1`` and ``w34 = a4 - a3``

        Z    = clip((a2 - x)/w12, 0, 1)
        nonZ = clip(max(min((x - a1)/w12, (a4 - x)/w34), (x - a3)/w34), 0, 1)

    (nonZ = max(NB, N, P, PB) is the P/PB envelope of the five
    trapezoids); a NaN residual reads 0 in
    every set. ``RuleProgram.run`` turns the table into AL/OK rows, and the
    AL share of the clipped output areas is the alarm degree.

    ``run`` takes one trace, whole or chunk by chunk on carried state (the
    streaming ``Detector`` runs it one row at a time); ``run_block`` takes
    many traces concatenated.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.program = build_rulebase().program
        parts = cfg.input_partitions
        self._a = [np.array([getattr(p, f) for p in parts])[:, None]
                   for f in ("a1", "a2", "a3", "a4")]
        self.support = np.array([p.support for p in cfg.output_partitions])
        self._span = np.array([p.support - p.core for p in cfg.output_partitions])[:, None]

    def _memberships(self, r: np.ndarray, table: np.ndarray) -> None:
        """Write the membership table of residual rows ``r`` (T, 5) into
        ``table`` (2 * 5, T): Z of r1..r5, then nonZ."""
        a1, a2, a3, a4 = self._a
        x, edge = np.empty((2, 5, r.shape[0]))
        np.abs(r.T, out=x)
        rise, fall = a2 - a1, a4 - a3
        z, nonz = table[:5], table[5:]
        np.subtract(a2, x, out=z)
        z /= rise
        np.clip(z, 0.0, 1.0, out=z)
        np.subtract(x, a1, out=nonz)
        nonz /= rise
        np.subtract(a4, x, out=edge)
        edge /= fall
        np.minimum(nonz, edge, out=nonz)
        np.subtract(x, a3, out=edge)
        edge /= fall
        np.maximum(nonz, edge, out=nonz)
        np.clip(nonz, 0.0, 1.0, out=nonz)
        missing = np.isnan(x)
        if missing.any():
            table.reshape(2, 5, -1)[:, missing] = 0.0

    def activations(self, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-variable (AL, OK) activations for residual rows (T, 5)."""
        r = np.asarray(residuals, dtype=float)
        work = self.program.work(r.shape[0])
        self._memberships(r, work[:10])
        al, ok = self.program.run(work)
        return al.T, ok.T

    def _defuzzify(self, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unheld alarm degrees ``raw`` (7, T) and where they are ``defined``.

        The degree is the AL share of the clipped output areas. A sample
        with neither set activated is undefined and reads 0 in ``raw``.
        """
        al, ok = self.activations(residuals)
        al, ok = al.T, ok.T
        # the clipped areas, evaluated in place:
        # al_mass = span * (al - al*al/2), ok_mass = ok*support - ok*ok*span/2
        sq = al * al
        sq *= 0.5
        al_mass = np.subtract(al, sq, out=al)
        al_mass *= self._span
        np.multiply(ok, ok, out=sq)
        sq *= self._span
        sq *= 0.5
        ok_mass = np.multiply(ok, self.support[:, None], out=ok)
        ok_mass -= sq
        total = np.add(al_mass, ok_mass, out=sq)
        defined = total > 0.0
        # both masses are non-negative, so al_mass is 0 wherever total is
        return np.divide(al_mass, total, out=al_mass, where=defined), defined

    def degrees(self, residuals: np.ndarray,
                held0: np.ndarray | None = None) -> np.ndarray:
        """Alarm degrees (T, 7); undefined samples hold the previous degree,
        and before the first row that is ``held0`` (zeros by default)."""
        raw, defined = self._defuzzify(residuals)
        return _hold(raw, defined, held0).T

    def _debounce(self, above: np.ndarray, starts: np.ndarray | None = None,
                  recent: np.ndarray | None = None) -> np.ndarray:
        """Debounced flags: the "above threshold" rows (T, 7) that end a run
        of ``debounce`` above rows. The first windows reach back into
        ``recent`` (debounce - 1, 7), the above rows before row 0 (none by
        default), which is updated in place to the last ones. With
        ``starts`` every listed row starts a fresh window."""
        d = self.cfg.debounce
        before = np.zeros((d - 1, 7), dtype=bool) if recent is None else recent
        # one row per variable, the layout the callers' (T, 7) arrays have
        window = np.concatenate([before.T, above.T], axis=1)
        if recent is not None:
            recent[:] = window[:, len(above):].T
        # window[:, t] holds "above on rows t .. t + width - 1" of the
        # prefixed rows; AND-ing it with itself shifted by at most ``width``
        # widens that, and after debounce - 1 shifts it has T columns
        width = 1
        while width < d:
            step = min(width, d - width)
            window = window[:, step:] & window[:, :-step]
            width += step
        out = window.T
        if starts is not None and d > 1:
            for s in starts:
                out[s: s + d - 1] = False
        return out

    def run(self, residuals: np.ndarray, held: np.ndarray | None = None,
            recent: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Degrees and debounced flags (T, 7) of one trace, or of its next
        chunk: ``held`` (7,), the last degrees, and ``recent`` (debounce - 1,
        7), the last above-threshold rows, carry the trace's state. Both are
        read as the state before the first row and updated in place to the
        state after the last, so chunked runs equal the whole run."""
        degrees = self.degrees(residuals, held)
        if held is not None and len(degrees):
            held[:] = degrees[-1]
        return degrees, self._debounce(degrees > self.cfg.alarm_threshold, None, recent)

    def run_block(self, residuals: np.ndarray,
                  starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate several concatenated traces in one vectorized pass.

        ``starts`` holds the first row index of each trace. Hold state and
        debounce windows are reset at trace boundaries, so the result equals
        running each trace separately.
        """
        raw, defined = self._defuzzify(residuals)
        degrees = _hold(raw, defined, None, starts).T
        return degrees, self._debounce(degrees > self.cfg.alarm_threshold, starts)


class Detector:
    """Streaming detector: the kernel run one row at a time on the state it
    carries between rows."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.kernel = DetectorKernel(cfg)
        self.reset()

    def reset(self) -> None:
        self._held = np.zeros(7)
        self._recent = np.zeros((self.cfg.debounce - 1, 7), dtype=bool)

    def detect(self, residuals) -> tuple[np.ndarray, np.ndarray]:
        """One step: residual values (5,) -> (degrees (7,), flags (7,) bool)."""
        r = residuals.as_array() if hasattr(residuals, "as_array") else np.asarray(residuals)
        degrees, flags = self.kernel.run(r.reshape(1, 5), self._held, self._recent)
        return degrees[0], flags[0]


# ---------------------------------------------------------------------------
# Shipped parameter sets

def _flatten(inputs, outputs) -> np.ndarray:
    return np.array([v for row in inputs for v in row] +
                    [v for row in outputs for v in row])


#: Example membership parameters from a swarm-tuned run; used as the stock
#: "tuned detector" in tests and demos.
EXAMPLE_SWARM_TUNED = _flatten(
    [(0.146, 0.973, 1.57, 1.73),
     (0.516, 1.343, 1.944, 2.24),
     (0.225, 1.057, 1.657, 1.957),
     (0.49, 1.32, 1.92, 2.42),
     (0.225, 1.05, 1.468, 1.87)],
    [(-0.754, -0.304, 0.304, 0.6746),
     (-0.622, -0.172, 0.383, 0.674),
     (-0.621, -0.357, 0.251, 0.595),
     (-0.701, -0.304, 0.304, 0.675),
     (-0.674, -0.357, 0.251, 0.542),
     (-0.463, -0.146, 0.462, 0.753),
     (-0.621, -0.3305, 0.2275, 0.595)],
)

#: Example membership parameters from a genetic-algorithm run. Note some d
#: values sit below the usual search box; configs only require ordering.
EXAMPLE_GENETIC_TUNED = _flatten(
    [(0.106, 0.93, 1.07, 1.73),
     (0.436, 1.403, 1.84, 2.42),
     (0.325, 1.07, 1.67, 1.786),
     (0.409, 1.29, 1.928, 2.53),
     (0.325, 1.214, 1.68, 1.87)],
    [(-0.754, -0.42, 0.2019, 0.7146),
     (-0.628, -0.189, 0.283, 0.474),
     (-0.528, -0.343, 0.154, 0.498),
     (-0.721, -0.2021, 0.398, 0.668),
     (-0.654, -0.326, 0.281, 0.526),
     (-0.429, -0.257, 0.392, 0.543),
     (-0.671, -0.2105, 0.3275, 0.492)],
)


def example_tuned_config(kind: str = "swarm") -> DetectorConfig:
    """A ready-made tuned detector (no repair needed for either set)."""
    vec = {"swarm": EXAMPLE_SWARM_TUNED, "genetic": EXAMPLE_GENETIC_TUNED}[kind]
    cfg, repaired = params_to_config(vec)
    assert not repaired
    return cfg
