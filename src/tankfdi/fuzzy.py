"""Multiple-fault fuzzy detector over the five residuals.

Pipeline per timestep: fuzzify each residual over the symmetric five-set
partition {NB, N, Z, P, PB}, fire a compensation-aware rule base with
MIN-MAX inference to per-variable OK/AL activations, and defuzzify those to
an alarm degree in [0, 1] per supervised variable. Degrees above the alarm
threshold for ``debounce`` consecutive samples raise the fault flag. Rule
premises read Z, nonZ = max(NB, N, P, PB), or nothing (``any``).

``DetectorKernel`` runs this pipeline over whole residual blocks. It
computes Z and nonZ in closed form on |r| and runs the rule base as a
compiled program (``compile_rules``): binary min/max operations on rows,
with the pairs that several rules or several variables share computed
once. ``fuzzify``/``infer``/``defuzzify`` are the scalar form of the same
formulas and agree with it bit for bit.

The rule base is generated mechanically from the fault-signature matrix:
one rule per candidate fault set, with residuals shared by several
candidate faults left unconstrained so that mutually canceling faults
(compensation) still fire their rule. A rule only concludes AL for the
candidates it actually evidences (those with at least one exclusively
owned residual in the premise) and vouches OK for everything outside its
fault set; without both restrictions, superset hypotheses of the true
fault set would raise false alarms on variables the pattern cannot
implicate.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .plant import VARIABLES, SchemaError
from .residuals import SignatureMatrix, signature_matrix

#: Premise constraints a rule may place on one residual.
CONSTRAINTS = ("Z", "nonZ", "any")

DEFAULT_BETA = 25.0
DEFAULT_ALARM_THRESHOLD = 0.5
DEFAULT_DEBOUNCE = 3
DEFAULT_MAX_FAULT_ORDER = 2


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


@dataclass(frozen=True)
class InputPartition:
    """Symmetric trapezoid boundaries for one residual, plus domain bound."""

    a1: float
    a2: float
    a3: float
    a4: float
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if not (0 < self.a1 < self.a2 <= self.a3 < self.a4 <= self.beta):
            raise ValueError(
                "input partition requires 0 < a1 < a2 <= a3 < a4 <= beta, got "
                f"({self.a1}, {self.a2}, {self.a3}, {self.a4}, beta={self.beta})")


@dataclass(frozen=True)
class OutputPartition:
    """OK/AL boundaries on one variable's deviation axis: a < b <= 0 <= c < d."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a < self.b <= 0.0 <= self.c < self.d):
            raise ValueError(
                f"output partition requires a < b <= 0 <= c < d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})")

    @property
    def support(self) -> float:
        return self.d - self.a

    @property
    def core(self) -> float:
        return self.c - self.b


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


def _membership_table(r: np.ndarray, p: InputPartition) -> np.ndarray:
    """Memberships of residual samples ``r`` -> array (..., 5) in set order."""
    x = np.clip(np.asarray(r, dtype=float), -p.beta, p.beta)
    return np.stack([
        _trapezoid(x, -p.beta, -p.beta, -p.a4, -p.a3),
        _trapezoid(x, -p.a4, -p.a3, -p.a2, -p.a1),
        _trapezoid(x, -p.a2, -p.a1, p.a1, p.a2),
        _trapezoid(x, p.a1, p.a2, p.a3, p.a4),
        _trapezoid(x, p.a3, p.a4, p.beta, p.beta),
    ], axis=-1)


def fuzzify(r: float, p: InputPartition) -> Memberships:
    """Crisp residual value -> five membership degrees (NB, N, Z, P, PB)."""
    table = _membership_table(np.array([r]), p)[0]
    return Memberships(*(float(v) for v in table))


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
    max_fault_order: int

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


class RuleProgram(NamedTuple):
    """A rule base compiled to straight-line binary min/max operations.

    The kernel runs it over ``rows`` rows of length T laid out as
    ``_TABLE`` says: the AL and OK outputs, then one work buffer. Each op
    ``(ufunc, dst, a, b)`` computes ``ufunc(row[a], row[b],
    out=row[dst])``. ``ones`` lists the output rows that are 1.0
    everywhere: a rule with no premise reads fires at 1.0, and the max of
    any firing with 1.0 is 1.0.
    """

    rows: int
    ops: tuple[tuple[np.ufunc, int, int, int], ...]
    ones: tuple[int, ...]


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


@lru_cache(maxsize=8)
def compile_rules(rules: tuple[Rule, ...]) -> RuleProgram:
    """Compile MIN-MAX inference over ``rules`` to a ``RuleProgram``.

    Rule firing is the min over the rule's premise reads and each
    variable's AL/OK the max over the firings of the rules concluding it.
    Pairs shared between rules' read lists, and then between variables'
    rule lists, are computed once. Cached per rule structure, since
    configs loaded from JSON each build their own ``RuleBase``.
    """
    ones_node = -1
    reads = [frozenset(5 * _COLUMN[c] + i for i, c in enumerate(rule.premise) if c != "any")
             for rule in rules]
    ops: list = []
    distinct = sorted({r for r in reads if r}, key=sorted)
    fired, next_node = _share_pairs(distinct, np.minimum, ops, 10)
    node_of = dict(zip(distinct, fired))
    firing = [node_of[r] if r else ones_node for r in reads]
    concluded = [{firing[k] for k, rule in enumerate(rules) if v in getattr(rule, side)}
                 for side in ("al", "ok") for v in VARIABLES]
    ones = tuple(row for row, s in enumerate(concluded) if ones_node in s)
    rest = [row for row, s in enumerate(concluded) if ones_node not in s]
    results, _ = _share_pairs([concluded[row] for row in rest], np.maximum, ops, next_node)
    rows, program = _allocate(ops, dict(zip(rest, results)))
    return RuleProgram(rows, tuple(program), ones)


def build_rulebase(sig: SignatureMatrix | None = None,
                   max_fault_order: int = DEFAULT_MAX_FAULT_ORDER) -> RuleBase:
    """Generate the rule base from the fault-signature structure.

    For every candidate fault set F (up to ``max_fault_order`` simultaneous
    faults): residuals outside the set's combined signature must be Z,
    residuals touched by exactly one candidate must be nonZ, and residuals
    shared by several candidates are unconstrained (``any``) so that
    canceling fault combinations still fire. The rule concludes AL only for
    candidates owning at least one of the nonZ residuals exclusively, and
    OK for every excluded variable: a firing explanation of the pattern
    vouches for everything outside it, so weak overlap rules cannot raise
    an alarm against a strong competing hypothesis. A final all-Z rule
    concludes OK for all seven variables.
    """
    if sig is None:
        sig = signature_matrix()
    if not 1 <= max_fault_order <= 7:
        raise ValueError("max_fault_order must be in [1, 7]")

    rows = {v: sig.row(v) for v in VARIABLES}
    rules = []
    for order in range(1, max_fault_order + 1):
        for fault_set in itertools.combinations(VARIABLES, order):
            support: set[int] = set()
            touch_count = {arr: 0 for arr in range(1, 6)}
            for v in fault_set:
                support |= rows[v]
                for arr in rows[v]:
                    touch_count[arr] += 1
            premise = []
            for arr in range(1, 6):
                if arr not in support:
                    premise.append("Z")
                elif touch_count[arr] == 1:
                    premise.append("nonZ")
                else:
                    premise.append("any")
            al = []
            for v in fault_set:
                covered_by_others = set()
                for w in fault_set:
                    if w != v:
                        covered_by_others |= rows[w]
                if rows[v] - covered_by_others:
                    al.append(v)
            ok = tuple(v for v in VARIABLES if v not in fault_set)
            rules.append(Rule(tuple(premise), tuple(al), ok, fault_set))
    rules.append(Rule(("Z",) * 5, (), VARIABLES, ()))
    return RuleBase(tuple(rules), max_fault_order)


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


# ---------------------------------------------------------------------------
# Defuzzification

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


# ---------------------------------------------------------------------------
# Detector configuration

@dataclass(frozen=True)
class DetectorConfig:
    """The full 48-parameter detector plus rule and decision settings."""

    input_partitions: tuple[InputPartition, ...]
    output_partitions: tuple[OutputPartition, ...]
    rulebase: RuleBase
    alarm_threshold: float = DEFAULT_ALARM_THRESHOLD
    debounce: int = DEFAULT_DEBOUNCE

    def __post_init__(self):
        if len(self.input_partitions) != 5:
            raise ValueError("exactly 5 input partitions required")
        if len(self.output_partitions) != 7:
            raise ValueError("exactly 7 output partitions required")
        if not 0.0 < self.alarm_threshold < 1.0:
            raise ValueError("alarm_threshold must lie strictly between 0 and 1")
        if self.debounce < 1:
            raise ValueError("debounce must be at least 1 sample")


#: Genome layout: (a1, a2, a3, a4) per residual 1..5, then (a, b, c, d) per
#: output variable in VARIABLES order. 48 entries total.
PARAM_COUNT = 48


def params_to_config(x: Sequence[float], beta: float = DEFAULT_BETA,
                     max_fault_order: int = DEFAULT_MAX_FAULT_ORDER,
                     alarm_threshold: float = DEFAULT_ALARM_THRESHOLD,
                     debounce: int = DEFAULT_DEBOUNCE,
                     rulebase: RuleBase | None = None,
                     ) -> tuple[DetectorConfig, bool]:
    """Build a DetectorConfig from a 48-entry parameter vector.

    Ordering violations are repaired (inputs: sort ascending plus epsilon
    separation of strict boundaries; outputs: sign projection and ordering)
    and reported through the returned flag.
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
        b = max(beta, a4)
        if (a1, a2, a3, a4) != raw or b != beta:
            repaired = True
        inputs.append(InputPartition(a1, a2, a3, a4, b))

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

    if rulebase is None:
        rulebase = build_rulebase(max_fault_order=max_fault_order)
    cfg = DetectorConfig(tuple(inputs), tuple(outputs), rulebase,
                         alarm_threshold, debounce)
    return cfg, repaired


def config_to_params(cfg: DetectorConfig) -> np.ndarray:
    """Inverse of params_to_config for valid configs (round-trip identity)."""
    out = np.empty(PARAM_COUNT)
    for i, p in enumerate(cfg.input_partitions):
        out[4 * i: 4 * i + 4] = (p.a1, p.a2, p.a3, p.a4)
    for j, p in enumerate(cfg.output_partitions):
        out[20 + 4 * j: 20 + 4 * j + 4] = (p.a, p.b, p.c, p.d)
    return out


def config_to_dict(cfg: DetectorConfig) -> dict:
    return {
        "schema": 1,
        "input_partitions": [
            {"a1": p.a1, "a2": p.a2, "a3": p.a3, "a4": p.a4, "beta": p.beta}
            for p in cfg.input_partitions
        ],
        "output_partitions": [
            {"a": p.a, "b": p.b, "c": p.c, "d": p.d}
            for p in cfg.output_partitions
        ],
        "max_fault_order": cfg.rulebase.max_fault_order,
        "alarm_threshold": cfg.alarm_threshold,
        "debounce": cfg.debounce,
    }


def config_from_dict(obj: dict) -> DetectorConfig:
    if not isinstance(obj, dict):
        raise SchemaError("detector config must be a JSON object")
    if obj.get("schema", 1) != 1:
        raise SchemaError(f"unsupported detector config schema {obj.get('schema')!r}")
    try:
        inputs = tuple(
            InputPartition(p["a1"], p["a2"], p["a3"], p["a4"], p.get("beta", DEFAULT_BETA))
            for p in obj["input_partitions"]
        )
        outputs = tuple(
            OutputPartition(p["a"], p["b"], p["c"], p["d"])
            for p in obj["output_partitions"]
        )
        rb = build_rulebase(max_fault_order=int(obj.get("max_fault_order",
                                                        DEFAULT_MAX_FAULT_ORDER)))
        return DetectorConfig(inputs, outputs, rb,
                              float(obj.get("alarm_threshold", DEFAULT_ALARM_THRESHOLD)),
                              int(obj.get("debounce", DEFAULT_DEBOUNCE)))
    except KeyError as exc:
        raise SchemaError(f"detector config is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid detector config: {exc}") from exc


def save_config(cfg: DetectorConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str) -> DetectorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"detector config is not valid JSON: {exc}") from exc
    return config_from_dict(obj)


# ---------------------------------------------------------------------------
# Vectorized detection kernel and streaming detector

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


class DetectorKernel:
    """Batch evaluation of the full pipeline over residual arrays.

    Memberships are closed forms on ``x = |r|``. The partition is symmetric
    and ``beta >= a4``, so with ``w12 = a2 - a1`` and ``w34 = a4 - a3``

        Z    = clip((a2 - x)/w12, 0, 1)
        nonZ = clip(max(min((x - a1)/w12, (a4 - x)/w34), (x - a3)/w34), 0, 1)

    (nonZ = max(NB, N, P, PB) is the P/PB envelope, and clipping x at beta
    changes neither). Both equal what ``_trapezoid`` gives, bit for bit; a
    NaN residual reads 0 in every set, as it does there. The table fills
    rows of a work buffer, and the rule base's compiled program
    (``RuleBase.program``) turns it into AL/OK rows (7, T) each: rule
    firing is the min over a rule's premise reads and AL/OK the max over
    the firings concluding them, as binary ops on rows whose shared pairs
    are computed once. Min and max are exact, so the order of the ops does
    not change a bit. The streaming Detector runs single rows through this
    kernel, so both paths agree with the scalar ``fuzzify``/``infer``/
    ``defuzzify`` path bit for bit.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.program = cfg.rulebase.program
        parts = cfg.input_partitions
        self._a = [np.array([getattr(p, f) for p in parts])[:, None]
                   for f in ("a1", "a2", "a3", "a4")]
        self.support = np.array([p.support for p in cfg.output_partitions])
        self.core = np.array([p.core for p in cfg.output_partitions])
        self._span = (self.support - self.core)[:, None]

    def _memberships(self, r: np.ndarray, table: np.ndarray,
                     x: np.ndarray, edge: np.ndarray) -> None:
        """Write the membership table of residual rows ``r`` (T, 5) into
        ``table`` (2 * 5, T): Z of r1..r5, then nonZ. ``x`` and ``edge``
        are (5, T) scratch."""
        a1, a2, a3, a4 = self._a
        table = table.reshape(2, 5, r.shape[0])
        np.abs(r.T, out=x)
        rise, fall = a2 - a1, a4 - a3
        z, nonz = table[0], table[1]
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
            table[:, missing] = 0.0

    def activations(self, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-variable (AL, OK) activations for residual rows (T, 5)."""
        r = np.asarray(residuals, dtype=float)
        t_len = r.shape[0]
        # degrees are computed in place in ``al`` and returned as views of
        # it, so it gets its own buffer rather than rows of ``work``
        al, ok = np.empty((7, t_len)), np.empty((7, t_len))
        work = np.empty((self.program.rows - _TABLE, t_len))
        # the program has not written al and ok yet, so they serve as scratch
        self._memberships(r, work[:10], al[:5], ok[:5])
        rows = [*al, *ok, *work]
        for ufunc, dst, a, b in self.program.ops:
            ufunc(rows[a], rows[b], out=rows[dst])
        for row in self.program.ones:
            rows[row].fill(1.0)
        return al.T, ok.T

    def _defuzzify(self, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unheld alarm degrees ``raw`` (7, T) and where they are ``defined``.

        A sample with neither set activated is undefined and reads 0 in
        ``raw``.
        """
        al, ok = self.activations(residuals)
        al, ok = al.T, ok.T
        # the clipped areas of defuzzify, evaluated in place:
        # al_mass = span * (al - al*al/2), ok_mass = ok*support - ok*ok*span/2
        sq = al * al
        sq /= 2.0
        al_mass = np.subtract(al, sq, out=al)
        al_mass *= self._span
        np.multiply(ok, ok, out=sq)
        sq *= self._span
        sq /= 2.0
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

    def flags(self, degrees: np.ndarray) -> np.ndarray:
        """Debounced flags: degree above threshold for ``debounce`` consecutive rows."""
        return self._debounce(degrees > self.cfg.alarm_threshold)

    def _debounce(self, out: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
        """Debounce "above threshold" rows (T, 7) in place; with ``starts``
        every listed row starts a fresh window."""
        d = self.cfg.debounce
        # out[t] holds "above on rows t - width + 1 .. t"; AND-ing in a
        # copy shifted by at most ``width`` rows widens that window
        width = 1
        while width < d:
            step = min(width, d - width)
            out[step:] &= out[:-step]
            width += step
        out[:d - 1] = False
        if starts is not None and d > 1:
            for s in starts:
                out[s: s + d - 1] = False
        return out

    def run(self, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        degrees = self.degrees(residuals)
        return degrees, self.flags(degrees)

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

    def block_flags(self, residuals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The flags of ``run_block`` without its degrees.

        Holds the boolean "above threshold" rather than the degree: the
        threshold test of a held degree is the held threshold test, and the
        initial hold 0 is below any threshold in (0, 1).
        """
        raw, defined = self._defuzzify(residuals)
        above = _hold(raw > self.cfg.alarm_threshold, defined, None, starts)
        return self._debounce(above.T, starts)


class Detector:
    """Streaming detector with per-variable debounce state and held degrees."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.kernel = DetectorKernel(cfg)
        self.reset()

    def reset(self) -> None:
        self._held = np.zeros(7)
        self._counts = np.zeros(7, dtype=int)

    def detect(self, residuals) -> tuple[np.ndarray, np.ndarray]:
        """One step: residual values (5,) -> (degrees (7,), flags (7,) bool)."""
        r = residuals.as_array() if hasattr(residuals, "as_array") else np.asarray(residuals)
        degrees = self.kernel.degrees(r.reshape(1, 5), self._held)[0]
        self._held = degrees
        above = degrees > self.cfg.alarm_threshold
        self._counts = np.where(above, self._counts + 1, 0)
        return degrees, self._counts >= self.cfg.debounce


def detect_trace(residuals: np.ndarray, cfg: DetectorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Batch detection over a residual trace (T, 5) -> (degrees, flags)."""
    return DetectorKernel(cfg).run(residuals)


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


def default_config() -> DetectorConfig:
    """Neutral hand-set partitions; a reasonable starting detector."""
    cfg, _ = params_to_config(_flatten([(0.2, 0.6, 2.0, 3.0)] * 5,
                                       [(-1.0, -0.3, 0.3, 1.0)] * 7))
    return cfg


def detuned_config() -> DetectorConfig:
    """A deliberately de-tuned but valid detector, used as a weak baseline.

    Input partitions sit far above the usual residual scale, so weak fault
    components go unseen and ramping faults cross late; the OK output sets
    are wide relative to AL, biasing degrees low.
    """
    cfg, _ = params_to_config(_flatten([(0.75, 1.5, 3.5, 4.8)] * 5,
                                       [(-4.8, -0.45, 0.45, 0.5)] * 7))
    return cfg
