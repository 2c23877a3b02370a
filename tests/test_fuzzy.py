"""Fuzzy detector: membership functions, rule base, inference, defuzzify."""

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tankfdi import fuzzy, plant
from tankfdi.fuzzy import (DetectorConfig, Detector, DetectorKernel,
                           InputPartition, OutputPartition, Rule,
                           build_rulebase, config_to_params, params_to_config)
from tankfdi.plant import VARIABLES
from tankfdi.residuals import ResidualVector

import oracle
from oracle import Memberships, defuzzify, fuzzify, infer


#: numpy 2.0 renamed np.trapz to np.trapezoid; CI also runs numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def ok_al(act):
    return act["OK"], act["AL"]


# ---------------------------------------------------------------------------
# Oracles

def quadrature_degree(ok_act, al_act, p: OutputPartition, n=200_001):
    """Independent defuzzification oracle: numerically integrate the
    clipped OK trapezoid and complement-shaped AL flanks over [a, d]."""
    xs = np.linspace(p.a, p.d, n)
    left = np.clip((xs - p.a) / (p.b - p.a), 0, 1) if p.b > p.a else (xs >= p.b).astype(float)
    right = np.clip((p.d - xs) / (p.d - p.c), 0, 1) if p.d > p.c else (xs <= p.c).astype(float)
    ok_mf = np.minimum(left, right)
    al_mf = 1.0 - ok_mf
    dx = (p.d - p.a) / (n - 1)
    ok_mass = trapezoid(np.minimum(ok_mf, ok_act), dx=dx)
    al_mass = trapezoid(np.minimum(al_mf, al_act), dx=dx)
    if ok_mass + al_mass == 0:
        return None
    return al_mass / (ok_mass + al_mass)


def brute_force_activations(table, rb):
    """Literal rule-by-rule evaluation used to check the vectorized kernel."""
    out = {v: {"OK": 0.0, "AL": 0.0} for v in VARIABLES}
    for rule in rb.rules:
        reads = []
        for constraint, m in zip(rule.premise, table):
            if constraint == "Z":
                reads.append(m.z)
            elif constraint == "nonZ":
                reads.append(max(m.nb, m.n, m.p, m.pb))
            elif constraint == "any":
                reads.append(1.0)
        strength = min(reads)
        for v in rule.al:
            out[v]["AL"] = max(out[v]["AL"], strength)
        for v in rule.ok:
            out[v]["OK"] = max(out[v]["OK"], strength)
    return out


#: Outputs the compiled program must copy or fill: AL of Msf1 and Msf2 is
#: one table row, AL of the other five variables one shared rule, and OK
#: comes from a rule with no premise reads (1.0 everywhere).
HAND_BUILT_RULEBASE = fuzzy.RuleBase((
    Rule(("nonZ", "any", "any", "any", "any"), VARIABLES[:2], ()),
    Rule(("Z", "Z", "nonZ", "any", "nonZ"), VARIABLES[2:], ()),
    Rule(("any",) * 5, (), VARIABLES),
))


every_rulebase = pytest.mark.parametrize(
    "rb", [build_rulebase() if k == 2 else fuzzy.RuleBase(oracle.rules(k)) for k in (1, 2, 3, 7)]
    + [HAND_BUILT_RULEBASE],
    ids=["order1", "generated", "order3", "order7", "hand_built"])


@st.composite
def input_partitions(draw, scale=st.just(1.0), each_gap=False):
    """Valid partitions, including a2 == a3, with every boundary gap scaled
    by a draw of ``scale`` (with ``each_gap``, one draw per gap, sorted
    rising so that no gap vanishes in rounding: a1/a2 and a3/a4 can then
    be as small as the scales allow); each paired with an oracle domain
    bound beta >= a4, beta == a4 included."""
    s1, s2, s3, s4 = sorted(draw(scale) for _ in range(4)) if each_gap else [draw(scale)] * 4

    def gap(s):
        return st.floats(0.01, 2.0).map(lambda g: g * s)

    a1 = draw(gap(s1))
    a2 = a1 + draw(gap(s2))
    a3 = a2 + draw(st.one_of(st.just(0.0), gap(s3)))
    a4 = a3 + draw(gap(s4))
    beta = a4 + draw(st.one_of(st.just(0.0), st.floats(0.01, 20.0).map(lambda g: g * s4)))
    return InputPartition(a1, a2, a3, a4), beta


@st.composite
def output_partitions(draw):
    """Valid partitions, including b == 0 == c."""
    gap = st.floats(0.01, 2.0)
    b = -draw(st.one_of(st.just(0.0), gap))
    c = draw(st.one_of(st.just(0.0), gap))
    return OutputPartition(b - draw(gap), b, c, c + draw(gap))


def residual_rows(bounded):
    """Rows (T, 5) mixing random values, every partition boundary of its
    residual (+-a1..a4, +-beta), values beyond beta, infinities, +-0 and NaN,
    for the ``input_partitions`` draws ``bounded``."""
    def column(p, beta):
        edges = [p.a1, p.a2, p.a3, p.a4, beta, 2 * beta + 1, np.inf]
        special = st.sampled_from([s * e for e in edges for s in (1, -1)]
                                  + [0.0, -0.0, np.nan])
        return st.one_of(special, st.floats(-1.5 * beta, 1.5 * beta))
    row = st.tuples(*(column(p, beta) for p, beta in bounded))
    return st.lists(row, min_size=1, max_size=12).map(
        lambda rows: np.array(rows, dtype=float))


# ---------------------------------------------------------------------------

class TestPartitions:
    def test_input_ordering_enforced(self):
        with pytest.raises(ValueError):
            InputPartition(0.5, 0.4, 1.0, 2.0)
        with pytest.raises(ValueError):
            InputPartition(0.0, 0.4, 1.0, 2.0)
        with pytest.raises(ValueError):
            InputPartition(0.1, 0.4, 1.0, math.inf)
        InputPartition(0.1, 0.4, 0.4, 2.0)  # a2 == a3 allowed

    def test_output_ordering_enforced(self):
        with pytest.raises(ValueError):
            OutputPartition(-1.0, 0.1, 0.2, 0.5)
        with pytest.raises(ValueError):
            OutputPartition(-1.0, -0.2, 0.3, 0.3)
        with pytest.raises(ValueError):
            OutputPartition(-1e308, -0.2, 0.3, 1e308)  # the support overflows
        OutputPartition(-1.0, 0.0, 0.0, 0.5)  # b == 0 == c allowed


class TestFuzzify:
    def test_zero_is_fully_z(self):
        m = fuzzify(0.0, InputPartition(1, 2, 3, 4), beta=10)
        assert m == Memberships(0, 0, 1, 0, 0)

    def test_shoulder_split(self):
        m = fuzzify(1.5, InputPartition(1, 2, 3, 4), beta=10)
        assert m.z == pytest.approx(0.5)
        assert m.p == pytest.approx(0.5)
        assert (m.nb, m.n, m.pb) == (0, 0, 0)

    def test_clamps_to_extreme_sets(self):
        p = InputPartition(1, 2, 3, 4)
        assert fuzzify(50.0, p, beta=10).pb == 1.0
        assert fuzzify(-50.0, p, beta=10).nb == 1.0

    @given(r=st.floats(-12, 12))
    @settings(max_examples=120, deadline=None)
    def test_negation_reverses_membership_tuple(self, r):
        p = InputPartition(0.5, 1.0, 2.5, 4.0)
        m_pos = fuzzify(r, p, beta=12)
        m_neg = fuzzify(-r, p, beta=12)
        assert m_neg == Memberships(m_pos.pb, m_pos.p, m_pos.z, m_pos.n, m_pos.nb)

    @given(r=st.floats(-9.9, 9.9))
    @settings(max_examples=150, deadline=None)
    def test_partition_of_unity_on_shoulders(self, r):
        p = InputPartition(1, 2, 3, 4)
        m = fuzzify(r, p, beta=10)
        active = [v for v in m if v > 0]
        assert len(active) <= 2
        x = abs(r)
        on_shoulder = (1 < x < 2) or (3 < x < 4)
        if on_shoulder:
            assert sum(m) == pytest.approx(1.0)
        if x <= 1 or 2 <= x <= 3 or 4 <= x <= 10:
            assert max(m) == 1.0


class TestRuleBase:
    def test_single_fault_order_counts(self):
        rb = build_rulebase()
        assert sum(len(r.members) == 1 for r in rb.rules) == 7  # one per variable

    def test_default_order_counts(self):
        rb = build_rulebase()
        assert len(rb.rules) == 7 + 21 + 1

    def test_single_de1_rule(self):
        rb = build_rulebase()
        rule = next(r for r in rb.rules if r.members == ("De1",))
        assert rule.premise == ("nonZ", "Z", "Z", "Z", "nonZ")
        assert rule.al == ("De1",)

    def test_compensation_pair_rule(self):
        rb = build_rulebase()
        rule = next(r for r in rb.rules if set(r.members) == {"De2", "Df2"})
        # r2 and r4 shared (cancelable), r3 evidences Df2, r5 evidences De2
        assert rule.premise == ("Z", "any", "nonZ", "any", "nonZ")
        assert set(rule.al) == {"De2", "Df2"}

    def test_nested_signature_member_not_concluded(self):
        # Msf1's residual is inside De1's signature, so the pair rule can
        # never evidence Msf1 on its own; as a hypothesis member it is not
        # vouched OK either, it simply gets no assignment from this rule
        rb = build_rulebase()
        rule = next(r for r in rb.rules if set(r.members) == {"Msf1", "De1"})
        assert rule.al == ("De1",)
        assert "Msf1" not in rule.ok

    def test_fault_rules_vouch_for_excluded_variables(self):
        rb = build_rulebase()
        rule = next(r for r in rb.rules if r.members == ("Msf1",))
        assert set(rule.ok) == set(VARIABLES) - {"Msf1"}

    def test_every_variable_covered(self):
        rb = build_rulebase()
        al = set().union(*(r.al for r in rb.rules))
        ok = set().union(*(r.ok for r in rb.rules))
        assert al == set(VARIABLES)
        assert ok == set(VARIABLES)

    @pytest.mark.parametrize("order", range(1, 8))
    def test_matches_set_algebra(self, order):
        # the signature-count rule of every candidate fault set, of any size
        expected = oracle.rules(order)[:-1]
        assert tuple(fuzzy.fault_set_rule(rule.members) for rule in expected) == expected

    def test_is_the_order_2_set_algebra(self):
        assert build_rulebase().rules == oracle.rules(2)

    def test_signed_premise_rejected(self):
        # the kernel tabulates Z and nonZ only, so a signed premise fails here
        with pytest.raises(ValueError):
            Rule(("P", "any", "any", "any", "any"), ("De1",), ())

    def test_one_rule_base_per_order(self, tmp_path, tuned_cfg):
        assert build_rulebase() is build_rulebase()
        path = str(tmp_path / "cfg.json")
        fuzzy.save_config(tuned_cfg, path)
        assert DetectorKernel(fuzzy.load_config(path)).program is build_rulebase().program


class TestInfer:
    def zero_table(self):
        return [Memberships(0, 0, 1, 0, 0)] * 5

    def test_all_z_gives_all_ok(self):
        act = infer(self.zero_table(), build_rulebase())
        for v in VARIABLES:
            assert ok_al(act[v]) == (1.0, 0.0)

    def test_isolated_arr1_only_flags_msf1(self):
        table = self.zero_table()
        table[0] = Memberships(0, 0, 0, 1, 0)
        act = infer(table, build_rulebase())
        assert act["Msf1"]["AL"] == 1.0
        assert act["De1"]["AL"] == 0.0
        assert act["Df1"]["AL"] == 0.0

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, data):
        rb = build_rulebase()
        vals = data.draw(st.lists(
            st.floats(0, 1).map(lambda x: round(x, 3)),
            min_size=25, max_size=25))
        table = [Memberships(*vals[5 * i: 5 * i + 5]) for i in range(5)]
        expected = brute_force_activations(table, rb)
        got = infer(table, rb)
        for v in VARIABLES:
            assert got[v]["AL"] == pytest.approx(expected[v]["AL"])
            assert got[v]["OK"] == pytest.approx(expected[v]["OK"])

    @every_rulebase
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_brute_force(self, rb, data):
        # the kernel has no beta; it equals the oracle for every beta >= a4
        bounded = [data.draw(input_partitions()) for _ in range(5)]
        parts = tuple(p for p, _ in bounded)
        outputs = tuple(data.draw(output_partitions()) for _ in range(7))
        rows = data.draw(residual_rows(bounded))
        kernel = DetectorKernel(DetectorConfig(parts, outputs))
        kernel.program = rb.program
        al, ok = kernel.activations(rows)
        degrees = kernel.degrees(rows)
        held = [0.0] * 7
        for t, row in enumerate(rows):
            table = [fuzzify(r, p, beta) for r, (p, beta) in zip(row, bounded)]
            expected = brute_force_activations(table, rb)
            got = infer(table, rb)
            for j, v in enumerate(VARIABLES):
                assert al[t, j] == expected[v]["AL"] == got[v]["AL"]
                assert ok[t, j] == expected[v]["OK"] == got[v]["OK"]
            held = [defuzzify(got[v], p, fallback=h)
                    for v, p, h in zip(VARIABLES, outputs, held)]
            assert degrees[t].tolist() == held

    # a huge residual over a tiny rise or fall is inf, which clips to 1
    # without a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_memberships_hold_no_nan_and_no_negative_zero(self, data):
        # the precondition under which the compiled program, with its
        # absorbed rules left out, equals the full rule base bit for bit
        scale = st.one_of(st.sampled_from([1.0, 1e-150, 1e-300]), st.floats(1e-300, 1.0))
        each_gap = data.draw(st.booleans())
        bounded = [data.draw(input_partitions(scale, each_gap)) for _ in range(5)]
        parts = tuple(p for p, _ in bounded)
        rows = data.draw(residual_rows(bounded))
        outputs = (OutputPartition(-1, -0.3, 0.3, 1),) * 7
        kernel = DetectorKernel(DetectorConfig(parts, outputs))
        table = np.empty((10, len(rows)))
        kernel._memberships(rows, table)
        assert not np.isnan(table).any()
        assert not np.signbit(table).any()

    def test_underflowing_nonz_reads_zero_not_negative_zero(self):
        # at r = 0, (x - a1)/rise and (x - a3)/fall underflow to -0.0, and
        # numpy 2 clips -0.0 to -0.0: a degree then printed as "-0.0"
        part = InputPartition(1e-300, 1e300, 1.1e300, 1.2e300)
        cfg = DetectorConfig((part,) * 5, (OutputPartition(-1, -0.3, 0.3, 1),) * 7)
        kernel = DetectorKernel(cfg)
        rows = np.zeros((2, 5))
        table = np.empty((10, 2))
        kernel._memberships(rows, table)
        # Z = 1 and nonZ = +0.0 for every residual
        assert table.tobytes() == np.array([[1.0, 1.0]] * 5 + [[0.0, 0.0]] * 5).tobytes()
        for r in (rows, rows[:1]):
            al, ok = kernel.activations(r)
            assert not np.signbit(al).any() and not np.signbit(ok).any()
            assert not np.signbit(kernel.degrees(r)).any()

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_degrees_are_numbers_at_extreme_boundaries(self, data):
        # every boundary finite and every support d - a finite: then no
        # residual, infinities included, makes a degree NaN or leaves [0, 1]
        bounded = [data.draw(input_partitions(st.sampled_from([1.0, 1e150, 1e300])))
                   for _ in range(5)]
        half = st.floats(1e-3, 8.9e307)
        outputs = tuple(OutputPartition(-a, -a / 2, d / 2, d)
                        for a, d in data.draw(st.lists(st.tuples(half, half),
                                                       min_size=7, max_size=7)))
        rows = data.draw(residual_rows(bounded))
        cfg = DetectorConfig(tuple(p for p, _ in bounded), outputs)
        degrees = DetectorKernel(cfg).degrees(rows)
        assert ((degrees >= 0.0) & (degrees <= 1.0)).all()

    @every_rulebase
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_program_matches_brute_force_bytes(self, rb, data):
        # ties and zeros decide which operand min/max return, so draw many
        rows = data.draw(st.integers(1, 12))
        degree = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        table = data.draw(hnp.arrays(np.float64, (10, rows), elements=degree))
        work = rb.program.work(rows)
        work[:10] = table
        al, ok = rb.program.run(work)
        for t in range(rows):
            memberships = [Memberships(0.0, 0.0, table[i, t], table[5 + i, t], 0.0)
                           for i in range(5)]
            expected = brute_force_activations(memberships, rb)
            assert al[:, t].tobytes() == np.array([expected[v]["AL"] for v in VARIABLES]).tobytes()
            assert ok[:, t].tobytes() == np.array([expected[v]["OK"] for v in VARIABLES]).tobytes()
            # a single column runs the same numpy calls
            single = rb.program.work(1)
            single[:10, 0] = table[:, t]
            al1, ok1 = rb.program.run(single)
            assert (al1.shape, ok1.shape) == ((7, 1), (7, 1))
            assert al1.tobytes() == al[:, t].tobytes()
            assert ok1.tobytes() == ok[:, t].tobytes()

    # a huge residual over a tiny rise or fall is inf, which clips to 1
    # without a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @every_rulebase
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_row_matches_block_bytes(self, rb, data):
        # one row runs memberships and program on Python floats, a block on
        # numpy. NaN, +-inf, +-0.0, boundary ties and partitions from 1e-300
        # to 1e300 decide which operand each min, max and clip returns;
        # tier-1 runs this on every numpy version it tests
        scale = st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300])
        bounded = [data.draw(input_partitions(scale, data.draw(st.booleans())))
                   for _ in range(5)]
        outputs = tuple(data.draw(output_partitions()) for _ in range(7))
        rows = data.draw(residual_rows(bounded))
        kernel = DetectorKernel(DetectorConfig(tuple(p for p, _ in bounded), outputs))
        kernel.program = rb.program
        # two copies, so that a one-row draw runs as a block too; every row
        # starts a trace, so one-row runs see the block's state
        block = np.concatenate([rows, rows])
        al, ok = kernel.activations(block)
        degrees, flags = kernel.run_block(block, np.arange(len(block)))
        for t in range(len(rows)):
            al1, ok1 = kernel.activations(rows[t:t + 1])
            assert al1.tobytes() == al[t].tobytes() and ok1.tobytes() == ok[t].tobytes()
            degrees1, flags1 = kernel.run(rows[t:t + 1])
            assert degrees1.tobytes() == degrees[t].tobytes()
            assert flags1.tobytes() == flags[t].tobytes()
            # the one-row step on Python floats, from a trace's start
            step = kernel.step(rows[t].tolist(), Detector.START)
            assert np.array(step[:7]).tobytes() == degrees[t].tobytes()
            assert np.array(step[14:]).tobytes() == flags[t].tobytes()

    def test_compiled_program_shares_pairs(self):
        # the order-2 rule base as a plain loop is 130 min and 197 max
        # calls over 53 rows (table, rule firings, AL/OK); absorption
        # leaves 126 of the 197 (output, rule) terms
        sizes = {k: (len(p.ops), p.rows) for k in (1, 2, 3, 7)
                 for p in [fuzzy.compile_rules(oracle.rules(k))]}
        assert sizes == {1: (35, 25), 2: (101, 40), 3: (128, 48), 7: (53, 31)}
        assert build_rulebase().program.ones == ()
        # the [order7] and [hand_built] kernel cases reach the constant rows
        assert fuzzy.compile_rules(oracle.rules(7)).ones == tuple(range(7, 14))

    @given(bump=st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_premise_degrees(self, bump):
        rb = build_rulebase()
        table = self.zero_table()
        table[0] = Memberships(0, 0, 0.2, 0.4, 0)
        base = infer(table, rb)
        table2 = list(table)
        table2[0] = Memberships(0, 0, 0.2, min(0.4 + bump, 1.0), 0)
        raised = infer(table2, rb)
        for v in VARIABLES:
            assert raised[v]["AL"] >= base[v]["AL"] - 1e-12


class TestDefuzzify:
    def test_pure_ok_is_zero(self):
        p = OutputPartition(-1, -0.3, 0.3, 1)
        assert defuzzify({"OK": 1.0, "AL": 0.0}, p) == 0.0

    def test_pure_al_is_one(self):
        p = OutputPartition(-1, -0.3, 0.3, 1)
        assert defuzzify({"OK": 0.0, "AL": 1.0}, p) == 1.0

    def test_zero_core_symmetric_equal_activations(self):
        # with b = c = 0 the clipped OK and AL areas agree at any level
        p = OutputPartition(-0.8, 0.0, 0.0, 0.8)
        for h in (0.2, 0.5, 0.9):
            assert defuzzify({"OK": h, "AL": h}, p) == pytest.approx(0.5)

    def test_general_symmetric_partition_against_quadrature(self):
        # a nonzero core weights OK above AL at equal activations
        p = OutputPartition(-0.7, -0.3, 0.3, 0.7)
        got = defuzzify({"OK": 0.5, "AL": 0.5}, p)
        assert got == pytest.approx(quadrature_degree(0.5, 0.5, p), abs=1e-6)
        assert got < 0.5

    @given(ok=st.one_of(st.just(0.0), st.floats(1e-6, 1)),
           al=st.one_of(st.just(0.0), st.floats(1e-6, 1)))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_quadrature(self, ok, al):
        p = OutputPartition(-0.754, -0.304, 0.304, 0.6746)
        expected = quadrature_degree(ok, al, p)
        got = defuzzify({"OK": ok, "AL": al}, p, fallback=-1.0)
        if expected is None:
            assert got == -1.0
        else:
            assert got == pytest.approx(expected, abs=1e-6)

    @given(al1=st.floats(0, 1), al2=st.floats(0, 1), ok=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_al(self, al1, al2, ok):
        p = OutputPartition(-0.6, -0.2, 0.4, 0.9)
        lo, hi = sorted([al1, al2])
        d_lo = defuzzify({"OK": ok, "AL": lo}, p)
        d_hi = defuzzify({"OK": ok, "AL": hi}, p)
        assert d_hi >= d_lo - 1e-12

    def test_no_information_returns_fallback(self):
        p = OutputPartition(-1, -0.3, 0.3, 1)
        assert defuzzify({"OK": 0.0, "AL": 0.0}, p) == 0.0
        assert defuzzify({"OK": 0.0, "AL": 0.0}, p, fallback=0.77) == 0.77


class TestParamsConfig:
    def test_example_tuned_values_valid_without_repair(self):
        cfg, repaired = params_to_config(fuzzy.EXAMPLE_SWARM_TUNED)
        assert not repaired
        assert cfg.input_partitions[0].a1 == 0.146
        assert cfg.output_partitions[6].b == -0.3305

    def test_round_trip_identity(self):
        x = fuzzy.EXAMPLE_SWARM_TUNED
        cfg, _ = params_to_config(x)
        np.testing.assert_array_equal(config_to_params(cfg), x)

    def test_out_of_order_inputs_repaired(self):
        x = fuzzy.EXAMPLE_SWARM_TUNED.copy()
        x[0], x[1] = x[1], x[0]  # a11 > a12
        cfg, repaired = params_to_config(x)
        assert repaired
        p = cfg.input_partitions[0]
        assert p.a1 < p.a2 <= p.a3 < p.a4

    def test_output_sign_projection(self):
        x = fuzzy.EXAMPLE_SWARM_TUNED.copy()
        x[20], x[21] = -0.1, -0.9  # a > b ordering violated
        cfg, repaired = params_to_config(x)
        assert repaired
        p = cfg.output_partitions[0]
        assert p.a < p.b <= 0 <= p.c < p.d

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            params_to_config(np.zeros(47))

    def test_json_round_trip(self, tmp_path):
        cfg = fuzzy.example_tuned_config("genetic")
        path = tmp_path / "cfg.json"
        fuzzy.save_config(cfg, str(path))
        loaded = fuzzy.load_config(str(path))
        np.testing.assert_array_equal(config_to_params(loaded),
                                      config_to_params(cfg))
        assert loaded.alarm_threshold == cfg.alarm_threshold
        assert loaded == cfg

    @pytest.mark.parametrize("kind, sha256", [
        ("swarm", "87c39368b2df065b760d96221d0664e0b4cd3b33a61ee18ca048987a3fd7bac4"),
        ("genetic", "4f51aba836bd70dbbddba5c2f4c7ea74631c264ada38f8e41ddd87131d9e4591"),
    ])
    def test_config_file_bytes_pinned(self, tmp_path, kind, sha256):
        # the file format is plain JSON of the dataclass: 50 values, no
        # beta and no fault order; any change to its bytes is a change to
        # the format
        path = tmp_path / "cfg.json"
        fuzzy.save_config(fuzzy.example_tuned_config(kind), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_keys_of_older_files_rejected_by_name(self, tuned_cfg):
        # files written when a config held a fault order and partition
        # betas: the unknown-field rule names the key, and deleting it
        # converts the file
        obj = plant.to_json(tuned_cfg)
        assert "max_fault_order" not in obj
        assert "beta" not in obj["input_partitions"][0]
        with pytest.raises(fuzzy.SchemaError,
                           match=r"unknown field\(s\) in detector config: \['max_fault_order'\]"):
            plant.from_json(DetectorConfig, {**obj, "max_fault_order": 2}, "detector config")
        old = {**obj, "input_partitions": [{**p, "beta": 25.0} for p in obj["input_partitions"]]}
        with pytest.raises(fuzzy.SchemaError, match=(r"unknown field\(s\) in detector config "
                                                     r"input_partitions\[0\]: \['beta'\]")):
            plant.from_json(DetectorConfig, old, "detector config")

    def test_config_json_schema_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"schema\": 1, \"output_partitions\": []}")
        with pytest.raises(fuzzy.SchemaError) as err:
            fuzzy.load_config(str(path))
        assert "input_partitions" in str(err.value)


class TestDetector:
    def degrees_for(self, resid_rows, cfg):
        kernel = DetectorKernel(cfg)
        return kernel.run(np.asarray(resid_rows, dtype=float))

    def test_zero_residuals_stay_quiet(self, tuned_cfg):
        degrees, flags = self.degrees_for(np.zeros((40, 5)), tuned_cfg)
        assert np.all(degrees == 0.0)
        assert not flags.any()

    def test_saturated_single_fault_flags_after_debounce(self, tuned_cfg):
        rows = np.zeros((20, 5))
        rows[10:] = 10.0 * oracle.fault_direction("De1",
                                                  __import__("tankfdi").plant.PlantParams())
        degrees, flags = self.degrees_for(rows, tuned_cfg)
        j = VARIABLES.index("De1")
        assert degrees[11, j] == pytest.approx(1.0)
        first = np.flatnonzero(flags[:, j])[0]
        assert first == 10 + tuned_cfg.debounce - 1
        assert not flags[:, VARIABLES.index("Msf1")].any()

    def test_just_below_threshold_never_flags(self):
        cfg = dataclasses.replace(params_to_config(fuzzy.EXAMPLE_SWARM_TUNED)[0],
                                  alarm_threshold=0.9999)
        rows = np.zeros((50, 5))
        rows[10:] = [2.0, 0, 0, 0, 2.0]
        kernel = DetectorKernel(cfg)
        degrees = kernel.degrees(rows)
        assert degrees.max() <= 1.0
        flags = kernel._debounce(np.clip(degrees, None, 0.9998) > cfg.alarm_threshold,
                                 [0])
        assert not flags.any()

    def test_streaming_matches_batch(self, tuned_cfg, rng):
        rows = rng.normal(scale=1.5, size=(60, 5))
        kernel = DetectorKernel(tuned_cfg)
        batch_deg, batch_flags = kernel.run(rows)
        det = Detector(tuned_cfg)
        for i, row in enumerate(rows):
            deg, fl = det.detect(row)
            # bit for bit: assert_array_equal would take -0.0 for 0.0
            assert deg.tobytes() == batch_deg[i].tobytes()
            assert fl.tobytes() == batch_flags[i].tobytes()

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_streamed_run_equals_whole_run(self, data):
        # the streaming detector carries the hold and debounce state from
        # row to row, so running a trace one row at a time changes no
        # degree and no flag
        debounce = data.draw(st.integers(1, 40))
        cfg = dataclasses.replace(params_to_config(fuzzy.EXAMPLE_SWARM_TUNED)[0],
                                  debounce=debounce)
        patterns = st.sampled_from([
            [0.0] * 5,
            [3.0, 0, 0, 0, 0],                   # Msf1 fault pattern
            [2.0, 0, 0, 0, 2.0],                 # De1 fault pattern
            [10.0, 10.0, 10.0, 0, 0],            # no rule fires
            [np.nan, 0, 0, 0, 3.0],              # a dropped-out residual
            [np.nan] * 5,                        # every residual drops out
        ])
        noisy = st.lists(st.floats(-4, 4), min_size=5, max_size=5)
        # runs as long as the debounce, and just shorter or longer
        lengths = st.one_of(st.integers(1, 6),
                            st.integers(max(1, debounce - 2), debounce + 2))
        segments = data.draw(st.lists(
            st.tuples(st.one_of(patterns, noisy), lengths),
            min_size=1, max_size=10))
        rows = np.array([row for row, n in segments for _ in range(n)], dtype=float)
        kernel = DetectorKernel(cfg)
        degrees, flags = kernel.run(rows)

        det = Detector(cfg)
        streamed = [det.detect(row) for row in rows]
        # bit for bit, NaN rows included: assert_array_equal would take
        # -0.0 for 0.0
        assert np.array([d for d, _ in streamed]).tobytes() == degrees.tobytes()
        assert np.array([f for _, f in streamed]).tobytes() == flags.tobytes()

    def test_block_evaluation_matches_per_trace(self, tuned_cfg, rng):
        lengths = [30, 17, 44]
        traces = [rng.normal(scale=1.2, size=(n, 5)) for n in lengths]
        kernel = DetectorKernel(tuned_cfg)
        block = np.vstack(traces)
        starts = np.cumsum([0] + lengths[:-1])
        deg_b, flags_b = kernel.run_block(block, starts)
        at = 0
        for tr in traces:
            deg, flags = kernel.run(tr)
            np.testing.assert_array_equal(deg, deg_b[at:at + len(tr)])
            np.testing.assert_array_equal(flags, flags_b[at:at + len(tr)])
            at += len(tr)

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_sign_symmetry_of_degrees(self, seed):
        cfg = fuzzy.example_tuned_config("swarm")
        rows = np.random.default_rng(seed).normal(scale=2.0, size=(25, 5))
        kernel = DetectorKernel(cfg)
        np.testing.assert_allclose(kernel.degrees(rows),
                                   kernel.degrees(-rows), atol=1e-12)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_hold_matches_oracle(self, data):
        v_len, t_len = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 30))
        dtype = data.draw(st.sampled_from([np.float64, np.bool_]))
        values = data.draw(hnp.arrays(dtype, (v_len, t_len)))
        defined = data.draw(hnp.arrays(np.bool_, (v_len, t_len)))
        defined[data.draw(st.lists(st.integers(0, v_len - 1), max_size=v_len))] = False
        if data.draw(st.booleans()):
            defined[:, 0] = False
        values[~defined] = 0
        starts = data.draw(st.lists(st.integers(0, t_len - 1), unique=True)
                           .map(lambda s: np.array(sorted(s), dtype=int)))
        if data.draw(st.booleans()):
            values = np.asfortranarray(values)
        expected = oracle.hold(values.copy(), defined.copy(), starts)
        assert fuzzy._hold(values, defined, starts) is values
        assert values.tobytes() == expected.tobytes()

    def test_hold_keeps_previous_degree_between_rule_supports(self, tuned_cfg):
        # drive Msf1's degree up, then move to a pattern no rule covers
        # (a lone huge r2 matches nothing): the display must hold, not flip
        rows = np.zeros((12, 5))
        rows[2:6] = [3.0, 0, 0, 0, 0]            # Msf1 fault pattern
        rows[6:] = [10.0, 10.0, 10.0, 0, 0]      # un-modeled pattern
        kernel = DetectorKernel(tuned_cfg)
        degrees = kernel.degrees(rows)
        al, ok = kernel.activations(rows[6:7])
        assert not al[0].any() and not ok[0].any()
        j = VARIABLES.index("Msf1")
        assert degrees[7, j] == degrees[5, j] > 0.9

    def test_nan_residual_reads_zero_membership(self, tuned_cfg):
        # pins today's rule for a dropped-out residual: membership 0 in every
        # set, degrees as the five-set table gives them, hold when nothing fires
        parts = tuned_cfg.input_partitions
        assert fuzzify(np.nan, parts[0]) == Memberships(0, 0, 0, 0, 0)
        rows = np.zeros((9, 5))
        rows[1:4] = [3.0, 0, 0, 0, 0]            # Msf1 fault pattern
        rows[4] = [np.nan, 0, 0, 0, 3.0]         # a rule with r1 = any still fires
        rows[5] = [np.nan, 0, 0, 0, 0]           # nothing fires
        rows[6:8] = np.nan                       # every residual drops out
        kernel = DetectorKernel(tuned_cfg)
        degrees = kernel.degrees(rows)
        held = np.zeros(7)
        for t, row in enumerate(rows):
            act = infer([fuzzify(r, p) for r, p in zip(row, parts)],
                        build_rulebase())
            expected = [defuzzify(act[v], p, fallback=held[j])
                        for j, (v, p) in enumerate(zip(VARIABLES,
                                                       tuned_cfg.output_partitions))]
            np.testing.assert_array_equal(degrees[t], expected)
            held = degrees[t]
        assert not np.array_equal(degrees[4], degrees[3])
        np.testing.assert_array_equal(degrees[5], degrees[4])
        np.testing.assert_array_equal(degrees[7], degrees[4])

    def test_compensated_pair_keeps_alarms_active(self, params, tuned_cfg):
        # contributions tuned to cancel in r2; the pair rule must still fire
        d_de2 = oracle.fault_direction("De2", params)
        d_df2 = oracle.fault_direction("Df2", params)
        m_de2 = 3.0
        m_df2 = -m_de2 * d_de2[1] / d_df2[1]
        combined = m_de2 * d_de2 + m_df2 * d_df2
        assert abs(combined[1]) < 1e-12
        rows = np.tile(combined, (10, 1))
        kernel = DetectorKernel(tuned_cfg)
        degrees, flags = kernel.run(rows)
        assert degrees[-1, VARIABLES.index("De2")] > 0.5
        assert degrees[-1, VARIABLES.index("Df2")] > 0.5
        assert flags[-1, VARIABLES.index("De2")]
        assert flags[-1, VARIABLES.index("Df2")]

    @pytest.mark.parametrize("shape", [(5,), (4, 1), (3, 4), (2, 5, 1), ()])
    def test_misshaped_residuals_rejected(self, tuned_cfg, shape):
        # a flat sample or a column used to broadcast into other samples
        kernel = DetectorKernel(tuned_cfg)
        r = np.full(shape, 3.0)
        calls = (kernel.activations, kernel.degrees, kernel.run,
                 lambda r: kernel.run_block(r, np.array([0])))
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                call(r)

    def test_empty_trace_gives_empty_rows(self, tuned_cfg):
        kernel = DetectorKernel(tuned_cfg)
        rows = np.zeros((0, 5))
        degrees, flags = kernel.run(rows)
        assert degrees.shape == flags.shape == (0, 7)
        assert kernel.degrees(rows).shape == (0, 7)

    def test_detect_reads_any_real_input_as_float64(self, tuned_cfg):
        values = np.array([[3, 0, 0, 0, 1], [1, 1, 0, 0, 0], [0, 0, -2, 0, 1]])
        fractions = np.array([[1.2, 0.3, -0.9, 0.05, 1.6], [0.4, 1.1, 0.0, -0.7, 0.2]],
                             dtype=np.float32)
        for rows in (values, values.astype(bool), fractions):
            reference = Detector(tuned_cfg)
            expected = [reference.detect(row.astype(np.float64)) for row in rows]
            as_list, as_array, as_vector = (Detector(tuned_cfg) for _ in range(3))
            for row, (degrees, flags) in zip(rows, expected):
                vector = ResidualVector(0.0, *row.tolist())
                for got in (as_list.detect(row.tolist()), as_array.detect(row),
                            as_vector.detect(vector)):
                    assert got[0].dtype == np.float64
                    assert got[0].tobytes() == degrees.tobytes()
                    assert got[1].tobytes() == flags.tobytes()

    @pytest.mark.parametrize("shape", [(5, 1), (1, 5), (6,), (4,), ()])
    def test_detect_takes_one_sample_of_five(self, tuned_cfg, shape):
        # a column or a row of five used to be reshaped without complaint
        det = Detector(tuned_cfg)
        for r in (np.full(shape, 3.0), np.full(shape, 3.0).tolist()):
            with pytest.raises(ValueError, match=re.escape(f"shape (5,); got shape {shape}")):
                det.detect(r)
        assert det.detect(np.zeros(5))[0].tolist() == [0.0] * 7

    def test_detector_state_does_not_grow_with_debounce(self, tuned_cfg):
        # the carried state is one held degree and one run length per
        # variable; a (debounce - 1, 7) window of above-threshold rows
        # peaked at 20 MB over these samples
        cfg = dataclasses.replace(tuned_cfg, debounce=plant.MAX_STEPS)
        Detector(cfg).detect(np.zeros(5))  # compiles the shared program
        rows = np.random.default_rng(5).normal(scale=2.0, size=(100, 5))
        tracemalloc.start()
        try:
            det = Detector(cfg)
            for row in rows:
                det.detect(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_detector_reset(self, tuned_cfg):
        det = Detector(tuned_cfg)
        for _ in range(5):
            det.detect([3.0, 0, 0, 0, 3.0])
        det.reset()
        deg, flags = det.detect([0.0] * 5)
        assert not flags.any()
        assert np.all(deg == 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig((InputPartition(1, 2, 3, 4),) * 4,
                           (OutputPartition(-1, -0.3, 0.3, 1),) * 7)
        with pytest.raises(ValueError):
            DetectorConfig((InputPartition(1, 2, 3, 4),) * 5,
                           (OutputPartition(-1, -0.3, 0.3, 1),) * 7,
                           alarm_threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig((InputPartition(1, 2, 3, 4),) * 5,
                           (OutputPartition(-1, -0.3, 0.3, 1),) * 7,
                           debounce=0)

    def test_debounce_at_most_the_longest_trace(self, tuned_cfg):
        # a longer window could never flag; its state would fill memory
        cfg = dataclasses.replace(tuned_cfg, debounce=plant.MAX_STEPS)
        assert Detector(cfg).detect(np.zeros(5))[1].tolist() == [False] * 7
        with pytest.raises(ValueError, match=f"got {plant.MAX_STEPS + 1}"):
            dataclasses.replace(tuned_cfg, debounce=plant.MAX_STEPS + 1)
