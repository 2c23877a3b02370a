"""Fuzzy detector: membership functions, rule base, inference, defuzzify."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tankfdi import fuzzy, residuals
from tankfdi.fuzzy import (DetectorConfig, Detector, DetectorKernel,
                           InputPartition, Memberships, OutputPartition, Rule,
                           build_rulebase, config_to_params, defuzzify,
                           fuzzify, infer, params_to_config)
from tankfdi.plant import VARIABLES


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
), max_fault_order=1)


@st.composite
def input_partitions(draw):
    """Valid partitions, including a2 == a3 and beta == a4."""
    gap = st.floats(0.01, 2.0)
    a1 = draw(gap)
    a2 = a1 + draw(gap)
    a3 = a2 + draw(st.one_of(st.just(0.0), gap))
    a4 = a3 + draw(gap)
    beta = a4 + draw(st.one_of(st.just(0.0), st.floats(0.01, 20.0)))
    return InputPartition(a1, a2, a3, a4, beta)


def residual_rows(parts):
    """Rows (T, 5) mixing random values, every partition boundary of its
    residual (+-a1..a4, +-beta), values beyond beta, infinities and NaN."""
    def column(p):
        edges = [p.a1, p.a2, p.a3, p.a4, p.beta, 2 * p.beta + 1, np.inf]
        special = st.sampled_from([s * e for e in edges for s in (1, -1)]
                                  + [0.0, np.nan])
        return st.one_of(special, st.floats(-1.5 * p.beta, 1.5 * p.beta))
    row = st.tuples(*(column(p) for p in parts))
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
            InputPartition(0.1, 0.4, 1.0, 30.0, beta=25.0)
        InputPartition(0.1, 0.4, 0.4, 2.0)  # a2 == a3 allowed

    def test_output_ordering_enforced(self):
        with pytest.raises(ValueError):
            OutputPartition(-1.0, 0.1, 0.2, 0.5)
        with pytest.raises(ValueError):
            OutputPartition(-1.0, -0.2, 0.3, 0.3)
        OutputPartition(-1.0, 0.0, 0.0, 0.5)  # b == 0 == c allowed


class TestFuzzify:
    def test_zero_is_fully_z(self):
        m = fuzzify(0.0, InputPartition(1, 2, 3, 4, beta=10))
        assert m == Memberships(0, 0, 1, 0, 0)

    def test_shoulder_split(self):
        m = fuzzify(1.5, InputPartition(1, 2, 3, 4, beta=10))
        assert m.z == pytest.approx(0.5)
        assert m.p == pytest.approx(0.5)
        assert (m.nb, m.n, m.pb) == (0, 0, 0)

    def test_clamps_to_extreme_sets(self):
        p = InputPartition(1, 2, 3, 4, beta=10)
        assert fuzzify(50.0, p).pb == 1.0
        assert fuzzify(-50.0, p).nb == 1.0

    @given(r=st.floats(-12, 12))
    @settings(max_examples=120, deadline=None)
    def test_negation_reverses_membership_tuple(self, r):
        p = InputPartition(0.5, 1.0, 2.5, 4.0, beta=12)
        m_pos = fuzzify(r, p)
        m_neg = fuzzify(-r, p)
        assert m_neg == Memberships(m_pos.pb, m_pos.p, m_pos.z, m_pos.n, m_pos.nb)

    @given(r=st.floats(-9.9, 9.9))
    @settings(max_examples=150, deadline=None)
    def test_partition_of_unity_on_shoulders(self, r):
        p = InputPartition(1, 2, 3, 4, beta=10)
        m = fuzzify(r, p)
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
        rb = build_rulebase(max_fault_order=1)
        assert len(rb.rules) == 8  # seven single-fault rules plus all-clear

    def test_default_order_counts(self):
        rb = build_rulebase(max_fault_order=2)
        assert len(rb.rules) == 7 + 21 + 1

    def test_single_de1_rule(self):
        rb = build_rulebase(max_fault_order=1)
        rule = next(r for r in rb.rules if r.members == ("De1",))
        assert rule.premise == ("nonZ", "Z", "Z", "Z", "nonZ")
        assert rule.al == ("De1",)

    def test_compensation_pair_rule(self):
        rb = build_rulebase(max_fault_order=2)
        rule = next(r for r in rb.rules if set(r.members) == {"De2", "Df2"})
        # r2 and r4 shared (cancelable), r3 evidences Df2, r5 evidences De2
        assert rule.premise == ("Z", "any", "nonZ", "any", "nonZ")
        assert set(rule.al) == {"De2", "Df2"}

    def test_nested_signature_member_not_concluded(self):
        # Msf1's residual is inside De1's signature, so the pair rule can
        # never evidence Msf1 on its own; as a hypothesis member it is not
        # vouched OK either, it simply gets no assignment from this rule
        rb = build_rulebase(max_fault_order=2)
        rule = next(r for r in rb.rules if set(r.members) == {"Msf1", "De1"})
        assert rule.al == ("De1",)
        assert "Msf1" not in rule.ok

    def test_fault_rules_vouch_for_excluded_variables(self):
        rb = build_rulebase(max_fault_order=2)
        rule = next(r for r in rb.rules if r.members == ("Msf1",))
        assert set(rule.ok) == set(VARIABLES) - {"Msf1"}

    def test_every_variable_covered(self):
        rb = build_rulebase(max_fault_order=2)
        al = set().union(*(r.al for r in rb.rules))
        ok = set().union(*(r.ok for r in rb.rules))
        assert al == set(VARIABLES)
        assert ok == set(VARIABLES)

    def test_signed_premise_rejected(self):
        # the kernel tabulates Z and nonZ only, so a signed premise fails here
        with pytest.raises(ValueError):
            Rule(("P", "any", "any", "any", "any"), ("De1",), ())

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            build_rulebase(max_fault_order=0)
        with pytest.raises(ValueError):
            build_rulebase(max_fault_order=8)


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
        rb = build_rulebase(max_fault_order=2)
        vals = data.draw(st.lists(
            st.floats(0, 1).map(lambda x: round(x, 3)),
            min_size=25, max_size=25))
        table = [Memberships(*vals[5 * i: 5 * i + 5]) for i in range(5)]
        expected = brute_force_activations(table, rb)
        got = infer(table, rb)
        for v in VARIABLES:
            assert got[v]["AL"] == pytest.approx(expected[v]["AL"])
            assert got[v]["OK"] == pytest.approx(expected[v]["OK"])

    @pytest.mark.parametrize("rb", [build_rulebase(max_fault_order=k) for k in (1, 2, 3, 7)]
                             + [HAND_BUILT_RULEBASE],
                             ids=["order1", "generated", "order3", "order7", "hand_built"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_brute_force(self, rb, data):
        parts = tuple(data.draw(input_partitions()) for _ in range(5))
        rows = data.draw(residual_rows(parts))
        kernel = DetectorKernel(DetectorConfig(
            parts, (OutputPartition(-1, -0.3, 0.3, 1),) * 7, rb))
        al, ok = kernel.activations(rows)
        for t, row in enumerate(rows):
            table = [fuzzify(r, p) for r, p in zip(row, parts)]
            expected = brute_force_activations(table, rb)
            got = infer(table, rb)
            for j, v in enumerate(VARIABLES):
                assert al[t, j] == expected[v]["AL"] == got[v]["AL"]
                assert ok[t, j] == expected[v]["OK"] == got[v]["OK"]

    def test_compiled_program_shares_pairs(self):
        # the order-2 rule base as a plain loop is 130 min and 197 max
        # calls over 53 rows (table, rule firings, AL/OK)
        program = build_rulebase(max_fault_order=2).program
        assert len(program.ops) == 127
        assert program.rows == 44
        assert program.ones == ()
        # the [order7] and [hand_built] kernel cases reach the constant rows
        assert build_rulebase(max_fault_order=7).program.ones == tuple(range(7, 14))

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
        assert loaded.rulebase.max_fault_order == cfg.rulebase.max_fault_order

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
        rows[10:] = 10.0 * residuals.fault_direction("De1",
                                                     __import__("tankfdi").plant.PlantParams())
        degrees, flags = self.degrees_for(rows, tuned_cfg)
        j = VARIABLES.index("De1")
        assert degrees[11, j] == pytest.approx(1.0)
        first = np.flatnonzero(flags[:, j])[0]
        assert first == 10 + tuned_cfg.debounce - 1
        assert not flags[:, VARIABLES.index("Msf1")].any()

    def test_just_below_threshold_never_flags(self):
        cfg, _ = params_to_config(fuzzy.EXAMPLE_SWARM_TUNED,
                                  alarm_threshold=0.9999)
        rows = np.zeros((50, 5))
        rows[10:] = [2.0, 0, 0, 0, 2.0]
        kernel = DetectorKernel(cfg)
        degrees = kernel.degrees(rows)
        assert degrees.max() <= 1.0
        flags = kernel.flags(np.clip(degrees, None, 0.9998))
        assert not flags.any()

    def test_streaming_matches_batch(self, tuned_cfg, rng):
        rows = rng.normal(scale=1.5, size=(60, 5))
        kernel = DetectorKernel(tuned_cfg)
        batch_deg, batch_flags = kernel.run(rows)
        det = Detector(tuned_cfg)
        for i, row in enumerate(rows):
            deg, fl = det.detect(row)
            np.testing.assert_array_equal(deg, batch_deg[i])
            np.testing.assert_array_equal(fl, batch_flags[i])

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
                        tuned_cfg.rulebase)
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
        d_de2 = residuals.fault_direction("De2", params)
        d_df2 = residuals.fault_direction("Df2", params)
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

    def test_detector_reset(self, tuned_cfg):
        det = Detector(tuned_cfg)
        for _ in range(5):
            det.detect([3.0, 0, 0, 0, 3.0])
        det.reset()
        deg, flags = det.detect([0.0] * 5)
        assert not flags.any()
        assert np.all(deg == 0.0)

    def test_config_validation(self):
        rb = build_rulebase()
        with pytest.raises(ValueError):
            DetectorConfig((InputPartition(1, 2, 3, 4),) * 4,
                           (OutputPartition(-1, -0.3, 0.3, 1),) * 7, rb)
        with pytest.raises(ValueError):
            DetectorConfig((InputPartition(1, 2, 3, 4),) * 5,
                           (OutputPartition(-1, -0.3, 0.3, 1),) * 7, rb,
                           alarm_threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig((InputPartition(1, 2, 3, 4),) * 5,
                           (OutputPartition(-1, -0.3, 0.3, 1),) * 7, rb,
                           debounce=0)
