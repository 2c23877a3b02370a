"""Suite generation, outcome classification, metrics and comparison."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tankfdi
from tankfdi import fuzzy, harness, plant, residuals, tuner
from tankfdi.harness import (ResidualBank, classify,
                             compensation_pair, evaluate_bank, generate_suite,
                             isolable_combinations)
from tankfdi.plant import FaultEvent, FaultScenario, PlantParams

import oracle
from conftest import OPERATING_INPUTS


class TestIsolability:
    def test_all_singles_isolable(self):
        catalog = isolable_combinations(fuzzy.build_rulebase(), 1)
        assert catalog[1] == [(v,) for v in plant.VARIABLES]

    def test_pair_catalog_pinned(self):
        catalog = isolable_combinations(fuzzy.build_rulebase(), 2)
        assert catalog[2] == [("Msf1", "Msf2"), ("Msf1", "De3"),
                              ("Msf1", "Df2"), ("Msf2", "De1"),
                              ("Msf2", "Df1")]

    def test_identical_union_supports_are_excluded(self):
        # {De1, De3} shares its combined signature with a canceling
        # {Df1, Df2} hypothesis, so no support-based detector can split them
        catalog = isolable_combinations(fuzzy.build_rulebase(), 2)
        assert ("De1", "De3") not in catalog[2]

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("multiplicity", [1, 2, 3])
    def test_catalog_matches_scalar_oracle(self, order, multiplicity):
        rb = fuzzy.RuleBase(oracle.rules(order))
        sig = residuals.signature_matrix()
        expected = {
            m: [combo for combo in itertools.combinations(plant.VARIABLES, m)
                if oracle.ideal_flag_set(
                    set().union(*(oracle.signature_row(sig, v) for v in combo)), rb)
                == frozenset(combo)]
            for m in range(1, multiplicity + 1)}
        assert isolable_combinations(rb, multiplicity) == expected

    @pytest.mark.parametrize("order,counts", [(1, (7, 0)), (2, (7, 5)), (3, (3, 0)),
                                              (4, (0, 0)), (7, (0, 0))])
    def test_fault_order_2_isolates_the_most(self, order, counts):
        # why the rule base stops at pairs: candidate sets of three or more
        # faults break the exact pattern of most single faults
        catalog = isolable_combinations(fuzzy.RuleBase(oracle.rules(order)), 2)
        assert (len(catalog[1]), len(catalog[2])) == counts

    def test_compensated_pair_pattern_is_isolable(self):
        rb = fuzzy.build_rulebase()
        flags = oracle.ideal_flag_set({3, 4, 5}, rb)
        assert flags == {"De2", "Df2"}


class TestCompensationPair:
    def test_residual_cancellation_is_exact(self, params):
        ev_de2, ev_df2 = compensation_pair(1.7, params, start=4.0)
        sc = FaultScenario(seed=3, duration=12.0, dt=0.1,
                           events=(ev_de2, ev_df2))
        times, resid = oracle.simulate_residuals(sc, params, OPERATING_INPUTS)
        # noise off: r2 never deviates, r3/r4/r5 carry the fault
        assert np.abs(resid[:, 1]).max() < 1e-9
        assert np.abs(resid[-1, 2]) > 0.5
        assert np.abs(resid[-1, 4]) > 1.0

    @pytest.mark.parametrize("r2", [2.0, 3.0, 0.7, 1e-3])
    def test_settled_offsets_cancel_on_r2_alone(self, r2):
        params = PlantParams(R2=r2)
        offsets = [0.0] * 7
        for ev in compensation_pair(1.7, params, start=0.0):
            offsets[plant.VARIABLE_INDEX[ev.target]] = ev.magnitude
        r = residuals.arr_residuals(offsets, (0.0, 0.0, 0.0), params)
        assert r[1] == 0.0
        assert all(x != 0.0 for x in r[2:])

    def test_direction_algebra(self, params):
        ev_de2, ev_df2 = compensation_pair(2.0, params, start=1.0)
        combined = (ev_de2.magnitude * oracle.fault_direction("De2", params)
                    + ev_df2.magnitude * oracle.fault_direction("Df2", params))
        assert combined[1] == pytest.approx(0.0, abs=1e-15)


class TestGenerateSuite:
    def test_reproducible(self):
        a = generate_suite(50, seed=42)
        b = generate_suite(50, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        assert generate_suite(20, seed=1) != generate_suite(20, seed=2)

    @staticmethod
    def compensation_slots(suite):
        return [i for i, sc in enumerate(suite)
                if {ev.target for ev in sc.events} == {"De2", "Df2"}
                and len(sc.events) == 2
                and sc.events[1].magnitude == pytest.approx(
                    -sc.events[0].magnitude / plant.PlantParams().R2)]

    def test_compensation_cadence(self):
        comp = self.compensation_slots(generate_suite(50, seed=42))
        assert 24 in comp and 49 in comp
        # a suite shorter than the cadence ends on a forced pair
        assert 11 in self.compensation_slots(generate_suite(12, seed=5))

    def test_targets_sampled_from_isolable_catalog(self):
        suite = generate_suite(60, seed=9)
        catalog = isolable_combinations(fuzzy.build_rulebase(), 2)
        allowed = {frozenset(c) for c in catalog[1] + catalog[2]}
        allowed.add(frozenset({"De2", "Df2"}))
        for sc in suite:
            assert frozenset(sc.injected) in allowed

    def test_suite_size_validation(self):
        with pytest.raises(ValueError):
            generate_suite(0, seed=1)


class TestClassify:
    def test_proper_exact_match(self):
        events = [FaultEvent("De1", 5.0, 1.0)]
        cls, delays = classify(events, {"De1": 5.2})
        assert cls == "proper"
        assert delays["De1"] == pytest.approx(0.2)

    def test_empty_scenario_no_flags_is_proper(self):
        assert classify([], {})[0] == "proper"

    def test_bad_when_nothing_flagged(self):
        assert classify([FaultEvent("De1", 5.0, 1.0)], {})[0] == "bad"

    def test_missed_when_subset_flagged(self):
        events = [FaultEvent("De1", 5.0, 1.0), FaultEvent("Msf2", 5.0, 1.0)]
        cls, delays = classify(events, {"De1": 5.3})
        assert cls == "missed"
        assert list(delays) == ["De1"]

    def test_extras_dominate_even_with_all_faults_found(self):
        events = [FaultEvent("De1", 5.0, 1.0)]
        cls, _ = classify(events, {"De1": 5.2, "Msf1": 7.0})
        assert cls == "false_alarm"

    def test_premature_flag_is_false_alarm(self):
        events = [FaultEvent("De1", 5.0, 1.0)]
        cls, delays = classify(events, {"De1": 2.0})
        assert cls == "false_alarm"
        assert not delays

    def test_earliest_event_anchors_delay(self):
        events = [FaultEvent("De1", 5.0, 1.0), FaultEvent("De1", 9.0, -0.5)]
        _, delays = classify(events, {"De1": 5.6})
        assert delays["De1"] == pytest.approx(0.6)


def oracle_classify(injected_events, flag_times):
    """Scalar reference for the array classifier: one scenario, set logic."""
    injected = {ev.target for ev in injected_events}
    starts = {}
    for ev in injected_events:
        starts[ev.target] = min(starts.get(ev.target, math.inf), ev.start)

    extras = set(flag_times) - injected
    found = [v for v in plant.VARIABLES if v in flag_times and v in injected]
    premature = any(flag_times[v] < starts[v] - 1e-9 for v in found)
    delays = {v: flag_times[v] - starts[v]
              for v in found if flag_times[v] >= starts[v] - 1e-9}

    if extras or premature:
        return "false_alarm", delays
    if injected and not flag_times:
        return "bad", delays
    if set(flag_times) < injected:
        return "missed", delays
    return "proper", delays


#: Event starts on the 0.1 s grid; flag times sit on, just inside and just
#: outside the 1e-9 tolerance of them, or anywhere.
_starts = st.integers(0, 60).map(lambda k: k * 0.1)


@st.composite
def outcomes(draw):
    events = draw(st.lists(st.builds(FaultEvent, st.sampled_from(plant.VARIABLES),
                                     _starts, st.just(1.0)), max_size=4))
    anchors = [ev.start for ev in events] + [draw(_starts)]
    flag_times = {}
    for v in plant.VARIABLES:
        kind = draw(st.sampled_from(["none", "none", "at", "tolerance", "early",
                                     "late", "any"]))
        anchor = draw(st.sampled_from(anchors))
        if kind == "at":
            flag_times[v] = anchor
        elif kind == "tolerance":
            flag_times[v] = anchor - 1e-9
        elif kind == "early":
            flag_times[v] = anchor - 2e-9
        elif kind == "late":
            flag_times[v] = anchor + draw(st.floats(0.0, 5.0))
        elif kind == "any":
            flag_times[v] = draw(st.floats(0.0, 20.0))
    return events, flag_times


class TestClassifyRows:
    @given(cases=st.lists(outcomes(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_oracle(self, cases):
        times = np.array([[ft.get(v, np.nan) for v in plant.VARIABLES]
                          for _, ft in cases])
        labels, delays = harness.classify_rows(
            times, *harness.fault_arrays([events for events, _ in cases]))
        for (events, flag_times), label, row in zip(cases, labels, delays):
            want_label, want_delays = oracle_classify(events, flag_times)
            assert harness.CLASSIFICATIONS[label] == want_label
            got = {v: d for v, d in zip(plant.VARIABLES, row.tolist()) if not math.isnan(d)}
            assert list(got.items()) == list(want_delays.items())
            got_label, got_delays = classify(events, flag_times)
            assert got_label == want_label
            assert list(got_delays.items()) == list(want_delays.items())

    def test_edge_cases_are_reached(self):
        # the property above draws each of these; pin them once by hand
        assert oracle_classify([], {})[0] == classify([], {})[0] == "proper"
        events = [FaultEvent("De1", 5.0, 1.0), FaultEvent("De1", 3.0, 1.0)]
        for flag, label in ((3.0, "proper"), (3.0 - 1e-9, "proper"),
                            (3.0 - 2e-9, "false_alarm")):
            assert classify(events, {"De1": flag})[0] == label
            assert oracle_classify(events, {"De1": flag})[0] == label

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            classify([], {"r1": 1.0})


class TestEvaluate:
    def test_fault_free_suite_is_proper_without_flags(self, params, tuned_cfg):
        suite = [FaultScenario(seed=s, duration=8.0, dt=0.1) for s in range(3)]
        reports, metrics = evaluate_bank(tuned_cfg, ResidualBank.from_suite(
            suite, params, OPERATING_INPUTS))
        assert metrics.proper_rate == 1.0
        assert all(not r.flagged for r in reports)
        assert math.isnan(metrics.mean_delay)

    def test_large_single_steps_all_detected_quickly(self, params, tuned_cfg):
        suite = [FaultScenario(seed=i, duration=12.0, dt=0.1,
                               events=(FaultEvent(v, 4.0, 3.0),))
                 for i, v in enumerate(plant.VARIABLES)]
        reports, metrics = evaluate_bank(tuned_cfg, ResidualBank.from_suite(
            suite, params, OPERATING_INPUTS))
        assert metrics.proper_rate == 1.0
        for rep in reports:
            (delay,) = rep.delays.values()
            assert delay <= 10 * 0.1 + 1e-9

    def test_oracle_detector_double(self, params, tuned_cfg):
        # on-grid starts so the ground-truth flags land exactly one debounce
        # window after injection
        suite = [FaultScenario(seed=i, duration=10.0, dt=0.1,
                               events=(FaultEvent(v, 5.0, 2.0),))
                 for i, v in enumerate(plant.VARIABLES)]
        bank = ResidualBank.from_suite(suite, params, OPERATING_INPUTS)
        debounce = tuned_cfg.debounce
        for scenario, (times, _) in zip(bank.scenarios, oracle.bank_traces(bank)):
            flags = np.zeros((len(times), 7), dtype=bool)
            for ev in scenario.events:
                j = plant.VARIABLES.index(ev.target)
                k = np.searchsorted(times, ev.start - 1e-9) + debounce - 1
                flags[k:, j] = True
            classification, delays = classify(
                scenario.events, harness._first_flag_times(times, flags))
            assert classification == "proper"
            for delay in delays.values():
                assert delay == pytest.approx(debounce * 0.1 - 0.1, abs=1e-6)

    def test_counts_partition_suite(self, params):
        suite = generate_suite(12, seed=4)
        bank = ResidualBank.from_suite(suite, params, OPERATING_INPUTS)
        reports, metrics = evaluate_bank(oracle.detuned_config(), bank)
        assert sum(metrics.counts.values()) == len(suite) == len(reports)
        assert metrics.total == len(suite)

    def test_delay_lower_bound(self, params, tuned_cfg):
        suite = generate_suite(10, seed=6)
        reports, _ = evaluate_bank(tuned_cfg, ResidualBank.from_suite(
            suite, params, OPERATING_INPUTS))
        dt, debounce = 0.1, tuned_cfg.debounce
        for rep in reports:
            for delay in rep.delays.values():
                assert delay >= debounce * dt - dt - 1e-9

    def test_end_to_end_determinism(self, params, tuned_cfg):
        suite = generate_suite(6, seed=8)
        r1, m1 = evaluate_bank(tuned_cfg, ResidualBank.from_suite(
            suite, params, OPERATING_INPUTS))
        r2, m2 = evaluate_bank(tuned_cfg, ResidualBank.from_suite(
            suite, params, OPERATING_INPUTS))
        assert m1 == m2
        assert r1 == r2

    def test_block_pass_matches_per_trace_detector(self, params, tuned_cfg):
        # the one-pass first flags and final degrees over the bank block
        # must equal what running and scanning every trace on its own gives
        bank = ResidualBank.from_suite(generate_suite(8, seed=5), params,
                                       OPERATING_INPUTS)
        kernel = fuzzy.DetectorKernel(tuned_cfg)
        per_trace = []
        for idx, (scenario, (times, rows)) in enumerate(zip(bank.scenarios,
                                                            oracle.bank_traces(bank))):
            degrees, flags = kernel.run(rows)
            flag_times = harness._first_flag_times(times, flags)
            per_trace.append(harness.DetectionReport(
                idx, scenario.injected, flag_times,
                *classify(scenario.events, flag_times), tuple(degrees[-1].tolist())))
        reports, metrics = evaluate_bank(tuned_cfg, bank)
        assert reports == per_trace
        assert metrics.counts == {c: sum(rep.classification == c for rep in per_trace)
                                  for c in harness.CLASSIFICATIONS}
        assert any(rep.flagged for rep in per_trace)

    def test_mean_delay_independent_of_hash_seed(self):
        # the mean delay sums per-variable delays; their order must not
        # follow the per-process string hash
        script = (
            "from tankfdi import fuzzy, harness, plant\n"
            "bank = harness.ResidualBank.from_suite(\n"
            "    harness.generate_suite(200, 1000), plant.PlantParams())\n"
            "_, metrics = harness.evaluate_bank(fuzzy.example_tuned_config(), bank)\n"
            "print(repr(metrics.mean_delay))\n")
        src = str(Path(tankfdi.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        procs = [subprocess.Popen([sys.executable, "-c", script], text=True,
                                  stdout=subprocess.PIPE,
                                  env={**os.environ, "PYTHONPATH": path,
                                       "PYTHONHASHSEED": str(seed)})
                 for seed in range(3)]
        outputs = {proc.communicate(timeout=600)[0] for proc in procs}
        assert all(proc.returncode == 0 for proc in procs)
        assert len(outputs) == 1, outputs

    def test_import_leaves_the_process_pool_out(self):
        # a suite is built in one process: nothing imports a process pool
        script = ("import sys, tankfdi, tankfdi.cli\n"
                  "print('concurrent.futures.process' in sys.modules)\n")
        src = str(Path(tankfdi.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", script], text=True, check=True,
                             capture_output=True, env={**os.environ, "PYTHONPATH": path},
                             timeout=120)
        assert out.stdout == "False\n"


@pytest.fixture(scope="module")
def pinned_bank():
    return ResidualBank.from_suite(generate_suite(50, seed=42), plant.PlantParams(),
                                   OPERATING_INPUTS)


class TestScoreBank:
    @pytest.mark.parametrize("debounce", [1, fuzzy.DEFAULT_DEBOUNCE, 201])
    def test_score_bank_matches_evaluate_bank(self, pinned_bank, debounce):
        # 201 rows is longer than any pinned trace, so nothing may flag.
        # Besides random vectors, two where noise reads nonZ: on r1..r3 most
        # traces start with no rule firing, after a trace that ended above
        # threshold, and on all residuals some traces start above threshold.
        rng = np.random.default_rng(7)
        lo, hi = tuner.default_bounds().T
        vectors = [fuzzy.EXAMPLE_SWARM_TUNED, fuzzy.EXAMPLE_GENETIC_TUNED,
                   *(lo + rng.random(len(lo)) * (hi - lo) for _ in range(8))]
        for noisy in (3, 5):
            x = fuzzy.EXAMPLE_SWARM_TUNED.copy()
            x[0:4 * noisy:4], x[1:4 * noisy:4] = 1e-4, 1e-3
            vectors.append(x)
        all_defined = set()
        for x in vectors:
            cfg = dataclasses.replace(fuzzy.params_to_config(x)[0], debounce=debounce)
            kernel = fuzzy.DetectorKernel(cfg)
            all_defined.add(bool(kernel._defuzzify(pinned_bank.block)[1].all()))
            _, metrics = evaluate_bank(cfg, pinned_bank)
            np.testing.assert_array_equal(harness.score_bank(cfg, pinned_bank),
                                          (metrics.proper_rate, metrics.mean_delay))
        # configs with and without rows where no rule fires
        assert all_defined == {True, False}


def _mixed_suite(params):
    """Every case the batched bank must reproduce, two (dt, duration)
    groups interleaved in suite order."""
    long = dict(duration=12.0, dt=0.1)
    short = dict(duration=6.0, dt=0.05)
    return [
        FaultScenario(seed=1, **long),
        FaultScenario(seed=2, noise_std_R=0.05, **short),
        FaultScenario(seed=3, noise_std_R=0.02, noise_std_C=0.02,
                      events=(FaultEvent("De1", 3.0, 1.5),
                              FaultEvent("Msf2", 4.0, -0.1, "ramp")), **long),
        FaultScenario(seed=4, noise_std_C=0.03,
                      events=compensation_pair(2.0, params, 2.5), **short),
        FaultScenario(seed=5, noise_std_R=0.02, noise_std_C=0.02,
                      events=(FaultEvent("Df1", 2.0, 1.0),
                              FaultEvent("Df1", 5.0, 0.25, "ramp")), **long),
        FaultScenario(seed=6, events=(FaultEvent("De3", 1.0, -2.0),), **short),
    ]


class TestResidualBank:
    @pytest.mark.parametrize("block", [1, 2, harness.BANK_BLOCK])
    def test_batched_bank_equals_per_scenario_path(self, params, monkeypatch, block):
        monkeypatch.setattr(harness, "BANK_BLOCK", block)
        suite = _mixed_suite(params)
        bank = ResidualBank.from_suite(suite, params, OPERATING_INPUTS)
        expected = [oracle.simulate_residuals(sc, params, OPERATING_INPUTS)
                    for sc in suite]
        traces = oracle.bank_traces(bank)
        assert len(traces) == len(suite)
        for (times, resid), (got_t, got_r) in zip(expected, traces):
            assert got_t.tobytes() == times.tobytes()
            assert got_r.tobytes() == resid.tobytes()
        block_rows = np.vstack([resid for _, resid in expected])
        assert bank.block.tobytes() == block_rows.tobytes()
        np.testing.assert_array_equal(
            bank.offsets, np.cumsum([0] + [len(resid) for _, resid in expected]))

    def test_pinned_bank_is_bit_reproducible(self):
        # Seeded runs reproduce bit for bit: this digest of the pinned
        # 50-scenario bank must hold on every supported Python and numpy.
        # A refactor of the simulation or the residual conditioning keeps it;
        # a deliberate change of their arithmetic re-pins it and says why.
        bank = ResidualBank.from_suite(generate_suite(50, 42), PlantParams())
        assert bank.block.shape == (10_000, 5)
        assert hashlib.sha256(bank.block.tobytes()).hexdigest() == (
            "bfeab9a27d92f67e7d07f8204f3cc363a1b7efb0e11b5821406049067f03040c")

    def test_bank_arrays_are_read_only(self, params):
        bank = ResidualBank.from_suite(generate_suite(3, seed=2), params,
                                       OPERATING_INPUTS)
        times, rows = oracle.bank_traces(bank)[0]
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            times[0] = 1.0
        for arr in (bank.row_times, bank.injected, bank.fault_starts):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("block", [1, harness.BANK_BLOCK])
    @pytest.mark.parametrize("unstable", [(1, 3), (3,)])
    def test_divergence_reports_what_the_sequential_loop_reports(
            self, params, monkeypatch, block, unstable):
        # with (1, 3), both diverge and 3 does so earlier in simulated time;
        # the scenario-by-scenario loop stops at scenario 1, so must the bank
        monkeypatch.setattr(harness, "BANK_BLOCK", block)
        suite = [FaultScenario(seed=seed, duration=1200.0, dt=3.0, noise_std_R=0.3)
                 if i in unstable else FaultScenario(seed=seed, duration=5.0, dt=0.1)
                 for i, seed in enumerate((5, 0, 6, 1))]
        diverged = []
        for idx, sc in enumerate(suite):
            try:
                oracle.simulate_residuals(sc, params, OPERATING_INPUTS)
            except plant.SimulationDiverged as exc:
                diverged.append((idx, exc.variable, exc.t))
        assert [idx for idx, _, _ in diverged] == list(unstable)
        assert diverged[-1][2] <= diverged[0][2]
        with pytest.raises(plant.SimulationDiverged) as err:
            ResidualBank.from_suite(suite, params, OPERATING_INPUTS)
        assert (err.value.scenario, err.value.variable, err.value.t) == diverged[0]

    @pytest.mark.parametrize("block", [1, harness.BANK_BLOCK])
    def test_overflowing_fault_offset_names_its_scenario(self, params, monkeypatch, block):
        # a finite ramp whose offset overflows Df2 at t = 2.8 s, in scenario 2
        # of 4: the plant stays finite, the measured signal does not
        monkeypatch.setattr(harness, "BANK_BLOCK", block)
        suite = generate_suite(4, seed=2)
        suite[2] = FaultScenario(seed=9, events=(FaultEvent("Df2", 1.0, 1e308, "ramp"),))
        with pytest.raises(plant.SimulationDiverged) as err:
            ResidualBank.from_suite(suite, params, OPERATING_INPUTS)
        assert str(err.value) == "simulation diverged: Df2 is non-finite at t=2.8s in scenario 2"


class TestCompare:
    def test_identical_configs_identical_rows(self, params, tuned_cfg):
        suite = generate_suite(6, seed=3)
        rows, _ = oracle.compare([("a", tuned_cfg), ("b", tuned_cfg)], suite,
                                 params, OPERATING_INPUTS)
        assert rows[0]["proper_rate"] == rows[1]["proper_rate"]
        assert rows[0]["config"] == "a" and rows[1]["config"] == "b"

    def test_metrics_csv_schema(self, params, tuned_cfg, tmp_path):
        suite = generate_suite(4, seed=3)
        rows, _ = oracle.compare([("a", tuned_cfg), ("b", oracle.detuned_config())],
                                 suite, params, OPERATING_INPUTS)
        path = tmp_path / "metrics.csv"
        harness.write_metrics_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ("config,scenarios,proper,missed,bad,false_alarm,"
                            "proper_rate,mean_delay")
        assert len(lines) == 3
        assert lines[1].startswith("a,4,")

    def test_format_table_renders_all_rows(self, params, tuned_cfg):
        suite = generate_suite(4, seed=3)
        rows, _ = oracle.compare([("tuned", tuned_cfg),
                                  ("untuned", oracle.detuned_config())],
                                 suite, params, OPERATING_INPUTS)
        table = harness.format_table(rows)
        assert "tuned" in table and "untuned" in table
        assert table.splitlines()[0].startswith("config")


class TestSuiteFiles:
    def test_round_trip(self, tmp_path):
        suite = generate_suite(5, seed=12)
        path = tmp_path / "suite.json"
        harness.save_suite(suite, str(path), inputs=(1.0, 0.8))
        loaded, inputs = harness.load_suite(str(path))
        assert loaded == suite
        assert inputs == (1.0, 0.8)
        # scenarios that hold their own "schema": 1, as older versions
        # wrote them, load the same
        obj = json.loads(path.read_text())
        assert all("schema" not in sc for sc in obj["scenarios"])
        obj["scenarios"] = [{"schema": 1, **sc} for sc in obj["scenarios"]]
        path.write_text(json.dumps(obj))
        assert harness.load_suite(str(path)) == (loaded, inputs)

    @pytest.mark.parametrize("kind", ["swarm", "genetic", "suite"])
    def test_save_load_save_is_byte_identical(self, tmp_path, kind):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        if kind == "suite":
            suite = generate_suite(200, seed=7)
            profiles = {ev.profile for sc in suite for ev in sc.events}
            assert profiles == {"step", "ramp"}
            harness.save_suite(suite, str(first), inputs=(1.2, 0.6))
            loaded, inputs = harness.load_suite(str(first))
            harness.save_suite(loaded, str(second), inputs=inputs)
        else:
            fuzzy.save_config(fuzzy.example_tuned_config(kind), str(first))
            fuzzy.save_config(fuzzy.load_config(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_schema_errors_name_the_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "inputs": {"Msf1": 1.0}}))
        with pytest.raises(plant.SchemaError) as err:
            harness.load_suite(str(path))
        assert "scenarios" in str(err.value)

    def test_reports_jsonl(self, params, tuned_cfg, tmp_path):
        suite = generate_suite(4, seed=3)
        reports, _ = evaluate_bank(tuned_cfg, ResidualBank.from_suite(
            suite, params, OPERATING_INPUTS))
        path = tmp_path / "reports.jsonl"
        harness.write_reports_jsonl(reports, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert set(first) == {"scenario_id", "injected", "flagged",
                              "classification", "delays"}
