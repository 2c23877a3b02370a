"""Command-line interface: artifact plumbing, exit codes, determinism."""

import csv
import json
import math
import multiprocessing
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from tankfdi import cli, fuzzy, harness, plant, render, residuals, tuner
from tankfdi.cli import main

import oracle
from conftest import OPERATING_INPUTS


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "schema": 1, "seed": 3, "duration": 8.0, "dt": 0.1,
        "noise_std_R": 0.0, "noise_std_C": 0.0,
        "events": [{"target": "De1", "start": 3.0, "magnitude": 2.0,
                    "profile": "step"}],
        "inputs": {"Msf1": 1.0, "Msf2": 0.8},
    }))
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    fuzzy.save_config(fuzzy.example_tuned_config("swarm"), str(path))
    return str(path)


@pytest.fixture
def suite_file(tmp_path):
    path = tmp_path / "suite.json"
    harness.save_suite(harness.generate_suite(5, seed=7), str(path),
                       inputs=OPERATING_INPUTS)
    return str(path)


class TestSimulate:
    def test_writes_matching_csvs(self, tmp_path, scenario_file):
        trace = tmp_path / "trace.csv"
        resid = tmp_path / "resid.csv"
        code = main(["simulate", "--scenario", scenario_file,
                     "--out-trace", str(trace), "--out-residuals", str(resid)])
        assert code == 0
        t_lines = trace.read_text().splitlines()
        r_lines = resid.read_text().splitlines()
        assert len(t_lines) == len(r_lines) == 82
        assert (tmp_path / "trace.csv.run.json").exists()

    def test_fault_free_scenario_residuals_near_zero(self, tmp_path):
        sc = tmp_path / "clean.json"
        sc.write_text(json.dumps({"schema": 1, "duration": 5.0, "dt": 0.1,
                                  "events": []}))
        resid = tmp_path / "resid.csv"
        code = main(["simulate", "--scenario", str(sc),
                     "--out-trace", str(tmp_path / "t.csv"),
                     "--out-residuals", str(resid)])
        assert code == 0
        rows = [ln.split(",") for ln in resid.read_text().splitlines()[1:]]
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.abs(values).max() < 1e-9

    def test_malformed_scenario_exits_2_naming_field(self, tmp_path, capsys):
        sc = tmp_path / "bad.json"
        sc.write_text(json.dumps({"schema": 1, "events": [
            {"target": "De1", "start": 1.0}]}))
        code = main(["simulate", "--scenario", str(sc),
                     "--out-trace", str(tmp_path / "t.csv"),
                     "--out-residuals", str(tmp_path / "r.csv")])
        assert code == 2
        assert "magnitude" in capsys.readouterr().err

    def test_divergent_plant_exits_3(self, tmp_path, capsys):
        plant_cfg = tmp_path / "plant.json"
        # microscopic capacitance with a huge step makes the plant stiff
        # beyond the fixed-step integrator's stability region
        plant_cfg.write_text(json.dumps({"schema": 1, "C1": 1e-8, "C2": 1e-8,
                                         "C3": 1e-8}))
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"schema": 1, "duration": 50.0, "dt": 0.5,
                                  "events": [],
                                  "inputs": {"Msf1": 1e6, "Msf2": 0.0}}))
        code = main(["simulate", "--scenario", str(sc), "--plant", str(plant_cfg),
                     "--out-trace", str(tmp_path / "t.csv"),
                     "--out-residuals", str(tmp_path / "r.csv")])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    def test_overflowing_fault_offset_exits_3(self, tmp_path, capsys, recwarn):
        # every value is finite, but the ramp's offset passes 1.8e308 at
        # t = 2.8 s: no inf trace or residual is written, and numpy warns nothing
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"duration": 20.0, "events": [
            {"target": "Df2", "start": 1.0, "magnitude": 1e308, "profile": "ramp"}]}))
        code = main(["simulate", "--scenario", str(sc),
                     "--out-trace", str(tmp_path / "t.csv"),
                     "--out-residuals", str(tmp_path / "r.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: simulation diverged: Df2 is non-finite at t=2.8s\n")
        assert sorted(os.listdir(tmp_path)) == ["sc.json"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    # a plant file from before the valve law took one constant
    @pytest.mark.parametrize("key", ["az", "S_conn", "g", "rho"])
    def test_old_valve_constant_exits_2_naming_the_key(self, tmp_path, scenario_file,
                                                       key, capsys):
        plant_cfg = tmp_path / "plant.json"
        plant_cfg.write_text(json.dumps({"schema": 1, key: 1.0}))
        code = main(["simulate", "--scenario", scenario_file, "--plant", str(plant_cfg),
                     "--out-trace", str(tmp_path / "t.csv"),
                     "--out-residuals", str(tmp_path / "r.csv")])
        assert code == 2
        assert (f"unknown field(s) in plant config: [{key!r}]"
                in capsys.readouterr().err)
        assert not (tmp_path / "t.csv").exists()

    # -0.1 = -dt divided by zero, -0.05 gave a filter gain of 2, NaN wrote
    # NaN residuals
    @pytest.mark.parametrize("tau", ["-0.1", "-0.05", "nan", "inf"])
    def test_bad_tau_exits_2_naming_the_flag(self, tmp_path, scenario_file, tau, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", scenario_file, "--tau", tau,
                  "--out-trace", str(tmp_path / "t.csv"),
                  "--out-residuals", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert ("argument --tau: tau must be a finite non-negative number, got "
                f"{float(tau)!r}" in capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_zero_tau_is_no_filter(self, tmp_path, scenario_file):
        for tau in (["--tau", "0"], []):
            main(["simulate", "--scenario", scenario_file, *tau,
                  "--out-trace", str(tmp_path / "t.csv"),
                  "--out-residuals", str(tmp_path / f"r{len(tau)}.csv")])
        assert (tmp_path / "r0.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


class TestNonFiniteInput:
    """JSON NaN/Infinity is rejected at load with exit code 2."""

    def _simulate(self, tmp_path, scenario, plant_cfg=None):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(scenario))
        argv = ["simulate", "--scenario", str(sc),
                "--out-trace", str(tmp_path / "t.csv"),
                "--out-residuals", str(tmp_path / "r.csv")]
        if plant_cfg is not None:
            path = tmp_path / "plant.json"
            path.write_text(json.dumps(plant_cfg))
            argv += ["--plant", str(path)]
        return main(argv)

    def test_infinite_duration(self, tmp_path, capsys):
        code = self._simulate(tmp_path, {"schema": 1, "duration": float("inf")})
        assert code == 2
        assert "duration must be finite" in capsys.readouterr().err

    def test_nan_step(self, tmp_path, capsys):
        code = self._simulate(tmp_path, {"schema": 1, "dt": float("nan")})
        assert code == 2
        assert "dt must be finite" in capsys.readouterr().err

    def test_infinite_fault_magnitude(self, tmp_path, capsys):
        code = self._simulate(tmp_path, {"schema": 1, "events": [
            {"target": "De1", "start": 1.0, "magnitude": float("inf")}]})
        assert code == 2
        assert "magnitude must be finite" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_nan_plant_parameter(self, tmp_path, capsys):
        code = self._simulate(tmp_path, {"schema": 1}, plant_cfg={"schema": 1,
                                                                  "C1": float("nan")})
        assert code == 2
        assert "C1 must be finite" in capsys.readouterr().err

    def test_nan_operating_input(self, tmp_path, capsys):
        code = self._simulate(tmp_path, {"schema": 1, "inputs": {
            "Msf1": float("nan"), "Msf2": 0.8}})
        assert code == 2
        assert "inputs" in capsys.readouterr().err


class TestTune:
    def test_pso_history_non_increasing(self, tmp_path, suite_file, capsys):
        out_cfg = tmp_path / "tuned.json"
        out_hist = tmp_path / "hist.csv"
        code = main(["tune", "--method", "pso", "--suite", suite_file,
                     "--swarm-size", "6", "--iterations", "4", "--seed", "1",
                     "--out-config", str(out_cfg), "--out-history", str(out_hist)])
        assert code == 0
        lines = out_hist.read_text().splitlines()
        assert lines[0] == "iteration,best_fitness,mean_fitness"
        best = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(best) == 5
        assert all(b <= a for a, b in zip(best, best[1:]))
        assert "final fitness" in capsys.readouterr().out
        fuzzy.load_config(str(out_cfg))  # parses back as a valid config

    def test_ga_single_generation(self, tmp_path, suite_file):
        code = main(["tune", "--method", "ga", "--suite", suite_file,
                     "--population", "6", "--max-generations", "1",
                     "--stall-generations", "1", "--seed", "1",
                     "--out-config", str(tmp_path / "cfg.json"),
                     "--out-history", str(tmp_path / "hist.csv")])
        assert code == 0
        lines = (tmp_path / "hist.csv").read_text().splitlines()
        assert len(lines) == 3  # header + init + one generation

    def test_invalid_acceleration_exits_2(self, tmp_path, suite_file, capsys):
        code = main(["tune", "--method", "pso", "--suite", suite_file,
                     "--c1", "2", "--c2", "2",
                     "--out-config", str(tmp_path / "cfg.json"),
                     "--out-history", str(tmp_path / "hist.csv")])
        assert code == 2
        assert "c1 + c2 > 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e200"])
    def test_non_finite_acceleration_exits_2_before_the_suite(self, tmp_path, value,
                                                               monkeypatch, capsys):
        monkeypatch.setattr(harness, "generate_suite", None)
        code = main(["tune", "--method", "pso", "--generate", "3", "--c1", value,
                     "--out-config", str(tmp_path / "cfg.json"),
                     "--out-history", str(tmp_path / "hist.csv")])
        assert code == 2
        assert "c1 + c2 > 4 with a finite square" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_stall_above_max_generations_names_both(self, tmp_path, capsys):
        out = tmp_path / "cfg.json"
        code = main(["tune", "--method", "ga", "--generate", "3", "--max-generations", "2",
                     "--out-config", str(out), "--out-history", str(tmp_path / "hist.csv")])
        assert code == 2
        assert ("stall_generations (50) must not exceed max_generations (2)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("max_generations,stall_generations,name", [
        ("-1", "-1", "max_generations"), ("5", "-2", "stall_generations")])
    def test_negative_generation_count_exits_2(self, tmp_path, capsys, max_generations,
                                               stall_generations, name):
        out = tmp_path / "cfg.json"
        code = main(["tune", "--method", "ga", "--generate", "3", "--population", "3",
                     "--max-generations", max_generations,
                     "--stall-generations", stall_generations,
                     "--out-config", str(out), "--out-history", str(tmp_path / "hist.csv")])
        assert code == 2
        assert f"{name} must be non-negative" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("method,flag,value", [("pso", "--population", "99"),
                                                   ("ga", "--c1", "2.5")])
    def test_flag_of_the_other_method_exits_2(self, tmp_path, suite_file, method, flag,
                                              value, capsys):
        out = tmp_path / "cfg.json"
        code = main(["tune", "--method", method, "--suite", suite_file, flag, value,
                     "--out-config", str(out), "--out-history", str(tmp_path / "hist.csv")])
        assert code == 2
        assert f"--method {method} does not take {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, size", [
        ("pso", ["--swarm-size", "2", "--iterations", "1"]),
        ("ga", ["--population", "3", "--max-generations", "1", "--stall-generations", "1"])])
    def test_optimizer_looked_up_when_tune_runs(self, tmp_path, suite_file, monkeypatch,
                                                method, size):
        # an optimizer wrapped after cli is imported, as a tracer wraps it,
        # is the one tune calls
        optimizer = {"pso": "pso_tune", "ga": "ga_tune"}[method]
        calls, original = [], getattr(tuner, optimizer)

        def recording(*args):
            calls.append(method)
            return original(*args)

        monkeypatch.setattr(tuner, optimizer, recording)
        assert main(["tune", "--method", method, "--suite", suite_file, *size,
                     "--out-config", str(tmp_path / "c.json"),
                     "--out-history", str(tmp_path / "h.csv")]) == 0
        assert calls == [method]

    def test_generate_flag_builds_suite(self, tmp_path):
        code = main(["tune", "--method", "pso", "--generate", "4",
                     "--suite-seed", "5", "--swarm-size", "5",
                     "--iterations", "2", "--seed", "2",
                     "--out-config", str(tmp_path / "cfg.json"),
                     "--out-history", str(tmp_path / "hist.csv")])
        assert code == 0


class TestTunePool:
    """``tune`` scores each generation across one forked worker per usable
    CPU. Three CPUs are claimed, so the pool runs on any host."""

    SIZE = {"pso": ["--swarm-size", "7", "--iterations", "3"],
            "ga": ["--population", "7", "--max-generations", "3",
                   "--stall-generations", "3"]}

    def tune(self, method, suite_file, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        cfg, hist = tmp_path / "c.json", tmp_path / "h.csv"
        return main(["tune", "--method", method, "--suite", suite_file, "--seed", "3",
                     *self.SIZE[method], "--out-config", str(cfg), "--out-history", str(hist)])

    @pytest.mark.parametrize("method", ["pso", "ga"])
    def test_pooled_equals_one_cpu(self, tmp_path, suite_file, monkeypatch, capsys, method):
        runs = []
        for cpus in ({0, 1, 2}, {0}):
            assert self.tune(method, suite_file, tmp_path, monkeypatch, cpus) == 0
            assert multiprocessing.active_children() == []
            run = json.loads((tmp_path / "c.json.run.json").read_text())
            assert run["options"]["workers"] == len(cpus)
            runs.append([(tmp_path / "c.json").read_bytes(), (tmp_path / "h.csv").read_bytes(),
                         capsys.readouterr().out])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cpus, workers", [({0}, 0), ({0, 1, 2}, 3)])
    def test_forks_one_worker_per_cpu(self, tmp_path, suite_file, monkeypatch, cpus,
                                      workers):
        # a one-CPU run forks nothing
        forks, fork = [], os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        assert self.tune("pso", suite_file, tmp_path, monkeypatch, cpus) == 0
        assert len(forks) == workers

    def test_failing_objective_keeps_the_serial_error(self, tmp_path, suite_file,
                                                      monkeypatch):
        # particles 3, 4 and 6 of generation 0 fail: the second and third of
        # the three chunks, so the first failing row must win over the others
        params_to_config = fuzzy.params_to_config

        def flaky(x, **kwargs):
            if 0.36 < x[0] < 0.5:
                raise ValueError(f"a1 = {x[0]!r} rejected")
            return params_to_config(x, **kwargs)

        monkeypatch.setattr(fuzzy, "params_to_config", flaky)
        errors = []
        for cpus in ({0, 1, 2}, {0}):
            with pytest.raises(RuntimeError) as err:
                self.tune("pso", suite_file, tmp_path, monkeypatch, cpus)
            assert multiprocessing.active_children() == []
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("fitness evaluation failed for particle 3: a1 = ")


class TestDetect:
    def test_writes_degree_csv_and_dot(self, tmp_path, scenario_file, config_file):
        out = tmp_path / "degrees.csv"
        dot = tmp_path / "state.dot"
        code = main(["detect", "--config", config_file, "--scenario",
                     scenario_file, "--out", str(out), "--dot", str(dot)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,deg_Msf1")
        assert len(lines) == 81
        assert dot.read_text().startswith("digraph")

    def test_one_row_equals_the_first_of_two(self, tmp_path, config_file):
        # duration == dt leaves one residual row, which the kernel runs on
        # Python floats; with two rows it runs numpy calls. A noisy De1 step
        # at t = 0 gives fractional degrees
        lines = []
        for steps in (1, 2):
            path, out = tmp_path / f"scenario{steps}.json", tmp_path / f"degrees{steps}.csv"
            path.write_text(json.dumps({
                "schema": 1, "seed": 7, "duration": steps * 0.1, "dt": 0.1,
                "noise_std_R": 0.02, "noise_std_C": 0.02,
                "events": [{"target": "De1", "start": 0.0, "magnitude": 0.6,
                            "profile": "step"}]}))
            assert main(["detect", "--config", config_file, "--scenario", str(path),
                         "--out", str(out)]) == 0
            lines.append(out.read_bytes().splitlines())
        one, two = lines
        assert (len(one), len(two)) == (2, 3)
        assert one == two[:2]
        degrees = [float(v) for v in one[1].split(b",")[1:8]]
        assert any(0.0 < d < 1.0 for d in degrees)

    def test_agrees_with_evaluate(self, tmp_path, config_file):
        # detect runs the kernel on one scenario's bank; evaluate runs it
        # on the block of the whole suite's bank
        scenario = plant.FaultScenario(
            seed=11, duration=15.0, dt=0.1, noise_std_R=0.02, noise_std_C=0.02,
            events=(plant.FaultEvent("Msf1", 4.0, 1.8),
                    plant.FaultEvent("Msf2", 6.0, 0.2, "ramp")))
        scenario_path, suite_path = tmp_path / "scenario.json", tmp_path / "suite.json"
        scenario_path.write_text(json.dumps(plant.to_json(scenario)))
        harness.save_suite([scenario], str(suite_path))
        out, dot, dots = tmp_path / "d.csv", tmp_path / "d.dot", tmp_path / "dots"
        assert main(["detect", "--config", config_file, "--scenario", str(scenario_path),
                     "--out", str(out), "--dot", str(dot)]) == 0
        assert main(["evaluate", "--config", config_file, "--suite", str(suite_path),
                     "--out", str(tmp_path / "m.csv"), "--reports", str(tmp_path / "r.jsonl"),
                     "--render", str(dots)]) == 0
        assert dot.read_bytes() == (dots / "scenario_000.dot").read_bytes()
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        first = {}
        for row in rows:
            for name, value in zip(header, row):
                if name.startswith("flag_") and value == "1":
                    first.setdefault(name[len("flag_"):], float(row[0]))
        (report,) = [json.loads(line) for line in (tmp_path / "r.jsonl").read_text().splitlines()]
        assert first == report["flagged"]
        assert sorted(first) == ["Msf1", "Msf2"]


    @pytest.mark.parametrize("events", [
        (plant.FaultEvent("De1", 3.0, 2.0),),
        (plant.FaultEvent("Msf2", 2.0, 0.3, "ramp"),),
        harness.compensation_pair(2.0, plant.PlantParams(), start=4.0),
        (),
    ], ids=["step", "ramp", "compensation pair", "no fault"])
    def test_streamed_trace_csv_rows_equal_detect(self, tmp_path, config_file, events):
        # the on-line path: the rows that simulate --out-trace writes, read
        # back from the text, through ResidualEvaluator and Detector one
        # at a time, give detect's CSV byte for byte
        scenario = plant.FaultScenario(seed=5, duration=10.0, dt=0.1, noise_std_R=0.02,
                                       noise_std_C=0.02, events=events)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(plant.to_json(scenario)))
        trace, detected, streamed = tmp_path / "t.csv", tmp_path / "d.csv", tmp_path / "s.csv"
        assert main(["simulate", "--scenario", str(path), "--out-trace", str(trace),
                     "--out-residuals", str(tmp_path / "r.csv")]) == 0
        assert main(["detect", "--config", config_file, "--scenario", str(path),
                     "--out", str(detected)]) == 0
        with open(trace, newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        evaluator = residuals.ResidualEvaluator(
            plant.PlantParams(), scenario.dt, tau=harness.DERIVATIVE_TAU_FACTOR * scenario.dt,
            spike_window=harness.DERIVATIVE_SPIKE_WINDOW)
        detector = fuzzy.Detector(fuzzy.load_config(config_file))
        with pytest.raises(residuals.InsufficientHistory):
            evaluator.update(rows[0])
        out = []
        for row in rows[1:]:
            vec = evaluator.update(row)
            degrees, flags = detector.detect(vec)
            out.append([vec.t, *degrees.tolist(), *flags.tolist()])
        header = (["t"] + [f"deg_{v}" for v in plant.VARIABLES]
                  + [f"flag_{v}" for v in plant.VARIABLES])
        plant.write_csv(header, out, str(streamed))
        assert streamed.read_bytes() == detected.read_bytes()


class TestEvaluate:
    def test_single_row_metrics(self, tmp_path, config_file, suite_file):
        out = tmp_path / "metrics.csv"
        code = main(["evaluate", "--config", config_file, "--suite", suite_file,
                     "--out", str(out), "--reports", str(tmp_path / "rep.jsonl")])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "5"
        assert len((tmp_path / "rep.jsonl").read_text().splitlines()) == 5

    def test_render_flag_emits_dot_per_scenario(self, tmp_path, config_file,
                                                suite_file):
        out_dir = tmp_path / "dots"
        code = main(["evaluate", "--config", config_file, "--suite", suite_file,
                     "--out", str(tmp_path / "m.csv"), "--render", str(out_dir)])
        assert code == 0
        assert sorted(os.listdir(out_dir)) == [
            f"scenario_{i:03d}.dot" for i in range(5)]

    def test_rendered_colors_are_final_degrees(self, tmp_path, config_file,
                                               suite_file):
        out_dir = tmp_path / "dots"
        assert main(["evaluate", "--config", config_file, "--suite", suite_file,
                     "--out", str(tmp_path / "m.csv"), "--render", str(out_dir)]) == 0
        suite, inputs = harness.load_suite(suite_file)
        bank = harness.ResidualBank.from_suite(suite, plant.PlantParams(), inputs)
        kernel = fuzzy.DetectorKernel(fuzzy.load_config(config_file))
        for i, (_, rows) in enumerate(oracle.bank_traces(bank)):
            final = kernel.degrees(rows)[-1]
            dot = (out_dir / f"scenario_{i:03d}.dot").read_text()
            colors = dict(re.findall(r'"(\w+)" \[fillcolor="(#[0-9A-F]{6})"', dot))
            assert colors == {v: render.color_index(d) for v, d in zip(plant.VARIABLES, final)}


class TestCompare:
    def test_rows_share_suite_column(self, tmp_path, config_file, suite_file):
        detuned = tmp_path / "detuned.json"
        fuzzy.save_config(oracle.detuned_config(), str(detuned))
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", f"tuned={config_file}",
                     "--config", f"untuned={detuned}",
                     "--suite", suite_file, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert [ln.split(",")[0] for ln in lines[1:]] == ["tuned", "untuned"]
        assert lines[1].split(",")[1] == lines[2].split(",")[1] == "5"

    def test_name_path_syntax_enforced(self, tmp_path, suite_file, capsys):
        code = main(["compare", "--config", "nameonly", "--suite", suite_file,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "NAME=PATH" in capsys.readouterr().err

    def test_single_config_exits_2(self, tmp_path, config_file, suite_file, capsys):
        # one config is scored with `evaluate`; compare needs two to compare
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", f"tuned={config_file}",
                     "--suite", suite_file, "--out", str(out)])
        assert code == 2
        assert "at least two configurations" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_name_exits_2_naming_it(self, tmp_path, config_file,
                                              suite_file, capsys):
        # two rows labelled x, and the second config's DOTs in the first's dir
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", f"x={config_file}",
                     "--config", f"x={config_file}", "--suite", suite_file,
                     "--out", str(out), "--render", str(tmp_path / "dots")])
        assert code == 2
        assert "'x' is given twice" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "dots").exists()

    def test_empty_name_exits_2(self, tmp_path, config_file, suite_file, capsys):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", f"={config_file}",
                     "--config", f"tuned={config_file}", "--suite", suite_file,
                     "--out", str(out)])
        assert code == 2
        assert "NAME is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["absolute", "..", ".", "a/b"],
                             ids=["absolute", "dotdot", "dot", "slash"])
    def test_name_that_leaves_its_render_dir_exits_2(self, tmp_path, config_file,
                                                     suite_file, name, capsys):
        # a NAME is its directory under --render: with or without --render,
        # one that would resolve elsewhere exits 2 before anything is written
        if name == "absolute":
            name = str(tmp_path / "outside")
        argv = ["compare", "--config", f"{name}={config_file}", "--config",
                f"b={config_file}", "--suite", suite_file, "--out", str(tmp_path / "cmp.csv")]
        for render_args in ([], ["--render", str(tmp_path / "R" / "sub")]):
            assert main(argv + render_args) == 2
            assert "is not a directory name" in capsys.readouterr().err
            assert sorted(os.listdir(tmp_path)) == ["cfg.json", "suite.json"]

    def test_render_flag_writes_per_config_dirs(self, tmp_path, config_file,
                                                suite_file):
        detuned = tmp_path / "detuned.json"
        fuzzy.save_config(oracle.detuned_config(), str(detuned))
        out_dir = tmp_path / "dots"
        code = main(["compare", "--config", f"tuned={config_file}",
                     "--config", f"untuned={detuned}", "--suite", suite_file,
                     "--out", str(tmp_path / "cmp.csv"),
                     "--render", str(out_dir)])
        assert code == 0
        assert len(os.listdir(out_dir / "tuned")) == 5
        assert len(os.listdir(out_dir / "untuned")) == 5


@pytest.mark.parametrize("case", ["evaluate_name", "evaluate_stem", "compare_name"])
def test_name_with_a_comma_is_one_csv_field(tmp_path, config_file, suite_file, case):
    stem = tmp_path / "a,b.json"
    shutil.copy(config_file, stem)
    argv = {
        "evaluate_name": ["evaluate", "--config", config_file, "--name", "a,b"],
        "evaluate_stem": ["evaluate", "--config", str(stem)],
        "compare_name": ["compare", "--config", f"a,b={config_file}",
                         "--config", f"c={config_file}"],
    }[case]
    out = tmp_path / "m.csv"
    assert main(argv + ["--suite", suite_file, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, first, *_ = csv.reader(fh)
    assert first[0] == "a,b"
    assert len(first) == len(header)


class TestSimulateModes:
    def test_nonlinear_mode_changes_trace(self, tmp_path, scenario_file):
        outs = {}
        for mode in ("linear", "nonlinear"):
            trace = tmp_path / f"{mode}.csv"
            code = main(["simulate", "--scenario", scenario_file, "--mode", mode,
                         "--out-trace", str(trace),
                         "--out-residuals", str(tmp_path / f"{mode}_r.csv")])
            assert code == 0
            outs[mode] = trace.read_bytes()
        assert outs["linear"] != outs["nonlinear"]

    def test_valve_sets_the_nonlinear_coupling_only(self, tmp_path, scenario_file):
        plant_cfg = tmp_path / "plant.json"
        plant_cfg.write_text(json.dumps({"schema": 1, "valve": 0.5}))
        outs = {}
        for mode in ("linear", "nonlinear"):
            for plant_args in ([], ["--plant", str(plant_cfg)]):
                trace = tmp_path / f"{mode}{len(plant_args)}.csv"
                code = main(["simulate", "--scenario", scenario_file, "--mode", mode,
                             *plant_args, "--out-trace", str(trace), "--out-residuals",
                             str(tmp_path / f"{mode}{len(plant_args)}_r.csv")])
                assert code == 0
                outs[mode, bool(plant_args)] = trace.read_bytes()
        assert outs["linear", False] == outs["linear", True]
        assert outs["nonlinear", False] != outs["nonlinear", True]


class TestRender:
    def test_dot_to_stdout(self, capsys):
        code = main(["render", "--degrees", "0,0,0,0,0,0,0"])
        assert code == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_ansi_respects_no_color(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code = main(["render", "--degrees", "0,0.5,1,0,0,0,0", "--ansi"])
        assert code == 0
        assert "\x1b" not in capsys.readouterr().out

    def test_wrong_degree_count_exits_2(self, capsys):
        code = main(["render", "--degrees", "0,1"])
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_degree_exits_2_naming_position(self, bad, capsys):
        code = main(["render", "--degrees", f"0,0,{bad},0,0,0,0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "value 3 (De1)" in captured.err


class TestDeterminism:
    def run_twice(self, argv_builder, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            sub = tmp_path / tag
            sub.mkdir()
            argv, files = argv_builder(sub)
            assert main(argv) == 0
            outputs.append([Path(f).read_bytes() for f in files])
        return outputs

    def test_simulate_byte_identical(self, tmp_path, scenario_file):
        def build(sub):
            t, r = sub / "t.csv", sub / "r.csv"
            return (["simulate", "--scenario", scenario_file,
                     "--out-trace", str(t), "--out-residuals", str(r)],
                    [t, r])

        a, b = self.run_twice(build, tmp_path)
        assert a == b

    def test_tune_byte_identical(self, tmp_path, suite_file):
        def build(sub):
            c, h = sub / "c.json", sub / "h.csv"
            return (["tune", "--method", "pso", "--suite", suite_file,
                     "--swarm-size", "5", "--iterations", "3", "--seed", "9",
                     "--out-config", str(c), "--out-history", str(h)],
                    [c, h])

        a, b = self.run_twice(build, tmp_path)
        assert a == b

    def test_evaluate_byte_identical(self, tmp_path, config_file, suite_file):
        def build(sub):
            m, r = sub / "m.csv", sub / "r.jsonl"
            return (["evaluate", "--config", config_file, "--suite", suite_file,
                     "--out", str(m), "--reports", str(r)],
                    [m, r])

        a, b = self.run_twice(build, tmp_path)
        assert a == b


class TestOneProcess:
    """The parser is built once per process and the rule base once per
    order: a call made after others gives the bytes it gives when made
    first in a process."""

    def test_calls_repeat_their_first_outputs(self, tmp_path, scenario_file, config_file,
                                              suite_file, capsys):
        out = tmp_path / "out"
        evaluate = ["evaluate", "--config", config_file, "--suite", suite_file,
                    "--out", str(out / "m.csv"), "--reports", str(out / "r.jsonl"),
                    "--render", str(out / "dots")]
        simulate = ["simulate", "--scenario", scenario_file, "--tau", "0.3",
                    "--out-trace", str(out / "t.csv"), "--out-residuals", str(out / "r.csv")]
        calls = {"evaluate": evaluate, "simulate": simulate,
                 "parse error": simulate[:4] + ["-0.1"] + simulate[5:],
                 "config error": evaluate + ["--suite-seed", "9"],
                 "help": ["evaluate", "--help"]}

        def run(name):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            try:
                code = main(calls[name])
            except SystemExit as exc:
                code = exc.code
            files = {p.relative_to(out).as_posix(): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()}
            return code, *capsys.readouterr(), files

        first = {}
        for name in calls:
            cli.build_parser.cache_clear()
            first[name] = run(name)
        assert [first[name][0] for name in calls] == [0, 0, 2, 2, 0]
        assert "argument --tau" in first["parse error"][2]
        assert "--suite-seed" in first["config error"][2]
        assert "usage: tankfdi evaluate" in first["help"][1]
        assert len(first["evaluate"][3]) == 3 + 5  # m, r, run.json and 5 DOT files

        cli.build_parser.cache_clear()
        sequence = ["evaluate", "simulate", "parse error", "config error", "help",
                    "evaluate", "simulate"]
        for name in sequence:
            assert run(name) == first[name], name
        assert cli.build_parser.cache_info().misses == 1


def suite_command(command, tmp_path, config_file):
    """Arguments of a suite-reading command, all but the suite options."""
    out = tmp_path / "out.csv"
    return {"tune": ["tune", "--method", "pso", "--swarm-size", "2", "--iterations", "1",
                     "--out-config", str(out), "--out-history", str(tmp_path / "hist.csv")],
            "evaluate": ["evaluate", "--config", config_file, "--out", str(out)],
            "compare": ["compare", "--config", f"a={config_file}",
                        "--config", f"b={config_file}", "--out", str(out)]}[command]


def _config_json(edit) -> dict:
    """The swarm config's JSON object after ``edit(obj)`` changed it in place."""
    obj = plant.to_json(fuzzy.example_tuned_config("swarm"))
    edit(obj)
    return obj


#: One malformed input file per case: (which file, its JSON content or None
#: for a directory in its place, text the error message must hold).
MALFORMED_INPUTS = {
    "plant_not_object": ("plant", [1, 2], "plant config must be a JSON object"),
    "plant_schema_2": ("plant", {"schema": 2, "R2": 3}, "plant config schema 2"),
    "events_not_list": ("scenario", {"schema": 1, "events": 5}, "'events' must be a list"),
    "event_field_typo": ("scenario", {"schema": 1, "events": [
        {"target": "De1", "start": 1.0, "magnitude": 0.5, "profle": "ramp"}]}, "['profle']"),
    "config_field_typo": ("config", {**plant.to_json(
        fuzzy.example_tuned_config("swarm")), "debouce": 9}, "['debouce']"),
    "config_rulebase_field": ("config", {**plant.to_json(
        fuzzy.example_tuned_config("swarm")), "rulebase": 2}, "['rulebase']"),
    "suite_field_typo": ("suite", {"schema": 1, "input": {"Msf1": 1.2, "Msf2": 0.6},
                                   "scenarios": [{"schema": 1, "duration": 2.0}]}, "['input']"),
    "scenario_is_directory": ("scenario", None, "scenario.json"),
    "suite_scenario_id": ("suite", {"schema": 1, "scenarios": [
        {"schema": 1, "id": 100 + i, "duration": 2.0} for i in range(3)]}, "['id']"),
    "suite_scenario_inputs": ("suite", {"schema": 1, "scenarios": [
        {"schema": 1, "duration": 2.0, "inputs": {"Msf1": 1.2, "Msf2": 0.6}}]}, "['inputs']"),
    # the type rule: int fields take integers, float fields numbers, str
    # fields strings, and a bool is never a number
    "scenario_seed_fraction": ("scenario", {"schema": 1, "seed": 1.9, "duration": 2.0},
                               "scenario field 'seed' must be an integer"),
    "scenario_seed_bool": ("scenario", {"schema": 1, "seed": True, "duration": 2.0},
                           "scenario field 'seed' must be an integer"),
    # rejected with or without noise, not only where the noise is drawn
    "scenario_seed_negative": ("scenario", {"schema": 1, "seed": -1, "duration": 2.0},
                               "FaultScenario.seed must be non-negative, got -1"),
    "scenario_duration_string": ("scenario", {"schema": 1, "duration": "20"},
                                 "scenario field 'duration' must be a number"),
    "scenario_duration_overflow": ("scenario", {"schema": 1, "duration": 10**400},
                                   "scenario field 'duration' is too large for a number"),
    "event_magnitude_bool": ("scenario", {"schema": 1, "duration": 2.0, "events": [
        {"target": "De1", "start": 1.0, "magnitude": True}]},
        "scenario events[0] field 'magnitude' must be a number"),
    "config_debounce_fraction": ("config", {**plant.to_json(
        fuzzy.example_tuned_config("swarm")), "debounce": 3.7},
        "detector config field 'debounce' must be an integer"),
    "config_alarm_threshold_string": ("config", {**plant.to_json(
        fuzzy.example_tuned_config("swarm")), "alarm_threshold": "0.5"},
        "detector config field 'alarm_threshold' must be a number"),
    "plant_R1_bool": ("plant", {"schema": 1, "R1": True},
                      "plant config field 'R1' must be a number"),
    "scenario_schema_bool": ("scenario", {"schema": True, "duration": 2.0},
                             "unsupported scenario schema True"),
    # an echoed value is shortened past 80 characters: the message stays short
    "config_debounce_huge": ("config", {**plant.to_json(
        fuzzy.example_tuned_config("swarm")), "debounce": 10**400},
        "debounce must be between 1 and 1000000 samples, got 1000"),
    # a window longer than any trace never flags, and would fill memory
    "config_debounce_memory": ("config", {**plant.to_json(
        fuzzy.example_tuned_config("swarm")), "debounce": 10**12},
        "debounce must be between 1 and 1000000 samples, got 1000000000000"),
    # no boundary is infinite and no support overflows: the degrees stay numbers
    "config_a4_infinite": ("config", _config_json(
        lambda obj: obj["input_partitions"][0].update(a4=math.inf)),
        "input partition requires 0 < a1 < a2 <= a3 < a4 < inf, got (0.146, 0.973, 1.57, inf)"),
    "config_d_infinite": ("config", _config_json(
        lambda obj: obj["output_partitions"][0].update(d=math.inf)),
        "output partition requires a < b <= 0 <= c < d with d - a finite"),
    "config_support_overflow": ("config", _config_json(
        lambda obj: obj["output_partitions"][0].update(a=-1e308, d=1e308)),
        "output partition requires a < b <= 0 <= c < d with d - a finite"),
    "scenario_seed_huge": ("scenario", {"schema": 1, "seed": -10**400, "duration": 2.0},
                           "FaultScenario.seed must be non-negative, got -1000"),
    "scenario_duration_long_string": ("scenario", {"schema": 1, "duration": "x" * 100000},
                                      "scenario field 'duration' must be a number, got 'xxx"),
    # a step count that overflows to inf, on the per-scenario and suite paths
    "scenario_dt_tiny": ("scenario", {"schema": 1, "duration": 20.0, "dt": 5e-324},
                         "FaultScenario.duration / dt must be finite"),
    "scenario_duration_huge": ("scenario", {"schema": 1, "duration": 1e308, "dt": 0.1},
                               "FaultScenario.duration / dt must be finite"),
    "suite_scenario_dt_tiny": ("suite", {"schema": 1, "scenarios": [
        {"schema": 1, "duration": 20.0, "dt": 5e-324}]},
        "FaultScenario.duration / dt must be finite"),
}


class TestMalformedInput:
    """Every JSON input follows one rule: an object, schema 1, no missing or
    unknown field, lists where lists belong; breaking it exits 2."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_2_naming_the_field(self, tmp_path, capsys, case):
        bad_kind, content, message = MALFORMED_INPUTS[case]
        files = {"plant": {"schema": 1, "R2": 2.5},
                 "scenario": {"schema": 1, "duration": 2.0},
                 "config": plant.to_json(fuzzy.example_tuned_config("swarm")),
                 "suite": plant.to_json(harness.SuiteFile(
                     tuple(harness.generate_suite(2, seed=1)))),
                 bad_kind: content}
        paths = {}
        for kind, obj in files.items():
            path = tmp_path / f"{kind}.json"
            if obj is None:
                path.mkdir()
            else:
                path.write_text(json.dumps(obj))
            paths[kind] = str(path)
        out = tmp_path / "out.csv"
        if bad_kind == "suite":
            argv = ["evaluate", "--config", paths["config"], "--suite", paths["suite"]]
        else:
            argv = ["detect", "--config", paths["config"], "--scenario", paths["scenario"]]
        code = main(argv + ["--plant", paths["plant"], "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err) < 300
        assert not out.exists()

    def test_empty_suite_exits_2(self, tmp_path, config_file, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"scenarios": []}))
        code = main(["evaluate", "--config", config_file, "--suite", str(suite),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "suite has no scenarios" in capsys.readouterr().err

    def test_generate_zero_exits_2(self, tmp_path, config_file, capsys):
        code = main(["evaluate", "--config", config_file, "--generate", "0",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "suite size must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1", "2"])
    def test_jobs_below_one_exits_2(self, tmp_path, config_file, suite_file, jobs, capsys):
        out = tmp_path / "m.csv"
        code = main(["evaluate", "--config", config_file, "--suite", suite_file,
                     "--jobs", jobs, "--out", str(out)])
        assert code == 2
        assert (f"--jobs must be 1: a suite is built in one process, got {jobs}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tune", "evaluate", "compare"])
    def test_suite_with_generate_exits_2(self, tmp_path, config_file, suite_file,
                                         command, capsys):
        argv = suite_command(command, tmp_path, config_file)
        code = main(argv + ["--suite", suite_file, "--generate", "7", "--suite-seed", "9"])
        assert code == 2
        assert "--suite and --generate exclude each other" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "suite.json"]

    @pytest.mark.parametrize("command", ["tune", "evaluate", "compare"])
    def test_suite_seed_with_suite_exits_2(self, tmp_path, config_file, suite_file,
                                           command, capsys):
        argv = suite_command(command, tmp_path, config_file)
        code = main(argv + ["--suite", suite_file, "--suite-seed", "9"])
        assert code == 2
        assert ("--suite-seed seeds --generate: it does not apply to --suite"
                in capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "suite.json"]

    @pytest.mark.parametrize("command,flag", [("tune", "--seed"), ("tune", "--suite-seed"),
                                              ("evaluate", "--suite-seed"),
                                              ("compare", "--suite-seed")])
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, config_file, command,
                                                   flag, monkeypatch, capsys):
        # rejected while the arguments are parsed, before a suite is built
        monkeypatch.setattr(harness, "generate_suite", None)
        argv = suite_command(command, tmp_path, config_file)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--generate", "3", flag, "-1"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be non-negative, got -1" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_max_fault_order_flag_is_unrecognized(self, tmp_path, config_file,
                                                  monkeypatch, capsys):
        # the rule base has one fault order, so tune takes no flag for it
        monkeypatch.setattr(harness, "generate_suite", None)
        argv = suite_command("tune", tmp_path, config_file)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--generate", "3", "--max-fault-order", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-fault-order 2" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("order", [1, 3, 7])
    @pytest.mark.parametrize("command", ["evaluate", "detect"])
    def test_config_fault_order_other_than_2_exits_2(self, tmp_path, scenario_file,
                                                     command, order, capsys):
        # the config holds no fault order, so any value is an unknown field
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**plant.to_json(
            fuzzy.example_tuned_config("swarm")), "max_fault_order": order}))
        out = tmp_path / "out.csv"
        source = ["--generate", "3"] if command == "evaluate" else ["--scenario", scenario_file]
        assert main([command, "--config", str(path), *source, "--out", str(out)]) == 2
        assert ("unknown field(s) in detector config: ['max_fault_order']"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["max_fault_order", "beta"])
    @pytest.mark.parametrize("command", ["evaluate", "detect"])
    def test_config_key_of_older_files_exits_2(self, tmp_path, scenario_file,
                                               command, key, capsys):
        # configs once recorded the fault order, 2, and a domain bound beta
        # per residual partition; deleting the key converts such a file
        if key == "beta":
            old = _config_json(lambda obj: obj["input_partitions"][0].update(beta=25.0))
            owner = "detector config input_partitions[0]"
        else:
            old = _config_json(lambda obj: obj.update(max_fault_order=2))
            owner = "detector config"
        (tmp_path / "cfg.json").write_text(json.dumps(old))
        source = (["--generate", "3", "--render", str(tmp_path / "R")] if command == "evaluate"
                  else ["--scenario", scenario_file, "--dot", str(tmp_path / "out.dot")])
        assert main([command, "--config", str(tmp_path / "cfg.json"), *source,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert f"unknown field(s) in {owner}: ['{key}']" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "scenario.json"]

    @pytest.mark.parametrize("command,flag,kind", [("tune", "--seed", "int"),
                                                   ("evaluate", "--suite-seed", "int"),
                                                   ("simulate", "--tau", "float")])
    def test_non_number_names_the_kind(self, tmp_path, config_file, command, flag, kind,
                                       capsys):
        # argparse's own wording for type=int or float, not the type function's name
        argv = (["simulate", "--scenario", "s.json", "--out-trace", "t.csv",
                 "--out-residuals", "r.csv"] if command == "simulate"
                else suite_command(command, tmp_path, config_file) + ["--generate", "3"])
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "abc"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid {kind} value: 'abc'" in capsys.readouterr().err


class TestOutputErrors:
    """An output path that cannot be written is a usage error, not a crash."""

    @pytest.mark.parametrize("case", ["evaluate_out_dir", "evaluate_render_file",
                                      "render_dot_dir"])
    def test_exits_2(self, tmp_path, config_file, suite_file, case, capsys):
        taken = tmp_path / "taken"
        if case == "evaluate_render_file":
            taken.write_text("")
            argv = ["evaluate", "--config", config_file, "--suite", suite_file,
                    "--out", str(tmp_path / "m.csv"), "--render", str(taken)]
        elif case == "evaluate_out_dir":
            taken.mkdir()
            argv = ["evaluate", "--config", config_file, "--suite", suite_file,
                    "--out", str(taken)]
        else:
            taken.mkdir()
            argv = ["render", "--degrees", "0,0,0,0,0,0,0", "--dot", str(taken)]
        assert main(argv) == 2
        assert str(taken) in capsys.readouterr().err

    def test_evaluate_render_file_writes_nothing(self, tmp_path, config_file, capsys):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "e.csv"
        assert main(["evaluate", "--config", config_file, "--generate", "3",
                     "--out", str(out), "--render", str(tmp_path / "taken")]) == 2
        assert str(tmp_path / "taken") in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "taken"]

    def test_compare_run_json_dir_writes_nothing(self, tmp_path, config_file, capsys):
        out = tmp_path / "m.csv"
        Path(str(out) + ".run.json").mkdir()
        assert main(["compare", "--config", f"a={config_file}", "--config",
                     f"b={config_file}", "--generate", "3", "--out", str(out),
                     "--render", str(tmp_path / "dots")]) == 2
        assert "m.csv.run.json" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "m.csv.run.json"]

    @pytest.mark.parametrize("option", ["--out", "--reports"])
    def test_missing_directory_writes_nothing(self, tmp_path, config_file, option,
                                              capsys):
        paths = {"--out": str(tmp_path / "m.csv"), "--reports": str(tmp_path / "r.jsonl")}
        paths[option] = str(tmp_path / "nowhere" / "x")
        argv = ["evaluate", "--config", config_file, "--generate", "3"]
        assert main(argv + [arg for item in paths.items() for arg in item]) == 2
        assert paths[option] in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_render_dir_under_a_file_writes_nothing(self, tmp_path, config_file,
                                                    capsys):
        (tmp_path / "taken").write_text("")
        dots = str(tmp_path / "taken" / "dots")
        assert main(["evaluate", "--config", config_file, "--generate", "3",
                     "--out", str(tmp_path / "m.csv"), "--render", dots]) == 2
        assert dots in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "taken"]

    @pytest.mark.parametrize("case", ["simulate_both_outputs", "reports_on_run_json",
                                      "out_on_config", "compare_render_dirs"])
    def test_paths_on_one_file_write_nothing(self, tmp_path, scenario_file, config_file,
                                             case, capsys):
        # in each case one output would overwrite another output or an input
        before = Path(config_file).read_bytes()
        out, render_dir = str(tmp_path / "m.csv"), tmp_path / "R"
        if case == "compare_render_dirs":
            # a NAME holds no path separator, so two render directories
            # meet only through a link: R/b names R/a
            render_dir.mkdir()
            (render_dir / "b").symlink_to("a")
        argv, paths = {
            "simulate_both_outputs": (
                ["simulate", "--scenario", scenario_file, "--out-trace", out,
                 "--out-residuals", out], (out, out)),
            "reports_on_run_json": (
                ["evaluate", "--config", config_file, "--generate", "3", "--out", out,
                 "--reports", out + ".run.json"], (out + ".run.json",) * 2),
            "out_on_config": (
                ["evaluate", "--config", config_file, "--generate", "3",
                 "--out", config_file], (config_file, config_file)),
            "compare_render_dirs": (
                ["compare", "--config", f"a={config_file}", "--config", f"b={config_file}",
                 "--generate", "3", "--out", out, "--render", str(render_dir)],
                (str(render_dir / "a"), str(render_dir / "b"))),
        }[case]
        assert main(argv) == 2
        assert f"{paths[0]!r} and {paths[1]!r}" in capsys.readouterr().err
        if case == "compare_render_dirs":
            assert os.listdir(render_dir) == ["b"]
            render_dir.joinpath("b").unlink()
            render_dir.rmdir()
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "scenario.json"]
        assert Path(config_file).read_bytes() == before

    @pytest.mark.parametrize("case", ["evaluate_out", "evaluate_reports", "compare_out"])
    def test_output_on_a_dot_file_writes_nothing(self, tmp_path, config_file, case,
                                                 capsys):
        # --render R writes R/scenario_000.dot, R/scenario_001.dot, ...; compare
        # writes them in R/<name>
        render = tmp_path / "R"
        (render / "a").mkdir(parents=True)
        out = str(tmp_path / "m.csv")
        evaluate = ["evaluate", "--config", config_file, "--generate", "3"]
        taken, argv = {
            "evaluate_out": (str(render / "scenario_000.dot"), evaluate + ["--out"]),
            "evaluate_reports": (str(render / "scenario_001.dot"),
                                 evaluate + ["--out", out, "--reports"]),
            "compare_out": (str(render / "a" / "scenario_002.dot"),
                            ["compare", "--config", f"a={config_file}", "--config",
                             f"b={config_file}", "--generate", "3", "--out"]),
        }[case]
        assert main(argv + [taken, "--render", str(render)]) == 2
        assert f"{taken!r} and {taken!r}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["R", "cfg.json"]
        assert [files for _, _, files in os.walk(render)] == [[], []]

    @pytest.mark.parametrize("taken", [("scenario_001.dot",), ("a", "scenario_001.dot")],
                             ids=["evaluate", "compare"])
    def test_dot_file_on_a_directory_writes_nothing(self, tmp_path, config_file, taken,
                                                    capsys):
        # compare writes its DOT files in R/<name>
        render = tmp_path / "R"
        dot = render.joinpath(*taken)
        dot.mkdir(parents=True)
        argv = (["evaluate", "--config", config_file, "--reports", str(tmp_path / "r.jsonl")]
                if len(taken) == 1 else
                ["compare", "--config", f"a={config_file}", "--config", f"b={config_file}"])
        assert main(argv + ["--generate", "3", "--out", str(tmp_path / "m.csv"),
                            "--render", str(render)]) == 2
        assert f"Is a directory: {str(dot)!r}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["R", "cfg.json"]
        assert [files for _, _, files in os.walk(render)] == [[]] * (len(taken) + 1)

    def test_render_ansi_to_a_directory_prints_nothing(self, tmp_path, capsys):
        assert main(["render", "--degrees", "0,0,0,0,0,0,0", "--ansi",
                     "--dot", str(tmp_path)]) == 2
        assert capsys.readouterr().out == ""

    def test_dot_file_linked_to_an_input_writes_nothing(self, tmp_path, config_file,
                                                       capsys):
        # rendering would write through the link onto the config
        dot = tmp_path / "R" / "scenario_001.dot"
        dot.parent.mkdir()
        dot.symlink_to(config_file)
        before = Path(config_file).read_bytes()
        assert main(["evaluate", "--config", config_file, "--generate", "3",
                     "--out", str(tmp_path / "m.csv"), "--render", str(dot.parent)]) == 2
        assert f"{config_file!r} and {str(dot)!r}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["R", "cfg.json"]
        assert Path(config_file).read_bytes() == before


@pytest.mark.parametrize("command", ["tune", "evaluate", "compare"])
def test_run_json_records_the_suite_seed_used(tmp_path, config_file, suite_file, command):
    # 42 for a generated suite without --suite-seed, null for a suite file
    seeds = []
    for source in (["--generate", "3"], ["--suite", suite_file]):
        argv = suite_command(command, tmp_path, config_file)
        assert main(argv + source) == 0
        run = json.loads((tmp_path / "out.csv.run.json").read_text())
        seeds.append(run["options"]["suite_seed"])
    assert seeds == [42, None]


#: Each subcommand's run.json option keys; tune records its own method's
#: settings only.
RUN_JSON_KEYS = {
    "simulate": {"scenario", "plant", "mode", "tau", "out_trace", "out_residuals"},
    "tune pso": {"method", "swarm_size", "iterations", "c1", "c2", "seed", "suite",
                 "generate", "suite_seed", "plant", "workers", "out_config", "out_history"},
    "tune ga": {"method", "population", "max_generations", "stall_generations",
                "elite_count", "crossover_fraction", "mutation_rate", "seed", "suite",
                "generate", "suite_seed", "plant", "workers", "out_config", "out_history"},
    "detect": {"config", "scenario", "plant", "out", "dot"},
    "evaluate": {"config", "suite", "generate", "suite_seed", "plant", "name", "jobs",
                 "out", "reports", "render"},
    "compare": {"configs", "suite", "generate", "suite_seed", "plant", "out", "render"},
}


@pytest.mark.parametrize("case", RUN_JSON_KEYS)
def test_run_json_option_keys(tmp_path, scenario_file, config_file, suite_file, case):
    out = str(tmp_path / "out.csv")
    argv = {
        "simulate": ["simulate", "--scenario", scenario_file, "--out-trace", out,
                     "--out-residuals", str(tmp_path / "r.csv")],
        "tune pso": ["tune", "--method", "pso", "--suite", suite_file, "--swarm-size", "2",
                     "--iterations", "1", "--out-config", out,
                     "--out-history", str(tmp_path / "h.csv")],
        "tune ga": ["tune", "--method", "ga", "--suite", suite_file, "--population", "3",
                    "--max-generations", "1", "--stall-generations", "1",
                    "--out-config", out, "--out-history", str(tmp_path / "h.csv")],
        "detect": ["detect", "--config", config_file, "--scenario", scenario_file,
                   "--out", out],
        "evaluate": ["evaluate", "--config", config_file, "--suite", suite_file,
                     "--out", out],
        "compare": ["compare", "--config", f"a={config_file}", "--config",
                    f"b={config_file}", "--suite", suite_file, "--out", out],
    }[case]
    assert main(argv) == 0
    run = json.loads(Path(out + ".run.json").read_text())
    assert run["command"] == argv[0]
    assert set(run["options"]) == RUN_JSON_KEYS[case]


def test_run_json_records_resolved_values(tmp_path, config_file, suite_file):
    # tune's unset settings take their dataclass defaults, evaluate's name
    # the config file stem
    out = str(tmp_path / "out.csv")
    assert main(suite_command("tune", tmp_path, config_file) + ["--suite", suite_file]) == 0
    options = json.loads(Path(out + ".run.json").read_text())["options"]
    assert (options["swarm_size"], options["c1"], options["c2"]) == (2, 2.8, 1.3)
    assert main(suite_command("evaluate", tmp_path, config_file) + ["--suite", suite_file]) == 0
    assert json.loads(Path(out + ".run.json").read_text())["options"]["name"] == "cfg"


def test_generated_suite_uses_the_loaded_plant(tmp_path):
    # the compensation pairs of a generated suite cancel on r2 only for the
    # plant's own R2; scenario 24 of 25 is such a pair
    plant_file = tmp_path / "plant.json"
    plant_file.write_text(json.dumps({"schema": 1, "R2": 3.0}))
    suite = tmp_path / "suite.json"
    harness.save_suite(harness.generate_suite(25, 24, params=plant.PlantParams(R2=3.0)),
                       str(suite))
    histories = []
    for source in (["--generate", "25", "--suite-seed", "24"], ["--suite", str(suite)]):
        out = tmp_path / f"{len(histories)}.csv"
        assert main(["tune", "--method", "pso", *source, "--plant", str(plant_file),
                     "--swarm-size", "4", "--iterations", "1", "--seed", "3",
                     "--out-config", str(tmp_path / "c.json"),
                     "--out-history", str(out)]) == 0
        histories.append(out.read_text())
    assert histories[0] == histories[1]
