"""Command-line interface: artifact plumbing, exit codes, determinism."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from tankfdi import fuzzy, harness, plant, render
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

    def test_stall_above_max_generations_names_both(self, tmp_path, capsys):
        out = tmp_path / "cfg.json"
        code = main(["tune", "--method", "ga", "--generate", "3", "--max-generations", "2",
                     "--out-config", str(out), "--out-history", str(tmp_path / "hist.csv")])
        assert code == 2
        assert ("stall_generations (50) must not exceed max_generations (2)"
                in capsys.readouterr().err)
        assert not out.exists()

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

    def test_generate_flag_builds_suite(self, tmp_path):
        code = main(["tune", "--method", "pso", "--generate", "4",
                     "--suite-seed", "5", "--swarm-size", "5",
                     "--iterations", "2", "--seed", "2",
                     "--out-config", str(tmp_path / "cfg.json"),
                     "--out-history", str(tmp_path / "hist.csv")])
        assert code == 0


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
        for i, rows in enumerate(bank.residuals):
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


#: One malformed input file per case: (which file, its JSON content or None
#: for a directory in its place, text the error message must hold).
MALFORMED_INPUTS = {
    "plant_not_object": ("plant", [1, 2], "plant config must be a JSON object"),
    "plant_schema_2": ("plant", {"schema": 2, "R2": 3}, "plant config schema 2"),
    "events_not_list": ("scenario", {"schema": 1, "events": 5}, "'events' must be a list"),
    "event_field_typo": ("scenario", {"schema": 1, "events": [
        {"target": "De1", "start": 1.0, "magnitude": 0.5, "profle": "ramp"}]}, "['profle']"),
    "config_field_typo": ("config", {**fuzzy.config_to_dict(
        fuzzy.example_tuned_config("swarm")), "debouce": 9}, "['debouce']"),
    "config_rulebase_field": ("config", {**fuzzy.config_to_dict(
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
    "config_debounce_fraction": ("config", {**fuzzy.config_to_dict(
        fuzzy.example_tuned_config("swarm")), "debounce": 3.7},
        "detector config field 'debounce' must be an integer"),
    "config_max_fault_order_fraction": ("config", {**fuzzy.config_to_dict(
        fuzzy.example_tuned_config("swarm")), "max_fault_order": 2.9},
        "detector config field 'max_fault_order' must be an integer"),
    "config_alarm_threshold_string": ("config", {**fuzzy.config_to_dict(
        fuzzy.example_tuned_config("swarm")), "alarm_threshold": "0.5"},
        "detector config field 'alarm_threshold' must be a number"),
    "plant_R1_bool": ("plant", {"schema": 1, "R1": True},
                      "plant config field 'R1' must be a number"),
    "scenario_schema_bool": ("scenario", {"schema": True, "duration": 2.0},
                             "unsupported scenario schema True"),
}


class TestMalformedInput:
    """Every JSON input follows one rule: an object, schema 1, no missing or
    unknown field, lists where lists belong; breaking it exits 2."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_2_naming_the_field(self, tmp_path, capsys, case):
        bad_kind, content, message = MALFORMED_INPUTS[case]
        files = {"plant": {"schema": 1, "R2": 2.5},
                 "scenario": {"schema": 1, "duration": 2.0},
                 "config": fuzzy.config_to_dict(fuzzy.example_tuned_config("swarm")),
                 "suite": harness.suite_to_dict(harness.generate_suite(2, seed=1)),
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
        assert message in capsys.readouterr().err
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
        out = tmp_path / "out.csv"
        argv = {"tune": ["tune", "--method", "pso", "--swarm-size", "2", "--iterations", "1",
                         "--out-config", str(out),
                         "--out-history", str(tmp_path / "hist.csv")],
                "evaluate": ["evaluate", "--config", config_file, "--out", str(out)],
                "compare": ["compare", "--config", f"a={config_file}",
                            "--config", f"b={config_file}", "--out", str(out)]}[command]
        code = main(argv + ["--suite", suite_file, "--generate", "7", "--suite-seed", "9"])
        assert code == 2
        assert "--suite and --generate exclude each other" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "suite.json"]


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
