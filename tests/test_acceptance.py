"""Acceptance gate: one test per release criterion, sharing one pinned suite.

Each test prints a PASS line with its headline numbers (run pytest with -s
to watch them). The expensive tuning runs are module-scoped fixtures so the
swarm and genetic results are computed once and reused by the comparison,
rendering and determinism criteria.
"""

import time

import numpy as np
import pytest

from tankfdi import fuzzy, harness, plant, render, residuals, tuner
from tankfdi.cli import main as cli_main

import oracle

OPERATING_INPUTS = (1.0, 0.8)
PINNED_SEED = 42
SUITE_SIZE = 50


def report(name, runtime, detail):
    print(f"\n[acceptance] {name}: PASS in {runtime:.2f}s ({detail})")


@pytest.fixture(scope="module")
def params():
    return plant.PlantParams()


@pytest.fixture(scope="module")
def pinned_suite():
    return harness.generate_suite(SUITE_SIZE, seed=PINNED_SEED)


@pytest.fixture(scope="module")
def pinned_bank(pinned_suite, params):
    return harness.ResidualBank.from_suite(pinned_suite, params, OPERATING_INPUTS)


def _tune(optimize, objective, settings, population):
    """``optimize`` scoring each generation across worker processes, as
    ``tankfdi tune`` does; returns (best, history, seconds)."""
    t0 = time.time()
    with tuner.pooled(objective, tuner.worker_count(population)) as scored:
        best, history, _ = optimize(scored, settings)
    return best, history, time.time() - t0


@pytest.fixture(scope="module")
def swarm_tuned(pinned_suite, params):
    objective = tuner.make_fitness(pinned_suite, params, OPERATING_INPUTS)
    settings = tuner.PsoParams(swarm_size=30, iterations=200, seed=PINNED_SEED)
    return _tune(tuner.pso_tune, objective, settings, settings.swarm_size)


@pytest.fixture(scope="module")
def genetic_tuned(pinned_suite, params):
    objective = tuner.make_fitness(pinned_suite, params, OPERATING_INPUTS)
    settings = tuner.GaParams(population=30, max_generations=100, seed=PINNED_SEED)
    return _tune(tuner.ga_tune, objective, settings, settings.population)


def test_criterion_1_residual_nullity(params):
    t0 = time.time()
    scenario = plant.FaultScenario(seed=0, duration=100.0, dt=0.1)
    trace = plant.run(scenario, params, OPERATING_INPUTS)
    _, resid = residuals.residual_trace(trace, params)
    worst = float(np.abs(resid).max())
    runtime = time.time() - t0
    assert worst < 1e-6
    assert runtime < 1.0
    report("criterion 1 residual nullity", runtime, f"max |r| = {worst:.2e}")


def test_criterion_2_constriction_factor():
    t0 = time.time()
    k = tuner.constriction(2.8, 1.3)
    assert k == pytest.approx(0.7298, abs=1e-4)
    with pytest.raises(ValueError):
        tuner.constriction(2.0, 2.0)
    with pytest.raises(ValueError):
        tuner.constriction(1.5, 2.0)
    report("criterion 2 constriction factor", time.time() - t0, f"K = {k:.6f}")


def test_criterion_3_signature_activation(params):
    t0 = time.time()
    clean = plant.FaultScenario(seed=0, duration=20.0, dt=0.1)
    _, clean_resid = oracle.simulate_residuals(clean, params, OPERATING_INPUTS)
    floor = np.maximum(np.abs(clean_resid).max(axis=0), 1e-12)
    sig = residuals.signature_matrix()
    for var in plant.VARIABLES:
        scenario = plant.FaultScenario(
            seed=0, duration=20.0, dt=0.1,
            events=(plant.FaultEvent(var, 5.0, 2.0),))
        _, resid = oracle.simulate_residuals(scenario, params, OPERATING_INPUTS)
        post = np.abs(resid[80:]).max(axis=0)  # settled: t > 8 s
        perturbed = {i + 1 for i in range(5) if post[i] > 3.0 * floor[i]}
        assert perturbed == oracle.signature_row(sig, var), f"{var}: {perturbed}"
    runtime = time.time() - t0
    assert runtime < 10.0
    report("criterion 3 signature activation", runtime,
           "all 7 signature rows exact")


def test_criterion_4_compensation_case(params):
    t0 = time.time()
    ev_de2, ev_df2 = harness.compensation_pair(3.0, params, start=5.0)
    scenario = plant.FaultScenario(seed=0, duration=20.0, dt=0.1,
                                   events=(ev_de2, ev_df2))
    times, resid = oracle.simulate_residuals(scenario, params, OPERATING_INPUTS)
    clean = plant.FaultScenario(seed=0, duration=20.0, dt=0.1)
    _, clean_resid = oracle.simulate_residuals(clean, params, OPERATING_INPUTS)
    dr2 = float(np.abs(resid[:, 1] - clean_resid[:, 1]).max())
    assert dr2 < 1e-9

    cfg = fuzzy.example_tuned_config("swarm")
    _, flags = fuzzy.DetectorKernel(cfg).run(resid)
    flag_times = harness._first_flag_times(times, flags)
    assert "De2" in flag_times and "Df2" in flag_times
    runtime = time.time() - t0
    assert runtime < 5.0
    report("criterion 4 compensation case", runtime,
           f"|dARR2| = {dr2:.1e}, flags at {flag_times['De2']:.1f}s")


def test_criterion_5_optimizer_oracles():
    bounds = np.array([[1.0, 5.0], [1.0, 5.0]])

    def sphere(x):
        return float(np.sum(np.asarray(x) ** 2))

    t0 = time.time()
    best_p, hist_p, _ = tuner.pso_tune(
        sphere, tuner.PsoParams(swarm_size=30, iterations=200, bounds=bounds,
                                seed=PINNED_SEED))
    pso_time = time.time() - t0
    assert np.abs(best_p - 1.0).max() < 1e-2
    assert all(b <= a for a, b in zip(hist_p, hist_p[1:]))
    assert pso_time < 5.0

    t0 = time.time()
    best_g, hist_g, _ = tuner.ga_tune(
        sphere, tuner.GaParams(population=30, max_generations=100,
                               stall_generations=100, elite_count=2,
                               bounds=bounds, seed=PINNED_SEED))
    ga_time = time.time() - t0
    assert np.abs(best_g - 1.0).max() < 1e-2
    assert all(b <= a for a, b in zip(hist_g, hist_g[1:]))
    assert ga_time < 5.0
    report("criterion 5 optimizer oracles", pso_time + ga_time,
           f"pso err {np.abs(best_p - 1).max():.1e}, "
           f"ga err {np.abs(best_g - 1).max():.1e}")


def test_criterion_6_tuning_improvement(swarm_tuned, pinned_bank):
    best, history, tune_time = swarm_tuned
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert tune_time < 900.0

    cfg, _ = fuzzy.params_to_config(best)
    _, tuned = harness.evaluate_bank(cfg, pinned_bank)
    _, untuned = harness.evaluate_bank(oracle.detuned_config(), pinned_bank)

    assert tuned.proper_rate >= 0.90
    assert tuned.proper_rate >= untuned.proper_rate + 0.10
    assert tuned.mean_delay < untuned.mean_delay
    report("criterion 6 tuning improvement", tune_time,
           f"tuned {tuned.proper_rate:.2f} @ {tuned.mean_delay:.2f}s vs "
           f"untuned {untuned.proper_rate:.2f} @ {untuned.mean_delay:.2f}s")


def test_criterion_7_ga_comparison(genetic_tuned, swarm_tuned, pinned_suite,
                                   pinned_bank, params, tmp_path):
    ga_best, ga_history, ga_time = genetic_tuned
    assert all(b <= a for a, b in zip(ga_history, ga_history[1:]))
    assert ga_time < 900.0

    ga_cfg, _ = fuzzy.params_to_config(ga_best)
    _, ga_metrics = harness.evaluate_bank(ga_cfg, pinned_bank)
    assert ga_metrics.proper_rate >= 0.85

    pso_cfg, _ = fuzzy.params_to_config(swarm_tuned[0])
    rows, _ = oracle.compare([("pso", pso_cfg), ("ga", ga_cfg)],
                             pinned_suite, params, OPERATING_INPUTS)
    path = tmp_path / "compare.csv"
    harness.write_metrics_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for row in rows:
        assert np.isfinite(row["mean_delay"])
    report("criterion 7 ga comparison", ga_time,
           f"ga {ga_metrics.proper_rate:.2f} @ {ga_metrics.mean_delay:.2f}s, "
           "both rows emitted with delays")


def test_criterion_8_detector_invariants(tmp_path):
    t0 = time.time()
    cfg = fuzzy.example_tuned_config("swarm")
    kernel = fuzzy.DetectorKernel(cfg)

    # sign symmetry of every alarm degree under residual negation
    rows = np.random.default_rng(0).normal(scale=2.0, size=(200, 5))
    np.testing.assert_allclose(kernel.degrees(rows), kernel.degrees(-rows),
                               atol=1e-12)

    # all-zero residuals: degrees zero, flags off, green-only golden DOT
    degrees, flags = kernel.run(np.zeros((30, 5)))
    assert np.all(degrees == 0.0) and not flags.any()
    dot = render.emit_dot(degrees[-1])
    assert dot.count('fillcolor="#00FF00"') == 7
    golden = tmp_path / "green.dot"
    golden.write_bytes(dot.encode())
    assert golden.read_bytes() == render.emit_dot([0.0] * 7).encode()

    # partition of unity on both shoulders
    p = fuzzy.InputPartition(1.0, 2.0, 3.0, 4.0)
    for r in np.linspace(-9.9, 9.9, 397):
        m = oracle.fuzzify(float(r), p, beta=10.0)
        x = abs(r)
        if 1 < x < 2 or 3 < x < 4:
            assert sum(m) == pytest.approx(1.0, abs=1e-12)
        assert sum(1 for v in m if v > 0) <= 2

    # defuzzified degree is monotone in the alarm activation
    out = fuzzy.OutputPartition(-0.701, -0.304, 0.304, 0.675)
    for ok in (0.0, 0.3, 1.0):
        degrees = [oracle.defuzzify({"OK": ok, "AL": al}, out)
                   for al in np.linspace(0, 1, 101)]
        assert all(b >= a - 1e-12 for a, b in zip(degrees, degrees[1:]))

    # shipped tuned parameter vectors survive the config round trip exactly
    for vec in (fuzzy.EXAMPLE_SWARM_TUNED, fuzzy.EXAMPLE_GENETIC_TUNED):
        round_cfg, repaired = fuzzy.params_to_config(vec)
        assert not repaired
        np.testing.assert_array_equal(fuzzy.config_to_params(round_cfg), vec)

    runtime = time.time() - t0
    assert runtime < 5.0
    report("criterion 8 detector invariants", runtime, "all invariants hold")


def test_criterion_9_artifact_determinism(tmp_path, params):
    t0 = time.time()
    scenario = {
        "schema": 1, "seed": 5, "duration": 8.0, "dt": 0.1,
        "noise_std_R": 0.02, "noise_std_C": 0.02,
        "events": [{"target": "De2", "start": 3.0, "magnitude": 1.5,
                    "profile": "step"}],
        "inputs": {"Msf1": 1.0, "Msf2": 0.8},
    }
    sc_path = tmp_path / "scenario.json"
    import json
    sc_path.write_text(json.dumps(scenario))
    suite_path = tmp_path / "suite.json"
    harness.save_suite(harness.generate_suite(6, seed=PINNED_SEED), str(suite_path),
                       inputs=OPERATING_INPUTS)
    cfg_path = tmp_path / "cfg.json"
    fuzzy.save_config(fuzzy.example_tuned_config("swarm"), str(cfg_path))

    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        artifacts = {
            "trace": base / "t.csv", "resid": base / "r.csv",
            "tuned": base / "tuned.json", "hist": base / "h.csv",
            "metrics": base / "m.csv", "reports": base / "rep.jsonl",
        }
        assert cli_main(["simulate", "--scenario", str(sc_path),
                         "--out-trace", str(artifacts["trace"]),
                         "--out-residuals", str(artifacts["resid"])]) == 0
        assert cli_main(["tune", "--method", "pso", "--suite", str(suite_path),
                         "--swarm-size", "6", "--iterations", "5", "--seed", "7",
                         "--out-config", str(artifacts["tuned"]),
                         "--out-history", str(artifacts["hist"])]) == 0
        assert cli_main(["evaluate", "--config", str(cfg_path),
                         "--suite", str(suite_path), "--name", "cfg",
                         "--out", str(artifacts["metrics"]),
                         "--reports", str(artifacts["reports"])]) == 0
        return {k: p.read_bytes() for k, p in artifacts.items()}

    first = run_all("a")
    second = run_all("b")
    assert first == second
    report("criterion 9 artifact determinism", time.time() - t0,
           f"{len(first)} artifacts byte-identical across reruns")
