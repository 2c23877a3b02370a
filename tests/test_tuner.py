"""Optimizers: constriction PSO, GA baseline, detection-error fitness."""

import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest

from tankfdi import fuzzy, harness, plant, tuner
from tankfdi.tuner import (GaParams, Particle, PsoParams, constriction,
                           default_bounds, ga_tune, pso_tune, update_particle)

from conftest import OPERATING_INPUTS

SPHERE_BOUNDS = np.array([[1.0, 5.0], [1.0, 5.0]])


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class TestConstriction:
    def test_reference_value(self):
        # c = 4.1: sqrt(0.41) ~ 0.6403, K = 2/2.7403
        assert constriction(2.8, 1.3) == pytest.approx(0.7298, abs=1e-4)

    def test_depends_only_on_sum(self):
        assert constriction(2.05, 2.05) == pytest.approx(constriction(2.8, 1.3),
                                                         abs=1e-12)
        assert constriction(3.0, 1.1) == pytest.approx(constriction(1.1, 3.0),
                                                       abs=1e-15)

    def test_sum_at_most_four_rejected(self):
        with pytest.raises(ValueError):
            constriction(2.0, 2.0)
        with pytest.raises(ValueError):
            constriction(1.0, 1.0)

    @pytest.mark.parametrize("c1", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_sum_rejected(self, c1):
        # NaN > 4 is false, an infinite c gives K = NaN, and 1e200 squares to
        # inf and gives K = 0, so none may pass
        with pytest.raises(ValueError, match=r"c1 \+ c2 > 4 with a finite square"):
            constriction(c1, 1.3)
        with pytest.raises(ValueError):
            PsoParams(c1=c1)


class TestUpdateParticle:
    def test_fixed_point(self, rng):
        x = np.array([2.0, 3.0])
        p = Particle(x.copy(), np.zeros(2), x.copy(), 1.0)
        q = update_particle(p, x.copy(), 0.73, 2.8, 1.3, rng, SPHERE_BOUNDS)
        np.testing.assert_array_equal(q.x, x)
        np.testing.assert_array_equal(q.v, np.zeros(2))

    def test_first_step_points_toward_shared_attractor(self, rng):
        # from rest with pbest == gbest, the fresh velocity has the sign of
        # (gbest - x) regardless of the random draws
        x = np.array([4.0, 1.5])
        best = np.array([2.0, 3.5])
        for _ in range(25):
            p = Particle(x.copy(), np.zeros(2), best.copy(), 1.0)
            q = update_particle(p, best, 0.73, 2.8, 1.3, rng, SPHERE_BOUNDS)
            assert q.v[0] <= 0.0 and q.v[1] >= 0.0

    def test_clamp_zeroes_velocity(self, rng):
        p = Particle(np.array([1.1, 1.1]), np.array([-50.0, 0.0]),
                     np.array([1.1, 1.1]), 1.0)
        q = update_particle(p, np.array([1.1, 1.1]), 0.73, 2.8, 1.3, rng,
                            SPHERE_BOUNDS)
        assert q.x[0] == 1.0
        assert q.v[0] == 0.0

    def test_fixed_seed_trajectory_regression(self):
        # pinned from a recorded run; guards the draw order of the update
        rng = np.random.default_rng(11)
        p = Particle(np.array([3.0, 4.0]), np.array([0.5, -0.5]),
                     np.array([2.0, 2.0]), 1.0)
        gbest = np.array([1.5, 1.5])
        for _ in range(10):
            p = update_particle(p, gbest, 0.7298, 2.8, 1.3, rng, SPHERE_BOUNDS)
        expected_draws = np.random.default_rng(11)
        q = Particle(np.array([3.0, 4.0]), np.array([0.5, -0.5]),
                     np.array([2.0, 2.0]), 1.0)
        for _ in range(10):
            r1 = expected_draws.random(2)
            r2 = expected_draws.random(2)
            v = 0.7298 * (q.v + 2.8 * r1 * (q.pbest - q.x) + 1.3 * r2 * (gbest - q.x))
            x = q.x + v
            clamped = (x < SPHERE_BOUNDS[:, 0]) | (x > SPHERE_BOUNDS[:, 1])
            x = np.clip(x, SPHERE_BOUNDS[:, 0], SPHERE_BOUNDS[:, 1])
            v = np.where(clamped, 0.0, v)
            q = Particle(x, v, q.pbest, q.pbest_fitness)
        np.testing.assert_allclose(p.x, q.x, rtol=0, atol=0)


class TestPso:
    def test_sphere_converges_to_box_corner(self):
        best, hist, _ = pso_tune(sphere, PsoParams(swarm_size=30, iterations=200,
                                                   bounds=SPHERE_BOUNDS, seed=42))
        assert np.abs(best - 1.0).max() < 1e-2
        assert hist[-1] == pytest.approx(2.0, abs=1e-2)

    def test_history_monotone_non_increasing(self):
        _, hist, _ = pso_tune(sphere, PsoParams(swarm_size=10, iterations=50,
                                                bounds=SPHERE_BOUNDS, seed=7))
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert len(hist) == 51

    def test_zero_iterations_returns_best_of_init(self):
        best, hist, _ = pso_tune(sphere, PsoParams(swarm_size=12, iterations=0,
                                                   bounds=SPHERE_BOUNDS, seed=3))
        assert len(hist) == 1
        assert hist[0] == pytest.approx(sphere(best))

    def test_deterministic_given_seed(self):
        a = pso_tune(sphere, PsoParams(swarm_size=8, iterations=25,
                                       bounds=SPHERE_BOUNDS, seed=5))
        b = pso_tune(sphere, PsoParams(swarm_size=8, iterations=25,
                                       bounds=SPHERE_BOUNDS, seed=5))
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_positions_remain_in_bounds(self):
        seen = []

        def spy(x):
            seen.append(x.copy())
            return sphere(x)

        pso_tune(spy, PsoParams(swarm_size=10, iterations=30,
                                bounds=SPHERE_BOUNDS, seed=9))
        arr = np.array(seen)
        assert np.all(arr >= SPHERE_BOUNDS[:, 0])
        assert np.all(arr <= SPHERE_BOUNDS[:, 1])

    def test_swarm_history_pinned(self):
        # recorded when each particle was updated on its own; guards the
        # swarm's draw order: every particle draws r1, then r2, in turn
        _, hist, mean_hist = pso_tune(sphere, PsoParams(
            swarm_size=5, iterations=4, bounds=SPHERE_BOUNDS, seed=4))
        assert hist == [18.040711408969457, 18.040711408969457, 9.428850847373518,
                        8.128593246738273, 3.7542261939041666]
        assert mean_hist == [30.199493253674017, 28.432173636606308, 17.939243996754296,
                             11.346244083102002, 10.322412249186257]

    def test_invalid_acceleration_rejected(self):
        with pytest.raises(ValueError):
            PsoParams(c1=2.0, c2=2.0)

    def test_evaluator_failure_reports_particle(self):
        def boom(x):
            raise FloatingPointError("nan fitness")

        with pytest.raises(RuntimeError) as err:
            pso_tune(boom, PsoParams(swarm_size=4, iterations=2,
                                     bounds=SPHERE_BOUNDS, seed=1))
        assert "particle" in str(err.value)


class TestGa:
    def test_sphere_converges_to_box_corner(self):
        best, hist, _ = ga_tune(sphere, GaParams(population=30, max_generations=100,
                                                 stall_generations=100,
                                                 bounds=SPHERE_BOUNDS, seed=42))
        assert np.abs(best - 1.0).max() < 1e-1
        assert hist[-1] == pytest.approx(2.0, abs=1e-1)

    def test_best_so_far_history_monotone(self):
        _, hist, _ = ga_tune(sphere, GaParams(population=16, max_generations=40,
                                              stall_generations=40,
                                              bounds=SPHERE_BOUNDS, seed=2))
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_heavy_elitism_never_regresses(self):
        _, hist, _ = ga_tune(sphere, GaParams(population=10, max_generations=30,
                                              stall_generations=30, elite_count=9,
                                              bounds=SPHERE_BOUNDS, seed=4))
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_stall_stops_after_exact_budget(self):
        calls = []

        def constant(x):
            calls.append(1)
            return 1.0

        _, hist, _ = ga_tune(constant, GaParams(population=6, max_generations=50,
                                                stall_generations=5,
                                                bounds=SPHERE_BOUNDS, seed=0))
        # initial evaluation plus exactly stall_generations stagnant ones
        assert len(hist) == 6

    def test_elites_are_not_scored_again(self):
        calls = []

        def counted(x):
            calls.append(1)
            return sphere(x)

        _, hist, mean_hist = ga_tune(counted, GaParams(
            population=8, max_generations=5, stall_generations=5, elite_count=2,
            bounds=SPHERE_BOUNDS, seed=3))
        assert len(calls) == 8 + 5 * (8 - 2)
        # recorded when every generation re-scored its elites
        assert hist == [5.594317323784958] * 3 + [5.322700308402564] * 3
        assert mean_hist == [18.253818682167054, 16.0411217266179, 14.00814870252766,
                             8.985494912979636, 6.369313770841297, 6.014466226432606]

    def test_deterministic_given_seed(self):
        a = ga_tune(sphere, GaParams(population=10, max_generations=15,
                                     stall_generations=15,
                                     bounds=SPHERE_BOUNDS, seed=8))
        b = ga_tune(sphere, GaParams(population=10, max_generations=15,
                                     stall_generations=15,
                                     bounds=SPHERE_BOUNDS, seed=8))
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_children_remain_in_bounds(self):
        seen = []

        def spy(x):
            seen.append(x.copy())
            return sphere(x)

        ga_tune(spy, GaParams(population=12, max_generations=20,
                              stall_generations=20, bounds=SPHERE_BOUNDS, seed=6))
        arr = np.array(seen)
        assert np.all(arr >= SPHERE_BOUNDS[:, 0])
        assert np.all(arr <= SPHERE_BOUNDS[:, 1])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GaParams(elite_count=30, population=30)
        with pytest.raises(ValueError):
            GaParams(stall_generations=200, max_generations=100)
        with pytest.raises(ValueError):
            GaParams(crossover_fraction=1.5)

    @pytest.mark.parametrize("max_generations,stall_generations,name", [
        (-1, -1, "max_generations"), (5, -2, "stall_generations")])
    def test_negative_generation_count_rejected(self, max_generations, stall_generations,
                                                name):
        # a negative count used to return the random initial population, or
        # to stop after one generation
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            GaParams(max_generations=max_generations, stall_generations=stall_generations)


class TestPooled:
    """``tuner.pooled`` scores a population across forked workers."""

    ROWS = np.arange(14.0).reshape(7, 2)

    def test_values_in_row_order(self):
        with tuner.pooled(sphere, 3) as scored:
            pooled = tuner._score(scored, self.ROWS, "particle {}".format)
        serial = tuner._score(sphere, self.ROWS, "particle {}".format)
        assert pooled.tobytes() == serial.tobytes()
        assert multiprocessing.active_children() == []

    def test_first_failing_row_wins(self):
        # rows 4 and 6 fail, in the second and third of three chunks
        def picky(x):
            if x[0] in (8.0, 12.0):
                raise FloatingPointError(f"row at {x[0]}")
            return sphere(x)

        name = "particle {}".format
        with pytest.raises(RuntimeError) as serial:
            tuner._score(picky, self.ROWS, name, "iteration 2: ")
        with pytest.raises(RuntimeError) as pooled, tuner.pooled(picky, 3) as scored:
            tuner._score(scored, self.ROWS, name, "iteration 2: ")
        assert (str(pooled.value) == str(serial.value)
                == "iteration 2: fitness evaluation failed for particle 4: row at 8.0")
        assert "FloatingPointError: row at 8.0" in str(pooled.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_interrupt_terminates_the_workers(self):
        with pytest.raises(KeyboardInterrupt):
            with tuner.pooled(sphere, 2) as scored:
                tuner._score(scored, self.ROWS, "particle {}".format)
                raise KeyboardInterrupt
        assert multiprocessing.active_children() == []

    def test_one_worker_is_the_objective_itself(self):
        with tuner.pooled(sphere, 1) as scored:
            assert scored is sphere

    @pytest.mark.parametrize("optimize, settings", [
        (pso_tune, PsoParams(swarm_size=7, iterations=15, bounds=SPHERE_BOUNDS, seed=5)),
        (ga_tune, GaParams(population=7, max_generations=15, stall_generations=15,
                           bounds=SPHERE_BOUNDS, seed=5))])
    def test_history_bit_identical(self, optimize, settings):
        with tuner.pooled(sphere, 3) as scored:
            pooled = optimize(scored, settings)
        serial = optimize(sphere, settings)
        assert pooled[0].tobytes() == serial[0].tobytes()
        assert pooled[1:] == serial[1:]

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert tuner.worker_count(30) == 4
        assert tuner.worker_count(3) == 3
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert tuner.worker_count(30) == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert tuner.worker_count(30) == 1


class TestDefaultBounds:
    def test_shape_and_rows(self):
        b = default_bounds()
        assert b.shape == (48, 2)
        np.testing.assert_array_equal(b[0], [0.0, 1.0])      # a11
        np.testing.assert_array_equal(b[2], [1.0, 5.0])      # a13
        np.testing.assert_array_equal(b[20], [-5.0, 0.0])    # first output a
        np.testing.assert_array_equal(b[47], [0.5, 5.0])     # last output d

    def test_example_tuned_set_inside_bounds(self):
        b = default_bounds()
        x = fuzzy.EXAMPLE_SWARM_TUNED
        assert np.all(x >= b[:, 0]) and np.all(x <= b[:, 1])


def _objective_vectors():
    """The shipped vectors and 20 seeded random in-box vectors."""
    rng = np.random.default_rng(2024)
    lo, hi = default_bounds().T
    return {"swarm": fuzzy.EXAMPLE_SWARM_TUNED, "genetic": fuzzy.EXAMPLE_GENETIC_TUNED,
            **{f"random{i}": lo + rng.random(len(lo)) * (hi - lo) for i in range(20)}}


OBJECTIVE_VECTORS = _objective_vectors()


@pytest.fixture(scope="module")
def scoring():
    suite = harness.generate_suite(20, seed=11)
    params = plant.PlantParams()
    bank = harness.ResidualBank.from_suite(suite, params, OPERATING_INPUTS)
    return suite, bank, tuner.make_fitness(suite, params, OPERATING_INPUTS)


class TestFitness:
    def suite(self, n=6):
        return harness.generate_suite(n, seed=11)

    def test_never_flagging_detector_scores_one(self, params):
        suite = self.suite()
        # a debounce longer than any trace can never raise a flag
        cfg = dataclasses.replace(fuzzy.params_to_config(fuzzy.EXAMPLE_SWARM_TUNED)[0],
                                  debounce=10**6)
        bank = harness.ResidualBank.from_suite(suite, params, OPERATING_INPUTS)
        _, metrics = harness.evaluate_bank(cfg, bank)
        assert metrics.proper_rate == 0.0
        report = tuner.fitness(fuzzy.EXAMPLE_SWARM_TUNED, suite, params,
                               OPERATING_INPUTS)
        assert 0.0 <= report.error_rate <= 1.0

    def test_fault_free_suite_noise_off_is_error_free(self, params):
        suite = [plant.FaultScenario(seed=s, duration=10.0, dt=0.1)
                 for s in range(4)]
        report = tuner.fitness(fuzzy.EXAMPLE_SWARM_TUNED, suite, params,
                               OPERATING_INPUTS)
        assert report.error_rate == 0.0
        assert math.isnan(report.mean_delay)
        assert report.scalar() == 0.0

    def test_deterministic(self, params):
        suite = self.suite(4)
        a = tuner.fitness(fuzzy.EXAMPLE_SWARM_TUNED, suite, params, OPERATING_INPUTS)
        b = tuner.fitness(fuzzy.EXAMPLE_SWARM_TUNED, suite, params, OPERATING_INPUTS)
        assert a.error_rate == b.error_rate
        assert (a.mean_delay == b.mean_delay or
                (math.isnan(a.mean_delay) and math.isnan(b.mean_delay)))

    @pytest.mark.parametrize("name", list(OBJECTIVE_VECTORS))
    def test_make_fitness_matches_fitness_report(self, name, scoring):
        # the objective is the report's scalar, bit for bit
        suite, bank, objective = scoring
        x = OBJECTIVE_VECTORS[name]
        report = tuner.fitness(x, suite, plant.PlantParams(), OPERATING_INPUTS, bank=bank)
        assert objective(x) == report.scalar()

    def test_objective_vectors_exercise_the_hold(self, scoring):
        # some vector must leave bank rows where no rule fires, or the
        # comparison above never reaches the held path
        _, bank, _ = scoring
        held = [name for name, x in OBJECTIVE_VECTORS.items()
                if not fuzzy.DetectorKernel(fuzzy.params_to_config(x)[0])
                ._defuzzify(bank.block)[1].all()]
        assert held

    def test_make_fitness_compiles_the_rule_program(self, params):
        # compiled before the pool forks, so no worker compiles it again
        fuzzy.build_rulebase.cache_clear()
        suite = [plant.FaultScenario(duration=2.0),
                 plant.FaultScenario(duration=2.0, events=(plant.FaultEvent("De1", 1.0, 1.5),))]
        tuner.make_fitness(suite, params, OPERATING_INPUTS)
        assert "program" in vars(fuzzy.build_rulebase())

    def test_delay_breaks_error_ties(self):
        fast = tuner.FitnessReport(0.2, 0.5)
        slow = tuner.FitnessReport(0.2, 4.0)
        worse = tuner.FitnessReport(0.22, 0.0)
        assert fast.scalar() < slow.scalar() < worse.scalar()
