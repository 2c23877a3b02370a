"""Membership-parameter optimization: constriction PSO and a GA baseline.

Both optimizers minimize a scalar fitness over the 48-dimensional box of
membership parameters (or any user-supplied box). The swarm uses the
constriction-factor velocity update, valid for c1 + c2 > 4; the GA uses
rank scaling, stochastic parent selection, elitism, intermediate crossover
and uniform mutation. All randomness flows from one seeded generator per
run, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fuzzy
from .harness import DetectionReport, ResidualBank, evaluate_bank, score_bank
from .plant import FaultScenario, PlantParams


def default_bounds() -> np.ndarray:
    """Search box for the 48 membership parameters, shape (48, 2).

    Per residual partition: a1 in [0, 1], a2 in [0, 1.5], a3 in [1, 5],
    a4 in [1.5, 5]; per output partition: a in [-5, 0], b in [-0.5, 0],
    c in [0, 5], d in [0.5, 5].
    """
    rows = []
    for _ in range(5):
        rows += [(0.0, 1.0), (0.0, 1.5), (1.0, 5.0), (1.5, 5.0)]
    for _ in range(7):
        rows += [(-5.0, 0.0), (-0.5, 0.0), (0.0, 5.0), (0.5, 5.0)]
    return np.array(rows)


def constriction(c1: float, c2: float) -> float:
    """Constriction factor K = 2 / |2 - c - sqrt(c^2 - 4c)| with c = c1 + c2.

    Only defined for c > 4; smaller sums give no velocity damping guarantee.
    """
    c = c1 + c2
    if c <= 4.0:
        raise ValueError(f"constriction requires c1 + c2 > 4, got c = {c}")
    return 2.0 / abs(2.0 - c - math.sqrt(c * c - 4.0 * c))


def _checked_bounds(bounds) -> np.ndarray:
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 1] <= b[:, 0]):
        raise ValueError("bounds must be an (n, 2) array of proper intervals")
    return b


@dataclass
class Particle:
    x: np.ndarray
    v: np.ndarray
    pbest: np.ndarray
    pbest_fitness: float


@dataclass(frozen=True)
class PsoParams:
    swarm_size: int = 30
    iterations: int = 200
    c1: float = 2.8
    c2: float = 1.3
    bounds: np.ndarray = field(default_factory=default_bounds)
    seed: int = 42

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.c1 + self.c2 <= 4.0:
            raise ValueError("PSO constriction requires c1 + c2 > 4")
        object.__setattr__(self, "bounds", _checked_bounds(self.bounds))


@dataclass(frozen=True)
class GaParams:
    population: int = 30
    max_generations: int = 100
    stall_generations: int = 50
    elite_count: int = 2
    crossover_fraction: float = 0.8
    mutation_rate: float = 0.05
    bounds: np.ndarray = field(default_factory=default_bounds)
    seed: int = 42

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if not 0 <= self.elite_count < self.population:
            raise ValueError("elite_count must satisfy 0 <= elite < population")
        if self.stall_generations > self.max_generations:
            raise ValueError("stall_generations must not exceed max_generations")
        if not 0.0 <= self.crossover_fraction <= 1.0:
            raise ValueError("crossover_fraction must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        object.__setattr__(self, "bounds", _checked_bounds(self.bounds))


def update_particle(p: Particle, gbest: np.ndarray, k: float, c1: float,
                    c2: float, rng: np.random.Generator,
                    bounds: np.ndarray) -> Particle:
    """Constriction velocity/position update with clamped positions.

    Fresh uniform draws multiply the cognitive and social terms per
    dimension; positions leaving the box are clamped and the corresponding
    velocity component zeroed.
    """
    r1 = rng.random(p.x.shape)
    r2 = rng.random(p.x.shape)
    v = k * (p.v + c1 * r1 * (p.pbest - p.x) + c2 * r2 * (gbest - p.x))
    x = p.x + v
    lo, hi = bounds[:, 0], bounds[:, 1]
    clamped = (x < lo) | (x > hi)
    x = np.clip(x, lo, hi)
    v = np.where(clamped, 0.0, v)
    return Particle(x, v, p.pbest, p.pbest_fitness)


_BIG = 1e30  # sentinel "not evaluated yet" fitness


def pso_tune(fitness: Callable[[np.ndarray], float], params: PsoParams,
             ) -> tuple[np.ndarray, list[float], list[float]]:
    """Minimize ``fitness`` over the box; returns (best, history, mean_history).

    History entry 0 is the best of the random initialization; one entry is
    appended per iteration and the sequence is non-increasing.
    """
    rng = np.random.default_rng(params.seed)
    lo, hi = params.bounds[:, 0], params.bounds[:, 1]
    span = hi - lo
    k = constriction(params.c1, params.c2)

    swarm = []
    for _ in range(params.swarm_size):
        x = lo + rng.random(len(lo)) * span
        v = rng.uniform(-span, span)
        swarm.append(Particle(x, v, x.copy(), _BIG))

    def evaluate_all() -> list[float]:
        values = []
        for i, p in enumerate(swarm):
            try:
                f = float(fitness(p.x))
            except Exception as exc:
                raise RuntimeError(
                    f"fitness evaluation failed for particle {i}: {exc}") from exc
            values.append(f)
            if f < p.pbest_fitness:
                p.pbest = p.x.copy()
                p.pbest_fitness = f
        return values

    values = evaluate_all()
    gbest_idx = int(np.argmin([p.pbest_fitness for p in swarm]))
    gbest = swarm[gbest_idx].pbest.copy()
    gbest_fitness = swarm[gbest_idx].pbest_fitness
    history = [gbest_fitness]
    mean_history = [float(np.mean(values))]

    for it in range(params.iterations):
        for i in range(params.swarm_size):
            swarm[i] = update_particle(swarm[i], gbest, k, params.c1, params.c2,
                                       rng, params.bounds)
        try:
            values = evaluate_all()
        except RuntimeError as exc:
            raise RuntimeError(f"iteration {it + 1}: {exc}") from exc
        best_idx = int(np.argmin([p.pbest_fitness for p in swarm]))
        if swarm[best_idx].pbest_fitness < gbest_fitness:
            gbest = swarm[best_idx].pbest.copy()
            gbest_fitness = swarm[best_idx].pbest_fitness
        history.append(gbest_fitness)
        mean_history.append(float(np.mean(values)))
    return gbest, history, mean_history


def _rank_weights(fitnesses: np.ndarray) -> np.ndarray:
    """Rank-scaled selection weights: weight proportional to 1/sqrt(rank)."""
    order = np.argsort(fitnesses, kind="stable")
    weights = np.empty(len(fitnesses))
    weights[order] = 1.0 / np.sqrt(np.arange(1, len(fitnesses) + 1))
    return weights / weights.sum()


def ga_tune(fitness: Callable[[np.ndarray], float], params: GaParams,
            ) -> tuple[np.ndarray, list[float], list[float]]:
    """Rank-selection GA with elitism, intermediate crossover, uniform mutation.

    Stops at ``max_generations`` or when the best fitness has not improved
    for ``stall_generations`` generations. Returns (best, best-so-far
    history, mean history); the best-so-far history is non-increasing.
    """
    rng = np.random.default_rng(params.seed)
    lo, hi = params.bounds[:, 0], params.bounds[:, 1]
    span = hi - lo
    n, dims = params.population, len(lo)

    pop = lo + rng.random((n, dims)) * span

    def evaluate_all(generation: int) -> np.ndarray:
        values = np.empty(n)
        for i in range(n):
            try:
                values[i] = float(fitness(pop[i]))
            except Exception as exc:
                raise RuntimeError(
                    f"fitness evaluation failed for individual {i} "
                    f"in generation {generation}: {exc}") from exc
        return values

    values = evaluate_all(0)
    best_idx = int(np.argmin(values))
    best = pop[best_idx].copy()
    best_fitness = float(values[best_idx])
    history = [best_fitness]
    mean_history = [float(np.mean(values))]
    stall = 0

    for gen in range(1, params.max_generations + 1):
        weights = _rank_weights(values)
        order = np.argsort(values, kind="stable")
        elites = pop[order[: params.elite_count]].copy()

        n_children = n - params.elite_count
        n_cross = int(round(params.crossover_fraction * n_children))
        children = np.empty((n_children, dims))
        for i in range(n_cross):
            pa, pb = rng.choice(n, size=2, p=weights)
            u = rng.uniform(-0.25, 1.25, size=dims)
            children[i] = pop[pa] + u * (pop[pb] - pop[pa])
        for i in range(n_cross, n_children):
            parent = pop[rng.choice(n, p=weights)].copy()
            mutate = rng.random(dims) < params.mutation_rate
            fresh = lo + rng.random(dims) * span
            children[i] = np.where(mutate, fresh, parent)
        children = np.clip(children, lo, hi)

        pop = np.vstack([elites, children]) if params.elite_count else children
        values = evaluate_all(gen)
        gen_best = int(np.argmin(values))
        if values[gen_best] < best_fitness:
            best = pop[gen_best].copy()
            best_fitness = float(values[gen_best])
            stall = 0
        else:
            stall += 1
        history.append(best_fitness)
        mean_history.append(float(np.mean(values)))
        if stall >= params.stall_generations:
            break
    return best, history, mean_history


# ---------------------------------------------------------------------------
# Detection-error fitness

def _objective(error_rate: float, mean_delay: float) -> float:
    """Error rate plus 1e-4 times the mean delay; a NaN delay (nothing
    detected) counts as 0."""
    delay = mean_delay if math.isfinite(mean_delay) else 0.0
    return error_rate + 1e-4 * delay


@dataclass(frozen=True)
class FitnessReport:
    """Scenario-suite outcome for one parameter vector."""

    error_rate: float
    mean_delay: float
    per_scenario: tuple[DetectionReport, ...]

    def scalar(self) -> float:
        """Minimization objective: error rate, delay as a tiny tie-break."""
        return _objective(self.error_rate, self.mean_delay)


def fitness(x: np.ndarray, suite: Sequence[FaultScenario], plant: PlantParams,
            inputs: tuple[float, float] = (1.0, 0.8),
            bank: ResidualBank | None = None,
            max_fault_order: int = fuzzy.DEFAULT_MAX_FAULT_ORDER,
            ) -> FitnessReport:
    """Detection-error rate of the detector built from ``x`` over a suite.

    A scenario counts improper when an injected fault is never flagged after
    its event, an un-faulted variable is flagged, or nothing is flagged at
    all despite injected faults. The residual traces depend only on the
    suite, so they are simulated once (or passed in via ``bank``) and reused
    across evaluations.
    """
    if bank is None:
        bank = ResidualBank.from_suite(suite, plant, inputs)
    cfg, _ = fuzzy.params_to_config(x, max_fault_order=max_fault_order)
    reports, metrics = evaluate_bank(cfg, bank)
    return FitnessReport(1.0 - metrics.proper_rate, metrics.mean_delay,
                         tuple(reports))


def make_fitness(suite: Sequence[FaultScenario], plant: PlantParams,
                 inputs: tuple[float, float] = (1.0, 0.8),
                 max_fault_order: int = fuzzy.DEFAULT_MAX_FAULT_ORDER,
                 ) -> Callable[[np.ndarray], float]:
    """Bind a suite into a scalar evaluator for the optimizers.

    Precomputes the residual bank once. Each call scores the detector with
    ``harness.score_bank``, which builds no per-scenario reports, and
    returns exactly ``fitness(x, ...).scalar()``. The returned callable is
    deterministic and evaluation-order independent.
    """
    bank = ResidualBank.from_suite(suite, plant, inputs)
    rulebase = fuzzy.build_rulebase(max_fault_order=max_fault_order)

    def objective(x: np.ndarray) -> float:
        cfg, _ = fuzzy.params_to_config(x, rulebase=rulebase)
        proper_rate, mean_delay = score_bank(cfg, bank)
        return _objective(1.0 - proper_rate, mean_delay)

    return objective
