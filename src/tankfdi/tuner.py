"""Membership-parameter optimization: constriction PSO and a GA baseline.

Both optimizers minimize a scalar fitness over the 48-dimensional box of
membership parameters (or any user-supplied box). The swarm uses the
constriction-factor velocity update, valid for c1 + c2 > 4; the GA uses
rank scaling, stochastic parent selection, elitism, intermediate crossover
and uniform mutation. All randomness flows from one seeded generator per
run, so results are bit-reproducible. ``pooled`` scores each population
across forked worker processes; the values, and so the results, do not
change.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from . import fuzzy
from .harness import ResidualBank, score_bank
from .plant import OPERATING_POINT, FaultScenario, PlantParams, shown

if TYPE_CHECKING:
    import multiprocessing.pool


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

    Only defined for c > 4 whose square is finite: smaller sums give no
    velocity damping guarantee, a NaN or infinite c gives a NaN K, and a c
    above about 1.3e154 squares to inf and gives K = 0, a swarm that never
    moves.
    """
    c = c1 + c2
    if not (c > 4.0 and math.isfinite(c * c)):
        raise ValueError(f"constriction requires c1 + c2 > 4 with a finite square, got c = {c}")
    return 2.0 / abs(2.0 - c - math.sqrt(c * c - 4.0 * c))


def _checked_bounds(bounds) -> np.ndarray:
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 1] <= b[:, 0]):
        raise ValueError("bounds must be an (n, 2) array of proper intervals")
    return b


class Particle(NamedTuple):
    """One particle, or a swarm when every field has a leading particle axis."""

    x: np.ndarray
    v: np.ndarray
    pbest: np.ndarray
    pbest_fitness: float | np.ndarray


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
        constriction(self.c1, self.c2)
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
            raise ValueError(f"stall_generations ({shown(self.stall_generations)}) must not "
                             f"exceed max_generations ({shown(self.max_generations)})")
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
    velocity component zeroed. For a swarm, each particle draws its r1 and
    then its r2, in particle order.
    """
    r1, r2 = np.moveaxis(rng.random((*p.x.shape[:-1], 2, p.x.shape[-1])), -2, 0)
    v = k * (p.v + c1 * r1 * (p.pbest - p.x) + c2 * r2 * (gbest - p.x))
    x = p.x + v
    lo, hi = bounds[:, 0], bounds[:, 1]
    clamped = (x < lo) | (x > hi)
    x = np.clip(x, lo, hi)
    v = np.where(clamped, 0.0, v)
    return Particle(x, v, p.pbest, p.pbest_fitness)


_BIG = 1e30  # sentinel "not evaluated yet" fitness


def _evaluate(fitness: Callable[[np.ndarray], float], rows: np.ndarray):
    """Score ``rows`` in order up to the first row whose call raises:
    (values, None), or (values so far, (row index, error text, exception))."""
    values = []
    for i, x in enumerate(rows):
        try:
            values.append(float(fitness(x)))
        except Exception as exc:
            return values, (i, str(exc), exc)
    return values, None


def _score(fitness: Callable[[np.ndarray], float], rows: np.ndarray,
           name: Callable[[int], str], prefix: str = "") -> np.ndarray:
    """Fitness of each row, in order. The first failing row i raises a
    RuntimeError ``{prefix}fitness evaluation failed for {name(i)}: ...``.
    A ``PooledObjective`` scores the rows in its workers, one contiguous
    chunk each; any other callable is called here, row by row."""
    if isinstance(fitness, PooledObjective):
        parts = fitness.map(rows)
    else:
        parts = [_evaluate(fitness, rows)]
    values = []
    for part, failure in parts:
        if failure:
            i, text, cause = failure
            raise RuntimeError(f"{prefix}fitness evaluation failed for "
                               f"{name(len(values) + i)}: {text}") from cause
        values += part
    return np.array(values)


# ---------------------------------------------------------------------------
# Population scoring across forked workers

# The modules the pool needs are imported by the functions below, not at
# module level: the commands that never tune would otherwise load them, and
# they add about 1.9 MB to every process.

def worker_count(population: int) -> int:
    """Processes to score a population across: the CPUs this process may
    run on (``os.sched_getaffinity``), at most ``population``. It is 1,
    scoring in this process, where the platform lacks ``sched_getaffinity``
    or the ``fork`` start method; ``taskset -c 0`` also makes it 1."""
    import multiprocessing

    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(len(os.sched_getaffinity(0)), population)


#: The objective a pool worker scores with; set in worker processes only.
_worker_objective: Callable[[np.ndarray], float] | None = None


def _start_worker(objective: Callable[[np.ndarray], float]) -> None:
    """Pool initializer. A forked worker receives ``objective`` without
    pickling. It ignores SIGINT: an interrupted parent terminates it."""
    global _worker_objective
    import signal

    _worker_objective = objective
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _evaluate_in_worker(rows: np.ndarray):
    """``_evaluate`` with the worker's objective. The objective's exception
    might not survive pickling, so a failure is sent as text: the error's,
    and its traceback's as the cause the parent raises from."""
    import traceback
    from multiprocessing.pool import RemoteTraceback

    values, failure = _evaluate(_worker_objective, rows)
    if failure:
        i, text, exc = failure
        tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        failure = (i, text, RemoteTraceback(tb))
    return values, failure


@dataclass(frozen=True)
class PooledObjective:
    """The ``workers`` processes of ``pool``, each holding the objective it
    was forked with, across which ``_score`` splits a population; made by
    ``pooled``."""

    pool: multiprocessing.pool.Pool
    workers: int

    def map(self, rows: np.ndarray) -> list:
        """``_evaluate`` of one contiguous chunk of rows per worker, in row order."""
        return self.pool.map(_evaluate_in_worker,
                             np.array_split(rows, self.workers), chunksize=1)


@contextlib.contextmanager
def pooled(objective: Callable[[np.ndarray], float], workers: int):
    """``objective`` for ``pso_tune``/``ga_tune``, scoring each population
    across ``workers`` processes forked on entry.

    The workers inherit ``objective``, and the residual bank it holds, at
    fork, so only particle rows and fitness values cross between
    processes. ``objective`` must be deterministic and independent of
    evaluation order; then no split changes a value or the history. With
    one worker, ``objective`` itself is yielded and nothing is forked. On
    exit the pool is closed, or terminated if the block raised (an
    interrupt included), and then joined, so no worker outlives the block.
    """
    if workers == 1:
        yield objective
        return
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(workers, _start_worker, (objective,))
    try:
        yield PooledObjective(pool, workers)
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()


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

    xs, vs = [], []
    for _ in range(params.swarm_size):
        xs.append(lo + rng.random(len(lo)) * span)
        vs.append(rng.uniform(-span, span))
    x = np.array(xs)
    swarm = Particle(x, np.array(vs), x.copy(), np.full(len(x), _BIG))

    history, mean_history = [], []
    for it in range(params.iterations + 1):
        # pass 0 scores the random initialization
        if it:
            swarm = update_particle(swarm, gbest, k, params.c1, params.c2,
                                    rng, params.bounds)
        values = _score(fitness, swarm.x, "particle {}".format,
                        f"iteration {it}: " if it else "")
        better = values < swarm.pbest_fitness
        swarm.pbest[better] = swarm.x[better]
        swarm.pbest_fitness[better] = values[better]
        best_idx = int(np.argmin(swarm.pbest_fitness))
        if it == 0 or swarm.pbest_fitness[best_idx] < gbest_fitness:
            gbest = swarm.pbest[best_idx].copy()
            gbest_fitness = float(swarm.pbest_fitness[best_idx])
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
    ``fitness`` must be deterministic: elites carry their value over to
    the next generation without a new call.
    """
    rng = np.random.default_rng(params.seed)
    lo, hi = params.bounds[:, 0], params.bounds[:, 1]
    span = hi - lo
    n, dims = params.population, len(lo)

    pop = lo + rng.random((n, dims)) * span
    values = _score(fitness, pop, "individual {} in generation 0".format)
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
        elite_values = values[order[: params.elite_count]]

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

        pop = np.vstack([elites, children])
        values = np.concatenate([elite_values, _score(fitness, children, lambda i: (
            f"individual {params.elite_count + i} in generation {gen}"))])
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

@dataclass(frozen=True)
class FitnessReport:
    """Scenario-suite outcome for one parameter vector."""

    error_rate: float
    mean_delay: float

    def scalar(self) -> float:
        """Minimization objective: the error rate plus 1e-4 times the mean
        delay as a tie-break; a NaN delay (nothing detected) counts as 0."""
        delay = self.mean_delay if math.isfinite(self.mean_delay) else 0.0
        return self.error_rate + 1e-4 * delay


def fitness(x: np.ndarray, suite: Sequence[FaultScenario], plant: PlantParams,
            inputs: tuple[float, float] = OPERATING_POINT,
            bank: ResidualBank | None = None) -> FitnessReport:
    """Detection-error rate of the detector built from ``x`` over a suite.

    A scenario counts improper when an injected fault is never flagged after
    its event, an un-faulted variable is flagged, or nothing is flagged at
    all despite injected faults. The residual traces depend only on the
    suite, so they are simulated once (or passed in via ``bank``) and reused
    across evaluations. ``harness.score_bank`` scores the detector without
    building per-scenario reports.
    """
    if bank is None:
        bank = ResidualBank.from_suite(suite, plant, inputs)
    cfg, _ = fuzzy.params_to_config(x)
    proper_rate, mean_delay = score_bank(cfg, bank)
    return FitnessReport(1.0 - proper_rate, mean_delay)


def make_fitness(suite: Sequence[FaultScenario], plant: PlantParams,
                 inputs: tuple[float, float] = OPERATING_POINT) -> Callable[[np.ndarray], float]:
    """Bind a suite into a scalar evaluator for the optimizers.

    Precomputes the residual bank once; each call returns
    ``fitness(x, ...).scalar()`` on it. The returned callable is
    deterministic and evaluation-order independent.
    """
    bank = ResidualBank.from_suite(suite, plant, inputs)
    # compiles the rule program before any worker forks, so none compiles it again
    fuzzy.build_rulebase().program

    def objective(x: np.ndarray) -> float:
        return fitness(x, suite, plant, inputs, bank).scalar()

    return objective
