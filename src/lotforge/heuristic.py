"""Multi-start randomized bottom-up DP heuristic.

Each iteration inflates warehouse and retailer setup costs by an
independent uniform factor in [1, 1 + alpha], then plans bottom-up
with one batched lot-sizing DP call per level: all retailers, then all
warehouses fed by the retailer shipments, then the plant fed by the
warehouse shipments (the plant keeps its original costs). The
assembled solution is always costed with the original instance costs.

Iteration i draws from a generator seeded with (seed, i), so its result
does not depend on which iterations ran before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .instance import Instance, validate
from .lotsizing_dp import solve_uls
from .solution import Solution, evaluate_cost

DEFAULT_ALPHA = 0.20
DEFAULT_ITERATIONS = 500


@dataclass(frozen=True)
class HeuristicConfig:
    alpha: float = DEFAULT_ALPHA
    iterations: int = DEFAULT_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class HeuristicResult:
    best: Solution
    best_cost: float
    per_iteration_costs: list[float]
    wall_time: float


def randomize_setup_costs(instance: Instance, alpha: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Inflated setup-cost matrix for warehouses and retailers.

    Draw order is fixed: warehouses ascending, then retailers ascending,
    periods ascending within each facility. Plant costs are untouched.
    """
    out = np.array(instance.setup_cost)
    out[1:] *= 1.0 + rng.uniform(0.0, alpha, size=out[1:].shape)
    return out


def _one_iteration(instance: Instance, alpha: float, seed: int,
                   iteration: int) -> Solution:
    rng = np.random.default_rng((seed, iteration))
    rand_sc = randomize_setup_costs(instance, alpha, rng)
    F, T, W = instance.num_facilities, instance.num_periods, instance.num_warehouses
    retailers, warehouses, plant = slice(1 + W, F), slice(1, 1 + W), slice(0, 1)

    x = np.zeros((F, T))
    y = np.zeros((F, T))
    # Per-facility outflow: retailer demand, or shipments to successors.
    # Each level's outflow is the demand its DP batch plans for.
    out = np.zeros((F, T))

    def plan(level: slice) -> None:
        p = solve_uls(out[level], rand_sc[level], instance.holding_cost[level])
        x[level], y[level] = p.produce, p.setup

    out[retailers] = instance.demand
    plan(retailers)
    np.add.at(out, instance.parent[retailers], x[retailers])
    plan(warehouses)
    out[0] = x[warehouses].sum(axis=0)
    plan(plant)

    # Stocks follow from flow balance; the DPs never ship early, so all
    # stocks come out nonnegative.
    s = np.cumsum(x - out, axis=1)
    sol = Solution(x=x, y=y, s=s, cost=0.0)
    sol.cost = evaluate_cost(instance, sol)
    return sol


def run(instance: Instance, config: HeuristicConfig) -> HeuristicResult:
    problems = validate(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))

    start = time.perf_counter()
    costs = [_one_iteration(instance, config.alpha, config.seed, it).cost
             for it in range(1, config.iterations + 1)]

    # Deterministic fold: min cost, ties to the lowest iteration index.
    best_idx = min(range(len(costs)), key=lambda i: (costs[i], i))
    best = _one_iteration(instance, config.alpha, config.seed, best_idx + 1)
    wall = time.perf_counter() - start
    return HeuristicResult(best=best, best_cost=costs[best_idx],
                           per_iteration_costs=costs, wall_time=wall)
