"""Multi-start randomized bottom-up DP heuristic.

Each iteration inflates warehouse and retailer setup costs by an
independent uniform factor in [1, 1 + alpha], then plans bottom-up: all
retailers, then all warehouses fed by the retailer shipments, then the
plant fed by the warehouse shipments (the plant keeps its original
costs). The assembled solution is always costed with the original
instance costs.

Iterations run C at a time, as many as fit a fixed element budget, with
one batched lot-sizing DP call per level for all C; the best solution is
kept as the chunks go. Iteration i draws from a generator seeded with
(seed, i) and is planned and costed as if it ran alone, so results
depend neither on C nor on which iterations ran before it.
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
# Elements per (C, F, T) array of a chunk of C iterations; bigger chunks
# cost more peak memory than they save time.
_CHUNK_ELEMENTS = 32768


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


def _chunk(instance: Instance, alpha: float, seed: int, first: int,
           count: int) -> list[Solution]:
    """The solutions of iterations first, ..., first + count - 1."""
    F, T, W = instance.num_facilities, instance.num_periods, instance.num_warehouses
    retailers, warehouses, plant = slice(1 + W, F), slice(1, 1 + W), slice(0, 1)
    rand_sc = np.stack([randomize_setup_costs(instance, alpha, np.random.default_rng((seed, i)))
                        for i in range(first, first + count)])

    x = np.zeros((count, F, T))
    y = np.zeros((count, F, T))
    # Per-facility outflow: retailer demand, or shipments to successors.
    # A level's outflow in all C iterations is the demand its DP batch plans.
    out = np.zeros((count, F, T))

    def plan(level: slice) -> None:
        shape = x[:, level].shape
        p = solve_uls(out[:, level].reshape(-1, T), rand_sc[:, level].reshape(-1, T),
                      np.tile(instance.holding_cost[level], (count, 1)))
        x[:, level], y[:, level] = p.produce.reshape(shape), p.setup.reshape(shape)

    out[:, retailers] = instance.demand
    plan(retailers)
    np.add.at(out, (slice(None), instance.parent[retailers]), x[:, retailers])
    plan(warehouses)
    out[:, 0] = x[:, warehouses].sum(axis=1)
    plan(plant)

    # Stocks follow from flow balance; the DPs never ship early, so all
    # stocks come out nonnegative.
    s = np.subtract(x, out, out=out).cumsum(axis=2, out=out)
    sols = [Solution(x=x[c], y=y[c], s=s[c], cost=0.0) for c in range(count)]
    for sol in sols:
        sol.cost = evaluate_cost(instance, sol)
    return sols


# Finite setup costs can still sum past the float range in a plan, whose
# cost then comes out inf or nan; run rejects such a run instead of warning.
@np.errstate(over="ignore", invalid="ignore")
def run(instance: Instance, config: HeuristicConfig) -> HeuristicResult:
    problems = validate(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    if not np.isfinite(instance.setup_cost[1:] * (1.0 + config.alpha)).all():
        raise ValueError(f"alpha {config.alpha!r} inflates a setup cost past the float range")

    start = time.perf_counter()
    n = config.iterations
    step = max(1, _CHUNK_ELEMENTS // (instance.num_facilities * instance.num_periods))
    costs, best = [], None
    for first in range(1, n + 1, step):
        for sol in _chunk(instance, config.alpha, config.seed, first,
                          min(step, n + 1 - first)):
            costs.append(sol.cost)
            # Min cost, ties to the lowest index; the best owns its arrays.
            if best is None or sol.cost < best.cost:
                best = Solution(x=sol.x.copy(), y=sol.y.copy(), s=sol.s.copy(), cost=sol.cost)
        del sol  # frees the chunk's arrays before the next chunk is built
    if not np.isfinite(costs).all():
        raise ValueError("an iteration's plan costs sum past the float range")
    wall = time.perf_counter() - start
    return HeuristicResult(best=best, best_cost=best.cost,
                           per_iteration_costs=costs, wall_time=wall)
