"""Solutions in the standard variable space (x, y, s per facility/period)."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .instance import Instance, cumulative_demand, facility_keys, facility_label

BALANCE_TOL = 1e-6
COST_REL_TOL = 1e-6

# Routes map each positive demand (retailer, period) to the triple
# (k0, k1, k2): plant production period, warehouse-inbound period and
# retailer-inbound period, with k0 <= k1 <= k2 <= period (0-based).
RouteAssignment = dict[tuple[int, int], tuple[int, int, int]]


@dataclass
class Solution:
    x: np.ndarray  # (F, T) production at plant / inbound shipment elsewhere
    y: np.ndarray  # (F, T) binary setups
    s: np.ndarray  # (F, T) end-of-period stock
    cost: float


def _labels(instance: Instance) -> list[str]:
    return [facility_label(b, i) for b, i in facility_keys(instance)]


def evaluate_cost(instance: Instance, solution: Solution) -> float:
    """Total setup plus holding cost of a solution, recomputed from scratch."""
    return float(np.sum(instance.setup_cost * solution.y)
                 + np.sum(instance.holding_cost * solution.s))


def check_feasible(instance: Instance, solution: Solution,
                   tol: float = BALANCE_TOL) -> list[str]:
    """Return every constraint violation, using absolute tolerance tol on
    balance equations and a relative tolerance on the stored cost."""
    F, T = instance.num_facilities, instance.num_periods
    for name, arr in (("x", solution.x), ("y", solution.y), ("s", solution.s)):
        if arr.shape != (F, T):
            raise ValueError(f"{name} has shape {arr.shape}, expected ({F}, {T})")

    v = []
    x, y, s = solution.x, solution.y, solution.s
    cum = cumulative_demand(instance)
    labels = _labels(instance)

    for name, arr in (("x", x), ("s", s)):
        for i, t in zip(*np.nonzero(arr < -tol)):
            v.append(f"{name}[{labels[i]}, t{t + 1}] negative")
    for i, t in zip(*np.nonzero(np.abs(y * (1.0 - y)) > tol)):
        v.append(f"y[{labels[i]}, t{t + 1}] not binary")

    # Outflow: a retailer's demand, else its children's inflows added in
    # ascending facility order.
    out = np.zeros((F, T))
    np.add.at(out, instance.parent[1:], x[1:])
    out[1 + instance.num_warehouses:] = instance.demand
    prev = np.zeros((F, T))
    prev[:, 1:] = s[:, :-1]
    faults = np.stack([np.abs(prev + x - out - s) > tol,
                       x > cum[:, :, -1] * y + tol,
                       (x > tol) & (y < 1.0 - tol)], axis=2)
    what = ("balance violated", "setup violated", "open shipment without setup")
    for i, t, c in zip(*np.nonzero(faults)):
        v.append(f"{what[c]} at {labels[i]}, t{t + 1}")

    recomputed = evaluate_cost(instance, solution)
    if abs(solution.cost - recomputed) > COST_REL_TOL * max(1.0, abs(recomputed)):
        v.append(f"stored cost {solution.cost} != recomputed {recomputed}")
    return v


def from_routes(instance: Instance, routes: RouteAssignment) -> Solution:
    """Accumulate a full solution from per-demand route triples."""
    F, T = instance.num_facilities, instance.num_periods
    x = np.zeros((F, T))
    s = np.zeros((F, T))
    path = instance.path.tolist()
    for r in range(instance.num_retailers):
        for t in range(T):
            qty = float(instance.demand[r, t])
            if qty == 0.0:
                continue
            if (r, t) not in routes:
                raise ValueError(f"no route for demand of retailer {r} at period {t + 1}")
            k0, k1, k2 = routes[(r, t)]
            if not 0 <= k0 <= k1 <= k2 <= t:
                raise ValueError(f"invalid route ordering {(k0, k1, k2)} for "
                                 f"retailer {r}, period {t + 1}")
            # Each facility on the retailer's path holds the demand from
            # its inbound period until the next level's.
            for fac, k, k_next in zip(path[r], (k0, k1, k2), (k1, k2, t)):
                x[fac, k] += qty
                s[fac, k:k_next] += qty
    y = (x > 0).astype(float)
    sol = Solution(x=x, y=y, s=s, cost=0.0)
    sol.cost = evaluate_cost(instance, sol)
    return sol


def write_solution_csv(instance: Instance, solution: Solution) -> str:
    buf = io.StringIO()
    buf.write("facility,period,x,y,s\n")
    for i, lbl in enumerate(_labels(instance)):
        for t in range(instance.num_periods):
            buf.write(f"{lbl},{t + 1},{float(solution.x[i, t])!r},"
                      f"{int(round(solution.y[i, t]))},{float(solution.s[i, t])!r}\n")
    buf.write(f"cost,{float(solution.cost)!r}\n")
    return buf.getvalue()
