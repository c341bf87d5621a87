"""Exact brute-force solvers for desk-scale instances.

Both solvers rest on the same observation: with setups fixed, the
uncapacitated network has no coupling between demands, so each demand
(retailer, period) independently takes its cheapest open route triple
(plant period k0 <= warehouse-inbound k1 <= retailer-inbound k2 <= due
period). solve_exact enumerates setup patterns level by level (plant
pattern, then per warehouse, then per retailer, which is exhaustive
because subtrees decouple once the upstream pattern is fixed).
solve_exact_routes is an independent cross-check that enumerates joint
route assignments directly with cost-bound pruning and never looks at
setup patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .solution import RouteAssignment, Solution, from_routes

DEFAULT_MAX_SETUP_BITS = 20
_INF = float("inf")

# Prohibitions are (retailer, retailer-inbound period k2, due period t).
Forbidden = frozenset[tuple[int, int, int]]


@dataclass(frozen=True)
class OracleConfig:
    max_setup_bits: int = DEFAULT_MAX_SETUP_BITS
    forbidden: Forbidden = frozenset()


class SizeGuardError(ValueError):
    pass


def _check_guard(instance: Instance, config: OracleConfig) -> None:
    bits = instance.num_facilities * instance.num_periods
    if bits > config.max_setup_bits:
        raise SizeGuardError(
            f"instance has {bits} setup bits, guard allows {config.max_setup_bits}")


def _hold_prefix(hc: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(hc)))


def _mask_setup_cost(sc: np.ndarray, mask: int, T: int) -> float:
    return sum(float(sc[k]) for k in range(T) if mask >> k & 1)


def solve_exact(instance: Instance, config: OracleConfig = OracleConfig()
                ) -> tuple[float, Solution, RouteAssignment]:
    """Globally optimal cost, witness solution and per-demand routes."""
    _check_guard(instance, config)
    T, W, R = instance.num_periods, instance.num_warehouses, instance.num_retailers
    hp = _hold_prefix(instance.holding_cost[0])
    hw = [_hold_prefix(instance.holding_cost[instance.warehouse(w)]) for w in range(W)]
    hr = [_hold_prefix(instance.holding_cost[instance.retailer(r)]) for r in range(R)]
    sc = instance.setup_cost
    forbidden = config.forbidden

    best_total = _INF
    best_patterns = None  # (plant mask, warehouse masks, retailer masks)

    def retailer_best(r: int, cw: list[float]) -> tuple[float, int]:
        """Cheapest setup mask and total for one retailer given warehouse
        arrival costs cw[k2]."""
        rfac = instance.retailer(r)
        demands = [(t, float(instance.demand[r, t]))
                   for t in range(T) if instance.demand[r, t] > 0]
        best_cost, best_mask = _INF, 0
        for mask in range(1 << T):
            cost = _mask_setup_cost(sc[rfac], mask, T)
            if cost >= best_cost:
                continue
            for t, d in demands:
                unit = _INF
                for k2 in range(t + 1):
                    if not mask >> k2 & 1 or cw[k2] == _INF:
                        continue
                    if (r, k2, t) in forbidden:
                        continue
                    c = cw[k2] + hr[r][t] - hr[r][k2]
                    if c < unit:
                        unit = c
                if unit == _INF:
                    cost = _INF
                    break
                cost += d * unit
            if cost < best_cost:
                best_cost, best_mask = cost, mask
        return best_cost, best_mask

    def warehouse_best(w: int, cp: list[float]) -> tuple[float, int, list[int]]:
        wfac = instance.warehouse(w)
        retailers = instance.retailers_of(w)
        best_cost, best_mask, best_rmasks = _INF, 0, [0] * len(retailers)
        for mask in range(1 << T):
            cost = _mask_setup_cost(sc[wfac], mask, T)
            if cost >= best_cost:
                continue
            cw = []
            for k2 in range(T):
                c = _INF
                for k1 in range(k2 + 1):
                    if mask >> k1 & 1 and cp[k1] != _INF:
                        c = min(c, cp[k1] + hw[w][k2] - hw[w][k1])
                cw.append(c)
            rmasks = []
            for r in retailers:
                rc, rm = retailer_best(r, cw)
                cost += rc
                rmasks.append(rm)
                if cost >= best_cost:
                    break
            if cost < best_cost:
                best_cost, best_mask, best_rmasks = cost, mask, rmasks
        return best_cost, best_mask, best_rmasks

    for pmask in range(1 << T):
        total = _mask_setup_cost(sc[0], pmask, T)
        if total >= best_total:
            continue
        cp = []
        for k1 in range(T):
            c = _INF
            for k0 in range(k1 + 1):
                if pmask >> k0 & 1:
                    c = min(c, hp[k1] - hp[k0])
            cp.append(c)
        wmasks, rmasks_all = [], {}
        for w in range(W):
            wc, wm, rms = warehouse_best(w, cp)
            total += wc
            wmasks.append(wm)
            for r, rm in zip(instance.retailers_of(w), rms):
                rmasks_all[r] = rm
            if total >= best_total:
                break
        if total < best_total:
            best_total = total
            best_patterns = (pmask, list(wmasks), dict(rmasks_all))

    if best_patterns is None:
        raise RuntimeError("no feasible setup pattern found")

    routes = _routes_for_patterns(instance, best_patterns, forbidden)
    solution = from_routes(instance, routes)
    return float(best_total), solution, routes


def _routes_for_patterns(instance, patterns, forbidden) -> RouteAssignment:
    """Cheapest route per demand over the chosen open setups; ties go to
    the lexicographically smallest (k0, k1, k2)."""
    pmask, wmasks, rmasks = patterns
    T = instance.num_periods
    hp = _hold_prefix(instance.holding_cost[0])
    routes: RouteAssignment = {}
    for r in range(instance.num_retailers):
        rfac = instance.retailer(r)
        wfac = instance.parent[rfac]
        w = int(instance.ordinal[wfac])
        hw = _hold_prefix(instance.holding_cost[wfac])
        hr = _hold_prefix(instance.holding_cost[rfac])
        for t in range(T):
            if instance.demand[r, t] <= 0:
                continue
            best = None
            for k0 in range(t + 1):
                if not pmask >> k0 & 1:
                    continue
                for k1 in range(k0, t + 1):
                    if not wmasks[w] >> k1 & 1:
                        continue
                    for k2 in range(k1, t + 1):
                        if not rmasks[r] >> k2 & 1 or (r, k2, t) in forbidden:
                            continue
                        unit = (hp[k1] - hp[k0]) + (hw[k2] - hw[k1]) + (hr[t] - hr[k2])
                        cand = (unit, (k0, k1, k2))
                        if best is None or cand < best:
                            best = cand
            if best is None:
                raise RuntimeError(f"pattern cannot serve retailer {r}, period {t + 1}")
            routes[(r, t)] = best[1]
    return routes


def solve_exact_routes(instance: Instance, config: OracleConfig = OracleConfig()
                       ) -> float:
    """Optimal cost by exhaustive search over joint route assignments.

    Independent of solve_exact: setups are implied by the routes in use
    and charged once per (facility, period). Partial assignments are
    pruned against the incumbent, which cannot change the optimum.
    """
    _check_guard(instance, config)
    T = instance.num_periods
    hp = _hold_prefix(instance.holding_cost[0])
    forbidden = config.forbidden

    demands = []  # (retailer, t, qty, candidate routes sorted by holding cost)
    for r in range(instance.num_retailers):
        rfac = instance.retailer(r)
        wfac = int(instance.parent[rfac])
        hw = _hold_prefix(instance.holding_cost[wfac])
        hr = _hold_prefix(instance.holding_cost[rfac])
        for t in range(T):
            qty = float(instance.demand[r, t])
            if qty <= 0:
                continue
            options = []
            for k0 in range(t + 1):
                for k1 in range(k0, t + 1):
                    for k2 in range(k1, t + 1):
                        if (r, k2, t) in forbidden:
                            continue
                        hold = (hp[k1] - hp[k0]) + (hw[k2] - hw[k1]) + (hr[t] - hr[k2])
                        setups = ((0, k0), (wfac, k1), (rfac, k2))
                        options.append((qty * hold, setups))
            if not options:
                raise RuntimeError(f"demand ({r}, {t + 1}) has no admissible route")
            options.sort(key=lambda o: o[0])
            demands.append(options)

    best = _INF
    open_count: dict[tuple[int, int], int] = {}
    sc = instance.setup_cost

    def dfs(i: int, cost: float):
        nonlocal best
        if cost >= best:
            return
        if i == len(demands):
            best = cost
            return
        for hold_cost, setups in demands[i]:
            extra = hold_cost
            opened = []
            for fac, k in setups:
                if open_count.get((fac, k), 0) == 0:
                    extra += float(sc[fac, k])
                open_count[(fac, k)] = open_count.get((fac, k), 0) + 1
                opened.append((fac, k))
            dfs(i + 1, cost + extra)
            for fac, k in opened:
                open_count[(fac, k)] -= 1

    dfs(0, 0.0)
    return float(best)
