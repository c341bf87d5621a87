"""Exact uncapacitated lot-sizing (Wagner-Whitin style DP), batched.

One call solves a batch of independent single-facility problems: inputs
of shape (T,) give one plan, inputs of shape (B, T) give B plans with
the same leading axis. The O(T^2) recursion over production-block start
periods runs with prefix sums; the loop over the block end t is Python,
and each step is vectorised over the batch and over the block start k.

A setup is charged only when the selected block actually ships a
positive quantity, so zero-demand horizons cost nothing. Ties between
block starts are broken toward the earliest period, making plans
deterministic and independent of the batch they are solved in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class UlsPlan:
    produce: np.ndarray    # quantity produced per period, (T,) or (B, T)
    setup: np.ndarray      # binary setup indicators, same shape
    cost: float | np.ndarray  # float for (T,) inputs, (B,) otherwise


def solve_uls(demand, setup_cost, holding_cost) -> UlsPlan:
    d = np.asarray(demand, dtype=float)
    sc = np.asarray(setup_cost, dtype=float)
    hc = np.asarray(holding_cost, dtype=float)
    if d.ndim not in (1, 2) or sc.shape != d.shape or hc.shape != d.shape:
        raise ValueError("demand, setup_cost and holding_cost must share "
                         "a (T,) or (B, T) shape")
    if not all(np.isfinite(a).all() and (a >= 0).all() for a in (d, sc, hc)):
        raise ValueError("inputs must be finite and nonnegative")
    single = d.ndim == 1
    # Period-major (T, B) views: row t holds period t of every facility.
    d, sc, hc = (a[:, None] if single else a.T for a in (d, sc, hc))
    T, B = d.shape

    # Hcum[t] = holding cost of carrying one unit from period 0 up to t;
    # serving d[l] from period k costs d[l] * (Hcum[l] - Hcum[k]).
    Hcum = np.zeros((T, B))
    hc[:-1].cumsum(axis=0, out=Hcum[1:])
    Dcum = np.zeros((T + 1, B))                 # Dcum[t] = sum d[:t]
    d.cumsum(axis=0, out=Dcum[1:])
    Gcum = np.zeros((T + 1, B))                 # Gcum[t] = sum d[l]*Hcum[l], l<t
    (d * Hcum).cumsum(axis=0, out=Gcum[1:])

    # best[t] = cheapest plan for periods < t; start[t] = 0-based first
    # period of its last block (argmin keeps the earliest on ties).
    best = np.zeros((T + 1, B))
    start = np.zeros((T + 1, B), dtype=np.intp)
    for t in range(1, T + 1):
        # cost = (best[k-1] + hold) + setup, built in place: + commutes.
        block = Dcum[t] - Dcum[:t]
        cost = Gcum[t] - Gcum[:t]
        cost -= Hcum[:t] * block
        cost += best[:t]
        cost += np.where(block > 0, sc[:t], 0.0)
        start[t] = cost.argmin(axis=0)
        best[t] = cost.min(axis=0)

    # Walk the blocks back from T; a finished column stays at t = 0,
    # where it adds a zero block to period 0.
    produce = np.zeros((T, B))
    cols = np.arange(B)
    t = np.full(B, T)
    while t.any():
        k = start[t, cols]
        produce[k, cols] += Dcum[t, cols] - Dcum[k, cols]
        t = k
    produce = produce.T
    setup = (produce > 0).astype(float)
    if single:
        return UlsPlan(produce=produce[0], setup=setup[0], cost=float(best[T, 0]))
    return UlsPlan(produce=produce, setup=setup, cost=best[T])
