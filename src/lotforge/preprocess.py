"""Cost-based elimination of retailer-shipment commodity variables.

If storing a demand at the retailer from period k to its due period t
costs at least as much as storing it at the warehouse and paying the
retailer setup at t, the shipment variable w2[r, k, t] can be fixed to
zero without losing any optimal solution; the same then holds for all
later due periods t' >= t.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .formulations import FAMILIES, MipModel
from .instance import Instance


@dataclass(frozen=True)
class RemovalSet:
    """Triples (retailer, source period k, due period t), 0-based, k < t,
    marking w2 variables fixed to zero. Closed upward in t per (r, k)."""

    triples: frozenset[tuple[int, int, int]]
    num_removed: int
    num_candidates: int

    @property
    def reduction_percent(self) -> float:
        if self.num_candidates == 0:
            return 0.0
        return 100.0 * self.num_removed / self.num_candidates


def compute_removals(instance: Instance) -> RemovalSet:
    T, R = instance.num_periods, instance.num_retailers
    triples = set()
    for r in range(R):
        rfac = instance.retailer(r)
        wfac = instance.parent[rfac]
        hr = np.concatenate(([0.0], np.cumsum(instance.holding_cost[rfac])))
        hw = np.concatenate(([0.0], np.cumsum(instance.holding_cost[wfac])))
        for k in range(T - 1):
            # Smallest due period t > k where retailer-side storage is no
            # cheaper; the upward closure then covers every later t'.
            for t in range(k + 1, T):
                d = float(instance.demand[r, t])
                lhs = d * (hr[t] - hr[k])
                rhs = d * (hw[t] - hw[k]) + float(instance.setup_cost[rfac, t])
                if lhs >= rhs:
                    for tp in range(t, T):
                        triples.add((r, k, tp))
                    break
    pot = R * T * (T - 1) // 2
    return RemovalSet(frozenset(triples), len(triples), pot)


def apply_removals(mc_model: MipModel, removals: RemovalSet) -> MipModel:
    """Fix removed w2 variables to zero by zeroing their bounds.

    Variables are kept (with zero bounds) so exported LP files keep a
    stable name set."""
    if mc_model.kind != "MC":
        raise ValueError(f"expected an MC model, got {mc_model.kind}")
    n = mc_model.declared
    w2 = np.flatnonzero((mc_model.family[:n] == FAMILIES.index("w")) & (mc_model.b[:n] == 2))
    keys = zip(*(a[w2].tolist() for a in (mc_model.idx, mc_model.k, mc_model.t)))
    fixed = [j for j, key in zip(w2.tolist(), keys) if key in removals.triples]
    lb, ub = mc_model.lb.copy(), mc_model.ub.copy()
    lb[fixed] = ub[fixed] = 0.0
    return mc_model.replace(lb=lb, ub=ub)


def removal_report_csv(removals: RemovalSet) -> str:
    """CSV rows retailer,k,t_min (1-based periods) plus an np,pot,red line."""
    first: dict[tuple[int, int], int] = {}
    for r, k, t in sorted(removals.triples):
        key = (r, k)
        if key not in first or t < first[key]:
            first[key] = t
    buf = io.StringIO()
    buf.write("retailer,k,t_min\n")
    for (r, k), t in sorted(first.items()):
        buf.write(f"{r},{k + 1},{t + 1}\n")
    buf.write(f"np,pot,red\n{removals.num_removed},{removals.num_candidates},"
              f"{removals.reduction_percent!r}\n")
    return buf.getvalue()
