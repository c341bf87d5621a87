"""Cost-based elimination of retailer-shipment commodity variables.

If storing a demand at the retailer from period k to its due period t
costs at least as much as storing it at the warehouse and paying the
retailer setup at t, the shipment variable w2[r, k, t] can be fixed to
zero without losing any optimal solution; the same then holds for all
later due periods t' >= t.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .formulations import FAMILIES, MipModel
from .instance import Instance


class RemovalSet:
    """The w2 variables fixed to zero, as one read-only (R, T) int array:
    first[r, k] is the first removed due period of retailer r's shipments
    from source period k, or T where none is removed (periods 0-based, so
    first[r, k] > k). The removed triples (r, k, t) are those with
    t >= first[r, k], so the set is closed upward in t by construction."""

    def __init__(self, first):
        self.first = np.array(first, dtype=np.intp)
        self.first.setflags(write=False)

    @cached_property
    def triples(self) -> frozenset[tuple[int, int, int]]:
        """The removed (retailer, source period k, due period t) triples."""
        removed = np.arange(self.first.shape[1]) >= self.first[:, :, None]
        return frozenset(zip(*(a.tolist() for a in np.nonzero(removed))))

    @property
    def num_removed(self) -> int:
        return int((self.first.shape[1] - self.first).sum())

    @property
    def num_candidates(self) -> int:
        """The (r, k, t) with k < t: every w2 variable that could be removed."""
        R, T = self.first.shape
        return R * T * (T - 1) // 2

    @property
    def reduction_percent(self) -> float:
        return 100.0 * self.num_removed / self.num_candidates if self.num_candidates else 0.0


def compute_removals(instance: Instance) -> RemovalSet:
    T, rfac = instance.num_periods, instance.retailer(np.arange(instance.num_retailers))
    # hr[r, k, t] and hw[r, k, t]: the holding cost from period k up to t at
    # retailer r and at its warehouse, as differences of cumulative costs.
    cum = (np.cumsum(np.pad(instance.holding_cost[fac], ((0, 0), (1, 0))), axis=1)[:, :T]
           for fac in (rfac, instance.parent[rfac]))
    hr, hw = (c[:, None, :] - c[:, :, None] for c in cum)
    d = instance.demand[:, None, :].astype(float)
    # Removed from the smallest due period t > k where retailer-side storage
    # is no cheaper; the upward closure then covers every later t'.
    removed = ((d * hr >= d * hw + instance.setup_cost[rfac][:, None, :])
               & (np.arange(T) > np.arange(T)[:, None]))
    return RemovalSet(np.where(removed.any(axis=2), removed.argmax(axis=2), T))


def apply_removals(mc_model: MipModel, removals: RemovalSet) -> MipModel:
    """Fix removed w2 variables to zero by zeroing their bounds.

    Variables are kept (with zero bounds) so exported LP files keep a
    stable name set."""
    if mc_model.kind != "MC":
        raise ValueError(f"expected an MC model, got {mc_model.kind}")
    w2 = np.flatnonzero((mc_model.family == FAMILIES.index("w")) & (mc_model.b == 2))
    fixed = w2[mc_model.t[w2] >= removals.first[mc_model.idx[w2], mc_model.k[w2]]]
    lb, ub = mc_model.lb.copy(), mc_model.ub.copy()
    lb[fixed] = ub[fixed] = 0.0
    return mc_model.replace(lb=lb, ub=ub)


def removal_report_csv(removals: RemovalSet) -> str:
    """CSV rows retailer,k,t_min (1-based periods) plus an np,pot,red line."""
    first = removals.first
    r, k = np.nonzero(first < first.shape[1])
    rows = zip(r.tolist(), k.tolist(), first[r, k].tolist())
    return ("retailer,k,t_min\n" + "".join(f"{a},{b + 1},{c + 1}\n" for a, b, c in rows)
            + f"np,pot,red\n{removals.num_removed},{removals.num_candidates},"
              f"{removals.reduction_percent!r}\n")
