"""Shared builders for randomized tests.

Random instances use integer setup costs and holding costs that are
multiples of 0.25, so every solution cost is an exact binary float and
independently computed optima can be compared with ==.
"""

from __future__ import annotations

import importlib.util
import math
import shutil
import sys

import numpy as np
from hypothesis import strategies as st

from lotforge import cuts
from lotforge.formulations import MipModel, VarId, VarValueMap
from lotforge.instance import Instance
from lotforge.solution import RouteAssignment

# (criterion name, "PASS" / "FAIL" / "SKIP") tuples filled in by the
# acceptance tests and echoed after the pytest summary.
ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def _lp_solve_command() -> list[str] | None:
    """argv prefix of the LP-file solver: the console script when it is
    on PATH, else the module run by this interpreter when scipy imports."""
    script = shutil.which("lotforge-lp-solve")
    if script is not None:
        return [script]
    if importlib.util.find_spec("scipy") is not None:
        return [sys.executable, "-m", "lotforge.lpsolve"]
    return None


LP_SOLVE_CMD = _lp_solve_command()


# Parser fuzzing: each edit removes `cut` characters at position pos
# (taken modulo the text length) and inserts `piece` there.
_PIECES = ["", "0", "7", "-", "+", ".", "e", " ", "\n", ":", "=", ">=", "#",
           "x", "1x", "y_r1", "9" * 25, "inf", "nan", "Bounds", "Binaries",
           "End", "ASSIGN", "R", "\r", "\u2028", "\xa0", "\x0c", " :", "_r01"]
TEXT_EDITS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 6),
                                st.sampled_from(_PIECES)), min_size=1, max_size=4)


def apply_edits(text: str, edits) -> str:
    for pos, cut, piece in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + piece + text[i + cut:]
    return text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, status in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"  {status} {name}")


def tiny_instance(rng: np.random.Generator, max_warehouses: int = 2,
                  max_retailers: int = 3, max_periods: int = 4,
                  demand_density: float = 0.6) -> Instance:
    W = int(rng.integers(1, max_warehouses + 1))
    R = int(rng.integers(W, max_retailers + 1))
    T = int(rng.integers(2, max_periods + 1))
    assign = np.concatenate([np.arange(W), rng.integers(0, W, size=R - W)])
    demand = rng.integers(1, 30, size=(R, T))
    demand[rng.random((R, T)) > demand_density] = 0
    if demand.sum() == 0:
        demand[0, T - 1] = int(rng.integers(1, 30))
    F = 1 + W + R
    setup = np.empty((F, T))
    setup[0] = rng.integers(50, 400, size=T)
    setup[1:1 + W] = rng.integers(20, 150, size=(W, T))
    setup[1 + W:] = rng.integers(1, 60, size=(R, T))
    holding = rng.integers(0, 12, size=(F, T)) * 0.25
    return Instance(num_periods=T, num_warehouses=W, num_retailers=R,
                    retailer_warehouse=assign, demand=demand,
                    setup_cost=setup, holding_cost=holding)


def random_routes(instance: Instance, rng: np.random.Generator) -> RouteAssignment:
    """One uniformly random admissible route triple per positive demand."""
    routes: RouteAssignment = {}
    for r in range(instance.num_retailers):
        for t in range(instance.num_periods):
            if instance.demand[r, t] <= 0:
                continue
            k2 = int(rng.integers(0, t + 1))
            k1 = int(rng.integers(0, k2 + 1))
            k0 = int(rng.integers(0, k1 + 1))
            routes[(r, t)] = (k0, k1, k2)
    return routes


def lf3_point_from_routes(instance: Instance, routes: RouteAssignment) -> VarValueMap:
    """Retailer-disaggregated point (x3, s3 and shared y) from routes."""
    T, R = instance.num_periods, instance.num_retailers
    point: VarValueMap = {}
    for r in range(R):
        for b in range(3):
            for k in range(T):
                point[VarId("x3", b, r, k)] = 0.0
                point[VarId("s3", b, r, k)] = 0.0
    y = np.zeros((instance.num_facilities, T))
    for (r, t), (k0, k1, k2) in routes.items():
        qty = float(instance.demand[r, t])
        if qty == 0.0:
            continue
        point[VarId("x3", 0, r, k0)] += qty
        point[VarId("x3", 1, r, k1)] += qty
        point[VarId("x3", 2, r, k2)] += qty
        for k in range(k0, k1):
            point[VarId("s3", 0, r, k)] += qty
        for k in range(k1, k2):
            point[VarId("s3", 1, r, k)] += qty
        for k in range(k2, t):
            point[VarId("s3", 2, r, k)] += qty
        fac = instance.retailer(r)
        y[(0, instance.parent[fac], fac), (k0, k1, k2)] = 1.0
    for fac in range(instance.num_facilities):
        b, idx = int(instance.level[fac]), int(instance.ordinal[fac])
        for k in range(T):
            point[VarId("y", b, idx, k)] = float(y[fac, k])
    return point


def convex_combination(points: list[VarValueMap],
                       weights: np.ndarray) -> VarValueMap:
    keys = set()
    for p in points:
        keys.update(p)
    return {k: float(sum(w * p.get(k, 0.0) for w, p in zip(weights, points)))
            for k in keys}


def one_round_cuts(instance: Instance, model: MipModel, seed: int = 0) -> list[cuts.Cut]:
    """The cuts of one round of all six families, separated at a fractional
    point drawn once from the seed and replayed: each variable uniform in
    [0, ub], or in [0, 10] when ub is infinite."""
    rng = np.random.default_rng(seed)
    point = {d.var: float(rng.random() * (d.ub if d.ub != math.inf else 10.0))
             for d in model.variables}
    config = cuts.CutConfig(max_rounds=1, two_level_every=1, three_level_every=1)
    return cuts.cutting_plane_loop(instance, model, lambda _model: point, config).cuts


def one_cut_round(instance: Instance, model: MipModel, seed: int = 0) -> MipModel:
    """The model with the cuts of one_round_cuts appended."""
    return cuts.add_cuts_to_model(model, one_round_cuts(instance, model, seed))
