"""The benchmark's workloads: one op each, its output checks and its
output fingerprint.

Every op starts from instance file text and calls lotforge's public
functions through their modules (``fm.export_lp``, not a local alias),
so the traced run's wrappers see the benchmark's calls as well as the
library's own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable

from lotforge import cuts, formulations as fm, heuristic, lpsolve, preprocess, solution
from lotforge import instance as li
from lotforge.instance import DemandType, FixedCostType, InstanceSpec, NetworkShape

HEUR_ITERATIONS = 20
# Op i runs the heuristic with seed i % HEUR_SEEDS, so every op of a long
# run still has a committed fingerprint at the default instance seed.
HEUR_SEEDS = 8
# One round that separates all six families once. A second 3LF round was
# left out: it spends most of a minute inside HiGHS alone.
CUT_CONFIG = cuts.CutConfig(max_rounds=1, two_level_every=1, three_level_every=1)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_sizes(model: fm.MipModel) -> dict[str, int]:
    return {"vars": len(model.variables), "rows": len(model.constraints),
            "nnz": sum(len(con.coefs) for con in model.constraints)}


# --------------------------------------------------------------------------
# heur: read_instance, then heuristic.run (the `lotforge heur` path).

@dataclass
class HeurOutput:
    instance: Any
    seed: int
    result: heuristic.HeuristicResult


def heur_op(text: str, index: int) -> HeurOutput:
    inst = li.read_instance(text)
    seed = index % HEUR_SEEDS
    config = heuristic.HeuristicConfig(iterations=HEUR_ITERATIONS, seed=seed)
    return HeurOutput(inst, seed, heuristic.run(inst, config))


def heur_check(out: HeurOutput) -> list[str]:
    res = out.result
    problems = [f"infeasible: {v}" for v in
                solution.check_feasible(out.instance, res.best)[:3]]
    if res.best_cost != min(res.per_iteration_costs):
        problems.append(f"best_cost {res.best_cost!r} is not the minimum "
                        f"iteration cost {min(res.per_iteration_costs)!r}")
    recomputed = solution.evaluate_cost(out.instance, res.best)
    if recomputed != res.best_cost:
        problems.append(f"best solution costs {recomputed!r}, "
                        f"reported {res.best_cost!r}")
    return problems


def heur_fingerprint(out: HeurOutput) -> dict:
    return {"heuristic_seed": out.seed, "best_cost": out.result.best_cost,
            "per_iteration_costs": list(out.result.per_iteration_costs)}


def heur_sizes(out: HeurOutput) -> dict[str, int]:
    return {}


# --------------------------------------------------------------------------
# rootcut: `lotforge export --formulation std|3lf --cuts`, with the LP
# source making the calls `lotforge-lp-solve --relax` makes, in process.

@dataclass
class CutRun:
    instance: Any
    model: fm.MipModel
    result: cuts.CutLoopResult
    points: list  # every relaxation point the loop was given
    final: fm.MipModel
    lp_text: str


def _lp_source(points: list):
    def source(model: fm.MipModel):
        parsed = fm.parse_lp(fm.export_lp(model))
        solved = lpsolve.solve_model(parsed, relax=True)
        point = None if solved is None else solved[1]
        points.append(point)
        return point
    return source


def rootcut_op(text: str, index: int) -> dict[str, CutRun]:
    runs = {}
    for kind, build in (("STD", "build_std"), ("3LF", "build_3lf")):
        inst = li.read_instance(text)
        model = getattr(fm, build)(inst)
        points: list = []
        result = cuts.cutting_plane_loop(inst, model, _lp_source(points), CUT_CONFIG)
        final = cuts.add_cuts_to_model(model, result.cuts)
        runs[kind] = CutRun(inst, model, result, points, final, fm.export_lp(final))
    return runs


def rootcut_check(out: dict[str, CutRun]) -> list[str]:
    problems = []
    tol = CUT_CONFIG.violation_tol
    for kind, run in out.items():
        if run.result.status != "ok":
            problems.append(f"{kind}: loop status {run.result.status}")
            continue
        # With one round every cut comes from the first (only) point.
        point = run.points[-1]
        for cut in run.result.cuts:
            slack = cuts.eval_inequality(cut, point)
            if not slack < -tol:
                problems.append(f"{kind}: cut {cut.family} {cut.params!r} has "
                                f"slack {slack!r} at its point, not below {-tol}")
                break
        objective = fm.objective_value(run.model, point)
        if run.result.objective != objective:
            problems.append(f"{kind}: loop objective {run.result.objective!r} "
                            f"!= objective at its point {objective!r}")
    return problems


def rootcut_fingerprint(out: dict[str, CutRun]) -> dict:
    fp = {}
    for kind, run in out.items():
        keys = sorted(cut.key() for cut in run.result.cuts)
        fp[kind] = {"cuts": len(keys), "cut_keys_sha256": _sha256(repr(keys)),
                    "objective": run.result.objective}
    return fp


def rootcut_sizes(out: dict[str, CutRun]) -> dict[str, int]:
    total = {"vars": 0, "rows": 0, "nnz": 0}
    for run in out.values():
        for key, n in model_sizes(run.final).items():
            total[key] += n
    return total


# --------------------------------------------------------------------------
# mcpre: `lotforge pre -o report.csv --lp-out model.lp`, then the solver
# side's read of that LP file.

@dataclass
class McOutput:
    instance: Any
    removals: preprocess.RemovalSet
    report: str
    model: fm.MipModel
    lp_text: str
    parsed: fm.MipModel


def mcpre_op(text: str, index: int) -> McOutput:
    inst = li.read_instance(text)
    removals = preprocess.compute_removals(inst)
    report = preprocess.removal_report_csv(removals)
    model = preprocess.apply_removals(fm.build_mc(inst), removals)
    lp_text = fm.export_lp(model)
    return McOutput(inst, removals, report, model, lp_text, fm.parse_lp(lp_text))


def _rows(model: fm.MipModel) -> dict[str, tuple]:
    return {con.name: (con.coefs, con.sense, con.rhs) for con in model.constraints}


def mcpre_check(out: McOutput) -> list[str]:
    # parse_lp reorders variables, so models are compared as sets/maps.
    built, parsed = out.model, out.parsed
    problems = []
    if parsed.kind != built.kind:
        problems.append(f"parsed kind {parsed.kind} != {built.kind}")
    if len(parsed.variables) != len(built.variables) \
            or parsed.bounds() != built.bounds():
        problems.append("parsed variables or bounds differ from the built model")
    if parsed.objective != built.objective:
        problems.append("parsed objective differs from the built model")
    if len(parsed.constraints) != len(built.constraints) \
            or _rows(parsed) != _rows(built):
        problems.append("parsed rows differ from the built model")
    T = out.instance.num_periods
    triples = out.removals.triples
    if any(t + 1 < T and (r, k, t + 1) not in triples for r, k, t in triples):
        problems.append("removal set is not closed upward in t")
    return problems


def mcpre_fingerprint(out: McOutput) -> dict:
    return {**model_sizes(out.model), "removed": out.removals.num_removed,
            "report_sha256": _sha256(out.report), "lp_sha256": _sha256(out.lp_text)}


def mcpre_sizes(out: McOutput) -> dict[str, int]:
    return model_sizes(out.model)


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """op(text, i) is the i-th op of a run on instance text
    texts[i % instances]; ops i and i + cycle give the same output."""

    name: str
    spec: InstanceSpec  # seed replaced by one derived from --seed
    op: Callable[[str, int], Any]
    check: Callable[[Any], list[str]]
    fingerprint: Callable[[Any], dict]
    sizes: Callable[[Any], dict[str, int]]
    instances: int = 1
    cycle: int = 1
    needs_scipy: bool = False

    def texts(self, seed: int) -> list[str]:
        """Instance file texts of a run; seeds of different runs never overlap."""
        return [li.write_instance(li.generate(
                    replace(self.spec, seed=seed * self.instances + j)))
                for j in range(self.instances)]


def _spec(r: int, w: int, t: int, shape: NetworkShape) -> InstanceSpec:
    return InstanceSpec(num_retailers=r, num_warehouses=w, num_periods=t,
                        demand_type=DemandType.DYNAMIC,
                        fixed_cost_type=FixedCostType.DYNAMIC, network_shape=shape)


WORKLOADS = {
    "heur": Workload("heur", _spec(200, 20, 30, NetworkShape.BALANCED),
                     heur_op, heur_check, heur_fingerprint, heur_sizes,
                     cycle=HEUR_SEEDS),
    # Op time depends on the instance (cuts found, LP work), so a run cycles
    # through four instances and its median does not rest on one of them.
    "rootcut": Workload("rootcut", _spec(100, 10, 15, NetworkShape.UNBALANCED),
                        rootcut_op, rootcut_check, rootcut_fingerprint,
                        rootcut_sizes, instances=4, cycle=4, needs_scipy=True),
    "mcpre": Workload("mcpre", _spec(50, 5, 30, NetworkShape.BALANCED),
                      mcpre_op, mcpre_check, mcpre_fingerprint, mcpre_sizes),
}
