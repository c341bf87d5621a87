"""The model builders, removals and cut rows as they were before models
became column tables: dict-based build_std, build_mc and build_3lf,
apply_removals and add_cuts_to_model, with the dataclass model they
filled. The reference that tests/test_model_reference.py compares the
array-backed model against. Kept unchanged on purpose."""

from __future__ import annotations

import math
from dataclasses import dataclass

from lotforge.cuts import Cut
from lotforge.formulations import Constraint, VarDecl, VarId
from lotforge.instance import Instance, cumulative_demand, facility_keys, facility_label
from lotforge.preprocess import RemovalSet

INF = math.inf


@dataclass
class MipModel:
    kind: str  # 'STD', 'MC' or '3LF'
    variables: list[VarDecl]
    objective: dict[VarId, float]
    constraints: list[Constraint]

    def bounds(self) -> dict[VarId, VarDecl]:
        return {d.var: d for d in self.variables}

    def check(self) -> None:
        declared = {d.var for d in self.variables}
        for var in self.objective:
            if var not in declared:
                raise ValueError(f"objective references undeclared {var.name()}")
        for con in self.constraints:
            for var in con.coefs:
                if var not in declared:
                    raise ValueError(f"row {con.name} references undeclared {var.name()}")


def _y_vars(instance: Instance) -> list[VarDecl]:
    return [VarDecl(VarId("y", b, idx, k), 0.0, 1.0, True)
            for b, idx in facility_keys(instance) for k in range(instance.num_periods)]


def _setup_objective(instance: Instance) -> dict[VarId, float]:
    return {VarId("y", b, idx, k): float(instance.setup_cost[fac, k])
            for fac, (b, idx) in enumerate(facility_keys(instance))
            for k in range(instance.num_periods)}


def build_std(instance: Instance) -> MipModel:
    cum = cumulative_demand(instance)
    T = instance.num_periods
    keys = facility_keys(instance)
    decls: list[VarDecl] = []
    obj: dict[VarId, float] = {}
    cons: list[Constraint] = []

    for fac, (b, idx) in enumerate(keys):
        for k in range(T):
            decls.append(VarDecl(VarId("x", b, idx, k), 0.0, cum.tail(fac, k), False))
            decls.append(VarDecl(VarId("s", b, idx, k), 0.0, INF, False))
    decls.extend(_y_vars(instance))

    for fac, (b, idx) in enumerate(keys):
        for k in range(T):
            obj[VarId("y", b, idx, k)] = float(instance.setup_cost[fac, k])
            hc = float(instance.holding_cost[fac, k])
            if hc:
                obj[VarId("s", b, idx, k)] = hc

    children: list[list[tuple[int, int]]] = [[] for _ in keys]
    for j, parent in enumerate(instance.parent.tolist()[1:], start=1):
        children[parent].append(keys[j])
    for fac, (b, idx) in enumerate(keys):
        lbl = facility_label(b, idx)
        for t in range(T):
            coefs = {VarId("x", b, idx, t): 1.0, VarId("s", b, idx, t): -1.0}
            if t > 0:
                coefs[VarId("s", b, idx, t - 1)] = 1.0
            rhs = 0.0
            if b < 2:
                for jb, jidx in children[fac]:
                    coefs[VarId("x", jb, jidx, t)] = -1.0
            else:
                rhs = float(instance.demand[idx, t])
            cons.append(Constraint(f"bal_{lbl}_t{t + 1}", coefs, "=", rhs))
        for t in range(T):
            coefs = {VarId("x", b, idx, t): 1.0,
                     VarId("y", b, idx, t): -cum.tail(fac, t)}
            cons.append(Constraint(f"setup_{lbl}_t{t + 1}", coefs, "<=", 0.0))

    model = MipModel("STD", decls, obj, cons)
    model.check()
    return model


def _paths(instance: Instance):
    """Per retailer r: its facility index, the facilities of its path from
    the plant (0, parent, itself) and the ordinals of those facilities."""
    for r in range(instance.num_retailers):
        fac = instance.retailer(r)
        path = (0, int(instance.parent[fac]), fac)
        yield r, fac, path, [int(instance.ordinal[a]) for a in path]


def build_mc(instance: Instance) -> MipModel:
    T = instance.num_periods
    decls: list[VarDecl] = list(_y_vars(instance))
    obj = _setup_objective(instance)
    cons: list[Constraint] = []

    for r, fac, path, ords in _paths(instance):
        hold = instance.holding_cost[list(path)]
        for t in range(T):
            d = float(instance.demand[r, t])
            for k in range(t + 1):
                for b in range(3):
                    decls.append(VarDecl(VarId("w", b, r, k, t), 0.0, d, False))
                    if k < t:
                        decls.append(VarDecl(VarId("sig", b, r, k, t), 0.0, INF, False))
                        hc = float(hold[b][k])
                        if hc:
                            obj[VarId("sig", b, r, k, t)] = hc

        for t in range(T):
            d = float(instance.demand[r, t])
            for k in range(t + 1):
                # Commodity balance per level; sigma at k = t is identically
                # zero (stock held past the demand period is useless) and is
                # simply not a variable.
                for b in range(3):
                    coefs = {VarId("w", b, r, k, t): 1.0}
                    if k > 0:
                        coefs[VarId("sig", b, r, k - 1, t)] = 1.0
                    rhs = 0.0
                    if b < 2:
                        coefs[VarId("w", b + 1, r, k, t)] = -1.0
                        if k < t:
                            coefs[VarId("sig", b, r, k, t)] = -1.0
                    else:
                        if k < t:
                            coefs[VarId("sig", b, r, k, t)] = -1.0
                        else:
                            rhs = d
                    cons.append(Constraint(f"mcbal{b}_r{r}_k{k + 1}_t{t + 1}",
                                           coefs, "=", rhs))
                for b in range(3):
                    coefs = {VarId("w", b, r, k, t): 1.0}
                    if d:
                        coefs[VarId("y", b, ords[b], k)] = -d
                    cons.append(Constraint(f"mcsetup{b}_r{r}_k{k + 1}_t{t + 1}",
                                           coefs, "<=", 0.0))

    model = MipModel("MC", decls, obj, cons)
    model.check()
    return model


def build_3lf(instance: Instance) -> MipModel:
    cum = cumulative_demand(instance)
    T = instance.num_periods
    decls: list[VarDecl] = []
    cons: list[Constraint] = []

    for r, fac, _, _ in _paths(instance):
        for b in range(3):
            for t in range(T):
                decls.append(VarDecl(VarId("x3", b, r, t), 0.0, cum.tail(fac, t), False))
                decls.append(VarDecl(VarId("s3", b, r, t), 0.0, INF, False))
    decls.extend(_y_vars(instance))
    obj = _setup_objective(instance)

    for r, fac, path, ords in _paths(instance):
        hold = instance.holding_cost[list(path)]
        for b in range(3):
            for t in range(T):
                hc = float(hold[b][t])
                if hc:
                    obj[VarId("s3", b, r, t)] = hc
                coefs = {VarId("x3", b, r, t): 1.0, VarId("s3", b, r, t): -1.0}
                if t > 0:
                    coefs[VarId("s3", b, r, t - 1)] = 1.0
                rhs = 0.0
                if b < 2:
                    coefs[VarId("x3", b + 1, r, t)] = -1.0
                else:
                    rhs = float(instance.demand[r, t])
                cons.append(Constraint(f"bal3_{b}_r{r}_t{t + 1}", coefs, "=", rhs))
                setup = {VarId("x3", b, r, t): 1.0,
                         VarId("y", b, ords[b], t): -cum.tail(fac, t)}
                cons.append(Constraint(f"setup3_{b}_r{r}_t{t + 1}", setup, "<=", 0.0))

    model = MipModel("3LF", decls, obj, cons)
    model.check()
    return model


def apply_removals(mc_model: MipModel, removals: RemovalSet) -> MipModel:
    """Fix removed w2 variables to zero by zeroing their upper bounds.

    Variables are kept (with zero bounds) so exported LP files keep a
    stable name set."""
    if mc_model.kind != "MC":
        raise ValueError(f"expected an MC model, got {mc_model.kind}")
    fixed = {("w", 2, r, k, t) for r, k, t in removals.triples}
    decls = []
    for decl in mc_model.variables:
        var = decl.var
        if (var.family, var.b, var.idx, var.k, var.t) in fixed:
            decls.append(VarDecl(var, 0.0, 0.0, decl.binary))
        else:
            decls.append(decl)
    return MipModel(mc_model.kind, decls, mc_model.objective, mc_model.constraints)


def add_cuts_to_model(model: MipModel, cuts: list[Cut]) -> MipModel:
    """New model with the cut pool appended as named >= rows."""
    rows = list(model.constraints)
    for n, cut in enumerate(cuts):
        rows.append(Constraint(f"cut_{cut.family}_{n}", dict(cut.coefs),
                               cut.sense, cut.rhs))
    return MipModel(model.kind, model.variables, model.objective, rows)
