"""The model builders, removals and cut rows as they were before models
became column tables and cut pools row blocks: dict-based build_std,
build_mc and build_3lf, apply_removals, the dict-per-cut construction of
the six families' cuts and add_cuts_to_model, with the dataclass model
they filled. The reference that tests/test_model_reference.py compares
the array-backed model against. Kept unchanged on purpose."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

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


# --------------------------------------------------------------------------
# Cut rows: the dict-per-cut construction that cut row blocks replaced.

@dataclass
class Cut:
    family: str  # SL_STD, TL_STD, THL_STD, SL_3LF, TL_3LF, THL_3LF
    params: tuple
    coefs: dict[VarId, float]
    rhs: float
    sense: str = ">="

    def key(self) -> tuple:
        return (self.family, self.params)


class _Row:
    """The variables VarId(family, b, idx, k) of one chain, built on access."""

    __slots__ = ("family", "b", "idx")

    def __init__(self, family: str, b: int, idx: int):
        self.family, self.b, self.idx = family, b, idx

    def __getitem__(self, k: int) -> VarId:
        return VarId(self.family, self.b, self.idx, k)


class _Chain(NamedTuple):
    """One row of period slots: slot k pairs flow variable x[k] with setup
    variable y[k], and d[k, l] is the demand the chain serves over k..l."""

    x: Sequence[VarId]
    y: Sequence[VarId]
    d: np.ndarray


def _std_chain(instance: Instance, cum, fac: int) -> _Chain:
    """Facility fac's own x and y in the standard space."""
    b, idx = int(instance.level[fac]), int(instance.ordinal[fac])
    return _Chain(_Row("x", b, idx), _Row("y", b, idx), cum.table[fac])


def _lf3_chain(instance: Instance, cum, r: int, b: int) -> _Chain:
    """Retailer r's level-b flow with the setup of its level-b predecessor
    on its path (plant, r's warehouse, r itself). 3LF chain r*3 + b."""
    fac = instance.retailer(r)
    pred = (0, instance.parent[fac], fac)[b]
    return _Chain(_Row("x3", b, r), _Row("y", b, int(instance.ordinal[pred])),
                  cum.table[fac])


def _bounds(split: tuple, l: int) -> tuple:
    """Tier i of a member with these split points covers periods
    bounds[i]..bounds[i + 1] - 1."""
    return (0, *(s + 1 for s in split), l + 1)


def _cut(family: str, key: tuple, l: int, split: tuple, tiers: tuple,
         masks: tuple, chains) -> Cut:
    """The cut of one family member.

    A tier is one chain with an int mask, or a list of chains with a tuple
    of masks. No chain occurs twice in a member, so every variable gets
    one term: d_{k,l} y_k for k in S, else x_k. The rhs is the demand of
    the first tier's chain over 0..l."""
    bounds = _bounds(split, l)
    coefs: dict[VarId, float] = {}
    for i, (tier, mask) in enumerate(zip(tiers, masks)):
        for c, S_mask in (zip(tier, mask) if isinstance(tier, list) else [(tier, mask)]):
            x, y, d = chains[c]
            for k in range(bounds[i], bounds[i + 1]):
                if S_mask >> k & 1:
                    coefs[y[k]] = d[k, l]
                else:
                    coefs[x[k]] = 1.0
    return Cut(family, key + (l, *split) + masks, coefs,
               float(chains[tiers[0]].d[0, l]))


def _std_chains(instance: Instance, cum) -> list[_Chain]:
    return [_std_chain(instance, cum, fac) for fac in range(instance.num_facilities)]


def _lf3_chains(instance: Instance, cum) -> list[_Chain]:
    return [_lf3_chain(instance, cum, r, b)
            for r in range(instance.num_retailers) for b in range(3)]


def make_single_level_std_cut(instance, cum, fac, l, S_mask) -> Cut:
    return _cut("SL_STD", facility_keys(instance)[fac], l, (), (fac,), (S_mask,),
                {fac: _std_chain(instance, cum, fac)})


def make_two_level_std_cut(instance, cum, fac, lower_level, l, li,
                           upper_mask, succ_masks) -> Cut:
    level = instance.level
    succ = np.flatnonzero((level == lower_level)
                          & ((instance.parent == fac) | (fac == 0))).tolist()
    if not level[fac] < lower_level <= 2 or not succ:
        raise ValueError(f"no successors of facility {fac} at level {lower_level}")
    chains = {j: _std_chain(instance, cum, j) for j in [fac] + succ}
    return _cut("TL_STD", facility_keys(instance)[fac] + (lower_level,), l, (li,),
                (fac, succ), (upper_mask, succ_masks), chains)


def _three_level_std_tiers(instance: Instance) -> tuple:
    return (0, [instance.warehouse(w) for w in range(instance.num_warehouses)],
            [instance.retailer(r) for r in range(instance.num_retailers)])


def make_three_level_std_cut(instance, cum, l, lp, lw, plant_mask,
                             w_masks, r_masks) -> Cut:
    return _cut("THL_STD", (), l, (lp, lw), _three_level_std_tiers(instance),
                (plant_mask, w_masks, r_masks), _std_chains(instance, cum))


def make_single_level_3lf_cut(instance, cum, r, b, l, S_mask) -> Cut:
    return _cut("SL_3LF", (r, b), l, (), (3 * r + b,), (S_mask,),
                {3 * r + b: _lf3_chain(instance, cum, r, b)})


def make_two_level_3lf_cut(instance, cum, r, b, b2, l, lb, m1, m2) -> Cut:
    chains = {3 * r + j: _lf3_chain(instance, cum, r, j) for j in (b, b2)}
    return _cut("TL_3LF", (r, b, b2), l, (lb,), (3 * r + b, 3 * r + b2),
                (m1, m2), chains)


def make_three_level_3lf_cut(instance, cum, r, l, l0, l1, m0, m1, m2) -> Cut:
    chains = {3 * r + b: _lf3_chain(instance, cum, r, b) for b in range(3)}
    return _cut("THL_3LF", (r,), l, (l0, l1), (3 * r, 3 * r + 1, 3 * r + 2),
                (m0, m1, m2), chains)


_MAKE = {"SL_STD": make_single_level_std_cut, "TL_STD": make_two_level_std_cut,
         "THL_STD": make_three_level_std_cut, "SL_3LF": make_single_level_3lf_cut,
         "TL_3LF": make_two_level_3lf_cut, "THL_3LF": make_three_level_3lf_cut}


def add_cuts_to_model(model: MipModel, cuts: list, instance: Instance) -> MipModel:
    """New model with the cut pool appended as named >= rows. Each row is
    rebuilt by the dict construction above from the cut's family and
    parameters alone."""
    cum = cumulative_demand(instance)
    keys = facility_keys(instance)
    rows = list(model.constraints)
    for n, cut in enumerate(cuts):
        args = cut.params
        if cut.family in ("SL_STD", "TL_STD"):  # (b, idx) names the facility
            args = (keys.index(args[:2]),) + args[2:]
        ref = _MAKE[cut.family](instance, cum, *args)
        assert ref.key() == cut.key()
        rows.append(Constraint(f"cut_{cut.family}_{n}", dict(ref.coefs), ref.sense, ref.rhs))
    return MipModel(model.kind, model.variables, model.objective, rows)
