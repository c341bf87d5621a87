"""Valid-inequality separation and the root cutting-plane driver.

Six families of (l, S) inequalities are separated by inspection:
single-, two- and three-level, each in the standard space (STD, per
facility, aggregated demands) and in the retailer-disaggregated space
(3LF, per retailer). Every family is a set of chains, rows of period
slots that pair a flow variable with a setup variable and a demand row.
An STD chain is one facility's x and y; a 3LF chain is retailer r's
level-b flow with the setup of r's level-b predecessor. A family member
fixes the horizon end l and split points that hand consecutive period
segments 0..l to consecutive tiers of chains.

Once l is fixed, each slot independently contributes the smaller of its
flow term and its demand-scaled setup term (ties go to the setup term,
which puts the slot in S), which yields the most violated member. One
kernel computes these minima for every chain and l at once and takes
prefix sums along the periods, so every family sums segment totals over
all its split points in a few array operations (Barany, Van Roy and
Wolsey's separation, extended along the levels).

The driver never solves LPs itself: it pulls relaxation points from an
injected callback and accumulates all violated cuts, deduplicated by
(family, parameters).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .formulations import Constraint, MipModel, VarId, VarValueMap, objective_value
from .instance import Instance, cumulative_demand, facility_keys

DEFAULT_VIOLATION_TOL = 10.0
DEFAULT_MAX_ROUNDS = 20
DEFAULT_TWO_LEVEL_EVERY = 5
DEFAULT_THREE_LEVEL_EVERY = 10


@dataclass(frozen=True)
class CutConfig:
    violation_tol: float = DEFAULT_VIOLATION_TOL
    max_rounds: int = DEFAULT_MAX_ROUNDS
    two_level_every: int = DEFAULT_TWO_LEVEL_EVERY
    three_level_every: int = DEFAULT_THREE_LEVEL_EVERY

    def __post_init__(self):
        if not 0 < self.violation_tol < math.inf or self.two_level_every <= 0 \
                or self.three_level_every <= 0 or self.max_rounds < 0:
            raise ValueError("cut configuration values must be positive "
                             "(the violation tolerance also finite)")


@dataclass
class Cut:
    family: str  # SL_STD, TL_STD, THL_STD, SL_3LF, TL_3LF, THL_3LF
    params: tuple
    coefs: dict[VarId, float]
    rhs: float
    sense: str = ">="

    def key(self) -> tuple:
        return (self.family, self.params)


def eval_inequality(cut: Cut, point: VarValueMap) -> float:
    """Signed slack lhs - rhs; >= 0 means the point satisfies the cut."""
    lhs = 0.0
    for var, coef in cut.coefs.items():
        if var not in point:
            raise KeyError(f"point is missing variable {var.name()}")
        lhs += coef * point[var]
    return lhs - cut.rhs


# --------------------------------------------------------------------------
# Chains and the separation kernel shared by every family.

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


class _Slots:
    """The chains' values at a relaxation point; a missing variable reads 0."""

    def __init__(self, chains, point: VarValueMap):
        self.D = np.array([ch.d for ch in chains])
        T = self.D.shape[1]
        self.X = np.array([[point.get(ch.x[k], 0.0) for k in range(T)] for ch in chains])
        self.Y = np.array([[point.get(ch.y[k], 0.0) for k in range(T)] for ch in chains])

    def at(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Prefix sums P and S bits of every chain for horizon end l.

        Slot k contributes min(x_k, d_{k,l} y_k) and is in S when the setup
        term is the smaller one, ties included. P[c, k] sums chain c's
        contributions over periods before k, so a segment lo..hi totals
        P[c, hi + 1] - P[c, lo]."""
        setup = self.D[:, :, l] * self.Y
        in_S = setup <= self.X
        P = np.zeros((len(self.X), self.X.shape[1] + 1))
        np.cumsum(np.where(in_S, setup, self.X), axis=1, out=P[:, 1:])
        return P, in_S

    def segment(self, l: int, c: int, lo: int, hi: int) -> tuple[float, int]:
        """The kernel's (total, S mask) for periods lo..hi of chain c."""
        P, in_S = self.at(l)
        span = (1 << hi + 1) - (1 << lo)
        return float(P[c, hi + 1] - P[c, lo]), _row_masks(in_S[c:c + 1])[0] & span


def _row_masks(in_S: np.ndarray) -> list[int]:
    """Each chain's S bits as an int, bit k = period k (T may exceed 63)."""
    packed = np.packbits(in_S, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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


def _separate(family: str, units: list, chains: list, point: VarValueMap,
              tol: float) -> list[Cut]:
    """Every member of a family violated by more than tol at point.

    units are (key, tiers) with the same tier shapes. For every horizon end
    l one kernel pass serves all units; a unit's total for each increasing
    split point tuple is a sum of prefix-sum differences. Cuts come out
    ordered by unit, then l, then split points."""
    if not units:
        return []
    T = len(chains[0].d)
    # The cuts reuse the chains' variables: build each VarId once per call.
    chains = [_Chain([ch.x[k] for k in range(T)], [ch.y[k] for k in range(T)], ch.d)
              for ch in chains]
    slots = _Slots(chains, point)
    m = len(units[0][1])
    gathers = []  # per tier: chain rows to take and reduceat group starts
    for i in range(m):
        col = [tiers[i] for _, tiers in units]
        if isinstance(col[0], list):
            starts = np.cumsum([0] + [len(t) for t in col[:-1]])
            gathers.append((np.concatenate(col), starts))
        else:
            gathers.append((np.array(col), None))
    first = gathers[0][0]
    hits, row_masks, splits_at = [np.empty((3, 0), dtype=np.intp)], {}, {}
    for l in range(m - 1, T):
        P, in_S = slots.at(l)
        splits_at[l] = list(itertools.combinations(range(l), m - 1))
        bounds = np.array([_bounds(sp, l) for sp in splits_at[l]])
        total = 0.0
        for i, (rows, starts) in enumerate(gathers):
            G = P[rows] if starts is None else np.add.reduceat(P[rows], starts, axis=0)
            total = total + (G[:, bounds[:, i + 1]] - G[:, bounds[:, i]])
        rhs = slots.D[first, 0, l]
        u, j = np.nonzero((rhs > tol)[:, None] & (rhs[:, None] - total > tol))
        if len(u):
            hits.append(np.stack([u, np.full_like(u, l), j]))
            row_masks[l] = _row_masks(in_S)
    cuts = []
    for u, l, j in sorted(map(tuple, np.concatenate(hits, axis=1).T.tolist())):
        key, tiers = units[u]
        split = splits_at[l][j]
        bounds = _bounds(split, l)
        masks = []
        for i, tier in enumerate(tiers):
            span = (1 << bounds[i + 1]) - (1 << bounds[i])
            if isinstance(tier, list):
                masks.append(tuple(row_masks[l][c] & span for c in tier))
            else:
                masks.append(row_masks[l][tier] & span)
        cuts.append(_cut(family, key, l, split, tiers, tuple(masks), chains))
    return cuts


# --------------------------------------------------------------------------
# The six families. A unit is (parameter key, tiers) over chain indices.

def _two_level_pairs(instance: Instance) -> list[tuple[int, list[int]]]:
    """(facility, successor facilities at the lower level) pairs: plant with
    all warehouses, plant with all retailers, each warehouse with its own
    retailers."""
    pairs = [(0, [instance.warehouse(w) for w in range(instance.num_warehouses)]),
             (0, [instance.retailer(r) for r in range(instance.num_retailers)])]
    for w in range(instance.num_warehouses):
        succ = [instance.retailer(r) for r in instance.retailers_of(w)]
        pairs.append((instance.warehouse(w), succ))
    return pairs


def _std_chains(instance: Instance, cum) -> list[_Chain]:
    return [_std_chain(instance, cum, fac) for fac in range(instance.num_facilities)]


def _lf3_chains(instance: Instance, cum) -> list[_Chain]:
    return [_lf3_chain(instance, cum, r, b)
            for r in range(instance.num_retailers) for b in range(3)]


def separate_single_level_std(instance: Instance, point: VarValueMap,
                              tol: float = DEFAULT_VIOLATION_TOL) -> list[Cut]:
    cum = cumulative_demand(instance)
    units = [(key, (fac,)) for fac, key in enumerate(facility_keys(instance))]
    return _separate("SL_STD", units, _std_chains(instance, cum), point, tol)


def make_single_level_std_cut(instance, cum, fac, l, S_mask) -> Cut:
    return _cut("SL_STD", facility_keys(instance)[fac], l, (), (fac,), (S_mask,),
                {fac: _std_chain(instance, cum, fac)})


def separate_two_level_std(instance: Instance, point: VarValueMap,
                           tol: float = DEFAULT_VIOLATION_TOL) -> list[Cut]:
    cum = cumulative_demand(instance)
    keys = facility_keys(instance)
    units = [(keys[fac] + (int(instance.level[succ[0]]),), (fac, succ))
             for fac, succ in _two_level_pairs(instance) if succ]
    return _separate("TL_STD", units, _std_chains(instance, cum), point, tol)


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


def separate_three_level_std(instance: Instance, point: VarValueMap,
                             tol: float = DEFAULT_VIOLATION_TOL) -> list[Cut]:
    cum = cumulative_demand(instance)
    units = [((), _three_level_std_tiers(instance))]
    return _separate("THL_STD", units, _std_chains(instance, cum), point, tol)


def make_three_level_std_cut(instance, cum, l, lp, lw, plant_mask,
                             w_masks, r_masks) -> Cut:
    return _cut("THL_STD", (), l, (lp, lw), _three_level_std_tiers(instance),
                (plant_mask, w_masks, r_masks), _std_chains(instance, cum))


def separate_single_level_3lf(instance: Instance, point: VarValueMap,
                              tol: float = DEFAULT_VIOLATION_TOL) -> list[Cut]:
    cum = cumulative_demand(instance)
    units = [((r, b), (3 * r + b,))
             for r in range(instance.num_retailers) for b in range(3)]
    return _separate("SL_3LF", units, _lf3_chains(instance, cum), point, tol)


def make_single_level_3lf_cut(instance, cum, r, b, l, S_mask) -> Cut:
    return _cut("SL_3LF", (r, b), l, (), (3 * r + b,), (S_mask,),
                {3 * r + b: _lf3_chain(instance, cum, r, b)})


def separate_two_level_3lf(instance: Instance, point: VarValueMap,
                           tol: float = DEFAULT_VIOLATION_TOL) -> list[Cut]:
    cum = cumulative_demand(instance)
    units = [((r, b, b2), (3 * r + b, 3 * r + b2))
             for r in range(instance.num_retailers)
             for b in range(3) for b2 in range(b + 1, 3)]
    return _separate("TL_3LF", units, _lf3_chains(instance, cum), point, tol)


def make_two_level_3lf_cut(instance, cum, r, b, b2, l, lb, m1, m2) -> Cut:
    chains = {3 * r + j: _lf3_chain(instance, cum, r, j) for j in (b, b2)}
    return _cut("TL_3LF", (r, b, b2), l, (lb,), (3 * r + b, 3 * r + b2),
                (m1, m2), chains)


def separate_three_level_3lf(instance: Instance, point: VarValueMap,
                             tol: float = DEFAULT_VIOLATION_TOL) -> list[Cut]:
    cum = cumulative_demand(instance)
    units = [((r,), (3 * r, 3 * r + 1, 3 * r + 2))
             for r in range(instance.num_retailers)]
    return _separate("THL_3LF", units, _lf3_chains(instance, cum), point, tol)


def make_three_level_3lf_cut(instance, cum, r, l, l0, l1, m0, m1, m2) -> Cut:
    chains = {3 * r + b: _lf3_chain(instance, cum, r, b) for b in range(3)}
    return _cut("THL_3LF", (r,), l, (l0, l1), (3 * r, 3 * r + 1, 3 * r + 2),
                (m0, m1, m2), chains)


# --------------------------------------------------------------------------
# Cutting-plane driver.

_SINGLE = {"STD": separate_single_level_std, "3LF": separate_single_level_3lf}
_TWO = {"STD": separate_two_level_std, "3LF": separate_two_level_3lf}
_THREE = {"STD": separate_three_level_std, "3LF": separate_three_level_3lf}


def add_cuts_to_model(model: MipModel, cuts: list[Cut]) -> MipModel:
    """New model with the cut pool appended as named >= rows."""
    return model.with_rows(Constraint(f"cut_{cut.family}_{n}", cut.coefs, cut.sense, cut.rhs)
                           for n, cut in enumerate(cuts))


@dataclass
class CutLoopResult:
    cuts: list[Cut]
    rounds: int
    objective: Optional[float]
    status: str  # 'ok' or 'lp_unavailable'


LpSource = Callable[[MipModel], Optional[VarValueMap]]


def cutting_plane_loop(instance: Instance, model: MipModel, lp_source: LpSource,
                       config: CutConfig = CutConfig()) -> CutLoopResult:
    """Root cutting-plane rounds over an injected relaxation source.

    Single-level cuts are separated every round, two-level cuts every
    config.two_level_every rounds, three-level cuts every
    config.three_level_every rounds (rounds are 1-based). Stops early
    when a round adds nothing new.
    """
    if model.kind not in _SINGLE:
        raise ValueError(f"cutting planes are defined for STD and 3LF models, "
                         f"not {model.kind}")
    pool: dict[tuple, Cut] = {}
    rounds = 0
    objective = None
    tol = config.violation_tol
    for rnd in range(1, config.max_rounds + 1):
        point = lp_source(add_cuts_to_model(model, list(pool.values())))
        if point is None:
            return CutLoopResult(list(pool.values()), rounds, objective,
                                 "lp_unavailable")
        rounds = rnd
        objective = objective_value(model, point)
        found = list(_SINGLE[model.kind](instance, point, tol))
        if rnd % config.two_level_every == 0:
            found += _TWO[model.kind](instance, point, tol)
        if rnd % config.three_level_every == 0:
            found += _THREE[model.kind](instance, point, tol)
        added = 0
        for cut in found:
            if cut.key() not in pool:
                pool[cut.key()] = cut
                added += 1
        if added == 0:
            break
    return CutLoopResult(list(pool.values()), rounds, objective, "ok")
