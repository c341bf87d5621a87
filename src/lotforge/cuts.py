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

Each family is declared once, in one table: its chain space and its
units, the (key, tiers) groups of chains its members take. Two functions
read it. separate(instance, family, point, tol) returns the members that
a point violates. make_cuts(instance, family, params_list) builds the
members that parameter tuples name, laid out as Cut.params is: the unit
key, then (l, *split), then one S mask per tier (a tuple of masks for a
tier of several chains), so a unit of m tiers ends in 2m entries.

Once l is fixed, each slot independently contributes the smaller of its
flow term and its demand-scaled setup term (ties go to the setup term,
which puts the slot in S), which yields the most violated member. One
kernel computes these minima for every chain and l at once and takes
prefix sums along the periods, so every family sums segment totals over
all its split points in a few array operations (Barany, Van Roy and
Wolsey's separation, extended along the levels). A separation returns
its cuts as one row block, which add_cuts_to_model maps to a model's
columns once; Cut.coefs is a read-only view.

The driver never solves LPs itself: it pulls relaxation points from an
injected callback and accumulates all violated cuts, deduplicated by
(family, parameters).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .formulations import SENSES, MipModel, VarId, VarValueMap, _retailer_paths, objective_value
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


class Cut:
    """The inequality sum_i vals[i] * slot_vars[slots[i]] >= rhs of a family
    member, keyed by (family, params). Cut(family, params, coefs, rhs) takes
    a dict; a separation passes terms=(slot_vars, slots, vals) instead, and
    its cuts share the slot list and view two shared term arrays."""

    __slots__ = ("family", "params", "rhs", "slot_vars", "slots", "vals")
    sense = ">="

    def __init__(self, family: str, params: tuple, coefs, rhs: float, terms=None):
        self.family, self.params, self.rhs = family, params, rhs
        self.slot_vars, self.slots, self.vals = terms or (
            list(coefs), np.arange(len(coefs)), np.array(list(coefs.values()), dtype=float))

    @property
    def coefs(self) -> Mapping[VarId, float]:
        """The terms as a read-only dict, built on access."""
        return MappingProxyType(dict(zip(map(self.slot_vars.__getitem__, self.slots.tolist()),
                                         self.vals.tolist())))

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

def _std_chains(instance: Instance, cum) -> tuple[list[VarId], np.ndarray]:
    """Chains (slot_vars, D), C rows of T period slots: slot k of chain c
    pairs flow variable slot_vars[c*T + k] with setup variable
    slot_vars[(C + c)*T + k], and D[c, k, l] is the demand c serves over
    k..l. Chain fac is facility fac's own x and y in the standard space."""
    T = instance.num_periods
    b, idx = (np.repeat(a, T).tolist() for a in (instance.level, instance.ordinal))
    k = list(range(T)) * instance.num_facilities
    return ([*map(VarId, itertools.repeat("x"), b, idx, k),
             *map(VarId, itertools.repeat("y"), b, idx, k)], cum.table)


def _lf3_chains(instance: Instance, cum) -> tuple[list[VarId], np.ndarray]:
    """As _std_chains; chain 3r + b is retailer r's level-b flow with the
    setup of its level-b predecessor on its path (plant, warehouse, r)."""
    T, path = instance.num_periods, _retailer_paths(instance).ravel()
    c = np.repeat(np.arange(len(path)), T)
    b, k = (c % 3).tolist(), list(range(T)) * len(path)
    return ([*map(VarId, itertools.repeat("x3"), b, (c // 3).tolist(), k),
             *map(VarId, itertools.repeat("y"), b, instance.ordinal[path][c].tolist(), k)],
            cum.table[np.repeat(path[2::3], 3)])


class _Slots:
    """The chains' values at a relaxation point; a missing variable reads 0."""

    def __init__(self, chains: tuple, point: VarValueMap):
        slot_vars, self.D = chains
        values = np.array([point.get(var, 0.0) for var in slot_vars], dtype=float)
        self.X, self.Y = values.reshape(2, *self.D.shape[:2])

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


def _cuts(family: str, chains: tuple, members: list) -> list[Cut]:
    """The cuts of members (key, l, split, tiers, masks) as one row block. A
    tier is one chain with an int mask, or a list of chains with a tuple of
    masks. No chain occurs twice in a member, so every variable gets one
    term, tier by tier, chain by chain, period by period: d_{k,l} y_k for k
    in S, else x_k. The rhs is the first tier chain's demand over 0..l."""
    if not members:
        return []
    chain, masks, widths = [], [], []
    for *_, tiers, member_masks in members:
        for tier, mask in zip(tiers, member_masks):
            tier, mask = (tier, mask) if isinstance(tier, list) else ([tier], [mask])
            chain += tier
            masks += mask
            widths.append(len(tier))
    # Tier i of member j covers periods bounds[j, i]..bounds[j, i + 1] - 1
    # with one segment per chain, and a segment has one term per period.
    slot_vars, D = chains
    C, T = D.shape[:2]
    bounds = np.array([(-1, *split, l) for _, l, split, *_ in members]) + 1
    ls, chain = bounds[:, -1] - 1, np.array(chain)
    counts = np.reshape(widths, (len(members), -1)).sum(axis=1)  # segments per member
    lo = np.repeat(bounds[:, :-1], widths)
    length = np.repeat(bounds[:, 1:], widths) - lo
    ends = np.cumsum(length)
    x = np.arange(ends[-1]) + np.repeat(chain * T + lo - ends + length, length)  # c*T + k
    nb = (T + 7) // 8  # bytes per S mask
    packed = b"".join(map(int.to_bytes, masks, itertools.repeat(nb), itertools.repeat("little")))
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    in_S = bits[x + np.repeat(np.arange(len(chain)) * 8 * nb - chain * T, length)] == 1
    vals = np.where(in_S, D.ravel()[x * T + np.repeat(np.repeat(ls, counts), length)], 1.0)
    slots = x + C * T * in_S
    last = np.cumsum(counts)
    ptr = [0] + ends[last - 1].tolist()
    rhs = D[chain[last - counts], 0, ls].tolist()
    return [Cut(family, key + (l, *split) + masks, None, b,
                (slot_vars, slots[p:q], vals[p:q]))
            for (key, l, split, _, masks), b, p, q in zip(members, rhs, ptr, ptr[1:])]


# --------------------------------------------------------------------------
# The six families, declared once: a family's chain space and its units.
# A unit is (parameter key, tiers) over chain indices; all units of a
# family have the same number of tiers m, and a member adds l, m - 1
# split points and one mask per tier to its unit's key.

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


_FAMILIES: dict[str, tuple[Callable, Callable[[Instance], list]]] = {
    "SL_STD": (_std_chains, lambda ins: [
        (key, (fac,)) for fac, key in enumerate(facility_keys(ins))]),
    "TL_STD": (_std_chains, lambda ins: [
        ((int(ins.level[fac]), int(ins.ordinal[fac]), int(ins.level[succ[0]])), (fac, succ))
        for fac, succ in _two_level_pairs(ins) if succ]),
    "THL_STD": (_std_chains, lambda ins: [
        ((), (0, [ins.warehouse(w) for w in range(ins.num_warehouses)],
              [ins.retailer(r) for r in range(ins.num_retailers)]))]),
    "SL_3LF": (_lf3_chains, lambda ins: [
        ((r, b), (3 * r + b,)) for r in range(ins.num_retailers) for b in range(3)]),
    "TL_3LF": (_lf3_chains, lambda ins: [
        ((r, b, b2), (3 * r + b, 3 * r + b2)) for r in range(ins.num_retailers)
        for b in range(3) for b2 in range(b + 1, 3)]),
    "THL_3LF": (_lf3_chains, lambda ins: [
        ((r,), (3 * r, 3 * r + 1, 3 * r + 2)) for r in range(ins.num_retailers)]),
}


def separate(instance: Instance, family: str, point: VarValueMap,
             tol: float = DEFAULT_VIOLATION_TOL) -> list[Cut]:
    """Every member of a family violated by more than tol at point.

    For every horizon end l one kernel pass serves all the family's units;
    a unit's total for each increasing split point tuple is a sum of
    prefix-sum differences. Cuts come out ordered by unit, then l, then
    split points."""
    chain_space, family_units = _FAMILIES[family]
    cum = cumulative_demand(instance)
    units = family_units(instance)
    chains = chain_space(instance, cum)
    slots = _Slots(chains, point)
    T = slots.D.shape[1]
    m = len(units[0][1])
    # Per tier: the chain rows to take and their reduceat group starts.
    cols = [[t if isinstance(t, list) else [t] for t in col]
            for col in zip(*(tiers for _, tiers in units))]
    gathers = [(np.concatenate(col), np.cumsum([0] + list(map(len, col[:-1])))) for col in cols]
    first = gathers[0][0]  # the first tier is one chain
    hits, row_masks, splits_at, spans_at = [], {}, {}, {}
    for l in range(m - 1, T):
        P, in_S = slots.at(l)
        splits_at[l] = list(itertools.combinations(range(l), m - 1))
        bounds = np.array([(-1, *split, l) for split in splits_at[l]]) + 1
        total = 0.0
        for i, (rows, starts) in enumerate(gathers):
            G = np.add.reduceat(P[rows], starts, axis=0)
            total = total + (G[:, bounds[:, i + 1]] - G[:, bounds[:, i]])
        rhs = slots.D[first, 0, l]
        u, j = np.nonzero((rhs > tol)[:, None] & (rhs[:, None] - total > tol))
        if len(u):
            hits += zip(u.tolist(), itertools.repeat(l), j.tolist())
            row_masks[l] = _row_masks(in_S)
            spans_at[l] = [[(1 << b) - (1 << a) for a, b in zip(bd, bd[1:])]
                           for bd in bounds.tolist()]
    members = []
    for u, l, j in sorted(hits):
        key, tiers = units[u]
        masks = row_masks[l]
        members.append((key, l, splits_at[l][j], tiers, tuple(
            tuple(masks[c] & span for c in tier) if isinstance(tier, list) else masks[tier] & span
            for tier, span in zip(tiers, spans_at[l][j]))))
    return _cuts(family, chains, members)


def _member(tiers_of: dict, m: int, T: int, params) -> Optional[tuple]:
    """The (key, l, split, tiers, masks) that params names, or None. The
    split points and l are ints with -1 < split... < l < T, and each tier's
    masks are ints with bits only in the tier's period segment."""
    n = len(params) - 2 * m if type(params) is tuple else -1
    tiers = tiers_of.get(params[:n]) if n >= 0 else None
    if tiers is None:
        return None
    lo = -1
    for tier, hi, mask in zip(tiers, params[n + 1:n + m] + params[n:n + 1], params[n + m:]):
        group, width = (mask, len(tier)) if isinstance(tier, list) else ((mask,), 1)
        if type(hi) is not int or not lo < hi < T or type(group) is not tuple \
                or len(group) != width:
            return None
        outside = ~((1 << hi + 1) - (1 << lo + 1))
        if any(type(g) is not int or g & outside for g in group):
            return None
        lo = hi
    return params[:n], params[n], params[n + 1:n + m], tiers, params[n + m:]


def make_cuts(instance: Instance, family: str, params_list) -> list[Cut]:
    """The family's cuts named by params_list, in order, as one row block.

    Each params is laid out as Cut.params is: key + (l, *split) + masks,
    where a unit of m tiers has m - 1 split points and m masks (an int for
    a one-chain tier, a tuple of ints for a tier of several chains), so the
    key is all but the last 2m entries. Raises ValueError naming the family
    and the params when they name no member of the family."""
    chain_space, family_units = _FAMILIES[family]
    cum = cumulative_demand(instance)
    tiers_of = dict(family_units(instance))
    m = len(next(iter(tiers_of.values()), ()))
    members = []
    for params in params_list:
        member = _member(tiers_of, m, instance.num_periods, params)
        if member is None:
            raise ValueError(f"{params!r} names no member of cut family {family}")
        members.append(member)
    return _cuts(family, chain_space(instance, cum), members)


# --------------------------------------------------------------------------
# Cutting-plane driver.

def _by_kind(prefix: str) -> dict:
    """The prefix's separators by model kind, as (instance, point, tol)
    callables."""
    return {kind: lambda instance, point, tol=DEFAULT_VIOLATION_TOL, family=f"{prefix}_{kind}":
            separate(instance, family, point, tol) for kind in ("STD", "3LF")}


_SINGLE, _TWO, _THREE = _by_kind("SL"), _by_kind("TL"), _by_kind("THL")


def add_cuts_to_model(model: MipModel, cuts: list[Cut]) -> MipModel:
    """New model with the cut pool appended as named >= rows. Each distinct
    slot list is mapped to the model's columns once, whatever their order."""
    column = dict(zip(model.var_ids, range(len(model.family)))).__getitem__
    lists = {id(cut.slot_vars): cut.slot_vars for cut in cuts}
    columns = {key: np.array(list(map(column, vs)), dtype=np.intp) for key, vs in lists.items()}
    return model.with_rows(
        row_names=[f"cut_{cut.family}_{n}" for n, cut in enumerate(cuts)],
        sense=np.full(len(cuts), SENSES.index(Cut.sense), dtype=np.int8),
        rhs=np.array([cut.rhs for cut in cuts], dtype=float),
        indptr=np.r_[0, np.cumsum([len(cut.slots) for cut in cuts], dtype=np.intp)],
        indices=np.concatenate([np.empty(0, dtype=np.intp)]
                               + [columns[id(cut.slot_vars)][cut.slots] for cut in cuts]),
        data=np.concatenate([np.empty(0)] + [cut.vals for cut in cuts]))


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
