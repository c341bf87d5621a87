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
Wolsey's separation, extended along the levels).

A separation, like a make_cuts call, builds one CutBlock: the family's
chain slot list and, per cut, its member (unit index, l, split points
and the S bits of its tier chains, packed so that any T fits), its rhs
and its terms as CSR arrays over the slot list. A Cut is a view of one
block row whose params are decoded on access; Cut.coefs is a read-only
dict built on access. add_cuts_to_model appends each run of one block's
cuts as one array slice.

The driver never solves LPs itself: it pulls relaxation points from an
injected callback and pools the blocks of all violated cuts, dropping a
row whose member its family's pool already holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .formulations import SENSES, MipModel, VarId, VarValueMap, objective_value
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
    member, keyed by (family, params): a view of row `row` of a CutBlock,
    read on access. Cut(family, params, coefs, rhs) makes a cut from a dict,
    as a block of one row whose unit key is params and has no tiers."""

    __slots__ = ("block", "row")
    sense = ">="

    def __init__(self, family: str, params: tuple, coefs: Mapping[VarId, float], rhs: float):
        n = len(coefs)
        self.block = CutBlock(family, list(coefs), np.array([rhs], dtype=float), np.array([0, n]),
                              np.arange(n), np.array(list(coefs.values()), dtype=float),
                              [(params, ())], np.zeros((1, 1), np.intp),
                              np.empty((1, 0, 1), np.uint8))
        self.row = 0

    family = property(lambda self: self.block.family)
    params = property(lambda self: self.block.params(self.row))
    rhs = property(lambda self: float(self.block.rhs[self.row]))
    slot_vars = property(lambda self: self.block.slot_vars)
    slots = property(lambda self: self.block.slots[slice(*self.block.ptr[self.row:self.row + 2])])
    vals = property(lambda self: self.block.vals[slice(*self.block.ptr[self.row:self.row + 2])])

    @property
    def coefs(self) -> Mapping[VarId, float]:
        """The terms as a read-only dict, built on access."""
        return MappingProxyType(dict(zip(map(self.slot_vars.__getitem__, self.slots.tolist()),
                                         self.vals.tolist())))

    def key(self) -> tuple:
        return (self.family, self.params)


@dataclass(eq=False)
class CutBlock:
    """Cuts of one family over one chain slot list. Cut i is
    sum(vals[p:q] * slot_vars[slots[p:q]]) >= rhs[i] with p, q = ptr[i],
    ptr[i + 1]. Its member is member[i] = (unit index, l, *split points)
    of the family's units; masks[i, j] holds the S bits of the unit's tier
    chain j, packed little-endian over the periods so that any T fits, and
    is zero past the unit's chains."""

    family: str
    slot_vars: list[VarId]
    rhs: np.ndarray
    ptr: np.ndarray
    slots: np.ndarray
    vals: np.ndarray
    units: list
    member: np.ndarray
    masks: np.ndarray

    def params(self, i: int) -> tuple:
        """Cut i's params: unit key + (l, *split) + one mask per tier."""
        unit, *lsplit = self.member[i].tolist()
        key, tiers = self.units[unit]
        ints = map(int.from_bytes, self.masks[i], itertools.repeat("little"))
        return key + tuple(lsplit) + tuple(
            tuple(itertools.islice(ints, len(tier))) if isinstance(tier, list) else next(ints)
            for tier in tiers)

    def keys(self) -> list[bytes]:
        """One key per cut, equal exactly where the params are: the bytes of
        its member row and masks."""
        n, widest, nb = self.masks.shape
        table = np.hstack([self.member.astype(np.int64).view(np.uint8),
                           self.masks.reshape(n, widest * nb)])
        return table.view(f"V{table.shape[1]}").ravel().tolist()

    def cuts(self) -> list[Cut]:
        """Views of the rows, in order."""
        views = list(map(object.__new__, itertools.repeat(Cut, len(self.rhs))))
        for row, cut in enumerate(views):
            cut.block, cut.row = self, row
        return views


def eval_inequality(cut: Cut, point: VarValueMap) -> float:
    """Signed slack lhs - rhs; >= 0 means the point satisfies the cut."""
    lhs = 0.0
    slot_vars = cut.slot_vars
    for slot, coef in zip(cut.slots.tolist(), cut.vals.tolist()):
        var = slot_vars[slot]
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
             *map(VarId, itertools.repeat("y"), b, idx, k)], cum)


def _lf3_chains(instance: Instance, cum) -> tuple[list[VarId], np.ndarray]:
    """As _std_chains; chain 3r + b is retailer r's level-b flow with the
    setup of its level-b predecessor on its path (plant, warehouse, r)."""
    T, path = instance.num_periods, instance.path.ravel()
    c = np.repeat(np.arange(len(path)), T)
    b, k = (c % 3).tolist(), list(range(T)) * len(path)
    return ([*map(VarId, itertools.repeat("x3"), b, (c // 3).tolist(), k),
             *map(VarId, itertools.repeat("y"), b, instance.ordinal[path][c].tolist(), k)],
            cum[np.repeat(path[2::3], 3)])


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
        packed = np.packbits(in_S[c, lo:hi + 1], bitorder="little").tobytes()
        return float(P[c, hi + 1] - P[c, lo]), int.from_bytes(packed, "little") << lo


def _layout(units: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The units' tier chains in member order, flat: unit u takes chains
    chain[uptr[u]:uptr[u + 1]], and tier[j] is chain j's tier."""
    pairs = [[(c, i) for i, group in enumerate(tiers)
              for c in (group if isinstance(group, list) else [group])] for _, tiers in units]
    chain, tier = np.array([*itertools.chain(*pairs)], dtype=np.intp).reshape(-1, 2).T
    return chain, tier, np.r_[0, np.cumsum(list(map(len, pairs)), dtype=np.intp)]


def _block(family: str, chains: tuple, units: list, member: np.ndarray,
           bits: Callable) -> CutBlock:
    """The cuts of the members (unit index, l, *split points) as one block.

    A member's tier chains, tier by tier and chain by chain, are its
    member chains; bits(l_j, c_j) gives the packed S bits of every member
    chain j, chain c_j at horizon end l_j, and bits outside j's period
    segment are ignored. No chain occurs twice in a member, so every
    variable gets one term, chain by chain, period by period: d_{k,l} y_k
    for k in S, else x_k. The rhs is the first tier chain's demand over
    0..l."""
    slot_vars, D = chains
    C, T = D.shape[:2]
    uchain, utier, uptr = _layout(units)
    unit, l = member[:, 0], member[:, 1]
    count = np.diff(uptr)[unit]
    mptr = np.r_[0, np.cumsum(count)]
    owner = np.repeat(np.arange(len(unit)), count)  # the cut of each member chain
    pos = np.arange(mptr[-1]) - mptr[owner]  # its position in the cut
    j = uptr[unit][owner] + pos
    chain, tier, lj = uchain[j], utier[j], l[owner]
    # Tier i of cut n covers periods bounds[n, i]..bounds[n, i + 1] - 1,
    # and a member chain has one term per period of its tier.
    bounds = np.column_stack([np.zeros_like(l), member[:, 2:] + 1, l + 1])
    lo, hi = bounds[owner, tier], bounds[owner, tier + 1]
    byte = 8 * np.arange((T + 7) // 8)
    S = bits(lj, chain) & ((1 << np.clip(hi[:, None] - byte, 0, 8))
                           - (1 << np.clip(lo[:, None] - byte, 0, 8))).astype(np.uint8)
    masks = np.zeros((len(unit), np.diff(uptr).max(initial=0), len(byte)), dtype=np.uint8)
    masks[owner, pos] = S
    length = hi - lo
    ends = np.cumsum(length)
    term = np.repeat(np.arange(len(chain)), length)  # the member chain of each term
    k = np.arange(len(term)) + (lo - ends + length)[term]
    x = chain[term] * T + k  # c*T + k
    in_S = (S[term, k >> 3] >> (k & 7) & 1).astype(bool)
    return CutBlock(family, slot_vars, D[chain[mptr[:-1]], 0, l], np.r_[0, ends[mptr[1:] - 1]],
                    x + C * T * in_S, np.where(in_S, D.ravel()[x * T + lj[term]], 1.0),
                    units, member, masks)


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
    """Every member of a family violated by more than tol at point, as the
    views of one block's cuts, ordered by unit, then l, then split points.

    For every horizon end l one kernel pass serves all the family's units;
    a unit's total for each increasing split point tuple is a sum of
    prefix-sum differences, and the S bits of a hit are the kernel's."""
    chain_space, family_units = _FAMILIES[family]
    cum = cumulative_demand(instance)
    units = family_units(instance)
    chains = chain_space(instance, cum)
    slots = _Slots(chains, point)
    C, T = slots.D.shape[:2]
    m = len(units[0][1])
    # Per tier: the chain rows to take and their reduceat group starts.
    cols = [[t if isinstance(t, list) else [t] for t in col]
            for col in zip(*(tiers for _, tiers in units))]
    gathers = [(np.concatenate(col), np.cumsum([0] + list(map(len, col[:-1])))) for col in cols]
    first = gathers[0][0]  # the first tier is one chain
    in_S_at = np.zeros((T, C, T), dtype=bool)  # in_S_at[l, c, k]: period k of c in S
    hits = [np.empty((0, m + 1), np.intp)]  # (unit, l, *split) rows
    for l in range(m - 1, T):
        P, in_S_at[l] = slots.at(l)
        split = np.array(list(itertools.combinations(range(l), m - 1)), dtype=np.intp)
        bounds = np.column_stack([np.zeros(len(split), np.intp), split + 1,
                                  np.full(len(split), l + 1)])
        total = 0.0
        for i, (rows, starts) in enumerate(gathers):
            G = np.add.reduceat(P[rows], starts, axis=0)
            total = total + (G[:, bounds[:, i + 1]] - G[:, bounds[:, i]])
        rhs = slots.D[first, 0, l]
        u, j = np.nonzero((rhs > tol)[:, None] & (rhs[:, None] - total > tol))
        hits.append(np.column_stack([u, np.full(len(u), l), split[j]]))
    member = np.concatenate(hits)
    member = member[np.lexsort(member.T[::-1])]
    packed = np.packbits(in_S_at, axis=2, bitorder="little")
    return _block(family, chains, units, member, lambda l_j, c_j: packed[l_j, c_j]).cuts()


def _member(index_of: dict, units: list, m: int, T: int, params) -> Optional[tuple]:
    """The member row (unit index, l, *split) that params names and its
    masks, one per member chain, or None. The split points and l are ints
    with -1 < split... < l < T, and each tier's masks are ints with bits
    only in the tier's period segment."""
    n = len(params) - 2 * m if type(params) is tuple else -1
    u = index_of.get(params[:n]) if n >= 0 else None
    if u is None:
        return None
    lo, masks = -1, []
    for tier, hi, mask in zip(units[u][1], params[n + 1:n + m] + params[n:n + 1],
                              params[n + m:]):
        group, width = (mask, len(tier)) if isinstance(tier, list) else ((mask,), 1)
        if type(hi) is not int or not lo < hi < T or type(group) is not tuple \
                or len(group) != width:
            return None
        outside = ~((1 << hi + 1) - (1 << lo + 1))
        if any(type(g) is not int or g & outside for g in group):
            return None
        masks += group
        lo = hi
    return (u, params[n], *params[n + 1:n + m]), masks


def make_cuts(instance: Instance, family: str, params_list) -> list[Cut]:
    """The family's cuts named by params_list, in order, as the views of one
    block's cuts.

    Each params is laid out as Cut.params is: key + (l, *split) + masks,
    where a unit of m tiers has m - 1 split points and m masks (an int for
    a one-chain tier, a tuple of ints for a tier of several chains), so the
    key is all but the last 2m entries. Raises ValueError naming the family
    and the params when they name no member of the family."""
    chain_space, family_units = _FAMILIES[family]
    cum = cumulative_demand(instance)
    units = family_units(instance)
    index_of = {key: u for u, (key, _) in enumerate(units)}
    m = len(units[0][1]) if units else 0
    T = instance.num_periods
    members, masks = [], []
    for params in params_list:
        member = _member(index_of, units, m, T, params)
        if member is None:
            raise ValueError(f"{params!r} names no member of cut family {family}")
        members.append(member[0])
        masks += member[1]
    nb = (T + 7) // 8  # bytes per S mask
    packed = np.frombuffer(b"".join(mask.to_bytes(nb, "little") for mask in masks), np.uint8)
    table = np.array(members, dtype=np.intp).reshape(-1, m + 1)
    return _block(family, chain_space(instance, cum), units, table,
                  lambda *_: packed.reshape(-1, nb)).cuts()


# --------------------------------------------------------------------------
# Cutting-plane driver.

def _by_kind(prefix: str) -> dict:
    """The prefix's separators by model kind, as (instance, point, tol)
    callables."""
    return {kind: lambda instance, point, tol=DEFAULT_VIOLATION_TOL, family=f"{prefix}_{kind}":
            separate(instance, family, point, tol) for kind in ("STD", "3LF")}


_SINGLE, _TWO, _THREE = _by_kind("SL"), _by_kind("TL"), _by_kind("THL")


def add_cuts_to_model(model: MipModel, cuts: list[Cut]) -> MipModel:
    """New model with the cuts appended as named >= rows. Each run of
    consecutive cuts from one block is appended as one array slice, and
    each distinct slot list is mapped to the model's columns once, whatever
    their order."""
    column = dict(zip(model.var_ids, range(len(model.family)))).__getitem__
    columns: dict[int, np.ndarray] = {}  # by id of a slot list
    names, parts = [], [(np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for block, run in itertools.groupby(cuts, attrgetter("block")):
        rows = np.fromiter(map(attrgetter("row"), run), dtype=np.intp)
        cols = columns.get(id(block.slot_vars))
        if cols is None:
            cols = columns[id(block.slot_vars)] = np.fromiter(map(column, block.slot_vars),
                                                              np.intp)
        first, count = block.ptr[rows], block.ptr[rows + 1] - block.ptr[rows]
        terms = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
        names += [f"cut_{block.family}_{n}" for n in range(len(names), len(names) + len(rows))]
        parts.append((block.rhs[rows], count, cols[block.slots[terms]], block.vals[terms]))
    rhs, nnz, indices, data = map(np.concatenate, zip(*parts))
    return model.with_rows(names, np.full(len(names), SENSES.index(Cut.sense), dtype=np.int8),
                           rhs, np.r_[0, np.cumsum(nnz)], indices, data)


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
    pool: list[Cut] = []
    pooled: dict[str, set] = {}  # per family, the keys of its pooled members
    rounds = 0
    objective = None
    tol = config.violation_tol
    for rnd in range(1, config.max_rounds + 1):
        point = lp_source(add_cuts_to_model(model, pool))
        if point is None:
            return CutLoopResult(pool, rounds, objective, "lp_unavailable")
        rounds = rnd
        objective = objective_value(model, point)
        found = [_SINGLE[model.kind](instance, point, tol)]
        if rnd % config.two_level_every == 0:
            found.append(_TWO[model.kind](instance, point, tol))
        if rnd % config.three_level_every == 0:
            found.append(_THREE[model.kind](instance, point, tol))
        size = len(pool)
        for cuts in found:  # each the views of one block
            if cuts:
                keys = cuts[0].block.keys()
                seen = pooled.setdefault(cuts[0].family, set())
                pool += [cut for cut, key in zip(cuts, keys) if key not in seen]
                seen.update(keys)
        if len(pool) == size:
            break
    return CutLoopResult(pool, rounds, objective, "ok")
