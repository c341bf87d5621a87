"""Problem instances for the three-level lot-sizing network.

A network consists of a single plant (level 0), a set of warehouses
(level 1) and a set of retailers (level 2), each retailer attached to
exactly one warehouse. This tree is fixed when the instance is built,
and Instance owns it: every facility has a flat index (0 = plant,
1..W = warehouses, 1+W.. = retailers), and the read-only arrays level,
ordinal (index within its level) and parent (-1 for the plant) describe
it. Code addresses facilities by flat index only; (level, ordinal)
appears only in names (facility_keys, facility_label). Periods are 0-based
internally and 1-based in file formats and variable names.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

DEMAND_LO, DEMAND_HI = 5, 100
PLANT_SETUP_LO, PLANT_SETUP_HI = 30000, 45000
WAREHOUSE_SETUP_LO, WAREHOUSE_SETUP_HI = 1500, 4500
RETAILER_SETUP_LO, RETAILER_SETUP_HI = 5, 100
PLANT_HOLDING = 0.25
WAREHOUSE_HOLDING = 0.5
RETAILER_HOLDING_LO, RETAILER_HOLDING_HI = 0.5, 1.0

FILE_MAGIC = "3LSPD-U 1"


class DemandType(enum.Enum):
    STATIC = "S"
    DYNAMIC = "D"


class FixedCostType(enum.Enum):
    STATIC = "S"
    DYNAMIC = "D"


class NetworkShape(enum.Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"


def facility_label(level: int, ordinal: int) -> str:
    """A facility's name in variable names, row names, messages and
    reports: p, w<ordinal> or r<ordinal>."""
    return "p" if level == 0 else f"{'wr'[level - 1]}{ordinal}"


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters for the benchmark generator."""

    num_retailers: int
    num_warehouses: int
    num_periods: int
    demand_type: DemandType = DemandType.DYNAMIC
    fixed_cost_type: FixedCostType = FixedCostType.DYNAMIC
    network_shape: NetworkShape = NetworkShape.BALANCED
    seed: int = 0

    def group_name(self) -> str:
        return "{}_{}_{}_{}D_{}F".format(
            self.num_retailers,
            self.num_periods,
            self.num_warehouses,
            self.demand_type.value,
            self.fixed_cost_type.value,
        )


@dataclass(frozen=True)
class Instance:
    """Immutable instance data.

    demand has shape (R, T); setup_cost and holding_cost have shape
    (1 + W + R, T) in facility order plant, warehouses, retailers.
    level, ordinal and parent have shape (F,) and are derived from the
    sizes and retailer_warehouse, as are the per-warehouse retailer lists
    behind retailers_of.
    """

    num_periods: int
    num_warehouses: int
    num_retailers: int
    retailer_warehouse: np.ndarray
    demand: np.ndarray
    setup_cost: np.ndarray
    holding_cost: np.ndarray
    level: np.ndarray = field(init=False, repr=False, compare=False)
    ordinal: np.ndarray = field(init=False, repr=False, compare=False)
    parent: np.ndarray = field(init=False, repr=False, compare=False)
    _retailers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "retailer_warehouse",
                           np.asarray(self.retailer_warehouse, dtype=np.int64))
        object.__setattr__(self, "demand", np.asarray(self.demand, dtype=np.int64))
        object.__setattr__(self, "setup_cost", np.asarray(self.setup_cost, dtype=float))
        object.__setattr__(self, "holding_cost", np.asarray(self.holding_cost, dtype=float))
        # The network tree. A retailer mapped to a missing warehouse gets a
        # parent outside 1..W and no warehouse lists it; validate reports it.
        W, R, rw = self.num_warehouses, self.num_retailers, self.retailer_warehouse
        object.__setattr__(self, "level", np.repeat(np.arange(3), (1, W, R)))
        object.__setattr__(self, "ordinal",
                           np.concatenate(([0], np.arange(W), np.arange(R))))
        object.__setattr__(self, "parent", np.concatenate(
            ([-1], np.zeros(W, dtype=np.int64), 1 + rw)))
        object.__setattr__(self, "_retailers",
                           tuple(np.flatnonzero(rw == w).tolist() for w in range(W)))
        for arr in (self.retailer_warehouse, self.demand, self.setup_cost,
                    self.holding_cost, self.level, self.ordinal, self.parent):
            arr.setflags(write=False)

    # -- flat facility indexing -------------------------------------------
    @property
    def num_facilities(self) -> int:
        return 1 + self.num_warehouses + self.num_retailers

    def warehouse(self, w: int) -> int:
        return 1 + w

    def retailer(self, r: int) -> int:
        return 1 + self.num_warehouses + r

    def retailers_of(self, w: int) -> list[int]:
        """Indices of the retailers warehouse w serves, ascending."""
        return list(self._retailers[w])

    def facility_demand(self) -> np.ndarray:
        """Per-period demand aggregated per facility, shape (F, T)."""
        F, T = self.num_facilities, self.num_periods
        retailers = slice(1 + self.num_warehouses, F)
        out = np.zeros((F, T))
        out[retailers] = self.demand
        # add.at adds retailer rows one at a time, in ascending order.
        np.add.at(out, self.parent[retailers], self.demand)
        out[0] = self.demand.sum(axis=0)
        return out


def facility_keys(instance: Instance) -> list[tuple[int, int]]:
    """(level, ordinal) of every facility in index order: the pair that
    names it (facility_label) and its variables (VarId b and idx)."""
    return list(zip(instance.level.tolist(), instance.ordinal.tolist()))


@dataclass(frozen=True)
class CumulativeDemand:
    """Triangular cumulative demands d[i, k, t] = demand of facility i
    over periods k..t (0-based, k <= t); zero above the diagonal."""

    table: np.ndarray

    def __post_init__(self):
        self.table.setflags(write=False)

    def value(self, fac: int, k: int, t: int) -> float:
        return float(self.table[fac, k, t])

    def tail(self, fac: int, t: int) -> float:
        """Cumulative demand from period t to the end of the horizon."""
        return float(self.table[fac, t, -1])


def cumulative_demand(instance: Instance) -> CumulativeDemand:
    per_period = instance.facility_demand()
    F, T = per_period.shape
    table = np.zeros((F, T, T))
    for k in range(T):
        table[:, k, k:] = np.cumsum(per_period[:, k:], axis=1)
    return CumulativeDemand(table)


def validate(instance: Instance) -> list[str]:
    """Return a description of every invariant violation (empty = valid)."""
    v = []
    T, W, R = instance.num_periods, instance.num_warehouses, instance.num_retailers
    if T < 1:
        v.append(f"num_periods must be >= 1, got {T}")
    if W < 1:
        v.append(f"num_warehouses must be >= 1, got {W}")
    if R < 1:
        v.append(f"num_retailers must be >= 1, got {R}")
    if instance.retailer_warehouse.shape != (R,):
        v.append("retailer_warehouse must have one entry per retailer")
    else:
        for r, w in enumerate(instance.retailer_warehouse):
            if not 0 <= w < W:
                v.append(f"retailer {r} mapped to nonexistent warehouse {w}")
    F = instance.num_facilities
    if instance.demand.shape != (R, T):
        v.append(f"demand must have shape ({R}, {T})")
    else:
        for r, t in zip(*np.nonzero(instance.demand < 0)):
            v.append(f"negative demand at retailer {r}, period {t + 1}")
    for name, mat in (("setup_cost", instance.setup_cost),
                      ("holding_cost", instance.holding_cost)):
        if mat.shape != (F, T):
            v.append(f"{name} must have shape ({F}, {T})")
            continue
        if not np.all(np.isfinite(mat)):
            v.append(f"{name} contains non-finite entries")
        for i, t in zip(*np.nonzero(mat < 0)):
            v.append(f"negative {name} at facility {i}, period {t + 1}")
    return v


def _balanced_assignment(num_retailers: int, num_warehouses: int) -> np.ndarray:
    return np.arange(num_retailers, dtype=np.int64) % num_warehouses


def _unbalanced_assignment(num_retailers: int, num_warehouses: int) -> np.ndarray:
    # Hubs: the first ceil(0.2 W) warehouses share floor(0.8 R) retailers,
    # remainder of the even split going to the first hub; everyone else
    # splits the remaining retailers the same way.
    hubs = math.ceil(0.2 * num_warehouses)
    counts = np.zeros(num_warehouses, dtype=np.int64)
    if hubs >= num_warehouses:
        hub_load = num_retailers
        hubs = num_warehouses
    else:
        hub_load = math.floor(0.8 * num_retailers)
    base, rem = divmod(hub_load, hubs)
    counts[:hubs] = base
    counts[0] += rem
    rest = num_retailers - hub_load
    if rest:
        others = num_warehouses - hubs
        base, rem = divmod(rest, others)
        counts[hubs:] = base
        counts[hubs] += rem
    return np.repeat(np.arange(num_warehouses, dtype=np.int64), counts)


def generate(spec: InstanceSpec) -> Instance:
    """Deterministically generate a benchmark instance from a spec.

    Sampling uses a single numpy PCG64 generator seeded with spec.seed.
    Draw order is fixed: retailer demands (retailers ascending, periods
    ascending), then setup costs (plant, warehouses ascending, retailers
    ascending), then retailer holding costs. Integer draws are inclusive
    of both endpoints; real draws are half-open.
    """
    R, W, T = spec.num_retailers, spec.num_warehouses, spec.num_periods
    if min(R, W, T) < 1:
        raise ValueError(f"num_retailers ({R}), num_warehouses ({W}) and "
                         f"num_periods ({T}) must be >= 1")
    if W > R:
        raise ValueError(f"num_warehouses ({W}) exceeds num_retailers ({R})")
    rng = np.random.default_rng(spec.seed)

    if spec.network_shape is NetworkShape.BALANCED:
        assign = _balanced_assignment(R, W)
    else:
        assign = _unbalanced_assignment(R, W)

    demand = np.empty((R, T), dtype=np.int64)
    for r in range(R):
        if spec.demand_type is DemandType.STATIC:
            demand[r, :] = rng.integers(DEMAND_LO, DEMAND_HI + 1)
        else:
            demand[r, :] = rng.integers(DEMAND_LO, DEMAND_HI + 1, size=T)

    F = 1 + W + R
    setup = np.empty((F, T))
    ranges = [(PLANT_SETUP_LO, PLANT_SETUP_HI)]
    ranges += [(WAREHOUSE_SETUP_LO, WAREHOUSE_SETUP_HI)] * W
    ranges += [(RETAILER_SETUP_LO, RETAILER_SETUP_HI)] * R
    for i, (lo, hi) in enumerate(ranges):
        if spec.fixed_cost_type is FixedCostType.STATIC:
            setup[i, :] = rng.integers(lo, hi + 1)
        else:
            setup[i, :] = rng.integers(lo, hi + 1, size=T)

    holding = np.empty((F, T))
    holding[0, :] = PLANT_HOLDING
    holding[1:1 + W, :] = WAREHOUSE_HOLDING
    for r in range(R):
        holding[1 + W + r, :] = rng.uniform(RETAILER_HOLDING_LO, RETAILER_HOLDING_HI)

    return Instance(num_periods=T, num_warehouses=W, num_retailers=R,
                    retailer_warehouse=assign, demand=demand,
                    setup_cost=setup, holding_cost=holding)


class ParseError(ValueError):
    """A malformed instance file; line_no is None for problems that
    belong to the instance as a whole rather than to one line."""

    def __init__(self, line_no: int | None, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(reason if line_no is None else f"line {line_no}: {reason}")


def write_instance(instance: Instance) -> str:
    lines = [FILE_MAGIC,
             f"T {instance.num_periods}",
             f"W {instance.num_warehouses}",
             f"R {instance.num_retailers}",
             "ASSIGN"]
    for r in range(instance.num_retailers):
        lines.append(f"{r} {int(instance.retailer_warehouse[r])}")
    lines.append("DEMAND")
    for row in instance.demand:
        lines.append(" ".join(str(int(x)) for x in row))
    lines.append("SETUP")
    for row in instance.setup_cost:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append("HOLD")
    for row in instance.holding_cost:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def read_instance(text: str) -> Instance:
    raw = text.splitlines()
    lines = []  # (line_no, content)
    for no, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((no, stripped))
    pos = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(len(raw) + 1, f"unexpected end of file, expected {what}")
        item = lines[pos]
        pos += 1
        return item

    no, line = take("header")
    if line != FILE_MAGIC:
        raise ParseError(no, f"bad magic, expected {FILE_MAGIC!r}")

    dims = {}
    for key in ("T", "W", "R"):
        no, line = take(f"{key} <int>")
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(no, f"expected '{key} <int>'")
        try:
            dims[key] = int(parts[1])
        except ValueError:
            raise ParseError(no, f"bad integer for {key}: {parts[1]!r}") from None
        if dims[key] < 1:
            raise ParseError(no, f"{key} must be >= 1, got {dims[key]}")
    T, W, R = dims["T"], dims["W"], dims["R"]

    def section(name: str):
        no, line = take(f"{name} section")
        if line != name:
            raise ParseError(no, f"missing {name} section (found {line!r})")

    section("ASSIGN")
    assign: dict[int, int] = {}
    for _ in range(R):
        no, line = take("ASSIGN row")
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(no, "ASSIGN row must be '<retailer> <warehouse>'")
        try:
            r, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(no, f"bad ASSIGN row: {line!r}") from None
        if not 0 <= r < R or r in assign:
            raise ParseError(no, f"bad or duplicate retailer index {r}")
        assign[r] = w

    def matrix(name: str, rows: int, conv) -> np.ndarray:
        section(name)
        out = []
        for i in range(rows):
            no, line = take(f"{name} row {i}")
            parts = line.split()
            if len(parts) != T:
                raise ParseError(no, f"{name} row {i} has {len(parts)} values, expected T={T}")
            try:
                out.append([conv(p) for p in parts])
            except ValueError:
                raise ParseError(no, f"bad value in {name} row {i}") from None
        return np.array(out)

    demand = matrix("DEMAND", R, int)
    setup = matrix("SETUP", 1 + W + R, float)
    hold = matrix("HOLD", 1 + W + R, float)
    if pos != len(lines):
        raise ParseError(lines[pos][0], "trailing content after HOLD section")

    try:
        instance = Instance(num_periods=T, num_warehouses=W, num_retailers=R,
                            retailer_warehouse=[assign[r] for r in range(R)],
                            demand=demand, setup_cost=setup, holding_cost=hold)
    except OverflowError:
        raise ParseError(None, "invalid instance: an integer does not fit "
                               "in 64 bits") from None
    problems = validate(instance)
    if problems:
        raise ParseError(None, "invalid instance: " + "; ".join(problems))
    return instance
