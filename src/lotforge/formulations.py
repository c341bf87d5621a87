"""MIP model builders (STD, MC, 3LF), LP-format export/parse, and the
3LF-to-STD aggregation mapping.

A model is one column table with CSR rows (MipModel); builders,
preprocessing, cut rows, LP export and parse and the LP solve all work
on its arrays. Its dict-shaped variables, objective, constraints and
bounds() are read-only snapshots, built from the arrays on first access
with one shared VarId per column; changing a snapshot changes no model.

Variable names encode identity bijectively (e.g. ``y_w3_t7``,
``w2_r12_k3_t9``) so LP files and solution files can be mapped back;
they are built only at the text boundary. Facility indices in names are
0-based, periods are 1-based.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .instance import Instance, cumulative_demand, facility_keys, facility_label

INF = math.inf


class VarId(NamedTuple):
    """family: 'x'/'s'/'y' (standard space, idx = ordinal within level b),
    'w'/'sig' (multi-commodity, idx = retailer, target period t),
    'x3'/'s3' (retailer-disaggregated, idx = retailer). Periods 0-based."""

    family: str
    b: int
    idx: int
    k: int
    t: int = -1

    def name(self) -> str:
        return _name(*self)


def _name(family: str, b: int, idx: int, k: int, t: int) -> str:
    if family in ("x", "s", "y"):
        return f"{family}_{facility_label(b, idx)}_t{k + 1}"
    if family in ("w", "sig"):
        return f"{family}{b}_r{idx}_k{k + 1}_t{t + 1}"
    if family in ("x3", "s3"):
        return f"{family[0]}{b}_r{idx}_t{k + 1}"
    raise ValueError(f"unknown family {family!r}")


# An index has at most 18 digits, so that it fits the int64 column table.
_N = r"(\d{1,18})"
_STD_RE = re.compile(rf"^([xsy])_(p|w{_N}|r{_N})_t{_N}$")
_MC_RE = re.compile(rf"^(w|sig)([012])_r{_N}_k{_N}_t{_N}$")
_3LF_RE = re.compile(rf"^([xs])([012])_r{_N}_t{_N}$")


def parse_var_name(name: str) -> VarId:
    m = _MC_RE.match(name)
    if m:
        fam, b, r, k, t = m.groups()
        return VarId(fam, int(b), int(r), int(k) - 1, int(t) - 1)
    m = _3LF_RE.match(name)
    if m:
        fam, b, r, k = m.groups()
        return VarId(fam + "3", int(b), int(r), int(k) - 1)
    m = _STD_RE.match(name)
    if m:
        fam, lbl, w, r, k = m.groups()
        if lbl == "p":
            return VarId(fam, 0, 0, int(k) - 1)
        if w is not None:
            return VarId(fam, 1, int(w), int(k) - 1)
        return VarId(fam, 2, int(r), int(k) - 1)
    raise ValueError(f"unparseable variable name {name!r}")


class VarDecl(NamedTuple):
    var: VarId
    lb: float
    ub: float
    binary: bool


class Constraint(NamedTuple):
    name: str
    coefs: dict[VarId, float]
    sense: str  # '=', '<=', '>='
    rhs: float


FAMILIES = ("x", "s", "y", "w", "sig", "x3", "s3")
_X, _S, _Y, _W, _SIG, _X3, _S3 = range(len(FAMILIES))
_FAMILY = {name: code for code, name in enumerate(FAMILIES)}
SENSES = ("=", "<=", ">=")
_EQ, _LE, _GE = range(len(SENSES))
_SENSE = {sense: code for code, sense in enumerate(SENSES)}
_FIELDS = ("kind", "family", "b", "idx", "k", "t", "lb", "ub", "binary", "declared",
           "obj_cols", "obj_vals", "row_names", "sense", "rhs", "indptr", "indices", "data")


def _columns(ids) -> dict:
    """family, b, idx, k and t of columns given as VarIds."""
    family, *rest = tuple(zip(*ids)) or ((),) * 5
    codes = [_FAMILY[f] for f in family]
    return dict(zip(("family", "b", "idx", "k", "t"),
                    (np.array(a, dtype=np.intp) for a in (codes, *rest))))


def _rows(names, sense, rhs, lengths, indices, data) -> dict:
    """The row fields from lists; lengths are the rows' term counts."""
    return {"row_names": names, "sense": np.array(sense, dtype=np.int8),
            "rhs": np.array(rhs, dtype=float),
            "indptr": np.r_[0, np.cumsum(lengths, dtype=np.intp)],
            "indices": np.array(indices, dtype=np.intp), "data": np.array(data, dtype=float)}


def _floats(values: np.ndarray) -> list[float]:
    """values as Python floats that share one object per bit pattern, which
    keeps large snapshots small."""
    distinct, which = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                                return_inverse=True)
    return np.array(distinct.view(float).tolist(), dtype=object)[which].tolist()


class MipModel:
    """A MIP as a column table with CSR rows.

    Column j is the variable (FAMILIES[family[j]], b[j], idx[j], k[j],
    t[j]) with bounds lb[j]..ub[j] and flag binary[j]; the first
    `declared` columns are the model's variables in declaration order,
    and any later one is a variable that only terms reference (check()
    rejects them). The objective is obj_cols/obj_vals in insertion order.
    Row i is row_names[i] with the terms indices/data[indptr[i]:indptr[i +
    1]] in insertion order (explicit zeros kept), SENSES[sense[i]] and
    rhs[i]."""

    def __init__(self, kind: str, variables, objective, constraints):
        """A model assembled from dict parts: VarDecls, an objective dict
        and Constraints. A variable declared twice is referenced at its
        last declaration."""
        ids = [decl.var for decl in variables]
        where = {var: j for j, var in enumerate(ids)}

        def column(var: VarId) -> int:
            if var not in where:
                where[var] = len(ids)
                ids.append(var)
            return where[var]

        obj_cols = [column(var) for var in objective]
        names, coefs, senses, rhs = tuple(zip(*constraints)) or ((),) * 4
        rows = _rows(list(names), [_SENSE[sense] for sense in senses], rhs,
                     list(map(len, coefs)), list(map(column, chain.from_iterable(coefs))),
                     list(chain.from_iterable(map(dict.values, coefs))))
        pad = [(0.0, INF, False)] * (len(ids) - len(variables))
        bounds = np.array([d[1:] for d in variables] + pad, dtype=float).reshape(-1, 3)
        lb, ub, binary = bounds.T
        self.__dict__.update(
            kind=kind, **_columns(ids), lb=lb, ub=ub, binary=binary != 0,
            declared=len(variables), obj_cols=np.array(obj_cols, dtype=np.intp),
            obj_vals=np.array(list(objective.values()), dtype=float), **rows, var_ids=ids)

    @classmethod
    def from_arrays(cls, var_ids=None, **fields) -> MipModel:
        """A model from every field of the table; var_ids, when given, are
        its columns' VarIds."""
        model = cls.__new__(cls)
        model.__dict__.update((name, fields[name]) for name in _FIELDS)
        if var_ids is not None:
            model.var_ids = var_ids
        return model

    def replace(self, **changes) -> MipModel:
        """A model sharing every field but the changed ones."""
        return MipModel.from_arrays(**{**{name: getattr(self, name) for name in _FIELDS},
                                       **changes})

    def with_rows(self, row_names, sense, rhs, indptr, indices, data) -> MipModel:
        """A model with a block of rows (the table's row fields) appended."""
        return self.replace(row_names=self.row_names + row_names,
                            sense=np.r_[self.sense, sense], rhs=np.r_[self.rhs, rhs],
                            indptr=np.r_[self.indptr, self.indptr[-1] + indptr[1:]],
                            indices=np.r_[self.indices, indices], data=np.r_[self.data, data])

    def map_columns(self, fn) -> list:
        """fn(family, b, idx, k, t) of every column."""
        family = np.array(FAMILIES, dtype=object)[self.family].tolist()
        return list(map(fn, family, *(a.tolist() for a in (self.b, self.idx, self.k, self.t))))

    @cached_property
    def var_ids(self) -> list[VarId]:
        """One VarId per column, shared by every snapshot and LP point."""
        return self.map_columns(VarId)

    @cached_property
    def variables(self) -> list[VarDecl]:
        n = self.declared
        return list(map(VarDecl, self.var_ids[:n], _floats(self.lb[:n]), _floats(self.ub[:n]),
                        self.binary[:n].tolist()))

    @cached_property
    def objective(self) -> dict[VarId, float]:
        return dict(zip(map(self.var_ids.__getitem__, self.obj_cols.tolist()),
                        _floats(self.obj_vals)))

    @cached_property
    def constraints(self) -> list[Constraint]:
        variables = list(map(self.var_ids.__getitem__, self.indices.tolist()))
        values, ptr = _floats(self.data), self.indptr.tolist()
        return [Constraint(name, dict(zip(variables[a:b], values[a:b])), SENSES[sense], rhs)
                for name, a, b, sense, rhs in zip(self.row_names, ptr, ptr[1:],
                                                  self.sense.tolist(), _floats(self.rhs))]

    def bounds(self) -> dict[VarId, VarDecl]:
        return {d.var: d for d in self.variables}

    def check(self) -> None:
        """Raise ValueError if a term references an undeclared variable."""
        if self.declared < len(self.family):
            raise ValueError(f"a term references undeclared "
                             f"{self.var_ids[self.declared].name()}")

    def __repr__(self) -> str:
        return (f"MipModel(kind={self.kind!r}, variables={self.variables!r}, "
                f"objective={self.objective!r}, constraints={self.constraints!r})")


# --------------------------------------------------------------------------
# Builders. Each fills the table with numpy in a fixed order of columns,
# objective terms, rows and row terms, which the LP text keeps: the golden
# hashes and tests/model_reference.py pin it.

def _zip(*arrays) -> np.ndarray:
    """Interleave arrays (scalars broadcast) element by element."""
    return np.stack(np.broadcast_arrays(*arrays), axis=-1).ravel()


def _concat(parts) -> list[np.ndarray]:
    """Field-wise concatenation of tuples of broadcast arrays."""
    return [np.concatenate(field)
            for field in zip(*(map(np.ravel, np.broadcast_arrays(*part)) for part in parts))]


def _model(kind: str, blocks, obj, names: list[str], sense, rhs, n_slots: int,
           *terms) -> MipModel:
    """A built model. blocks: column blocks (family, b, idx, k, t, ub,
    binary), every column declared with lb 0; obj: (cols, vals) in
    insertion order; terms: (row, slot, col, value) parts, each row's
    terms put in slot order."""
    *ints, ub, binary = _concat(blocks)
    row, slot, col, val = _concat(terms)
    order = np.argsort(row * n_slots + slot, kind="stable")
    return MipModel.from_arrays(
        kind=kind,
        **dict(zip(("family", "b", "idx", "k", "t"), (a.astype(np.intp) for a in ints))),
        lb=np.zeros(len(ub)), ub=ub.astype(float), binary=binary, declared=len(ub),
        obj_cols=obj[0].astype(np.intp), obj_vals=obj[1].astype(float), row_names=names,
        sense=np.asarray(sense, dtype=np.int8).ravel(), rhs=rhs.ravel(),
        indptr=np.r_[0, np.cumsum(np.bincount(row, minlength=len(names)))],
        indices=col[order].astype(np.intp), data=val[order].astype(float))


def _y_block(instance: Instance):
    """The setup columns, facility-major, as a column block; their costs."""
    fac, k = np.divmod(np.arange(instance.num_facilities * instance.num_periods),
                       instance.num_periods)
    return ((_Y, instance.level[fac], instance.ordinal[fac], k, -1, 1.0, True),
            instance.setup_cost.ravel())


def _retailer_paths(instance: Instance) -> np.ndarray:
    """(R, 3) facilities on each retailer's path: plant, warehouse, itself."""
    rfac = 1 + instance.num_warehouses + np.arange(instance.num_retailers)
    return np.stack([np.zeros_like(rfac), instance.parent[rfac], rfac], axis=1)


def build_std(instance: Instance) -> MipModel:
    T, F = instance.num_periods, instance.num_facilities
    tail = cumulative_demand(instance).table[:, :, -1].ravel()
    fac, t = np.divmod(np.arange(F * T), T)
    q = np.arange(F * T)  # slot (fac, t): columns x 2q and s 2q + 1, then y 2FT + q
    x, s, y = 2 * q, 2 * q + 1, 2 * F * T + q
    flows = (np.tile([_X, _S], F * T), np.repeat(instance.level[fac], 2),
             np.repeat(instance.ordinal[fac], 2), np.repeat(t, 2), -1, _zip(tail, INF), False)
    y_block, setup = _y_block(instance)
    hold = instance.holding_cost.ravel()
    with_hold = _zip(True, hold != 0)
    obj = _zip(y, s)[with_hold], _zip(setup, hold)[with_hold]

    bal = fac * 2 * T + t  # facility fac's balance rows, then its setup rows
    rhs = np.zeros((F, 2, T))
    retail = np.flatnonzero(instance.level == 2)
    rhs[retail, 0] = instance.demand[instance.ordinal[retail]]
    labels = [facility_label(b, idx) for b, idx in facility_keys(instance)]
    names = [f"{row}_{lbl}_t{p}" for lbl in labels for row in ("bal", "setup")
             for p in range(1, T + 1)]
    child = q[T:]  # slots of every facility but the plant
    return _model("STD", [flows, y_block], obj, names, np.tile(np.repeat([_EQ, _LE], T), F),
                  rhs, F + 3,
                  (bal, 0, x, 1.0), (bal, 1, s, -1.0), (bal[t > 0], 2, s[t > 0] - 2, 1.0),
                  (bal[instance.parent[fac[child]] * T + t[child]], 3 + fac[child], x[child],
                   -1.0),
                  (bal + T, 0, x, 1.0), (bal + T, 1, y, -tail))


_MC_ROWS = tuple(f"mc{row}{b}" for row in ("bal", "setup") for b in range(3))


def build_mc(instance: Instance) -> MipModel:
    T, R, F = instance.num_periods, instance.num_retailers, instance.num_facilities
    paths = _retailer_paths(instance)
    tt, kk = np.nonzero(np.tri(T, dtype=bool))  # (t, k <= t), t-major
    r, t, k = np.repeat(np.arange(R), len(tt)), np.tile(tt, R), np.tile(kk, R)
    d = instance.demand[r, t].astype(float)
    # Block p = (r, t, k) holds w0 sig0 w1 sig1 w2 sig2, less the sigmas when
    # k = t: sigma at k = t is identically zero (stock held past the demand
    # period is useless) and is simply not a variable.
    held = k < t
    exists = np.ones((len(r), 6), dtype=bool)
    exists[:, 1::2] = held[:, None]
    col = F * T - 1 + np.cumsum(exists).reshape(-1, 6)  # the column of an existing slot
    w, sig = col[:, ::2], col[:, 1::2][held]
    grid = (np.tile([_W, _SIG], 3), np.repeat(np.arange(3), 2), r[:, None], k[:, None],
            t[:, None], np.where(np.arange(6) % 2, INF, d[:, None]), False)
    flows = [np.broadcast_to(a, exists.shape)[exists] for a in grid]
    y_block, setup = _y_block(instance)
    hold = instance.holding_cost[paths[r[held]], k[held, None]]
    obj = np.r_[np.arange(F * T), sig[hold != 0]], np.r_[setup, hold[hold != 0]]

    row = 6 * np.arange(len(r))[:, None] + np.arange(3)  # balance rows; setup rows + 3
    after = k > 0  # sig(b, k - 1) is in block p - 1
    rhs = np.zeros((len(r), 6))
    rhs[~held, 2] = d[~held]
    suffixes = [f"_r{a}_k{c + 1}_t{e + 1}"
                for a, c, e in zip(r.tolist(), k.tolist(), t.tolist())]
    has_y = d != 0
    return _model("MC", [y_block, flows], obj, [p + s for s in suffixes for p in _MC_ROWS],
                  np.tile(np.repeat([_EQ, _LE], 3), len(r)), rhs, 4,
                  (row, 0, w, 1.0), (row[after], 1, col[np.flatnonzero(after) - 1, 1::2], 1.0),
                  (row[:, :2], 2, w[:, 1:], -1.0), (row[held], 3, sig, -1.0),
                  (row + 3, 0, w, 1.0),
                  (row[has_y] + 3, 1, (paths[r] * T + k[:, None])[has_y], -d[has_y, None]))


def build_3lf(instance: Instance) -> MipModel:
    T, R, F = instance.num_periods, instance.num_retailers, instance.num_facilities
    paths = _retailer_paths(instance)
    r, b, t = (a.ravel() for a in np.indices((R, 3, T)))
    tail = cumulative_demand(instance).table[paths[r, 2], t, -1]
    q = np.arange(3 * R * T)  # slot (r, b, t): columns x3 2q and s3 2q + 1, then y
    x, s = 2 * q, 2 * q + 1
    flows = (np.tile([_X3, _S3], 3 * R * T), np.repeat(b, 2), np.repeat(r, 2), np.repeat(t, 2),
             -1, _zip(tail, INF), False)
    y_block, setup = _y_block(instance)
    hold = instance.holding_cost[paths[r, b], t]
    obj = np.r_[6 * R * T + np.arange(F * T), s[hold != 0]], np.r_[setup, hold[hold != 0]]
    rhs = np.zeros((3 * R * T, 2))
    rhs[b == 2, 0] = instance.demand[r[b == 2], t[b == 2]]
    names = [f"{row}3_{lvl}_r{ret}_t{p}" for ret in range(R) for lvl in range(3)
             for p in range(1, T + 1) for row in ("bal", "setup")]
    return _model("3LF", [flows, y_block], obj, names, np.tile([_EQ, _LE], 3 * R * T), rhs, 4,
                  (2 * q, 0, x, 1.0), (2 * q, 1, s, -1.0),
                  (2 * q[t > 0], 2, s[t > 0] - 2, 1.0),
                  (2 * q[b < 2], 3, x[b < 2] + 2 * T, -1.0), (2 * q + 1, 0, x, 1.0),
                  (2 * q + 1, 1, 6 * R * T + paths[r, b] * T + t, -tail))


VarValueMap = dict[VarId, float]


def map_3lf_to_std(instance: Instance, point: VarValueMap) -> VarValueMap:
    """Aggregate a 3LF-space point into STD space.

    Per-facility x and s are the sums of the per-retailer disaggregated
    values over the facility's retailer descendants; y passes through.
    The objective value is preserved.
    """
    out: VarValueMap = {}
    for var, val in point.items():
        if var.family == "y":
            out[var] = val
    served: list[list[int]] = [[] for _ in range(instance.num_facilities)]
    for r, path in enumerate(_retailer_paths(instance).tolist()):
        for a in path:
            served[a].append(r)
    for fac, (b, idx) in enumerate(facility_keys(instance)):
        for k in range(instance.num_periods):
            for fam_out, fam_in in (("x", "x3"), ("s", "s3")):
                total = 0.0
                for r in served[fac]:
                    key = VarId(fam_in, b, r, k)
                    if key not in point:
                        raise KeyError(f"missing value for {key.name()}")
                    total += point[key]
                out[VarId(fam_out, b, idx, k)] = total
    return out


def objective_value(model: MipModel, point: VarValueMap) -> float:
    """The objective at a point (absent = 0), summed in insertion order."""
    ids = model.var_ids
    return sum(coef * point.get(ids[j], 0.0)
               for j, coef in zip(model.obj_cols.tolist(), model.obj_vals.tolist()))


def evaluate_point(model: MipModel, point: VarValueMap,
                   tol: float = 1e-6) -> list[str]:
    """Names of all rows and bounds violated by a point (absent = 0)."""
    ids, n = model.var_ids, model.declared
    x = np.array([point.get(var, 0.0) for var in ids], dtype=float)
    out = (x[:n] < model.lb[:n] - tol) | (x[:n] > model.ub[:n] + tol)
    bad = [f"bound:{ids[j].name()}" for j in np.flatnonzero(out).tolist()]
    m = len(model.row_names)
    row = np.repeat(np.arange(m), np.diff(model.indptr))
    lhs = np.bincount(row, weights=model.data * x[model.indices], minlength=m)
    rhs, sense = model.rhs, model.sense
    violated = (((sense == _EQ) & (np.abs(lhs - rhs) > tol))
                | ((sense == _LE) & (lhs > rhs + tol)) | ((sense == _GE) & (lhs < rhs - tol)))
    return bad + [model.row_names[i] for i in np.flatnonzero(violated).tolist()]


# --------------------------------------------------------------------------
# LP-format text


def _written_terms(indptr, indices, data, declared: int,
                   spaced) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of CSR rows' written terms, row after row, and each
    row's term count. A term is two pieces, "± |c| " and "name ", built
    once per distinct value and per column.

    Zero coefficients are left out. A row's terms appear in declaration
    order, undeclared variables last in insertion order."""
    keep = data != 0.0
    row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))[keep]
    col = indices[keep]
    key = np.where(col < declared, col, declared + np.flatnonzero(keep))
    order = np.argsort(row * (declared + len(data)) + key)
    values, which = np.unique(data[keep], return_inverse=True)
    signed = np.array([f"{'-' if v < 0 else '+'} {abs(v)!r} " for v in values.tolist()],
                      dtype=object)
    return (_zip(signed[which[order]], spaced[col[order]]),
            np.bincount(row, minlength=len(indptr) - 1))


def export_lp(model: MipModel) -> str:
    """LP text of a model: every column is named once, and the rows are
    written a block of about 2**16 terms at a time, which bounds the
    memory of the term pieces."""
    names = np.array(model.map_columns(_name), dtype=object)
    spaced, n = names + " ", model.declared
    obj, _ = _written_terms(np.array([0, len(model.obj_cols)]), model.obj_cols,
                            model.obj_vals, n, spaced)
    out = [f"\\ kind: {model.kind}\nMinimize\n obj: {''.join(obj)[:-1]}\nSubject To\n"]
    indptr, m = model.indptr, len(model.row_names)
    starts = np.searchsorted(indptr, np.arange(0, indptr[-1], 1 << 16), side="right") - 1
    edges = np.unique(np.r_[0, starts, m]).tolist()
    for lo, hi in zip(edges, edges[1:]):
        a, b = indptr[lo], indptr[hi]
        terms, counts = _written_terms(indptr[lo:hi + 1] - a, model.indices[a:b],
                                       model.data[a:b], n, spaced)
        terms, ptr = terms.tolist(), np.r_[0, 2 * np.cumsum(counts)].tolist()
        # An empty row keeps the space that would have preceded its terms.
        out += [f" {name}: {''.join(terms[p:q]) if q > p else ' '}{SENSES[sense]} {rhs!r}\n"
                for name, p, q, sense, rhs in zip(model.row_names[lo:hi], ptr, ptr[1:],
                                                  model.sense[lo:hi].tolist(),
                                                  model.rhs[lo:hi].tolist())]
    out.append("Bounds\n")
    lb, ub, binary = model.lb[:n], model.ub[:n], model.binary[:n]
    shown = ~binary & ~((lb == 0.0) & (ub == INF))
    for name, low, up in zip(names[:n][shown].tolist(), lb[shown].tolist(),
                             ub[shown].tolist()):
        if low == up:
            out.append(f" {name} = {low!r}\n")
        elif up == INF:
            out.append(f" {name} >= {low!r}\n")
        else:
            out.append(f" {low!r} <= {name} <= {up!r}\n")
    out.append("Binaries\n")
    out.extend(f" {name}\n" for name in names[:n][binary].tolist())
    out.append("End\n")
    return "".join(out)


class LpParseError(ValueError):
    pass


_SECTIONS = {"minimize": "minimize", "maximize": "maximize",
             "subject to": "subject to", "st": "subject to", "s.t.": "subject to",
             "bounds": "bounds", "binaries": "binaries", "binary": "binaries",
             "generals": "generals", "end": "end"}
# A header spelled with the long s or a dotless or dotted capital i, which
# case-insensitive matching equates with s and i, opens an ignored section.
_FOLD = str.maketrans({"\u017f": "s", "\u0131": "i", "\u0130": "i"})
_SENSES = {"<=": _LE, ">=": _GE, "=": _EQ, "<": _LE, ">": _GE}
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|inf)$")
_PLUS, _MINUS = object(), object()


def _token_entry(tok: str, columns: dict[VarId, int]):
    """What an expression token is: a finite number (float), a variable
    (its column, numbered in order of first appearance), or the message of
    the error it raises."""
    if _NUM_RE.match(tok):
        value = float(tok)
        return value if math.isfinite(value) else f"coefficient {tok!r} is not finite"
    try:
        var = parse_var_name(tok)
    except ValueError as exc:
        return str(exc)
    return columns.setdefault(var, len(columns))


def _parse_expr(tokens: list[str], where: str, table: dict, columns: dict,
                indices: list, data: list) -> int:
    """Append an expression's terms to indices and data, a variable's
    repeated terms summed at its first; returns the number of terms."""
    coefs: dict[int, float] = {}
    sign = 1.0
    coef = None
    terms = 0
    for tok in tokens:
        entry = table.get(tok)
        if entry is None:
            entry = table[tok] = _token_entry(tok, columns)
        kind = entry.__class__
        if kind is int:
            value = sign if coef is None else sign * coef
            coefs[entry] = coefs.get(entry, 0.0) + value
            sign, coef = 1.0, None
            terms += 1
        elif kind is float:
            if coef is not None:
                raise LpParseError(f"{where}: dangling number {tok!r}")
            coef = entry
        elif entry is _PLUS:
            sign, coef = 1.0, None
        elif entry is _MINUS:
            sign, coef = -1.0, None
        else:
            raise LpParseError(f"{where}: {entry}")
    if coef is not None:
        raise LpParseError(f"{where}: trailing coefficient without variable")
    # Finite terms of one variable can still add up beyond the float range.
    if terms > len(coefs) and not all(map(math.isfinite, coefs.values())):
        raise LpParseError(f"{where}: a coefficient sum is not finite")
    indices.extend(coefs)
    data.extend(coefs.values())
    return len(coefs)


def _labeled(lines: list[str]):
    """(label, tokens) of each labelled expression, in order. A label is a
    token ending in ':' or followed by a ':' token, anywhere in a line; the
    tokens up to the next label, over any number of lines, are its own."""
    label = tokens = None
    for line in lines:
        words = line.split()
        if line.count(":") == 1 and words[0][-1] == ":":  # ' name: expr'
            if tokens is not None:
                yield label, tokens
            label, tokens = words[0][:-1], words
            del tokens[0]
            continue
        j = 0
        while j < len(words):
            word = words[j]
            if word.endswith(":") or (j + 1 < len(words) and words[j + 1] == ":"):
                if tokens is not None:
                    yield label, tokens
                if word.endswith(":"):
                    label = word[:-1]
                else:
                    label = word
                    j += 1
                tokens = []
            elif tokens is None:
                raise LpParseError(f"expression before label in {line!r}")
            else:
                tokens.append(word)
            j += 1
    if tokens is not None:
        yield label, tokens


def _bound(tok: str) -> float:
    value = float(tok)
    if value != value:
        raise ValueError(f"bound {tok!r} is not a number")
    return value


def parse_lp(text: str) -> MipModel:
    """Parse LP text produced by export_lp back into a model; malformed
    text, or a coefficient, right-hand side or bound that is not a number
    (bounds may be infinite, coefficients and right-hand sides may not be
    NaN, coefficients may not be infinite), raises LpParseError.

    Variables are declared in order of first appearance: in the objective,
    the rows, the lower then the upper bounds, and the binaries."""
    kind = "UNKNOWN"
    sections: dict[str, list[str]] = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("\\"):
            m = re.match(r"\\\s*kind:\s*(\S+)", line)
            if m:
                kind = m.group(1)
            continue
        if not line:
            continue
        key = line.lower()
        name = _SECTIONS.get(key)
        if name is None and not line.isascii() \
                and line.translate(_FOLD).lower() in _SECTIONS:
            name = key
        if name is not None:
            current = name
            sections.setdefault(current, [])
            continue
        if current is None:
            raise LpParseError(f"line {line_no}: content before any section")
        sections[current].append(line)

    if "minimize" not in sections:
        raise LpParseError("missing Minimize section")

    # One entry per distinct token of the file, shared by every expression
    # that uses it, and one column per distinct variable.
    table: dict[str, object] = {"+": _PLUS, "-": _MINUS}
    columns: dict[VarId, int] = {}

    obj_items = list(_labeled(sections["minimize"]))
    if len(obj_items) != 1:
        raise LpParseError("objective must carry exactly one label")
    obj_cols: list[int] = []
    obj_vals: list[float] = []
    _parse_expr(obj_items[0][1], "objective", table, columns, obj_cols, obj_vals)

    names, senses, rhss, lengths, indices, data = [], [], [], [], [], []
    for name, tokens in _labeled(sections.get("subject to", [])):
        sense = _SENSES.get(tokens[-2]) if len(tokens) >= 2 else None
        rhs_text = tokens[-1] if tokens else ""
        del tokens[-2:]
        if sense is None or not _SENSES.keys().isdisjoint(tokens):
            raise LpParseError(f"row {name}: expected '<expr> <sense> <rhs>'")
        try:
            rhs = float(rhs_text)
        except ValueError:
            raise LpParseError(f"row {name}: bad right-hand side {rhs_text!r}") from None
        if rhs != rhs:
            raise LpParseError(f"row {name}: right-hand side {rhs_text!r} is not a number")
        lengths.append(_parse_expr(tokens, f"row {name}", table, columns, indices, data))
        names.append(name)
        senses.append(sense)
        rhss.append(rhs)

    ids = list(columns)

    def variable(tok: str) -> VarId:
        entry = table.get(tok)
        return ids[entry] if entry.__class__ is int else parse_var_name(tok)

    lbs: dict[VarId, float] = {}
    ubs: dict[VarId, float] = {}
    for line in sections.get("bounds", []):
        tokens = line.split()
        try:
            if len(tokens) == 3 and tokens[1] == "=":
                var = variable(tokens[0])
                lbs[var] = ubs[var] = _bound(tokens[2])
            elif len(tokens) == 3 and tokens[1] == ">=":
                var = variable(tokens[0])
                lbs[var] = _bound(tokens[2])
            elif len(tokens) == 3 and tokens[1] == "<=":
                var = variable(tokens[0])
                ubs[var] = _bound(tokens[2])
            elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                var = variable(tokens[2])
                lbs[var] = _bound(tokens[0])
                ubs[var] = _bound(tokens[4])
            elif len(tokens) == 2 and tokens[1].lower() == "free":
                var = variable(tokens[0])
                lbs[var] = -INF
            else:
                raise LpParseError(f"unrecognized bound line {line!r}")
        except ValueError as exc:
            raise LpParseError(f"bound line {line!r}: {exc}") from None

    binaries: dict[VarId, None] = {}
    for line in sections.get("binaries", []):
        for tok in line.split():
            try:
                binaries[variable(tok)] = None
            except ValueError as exc:
                raise LpParseError(f"Binaries: {exc}") from None

    for var in chain(lbs, ubs, binaries):
        columns.setdefault(var, len(columns))
    ids = list(columns)
    n = len(ids)
    lb, ub, binary = np.zeros(n), np.full(n, INF), np.zeros(n, dtype=bool)
    for values, bound in ((lbs, lb), (ubs, ub)):
        bound[[columns[var] for var in values]] = list(values.values())
    at = [columns[var] for var in binaries]
    lb[at], ub[at], binary[at] = 0.0, 1.0, True
    return MipModel.from_arrays(
        ids, kind=kind, **_columns(ids), lb=lb, ub=ub, binary=binary, declared=n,
        obj_cols=np.array(obj_cols, dtype=np.intp), obj_vals=np.array(obj_vals, dtype=float),
        **_rows(names, senses, rhss, lengths, indices, data))


def export_mip_start(solution_vars: VarValueMap) -> str:
    """MIP-start text: one '<varname> <value>' line per variable."""
    return "".join(f"{var.name()} {float(val)!r}\n" for var, val in solution_vars.items())


def std_point_from_solution(instance: Instance, x: np.ndarray, y: np.ndarray,
                            s: np.ndarray) -> VarValueMap:
    """Flatten (F, T) solution matrices into an STD-space value map."""
    point: VarValueMap = {}
    for fac, (b, idx) in enumerate(facility_keys(instance)):
        for t in range(instance.num_periods):
            point[VarId("x", b, idx, t)] = float(x[fac, t])
            point[VarId("y", b, idx, t)] = float(y[fac, t])
            point[VarId("s", b, idx, t)] = float(s[fac, t])
    return point
