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
from itertools import chain, compress, count, repeat
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


FAMILIES = ("x", "s", "y", "w", "sig", "x3", "s3")
_X, _S, _Y, _W, _SIG, _X3, _S3 = range(len(FAMILIES))
_FAMILY = {name: code for code, name in enumerate(FAMILIES)}

# A valid name's head (the group), or '' for a line that is no name. The
# head fixes which fields the name's digit runs fill. An index has at most
# 18 digits, so that it fits the int64 column table.
_D = "[0-9]{1,18}"
_NAME_RE = re.compile(rf"^(?:((?:w|sig)(?=[012]_r{_D}_k{_D}_t{_D}$)|[xs](?=[012]_r{_D}_t{_D}$)"
                      rf"|[xsy]_(?:p(?=_t{_D}$)|[wr](?={_D}_t{_D}$))).*|.*)$", re.MULTILINE)
# head: (family, level, then the digit run that fills each of the fields
# b, idx, k and t, or -1: such a b is the level, idx 0 and t period 0).
_HEADS = {"w": (_W, 0, 0, 1, 2, 3), "sig": (_SIG, 0, 0, 1, 2, 3),
          "x": (_X3, 0, 0, 1, 2, -1), "s": (_S3, 0, 0, 1, 2, -1),
          **{f"{family}_{level}": (_FAMILY[family], b, -1, *((-1, 0) if b == 0 else (0, 1)), -1)
             for family in "xsy" for b, level in enumerate("pwr")}}
_HEAD_CODE = {head: code for code, head in enumerate(_HEADS)}
_HEAD_TABLE = np.array(list(_HEADS.values()), dtype=np.int64)
_NOT_DIGIT = str.maketrans(dict.fromkeys("_gikprstwxy\n", " "))


def parse_var_names(names: list[str]) -> np.ndarray:
    """(len(names), 5) int64 columns family, b, idx, k and t of each name,
    as its VarId holds them (FAMILIES[family]); family is -1 where a name
    is unparseable. Names may not hold a line feed."""
    out = np.full((len(names), 5), -1, dtype=np.int64)
    if not names:
        return out
    heads = _NAME_RE.findall("\n".join(names))
    if len(heads) != len(names):
        raise ValueError("a variable name holds a line feed")
    code = np.fromiter(map(_HEAD_CODE.get, heads, repeat(-1)), np.intp, len(names))
    ok = code >= 0
    family, level, slot = np.hsplit(_HEAD_TABLE[code[ok]], [1, 2])
    runs = np.fromstring("\n".join(compress(names, ok)).translate(_NOT_DIGIT),
                         dtype=np.int64, sep=" ")
    counts = (slot >= 0).sum(axis=1)
    at = (np.cumsum(counts) - counts)[:, None] + slot
    fields = np.where(slot >= 0, runs[np.maximum(at, 0)], 0)
    fields[:, 0] += level[:, 0]
    fields[:, 2:] -= 1  # periods are 1-based in names
    out[ok, 0], out[ok, 1:] = family[:, 0], fields
    return out


def parse_var_name(name: str) -> VarId:
    family, *fields = (-1,) if "\n" in name else parse_var_names([name])[0].tolist()
    if family < 0:
        raise ValueError(f"unparseable variable name {name!r}")
    return VarId(FAMILIES[family], *fields)


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


SENSES = ("=", "<=", ">=")
_EQ, _LE, _GE = range(len(SENSES))
_SENSE = {sense: code for code, sense in enumerate(SENSES)}
_FIELDS = ("kind", "family", "b", "idx", "k", "t", "lb", "ub", "binary", "obj_cols",
           "obj_vals", "row_names", "sense", "rhs", "indptr", "indices", "data")


def _floats(values: np.ndarray) -> list[float]:
    """values as Python floats that share one object per bit pattern, which
    keeps large snapshots small."""
    distinct, which = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                                return_inverse=True)
    return np.array(distinct.view(float).tolist(), dtype=object)[which].tolist()


class MipModel:
    """A MIP as a column table with CSR rows.

    Column j is the declared variable (FAMILIES[family[j]], b[j], idx[j],
    k[j], t[j]) with bounds lb[j]..ub[j] and flag binary[j], in
    declaration order; every term's column is one of them. The objective
    is obj_cols/obj_vals in insertion order. Row i is row_names[i] with
    the terms indices/data[indptr[i]:indptr[i + 1]] in insertion order
    (explicit zeros kept), SENSES[sense[i]] and rhs[i]."""

    def __init__(self, kind: str, variables, objective, constraints):
        """A model assembled from dict parts: VarDecls, an objective dict
        and Constraints. A variable declared twice is referenced at its
        last declaration; a term whose variable is not declared raises
        ValueError."""
        ids = [decl.var for decl in variables]
        where = {var: j for j, var in enumerate(ids)}
        names, coefs, senses, rhs = tuple(zip(*constraints)) or ((),) * 4
        try:
            obj_cols = list(map(where.__getitem__, objective))
            indices = list(map(where.__getitem__, chain.from_iterable(coefs)))
        except KeyError as exc:
            raise ValueError(f"a term references undeclared {exc.args[0].name()}") from None
        lb, ub, binary = np.array([d[1:] for d in variables], dtype=float).reshape(-1, 3).T
        family, *fields = tuple(zip(*ids)) or ((),) * 5
        self.__dict__.update(
            kind=kind, family=np.array([_FAMILY[f] for f in family], dtype=np.intp),
            **dict(zip(("b", "idx", "k", "t"), (np.array(a, dtype=np.intp) for a in fields))),
            lb=lb, ub=ub, binary=binary != 0,
            obj_cols=np.array(obj_cols, dtype=np.intp),
            obj_vals=np.array(list(objective.values()), dtype=float), row_names=list(names),
            sense=np.array([_SENSE[sense] for sense in senses], dtype=np.int8),
            rhs=np.array(rhs, dtype=float),
            indptr=np.r_[0, np.cumsum(list(map(len, coefs)), dtype=np.intp)],
            indices=np.array(indices, dtype=np.intp),
            data=np.array(list(chain.from_iterable(map(dict.values, coefs))), dtype=float),
            var_ids=ids)

    @classmethod
    def from_arrays(cls, **fields) -> MipModel:
        """A model from every field of the table."""
        model = cls.__new__(cls)
        model.__dict__.update((name, fields[name]) for name in _FIELDS)
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
        return list(map(VarDecl, self.var_ids, _floats(self.lb), _floats(self.ub),
                        self.binary.tolist()))

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
        lb=np.zeros(len(ub)), ub=ub.astype(float), binary=binary,
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


def build_std(instance: Instance) -> MipModel:
    T, F = instance.num_periods, instance.num_facilities
    tail = cumulative_demand(instance)[:, :, -1].ravel()
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
    paths = instance.path
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
    paths = instance.path
    r, b, t = (a.ravel() for a in np.indices((R, 3, T)))
    tail = cumulative_demand(instance)[paths[r, 2], t, -1]
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


def _std_vars(instance: Instance, families: tuple[str, ...]):
    """The families' standard-space VarIds facility by facility, then
    period by period, the families interleaved."""
    n, T = len(families), instance.num_periods
    fac, t = np.divmod(np.repeat(np.arange(instance.num_facilities * T), n), T)
    return map(VarId, families * (len(fac) // n), instance.level[fac].tolist(),
               instance.ordinal[fac].tolist(), t.tolist())


def map_3lf_to_std(instance: Instance, point: VarValueMap) -> VarValueMap:
    """Aggregate a 3LF-space point into STD space.

    Per-facility x and s are the sums of the per-retailer disaggregated
    values over the facility's retailer descendants, added in ascending
    retailer order; y passes through. The objective value is preserved.
    A missing x3 or s3 value raises KeyError with its VarId.
    """
    R, T = instance.num_retailers, instance.num_periods
    r, b, k = (a.ravel().tolist() for a in np.indices((R, 3, T)))
    flows = np.zeros((instance.num_facilities, T, 2))  # x and s of every facility
    for f, family in enumerate(("x3", "s3")):
        values = list(map(point.__getitem__, map(VarId, repeat(family), b, r, k)))
        # add.at adds the path rows one at a time, retailers ascending.
        np.add.at(flows[:, :, f], instance.path, np.reshape(values, (R, 3, T)))
    out = {var: val for var, val in point.items() if var.family == "y"}
    out.update(zip(_std_vars(instance, ("x", "s")), flows.ravel().tolist()))
    return out


def objective_value(model: MipModel, point: VarValueMap) -> float:
    """The objective at a point (absent = 0), summed in insertion order."""
    ids = model.var_ids
    return sum(coef * point.get(ids[j], 0.0)
               for j, coef in zip(model.obj_cols.tolist(), model.obj_vals.tolist()))


def evaluate_point(model: MipModel, point: VarValueMap,
                   tol: float = 1e-6) -> list[str]:
    """Names of all rows and bounds violated by a point (absent = 0)."""
    ids = model.var_ids
    x = np.array([point.get(var, 0.0) for var in ids], dtype=float)
    out = (x < model.lb - tol) | (x > model.ub + tol)
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


def _written_terms(indptr, indices, data, spaced) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of CSR rows' written terms, row after row, and each
    row's term count. A term is two pieces, "± |c| " and "name ", built
    once per distinct value and per column (spaced: each column's name
    and a space). Zero coefficients are left out, and a row's terms
    appear in column order."""
    keep = data != 0.0
    row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))[keep]
    col = indices[keep]
    order = np.argsort(row * len(spaced) + col)
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
    spaced = names + " "
    obj, _ = _written_terms(np.array([0, len(model.obj_cols)]), model.obj_cols,
                            model.obj_vals, spaced)
    out = [f"\\ kind: {model.kind}\nMinimize\n obj: {''.join(obj)[:-1]}\nSubject To\n"]
    indptr, m = model.indptr, len(model.row_names)
    starts = np.searchsorted(indptr, np.arange(0, indptr[-1], 1 << 16), side="right") - 1
    edges = np.unique(np.r_[0, starts, m]).tolist()
    for lo, hi in zip(edges, edges[1:]):
        a, b = indptr[lo], indptr[hi]
        terms, counts = _written_terms(indptr[lo:hi + 1] - a, model.indices[a:b],
                                       model.data[a:b], spaced)
        terms, ptr = terms.tolist(), np.r_[0, 2 * np.cumsum(counts)].tolist()
        # An empty row keeps the space that would have preceded its terms.
        out += [f" {name}: {''.join(terms[p:q]) if q > p else ' '}{SENSES[sense]} {rhs!r}\n"
                for name, p, q, sense, rhs in zip(model.row_names[lo:hi], ptr, ptr[1:],
                                                  model.sense[lo:hi].tolist(),
                                                  model.rhs[lo:hi].tolist())]
    out.append("Bounds\n")
    lb, ub, binary = model.lb, model.ub, model.binary
    shown = ~binary & ~((lb == 0.0) & (ub == INF))
    for name, low, up in zip(names[shown].tolist(), lb[shown].tolist(),
                             ub[shown].tolist()):
        if low == up:
            out.append(f" {name} = {low!r}\n")
        elif up == INF:
            out.append(f" {name} >= {low!r}\n")
        else:
            out.append(f" {low!r} <= {name} <= {up!r}\n")
    out.append("Binaries\n")
    out.extend(f" {name}\n" for name in names[binary].tolist())
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
_BLOCK = 1 << 12  # lines split into tokens at a time, and rows read into terms at a time
# The classes of an expression token; a token of no other class is _BAD.
_VAR, _NUMBER, _PLUS, _MINUS, _BAD = range(5)
# Faults of an expression other than a bad token at a position.
_TRAILING, _OVERFLOW = -2, -3


def _header(line: str) -> str | None:
    """The section a header line opens, or None."""
    key = line.lower()
    if key in _SECTIONS:
        return _SECTIONS[key]
    if not line.isascii() and line.translate(_FOLD).lower() in _SECTIONS:
        return key
    return None


def _sections(text: str) -> tuple[str, dict[str, list[str]]]:
    """The kind comment and each section's content lines, stripped."""
    lines = list(map(str.strip, text.splitlines()))
    # Only a line of at most 10 characters can be empty or a header.
    marked = ((np.fromiter(map(len, lines), np.intp, len(lines)) <= 10)
              | np.fromiter(map(str.startswith, lines, repeat("\\")), bool, len(lines)))
    kind, sections, current, start = "UNKNOWN", {}, None, 0
    for i in [*np.flatnonzero(marked).tolist(), len(lines)]:
        line = lines[i] if i < len(lines) else ""
        name = _header(line)
        if line and line[0] != "\\" and name is None:
            continue  # a short content line
        if start < i:
            if current is None:
                raise LpParseError(f"line {start + 1}: content before any section")
            current += lines[start:i]
        start = i + 1
        if name is not None:
            current = sections.setdefault(name, [])
        elif m := re.match(r"\\\s*kind:\s*(\S+)", line):
            kind = m.group(1)
    return kind, sections


def _read(lines: list[str], index: dict[str, int], counter) -> np.ndarray:
    """The tokens of lines as codes, split a block of lines at a time. A
    token's code is the count of tokens read before its first occurrence
    (int32: a text of 2**31 tokens would be far beyond memory anyway)."""
    codes = [np.zeros(0, dtype=np.int32)]
    for a in range(0, len(lines), _BLOCK):
        words = "\n".join(lines[a:a + _BLOCK]).split()
        codes.append(np.fromiter(map(index.setdefault, words, counter), np.int32, len(words)))
    return np.concatenate(codes)


def _counts(lines: list[str]) -> np.ndarray:
    """Each line's token count."""
    return np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))


def _labeled(lines: list[str], c: np.ndarray, label: np.ndarray, colon: int):
    """The labelled expressions of a section's token codes c: each label's
    position, whether it is 'name :', and the token range lo..hi of its
    expression. A label is a token ending in ':', or a token followed by a
    ':' token on its line; the tokens up to the next label, over any number
    of lines, are its own."""
    pair = np.zeros(len(c), dtype=bool)
    if (c == colon).any():
        line = np.repeat(np.arange(len(lines), dtype=np.int32), _counts(lines))
        pair[:-1] = ~label[c[:-1]] & (c[1:] == colon) & (line[:-1] == line[1:])
    head = label[c] | pair
    head[1:] &= ~pair[:-1]  # the ':' of 'name :'
    if len(c) and not head[0]:
        raise LpParseError(f"expression before label in {lines[0]!r}")
    at = np.flatnonzero(head)
    return at, pair[at], at + 1 + pair[at], np.r_[at, len(c)][1:]


def _terms(c, lo, hi, cls, number, vid):
    """The terms of the expressions c[lo:hi]: each expression's term count,
    and every term's variable (value id) and coefficient, expression after
    expression. A term's sign is the last since the previous variable; a
    number followed by a sign is dropped; a variable's repeated terms are
    summed in order at its first. Also each expression's fault: the
    position in c of its first bad token, else _TRAILING, _OVERFLOW or -1."""
    lengths = hi - lo
    start = np.cumsum(lengths) - lengths
    inside = np.zeros(len(c) + 1, dtype=np.int8)
    np.add.at(inside, lo, 1)
    np.add.at(inside, hi, -1)
    t = c[np.cumsum(inside[:-1], dtype=np.int8).astype(bool)]
    e = np.repeat(np.arange(len(lo), dtype=np.int32), lengths)
    k = cls[t]
    prev = np.r_[np.int8(-1), k[:-1]]  # the class of the token before, in the expression, or -1
    prev[start[lengths > 0]] = -1
    fault = np.full(len(lo), -1)
    # Without a fault, a variable's coefficient is the number just before it,
    # and its sign is the token before it or before that number.
    var = np.flatnonzero(k == _VAR)
    k1, k2 = prev[var], np.where(prev[var] >= 0, prev[var - 1], -1)
    coef = np.where(k1 == _NUMBER, number[t[var - 1]], 1.0)
    _, which = np.unique(e[var] * np.intp(len(vid)) + vid[t[var]], return_inverse=True)
    first = np.full(len(var), len(var))
    np.minimum.at(first, which, np.arange(len(var)))
    first = first[which]  # each term's first occurrence in its expression
    sums = np.zeros(len(var))
    with np.errstate(over="ignore"):
        np.add.at(sums, first, np.where((k1 == _MINUS) | ((k1 == _NUMBER) & (k2 == _MINUS)),
                                        -coef, coef))
    kept = first == np.arange(len(var))
    term_e = e[var[kept]]

    fault[term_e[~np.isfinite(sums[kept])]] = _OVERFLOW
    last = (start + lengths - 1)[lengths > 0]
    fault[e[last[k[last] == _NUMBER]]] = _TRAILING
    bad = np.flatnonzero((k == _BAD) | ((k == _NUMBER) & (prev == _NUMBER)))
    faulty, at = np.unique(e[bad], return_index=True)
    fault[faulty] = lo[faulty] + bad[at] - start[faulty]
    return np.bincount(term_e, minlength=len(lo)), vid[t[var[kept]]], sums[kept], fault


def _row_block(c, lo, hi, names, tokens, cls, number, sense, vid):
    """Rows c[lo:hi] (each an expression, a sense and a right-hand side):
    their senses, right-hand sides, term counts, terms' variables and
    coefficients; a malformed row raises LpParseError."""
    base = lo[0]
    c, lo, hi = c[base:hi[-1]], lo - base, hi - base
    mid = np.maximum(hi - 2, lo)
    senses = np.r_[0, np.cumsum(sense[c] >= 0, dtype=np.int32)]
    row_sense = np.where(hi - lo >= 2, sense[c[np.maximum(hi - 2, 0)]], -1)
    malformed = (row_sense < 0) | (senses[mid] > senses[lo])
    rhs_tok = np.where(hi > lo, c[np.maximum(hi - 1, 0)], -1)
    value, ok = _read_floats(tokens, rhs_tok[~malformed])
    rhs = value[rhs_tok]
    counts, row_vid, data, fault = _terms(c, lo, mid, cls, number, vid)
    bad = malformed | ~ok[rhs_tok] | np.isnan(rhs) | (fault != -1)
    if bad.any():
        i = int(np.argmax(bad))
        where, tok = f"row {names[i]}", tokens[rhs_tok[i]]
        if malformed[i]:
            raise LpParseError(f"{where}: expected '<expr> <sense> <rhs>'")
        if not ok[rhs_tok[i]]:
            raise LpParseError(f"{where}: bad right-hand side {tok!r}")
        if rhs[i] != rhs[i]:
            raise LpParseError(f"{where}: right-hand side {tok!r} is not a number")
        raise LpParseError(_expression_error(fault[i], where, tokens, c, cls))
    return row_sense.astype(np.int8), rhs, counts, row_vid, data


def _expression_error(fault: int, where: str, tokens: list[str], c, cls) -> str:
    """The message of an expression's fault (see _terms)."""
    if fault == _TRAILING:
        return f"{where}: trailing coefficient without variable"
    if fault == _OVERFLOW:
        return f"{where}: a coefficient sum is not finite"
    tok = tokens[c[fault]]
    if cls[c[fault]] == _NUMBER:
        return f"{where}: dangling number {tok!r}"
    if _NUM_RE.match(tok):
        return f"{where}: coefficient {tok!r} is not finite"
    return f"{where}: unparseable variable name {tok!r}"


def _read_floats(tokens: list[str], codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float() of each distinct token among codes, by code, and whether it
    could be read (NaN where not)."""
    value, ok = np.full(len(tokens), np.nan), np.zeros(len(tokens), dtype=bool)
    for d in np.unique(codes[codes >= 0]).tolist():
        try:
            value[d], ok[d] = float(tokens[d]), True
        except ValueError:
            pass
    return value, ok


def _bound_error(tok: str) -> str:
    try:
        float(tok)
    except ValueError as exc:
        return str(exc)
    return f"bound {tok!r} is not a number"


def parse_lp(text: str) -> MipModel:
    """Parse LP text produced by export_lp back into a model; malformed
    text, or a coefficient, right-hand side or bound that is not a number
    (bounds may be infinite, coefficients and right-hand sides may not be
    NaN, coefficients may not be infinite), raises LpParseError.

    The reader works on token arrays: each section is split into tokens a
    block of lines at a time, each distinct token is classified once, and
    the rows, terms and bounds are built with numpy over the token codes.
    Names that spell one variable (x_r01_t1, x_r1_t1) are one column, and
    columns are numbered in order of first appearance: in the objective,
    the rows, the lower then the upper bounds, and the binaries."""
    kind, sections = _sections(text)
    if "minimize" not in sections:
        raise LpParseError("missing Minimize section")
    # Lines, codes and tables are dropped as soon as they are used, to keep
    # the reader's peak memory low.
    obj_lines, row_lines, bound_lines, bin_lines = (
        sections.get(name, []) for name in ("minimize", "subject to", "bounds", "binaries"))
    del sections
    index, counter = {}, count()
    raw = [_read(lines, index, counter) for lines in (obj_lines, row_lines, bound_lines, bin_lines)]
    del bin_lines
    # Codes 0, 1, ... in order of first appearance.
    tokens = list(index)
    dense = np.zeros(next(counter), dtype=np.int32)
    dense[np.fromiter(index.values(), np.intp, len(tokens))] = np.arange(len(tokens))
    obj_c, row_c, bound_c, bin_c = (dense[c] for c in raw)
    colon, eq_, ge_, le_ = (dense[index[tok]] if tok in index else -2
                            for tok in (":", "=", ">=", "<="))
    del raw, dense, index

    # Each distinct token once: labels, variables (merged by value) and the rest.
    label = np.fromiter((tok[-1] == ":" for tok in tokens), bool, len(tokens))
    fields = parse_var_names(list(compress(tokens, ~label)))
    named = fields[:, 0] >= 0
    fields, by_value = fields[named], np.flatnonzero(~label)[named]
    order = np.lexsort(fields.T[::-1])
    new = np.diff(fields[order], axis=0, prepend=-1).any(axis=1)
    vid = np.full(len(tokens), -1)
    vid[by_value[order]] = np.cumsum(new) - 1
    values = fields[order[new]]
    del fields
    cls = np.where(vid >= 0, _VAR, _BAD).astype(np.int8)
    number, sense = np.zeros(len(tokens)), np.full(len(tokens), -1, dtype=np.int8)
    for d in np.flatnonzero(~label & (vid < 0)).tolist():
        tok = tokens[d]
        sense[d] = _SENSES.get(tok, -1)
        if tok == "+" or tok == "-":
            cls[d] = _PLUS if tok == "+" else _MINUS
        elif _NUM_RE.match(tok) and math.isfinite(value := float(tok)):
            cls[d], number[d] = _NUMBER, value

    at, _, lo, hi = _labeled(obj_lines, obj_c, label, colon)
    del obj_lines
    if len(at) != 1:
        raise LpParseError("objective must carry exactly one label")
    _, obj_vid, obj_vals, fault = _terms(obj_c, lo, hi, cls, number, vid)
    if fault[0] != -1:
        raise LpParseError(_expression_error(fault[0], "objective", tokens, obj_c, cls))

    # A row is its label, an expression, a sense and a right-hand side.
    at, pair, lo, hi = _labeled(row_lines, row_c, label, colon)
    del row_lines
    names = list(map(str.removesuffix, map(tokens.__getitem__, row_c[at].tolist()), repeat(":")))
    blocks = [_row_block(row_c, lo[a:a + _BLOCK], hi[a:a + _BLOCK], names[a:a + _BLOCK],
                         tokens, cls, number, sense, vid) for a in range(0, len(at), _BLOCK)]
    row_sense, rhs, counts, row_vid, data = map(np.concatenate, zip(*blocks) if blocks else [
        [np.zeros(0, dtype=dtype)] for dtype in (np.int8, float, np.intp, np.intp, float)])
    del blocks, row_c

    # A bound line is 'v = a', 'v >= a', 'v <= a', 'a <= v <= b' or 'v free'.
    length = _counts(bound_lines)
    padded = np.r_[bound_c, -1]
    t0, t1, t2, t3, t4 = (padded[np.where(length > j, np.cumsum(length) - length + j, -1)]
                          for j in range(5))
    eq, ge, le = ((length == 3) & (t1 == sym) for sym in (eq_, ge_, le_))
    both = (length == 5) & (t1 == le_) & (t3 == le_)
    free = (length == 2) & np.isin(t1, [d for d in np.unique(t1[length == 2]).tolist()
                                         if tokens[d].lower() == "free"])
    var = np.where(both, t2, t0)
    low = np.where(both, t0, np.where(eq | ge, t2, -1))
    up = np.where(both, t4, np.where(eq | le, t2, -1))
    value, ok = _read_floats(tokens, np.r_[low, up])
    ok &= ~np.isnan(value)
    unknown = ~(eq | ge | le | both | free)
    bad = unknown | (vid[var] < 0) | ((low >= 0) & ~ok[low]) | ((up >= 0) & ~ok[up])
    if bad.any():
        i = int(np.argmax(bad))
        line = bound_lines[i]
        if unknown[i]:
            raise LpParseError(f"bound line {line!r}: unrecognized bound line {line!r}")
        if vid[var[i]] < 0:
            raise LpParseError(f"bound line {line!r}: unparseable variable name "
                               f"{tokens[var[i]]!r}")
        tok = tokens[low[i] if low[i] >= 0 and not ok[low[i]] else up[i]]
        raise LpParseError(f"bound line {line!r}: {_bound_error(tok)}")
    sets_low, sets_up = eq | ge | both | free, eq | le | both
    low_vid, low_val = vid[var[sets_low]], np.where(free, -INF, value[low])[sets_low]
    up_vid, up_val = vid[var[sets_up]], value[up][sets_up]

    bin_vid = vid[bin_c]
    if (bin_vid < 0).any():
        tok = tokens[bin_c[np.argmax(bin_vid < 0)]]
        raise LpParseError(f"Binaries: unparseable variable name {tok!r}")

    # Columns in order of first appearance; a bound's last line sets it.
    seen = np.concatenate([obj_vid, row_vid, low_vid, up_vid, bin_vid]).astype(np.int32)
    first = np.full(len(values), len(seen))
    np.minimum.at(first, seen, np.arange(len(seen)))
    n = np.count_nonzero(first < len(seen))
    order = np.argsort(first)[:n]
    col = np.empty(len(values), dtype=np.intp)
    col[order] = np.arange(n)
    lb, ub, binary = np.zeros(n), np.full(n, INF), np.zeros(n, dtype=bool)
    for bound, vids, vals in ((lb, low_vid, low_val), (ub, up_vid, up_val)):
        last = np.full(len(values), -1)
        np.maximum.at(last, vids, np.arange(len(vids)))
        bound[col[vids[last[last >= 0]]]] = vals[last[last >= 0]]
    at = col[bin_vid]
    lb[at], ub[at], binary[at] = 0.0, 1.0, True
    return MipModel.from_arrays(
        kind=kind, **dict(zip(("family", "b", "idx", "k", "t"), values[order].T)),
        lb=lb, ub=ub, binary=binary, obj_cols=col[obj_vid], obj_vals=obj_vals,
        row_names=names, sense=row_sense, rhs=rhs,
        indptr=np.r_[0, np.cumsum(counts)].astype(np.intp), indices=col[row_vid], data=data)


def export_mip_start(solution_vars: VarValueMap) -> str:
    """MIP-start text: one '<varname> <value>' line per variable."""
    return "".join(f"{var.name()} {float(val)!r}\n" for var, val in solution_vars.items())


def std_point_from_solution(instance: Instance, x: np.ndarray, y: np.ndarray,
                            s: np.ndarray) -> VarValueMap:
    """Flatten (F, T) solution matrices into an STD-space value map."""
    return dict(zip(_std_vars(instance, ("x", "y", "s")),
                    np.stack([x, y, s], axis=-1, dtype=float).ravel().tolist()))
