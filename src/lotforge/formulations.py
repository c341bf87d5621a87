"""MIP model builders (STD, MC, 3LF), LP-format export/parse, and the
3LF-to-STD aggregation mapping.

Models are solver-agnostic: variables, a linear objective, and linear
rows. Variable names encode identity bijectively (e.g. ``y_w3_t7``,
``w2_r12_k3_t9``) so LP files and solution files can be mapped back.
Facility indices in names are 0-based, periods are 1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
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
        family, b, idx, k, t = self
        if family in ("x", "s", "y"):
            return f"{family}_{facility_label(b, idx)}_t{k + 1}"
        if family == "w":
            return f"w{b}_r{idx}_k{k + 1}_t{t + 1}"
        if family == "sig":
            return f"sig{b}_r{idx}_k{k + 1}_t{t + 1}"
        if family == "x3":
            return f"x{b}_r{idx}_t{k + 1}"
        if family == "s3":
            return f"s{b}_r{idx}_t{k + 1}"
        raise ValueError(f"unknown family {family!r}")


_STD_RE = re.compile(r"^([xsy])_(p|w(\d+)|r(\d+))_t(\d+)$")
_MC_RE = re.compile(r"^(w|sig)([012])_r(\d+)_k(\d+)_t(\d+)$")
_3LF_RE = re.compile(r"^([xs])([012])_r(\d+)_t(\d+)$")


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
    for r, _, path, _ in _paths(instance):
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
    return sum(coef * point.get(var, 0.0) for var, coef in model.objective.items())


def evaluate_point(model: MipModel, point: VarValueMap,
                   tol: float = 1e-6) -> list[str]:
    """Names of all rows and bounds violated by a point (absent = 0)."""
    bad = []
    for decl in model.variables:
        val = point.get(decl.var, 0.0)
        if val < decl.lb - tol or val > decl.ub + tol:
            bad.append(f"bound:{decl.var.name()}")
    for con in model.constraints:
        lhs = sum(c * point.get(v, 0.0) for v, c in con.coefs.items())
        if con.sense == "=" and abs(lhs - con.rhs) > tol:
            bad.append(con.name)
        elif con.sense == "<=" and lhs > con.rhs + tol:
            bad.append(con.name)
        elif con.sense == ">=" and lhs < con.rhs - tol:
            bad.append(con.name)
    return bad


# --------------------------------------------------------------------------
# LP-format text

# Undeclared variables sort after every declared one, in insertion order.
_UNDECLARED = 1 << 30
_WRITTEN_SENSES = {"=": "=", "<=": "<=", ">=": ">="}


def export_lp(model: MipModel) -> str:
    """LP text of a model: every variable's name is built once, and the
    "± |c| " text once per distinct coefficient. Terms appear in declaration
    order (undeclared variables last, in insertion order); zero
    coefficients are left out."""
    # A variable declared twice sorts at its last declaration.
    position = {var: i for i, (var, _, _, _) in enumerate(model.variables)}
    names = [var.name() for var, _, _, _ in model.variables]
    signed: dict[float, str] = {}

    def terms(coefs) -> str:
        row = []
        for var, coef in coefs.items():
            if coef == 0.0:
                continue
            text = signed.get(coef)
            if text is None:
                text = signed[coef] = f"{'-' if coef < 0 else '+'} {abs(float(coef))!r} "
            i = position.get(var)
            if i is None:
                row.append((_UNDECLARED + len(row), text + var.name()))
            else:
                row.append((i, text + names[i]))
        row.sort()  # the positions differ, so no two terms compare by text
        return " ".join(map(itemgetter(1), row))

    out = [f"\\ kind: {model.kind}", "Minimize", f" obj: {terms(model.objective)}",
           "Subject To"]
    for name, coefs, sense, rhs in model.constraints:
        out.append(f" {name}: {terms(coefs)} {_WRITTEN_SENSES[sense]} {float(rhs)!r}")
    out.append("Bounds")
    for (_, lb, ub, binary), name in zip(model.variables, names):
        if binary or (lb == 0.0 and ub == INF):
            continue
        if lb == ub:
            out.append(f" {name} = {float(lb)!r}")
        elif ub == INF:
            out.append(f" {name} >= {float(lb)!r}")
        else:
            out.append(f" {float(lb)!r} <= {name} <= {float(ub)!r}")
    out.append("Binaries")
    out.extend(f" {name}" for (_, _, _, binary), name in zip(model.variables, names)
               if binary)
    out += ["End", ""]  # the empty last line ends the text with "\n" without a copy
    return "\n".join(out)


class LpParseError(ValueError):
    pass


_SECTIONS = {"minimize": "minimize", "maximize": "maximize",
             "subject to": "subject to", "st": "subject to", "s.t.": "subject to",
             "bounds": "bounds", "binaries": "binaries", "binary": "binaries",
             "generals": "generals", "end": "end"}
# A header spelled with the long s or a dotless or dotted capital i, which
# case-insensitive matching equates with s and i, opens an ignored section.
_FOLD = str.maketrans({"\u017f": "s", "\u0131": "i", "\u0130": "i"})
_SENSES = {"<=": "<=", ">=": ">=", "=": "=", "<": "<=", ">": ">="}
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|inf)$")
_PLUS, _MINUS = object(), object()


def _token_entry(tok: str):
    """What an expression token is: a finite number, a variable, or the
    message of the error it raises."""
    if _NUM_RE.match(tok):
        value = float(tok)
        return value if math.isfinite(value) else f"coefficient {tok!r} is not finite"
    try:
        return parse_var_name(tok)
    except ValueError as exc:
        return str(exc)


def _parse_expr(tokens: list[str], where: str, table: dict) -> dict[VarId, float]:
    coefs: dict[VarId, float] = {}
    sign = 1.0
    coef = None
    terms = 0
    for tok in tokens:
        entry = table.get(tok)
        if entry is None:
            entry = table[tok] = _token_entry(tok)
        kind = entry.__class__
        if kind is VarId:
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
    return coefs


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
    NaN, coefficients may not be infinite), raises LpParseError."""
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

    # One entry per distinct token of the file, shared by every expression,
    # bound and binary that uses it.
    table: dict[str, object] = {"+": _PLUS, "-": _MINUS}

    def variable(tok: str) -> VarId:
        entry = table.get(tok)
        if entry is None:
            entry = table[tok] = _token_entry(tok)
        if entry.__class__ is not VarId:
            raise ValueError(f"unparseable variable name {tok!r}")
        return entry

    obj_items = list(_labeled(sections["minimize"]))
    if len(obj_items) != 1:
        raise LpParseError("objective must carry exactly one label")
    objective = _parse_expr(obj_items[0][1], "objective", table)

    constraints: list[Constraint] = []
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
        coefs = _parse_expr(tokens, f"row {name}", table)
        constraints.append(Constraint(name, coefs, sense, rhs))

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

    binaries: set[VarId] = set()
    for line in sections.get("binaries", []):
        for tok in line.split():
            try:
                binaries.add(variable(tok))
            except ValueError as exc:
                raise LpParseError(f"Binaries: {exc}") from None

    seen = dict.fromkeys(chain(objective, *[con.coefs for con in constraints],
                               lbs, ubs, binaries))
    decls = [VarDecl(var, 0.0, 1.0, True) if var in binaries
             else VarDecl(var, lbs.get(var, 0.0), ubs.get(var, INF), False)
             for var in seen]
    return MipModel(kind, decls, objective, constraints)


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
