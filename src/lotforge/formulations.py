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
        if self.family in ("x", "s", "y"):
            return f"{self.family}_{facility_label(self.b, self.idx)}_t{self.k + 1}"
        if self.family == "w":
            return f"w{self.b}_r{self.idx}_k{self.k + 1}_t{self.t + 1}"
        if self.family == "sig":
            return f"sig{self.b}_r{self.idx}_k{self.k + 1}_t{self.t + 1}"
        if self.family == "x3":
            return f"x{self.b}_r{self.idx}_t{self.k + 1}"
        if self.family == "s3":
            return f"s{self.b}_r{self.idx}_t{self.k + 1}"
        raise ValueError(f"unknown family {self.family!r}")


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

def _format_terms(coefs: dict[VarId, float], order: dict[VarId, int]) -> str:
    parts = []
    for var in sorted(coefs, key=lambda v: order.get(v, 1 << 30)):
        coef = coefs[var]
        if coef == 0.0:
            continue
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {abs(float(coef))!r} {var.name()}")
    return " ".join(parts)


def export_lp(model: MipModel) -> str:
    order = {d.var: i for i, d in enumerate(model.variables)}
    out = [f"\\ kind: {model.kind}", "Minimize",
           f" obj: {_format_terms(model.objective, order)}",
           "Subject To"]
    for con in model.constraints:
        sense = {"=": "=", "<=": "<=", ">=": ">="}[con.sense]
        out.append(f" {con.name}: {_format_terms(con.coefs, order)} {sense} {float(con.rhs)!r}")
    out.append("Bounds")
    for decl in model.variables:
        if decl.binary:
            continue
        if decl.lb == 0.0 and decl.ub == INF:
            continue
        if decl.lb == decl.ub:
            out.append(f" {decl.var.name()} = {float(decl.lb)!r}")
        elif decl.ub == INF:
            out.append(f" {decl.var.name()} >= {float(decl.lb)!r}")
        else:
            out.append(f" {float(decl.lb)!r} <= {decl.var.name()} <= {float(decl.ub)!r}")
    out.append("Binaries")
    for decl in model.variables:
        if decl.binary:
            out.append(f" {decl.var.name()}")
    out.append("End")
    return "\n".join(out) + "\n"


class LpParseError(ValueError):
    pass


_SECTION_RE = re.compile(
    r"^(minimize|maximize|subject to|st|s\.t\.|bounds|binaries|binary|generals|end)\s*$",
    re.IGNORECASE)
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|inf)$")


def _parse_expr(tokens: list[str], where: str) -> dict[VarId, float]:
    coefs: dict[VarId, float] = {}
    sign = 1.0
    coef = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign, coef = 1.0, None
        elif tok == "-":
            sign, coef = -1.0, None
        elif _NUM_RE.match(tok):
            if coef is not None:
                raise LpParseError(f"{where}: dangling number {tok!r}")
            coef = float(tok)
        else:
            try:
                var = parse_var_name(tok)
            except ValueError as exc:
                raise LpParseError(f"{where}: {exc}") from None
            value = sign * (coef if coef is not None else 1.0)
            coefs[var] = coefs.get(var, 0.0) + value
            sign, coef = 1.0, None
        i += 1
    if coef is not None:
        raise LpParseError(f"{where}: trailing coefficient without variable")
    return coefs


def parse_lp(text: str) -> MipModel:
    """Parse LP text produced by export_lp back into a model; malformed
    text raises LpParseError."""
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
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1).lower()
            if name in ("st", "s.t."):
                name = "subject to"
            if name == "binary":
                name = "binaries"
            current = name
            sections.setdefault(current, [])
            continue
        if current is None:
            raise LpParseError(f"line {line_no}: content before any section")
        sections[current].append(line)

    if "minimize" not in sections:
        raise LpParseError("missing Minimize section")

    def split_labeled(lines: list[str]) -> list[tuple[str, list[str]]]:
        items: list[tuple[str, list[str]]] = []
        for line in lines:
            tokens = line.split()
            j = 0
            while j < len(tokens):
                tok = tokens[j]
                if tok.endswith(":"):
                    items.append((tok[:-1], []))
                elif j + 1 < len(tokens) and tokens[j + 1] == ":":
                    items.append((tok, []))
                    j += 1
                else:
                    if not items:
                        raise LpParseError(f"expression before label in {line!r}")
                    items[-1][1].append(tok)
                j += 1
        return items

    obj_items = split_labeled(sections["minimize"])
    if len(obj_items) != 1:
        raise LpParseError("objective must carry exactly one label")
    objective = _parse_expr(obj_items[0][1], "objective")

    constraints: list[Constraint] = []
    for name, tokens in split_labeled(sections.get("subject to", [])):
        sense_pos = next((i for i, t in enumerate(tokens) if t in ("<=", ">=", "=", "<", ">")),
                         None)
        if sense_pos is None or sense_pos != len(tokens) - 2:
            raise LpParseError(f"row {name}: expected '<expr> <sense> <rhs>'")
        sense = {"<": "<=", ">": ">="}.get(tokens[sense_pos], tokens[sense_pos])
        try:
            rhs = float(tokens[-1])
        except ValueError:
            raise LpParseError(f"row {name}: bad right-hand side {tokens[-1]!r}") from None
        coefs = _parse_expr(tokens[:sense_pos], f"row {name}")
        constraints.append(Constraint(name, coefs, sense, rhs))

    lbs: dict[VarId, float] = {}
    ubs: dict[VarId, float] = {}
    for line in sections.get("bounds", []):
        tokens = line.split()
        try:
            if len(tokens) == 3 and tokens[1] == "=":
                var = parse_var_name(tokens[0])
                lbs[var] = ubs[var] = float(tokens[2])
            elif len(tokens) == 3 and tokens[1] == ">=":
                var = parse_var_name(tokens[0])
                lbs[var] = float(tokens[2])
            elif len(tokens) == 3 and tokens[1] == "<=":
                var = parse_var_name(tokens[0])
                ubs[var] = float(tokens[2])
            elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                var = parse_var_name(tokens[2])
                lbs[var] = float(tokens[0])
                ubs[var] = float(tokens[4])
            elif len(tokens) == 2 and tokens[1].lower() == "free":
                var = parse_var_name(tokens[0])
                lbs[var] = -INF
            else:
                raise LpParseError(f"unrecognized bound line {line!r}")
        except ValueError as exc:
            raise LpParseError(f"bound line {line!r}: {exc}") from None

    binaries: set[VarId] = set()
    for line in sections.get("binaries", []):
        for tok in line.split():
            try:
                binaries.add(parse_var_name(tok))
            except ValueError as exc:
                raise LpParseError(f"Binaries: {exc}") from None

    seen: dict[VarId, None] = {}
    for var in objective:
        seen.setdefault(var)
    for con in constraints:
        for var in con.coefs:
            seen.setdefault(var)
    for var in list(lbs) + list(ubs) + list(binaries):
        seen.setdefault(var)

    decls = []
    for var in seen:
        if var in binaries:
            decls.append(VarDecl(var, 0.0, 1.0, True))
        else:
            decls.append(VarDecl(var, lbs.get(var, 0.0), ubs.get(var, INF), False))
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
