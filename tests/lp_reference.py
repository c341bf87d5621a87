"""The LP text writer and reader as they were before their name and token
tables: the reference that the differential tests in test_formulations.py
compare export_lp and parse_lp against. Kept unchanged on purpose, but for
the declaration order of variables that only the Binaries section names."""

from __future__ import annotations

import re

from lotforge.formulations import (INF, Constraint, LpParseError, MipModel,
                                   VarDecl, VarId, parse_var_name)


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

    # In order of first appearance, so that no order depends on the hash seed.
    binaries: dict[VarId, None] = {}
    for line in sections.get("binaries", []):
        for tok in line.split():
            try:
                binaries[parse_var_name(tok)] = None
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
