"""Standalone LP/MIP solving command built on scipy's HiGHS bindings.

Reads an LP file written by export_lp, solves it (optionally as the
continuous relaxation), and writes a solution file with one
``objective <value>`` line followed by ``<name> <value>`` lines. The
core library never imports a solver; this tool exists so the cutting
plane driver and the CLI can shell out to *some* LP source, and doubles
as a reference consumer of the LP files.

Exit codes: 0 solved, 1 infeasible or solver failure, 2 unreadable or
malformed LP file, or unwritable output file."""

from __future__ import annotations

import argparse
import sys

from .formulations import LpParseError, parse_lp


def constraint_matrix(model, index):
    """CSR matrix of the model's rows over the columns in index, in
    canonical form (sorted column indices, no duplicates) and without
    explicit zeros."""
    import numpy as np
    from scipy.sparse import csr_matrix

    constraints = model.constraints
    cols = np.array([index[var] for con in constraints for var in con.coefs],
                    dtype=np.intp)
    vals = np.array([coef for con in constraints for coef in con.coefs.values()],
                    dtype=float)
    rows = np.repeat(np.arange(len(constraints)), [len(con.coefs) for con in constraints])
    keep = vals != 0
    A = csr_matrix((vals[keep], (rows[keep], cols[keep])),
                   shape=(len(constraints), len(model.variables)))
    A.sum_duplicates()
    return A


def solve_model(model, relax: bool = False):
    """Solve a MipModel; returns (objective, {VarId: value}) or None."""
    import numpy as np
    from scipy.optimize import LinearConstraint, Bounds, milp

    variables = model.variables
    index = {d.var: i for i, d in enumerate(variables)}
    n = len(variables)
    c = np.zeros(n)
    for var, coef in model.objective.items():
        c[index[var]] = coef

    m = len(model.constraints)
    lo = np.full(m, -np.inf)
    hi = np.full(m, np.inf)
    for i, con in enumerate(model.constraints):
        if con.sense in ("=", ">="):
            lo[i] = con.rhs
        if con.sense in ("=", "<="):
            hi[i] = con.rhs

    lb = np.array([d.lb for d in variables])
    ub = np.array([d.ub for d in variables])
    integrality = np.array([0 if relax else (1 if d.binary else 0)
                            for d in variables])

    kwargs = {"bounds": Bounds(lb, ub), "integrality": integrality}
    if m:
        kwargs["constraints"] = LinearConstraint(constraint_matrix(model, index), lo, hi)
    res = milp(c, **kwargs)
    if not res.success:
        return None
    values = {d.var: float(res.x[i]) for i, d in enumerate(variables)}
    return float(res.fun), values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lotforge-lp-solve",
        description="Solve an exported LP file with HiGHS (via scipy).")
    parser.add_argument("lp_file")
    parser.add_argument("out_file")
    parser.add_argument("--relax", action="store_true",
                        help="solve the continuous relaxation")
    args = parser.parse_args(argv)

    try:
        with open(args.lp_file) as fh:
            model = parse_lp(fh.read())
    except (OSError, UnicodeDecodeError, LpParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = solve_model(model, relax=args.relax)
    if result is None:
        print("infeasible or solver failure", file=sys.stderr)
        return 1
    obj, values = result
    try:
        with open(args.out_file, "w") as fh:
            fh.write(f"objective {obj!r}\n")
            for var, val in values.items():
                fh.write(f"{var.name()} {val!r}\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
