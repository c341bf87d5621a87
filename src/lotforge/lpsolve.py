"""Standalone LP/MIP solving command built on scipy's HiGHS bindings.

Reads an LP file written by export_lp, solves it (optionally as the
continuous relaxation), and writes a solution file with one
``objective <value>`` line followed by ``<name> <value>`` lines. The
core library never imports a solver; this tool exists so the cutting
plane driver and the CLI can shell out to *some* LP source, and doubles
as a reference consumer of the LP files.

Exit codes: 0 solved, 1 infeasible, unbounded or solver failure (HiGHS's
message goes to stderr), 2 unreadable or malformed LP file, or
unwritable output file."""

from __future__ import annotations

import argparse
import sys

from .formulations import SENSES, LpParseError, export_mip_start, parse_lp


def constraint_matrix(model):
    """CSR matrix of the model's rows in canonical form (sorted column
    indices, no duplicates) and without explicit zeros."""
    from scipy.sparse import csr_matrix

    A = csr_matrix((model.data, model.indices, model.indptr),
                   shape=(len(model.row_names), len(model.lb)), copy=True)
    A.eliminate_zeros()
    A.sum_duplicates()
    return A


def _solve(model, relax: bool):
    """(objective, {VarId: value}) or None, and HiGHS's status message."""
    import numpy as np
    from scipy.optimize import LinearConstraint, Bounds, milp

    c = np.zeros(len(model.lb))
    c[model.obj_cols] = model.obj_vals
    integrality = np.zeros(len(model.lb), dtype=int) if relax else model.binary.astype(int)
    kwargs = {"bounds": Bounds(model.lb, model.ub), "integrality": integrality}
    if model.row_names:
        lo = np.where(model.sense == SENSES.index("<="), -np.inf, model.rhs)
        hi = np.where(model.sense == SENSES.index(">="), np.inf, model.rhs)
        kwargs["constraints"] = LinearConstraint(constraint_matrix(model), lo, hi)
    res = milp(c, **kwargs)
    if not res.success:
        return None, res.message
    return (float(res.fun), dict(zip(model.var_ids, res.x.tolist()))), res.message


def solve_model(model, relax: bool = False):
    """Solve a MipModel; returns (objective, {VarId: value}) or None."""
    return _solve(model, relax)[0]


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
    result, message = _solve(model, args.relax)
    if result is None:
        print(message, file=sys.stderr)
        return 1
    obj, values = result
    try:
        with open(args.out_file, "w") as fh:
            fh.write(f"objective {obj!r}\n" + export_mip_start(values))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
