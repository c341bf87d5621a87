"""Command-line front end.

Subcommands: gen (write an instance file), heur (run the multi-start
heuristic), pre (preprocessing report / reduced MC model), export
(formulation LP files, optionally with root cuts appended), oracle
(exact optimum for tiny instances) and bench (a directory of instances
to one CSV table).

Exit codes: 1 usage error, 2 I/O or parse error, 3 size-guard violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import cuts as cuts_mod
from . import formulations as fm
from .heuristic import HeuristicConfig, run as run_heuristic
from .instance import (DemandType, FixedCostType, Instance, InstanceSpec,
                       NetworkShape, ParseError, generate, read_instance,
                       write_instance)
from .oracle import OracleConfig, SizeGuardError, solve_exact
from .preprocess import apply_removals, compute_removals, removal_report_csv
from .solution import write_solution_csv

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_GUARD = 3


def optimality_gap(bestsol: float, bestbound: float) -> float:
    """Open gap percentage between an incumbent and a dual bound."""
    if bestsol == bestbound:
        return 0.0
    return 100.0 * (bestsol - bestbound) / bestsol


def gap_to_best_known(best: float, b_star: float) -> float:
    """Deviation percentage of a solution value from the best known value."""
    if best == b_star:
        return 0.0
    return 100.0 * (best - b_star) / b_star


@dataclass
class RunReport:
    instance_id: str
    best_cost: float
    gap_bstar: float | None
    red: float | None
    wall_time: float


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed() -> int:
    try:
        return int(os.environ.get("LOTFORGE_SEED", "0"))
    except ValueError as exc:
        raise _UsageError(f"LOTFORGE_SEED must be an integer ({exc})") from None


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), with a rejected option value as a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        return read_instance(fh.read())


def _cmd_gen(args) -> int:
    spec = InstanceSpec(
        num_retailers=args.retailers,
        num_warehouses=args.warehouses,
        num_periods=args.periods,
        demand_type=DemandType(args.demand),
        fixed_cost_type=FixedCostType(args.fixed),
        network_shape=NetworkShape(args.shape),
        seed=args.seed,
    )
    text = write_instance(_checked(generate, spec))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_heur(args) -> int:
    config = _checked(HeuristicConfig, alpha=args.alpha, iterations=args.iters,
                      seed=args.seed)
    instance = _load_instance(args.instance)
    result = run_heuristic(instance, config)
    if args.output:
        Path(args.output).write_text(write_solution_csv(instance, result.best))
    if args.log:
        with open(args.log, "w") as fh:
            for i, cost in enumerate(result.per_iteration_costs, start=1):
                fh.write(json.dumps({"iter": i, "cost": cost,
                                     "seed": config.seed}) + "\n")
    print(f"instance,{args.instance}")
    print(f"best_cost,{result.best_cost!r}")
    print(f"iterations,{config.iterations}")
    print(f"alpha,{config.alpha!r}")
    print(f"seed,{config.seed}")
    if args.with_times:
        print(f"wall_time,{result.wall_time:.3f}")
    return 0


def _cmd_pre(args) -> int:
    instance = _load_instance(args.instance)
    removals = compute_removals(instance)
    report = removal_report_csv(removals)
    if args.output:
        Path(args.output).write_text(report)
    else:
        sys.stdout.write(report)
    if args.lp_out:
        model = apply_removals(fm.build_mc(instance), removals)
        Path(args.lp_out).write_text(fm.export_lp(model))
    return 0


def make_command_lp_source(template: str):
    """lp_source callback that shells out to an external LP solver.

    The template must contain {lp} and {sol} and may contain {relax},
    which expands to --relax; any other field or a stray brace raises
    ValueError. The command reads the LP file and writes '<name> <value>'
    lines (an 'objective <value>' line is skipped). When it fails, its
    exit code and last stderr line go to stderr."""
    try:
        template.format(lp="", sol="", relax="")
    except (KeyError, IndexError, AttributeError, ValueError) as exc:
        raise ValueError(f"{template!r}: use only {{lp}}, {{sol}} and {{relax}} ({exc})") from None

    def source(model: fm.MipModel):
        with tempfile.TemporaryDirectory(prefix="lotforge_") as tmp:
            lp_path = os.path.join(tmp, "model.lp")
            sol_path = os.path.join(tmp, "model.sol")
            Path(lp_path).write_text(fm.export_lp(model))
            cmd = template.format(lp=shlex.quote(lp_path), sol=shlex.quote(sol_path),
                                  relax="--relax")
            proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
            if proc.returncode != 0 or not os.path.exists(sol_path):
                last = proc.stderr.strip().rpartition("\n")[2]
                print(f"lp solver failed (exit {proc.returncode}): {last}", file=sys.stderr)
                return None
            return read_point_file(Path(sol_path).read_text())

    return source


def read_point_file(text: str) -> fm.VarValueMap:
    lines = [(no, parts) for no, line in enumerate(text.splitlines(), start=1)
             if (parts := line.split("#", 1)[0].split())]
    fields = fm.parse_var_names([parts[0] if len(parts) == 2 else "" for _, parts in lines])
    point: fm.VarValueMap = {}
    for (no, parts), (family, *rest) in zip(lines, fields.tolist()):
        if len(parts) != 2:
            raise fm.LpParseError(f"point line {no}: expected '<name> <value>'")
        name, value = parts
        if name == "objective":
            continue
        try:
            val = float(value)
        except ValueError as exc:
            raise fm.LpParseError(f"point line {no}: {exc}") from None
        if family < 0:
            raise fm.LpParseError(f"point line {no}: unparseable variable name {name!r}")
        if not math.isfinite(val):
            raise fm.LpParseError(f"point line {no}: value {value!r} is not finite")
        point[fm.VarId(fm.FAMILIES[family], *rest)] = val
    return point


def _cmd_export(args) -> int:
    instance = _load_instance(args.instance)
    builders = {"std": fm.build_std, "mc": fm.build_mc, "3lf": fm.build_3lf}
    model = builders[args.formulation](instance)
    if args.cuts:
        if args.formulation == "mc":
            raise _UsageError("--cuts applies to std and 3lf formulations")
        if args.lp_solver_cmd:
            source = _checked(make_command_lp_source, args.lp_solver_cmd)
        elif args.point:
            replay = read_point_file(Path(args.point).read_text())
            source = lambda _model: replay
        else:
            raise _UsageError("--cuts needs --lp-solver-cmd or --point")
        config = _checked(cuts_mod.CutConfig, violation_tol=args.cut_tol,
                          max_rounds=args.cut_rounds)
        result = cuts_mod.cutting_plane_loop(instance, model, source, config)
        model = cuts_mod.add_cuts_to_model(model, result.cuts)
        print(f"cuts,{len(result.cuts)}")
        print(f"rounds,{result.rounds}")
        print(f"status,{result.status}")
    Path(args.output).write_text(fm.export_lp(model))
    if args.mip_start:
        heur = run_heuristic(instance, HeuristicConfig(seed=args.seed))
        point = fm.std_point_from_solution(instance, heur.best.x, heur.best.y,
                                           heur.best.s)
        columns = set(model.var_ids)  # y only, unless STD
        Path(args.mip_start).write_text(fm.export_mip_start(
            {var: val for var, val in point.items() if var in columns}))
    return 0


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    config = OracleConfig(max_setup_bits=args.max_bits)
    cost, solution, _routes = solve_exact(instance, config)
    print(f"optimal_cost,{cost!r}")
    sys.stdout.write(write_solution_csv(instance, solution))
    return 0


def _bench_one(path: Path, config: HeuristicConfig, max_bits: int) -> RunReport:
    instance = _load_instance(str(path))
    result = run_heuristic(instance, config)
    gap_b = None
    if instance.num_facilities * instance.num_periods <= max_bits:
        optimum, _sol, _routes = solve_exact(instance, OracleConfig(max_setup_bits=max_bits))
        gap_b = gap_to_best_known(result.best_cost, optimum)
    removals = compute_removals(instance)
    return RunReport(instance_id=path.name, best_cost=result.best_cost,
                     gap_bstar=gap_b, red=removals.reduction_percent,
                     wall_time=result.wall_time)


def _cmd_bench(args) -> int:
    paths = sorted(Path(args.directory).glob("*.inst"))
    if not paths:
        raise _UsageError(f"no .inst files in {args.directory}")
    config = _checked(HeuristicConfig, alpha=args.alpha, iterations=args.iters,
                      seed=args.seed)
    reports = [_bench_one(p, config, args.max_bits) for p in paths]

    def fmt(val):
        return "" if val is None else repr(round(val, 6))

    lines = ["instance,best,gap_bstar,red"]
    if args.with_times:
        lines[0] += ",time"
    for rep in reports:
        row = f"{rep.instance_id},{rep.best_cost!r},{fmt(rep.gap_bstar)},{fmt(rep.red)}"
        if args.with_times:
            row += f",{rep.wall_time:.3f}"
        lines.append(row)
    table = "\n".join(lines) + "\n"
    if args.markdown:
        table = _csv_to_markdown(table)
    if args.output:
        Path(args.output).write_text(table)
    else:
        sys.stdout.write(table)
    return 0


def _csv_to_markdown(csv_text: str) -> str:
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    out = ["| " + " | ".join(rows[0]) + " |",
           "|" + "|".join("---" for _ in rows[0]) + "|"]
    for row in rows[1:]:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


def build_parser() -> _Parser:
    parser = _Parser(prog="lotforge",
                     description="Three-level lot-sizing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--retailers", type=int, required=True)
    p.add_argument("--warehouses", type=int, required=True)
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--demand", choices=["S", "D"], default="D")
    p.add_argument("--fixed", choices=["S", "D"], default="D")
    p.add_argument("--shape", choices=["balanced", "unbalanced"], default="balanced")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("heur", help="run the multi-start heuristic")
    p.add_argument("instance")
    p.add_argument("--alpha", type=float, default=0.20)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--with-times", action="store_true")
    p.add_argument("-o", "--output", help="solution CSV path")
    p.add_argument("--log", help="JSON-lines per-iteration log path")
    p.set_defaults(func=_cmd_heur)

    p = sub.add_parser("pre", help="preprocessing report / reduced MC model")
    p.add_argument("instance")
    p.add_argument("-o", "--output", help="removal report CSV path")
    p.add_argument("--lp-out", help="write the reduced MC model here")
    p.set_defaults(func=_cmd_pre)

    p = sub.add_parser("export", help="write a formulation as an LP file")
    p.add_argument("instance")
    p.add_argument("--formulation", choices=["std", "mc", "3lf"], default="std")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cuts", action="store_true",
                   help="run root cutting-plane rounds and append the pool")
    p.add_argument("--lp-solver-cmd",
                   help="external solver template with {lp} and {sol}")
    p.add_argument("--point", help="replay a fixed point file as the LP source")
    p.add_argument("--cut-tol", type=float, default=10.0)
    p.add_argument("--cut-rounds", type=int, default=20)
    p.add_argument("--mip-start", help="write a heuristic MIP start here")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("oracle", help="exact optimum for a tiny instance")
    p.add_argument("instance")
    p.add_argument("--max-bits", type=int, default=20)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run a directory of instances to a table")
    p.add_argument("directory")
    p.add_argument("--alpha", type=float, default=0.20)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--max-bits", type=int, default=20)
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--with-times", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (OSError, UnicodeDecodeError, ParseError, fm.LpParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
