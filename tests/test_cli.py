import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import LP_SOLVE_CMD, one_cut_round
from lotforge import cli, lpsolve
from lotforge import formulations as fm
from lotforge.formulations import parse_lp
from lotforge.heuristic import HeuristicConfig, run
from lotforge.instance import (InstanceSpec, NetworkShape, facility_label,
                               generate, read_instance)
from lotforge.oracle import OracleConfig, solve_exact

HAS_SOLVER = LP_SOLVE_CMD is not None


def gen_file(tmp_path, name="a.inst", retailers=3, warehouses=2, periods=3,
             seed=7):
    path = tmp_path / name
    rc = cli.main(["gen", "--retailers", str(retailers),
                   "--warehouses", str(warehouses),
                   "--periods", str(periods), "--seed", str(seed),
                   "-o", str(path)])
    assert rc == 0
    return path


def test_metric_formulas():
    assert cli.optimality_gap(200.0, 150.0) == pytest.approx(25.0)
    assert cli.gap_to_best_known(110.0, 100.0) == pytest.approx(10.0)
    assert cli.optimality_gap(0.0, 0.0) == 0.0
    assert cli.gap_to_best_known(0.0, 0.0) == 0.0


def test_gen_parseable_and_deterministic(tmp_path):
    p1 = gen_file(tmp_path, "g1.inst")
    p2 = gen_file(tmp_path, "g2.inst")
    assert p1.read_text() == p2.read_text()
    ins = read_instance(p1.read_text())
    assert ins.num_retailers == 3 and ins.num_periods == 3


def test_usage_error_exit_code(tmp_path):
    assert cli.main(["bench", str(tmp_path)]) == cli.EXIT_USAGE


def test_io_error_exit_code(tmp_path):
    assert cli.main(["heur", str(tmp_path / "missing.inst")]) == cli.EXIT_IO
    bad = tmp_path / "bad.inst"
    bad.write_text("not an instance\n")
    assert cli.main(["heur", str(bad)]) == cli.EXIT_IO


def test_not_utf8_instance_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.inst"
    bad.write_bytes(b"\xff\xfe" + gen_file(tmp_path).read_bytes())
    assert cli.main(["heur", str(bad), "--iters", "2"]) == cli.EXIT_IO
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["heur", "{inst}", "--iters", "0"],
    ["heur", "{inst}", "--alpha", "nan"],
    ["export", "{inst}", "-o", "{out}", "--cuts", "--point", "{point}",
     "--cut-rounds", "-1"],
    ["export", "{inst}", "-o", "{out}", "--cuts", "--point", "{point}",
     "--cut-tol", "0"],
    ["export", "{inst}", "-o", "{out}", "--cuts", "--point", "{point}",
     "--cut-tol", "nan"],
    ["export", "{inst}", "-o", "{out}", "--cuts", "--point", "{point}",
     "--cut-tol", "inf"],
    ["export", "{inst}", "-o", "{out}", "--cuts", "--lp-solver-cmd",
     "solve {{x}} {{lp}} {{sol}}"],
    ["export", "{inst}", "-o", "{out}", "--cuts", "--lp-solver-cmd",
     "solve {{ {{lp}} {{sol}}"],
    ["bench", "{dir}", "--iters", "0"],
    ["gen", "--retailers", "2", "--warehouses", "5", "--periods", "3"],
    ["gen", "--retailers", "2", "--warehouses", "0", "--periods", "3",
     "-o", "{out}"],
    ["gen", "--retailers", "2", "--warehouses", "1", "--periods", "0",
     "-o", "{out}"],
], ids=["iters-0", "alpha-nan", "cut-rounds-neg", "cut-tol-0", "cut-tol-nan",
        "cut-tol-inf", "lp-cmd-unknown-field", "lp-cmd-stray-brace", "bench-iters-0",
        "more-warehouses", "warehouses-0", "periods-0"])
def test_bad_option_value_exit_code(tmp_path, capsys, argv):
    inst = gen_file(tmp_path)
    point = tmp_path / "zero.point"
    point.write_text("x_p_t1 0.0\n")
    out = tmp_path / "out.file"
    paths = {"inst": inst, "point": point, "out": out, "dir": tmp_path}
    assert cli.main([a.format(**paths) for a in argv]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    None,
    b"\xff\xfe not utf-8",
    b"Minimize\n obj: y_p_t1\nSubject To\n c1: x_p_t1 >= 1x\nEnd\n",
    b"Minimize\n obj: y_p_t1\nBinaries\n y_r1\nEnd\n",
    b"Minimize\n obj: + inf x_p_t1\nEnd\n",
    b"Minimize\n obj: x_p_t1\nSubject To\n c1: x_p_t1 >= nan\nEnd\n",
    b"Minimize\n obj: x_p_t1\nBounds\n x_p_t1 <= nan\nEnd\n",
    b"Minimize\n obj: x_r" + b"9" * 19 + b"_t1\nEnd\n",
], ids=["missing", "not-utf8", "bad-rhs", "bad-binary-name", "inf-coefficient",
        "nan-rhs", "nan-bound", "index-beyond-int64"])
def test_lp_solve_unreadable_file_exit_code(tmp_path, capsys, text):
    lp = tmp_path / "model.lp"
    if text is not None:
        lp.write_bytes(text)
    assert lpsolve.main([str(lp), str(tmp_path / "model.sol")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lp_solve_unwritable_output_exit_code(tmp_path, capsys):
    pytest.importorskip("scipy")
    lp = tmp_path / "model.lp"
    lp.write_text("Minimize\n obj: y_p_t1\nBinaries\n y_p_t1\nEnd\n")
    assert lpsolve.main([str(lp), str(tmp_path / "no-dir" / "model.sol")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


UNBOUNDED_LP = "Minimize\n obj: - x_p_t1\nEnd\n"
INFEASIBLE_LP = "Minimize\n obj: x_p_t1\nSubject To\n c1: x_p_t1 <= -1\nEnd\n"


@pytest.mark.parametrize("text, reason", [(UNBOUNDED_LP, "unbounded"),
                                          (INFEASIBLE_LP, "infeasible")],
                         ids=["unbounded", "infeasible"])
def test_lp_solve_failure_reports_solver_reason(tmp_path, capsys, text, reason):
    pytest.importorskip("scipy")
    lp, out = tmp_path / "model.lp", tmp_path / "model.sol"
    lp.write_text(text)
    assert lpsolve.main([str(lp), str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"The problem is {reason}. (HiGHS Status")
    assert not out.exists()


@pytest.mark.skipif(not HAS_SOLVER, reason="no lotforge-lp-solve and no scipy")
def test_command_lp_source_reports_solver_reason(tmp_path, capsys):
    path = gen_file(tmp_path)
    bad = tmp_path / "infeasible.lp"
    bad.write_text(INFEASIBLE_LP)
    # The command swaps the exported model for an infeasible one.
    template = f"cp {shlex.quote(str(bad))} {{lp}} && {shlex.join(LP_SOLVE_CMD)} {{lp}} {{sol}}"
    rc = cli.main(["export", str(path), "-o", str(tmp_path / "c.lp"), "--cuts",
                   "--lp-solver-cmd", template])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "cuts,0\nrounds,0\nstatus,lp_unavailable\n"
    assert captured.err.startswith("lp solver failed (exit 1): The problem is infeasible.")


@pytest.mark.parametrize("kind", ["std", "3lf-cuts", "mc"])
def test_constraint_matrix_matches_lil_matrix(kind):
    sparse = pytest.importorskip("scipy.sparse")
    ins = generate(InstanceSpec(6, 2, 4, network_shape=NetworkShape.UNBALANCED,
                                seed=1))
    model = {"std": fm.build_std, "3lf-cuts": fm.build_3lf, "mc": fm.build_mc}[kind](ins)
    if kind == "3lf-cuts":
        model = one_cut_round(ins, model)
        assert len(model.constraints) > len(fm.build_3lf(ins).constraints)
    v = [d.var for d in model.variables]
    # The snapshots are read-only: a row is added by assembling a new model.
    model = fm.MipModel(model.kind, model.variables, model.objective, model.constraints + [
        fm.Constraint("mixed", {v[3]: 0.0, v[0]: -0.0, v[2]: 3, v[1]: np.float64(-1.5)},
                      "<=", 1.0)])
    index = {var: i for i, var in enumerate(v)}
    lil = sparse.lil_matrix((len(model.constraints), len(v)))
    for i, con in enumerate(model.constraints):
        for var, coef in con.coefs.items():
            lil[i, index[var]] = coef
    expected = lil.tocsr()
    got = lpsolve.constraint_matrix(model)
    assert got.shape == expected.shape and got.has_canonical_format
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(expected, attr)), attr


def test_command_lp_source_reports_failure(tmp_path, capsys):
    path = gen_file(tmp_path)
    failing = shlex.join([sys.executable, "-c", "import sys; "
                          "sys.stderr.write('reading model\\nsolver gave up\\n'); "
                          "sys.exit(3)"])
    rc = cli.main(["export", str(path), "-o", str(tmp_path / "c.lp"), "--cuts",
                   "--lp-solver-cmd", failing + " {lp} {sol}"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "cuts,0\nrounds,0\nstatus,lp_unavailable\n"
    assert captured.err == "lp solver failed (exit 3): solver gave up\n"


def test_size_guard_exit_code(tmp_path):
    path = gen_file(tmp_path, retailers=10, warehouses=2, periods=5)
    assert cli.main(["oracle", str(path)]) == cli.EXIT_GUARD


def test_heur_report_and_solution(tmp_path, capsys):
    path = gen_file(tmp_path)
    out = tmp_path / "sol.csv"
    log = tmp_path / "iters.jsonl"
    rc = cli.main(["heur", str(path), "--iters", "15", "--seed", "3",
                   "-o", str(out), "--log", str(log)])
    assert rc == 0
    report = capsys.readouterr().out
    assert "best_cost," in report
    assert "wall_time" not in report
    ins = read_instance(path.read_text())
    expected = run(ins, HeuristicConfig(iterations=15, seed=3))
    assert f"best_cost,{expected.best_cost!r}" in report
    assert out.read_text().startswith("facility,period,x,y,s")
    assert len(log.read_text().splitlines()) == 15


def test_heur_report_reproducible(tmp_path, capsys):
    path = gen_file(tmp_path)
    cli.main(["heur", str(path), "--iters", "10", "--seed", "5"])
    first = capsys.readouterr().out
    cli.main(["heur", str(path), "--iters", "10", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_oracle_vs_heur_gap(tmp_path, capsys):
    path = gen_file(tmp_path, retailers=2, warehouses=1, periods=3)
    rc = cli.main(["oracle", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    optimum = float(out.splitlines()[0].split(",")[1])
    ins = read_instance(path.read_text())
    expected, _, _ = solve_exact(ins)
    assert optimum == expected
    result = run(ins, HeuristicConfig(iterations=20, seed=0))
    assert result.best_cost >= optimum - 1e-9
    assert cli.gap_to_best_known(result.best_cost, optimum) >= -1e-9


def test_pre_outputs(tmp_path, capsys):
    path = gen_file(tmp_path)
    report = tmp_path / "pre.csv"
    lp = tmp_path / "mc.lp"
    rc = cli.main(["pre", str(path), "-o", str(report), "--lp-out", str(lp)])
    assert rc == 0
    assert report.read_text().startswith("retailer,k,t_min")
    model = parse_lp(lp.read_text())
    assert model.kind == "MC"


def test_export_formulations(tmp_path):
    path = gen_file(tmp_path)
    for kind in ("std", "mc", "3lf"):
        out = tmp_path / f"{kind}.lp"
        rc = cli.main(["export", str(path), "--formulation", kind,
                       "-o", str(out)])
        assert rc == 0
        assert parse_lp(out.read_text()).kind == kind.upper()


def test_export_cuts_requires_source(tmp_path):
    path = gen_file(tmp_path)
    rc = cli.main(["export", str(path), "-o", str(tmp_path / "x.lp"), "--cuts"])
    assert rc == cli.EXIT_USAGE


def test_export_cuts_with_replay_point(tmp_path, capsys):
    path = gen_file(tmp_path)
    ins = read_instance(path.read_text())
    point_file = tmp_path / "zero.point"
    lines = []
    for fac in range(ins.num_facilities):
        lbl = facility_label(ins.level[fac], ins.ordinal[fac])
        for t in range(ins.num_periods):
            for fam in ("x", "s", "y"):
                lines.append(f"{fam}_{lbl}_t{t + 1} 0.0")
    point_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cuts.lp"
    rc = cli.main(["export", str(path), "-o", str(out), "--cuts",
                   "--point", str(point_file)])
    assert rc == 0
    report = capsys.readouterr().out
    assert "cuts," in report and "status,ok" in report
    assert "cut_SL_STD_0:" in out.read_text()


def test_mip_start_export(tmp_path):
    path = gen_file(tmp_path)
    mst = tmp_path / "warm.mst"
    rc = cli.main(["export", str(path), "-o", str(tmp_path / "m.lp"),
                   "--mip-start", str(mst), "--seed", "1"])
    assert rc == 0
    assert "y_p_t1" in mst.read_text()


@pytest.mark.parametrize("formulation", ["std", "3lf", "mc"])
def test_mip_start_names_only_exported_variables(tmp_path, formulation):
    path = gen_file(tmp_path)
    lp, mst = tmp_path / "m.lp", tmp_path / "warm.mst"
    rc = cli.main(["export", str(path), "-o", str(lp), "--formulation", formulation,
                   "--mip-start", str(mst), "--seed", "1"])
    assert rc == 0
    declared = {d.var.name() for d in parse_lp(lp.read_text()).variables}
    names = [line.split()[0] for line in mst.read_text().splitlines()]
    assert names and set(names) <= declared
    if formulation == "std":  # every STD variable, as before
        ins = read_instance(path.read_text())
        best = run(ins, HeuristicConfig(seed=1)).best
        point = fm.std_point_from_solution(ins, best.x, best.y, best.s)
        assert mst.read_text() == fm.export_mip_start(point)
    else:
        assert {name[0] for name in names} == {"y"}


# Variables that only the Binaries section names: their declaration order,
# and so the solution file's line order, must not depend on the hash seed.
_BINARIES_ONLY = "Minimize\n obj: x_p_t1\nBinaries\n y_p_t1 y_p_t2 y_p_t3 y_w0_t1\nEnd\n"


def test_binaries_keep_text_order_under_any_hash_seed(tmp_path):
    lp = tmp_path / "binaries.lp"
    lp.write_text(_BINARIES_ONLY)
    src = str(Path(fm.__file__).resolve().parents[1])
    declare = ("import sys; from lotforge.formulations import parse_lp; "
               "print(*(d.var.name() for d in parse_lp(open(sys.argv[1]).read()).variables))")
    orders, solutions = [], []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", declare, str(lp)], env=env,
                             capture_output=True, text=True, check=True)
        orders.append(out.stdout.split())
        if HAS_SOLVER:
            sol = tmp_path / f"seed{hash_seed}.sol"
            subprocess.run(LP_SOLVE_CMD + [str(lp), str(sol)], env=env, check=True)
            solutions.append([line.split()[0] for line in sol.read_text().splitlines()])
    names = ["x_p_t1", "y_p_t1", "y_p_t2", "y_p_t3", "y_w0_t1"]
    assert orders == [names, names]
    if HAS_SOLVER:
        assert solutions == [["objective"] + names] * 2


def test_bench_table_and_markdown(tmp_path, capsys):
    gen_file(tmp_path, "i1.inst", seed=1)
    gen_file(tmp_path, "i2.inst", retailers=2, warehouses=1, seed=2)
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", str(tmp_path), "--iters", "10", "--seed", "4",
                   "--max-bits", "24", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,best,gap_bstar,red"
    assert len(lines) == 3
    assert lines[1].startswith("i1.inst,")
    rc = cli.main(["bench", str(tmp_path), "--iters", "10", "--seed", "4",
                   "--max-bits", "24", "--markdown"])
    assert rc == 0
    md = capsys.readouterr().out
    assert md.startswith("| instance | best | gap_bstar | red |")


def test_bench_byte_identical_on_rerun(tmp_path):
    gen_file(tmp_path, "i1.inst", seed=1)
    gen_file(tmp_path, "i2.inst", retailers=2, warehouses=1, seed=2)
    outs = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        rc = cli.main(["bench", str(tmp_path), "--iters", "10", "--seed", "4",
                       "--max-bits", "24", "-o", str(out)])
        assert rc == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("LOTFORGE_SEED", "99")
    parser = cli.build_parser()
    args = parser.parse_args(["gen", "--retailers", "2", "--warehouses", "1",
                              "--periods", "2"])
    assert args.seed == 99


def test_env_seed_malformed_exit_code(tmp_path, monkeypatch, capsys):
    inst = gen_file(tmp_path)
    monkeypatch.setenv("LOTFORGE_SEED", "abc")
    assert cli.main(["heur", str(inst), "--iters", "2"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "LOTFORGE_SEED" in err


@pytest.mark.skipif(not HAS_SOLVER, reason="no lotforge-lp-solve and no scipy")
def test_export_cuts_with_external_solver(tmp_path, capsys):
    path = gen_file(tmp_path)
    out = tmp_path / "cuts.lp"
    template = shlex.join(LP_SOLVE_CMD) + " {lp} {sol} {relax}"
    rc = cli.main(["export", str(path), "-o", str(out), "--cuts",
                   "--lp-solver-cmd", template])
    assert rc == 0
    report = capsys.readouterr().out
    assert "status,ok" in report


def _edit_instance(path, section, row, text):
    lines = path.read_text().splitlines()
    lines[lines.index(section) + 1 + row] = text
    path.write_text("\n".join(lines) + "\n")


def test_invalid_instance_exit_code(tmp_path, capsys):
    bad_assign = gen_file(tmp_path, "assign.inst")
    _edit_instance(bad_assign, "ASSIGN", 0, "0 9")
    assert cli.main(["export", str(bad_assign), "-o",
                     str(tmp_path / "x.lp")]) == cli.EXIT_IO
    assert "nonexistent warehouse 9" in capsys.readouterr().err
    nan_setup = gen_file(tmp_path, "nan.inst")
    _edit_instance(nan_setup, "SETUP", 1, "nan 1.0 1.0")
    assert cli.main(["heur", str(nan_setup), "--iters", "2"]) == cli.EXIT_IO
    assert cli.main(["export", str(nan_setup), "-o",
                     str(tmp_path / "y.lp")]) == cli.EXIT_IO
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["y_p_t1", "y_p_t1 0.0 extra",
                                  "y_p_t1 zero", "bogus%name 1.0",
                                  "y_p_t1 nan", "y_p_t1 inf", "x_p_t2 -inf"])
def test_malformed_point_file_exit_code(tmp_path, capsys, line):
    path = gen_file(tmp_path)
    point = tmp_path / "bad.point"
    point.write_text(f"# replay point\nx_p_t1 0.0\n{line}\n")
    rc = cli.main(["export", str(path), "-o", str(tmp_path / "c.lp"),
                   "--cuts", "--point", str(point)])
    assert rc == cli.EXIT_IO
    assert "point line 3" in capsys.readouterr().err


def test_bench_zero_demand_instance(tmp_path):
    path = gen_file(tmp_path, "zero.inst", retailers=2, warehouses=1)
    for r in range(2):
        _edit_instance(path, "DEMAND", r, "0 0 0")
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", str(tmp_path), "--iters", "3", "-o", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1] == "zero.inst,0.0,0.0,0.0"
