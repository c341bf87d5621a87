"""Self-tests of the benchmark: its checks, its traced run, its guard.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads as wls  # noqa: E402
from lotforge import cuts  # noqa: E402
from tracer import TARGETS, Target, Tracer  # noqa: E402

TINY = {"heur": (8, 2, 6), "rootcut": (8, 3, 6), "mcpre": (8, 2, 6)}


def tiny(name: str):
    wl = wls.WORKLOADS[name]
    r, w, t = TINY[name]
    spec = dataclasses.replace(wl.spec, num_retailers=r, num_warehouses=w,
                               num_periods=t)
    return dataclasses.replace(wl, spec=spec)


def tiny_run(name: str, seed: int = 3):
    wl = tiny(name)
    return wl, wl.op(wl.texts(seed)[0], 1)


@pytest.mark.parametrize("name", sorted(wls.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    wl, out = tiny_run(name)
    assert wl.check(out) == []


def test_flipped_setup_fails_heur_check():
    wl, out = tiny_run("heur")
    best = out.result.best
    fac, t = map(int, next(zip(*(best.y > 0.5).nonzero())))
    best.y[fac, t] = 0.0
    assert wl.check(out)


def test_unviolated_cut_fails_rootcut_check():
    wl, out = tiny_run("rootcut")
    run_std = out["STD"]
    point = run_std.points[-1]
    var = next(iter(point))
    run_std.result.cuts.append(
        cuts.Cut("SL_STD", ("corrupt",), {var: 1.0}, point[var] - 1e6))
    assert any("slack" in p for p in wl.check(out))


def test_dropped_row_fails_mcpre_check():
    wl, out = tiny_run("mcpre")
    out.parsed.constraints.pop()
    assert wl.check(out) == ["parsed rows differ from the built model"]


def test_changed_output_changes_fingerprint():
    wl, out = tiny_run("heur")
    before = wl.fingerprint(out)
    out.result.per_iteration_costs[0] += 1.0
    assert wl.fingerprint(out) != before


# Wrappers each workload must drive at this commit. cumulative_demand is
# wrapped in three modules; heur reaches it only through check_feasible.
EXPECTED = {
    "heur": {"instance.read_instance", "instance.retailers_of", "heuristic.run",
             "heuristic.randomize_setup_costs", "lotsizing_dp.solve_uls",
             "solution.evaluate_cost", "solution.check_feasible",
             ("lotforge.solution", "instance.cumulative_demand")},
    "rootcut": {"instance.read_instance", "instance.retailers_of",
                ("lotforge.cuts", "instance.cumulative_demand"),
                ("lotforge.formulations", "instance.cumulative_demand"),
                "formulations.build_std", "formulations.build_3lf",
                "formulations.export_lp", "formulations.parse_lp",
                "lpsolve.solve_model", "cuts.cutting_plane_loop",
                "cuts.add_cuts_to_model"} | {f"cuts.{f}" for f in run.FAMILIES},
    "mcpre": {"instance.read_instance", "formulations.build_mc",
              "formulations.export_lp", "formulations.parse_lp",
              "preprocess.compute_removals", "preprocess.apply_removals",
              "preprocess.removal_report_csv"},
}


def _matches(target: Target, expected) -> bool:
    if isinstance(expected, tuple):
        return (target.module, target.name) == expected
    return target.name == expected


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_wrapper_sees_its_calls(name):
    wl = tiny(name)
    texts = wl.texts(5)
    tracer = Tracer()
    res = run.run_op(wl, texts, 1, tracer)
    assert res.problems == []
    assert tracer.absent == []
    for expected in EXPECTED[name]:
        targets = [t for t in TARGETS if _matches(t, expected)]
        assert targets and all(tracer.calls[t] > 0 for t in targets), expected
    # Wrappers are removed after the op: nothing more is recorded.
    calls = sum(tracer.calls.values())
    wl.op(texts[0], 1)
    assert sum(tracer.calls.values()) == calls


def test_heur_layers_add_up():
    wl = tiny("heur")
    layers = run.run_op(wl, wl.texts(5), 0, Tracer()).layers
    R, W = wl.spec.num_retailers, wl.spec.num_warehouses
    executed = wls.HEUR_ITERATIONS + 1  # the best iteration is replayed
    assert layers["heuristic.iterations_executed"] == executed
    assert layers["lotsizing_dp.solve_uls_calls"] == executed * (R + W + 1)
    assert layers["heuristic.useful_ratio"] == wls.HEUR_ITERATIONS / executed
    dp = sum(layers[f"lotsizing_dp.{lv}_s"] for lv in ("retailer", "warehouse", "plant"))
    assert 0 < dp < layers["heuristic.run_s"]


def test_missing_name_is_reported_absent():
    tracer = Tracer()
    gone = [Target("lotforge.cuts", "separate_nothing", None, "cuts.SL_STD"),
            Target("lotforge.cuts", "_SINGLE", "MC", "cuts.SL_STD"),
            Target("lotforge.no_such_module", "f", None, "cuts.SL_STD")]
    tracer.install(gone)
    tracer.uninstall()
    assert tracer.absent == [t.where for t in gone]
    tracer.absent = [t.where for t in TARGETS if t.name == "cuts.SL_STD"]
    assert run.absent_metrics(tracer) == ["cuts.SL_STD_s", "cuts.SL_STD_found"]


def test_sampler_scales_calibration_work_to_its_reference_time():
    previous = signal.getsignal(signal.SIGALRM)
    passes = 0
    with calibrate.SpeedSampler() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            calibrate.calibration_pass()
            passes += 1
        seconds = time.perf_counter() - t0
    assert len(speed.passes) >= 5
    # The work is passes alone, so it scales to passes * REF_PASS_S, up to
    # the host's noise: one preempted sample of ten moves the mean a lot.
    ratio = speed.scale(seconds) / (passes * calibrate.REF_PASS_S)
    assert 0.5 < ratio < 2.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_times_short_work_by_passes_after_it():
    with calibrate.SpeedSampler() as speed:
        pass
    assert speed.passes == []
    assert speed.scale(0.0) == 0.0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "heur", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
