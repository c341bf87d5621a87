"""lotforge benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload heur --seed 0 --seconds 30 --trace 0

The instances are generated from --seed and serialised to file text, and
every op starts from such a text. Ops run back to back until --seconds of
op time have passed; each op's output is checked outside the timed region
and a failed check counts the op as failed. Every reported time is
scaled to a reference host speed by calibration passes sampled while the
work runs (calibrate.py), so the host's changes of speed do not show as
changes of the program. --trace 0 prints the end-to-end metrics;
--trace 1 alternates untraced and traced ops, prints the per-layer
metrics and writes the spans to out/. The last stdout line is the JSON
result; the line before it records the environment and every op's
reference, wall and CPU seconds.

--update-fingerprints (default seed only) merges the observed output
fingerprints into fingerprints.json instead of comparing against it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from calibrate import SpeedSampler

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FINGERPRINTS = HERE / "fingerprints.json"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 0
# Set-up is timed this many times per run and the median reported: the
# imports in fresh interpreters, generation in process.
SETUP_REPEATS = 5
FAMILIES = ["SL_STD", "TL_STD", "THL_STD", "SL_3LF", "TL_3LF", "THL_3LF"]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("instance.read_instance_s", "s"),
    ("instance.cumulative_demand_s", "s"),
    ("instance.cumulative_demand_calls", "count"),
    ("instance.retailers_of_calls", "count"),
    ("lotsizing_dp.solve_uls_calls", "count"),
    ("lotsizing_dp.retailer_s", "s"),
    ("lotsizing_dp.warehouse_s", "s"),
    ("lotsizing_dp.plant_s", "s"),
    ("heuristic.run_s", "s"),
    ("heuristic.self_s", "s"),
    ("heuristic.randomize_setup_costs_s", "s"),
    ("heuristic.iterations_executed", "count"),
    ("heuristic.useful_ratio", "ratio"),
    ("solution.evaluate_cost_s", "s"),
    ("solution.check_feasible_s", "s"),
    ("formulations.build_std_s", "s"),
    ("formulations.build_3lf_s", "s"),
    ("formulations.build_mc_s", "s"),
    ("formulations.export_lp_s", "s"),
    ("formulations.export_lp_bytes", "bytes"),
    ("formulations.parse_lp_s", "s"),
    ("formulations.model_vars", "count"),
    ("formulations.model_rows", "count"),
    ("formulations.model_nnz", "count"),
    ("lpsolve.solve_model_s", "s"),
    ("lpsolve.solve_model_calls", "count"),
    ("lpsolve.solve_model_failed", "count"),
] + [(f"cuts.{fam}{suffix}", unit) for fam in FAMILIES
     for suffix, unit in (("_s", "s"), ("_found", "count"))] + [
    ("cuts.add_cuts_to_model_s", "s"),
    ("cuts.cutting_plane_loop_self_s", "s"),
    ("cuts.added_ratio", "ratio"),
    ("preprocess.compute_removals_s", "s"),
    ("preprocess.apply_removals_s", "s"),
    ("preprocess.removal_report_csv_s", "s"),
    ("preprocess.removed", "count"),
    ("preprocess.reduction_pct", "%"),
    ("trace_overhead_ratio", "ratio"),
    ("trace_self_sum_ratio", "ratio"),
]

# The span each per-layer metric is computed from, where it is not the
# metric's name less its _s or _calls suffix. A metric is reported absent
# when no wrapper for its span could be installed.
SOURCES = {
    "lotsizing_dp.retailer_s": "lotsizing_dp.solve_uls",
    "lotsizing_dp.warehouse_s": "lotsizing_dp.solve_uls",
    "lotsizing_dp.plant_s": "lotsizing_dp.solve_uls",
    "heuristic.self_s": "heuristic.run",
    "heuristic.iterations_executed": "heuristic.randomize_setup_costs",
    "heuristic.useful_ratio": "heuristic.randomize_setup_costs",
    "formulations.export_lp_bytes": "formulations.export_lp",
    "lpsolve.solve_model_failed": "lpsolve.solve_model",
    "cuts.cutting_plane_loop_self_s": "cuts.cutting_plane_loop",
    **{f"cuts.{fam}_found": f"cuts.{fam}" for fam in FAMILIES},
}


def import_program():
    """Import lotforge from this checkout's sources, never from elsewhere."""
    if not (SRC / "lotforge" / "__init__.py").is_file():
        sys.exit(f"error: no lotforge sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import lotforge
    if Path(lotforge.__file__).resolve().parent != SRC / "lotforge":
        sys.exit(f"error: imported lotforge from {lotforge.__file__}, not {SRC}")


CHILD_IMPORT = """\
import sys, time
sys.path[:0] = {paths!r}
from calibrate import SpeedSampler
with SpeedSampler() as speed:
    t0 = time.perf_counter()
    import workloads
    {scipy}
    seconds = time.perf_counter() - t0
print(speed.scale(seconds))
"""


def child_import_seconds(wl) -> float:
    """Reference seconds a fresh interpreter takes for this run's imports."""
    code = CHILD_IMPORT.format(
        paths=[str(SRC), str(HERE)],
        scipy="import scipy.optimize, scipy.sparse" if wl.needs_scipy else "pass")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "cpu_count": os.cpu_count()}


def high_percentile(values: list[float]) -> dict | None:
    """The highest percentile that has at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11],
            "samples": n}


def layer_metrics(tracer, root, op_s, out, wl, calls_by_target) -> dict[str, float]:
    """Per-layer metrics of one traced op from the spans under root."""
    from workloads import HEUR_ITERATIONS

    spans = tracer.subtree(root)
    own = tracer.self_times([root] + spans)
    dur, calls, note, self_s = (defaultdict(float), Counter(),
                                defaultdict(float), defaultdict(float))
    R = wl.spec.num_retailers
    W = wl.spec.num_warehouses
    levels = defaultdict(float)
    pos = 0
    for span in spans:
        dur[span.name] += span.duration
        calls[span.name] += 1
        self_s[span.name] += own[span.id]
        if span.note is not None:
            note[span.name] += span.note
        if span.name == "heuristic.randomize_setup_costs":
            pos = 0
        elif span.name == "lotsizing_dp.solve_uls":
            # Per iteration: R retailer DPs, then W warehouse DPs, then the plant.
            level = "retailer" if pos < R else "warehouse" if pos < R + W else "plant"
            levels[level] += span.duration
            pos += 1

    m = {name: dur[name[:-2]] for name, unit in PER_LAYER
         if unit == "s" and name[:-2] in dur}
    m["instance.cumulative_demand_calls"] = calls["instance.cumulative_demand"]
    m["instance.retailers_of_calls"] = sum(
        n for target, n in calls_by_target.items() if target.name == "instance.retailers_of")
    m["lotsizing_dp.solve_uls_calls"] = calls["lotsizing_dp.solve_uls"]
    for level in ("retailer", "warehouse", "plant"):
        m[f"lotsizing_dp.{level}_s"] = levels[level]
    m["heuristic.self_s"] = self_s["heuristic.run"]
    executed = calls["heuristic.randomize_setup_costs"]
    m["heuristic.iterations_executed"] = executed
    if executed:
        m["heuristic.useful_ratio"] = HEUR_ITERATIONS * calls["heuristic.run"] / executed
    m["formulations.export_lp_bytes"] = note["formulations.export_lp"]
    for key, n in wl.sizes(out).items():
        m[f"formulations.model_{key}"] = n
    m["lpsolve.solve_model_calls"] = calls["lpsolve.solve_model"]
    m["lpsolve.solve_model_failed"] = note["lpsolve.solve_model"]
    found = 0.0
    for fam in FAMILIES:
        m[f"cuts.{fam}_found"] = note[f"cuts.{fam}"]
        found += note[f"cuts.{fam}"]
    m["cuts.cutting_plane_loop_self_s"] = self_s["cuts.cutting_plane_loop"]
    if found:
        added = sum(len(run.result.cuts) for run in out.values())
        m["cuts.added_ratio"] = added / found
    if hasattr(out, "removals"):
        m["preprocess.removed"] = out.removals.num_removed
        m["preprocess.reduction_pct"] = out.removals.reduction_percent
    m["trace_self_sum_ratio"] = (op_s - own[root.id]) / op_s
    return m


def absent_metrics(tracer) -> list[str]:
    """Per-layer metrics whose source span has no wrapper left to record it."""
    from tracer import TARGETS

    present = {t.name for t in TARGETS if t.where not in tracer.absent}
    absent = []
    for name, _ in PER_LAYER:
        source = SOURCES.get(name)
        if source is None and name.endswith(("_s", "_calls")):
            source = name.rsplit("_", 1)[0]
        if source is not None and source not in present:
            absent.append(name)
    return absent


@dataclass
class OpResult:
    seconds: float  # at the reference speed
    wall_seconds: float
    cpu_seconds: float
    problems: list[str]
    fingerprint: Optional[tuple[str, dict]]
    layers: Optional[dict[str, float]]  # traced ops only


def run_op(wl, texts: list[str], index: int, tracer=None) -> OpResult:
    """Time one op, then check its output outside the timed region."""
    gc.collect()  # start every op with no garbage left from the last one
    if tracer is not None:
        tracer.install()
        calls_before = Counter(tracer.calls)
        root = tracer.open("op")
    with SpeedSampler() as speed:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.op(texts[index % len(texts)], index)
            problems = []
        except Exception as exc:  # a failing op is counted, not fatal
            out, problems = None, [f"op {index}: {type(exc).__name__}: {exc}"]
        seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
    scaled = speed.scale(seconds)
    if tracer is not None:
        tracer.close(root)
        check_root = tracer.open("check")

    fingerprint = None
    if out is not None:
        try:
            problems += [f"op {index}: {p}" for p in wl.check(out)]
            fingerprint = (f"op{index % wl.cycle}",
                           json.loads(json.dumps(wl.fingerprint(out))))
        except Exception as exc:  # a crashing check is a failed op
            problems.append(f"op {index}: check raised {type(exc).__name__}: {exc}")

    layers = None
    if tracer is not None:
        tracer.close(check_root)
        tracer.uninstall()
        if out is not None:
            layers = layer_metrics(tracer, root, seconds, out, wl,
                                   tracer.calls - calls_before)
            layers["solution.check_feasible_s"] = sum(
                s.duration for s in tracer.subtree(check_root)
                if s.name == "solution.check_feasible")
            # Span times are wall times; give them at the op's reference speed.
            for name, unit in PER_LAYER:
                if unit == "s" and name in layers:
                    layers[name] *= scaled / seconds
    return OpResult(scaled, seconds, cpu_seconds, problems, fingerprint, layers)


def load_fingerprints() -> dict:
    if FINGERPRINTS.is_file():
        return json.loads(FINGERPRINTS.read_text())
    return {}


def run(args) -> dict:
    import_program()
    if args.trace:
        from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if wl.needs_scipy:
        import scipy.optimize  # noqa: F401  (imported lazily by solve_model)
        import scipy.sparse  # noqa: F401
    import_s = [child_import_seconds(wl) for _ in range(SETUP_REPEATS)]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            texts = wl.texts(args.seed)
            seconds = time.perf_counter() - t0
        gen_s.append(speed.scale(seconds))
    setup_s = statistics.median(import_s) + statistics.median(gen_s)

    compare = args.seed == DEFAULT_SEED
    committed = load_fingerprints().get(wl.name, {})
    observed: dict = {}
    tracer = Tracer() if args.trace else None

    op_s: dict[bool, list[float]] = {False: [], True: []}  # by "traced"
    wall_s: list[float] = []
    cpu_s: list[float] = []
    layers: list[dict] = []
    problems: list[str] = []
    failed = 0
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        res = run_op(wl, texts, index, tracer if traced else None)
        bad = res.problems
        if res.fingerprint is not None:
            key, fp = res.fingerprint
            observed[key] = fp
            if compare and not args.update_fingerprints and committed.get(key) != fp:
                bad.append(f"op {index}: fingerprint {key} differs from "
                           f"{FINGERPRINTS.name}")
        if res.layers is not None:
            layers.append(res.layers)
        failed += bool(bad)
        problems += bad
        op_s[traced].append(res.seconds)
        wall_s.append(res.wall_seconds)
        cpu_s.append(res.cpu_seconds)
        index += 1
        timed = sum(wall_s)
        if timed >= args.seconds and (not args.trace or op_s[True]) \
                and (not args.update_fingerprints or index >= wl.cycle):
            break

    if args.update_fingerprints:
        stored = load_fingerprints()
        stored.setdefault(wl.name, {}).update(observed)
        FINGERPRINTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    attempted = index
    untraced = op_s[False]
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "env": environment(),
            "setup": {"import_s": import_s, "generate_s": gen_s},
            "op_s": untraced, "traced_op_s": op_s[True],
            "op_wall_s": wall_s, "op_cpu_s": cpu_s,
            "op_high": high_percentile(untraced),
            "failed_ratio": failed / attempted, "problems": problems[:20]}

    if not args.trace:
        p50 = statistics.median(untraced)
        metrics = {
            "op_p50_s": (p50, "s"),
            "ops_per_s": (len(untraced) / sum(untraced), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "MiB"),
        }
    else:
        absent = absent_metrics(tracer)
        metrics = {}
        for name, unit in PER_LAYER:
            values = [m.get(name, 0.0) for m in layers]
            metrics[name] = (statistics.median(values) if values else 0.0, unit)
        metrics["trace_overhead_ratio"] = (
            statistics.median(op_s[True]) / statistics.median(untraced), "ratio")
        info["absent_wrappers"] = tracer.absent
        info["absent_metrics"] = absent
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"info": info, **tracer.to_json()}))
        info["trace_file"] = str(trace_file.relative_to(HERE.parent))

    print(json.dumps(info))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if args.update_fingerprints and args.seed != DEFAULT_SEED:
        parser.error(f"fingerprints are kept for --seed {DEFAULT_SEED} only")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
