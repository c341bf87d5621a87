"""In-memory spans around lotforge's public functions, for the traced run.

Each wrapper is installed where its caller looks the function up (a
module global, a dispatch-table entry or a class attribute), so calls
made inside the library are seen, not only the benchmark's own calls.
A target that no longer exists is recorded as absent instead of failing.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    """One wrapped name: module, attribute, optional dict key, span name.

    note, when given, maps the wrapped call's result to a number stored
    with the span (bytes written, cuts found, solver failure).
    count_only records only the call count, for cheap and hot methods.
    """

    module: str
    attr: str
    key: Optional[str]
    name: str
    note: Optional[Callable[[Any], float]] = None
    count_only: bool = False

    @property
    def where(self) -> str:
        suffix = f"[{self.key!r}]" if self.key is not None else ""
        return f"{self.module}.{self.attr}{suffix}"


def _length(result) -> float:
    return float(len(result))


def _is_none(result) -> float:
    return 1.0 if result is None else 0.0


_SEPARATORS = [("_SINGLE", "SL"), ("_TWO", "TL"), ("_THREE", "THL")]

TARGETS: list[Target] = [
    Target("lotforge.instance", "read_instance", None, "instance.read_instance"),
    Target("lotforge.cuts", "cumulative_demand", None, "instance.cumulative_demand"),
    Target("lotforge.formulations", "cumulative_demand", None,
           "instance.cumulative_demand"),
    Target("lotforge.solution", "cumulative_demand", None,
           "instance.cumulative_demand"),
    Target("lotforge.instance", "Instance", "retailers_of", "instance.retailers_of",
           count_only=True),
    Target("lotforge.heuristic", "run", None, "heuristic.run"),
    Target("lotforge.heuristic", "randomize_setup_costs", None,
           "heuristic.randomize_setup_costs"),
    Target("lotforge.heuristic", "solve_uls", None, "lotsizing_dp.solve_uls"),
    Target("lotforge.heuristic", "evaluate_cost", None, "solution.evaluate_cost"),
    Target("lotforge.solution", "check_feasible", None, "solution.check_feasible"),
    Target("lotforge.formulations", "build_std", None, "formulations.build_std"),
    Target("lotforge.formulations", "build_3lf", None, "formulations.build_3lf"),
    Target("lotforge.formulations", "build_mc", None, "formulations.build_mc"),
    Target("lotforge.formulations", "export_lp", None, "formulations.export_lp",
           note=_length),
    Target("lotforge.formulations", "parse_lp", None, "formulations.parse_lp"),
    Target("lotforge.lpsolve", "solve_model", None, "lpsolve.solve_model",
           note=_is_none),
    Target("lotforge.cuts", "cutting_plane_loop", None, "cuts.cutting_plane_loop"),
    Target("lotforge.cuts", "add_cuts_to_model", None, "cuts.add_cuts_to_model"),
    Target("lotforge.preprocess", "compute_removals", None,
           "preprocess.compute_removals"),
    Target("lotforge.preprocess", "apply_removals", None, "preprocess.apply_removals"),
    Target("lotforge.preprocess", "removal_report_csv", None,
           "preprocess.removal_report_csv"),
] + [
    Target("lotforge.cuts", table, kind, f"cuts.{prefix}_{kind}", note=_length)
    for table, prefix in _SEPARATORS for kind in ("STD", "3LF")
]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    note: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)  # per Target, every call
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, target: Target):
        tracer, calls = self, self.calls
        if target.count_only:
            def counted(*args, **kwargs):
                calls[target] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            calls[target] += 1
            span = tracer.open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.note is not None:
                span.note = target.note(result)
            return result
        return traced

    # -- patching ----------------------------------------------------------
    def install(self, targets: list[Target] = TARGETS) -> None:
        self.absent = []
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
            except ModuleNotFoundError:
                owner = None
            if not hasattr(owner, target.attr):
                self.absent.append(target.where)
                continue
            if target.key is None:
                key, holder = target.attr, owner
            else:
                key, holder = target.key, getattr(owner, target.attr)
            if isinstance(holder, dict):
                if key not in holder:
                    self.absent.append(target.where)
                    continue
                original = holder[key]
                holder[key] = self._wrap(original, target)
            else:
                if not hasattr(holder, key):
                    self.absent.append(target.where)
                    continue
                original = getattr(holder, key)
                setattr(holder, key, self._wrap(original, target))
            self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------
    def subtree(self, root: Span) -> list[Span]:
        """Spans below root, in start order (root itself excluded)."""
        inside = {root.id}
        out = []
        for span in self.spans[root.id + 1:]:
            if span.parent in inside:
                inside.add(span.id)
                out.append(span)
        return out

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s.id: s.duration for s in spans}
        for span in spans:
            if span.parent in own:
                own[span.parent] -= span.duration
        return own

    def to_json(self) -> dict:
        return {"spans": [[s.id, s.parent, s.name, s.start, s.end, s.note]
                          for s in self.spans],
                "calls": {t.where: n for t, n in self.calls.items()},
                "absent": list(self.absent)}
