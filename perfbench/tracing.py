"""Per-layer spans for the traced run, recorded from outside the program.

Each traced function is rebound, for the duration of the traced phase, at
the module attribute its caller looks it up through, so no file under
``src/`` changes.  A span's self time is its duration minus the time of the
spans it encloses.  A name that a later refactor removes is listed in
``absent`` and its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

#: (module, attribute the caller looks up, span name)
SPANS = (
    ("cli", "load_device", "device.load"),
    ("cli", "load_optimizer_config", "config.load"),
    ("cli", "build_search_grid", "config.build_search_grid"),
    ("cli", "optimize_device", "snake.optimize_device"),
    ("cli", "evaluate_cost", "error_models.evaluate_cost"),   # sweep
    ("cli", "run_benchmark", "benchmark.run"),
    ("snake", "optimize_qubit", "snake.optimize_qubit"),
    ("snake", "evaluate_cost", "error_models.evaluate_cost"),  # the scan
    ("error_models", "field_pair", "dynamics.field_pair"),
    ("dynamics", "field_pair", "dynamics.field_pair"),  # cli sweep imports it late
    ("dynamics", "solve_field", "dynamics.solve_field"),
    ("error_models", "mist_threshold", "error_models.heuristics"),
    ("error_models", "mist_penalty", "error_models.heuristics"),
    ("error_models", "coupling_error", "error_models.heuristics"),
    ("benchmark", "cross_fidelity", "benchmark.cross_fidelity"),
    ("benchmark", "measurement_error", "benchmark.measurement_error"),
    ("benchmark", "error_budget", "benchmark.error_budget"),
)

#: lru_cache of the unit step response; hits and misses are cache_info deltas
STEP_CACHE = ("dynamics", "_unit_step_response")

def _module(name: str):
    try:
        return importlib.import_module(f"readout_opt.{name}")
    except ImportError:
        return None


class Tracer:
    """Aggregated spans: calls, inclusive and self seconds per span name."""

    KEEP_DURATIONS = {"snake.optimize_qubit"}

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.infeasible = 0
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time of each open span
        self._restore = []

    def timed(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            child = self._stack.pop()
            self.calls[name] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - child
            if name in self.KEEP_DURATIONS:
                self.durations[name].append(elapsed)
            if self._stack:
                self._stack[-1] += elapsed

    def _wrap(self, fn, name: str):
        count_infeasible = name == "error_models.evaluate_cost"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.timed(name, fn, *args, **kwargs)
            if count_infeasible and not math.isfinite(getattr(result, "total", 0.0)):
                self.infeasible += 1
            return result
        return traced

    def install(self) -> None:
        for mod_name, attr, name in SPANS:
            module = _module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def step_cache_info():
    """(hits, misses) of the step-response cache, or None if it is gone."""
    fn = getattr(_module(STEP_CACHE[0]), STEP_CACHE[1], None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def layer_metrics(tracer: Tracer, n: int, counts: Counter, extra: dict) -> dict:
    """Per-command means of every per-layer metric.

    counts holds totals over the n traced commands that the harness read
    from outputs (evaluations, shots, bytes) and cache deltas; extra holds
    values measured outside the traced phase.
    """
    calls = tracer.calls
    durations = tracer.durations["snake.optimize_qubit"]
    per_cmd = {
        "dynamics.field_pair_s": tracer.total["dynamics.field_pair"],
        "dynamics.solve_field_s": tracer.total["dynamics.solve_field"],
        "dynamics.step_response.misses": counts["step_misses"],
        "dynamics.step_response.hits": counts["step_hits"],
        "error_models.evaluate_cost.calls": calls["error_models.evaluate_cost"],
        "error_models.evaluate_cost_s": tracer.total["error_models.evaluate_cost"],
        "error_models.evaluate_cost_self_s":
            tracer.self_time["error_models.evaluate_cost"],
        "error_models.heuristics_s": tracer.total["error_models.heuristics"],
        "snake.scan_self_s": tracer.self_time["snake.optimize_qubit"],
        "snake.points": counts["evaluations"],
        "benchmark.run_s": tracer.total["benchmark.run"],
        # run_benchmark outside its wrapped children is the shot sampling
        "benchmark.sampling_s": tracer.self_time["benchmark.run"],
        "benchmark.cross_fidelity_s": tracer.total["benchmark.cross_fidelity"],
        "benchmark.shots": counts["shots"],
        "cli.io_s": tracer.self_time["cli.main"],
        "cli.bytes_out": counts["bytes_out"],
        "device.load_s": tracer.total["device.load"],
        "config.load_s": tracer.total["config.load"],
    }
    metrics = {k: v / n for k, v in per_cmd.items()}
    n_eval = calls["error_models.evaluate_cost"]
    metrics["error_models.infeasible_frac"] = tracer.infeasible / n_eval if n_eval else 0.0
    metrics["snake.optimize_qubit_s.median"] = statistics.median(durations) if durations else 0.0
    metrics["snake.optimize_qubit_s.max"] = max(durations, default=0.0)
    # measured only in the traced optimize_dense run
    metrics["snake.pool_speedup.dense"] = metrics["snake.pool_speedup.small"] = 0.0
    metrics.update(extra)
    return metrics


def shares(v: dict, items: float) -> dict:
    """The ratios that show where each workload spends its time."""
    misses = v["dynamics.step_response.misses"]
    lookups = misses + v["dynamics.step_response.hits"]
    return {
        "evaluate_cost_of_wall": v["error_models.evaluate_cost_s"] / v["trace.wall_s"],
        "benchmark_run_of_wall": v["benchmark.run_s"] / v["trace.wall_s"],
        "step_response_miss_share": misses / lookups if lookups else 0.0,
        "step_response_misses_per_item": misses / items,
    }
