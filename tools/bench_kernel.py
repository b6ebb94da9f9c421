"""Micro-benchmark of the array cost kernel, error_models.cost_plane.

Scores the grid of perfbench's optimize_dense workload (40 amplitudes from
0.02 to 0.40 amp_ref, 39 pulse lengths from 100 to 480 ns on the 1 ns grid,
500 ns total, shipped weights and MIST constants) on every qubit of
configs/device_d3.yaml, at N_OMEGAS frequencies spread across each band,
one kernel call per frequency on its one-frequency grid, each integrating
its own step response.  One round scores all those planes, after a warm-up
round that pays the first-call costs.  These are whole planes of 1,560
cells each; optimize's pruned scan scores a few dozen cells at a time,
from any planes, through error_models.score_planes.

statistics_s is error_models.plane_statistics over the same planes, in
one call: the step responses, unit-amplitude statistics and neighbor-free
bounds that optimize computes for every plane of the device before its
walk, in blocks of planes.  bound_s is the bound's share of it: the
batched error_models._plane_bounds on the same blocks, from their unit
statistics (error_models._unit_columns of the stored responses and powers,
computed before the rounds).  prescore_s is snake._seed_cells on optimize_dense's own
grid, one frequency per qubit (each band's middle one of those above):
the kernel calls that score every qubit's likely winners before the
walk, two for d3's 17 qubits.  None of them is part of total_s.

scan_s is snake.optimize_device in-process on configs/device_d3.yaml
under each config of SCAN_CONFIGS and each strategy, SCAN_ROUNDS runs
each after a warm-up run, with the number of cells the kernel scored.

sweep_s is one error_models.cost_plane call on the shape of a sweep
command's chunk, as perfbench's sweep_band workload runs it: cli.SWEEP_CHUNK
frequencies spread across the first qubit's band x 1 amplitude x 1 pulse
length, at the sweep's default pins (the middle of the amplitude and
pulse-length ranges).  It covers the per-frequency part of the kernel:
the chi and step checks of each frequency, one step response each, and
their scoring.  Not part of total_s.

step_response times dynamics.step_responses as plane_statistics calls it
on the grid above: the unit step responses at the +chi of width
frequencies across the first qubit's band, up to the longest pulse
(n_steps, 480 steps at dt = 1 ns), and in the same doubling the powers of
the step factor up to the longest ringdown (n_powers, the 400 steps after
the shortest pulse), for each of STEP_WIDTHS widths, in one pass each.
Each width gets the median of STEP_ROUNDS calls.

import_s is the start-up every CLI command pays: the time to import
readout_opt.cli in a fresh interpreter, over IMPORT_ROUNDS interpreters.

cross_fidelity_s times benchmark.cross_fidelity, which counts the benchmark
command's tallies as run_benchmark does, on synthetic records of 200
states x 2000 shots for each qubit count of CROSS_FIDELITY_QUBITS (49 is
the benchmark's d=5 device, 241 a d=11 one), over CROSS_FIDELITY_ROUNDS
calls each.

yaml_load_s times the reading of the benchmark command's two inputs, on
two texts: a 49-qubit device and a results file for that device.  The
device reuses the d3 entries of configs/device_d3.yaml, each role in
row-major turn, on a 7 x 7 grid with measure qubits where row + col is odd,
and is written by serialize_device; perfbench's montecarlo_d5 set-up builds
its d=5 device the same way on a rotated layout, to a text of the same
size.  The results file has synthetic costs, written as optimize writes
results.yaml.  Each text is read by the route the program takes (direct:
yamlio.parse_with with the schema's direct reader) and by
yamlio.parse_yaml, which is yaml.load with libyaml's yaml.CSafeLoader
where PyYAML has it, over YAML_ROUNDS calls each, the loaders alternating
and each call after a full garbage collection.  So are two variants of
each text that load to the same document.  The plain edit appends a 0 to
its last value, a float with a "." and no exponent: a hand edit of a
plain number, which the reader still reads directly.  The declined one
puts a "_" before the last digit of its last value: the reader reads it
in full and declines it only at that token, so its time is the worst case
of the fallback to parse_yaml.

yaml_dump_s times the writing of the same two documents, from the dicts
the texts load to, by the schema's direct emitter and by yamlio.dump_yaml,
alike.

    python3 tools/bench_kernel.py [--out PATH]

Run it from anywhere; it imports readout_opt from this checkout's src/.
It prints one JSON object and writes it to --out, by default
BENCH_kernel.json at the checkout's root.  The kernel's, the statistics',
the bound's, the prescore's, the scans', the sweep's, the import's,
cross_fidelity's and the YAML loads' and dumps' seconds are medians over
the rounds, with quartiles.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from readout_opt import dynamics, error_models, snake  # noqa: E402
from readout_opt.benchmark import ShotRecords, cross_fidelity  # noqa: E402
from readout_opt.cli import (  # noqa: E402
    SWEEP_CHUNK,
    _emit_results,
    _read_results,
    result_to_dict,
)
from readout_opt.config import (  # noqa: E402
    Strategy,
    build_search_grids,
    load_optimizer_config,
    snap_length,
)
from readout_opt.device import (  # noqa: E402
    DeviceGraph,
    QubitId,
    Role,
    _emit_device,
    _read_device,
    load_device,
    serialize_device,
)
from readout_opt.error_models import CostBreakdown, ReadoutParams  # noqa: E402
from readout_opt.snake import OptimizationResult, QubitResult  # noqa: E402
from readout_opt.yamlio import dump_yaml, parse_with, parse_yaml  # noqa: E402

N_OMEGAS = 4
ROUNDS = 12
STEP_WIDTHS = (1, 2, 38, 128, 402)
STEP_ROUNDS = 5
IMPORT_ROUNDS = 7
CROSS_FIDELITY_QUBITS = (49, 241)
CROSS_FIDELITY_ROUNDS = 21
YAML_ROUNDS = 41
SCAN_CONFIGS = ("optimizer.yaml", "optimizer_small.yaml")
SCAN_ROUNDS = 7


def dense_config():
    raw = parse_yaml((ROOT / "configs" / "optimizer.yaml").read_text())
    raw["grid"]["n_tp"] = 39  # 100..480 ns in steps of 10, as optimize_dense
    return load_optimizer_config(json.dumps(raw))


def planes():
    """(q, omega, amps, tps) for every qubit and N_OMEGAS omegas per band."""
    graph = load_device((ROOT / "configs" / "device_d3.yaml").read_text())
    cfg = dense_config()
    grids, out = build_search_grids(graph, cfg), []
    for qid in graph.sorted_ids():
        grid = grids[qid]
        lo, hi = graph.search_band[qid]
        for omega in np.linspace(lo, hi, N_OMEGAS + 2)[1:-1]:
            out.append((graph.qubits[qid], float(omega), grid.amp_points,
                        grid.tp_points))
    return out, cfg.model


def blocks(entries, model):
    """_plane_bounds' arguments for plane_statistics' blocks of the planes
    of entries, one-omega lists: up to _BLOCK_PLANES consecutive feasible
    planes each, as the whole work shares its sample counts, with the unit
    statistics recomputed from the stored responses and powers."""
    planes = [plane for (plane,) in entries if plane is not None]
    size = error_models._BLOCK_PLANES
    n_tot = round(model.total_time / model.dt)
    out = []
    for start in range(0, len(planes), size):
        chunk = planes[start : start + size]
        unit = error_models._unit_columns(np.concatenate([p.response for p in chunk]),
                                          np.concatenate([p.powers for p in chunk]),
                                          chunk[0].n_ps, n_tot, model.dt)
        out.append(([p.q for p in chunk], [p.omega for p in chunk], [p.chi for p in chunk],
                    np.array([p.amps for p in chunk], dtype=float), unit))
    return out


def prescore_inputs(model):
    """snake._seed_cells' planes on optimize_dense's grid: each qubit at
    the middle one of its N_OMEGAS frequencies, in walk order."""
    graph = load_device((ROOT / "configs" / "device_d3.yaml").read_text())
    grids, scans = build_search_grids(graph, dense_config()), []
    for qid in snake.traversal_order(graph):
        omegas = np.linspace(*graph.search_band[qid], N_OMEGAS + 2)[1:-1]
        scans.append((graph.qubits[qid], [float(omegas[len(omegas) // 2])],
                      grids[qid].amp_points, grids[qid].tp_points))
    return error_models.plane_statistics(scans, model)


def scan_timings() -> dict:
    """Median, quartiles and scored cells of optimize_device on d3 under
    each config of SCAN_CONFIGS and each strategy."""
    graph = load_device((ROOT / "configs" / "device_d3.yaml").read_text())
    out = {}
    for name in SCAN_CONFIGS:
        cfg = load_optimizer_config((ROOT / "configs" / name).read_text())
        grids = build_search_grids(graph, cfg)
        for strategy in Strategy:
            model = dataclasses.replace(cfg.model,
                                        heuristics=strategy is Strategy.ALL_MODELS)
            result = snake.optimize_device(graph, grids, model)  # warm-up
            times = []
            for _ in range(SCAN_ROUNDS):
                start = time.perf_counter()
                snake.optimize_device(graph, grids, model)
                times.append(time.perf_counter() - start)
            out[f"{name}:{strategy.value}"] = {"scored": result.scored, **summary(times)}
    return {"rounds": SCAN_ROUNDS, "runs": out}


def sweep_chunk():
    """(q, omegas, amps, tps) of one sweep chunk: SWEEP_CHUNK omegas across
    the first qubit's band at the default amplitude and pulse-length pins."""
    graph = load_device((ROOT / "configs" / "device_d3.yaml").read_text())
    cfg = dense_config()
    qid = graph.sorted_ids()[0]
    q, (lo, hi), g = graph.qubits[qid], graph.search_band[qid], cfg.grid
    omegas = [float(w) for w in np.linspace(lo, hi, SWEEP_CHUNK + 2)[1:-1]]
    t_p = snap_length(0.5 * (g.tp_min_ns + g.tp_max_ns), cfg.model.dt,
                      cfg.model.total_time)
    return q, omegas, [0.5 * (g.amp_min + g.amp_max) * q.amp_ref], [t_p]


def step_response_timings() -> dict:
    """Median time of step_responses at each of STEP_WIDTHS."""
    graph = load_device((ROOT / "configs" / "device_d3.yaml").read_text())
    cfg = dense_config()
    model = cfg.model
    qid = graph.sorted_ids()[0]
    q, (lo, hi) = graph.qubits[qid], graph.search_band[qid]
    n_steps = round(cfg.grid.tp_max_ns / model.dt)
    n_powers = round((model.total_time - cfg.grid.tp_min_ns) / model.dt)
    out = {}
    for width in STEP_WIDTHS:
        chis = [dynamics.dispersive_shift(q, float(omega), model.pole_guard)
                for omega in np.linspace(lo, hi, width + 2)[1:-1]]
        times = []
        for _ in range(STEP_ROUNDS):
            start = time.perf_counter()
            dynamics.step_responses(chis, q.kappa, model.dt, n_steps, n_powers)
            times.append(time.perf_counter() - start)
        out[str(width)] = statistics.median(times)
    return {"n_steps": n_steps, "n_powers": n_powers, "rounds": STEP_ROUNDS, "widths": out}


def import_times() -> list[float]:
    """Seconds to import readout_opt.cli, one fresh interpreter each."""
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "start = time.perf_counter(); import readout_opt.cli; "
            "print(time.perf_counter() - start)")
    return [float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True).stdout)
            for _ in range(IMPORT_ROUNDS)]


def cross_fidelity_timings() -> dict:
    """Median time of cross_fidelity at each of CROSS_FIDELITY_QUBITS."""
    n_states, n_shots = 200, 2000
    rng = np.random.default_rng(0)
    out = {}
    for n_q in CROSS_FIDELITY_QUBITS:
        prepared = rng.integers(0, 2, size=(n_states, n_q))
        # 2% readout error each way
        ones = rng.binomial(n_shots, np.where(prepared == 1, 0.98, 0.02))
        records = ShotRecords(list(range(n_q)), prepared, ones, n_shots)
        cross_fidelity(records)  # warm-up: BLAS buffers
        times = []
        for _ in range(CROSS_FIDELITY_ROUNDS):
            start = time.perf_counter()
            cross_fidelity(records)
            times.append(time.perf_counter() - start)
        out[str(n_q)] = summary(times)
    return {"n_states": n_states, "n_shots": n_shots,
            "rounds": CROSS_FIDELITY_ROUNDS, "qubits": out}


def yaml_texts() -> dict[str, str]:
    """The 49-qubit device text and a results text for that device."""
    d3 = load_device((ROOT / "configs" / "device_d3.yaml").read_text())
    donors = {role: [q for q in d3.sorted_ids() if q.role is role] for role in Role}
    qubits, bands = {}, {}
    for k in range(49):
        row, col = divmod(k, 7)
        role = Role.MEASURE if (row + col) % 2 else Role.DATA
        donor = donors[role][k // 2 % len(donors[role])]
        qid = QubitId(row, col, role)
        qubits[qid], bands[qid] = d3.qubits[donor], d3.search_band[donor]
    graph = DeviceGraph(qubits=qubits, search_band=bands)
    rng = np.random.default_rng(0)
    per_qubit = {}
    for index, qid in enumerate(graph.sorted_ids()):
        lo, hi = graph.search_band[qid]
        params = ReadoutParams(omega_q=lo + (hi - lo) * rng.random(),
                               b0=rng.random(), t_p=195.0, t_r=305.0)
        costs = CostBreakdown(*(float(v) for v in rng.random(9)))
        per_qubit[qid] = QubitResult(params, costs, index, 8)
    result = OptimizationResult(per_qubit, graph.sorted_ids(), 7840)
    return {"device_49": serialize_device(graph),
            "results_49": dump_yaml(result_to_dict(result, Strategy.ALL_MODELS))}


#: each text's direct reader and emitter
READERS = {"device_49": _read_device, "results_49": _read_results}
EMITTERS = {"device_49": _emit_device, "results_49": _emit_results}


def _check_last_value(text: str) -> None:
    """Assert that text's last value, which both variants edit, is a float
    with a "." and no exponent."""
    last = text[text.rindex(" ", 0, -1) + 1:-1]
    assert "." in last and "e" not in last, last


def plain_edit(text: str) -> str:
    """text with a 0 appended to its last value: the same document, still
    of the reader's grammar."""
    _check_last_value(text)
    return text[:-1] + "0\n"


def declined_at_end(text: str) -> str:
    """text with a "_" before the last digit of its last value: the same
    document, which the reader reads in full and declines only at that
    token, outside its float grammar."""
    _check_last_value(text)
    return text[:-2] + "_" + text[-2:]


def timings(calls: dict, arg) -> dict:
    """Median and quartiles of YAML_ROUNDS calls of each of calls on arg,
    the calls alternating and each after a full garbage collection."""
    times = {name: [] for name in calls}
    for _ in range(YAML_ROUNDS):
        for name, call in calls.items():
            gc.collect()  # each call starts from the same heap
            start = time.perf_counter()
            call(arg)
            times[name].append(time.perf_counter() - start)
    return {name: summary(t) for name, t in times.items()}


def yaml_load_timings() -> dict:
    """Seconds of the direct codec's read and of parse_yaml on each text
    and on its two variants."""
    out = {}
    for name, text in yaml_texts().items():
        read = READERS[name]
        loaders = {"direct": lambda t: parse_with(read, t), "parse_yaml": parse_yaml}
        for key, variant in ((name, text), (name + "_plain_edit", plain_edit(text)),
                             (name + "_declined_at_end", declined_at_end(text))):
            out[key] = {"bytes": len(variant.encode()), **timings(loaders, variant)}
    return {"rounds": YAML_ROUNDS, "texts": out}


def yaml_dump_timings() -> dict:
    """Seconds of the direct emitter and of dump_yaml on each text's data."""
    out = {}
    for name, text in yaml_texts().items():
        out[name] = timings({"direct": EMITTERS[name], "dump_yaml": dump_yaml},
                            parse_yaml(text))
    return {"rounds": YAML_ROUNDS, "texts": out}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_kernel.json"))
    args = ap.parse_args(argv)

    work, model = planes()
    scans = [(q, [omega], amps, tps) for q, omega, amps, tps in work]
    bound_blocks = blocks(error_models.plane_statistics(scans, model), model)
    seeds = prescore_inputs(model)
    chunk = sweep_chunk()

    def one_round():
        start = time.perf_counter()
        for q, omega, amps, tps in work:
            error_models.cost_plane(q, [omega], amps, tps, model)
        total = time.perf_counter() - start
        start = time.perf_counter()
        error_models.plane_statistics(scans, model)
        stats = time.perf_counter() - start
        start = time.perf_counter()
        for block in bound_blocks:
            error_models._plane_bounds(*block, model)
        bounds = time.perf_counter() - start
        start = time.perf_counter()
        snake._seed_cells(seeds, model)
        prescore = time.perf_counter() - start
        start = time.perf_counter()
        error_models.cost_plane(*chunk, model)
        return total, stats, bounds, prescore, time.perf_counter() - start

    one_round()  # warm-up: first-call costs
    totals, stats, bounds, prescores, sweeps = zip(*(one_round() for _ in range(ROUNDS)))
    points = sum(len(a) * len(t) for _, _, a, t in work)
    result = {
        "kernel": "error_models.cost_plane",
        "planes": len(work),
        "points": points,
        "rounds": ROUNDS,
        "total_s": summary(totals),
        "points_per_s": points / statistics.median(totals),
        "per_plane_ms": 1e3 * statistics.median(totals) / len(work),
    }
    result["statistics_s"] = summary(stats)
    result["bound_s"] = summary(bounds)
    result["prescore_s"] = summary(prescores)
    result["scan_s"] = scan_timings()
    result["sweep_s"] = summary(sweeps)
    result["step_response"] = step_response_timings()
    result["import_s"] = summary(import_times())
    result["cross_fidelity_s"] = cross_fidelity_timings()
    result["yaml_load_s"] = yaml_load_timings()
    result["yaml_dump_s"] = yaml_dump_timings()
    result["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "machine": platform.machine(),
        "processor": _cpu_model(),
    }
    text = json.dumps(result, indent=2)
    Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    raise SystemExit(main())
