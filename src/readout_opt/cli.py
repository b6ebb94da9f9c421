"""Command-line entry point: validate, optimize, sweep, benchmark.

optimize, sweep and benchmark each write a manifest echo with all resolved
configuration next to their outputs, so a run can be reproduced exactly
from the output directory alone; validate writes nothing.  Outputs are
YAML and CSV files, and benchmark also writes a plain-text report.txt.
One writer owns --out: each command builds its files as text and hands
them to _write in one call, which creates the directory, writes each file
as given and removes the files a run leaves stale (an infeasible optimize
removes results.yaml and summary.csv, a feasible one results_partial.yaml).

results.yaml and results_partial.yaml are written by the results schema's
direct emitter (_emit_results), and benchmark --results reads them back
through its direct reader (_read_results), which matches the head and
each entry with a regex whose every slot is a group of that slot's
grammar, and hands any other text to parse_yaml; see yamlio.
Manifests go through dump_yaml, and optimizer configs through parse_yaml.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import logging
import math
import re
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .benchmark import BenchmarkConfig, BenchmarkReport, Subset, run_benchmark
from .config import (
    OptimizerConfig,
    OptimizerConfigError,
    Strategy,
    build_search_grid,
    check_dt,
    check_start,
    config_echo,
    load_optimizer_config,
    snap_length,
    snap_to_steps,
)
from .device import (
    ROLES,
    DeviceConfigError,
    DeviceGraph,
    QubitId,
    Role,
    _integer,
    ghz_to_rad_ns,
    load_device,
    rad_ns_to_ghz,
)
from .dynamics import field_pair, photon_number
from .error_models import CostBreakdown, ReadoutParams, cost_plane
from .snake import (
    InfeasibleQubitError,
    OptimizationResult,
    QubitResult,
    optimize_device,
)
from .yamlio import (
    FLOAT,
    INT,
    NotCanonical,
    dump_yaml,
    entry_groups,
    entry_pattern,
    one_of,
    parse_with,
    yaml_floats,
)

log = logging.getLogger("readout_opt")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3

#: swept values scored per cost_plane call: one dynamics.step_responses
#: pass integrates a frequency chunk's SWEEP_CHUNK step responses and
#: their powers of R up to the chunk's longest ringdown, or the one
#: response and powers of an amplitude or length chunk
SWEEP_CHUNK = 128


def _read_text(path: str) -> str:
    """The text of path, or a ValueError that names path on bytes it
    cannot decode."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _named(path: str, load, error: type[ValueError]):
    """load(the text of path), with a YAML parse failure's message prefixed
    by path."""
    try:
        return load(_read_text(path))
    except error as exc:
        if not isinstance(exc.__cause__, yaml.YAMLError):
            raise
        raise error(f"{path}: {exc}") from exc.__cause__


def _load_graph(path: str) -> DeviceGraph:
    return _named(path, load_device, DeviceConfigError)


def _load_opt_config(path: str | None) -> OptimizerConfig:
    if path is None:
        return load_optimizer_config("")
    return _named(path, load_optimizer_config, OptimizerConfigError)


def _write(out: Path, files: dict[str, str | None]) -> None:
    """Create out and write each name -> text into it as given, without
    newline translation; a None text removes that file.  The only code that
    creates, writes or clears an output directory."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        if text is None:
            (out / name).unlink(missing_ok=True)
        else:
            (out / name).write_text(text, newline="")


def _csv(header, rows) -> str:
    """The text csv.writer writes for tuple rows, byte for byte.

    "%s" gives an int, a float, a numpy float64 or a string the same text
    csv.writer does.  Every field written here is a number or a fixed
    identifier (a role, a budget component, a column name), none of which
    needs quoting.
    """
    line = ",".join(["%s"] * len(header)) + "\r\n"
    return ",".join(header) + "\r\n" + "".join([line % row for row in rows])


def _manifest(args, command: str, **fields) -> str:
    """manifest.yaml's text: the version, command and device, then fields."""
    return dump_yaml({"version": __version__, "command": command,
                      "device": str(args.device), **fields})


#: CostBreakdown field -> its key in results.yaml and summary.csv
_COST_KEYS = {f.name: "t0_ns" if f.name == "t0" else f.name
              for f in fields(CostBreakdown)}


def result_to_dict(result: OptimizationResult, strategy: Strategy) -> dict:
    rows = []
    for qid in sorted(result.per_qubit, key=lambda q: (q.row, q.col)):
        r = result.per_qubit[qid]
        rows.append({
            "row": qid.row,
            "col": qid.col,
            "role": qid.role.value,
            "traversal_index": r.traversal_index,
            "n_collision_specs": r.n_collision_specs,
            "f_q_GHz": rad_ns_to_ghz(r.params.omega_q),
            "B0": float(r.params.b0),
            "t_p_ns": float(r.params.t_p),
            "t_r_ns": float(r.params.t_r),
            "cost": {key: float(getattr(r.breakdown, name))
                     for name, key in _COST_KEYS.items()},
        })
    return {
        "strategy": strategy.value,
        "evaluations": result.evaluations,
        "scored": result.scored,
        "qubits": rows,
    }


_RESULTS_HEAD = "strategy: %s\nevaluations: %s\nscored: %s\nqubits:\n"
_RESULTS_FLOATS = ("f_q_GHz", "B0", "t_p_ns", "t_r_ns")
_COST_NAMES = tuple(_COST_KEYS.values())
_RESULTS_ENTRY = ("- row: %s\n  col: %s\n  role: %s\n  traversal_index: %s\n"
                  "  n_collision_specs: %s\n"
                  + "".join(f"  {key}: %s\n" for key in _RESULTS_FLOATS)
                  + "  cost:\n"
                  + "".join(f"    {key}: %s\n" for key in _COST_NAMES))
_STRATEGIES = frozenset(s.value for s in Strategy)
_RESULTS_HEAD_RE = re.compile(
    entry_pattern(_RESULTS_HEAD, one_of(_STRATEGIES), INT, INT))
_RESULTS_RE = re.compile(entry_pattern(
    _RESULTS_ENTRY, INT, INT, one_of(ROLES), INT, INT,
    *[FLOAT] * (len(_RESULTS_FLOATS) + len(_COST_NAMES))))


def _emit_results(data: dict) -> str:
    """yaml.safe_dump's text of a dict result_to_dict built; NotCanonical on
    an unknown strategy or role, no qubits or a value that is not a float
    where a float belongs."""
    if data["strategy"] not in _STRATEGIES or not data["qubits"]:
        raise NotCanonical  # safe_dump writes an empty list as []
    parts = [_RESULTS_HEAD % (data["strategy"], data["evaluations"], data["scored"])]
    for row in data["qubits"]:
        if row["role"] not in ROLES:
            raise NotCanonical
        floats = yaml_floats([*(row[key] for key in _RESULTS_FLOATS),
                               *row["cost"].values()])
        parts.append(_RESULTS_ENTRY % (row["row"], row["col"], row["role"],
                                       row["traversal_index"], row["n_collision_specs"],
                                       *floats))
    return "".join(parts)


def _read_results(text: str) -> dict | None:
    """yaml.SafeLoader's dict of a text _emit_results may have written, or
    None where the text or a token is not of that form (see yamlio)."""
    head = _RESULTS_HEAD_RE.match(text)
    entries = head and entry_groups(_RESULTS_RE, text, head.end())
    if not entries:
        return None
    strategy, evaluations, scored = head.groups()
    rows = []
    for row, col, role, index, n_specs, *values in entries:
        values = list(map(float, values))
        rows.append({"row": int(row), "col": int(col), "role": role,
                     "traversal_index": int(index), "n_collision_specs": int(n_specs),
                     **dict(zip(_RESULTS_FLOATS, values)),
                     "cost": dict(zip(_COST_NAMES, values[4:]))})
    return {"strategy": strategy, "evaluations": int(evaluations), "scored": int(scored),
            "qubits": rows}


def _entry(node, key: str, convert=lambda v: v, at: str = ""):
    """convert(node[key]), or a ValueError naming at + key."""
    if not isinstance(node, dict) or key not in node:
        raise ValueError(f"{at}{key}: missing")
    try:
        return convert(node[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{at}{key}: {exc}") from None


def _finite_non_negative(value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"must be finite and >= 0, got {value}")
    return value


#: cost fields that set the benchmark's shot probabilities
_SHOT_FIELDS = ("snr", "relaxation", "coupling")


def result_from_dict(raw) -> OptimizationResult:
    """Inverse of result_to_dict, but for the scored count, which it leaves
    at 0; a ValueError names the entry and key at fault."""
    rows = _entry(raw, "qubits")
    if not isinstance(rows, list):
        raise ValueError("qubits: must be a list")
    per_qubit = {}
    order: list[tuple[int, QubitId]] = []
    for k, row in enumerate(rows):
        at = f"qubits[{k}]."
        qid = QubitId(_entry(row, "row", _integer, at), _entry(row, "col", _integer, at),
                      _entry(row, "role", Role, at))
        at = f"qubit ({qid.row},{qid.col}): "
        if qid in per_qubit:
            raise ValueError(f"{at}duplicate entry")
        c = _entry(row, "cost", at=at)
        bd = CostBreakdown(**{
            name: _entry(c, key,
                         _finite_non_negative if name in _SHOT_FIELDS else float,
                         at + "cost.")
            for name, key in _COST_KEYS.items()})
        params = ReadoutParams(
            omega_q=ghz_to_rad_ns(_entry(row, "f_q_GHz", float, at)),
            b0=_entry(row, "B0", float, at),
            t_p=_entry(row, "t_p_ns", float, at),
            t_r=_entry(row, "t_r_ns", float, at),
        )
        index = _entry(row, "traversal_index", _integer, at)
        per_qubit[qid] = QubitResult(
            params, bd, index, _entry(row, "n_collision_specs", _integer, at))
        order.append((index, qid))
    order.sort()
    return OptimizationResult(
        per_qubit=per_qubit,
        order=[q for _, q in order],
        evaluations=_entry(raw, "evaluations", _integer),
    )


_SUMMARY_COLUMNS = (
    "row", "col", "role", "traversal_index", "f_q_GHz", "B0", "t_p_ns",
    "t_r_ns", *_COST_KEYS.values(), "n_collision_specs",
)


def _summary_csv(result_dict: dict) -> str:
    rows = []
    for row in result_dict["qubits"]:
        flat = {**row, **row["cost"]}
        rows.append(tuple(flat[column] for column in _SUMMARY_COLUMNS))
    return _csv(_SUMMARY_COLUMNS, rows)


def cmd_validate(args) -> int:
    graph = _load_graph(args.device)
    cfg = _load_opt_config(args.opt_config)  # the default without --opt-config, as in optimize
    check_dt(graph, cfg)
    check_start(graph, cfg)
    n_measure = sum(1 for q in graph.qubits if q.role is Role.MEASURE)
    print(f"device ok: {len(graph.qubits)} qubits "
          f"({n_measure} measure, {len(graph.qubits) - n_measure} data)")
    if args.opt_config:
        print("optimizer config ok")
    return EXIT_OK


def cmd_optimize(args) -> int:
    graph = _load_graph(args.device)
    cfg = _load_opt_config(args.opt_config)
    check_dt(graph, cfg)
    start = check_start(graph, cfg)
    strategy = Strategy(args.strategy)
    model = replace(cfg.model, heuristics=strategy is Strategy.ALL_MODELS)
    out = Path(args.out)
    grids = {qid: build_search_grid(graph, qid, cfg) for qid in graph.qubits}

    t_begin = time.perf_counter()
    try:
        result, infeasible = optimize_device(graph, grids, model, start=start), False
    except InfeasibleQubitError as exc:
        log.error("optimization infeasible at qubit %s", exc.qid)
        result, infeasible = exc.partial, True
    elapsed_ms = 1e3 * (time.perf_counter() - t_begin)
    result_dict = result_to_dict(result, strategy)
    manifest = _manifest(
        args, "optimize", opt_config=str(args.opt_config) if args.opt_config else None,
        strategy=strategy.value, resolved_config=config_echo(cfg),
        evaluations=result.evaluations, scored=result.scored)
    if infeasible:
        # the qubits locked before the infeasible one, if any, and no file
        # of an earlier run beside this run's manifest
        _write(out, {"results.yaml": None, "summary.csv": None,
                     "results_partial.yaml":
                         _emit_results(result_dict) if result.per_qubit else None,
                     "manifest.yaml": manifest})
        return EXIT_INFEASIBLE
    log.info("optimized %d qubits: %d grid points, %d scored in %.1f ms",
             len(result.per_qubit), result.evaluations, result.scored, elapsed_ms)

    _write(out, {"results.yaml": _emit_results(result_dict),
                 "summary.csv": _summary_csv(result_dict),
                 "manifest.yaml": manifest, "results_partial.yaml": None})
    print(f"wrote {out / 'results.yaml'} ({result.evaluations} grid points, "
          f"{result.scored} scored, {elapsed_ms:.1f} ms)")
    return EXIT_OK


def _parse_qubit(spec: str, graph: DeviceGraph) -> QubitId:
    try:
        row, col = (int(v) for v in spec.split(","))
    except ValueError:
        raise ValueError(f"qubit must be given as 'row,col', got {spec!r}") from None
    qid = graph.at(row, col)
    if qid is None:
        raise ValueError(f"no qubit at ({row},{col})")
    return qid


#: sweep.csv column -> the CostBreakdown field it reports
_SWEEP_COLUMNS = {
    "separation_error": "separation", "relaxation_error": "relaxation",
    "residual_photons": "photon", "n_max": "n_max", "snr": "snr", "mist": "mist",
    "coupling": "coupling",
}


def _flagged(flag: str, func, *args):
    """func(*args), with a ValueError's message prefixed by flag."""
    try:
        return func(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_sweep(args) -> int:
    graph = _load_graph(args.device)
    cfg = _load_opt_config(args.opt_config)
    check_dt(graph, cfg)
    strategy = Strategy(args.strategy)
    model = replace(cfg.model, heuristics=strategy is Strategy.ALL_MODELS)
    qid = _parse_qubit(args.qubit, graph)
    q = graph.qubits[qid]
    band_lo, band_hi = graph.search_band[qid]

    for flag, value in (("--min", args.min), ("--max", args.max),
                        ("--pin-f-ghz", args.pin_f_ghz), ("--pin-amp", args.pin_amp),
                        ("--pin-tp-ns", args.pin_tp_ns)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    lo_ghz, hi_ghz = rad_ns_to_ghz(band_lo), rad_ns_to_ghz(band_hi)
    band = f"search band [{lo_ghz:.4f}, {hi_ghz:.4f}] GHz"
    if args.pin_f_ghz is not None and not lo_ghz <= args.pin_f_ghz <= hi_ghz:
        raise ValueError(f"--pin-f-ghz ({args.pin_f_ghz}) outside {band}")
    if args.pin_amp is not None and args.pin_amp < 0:
        raise ValueError(f"--pin-amp must be >= 0, got {args.pin_amp}")

    pin_omega = (
        ghz_to_rad_ns(args.pin_f_ghz) if args.pin_f_ghz is not None
        else 0.5 * (band_lo + band_hi)
    )
    pin_amp = args.pin_amp if args.pin_amp is not None \
        else 0.5 * (cfg.grid.amp_min + cfg.grid.amp_max)
    pin_tp = args.pin_tp_ns if args.pin_tp_ns is not None \
        else 0.5 * (cfg.grid.tp_min_ns + cfg.grid.tp_max_ns)
    # solve_field simulates the nearest multiple of dt: report that
    pin_tp = _flagged("--pin-tp-ns", snap_length, pin_tp, model.dt, model.total_time)

    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if args.min > args.max:
        raise ValueError(f"--min ({args.min}) must be <= --max ({args.max})")
    if args.points == 1:
        values = np.array([args.min])
        if args.min != args.max:
            raise ValueError(f"--points 1 requires --min == --max, got {args.min} and {args.max}")
    else:
        values = np.linspace(args.min, args.max, args.points)

    axis = args.axis
    if axis == "frequency":
        for flag, value in (("--min", args.min), ("--max", args.max)):
            if not lo_ghz <= value <= hi_ghz:
                raise ValueError(f"{flag} ({value}) outside {band}")
    elif axis == "length":
        if args.min <= 0:
            raise ValueError(f"--min must be > 0, got {args.min}")
        if args.max > model.total_time:
            raise ValueError(f"--max ({args.max}) outside (0, {model.total_time}] ns")
        values = _flagged("--min/--max", snap_to_steps, values, args.min, args.max, model.dt)
    elif args.min < 0:
        raise ValueError(f"--min must be >= 0, got {args.min}")

    # the pinned point's field trajectory: a bad pin fails before any output
    pinned = ReadoutParams(
        omega_q=pin_omega, b0=pin_amp * q.amp_ref,
        t_p=pin_tp, t_r=model.total_time - pin_tp,
    )
    traj = field_pair(q, pinned, model.dt, guard=model.pole_guard)

    grid = {"frequency": [pin_omega], "amplitude": [pin_amp], "length": [pin_tp]}
    grid[axis] = [ghz_to_rad_ns(float(v)) if axis == "frequency" else float(v)
                  for v in values]
    scored = {name: [] for name in _SWEEP_COLUMNS.values()}
    # the swept axis in chunks of SWEEP_CHUNK, one kernel call each
    for k in range(0, len(values), SWEEP_CHUNK):
        chunk = {**grid, axis: grid[axis][k:k + SWEEP_CHUNK]}
        bd = cost_plane(q, chunk["frequency"],
                        [amp * q.amp_ref for amp in chunk["amplitude"]],
                        chunk["length"], model)
        for name, column in scored.items():
            column += getattr(bd, name).ravel().tolist()
    rows = [(rad_ns_to_ghz(omega), amp, amp * q.amp_ref, tp, model.total_time - tp,
             *(scored[name][k] for name in _SWEEP_COLUMNS.values()))
            for k, (omega, amp, tp) in enumerate(itertools.product(*grid.values()))]

    n0, n1 = photon_number(traj.beta0), photon_number(traj.beta1)
    out = Path(args.out)
    _write(out, {
        "sweep.csv": _csv(["f_q_GHz", "amp", "B0", "t_p_ns", "t_r_ns", *_SWEEP_COLUMNS],
                          rows),
        "trajectory.csv": _csv(
            ["t_ns", "re_beta0", "im_beta0", "re_beta1", "im_beta1", "n0", "n1"],
            zip(*(column.tolist() for column in (
                traj.times, traj.beta0.real, traj.beta0.imag,
                traj.beta1.real, traj.beta1.imag, n0, n1)))),
        "manifest.yaml": _manifest(
            args, "sweep", opt_config=str(args.opt_config) if args.opt_config else None,
            strategy=strategy.value, qubit=[qid.row, qid.col], axis=axis,
            range=[float(args.min), float(args.max), int(args.points)],
            pins={"f_GHz": rad_ns_to_ghz(pin_omega), "amp": pin_amp, "t_p_ns": pin_tp},
            resolved_config=config_echo(cfg)),
    })
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _benchmark_files(report: BenchmarkReport) -> dict[str, str]:
    """benchmark's five output files, name -> text."""
    files = {"per_qubit_errors.csv": _csv(
        ["row", "col", "role", "p_1_given_0", "p_0_given_1", "error"],
        [(qid.row, qid.col, qid.role.value,
          report.p10[qid], report.p01[qid], report.error[qid])
         for qid in report.qubits])}
    # _csv's text, with each qubit's "row,col," formatted once: a row
    # formats only its float, by repr as csv.writer does
    cells = [f"{q.row},{q.col}," for q in report.qubits]
    offdiag = report.cross_fidelity[~np.eye(len(cells), dtype=bool)]  # row-major
    texts = list(map(repr, offdiag.tolist()))
    pairs = [cell_i + cell_j for i, cell_i in enumerate(cells)
             for j, cell_j in enumerate(cells) if i != j]
    files["cross_fidelity.csv"] = "row_i,col_i,row_j,col_j,F_ij\r\n" + "".join(
        [pair + text + "\r\n" for pair, text in zip(pairs, texts)])
    # integrated histogram of |F_ij| over the finite entries: repr(|x|) is
    # repr(x) without its sign, so only the cumulative fractions are formatted
    finite = np.flatnonzero(np.isfinite(offdiag))
    order = finite[np.argsort(np.abs(offdiag[finite]), kind="stable")]
    absf = np.abs(offdiag[order])
    fractions = map(repr, (np.arange(1, len(order) + 1) / len(order)).tolist())
    files["cross_fidelity_hist.csv"] = "abs_F,cumulative_fraction\r\n" + "".join(
        [texts[k].lstrip("-") + "," + fraction + "\r\n"
         for k, fraction in zip(order.tolist(), fractions)])
    b = report.budget
    files["budget.csv"] = _csv(["component", "probability"], [
        (name, getattr(b, name))
        for name in ("separation", "state_prep", "relaxation", "unknown", "observed")])

    mean_absf = float(np.mean(absf)) if len(absf) else float("nan")
    lines = [
        f"qubits benchmarked: {len(report.qubits)}",
        f"states x shots: {report.config.n_states} x {report.config.n_shots}",
        f"mean measurement error: {b.observed:.4%}",
        f"mean |F_ij|: {mean_absf:.5f}",
        "budget: "
        + ", ".join(f"{n}={getattr(b, n):.4%}" for n in
                    ("separation", "state_prep", "relaxation", "unknown")),
        "note: crosstalk enters shots only as a crude outcome-randomization "
        "proxy for the heuristic coupling penalty",
    ]
    if b.suspect:
        lines.append("warning: unknown component negative beyond tolerance")
    if report.undefined_pairs:
        lines.append(f"undefined cross-fidelity pairs: {len(report.undefined_pairs)}")
    files["report.txt"] = "\n".join(lines) + "\n"
    return files


def cmd_benchmark(args) -> int:
    graph = _load_graph(args.device)
    text = _read_text(args.results)
    try:
        result = result_from_dict(parse_with(_read_results, text))
    except (yaml.YAMLError, ValueError) as exc:
        raise ValueError(f"{args.results}: {exc}") from None

    # QubitId equality ignores the role: coordinates first, then roles
    device_ids = set(graph.qubits)
    result_ids = set(result.per_qubit)
    if device_ids != result_ids:
        first = min(device_ids ^ result_ids)
        raise ValueError(
            "results file does not match the device: "
            f"{len(device_ids ^ result_ids)} mismatched qubits, the first "
            f"({first.row},{first.col}) only in the "
            f"{'device' if first in device_ids else 'results file'}")
    roles = {(q.row, q.col): q.role for q in result_ids}
    for q in graph.sorted_ids():
        if roles[q.row, q.col] is not q.role:
            raise ValueError(
                f"results file does not match the device: qubit ({q.row},{q.col}) is "
                f"{roles[q.row, q.col].value} in the results file, {q.role.value} in the device")

    cfg = BenchmarkConfig(
        n_states=args.n_states,
        n_shots=args.n_shots,
        seed=args.seed,
        prep_error=args.prep_error,
        subset=Subset.MEASURE_ONLY if args.subset == "measure" else Subset.ALL_QUBITS,
    )
    report = run_benchmark(graph, result, cfg)

    out = Path(args.out)
    _write(out, {**_benchmark_files(report), "manifest.yaml": _manifest(
        args, "benchmark", results=str(args.results), seed=cfg.seed,
        n_states=cfg.n_states, n_shots=cfg.n_shots, prep_error=cfg.prep_error,
        subset=cfg.subset.value)})
    print(f"wrote benchmark report to {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: argparse makes a help
    formatter for each argument it adds, and parsing changes no parser."""
    parser = argparse.ArgumentParser(
        prog="readout-opt",
        description="Model-based optimization of superconducting qubit readout",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="lint device and optimizer configs")
    p_val.add_argument("--device", required=True)
    p_val.add_argument("--opt-config")
    p_val.set_defaults(func=cmd_validate)

    p_opt = sub.add_parser("optimize", help="run the snake optimizer")
    p_opt.add_argument("--device", required=True)
    p_opt.add_argument("--opt-config")
    p_opt.add_argument("--strategy", choices=[s.value for s in Strategy],
                       default=Strategy.ALL_MODELS.value)
    p_opt.add_argument("--out", required=True)
    p_opt.set_defaults(func=cmd_optimize)

    p_sw = sub.add_parser("sweep", help="sweep one parameter of one qubit")
    p_sw.add_argument("--device", required=True)
    p_sw.add_argument("--opt-config")
    p_sw.add_argument("--strategy", choices=[s.value for s in Strategy],
                      default=Strategy.ALL_MODELS.value)
    p_sw.add_argument("--qubit", required=True, help="row,col")
    p_sw.add_argument("--axis", choices=["frequency", "amplitude", "length"],
                      required=True)
    p_sw.add_argument("--min", type=float, required=True)
    p_sw.add_argument("--max", type=float, required=True)
    p_sw.add_argument("--points", type=int, default=101)
    p_sw.add_argument("--pin-f-ghz", type=float, dest="pin_f_ghz")
    p_sw.add_argument("--pin-amp", type=float)
    p_sw.add_argument("--pin-tp-ns", type=float, dest="pin_tp_ns")
    p_sw.add_argument("--out", required=True)
    p_sw.set_defaults(func=cmd_sweep)

    p_bm = sub.add_parser("benchmark", help="Monte Carlo readout benchmark")
    p_bm.add_argument("--device", required=True)
    p_bm.add_argument("--results", required=True)
    p_bm.add_argument("--seed", type=int, default=0)
    p_bm.add_argument("--n-states", type=int, default=200)
    p_bm.add_argument("--n-shots", type=int, default=2000)
    p_bm.add_argument("--prep-error", type=float, default=0.0)
    p_bm.add_argument("--subset", choices=["all", "measure"], default="all")
    p_bm.add_argument("--out", required=True)
    p_bm.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # config errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # structured nonzero exit on any module failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
