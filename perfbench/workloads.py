"""Inputs, command plans and output checks of the benchmark workloads.

Every workload drives the ``readout-opt`` CLI through ``cli.main(argv)``.
Inputs are generated here from ``data/device_d3.json``, a frozen copy of the
shipped 17-qubit d=3 device, so that edits to ``configs/`` do not silently
change what the benchmark measures.  The device and optimizer files of the
two workloads checked against stored references are written as plain YAML
from that copy and do not pass through the program's own serializer.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import count, cycle
from pathlib import Path

import numpy as np
import yaml

from readout_opt import cli
from readout_opt.device import DeviceGraph, QubitId, Role, load_device, serialize_device

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
REFS_DENSE = DATA / "refs_optimize_dense.json"
REFS_SWEEP = DATA / "refs_sweep_band.npz"

#: Relative tolerance on cost-model outputs compared against references.
#: Tight enough to catch any modelling change, loose enough to admit a
#: different floating-point reduction order.
RTOL = 1e-9

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def d3_raw() -> dict:
    return json.loads((DATA / "device_d3.json").read_text())


def opt_config(n_omega: int, n_amp: int, n_tp: int) -> dict:
    """Optimizer config with the shipped constants and the given grid.

    Pulse lengths run from 100 to 480 ns, so n_tp = 39 keeps every t_p on
    the 1 ns dt grid in steps of 10 ns.
    """
    return {
        "total_readout_time_ns": 500,
        "dt_ns": 1.0,
        "grid": {
            "n_omega": n_omega, "n_amp": n_amp, "n_tp": n_tp,
            "amp_min": 0.02, "amp_max": 0.40, "tp_min_ns": 100, "tp_max_ns": 480,
        },
        "weights": {"separation": 1.0, "relaxation": 1.0, "photon": 1.0,
                    "mist": 1.0, "coupling": 1.0},
        "mist": {"a": 0.075, "b_per_rad_ns": 0.54, "ceiling": 1.0,
                 "sharpness": 0.05},
        "collision": {"width_MHz": 30.0, "resonance_penalty": 1.0,
                      "next_nearest_scale": 0.5},
        "pole_guard_GHz": 0.008,
        "start_qubit": None,
    }


def write_yaml(path: Path, payload: dict) -> str:
    path.write_text(yaml.safe_dump(payload, sort_keys=False))
    return str(path)


def rotated_layout(d: int) -> list[tuple[int, int, Role]]:
    """(row, col, role) of a distance-d rotated surface-code patch.

    Data qubit (i, j) sits at (i + j, j - i + d - 1); a measure qubit sits at
    the centre of each plaquette, with the weight-2 boundary plaquettes
    alternating along the four edges.  d = 3 reproduces device_d3.
    """
    cells = {(i + j, j - i + d - 1): Role.DATA for i in range(d) for j in range(d)}
    plaquettes = [(i, j) for i in range(d - 1) for j in range(d - 1)]
    plaquettes += [(-1, j) for j in range(0, d - 1, 2)]
    plaquettes += [(d - 1, j) for j in range(1, d - 1, 2)]
    plaquettes += [(i, -1) for i in range(1, d - 1, 2)]
    plaquettes += [(i, d - 1) for i in range(0, d - 1, 2)]
    for i, j in plaquettes:
        cells[(i + j + 1, j - i + d - 1)] = Role.MEASURE
    return [(r, c, role) for (r, c), role in sorted(cells.items())]


def d5_device_text() -> str:
    """49-qubit d=5 device whose qubits reuse the d3 entries in row-major turn."""
    d3 = load_device(yaml.safe_dump(d3_raw(), sort_keys=False))
    donors = {role: [q for q in d3.sorted_ids() if q.role is role] for role in Role}
    used = {role: 0 for role in Role}
    qubits, bands = {}, {}
    for row, col, role in rotated_layout(5):
        donor = donors[role][used[role] % len(donors[role])]
        used[role] += 1
        qid = QubitId(row, col, role)
        qubits[qid] = d3.qubits[donor]
        bands[qid] = d3.search_band[donor]
    return serialize_device(DeviceGraph(qubits=qubits, search_band=bands))


@dataclass(frozen=True)
class Command:
    """One CLI invocation; the run loop appends ``--out``."""

    argv: tuple[str, ...]
    items: int  # work units: grid points, sweep rows or sampled shots
    ref: str    # key into the workload's references


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def _guarded(check):
    """Turn an exception raised while reading outputs into a reported problem."""
    @wraps(check)
    def run(self, cmd: Command, out: Path) -> list[str]:
        try:
            return check(self, cmd, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{cmd.ref}: unreadable output: {type(exc).__name__}: {exc}"]
    return run


# --------------------------------------------------------------- optimize_dense

class OptimizeDense:
    """``optimize --strategy all`` on d3 at the full amplitude/t_p density.

    Each command narrows every qubit's band to one omega value of the
    shipped 60-point grid; variant v gives qubit k grid index
    (v + 7k) mod 59, so every variant mixes low and high omegas and costs
    about the same.  One omega per command keeps a command near two seconds,
    so a run's median is taken over more commands.  Successive commands take
    successive variants, so no command finds its step responses cached by
    the previous.
    """

    name = "optimize_dense"
    VARIANTS = 16
    FULL_N_OMEGA = 60
    GRID = (1, 40, 39)  # omega, amplitude, pulse length

    def __init__(self, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        self.config = write_yaml(work / "dense.yaml", opt_config(*self.GRID))
        self.devices = [
            write_yaml(work / f"dense_device_{v}.yaml", self.device(v))
            for v in range(self.VARIANTS)
        ]
        n_qubits = len(d3_raw()["qubits"])
        self.points = n_qubits * math.prod(self.GRID)

    @classmethod
    def device(cls, variant: int) -> dict:
        raw = d3_raw()
        for k, entry in enumerate(raw["qubits"]):
            lo, hi = entry["band_GHz"]
            full = np.linspace(lo, hi, cls.FULL_N_OMEGA)
            # a one-point grid takes the band's lower end, which must stay
            # below its upper end
            i = (variant + 7 * k) % (cls.FULL_N_OMEGA - 1)
            entry["band_GHz"] = [float(full[i]), float(full[i + 1])]
        return raw

    def command(self, variant: int) -> Command:
        argv = ("optimize", "--device", self.devices[variant],
                "--opt-config", self.config, "--strategy", "all")
        return Command(argv, self.points, str(variant))

    def commands(self, seed: int):
        return (self.command(k % self.VARIANTS) for k in count(seed))

    @staticmethod
    def parse(out: Path) -> dict[str, list[float]]:
        raw = yaml.load((out / "results.yaml").read_text(), Loader=_Loader)
        return {
            f"{q['row']},{q['col']}": [
                float(q["f_q_GHz"]), float(q["B0"]), float(q["t_p_ns"]),
                float(q["t_r_ns"]), float(q["cost"]["total"]),
            ]
            for q in raw["qubits"]
        }

    @cached_property
    def refs(self) -> dict:
        return json.loads(REFS_DENSE.read_text())

    @_guarded
    def check(self, cmd: Command, out: Path) -> list[str]:
        """Chosen (f_q, B0, t_p, t_r) exact; total within RTOL."""
        refs = self.refs[cmd.ref]
        got = self.parse(out)
        problems = []
        if set(got) != set(refs):
            problems.append(f"variant {cmd.ref}: qubits {sorted(got)} != {sorted(refs)}")
        for qubit in sorted(set(got) & set(refs)):
            g, r = got[qubit], refs[qubit]
            if g[:4] != r[:4]:
                problems.append(f"variant {cmd.ref} qubit {qubit}: params {g[:4]} != {r[:4]}")
            if not _close(g[4], r[4]):
                problems.append(f"variant {cmd.ref} qubit {qubit}: total {g[4]!r} != {r[4]!r}")
        return problems


# ------------------------------------------------------------------ sweep_band

class SweepBand:
    """One ``sweep --axis frequency`` per d3 qubit across its whole band.

    Rows sit at the centres of ROWS equal cells of the band, so every row
    of the pool has its own omega and needs two fresh step responses.  The
    seed shuffles the pool and a run cycles through it; a command recurs
    only after the 16 others have pushed its step responses out of a
    cache smaller than the pool's 2 x 17 x ROWS.
    """

    name = "sweep_band"
    ROWS = 200
    EXACT = ("f_q_GHz", "amp", "B0", "t_p_ns", "t_r_ns")
    TRAJECTORY_ROWS = 501  # 500 ns at dt = 1 ns, both ends included

    def __init__(self, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        raw = d3_raw()
        self.device = write_yaml(work / "d3.yaml", raw)
        self.config = write_yaml(work / "sweep.yaml", opt_config(1, 40, 39))
        self.pool = []
        for entry in raw["qubits"]:
            lo, hi = entry["band_GHz"]
            half_cell = 0.5 * (hi - lo) / self.ROWS
            qubit = f"{entry['row']},{entry['col']}"
            argv = (
                "sweep", "--device", self.device, "--opt-config", self.config,
                "--strategy", "all", "--qubit", qubit, "--axis", "frequency",
                "--min", repr(lo + half_cell), "--max", repr(hi - half_cell),
                "--points", str(self.ROWS),
            )
            self.pool.append(Command(argv, self.ROWS, qubit))

    def commands(self, seed: int):
        order = list(self.pool)
        random.Random(seed).shuffle(order)
        return cycle(order)

    @staticmethod
    def parse(out: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(columns of sweep.csv, its rows, rows of trajectory.csv)."""
        with (out / "sweep.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            columns = next(reader)
            rows = np.array([[float(v) for v in row] for row in reader])
        with (out / "trajectory.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            traj = np.array([[float(v) for v in row] for row in reader])
        return columns, rows, traj

    @cached_property
    def refs(self) -> dict:
        with np.load(REFS_SWEEP, allow_pickle=False) as npz:
            return {k: npz[k] for k in npz.files}

    @_guarded
    def check(self, cmd: Command, out: Path) -> list[str]:
        """Input columns exact, outputs within RTOL, per reference column."""
        ref_cols = [str(c) for c in self.refs["columns"]]
        ref_rows = self.refs[f"rows/{cmd.ref}"]
        ref_last = self.refs[f"trajectory_end/{cmd.ref}"]
        columns, rows, traj = self.parse(out)
        if rows.shape[0] != ref_rows.shape[0]:
            return [f"sweep {cmd.ref}: {rows.shape[0]} rows, expected {ref_rows.shape[0]}"]
        problems = []
        for k, name in enumerate(ref_cols):
            if name not in columns:
                problems.append(f"sweep {cmd.ref}: column {name} missing")
                continue
            got, want = rows[:, columns.index(name)], ref_rows[:, k]
            for i, (g, w) in enumerate(zip(got, want)):
                ok = g == w if name in self.EXACT else _close(g, w)
                if not ok:
                    problems.append(f"sweep {cmd.ref} row {i} {name}: {g!r} != {w!r}")
                    break
        if len(traj) != self.TRAJECTORY_ROWS:
            problems.append(f"sweep {cmd.ref}: trajectory has {len(traj)} rows")
        elif not all(_close(g, w) for g, w in zip(traj[-1], ref_last)):
            problems.append(f"sweep {cmd.ref}: trajectory end {traj[-1]} != {ref_last}")
        return problems


# ---------------------------------------------------------------- montecarlo_d5

class MonteCarloD5:
    """``benchmark`` on a synthetic 49-qubit d=5 device.

    Set-up builds the device, validates it through the CLI and optimizes it on
    a coarse grid to get the results file.  The checks use only properties
    that hold for any shot or crosstalk model, so a rewrite of the sampling
    model is not counted as a failure.
    """

    name = "montecarlo_d5"
    N_STATES = 200
    N_SHOTS = 2000
    # t_p = 100, 195, ..., 480 ns, all on the dt grid; eight omegas let every
    # qubit keep clear of the collisions with its identical donor neighbours
    COARSE_GRID = (8, 4, 5)

    def __init__(self, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        self.device = str(work / "d5.yaml")
        Path(self.device).write_text(d5_device_text())
        config = write_yaml(work / "coarse.yaml", opt_config(*self.COARSE_GRID))
        self.results = str(work / "coarse" / "results.yaml")
        graph = load_device(Path(self.device).read_text())
        self.qubits = {(q.row, q.col) for q in graph.qubits}
        for argv in (
            ["validate", "--device", self.device, "--opt-config", config],
            ["optimize", "--device", self.device, "--opt-config", config,
             "--strategy", "all", "--out", str(work / "coarse")],
        ):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited with {code}")

    def commands(self, seed: int):
        argv = ("benchmark", "--device", self.device, "--results", self.results,
                "--n-states", str(self.N_STATES), "--n-shots", str(self.N_SHOTS),
                "--seed", str(seed))
        items = self.N_STATES * self.N_SHOTS * len(self.qubits)
        return cycle([Command(argv, items, f"seed {seed}")])

    @staticmethod
    def _rows(path: Path) -> list[list[str]]:
        with path.open(newline="") as fh:
            return [row for row in csv.reader(fh)][1:]

    @_guarded
    def check(self, cmd: Command, out: Path) -> list[str]:
        problems = []
        n = len(self.qubits)

        errors = self._rows(out / "per_qubit_errors.csv")
        seen = [(int(r[0]), int(r[1])) for r in errors]
        if len(seen) != n or set(seen) != self.qubits:
            problems.append(f"per_qubit_errors.csv covers {len(set(seen))} of {n} qubits")
        for r in errors:
            rates = [float(v) for v in r[3:6]]
            if not all(0.0 <= p <= 0.5 for p in rates):
                problems.append(f"qubit ({r[0]},{r[1]}): rates {rates} outside [0, 0.5]")

        budget = {r[0]: float(r[1]) for r in self._rows(out / "budget.csv")}
        observed = budget.pop("observed")
        if not 0.0 <= observed <= 0.5:
            problems.append(f"observed error {observed} outside [0, 0.5]")
        # components are written in order; their sum must restore observed
        # up to the rounding of the sum itself
        total = 0.0
        for value in budget.values():
            total += value
        if abs(total - observed) > 1e-12 * abs(observed):
            problems.append(f"budget components sum to {total!r}, observed {observed!r}")

        warnings = [line for line in (out / "report.txt").read_text().splitlines()
                    if line.startswith("warning")]
        if warnings:
            problems.append(f"report flags the budget: {warnings}")

        pairs = [((int(r[0]), int(r[1])), (int(r[2]), int(r[3])))
                 for r in self._rows(out / "cross_fidelity.csv")]
        expected = {(a, b) for a in self.qubits for b in self.qubits if a != b}
        if len(pairs) != n * (n - 1) or set(pairs) != expected:
            problems.append(
                f"cross_fidelity.csv has {len(pairs)} off-diagonal entries, "
                f"expected the {n * (n - 1)} of an {n} x {n} matrix")
        return problems


WORKLOADS = {w.name: w for w in (OptimizeDense, SweepBand, MonteCarloD5)}
