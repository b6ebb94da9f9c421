"""Optimizer configuration: grids, weights, heuristic constants.

Like the device config, the file is YAML with explicit units in the field
names; everything is converted to rad/ns and ns once at load.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .device import DeviceGraph, QubitId, ghz_to_rad_ns
from .error_models import CollisionDefaults, CostWeights, MistParams
from .snake import SearchGrid


class OptimizerConfigError(ValueError):
    pass


class Strategy(enum.Enum):
    PREDICTIVE_ONLY = "predictive"
    ALL_MODELS = "all"


@dataclass(frozen=True)
class GridSpec:
    n_omega: int = 60
    n_amp: int = 40
    n_tp: int = 42
    amp_min: float = 0.02
    amp_max: float = 0.40
    tp_min_ns: float = 100.0
    tp_max_ns: float = 480.0


@dataclass(frozen=True)
class OptimizerConfig:
    total_time: float = 500.0
    dt: float = 1.0
    grid: GridSpec = GridSpec()
    weights: CostWeights = CostWeights()
    mist: MistParams = MistParams(a=0.075, b=0.54)
    mist_ceiling: float = 1.0
    mist_sharpness: float = 0.05
    collision: CollisionDefaults = CollisionDefaults()
    pole_guard: float = 0.05
    start: tuple[int, int] | None = None


def load_optimizer_config(text: str) -> OptimizerConfig:
    try:
        raw = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise OptimizerConfigError(f"config parse failure: {exc}") from exc
    if not isinstance(raw, dict):
        raise OptimizerConfigError("optimizer config must be a mapping")

    grid_raw = raw.get("grid", {})
    grid = GridSpec(
        n_omega=int(grid_raw.get("n_omega", GridSpec.n_omega)),
        n_amp=int(grid_raw.get("n_amp", GridSpec.n_amp)),
        n_tp=int(grid_raw.get("n_tp", GridSpec.n_tp)),
        amp_min=float(grid_raw.get("amp_min", GridSpec.amp_min)),
        amp_max=float(grid_raw.get("amp_max", GridSpec.amp_max)),
        tp_min_ns=float(grid_raw.get("tp_min_ns", GridSpec.tp_min_ns)),
        tp_max_ns=float(grid_raw.get("tp_max_ns", GridSpec.tp_max_ns)),
    )
    if grid.n_omega < 1 or grid.n_amp < 1 or grid.n_tp < 1:
        raise OptimizerConfigError("grid sizes must be >= 1")
    if grid.amp_min < 0 or grid.amp_max < grid.amp_min:
        raise OptimizerConfigError("invalid amplitude range")

    w_raw = raw.get("weights", {})
    weights = CostWeights(
        separation=float(w_raw.get("separation", 1.0)),
        relaxation=float(w_raw.get("relaxation", 1.0)),
        photon=float(w_raw.get("photon", 1.0)),
        mist=float(w_raw.get("mist", 1.0)),
        coupling=float(w_raw.get("coupling", 1.0)),
    )

    m_raw = raw.get("mist", {})
    mist = MistParams(
        a=float(m_raw.get("a", 0.075)),
        b=float(m_raw.get("b_per_rad_ns", 0.54)),
    )

    c_raw = raw.get("collision", {})
    collision = CollisionDefaults(
        width=2.0 * math.pi * float(c_raw.get("width_MHz", 30.0)) * 1e-3,
        resonance_penalty=float(c_raw.get("resonance_penalty", 1.0)),
        next_nearest_scale=float(c_raw.get("next_nearest_scale", 0.5)),
    )

    start_raw = raw.get("start_qubit")
    start = None
    if start_raw is not None:
        start = (int(start_raw[0]), int(start_raw[1]))

    total_time = float(raw.get("total_readout_time_ns", 500.0))
    tp_max = float(grid.tp_max_ns)
    if not 0 < grid.tp_min_ns <= tp_max <= total_time:
        raise OptimizerConfigError("pulse-length range must fit the total time")
    dt = float(raw.get("dt_ns", 1.0))
    if not dt > 0:
        raise OptimizerConfigError(f"dt_ns must be > 0, got {dt}")
    lo_step, hi_step = _tp_step_range(grid, dt)
    if lo_step > hi_step:
        raise OptimizerConfigError(
            f"pulse-length range [{grid.tp_min_ns}, {tp_max}] ns holds no "
            f"multiple of dt_ns = {dt}")

    return OptimizerConfig(
        total_time=total_time,
        dt=dt,
        grid=grid,
        weights=weights,
        mist=mist,
        mist_ceiling=float(m_raw.get("ceiling", 1.0)),
        mist_sharpness=float(m_raw.get("sharpness", 0.05)),
        collision=collision,
        pole_guard=ghz_to_rad_ns(float(raw.get("pole_guard_GHz", 0.008))),
        start=start,
    )


def _tp_step_range(grid: GridSpec, dt: float) -> tuple[int, int]:
    """First and last multiple of dt (in steps) inside the pulse-length range."""
    return (math.ceil(grid.tp_min_ns / dt - 1e-9),
            math.floor(grid.tp_max_ns / dt + 1e-9))


def build_search_grid(
    graph: DeviceGraph, qid: QubitId, cfg: OptimizerConfig
) -> SearchGrid:
    """Per-qubit grid: omega over the search band, amplitudes via amp_ref.

    Pulse lengths are snapped to the nearest multiple of dt inside the
    configured range, duplicates dropped, so every reported t_p is the one
    the dynamics simulate.
    """
    lo, hi = graph.search_band[qid]
    q = graph.qubits[qid]
    g = cfg.grid
    omega = np.linspace(lo, hi, g.n_omega)
    amp = np.linspace(g.amp_min, g.amp_max, g.n_amp) * q.amp_ref
    steps = np.rint(np.linspace(g.tp_min_ns, g.tp_max_ns, g.n_tp) / cfg.dt)
    tp = np.unique(np.clip(steps, *_tp_step_range(g, cfg.dt))) * cfg.dt
    return SearchGrid(
        omega_points=tuple(float(v) for v in omega),
        amp_points=tuple(float(v) for v in amp),
        tp_points=tuple(float(v) for v in tp),
    )


def config_echo(cfg: OptimizerConfig) -> dict:
    """Fully resolved config values for the run-manifest echo."""
    return {
        "total_readout_time_ns": cfg.total_time,
        "dt_ns": cfg.dt,
        "grid": {
            "n_omega": cfg.grid.n_omega,
            "n_amp": cfg.grid.n_amp,
            "n_tp": cfg.grid.n_tp,
            "amp_min": cfg.grid.amp_min,
            "amp_max": cfg.grid.amp_max,
            "tp_min_ns": cfg.grid.tp_min_ns,
            "tp_max_ns": cfg.grid.tp_max_ns,
        },
        "weights": {
            "separation": cfg.weights.separation,
            "relaxation": cfg.weights.relaxation,
            "photon": cfg.weights.photon,
            "mist": cfg.weights.mist,
            "coupling": cfg.weights.coupling,
        },
        "mist": {
            "a": cfg.mist.a,
            "b_per_rad_ns": cfg.mist.b,
            "ceiling": cfg.mist_ceiling,
            "sharpness": cfg.mist_sharpness,
        },
        "collision": {
            "width_MHz": cfg.collision.width / (2.0 * math.pi) * 1e3,
            "resonance_penalty": cfg.collision.resonance_penalty,
            "next_nearest_scale": cfg.collision.next_nearest_scale,
        },
        "pole_guard_GHz": cfg.pole_guard / (2.0 * math.pi),
        "start_qubit": list(cfg.start) if cfg.start else None,
    }
