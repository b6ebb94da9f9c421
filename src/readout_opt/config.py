"""Optimizer configuration: grids, weights, heuristic constants.

Like the device config, the file is YAML with explicit units in the field
names; everything is converted to rad/ns and ns once at load.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, NamedTuple

import numpy as np
import yaml

from .device import DeviceGraph, QubitId, Role, _integer, ghz_to_rad_ns, rad_ns_to_ghz
from .dynamics import StepSizeError, _check_step
from .error_models import CostModel, CostWeights, ParameterError, require
from .snake import SearchGrid
from .yamlio import parse_yaml


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

    def __post_init__(self) -> None:
        require(self, "> 0", "n_omega", "n_amp", "n_tp", "tp_min_ns")
        require(self, ">= 0", "amp_min", "amp_max")
        if not self.amp_max >= self.amp_min:
            raise ParameterError(self, "amp_max", ">= amp_min")
        if self.n_amp > 1 and not self.amp_max > self.amp_min:
            raise ParameterError(self, "amp_max", "> amp_min when n_amp > 1")
        if not self.tp_max_ns >= self.tp_min_ns:
            raise ParameterError(self, "tp_max_ns", ">= tp_min_ns")


@dataclass(frozen=True)
class OptimizerConfig:
    grid: GridSpec = GridSpec()
    model: CostModel = CostModel()
    start: tuple[int, int] | None = None


def _start_pair(value) -> tuple[int, int] | None:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"must be a [row, col] pair, got {value!r}")
    return (_integer(value[0]), _integer(value[1]))


class _Key(NamedTuple):
    """One config-file key: the OptimizerConfig field it fills and its units."""

    yaml: str  # "key" or "section.key"
    field: str  # attribute path under OptimizerConfig
    load: Callable[[Any], Any] = float  # file value -> internal value
    dump: Callable[[Any], Any] = lambda v: v  # internal value -> file value


#: Every key of the optimizer config file, in file order.  Omitted keys
#: keep the dataclass defaults; the loader rejects any other key.
_KEYS = (
    _Key("total_readout_time_ns", "model.total_time"),
    _Key("dt_ns", "model.dt"),
    *(_Key(f"grid.{n}", f"grid.{n}", _integer) for n in ("n_omega", "n_amp", "n_tp")),
    *(_Key(f"grid.{n}", f"grid.{n}")
      for n in ("amp_min", "amp_max", "tp_min_ns", "tp_max_ns")),
    *(_Key(f"weights.{f.name}", f"model.weights.{f.name}")
      for f in fields(CostWeights)),
    _Key("mist.a", "model.mist.a"),
    _Key("mist.b_per_rad_ns", "model.mist.b"),
    _Key("mist.ceiling", "model.mist.ceiling"),
    _Key("mist.sharpness", "model.mist.sharpness"),
    _Key("collision.width_MHz", "model.collision.width",
         lambda v: ghz_to_rad_ns(float(v)) * 1e-3, lambda w: rad_ns_to_ghz(w) * 1e3),
    _Key("collision.resonance_penalty", "model.collision.resonance_penalty"),
    _Key("collision.next_nearest_scale", "model.collision.next_nearest_scale"),
    _Key("pole_guard_GHz", "model.pole_guard",
         lambda v: ghz_to_rad_ns(float(v)), rad_ns_to_ghz),
    _Key("start_qubit", "start", _start_pair, lambda s: list(s) if s else None),
)
_YAML_KEY = {key.field: key.yaml for key in _KEYS}
_BY_YAML = {key.yaml: key for key in _KEYS}
_SECTIONS = {key.yaml.partition(".")[0] for key in _KEYS if "." in key.yaml}


def _build(cls, values: dict, prefix: str = ""):
    """cls with the loaded values found under prefix, defaults elsewhere.

    A field whose default is a dataclass is built the same way, one level
    down.  A value its dataclass rejects is reported under its file key.
    """
    kwargs = {}
    for f in fields(cls):
        path = prefix + f.name
        if is_dataclass(f.default):
            kwargs[f.name] = _build(type(f.default), values, path + ".")
        elif path in values:
            kwargs[f.name] = values[path]
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise OptimizerConfigError(f"{_YAML_KEY[prefix + exc.field]}: {exc}") from None


def load_optimizer_config(text: str) -> OptimizerConfig:
    try:
        raw = parse_yaml(text)
    except yaml.YAMLError as exc:
        raise OptimizerConfigError(f"config parse failure: {exc}") from exc
    if raw is None:  # an empty or comment-only file: every default
        raw = {}
    if not isinstance(raw, dict):
        raise OptimizerConfigError("optimizer config must be a mapping")

    flat = {}
    for name, node in raw.items():
        if name not in _SECTIONS:
            flat[name] = node
        elif isinstance(node, dict):
            flat.update((f"{name}.{k}", v) for k, v in node.items())
        else:
            raise OptimizerConfigError(
                f"{name}: must be a mapping, got {type(node).__name__}")
    values = {}
    for yaml_key, value in flat.items():
        key = _BY_YAML.get(yaml_key)
        if key is None:
            raise OptimizerConfigError(f"{yaml_key}: unknown key")
        try:
            values[key.field] = key.load(value)
        except (TypeError, ValueError) as exc:
            raise OptimizerConfigError(f"{key.yaml}: {exc}") from None
    cfg = _build(OptimizerConfig, values)

    grid, total_time, dt = cfg.grid, cfg.model.total_time, cfg.model.dt
    if not grid.tp_max_ns <= total_time:
        raise OptimizerConfigError(
            f"grid.tp_max_ns: pulse-length range must fit "
            f"total_readout_time_ns = {total_time}")
    try:
        _step_range(grid.tp_min_ns, grid.tp_max_ns, dt)
    except ValueError as exc:
        raise OptimizerConfigError(f"grid.tp_min_ns: {exc}") from None
    return cfg


def check_dt(graph: DeviceGraph, cfg: OptimizerConfig) -> None:
    """Raise OptimizerConfigError, naming dt_ns and the qubit, unless
    dt_ns <= 1/kappa/10 for every qubit of graph: a coarser step fails
    every point of that qubit."""
    for qid in graph.sorted_ids():
        try:
            _check_step(0.0, graph.qubits[qid].kappa, cfg.model.dt)
        except StepSizeError as exc:
            raise OptimizerConfigError(f"dt_ns: qubit {qid}: {exc}") from None


def check_start(graph: DeviceGraph, cfg: OptimizerConfig) -> QubitId | None:
    """The measure qubit of graph that start_qubit names, or None where it
    names none; else raise OptimizerConfigError, naming start_qubit."""
    if cfg.start is None:
        return None
    start = graph.at(*cfg.start)
    if start is None or start.role is not Role.MEASURE:
        fault = "not on device" if start is None else "is not a measure qubit"
        raise OptimizerConfigError(f"start_qubit: {cfg.start} {fault}")
    return start


def _step_range(lo: float, hi: float, dt: float) -> tuple[int, int]:
    """First and last positive multiple of dt (in steps) inside [lo, hi].

    Raises ValueError if there is none.
    """
    lo_step, hi_step = max(math.ceil(lo / dt - 1e-9), 1), math.floor(hi / dt + 1e-9)
    if lo_step > hi_step:
        raise ValueError(f"pulse-length range [{lo}, {hi}] ns holds no "
                         f"positive multiple of dt_ns = {dt}")
    return lo_step, hi_step


def snap_to_steps(values, lo: float, hi: float, dt: float) -> np.ndarray:
    """Pulse lengths as the dynamics simulate them.

    Each value is rounded to the nearest multiple of dt inside [lo, hi];
    the result is sorted, without duplicates.  Raises ValueError if [lo, hi]
    holds no positive multiple of dt.
    """
    lo_step, hi_step = _step_range(lo, hi, dt)
    steps = np.rint(np.asarray(values, dtype=float) / dt)
    return np.unique(np.clip(steps, lo_step, hi_step)) * dt


def snap_length(value: float, dt: float, total: float) -> float:
    """One pulse length as the dynamics simulate it: the nearest multiple of dt.

    Rounds as snap_to_steps does.  Raises ValueError unless the result
    lies in (0, total].
    """
    snapped = float(np.rint(value / dt) * dt)
    if not 0.0 < snapped <= total:
        raise ValueError(f"pulse length {value} ns rounds to {snapped} ns at "
                         f"dt_ns = {dt}, outside (0, {total}] ns")
    return snapped


@functools.lru_cache(maxsize=16)
def _grid_axes(g: GridSpec, dt: float) -> tuple[np.ndarray, tuple[float, ...]]:
    """build_search_grid's qubit-independent axes: the amplitudes in units of
    amp_ref, read-only, and the pulse lengths, snapped by snap_to_steps."""
    amp = np.linspace(g.amp_min, g.amp_max, g.n_amp)
    amp.setflags(write=False)  # shared by every caller
    tp = snap_to_steps(np.linspace(g.tp_min_ns, g.tp_max_ns, g.n_tp),
                       g.tp_min_ns, g.tp_max_ns, dt)
    return amp, tuple(tp.tolist())


def build_search_grid(
    graph: DeviceGraph, qid: QubitId, cfg: OptimizerConfig
) -> SearchGrid:
    """Per-qubit grid: omega over the search band, amplitudes via amp_ref.

    Pulse lengths are snapped to the nearest multiple of dt inside the
    configured range, duplicates dropped (snap_to_steps), so every reported
    t_p is the one the dynamics simulate.  The amplitude and pulse-length
    axes are computed once per grid and dt (_grid_axes).
    """
    lo, hi = graph.search_band[qid]
    amp, tp_points = _grid_axes(cfg.grid, cfg.model.dt)
    return SearchGrid(
        omega_points=tuple(np.linspace(lo, hi, cfg.grid.n_omega).tolist()),
        amp_points=tuple((amp * graph.qubits[qid].amp_ref).tolist()),
        tp_points=tp_points,
    )


def config_echo(cfg: OptimizerConfig) -> dict:
    """Fully resolved config values for the run-manifest echo, in file units."""
    echo: dict = {}
    for key in _KEYS:
        value = cfg
        for attr in key.field.split("."):
            value = getattr(value, attr)
        section, _, name = key.yaml.rpartition(".")
        node = echo.setdefault(section, {}) if section else echo
        node[name] = key.dump(value)
    return echo
