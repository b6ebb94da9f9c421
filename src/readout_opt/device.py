"""Device model: fixed physical parameters, grid topology, and config I/O.

Internal units are angular frequencies in rad/ns, rates in 1/ns, and times
in ns.  Config files use GHz/MHz and rates per microsecond; conversion
happens once at load.

Device files are one of the two schemas with a direct codec (yamlio):
serialize_device writes through _emit_device, and load_device reads
through _read_device each text of _emit_device's template, matched by one
regex per entry whose every slot is a group of that slot's grammar, and
anything else, most hand-edited files included, through parse_yaml.
"""
from __future__ import annotations

import enum
import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import yaml

from .yamlio import (
    FLOAT,
    INT,
    NotCanonical,
    entry_groups,
    entry_pattern,
    one_of,
    parse_with,
    yaml_floats,
)

TWO_PI = 2.0 * math.pi


def ghz_to_rad_ns(f_ghz: float) -> float:
    """Convert a linear frequency in GHz to an angular one in rad/ns."""
    return TWO_PI * f_ghz


def rad_ns_to_ghz(omega: float) -> float:
    return omega / TWO_PI


class DeviceConfigError(ValueError):
    """Raised when a device config fails to parse or violates an invariant."""


class Role(enum.Enum):
    DATA = "data"
    MEASURE = "measure"


class NeighborOrder(enum.Enum):
    NEAREST = "nearest"
    NEXT_NEAREST = "next_nearest"
    BOTH = "both"


@dataclass(frozen=True, order=True)
class QubitId:
    row: int
    col: int
    role: Role = field(compare=False, default=Role.DATA)

    def __str__(self) -> str:
        return f"({self.row},{self.col},{self.role.value})"


@dataclass(frozen=True)
class QubitPhysical:
    """Fixed circuit parameters for one qubit and its readout resonator.

    gamma1_table is a tuple of (omega_q [rad/ns], rate [1/ns]) samples,
    strictly increasing in frequency.  amp_ref converts the dimensionless
    config amplitude into a drive amplitude in sqrt(photons/ns).
    """

    alpha: float
    g_eff: float
    omega_r: float
    eta: float
    kappa: float
    gamma1_table: tuple[tuple[float, float], ...]
    amp_ref: float

    def validate(self, qid: QubitId | None = None) -> None:
        where = f" for qubit {qid}" if qid is not None else ""
        if not self.alpha < 0:
            raise DeviceConfigError(f"alpha must be < 0{where}, got {self.alpha}")
        if not self.kappa > 0:
            raise DeviceConfigError(f"kappa must be > 0{where}, got {self.kappa}")
        if not 0 < self.eta <= 1:
            raise DeviceConfigError(f"eta must be in (0, 1]{where}, got {self.eta}")
        if self.g_eff < 0:
            raise DeviceConfigError(f"g_eff must be >= 0{where}, got {self.g_eff}")
        if self.amp_ref <= 0:
            raise DeviceConfigError(f"amp_ref must be > 0{where}, got {self.amp_ref}")
        if len(self.gamma1_table) < 2:
            raise DeviceConfigError(f"gamma1_table needs >= 2 entries{where}")
        freqs = [f for f, _ in self.gamma1_table]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise DeviceConfigError(
                f"gamma1_table must be strictly increasing in frequency{where}"
            )
        if any(rate < 0 for _, rate in self.gamma1_table):
            raise DeviceConfigError(f"gamma1_table rates must be >= 0{where}")

    @property
    def gamma1_span(self) -> tuple[float, float]:
        return self.gamma1_table[0][0], self.gamma1_table[-1][0]

    @cached_property
    def gamma1_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gamma1 table as read-only (frequencies, rates) arrays."""
        arrays = np.ascontiguousarray(np.asarray(self.gamma1_table, dtype=float).T)
        arrays.setflags(write=False)  # shared by every caller
        return arrays[0], arrays[1]


@dataclass
class DeviceGraph:
    """Immutable-after-load map of qubits plus per-qubit search bands."""

    qubits: dict[QubitId, QubitPhysical]
    search_band: dict[QubitId, tuple[float, float]]
    _coords: dict[tuple[int, int], QubitId] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._coords = {(q.row, q.col): q for q in self.qubits}

    def sorted_ids(self) -> list[QubitId]:
        return sorted(self.qubits, key=lambda q: (q.row, q.col))

    def at(self, row: int, col: int) -> QubitId | None:
        return self._coords.get((row, col))


def coupling_strength(q: QubitPhysical, omega_q: float) -> float:
    """Qubit-resonator coupling g = g_eff * sqrt(omega_r * omega_q) / 2."""
    if omega_q <= 0:
        raise ValueError(f"omega_q must be > 0, got {omega_q}")
    return q.g_eff * math.sqrt(q.omega_r * omega_q) / 2.0


_NEAREST_OFFSETS = ((-1, 0), (0, -1), (0, 1), (1, 0))
_DIAGONAL_OFFSETS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def neighbors(graph: DeviceGraph, q: QubitId, order: NeighborOrder) -> list[QubitId]:
    """Grid neighbors of q at the requested order, in row-major order."""
    if q not in graph.qubits:
        raise KeyError(f"unknown qubit {q}")
    if order is NeighborOrder.NEAREST:
        offsets = _NEAREST_OFFSETS
    elif order is NeighborOrder.NEXT_NEAREST:
        offsets = _DIAGONAL_OFFSETS
    else:
        offsets = _NEAREST_OFFSETS + _DIAGONAL_OFFSETS
    found = []
    for dr, dc in offsets:
        nb = graph.at(q.row + dr, q.col + dc)
        if nb is not None:
            found.append(nb)
    found.sort(key=lambda n: (n.row, n.col))
    return found


_REQUIRED_FIELDS = (
    "row", "col", "role", "alpha_GHz", "g_eff", "f_r_GHz", "eta",
    "kappa_MHz", "amp_ref", "band_GHz", "gamma1_table",
)


_DEVICE_HEAD = "qubits:\n"
_DEVICE_FLOATS = ("alpha_GHz", "g_eff", "f_r_GHz", "eta", "kappa_MHz", "amp_ref")
_DEVICE_ENTRY = ("- row: %s\n  col: %s\n  role: %s\n"
                 + "".join(f"  {key}: %s\n" for key in _DEVICE_FLOATS)
                 + "  band_GHz:\n  - %s\n  - %s\n  gamma1_table:\n")
_KNOT = "  - - %s\n    - %s\n"
#: the role values, the grammar of a role slot in both schemas
ROLES = frozenset(r.value for r in Role)
_KNOT_RE = re.compile(entry_pattern(_KNOT, FLOAT, FLOAT))
#: an entry's groups: its eleven values, its knot block and, again, the
#: block's last knot
_DEVICE_RE = re.compile(
    entry_pattern(_DEVICE_ENTRY, INT, INT, one_of(ROLES), *[FLOAT] * 8)
    + f"((?:{_KNOT_RE.pattern})+)")


def _emit_device(data: dict) -> str:
    """yaml.safe_dump's text of a dict serialize_device built; NotCanonical
    on an unknown role, no qubits or a value that is not a float where a
    float belongs."""
    if not data["qubits"]:
        raise NotCanonical  # safe_dump writes an empty list as []
    parts = [_DEVICE_HEAD]
    for e in data["qubits"]:
        if e["role"] not in ROLES:
            raise NotCanonical
        table = e["gamma1_table"]
        floats = yaml_floats([*(e[key] for key in _DEVICE_FLOATS), *e["band_GHz"],
                               *itertools.chain.from_iterable(table)])
        parts.append(_DEVICE_ENTRY % (e["row"], e["col"], e["role"], *floats[:8]))
        parts.append(_KNOT * len(table) % tuple(floats[8:]))
    return "".join(parts)


def _read_device(text: str) -> dict | None:
    """yaml.SafeLoader's dict of a text _emit_device may have written, or
    None where the text or a token is not of that form (see yamlio)."""
    entries = text.startswith(_DEVICE_HEAD) and entry_groups(_DEVICE_RE, text, len(_DEVICE_HEAD))
    if not entries:
        return None
    qubits = []
    for row, col, role, *values, knots, _, _ in entries:
        values = list(map(float, values))
        qubits.append({"row": int(row), "col": int(col), "role": role,
                       **dict(zip(_DEVICE_FLOATS, values)), "band_GHz": values[6:],
                       "gamma1_table": [[float(f), float(rate)]
                                        for f, rate in _KNOT_RE.findall(knots)]})
    return {"qubits": qubits}


def _field(entry: dict, key: str, convert, at: str):
    """convert(entry[key]), or a DeviceConfigError naming at + key."""
    try:
        return convert(entry[key])
    except (TypeError, ValueError) as exc:
        raise DeviceConfigError(f"{at}{key}: {exc}") from None


def _integer(value) -> int:
    """value if it is an int; a bool, float or string raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _finite(value, scale: float = 1.0) -> float:
    """scale * float(value), a config value in internal units; a ValueError
    unless value and the product are finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    out = scale * value
    if not math.isfinite(out):
        raise ValueError(f"{value} is out of range")
    return out


def _frequency(value) -> float:
    """A frequency in GHz, > 0, in rad/ns."""
    omega = _finite(value, TWO_PI)
    if not omega > 0.0:
        raise ValueError(f"must be > 0, got {float(value)}")
    return omega


def _pair(value) -> list:
    """value if it is a list of two items, as a band and a Gamma1 knot are;
    a string, bytes or mapping would iterate as one, and raises ValueError."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"must be a list of two numbers, got {value!r}")
    return value


def _band(value) -> tuple[float, float]:
    lo, hi = (_frequency(v) for v in _pair(value))
    return lo, hi


def _gamma1_table(value) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list):
        raise ValueError(f"must be a list of [f_GHz, rate] knots, got {value!r}")
    return tuple((_finite(f, TWO_PI), _finite(rate) * 1e-3) for f, rate in map(_pair, value))


def load_device(config_text: str) -> DeviceGraph:
    """Parse and validate a device config (YAML text) into a DeviceGraph.

    A DeviceConfigError names the qubit entry and the key at fault.
    """
    try:
        raw = parse_with(_read_device, config_text)
    except yaml.YAMLError as exc:
        raise DeviceConfigError(f"config parse failure: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("qubits"), list):
        raise DeviceConfigError("config must be a mapping with a 'qubits' list")
    qubits: dict[QubitId, QubitPhysical] = {}
    bands: dict[QubitId, tuple[float, float]] = {}
    seen: set[tuple[int, int]] = set()
    for k, entry in enumerate(raw["qubits"]):
        at = f"qubits[{k}]."
        if not isinstance(entry, dict):
            raise DeviceConfigError(f"qubits[{k}]: must be a mapping, got {entry!r}")
        missing = [f for f in _REQUIRED_FIELDS if f not in entry]
        if missing:
            raise DeviceConfigError(f"qubit entry missing fields {missing}: {entry}")
        qid = QubitId(_field(entry, "row", _integer, at), _field(entry, "col", _integer, at),
                      _field(entry, "role", Role, at))
        if (qid.row, qid.col) in seen:
            raise DeviceConfigError(f"duplicate coordinates for qubit {qid}")
        seen.add((qid.row, qid.col))
        at = f"qubit {qid}: "
        phys = QubitPhysical(
            alpha=_field(entry, "alpha_GHz", lambda v: _finite(v, TWO_PI), at),
            g_eff=_field(entry, "g_eff", _finite, at),
            omega_r=_field(entry, "f_r_GHz", _frequency, at),
            eta=_field(entry, "eta", _finite, at),
            kappa=_field(entry, "kappa_MHz", lambda v: _finite(v, TWO_PI), at) * 1e-3,
            gamma1_table=_field(entry, "gamma1_table", _gamma1_table, at),
            amp_ref=_field(entry, "amp_ref", _finite, at),
        )
        phys.validate(qid)
        band_lo, band_hi = _field(entry, "band_GHz", _band, at)
        if band_lo >= band_hi:
            raise DeviceConfigError(f"empty search band for qubit {qid}")
        lo, hi = phys.gamma1_span
        if band_lo < lo or band_hi > hi:
            raise DeviceConfigError(
                f"search band outside gamma1 table span for qubit {qid}"
            )
        qubits[qid] = phys
        bands[qid] = (band_lo, band_hi)
    if not qubits:
        raise DeviceConfigError("config contains no qubits")
    return DeviceGraph(qubits=qubits, search_band=bands)


def serialize_device(graph: DeviceGraph) -> str:
    """Emit a device config (YAML text) that load_device accepts back.

    Every parameter is written as the float it equals, an int's or a numpy
    float's included.  The round trip is not bit for bit: writing kappa in
    MHz and the Gamma1 rates per us and reading them back can move them by
    an ulp, so a reloaded device can score differently in the last bit.
    """
    entries = []
    for qid in graph.sorted_ids():
        q = graph.qubits[qid]
        lo, hi = graph.search_band[qid]
        entries.append({
            "row": qid.row,
            "col": qid.col,
            "role": qid.role.value,
            "alpha_GHz": float(rad_ns_to_ghz(q.alpha)),
            "g_eff": float(q.g_eff),
            "f_r_GHz": float(rad_ns_to_ghz(q.omega_r)),
            "eta": float(q.eta),
            "kappa_MHz": float(q.kappa / TWO_PI * 1e3),
            "amp_ref": float(q.amp_ref),
            "band_GHz": [float(rad_ns_to_ghz(lo)), float(rad_ns_to_ghz(hi))],
            "gamma1_table": [
                [float(rad_ns_to_ghz(f)), float(rate * 1e3)] for f, rate in q.gamma1_table
            ],
        })
    return _emit_device({"qubits": entries})
