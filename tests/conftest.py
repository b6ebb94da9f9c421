import math
from pathlib import Path

import pytest

from readout_opt import (
    DeviceGraph,
    QubitId,
    QubitPhysical,
    Role,
    build_search_grid,
    load_device,
    load_optimizer_config,
    optimize_device,
)

TWO_PI = 2.0 * math.pi
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def make_qubit(**overrides) -> QubitPhysical:
    """A single plausible transmon + resonator in internal units."""
    fields = dict(
        alpha=-TWO_PI * 0.20,
        g_eff=0.07,
        omega_r=TWO_PI * 4.70,
        eta=0.5,
        kappa=TWO_PI * 0.011,
        gamma1_table=tuple(
            (TWO_PI * f, 5e-5) for f in (5.2, 5.6, 6.0, 6.4, 6.8)
        ),
        amp_ref=1.0,
    )
    fields.update(overrides)
    return QubitPhysical(**fields)


DEFAULT_BAND = (TWO_PI * 5.55, TWO_PI * 6.40)


def make_graph(entries) -> DeviceGraph:
    """Build a DeviceGraph from (row, col, role[, physical[, band]]) tuples."""
    qubits = {}
    bands = {}
    for entry in entries:
        row, col, role = entry[0], entry[1], entry[2]
        phys = entry[3] if len(entry) > 3 else make_qubit()
        band = entry[4] if len(entry) > 4 else DEFAULT_BAND
        qid = QubitId(row, col, role)
        qubits[qid] = phys
        bands[qid] = band
    return DeviceGraph(qubits=qubits, search_band=bands)


def grid_3x3(role=Role.DATA) -> DeviceGraph:
    return make_graph([(r, c, role) for r in range(3) for c in range(3)])


@pytest.fixture(scope="session")
def d3_graph() -> DeviceGraph:
    return load_device((CONFIG_DIR / "device_d3.yaml").read_text())


@pytest.fixture(scope="session")
def device_d3_path() -> Path:
    return CONFIG_DIR / "device_d3.yaml"


@pytest.fixture(scope="session")
def optimizer_path() -> Path:
    return CONFIG_DIR / "optimizer.yaml"


@pytest.fixture(scope="session")
def optimizer_small_path() -> Path:
    return CONFIG_DIR / "optimizer_small.yaml"


@pytest.fixture(scope="session")
def small_run(d3_graph):
    """One reduced-grid full-device optimization shared by several tests."""
    cfg = load_optimizer_config((CONFIG_DIR / "optimizer_small.yaml").read_text())
    grids = {qid: build_search_grid(d3_graph, qid, cfg) for qid in d3_graph.qubits}
    result = optimize_device(d3_graph, grids, cfg.model)
    return cfg, grids, result
