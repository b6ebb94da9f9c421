import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from readout_opt import (
    DeviceConfigError,
    NeighborOrder,
    QubitId,
    Role,
    coupling_strength,
    load_device,
    neighbors,
    serialize_device,
)

from conftest import DEFAULT_BAND, TWO_PI, grid_3x3, make_graph, make_qubit
from oracle import FrequencyRangeError, relaxation_rate

MINIMAL_ENTRY = {
    "row": 0, "col": 0, "role": "data",
    "alpha_GHz": -0.2, "g_eff": 0.07, "f_r_GHz": 4.7, "eta": 0.5,
    "kappa_MHz": 11.0, "amp_ref": 1.0, "band_GHz": [5.6, 6.3],
    "gamma1_table": [[5.2, 0.05], [5.8, 0.06], [6.4, 0.05]],
}


def minimal_yaml(**overrides):
    entry = {**MINIMAL_ENTRY, **overrides}
    return yaml.safe_dump({"qubits": [entry]})


class TestLoadDevice:
    def test_minimal_single_qubit(self):
        graph = load_device(minimal_yaml())
        assert len(graph.qubits) == 1
        qid = graph.sorted_ids()[0]
        assert neighbors(graph, qid, NeighborOrder.BOTH) == []
        q = graph.qubits[qid]
        assert q.omega_r == pytest.approx(TWO_PI * 4.7)
        assert q.kappa == pytest.approx(TWO_PI * 0.011)
        assert q.alpha == pytest.approx(-TWO_PI * 0.2)
        # rates convert from 1/us to 1/ns
        assert q.gamma1_table[0][1] == pytest.approx(5e-5)

    def test_d3_layout_roles(self, d3_graph):
        roles = [q.role for q in d3_graph.qubits]
        assert len(d3_graph.qubits) == 17
        assert sum(r is Role.MEASURE for r in roles) == 8
        assert sum(r is Role.DATA for r in roles) == 9

    def test_kappa_zero_rejected(self):
        with pytest.raises(DeviceConfigError, match="kappa"):
            load_device(minimal_yaml(kappa_MHz=0.0))

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(DeviceConfigError, match="eta"):
            load_device(minimal_yaml(eta=1.5))

    def test_positive_alpha_rejected(self):
        with pytest.raises(DeviceConfigError, match="alpha"):
            load_device(minimal_yaml(alpha_GHz=0.2))

    def test_band_outside_gamma1_span_rejected(self):
        with pytest.raises(DeviceConfigError, match="band"):
            load_device(minimal_yaml(band_GHz=[5.0, 6.3]))

    def test_unsorted_gamma1_rejected(self):
        with pytest.raises(DeviceConfigError, match="increasing"):
            load_device(minimal_yaml(
                gamma1_table=[[5.2, 0.05], [5.2, 0.06], [6.4, 0.05]]))

    def test_duplicate_coordinates_rejected(self):
        doc = yaml.safe_load(minimal_yaml())
        doc["qubits"].append({**MINIMAL_ENTRY, "role": "measure"})
        with pytest.raises(DeviceConfigError, match="duplicate"):
            load_device(yaml.safe_dump(doc))

    @pytest.mark.parametrize("text, message", [
        ("qubits: 5", "'qubits' list"),
        ("qubits: [row]", "qubits[0]: must be a mapping, got 'row'"),
        ("qubits: [[1, 2]]", "qubits[0]: must be a mapping"),
    ])
    def test_qubits_must_be_a_list_of_mappings(self, text, message):
        with pytest.raises(DeviceConfigError) as exc:
            load_device(text)
        assert message in str(exc.value)

    @pytest.mark.parametrize("key, value, message", [
        ("row", "x", "qubits[0].row: must be an integer, got 'x'"),
        ("role", "ancilla", "qubits[0].role: 'ancilla' is not a valid Role"),
        ("alpha_GHz", "x", "qubit (0,0,data): alpha_GHz: could not convert"),
        ("kappa_MHz", None, "qubit (0,0,data): kappa_MHz: float() argument"),
        ("band_GHz", [5.6, 6.0, 6.3],
         "qubit (0,0,data): band_GHz: must be a list of two numbers, got [5.6, 6.0, 6.3]"),
        ("band_GHz", 5.6, "qubit (0,0,data): band_GHz: must be a list of two numbers, got 5.6"),
        ("gamma1_table", [[5.2, 0.05], [5.8]],
         "qubit (0,0,data): gamma1_table: must be a list of two numbers, got [5.8]"),
        ("gamma1_table", [[5.2, 0.05], ["x", 0.06]],
         "qubit (0,0,data): gamma1_table: could not convert"),
        # int() would load row 1.5 and col true as qubit (1,1)
        ("row", 1.5, "qubits[0].row: must be an integer, got 1.5"),
        ("row", "1", "qubits[0].row: must be an integer, got '1'"),
        ("col", True, "qubits[0].col: must be an integer, got True"),
        ("col", 1.0, "qubits[0].col: must be an integer, got 1.0"),
        # non-finite and nonsensical numbers
        ("g_eff", math.nan, "qubit (0,0,data): g_eff: must be finite, got nan"),
        ("amp_ref", math.inf, "qubit (0,0,data): amp_ref: must be finite, got inf"),
        ("kappa_MHz", math.inf, "qubit (0,0,data): kappa_MHz: must be finite, got inf"),
        ("kappa_MHz", 1e308, "qubit (0,0,data): kappa_MHz: 1e+308 is out of range"),
        ("eta", math.nan, "qubit (0,0,data): eta: must be finite, got nan"),
        ("f_r_GHz", math.nan, "qubit (0,0,data): f_r_GHz: must be finite, got nan"),
        ("f_r_GHz", -3.0, "qubit (0,0,data): f_r_GHz: must be > 0, got -3.0"),
        ("f_r_GHz", 0.0, "qubit (0,0,data): f_r_GHz: must be > 0, got 0.0"),
        ("band_GHz", [math.nan, 6.4], "qubit (0,0,data): band_GHz: must be finite, got nan"),
        ("band_GHz", [-1.0, 6.3], "qubit (0,0,data): band_GHz: must be > 0, got -1.0"),
        ("gamma1_table", [[5.2, 0.05], [5.8, math.nan], [6.4, 0.05]],
         "qubit (0,0,data): gamma1_table: must be finite, got nan"),
        ("gamma1_table", [[5.2, 0.05], [math.nan, 0.06], [6.4, 0.05]],
         "qubit (0,0,data): gamma1_table: must be finite, got nan"),
        # a string, bytes or mapping iterates, but is no band, table or knot:
        # '56' would read as the band [5, 6] GHz and '52' as the knot (5, 2)
        ("band_GHz", "56", "qubit (0,0,data): band_GHz: must be a list of two numbers, got '56'"),
        ("band_GHz", {5.6: 0, 6.3: 0}, "qubit (0,0,data): band_GHz: must be a list of two"),
        ("gamma1_table", ["52", "62", "72"],
         "qubit (0,0,data): gamma1_table: must be a list of two numbers, got '52'"),
        ("gamma1_table", b"\x05\x06",
         "qubit (0,0,data): gamma1_table: must be a list of [f_GHz, rate] knots, got b'"),
        ("gamma1_table", [[5.2, 0.05, 1.0], [5.8, 0.06], [6.4, 0.05]],
         "qubit (0,0,data): gamma1_table: must be a list of two numbers, got [5.2, 0.05, 1.0]"),
    ])
    def test_bad_value_names_entry_and_key(self, key, value, message):
        with pytest.raises(DeviceConfigError) as exc:
            load_device(minimal_yaml(**{key: value}))
        assert message in str(exc.value)

    def test_parse_failure(self):
        with pytest.raises(DeviceConfigError):
            load_device("qubits: [::")

    def test_round_trip(self, d3_graph):
        again = load_device(serialize_device(d3_graph))
        assert set(again.qubits) == set(d3_graph.qubits)
        for qid, q in d3_graph.qubits.items():
            q2 = again.qubits[qid]
            assert q2.alpha == pytest.approx(q.alpha, rel=1e-12)
            assert q2.kappa == pytest.approx(q.kappa, rel=1e-12)
            assert q2.omega_r == pytest.approx(q.omega_r, rel=1e-12)
            assert np.allclose(q2.gamma1_table, q.gamma1_table, rtol=1e-12)
            lo1, hi1 = d3_graph.search_band[qid]
            lo2, hi2 = again.search_band[qid]
            assert lo2 == pytest.approx(lo1, rel=1e-12)
            assert hi2 == pytest.approx(hi1, rel=1e-12)

    def test_serialize_ints_and_numpy_floats(self):
        """Ints and numpy floats, which validate accepts, are written as the
        floats they equal and load back as the float-valued device."""
        plain = make_qubit(g_eff=0.0, amp_ref=1.0)
        odd = make_qubit(
            alpha=np.float64(plain.alpha), g_eff=0, omega_r=np.float64(plain.omega_r),
            eta=np.float64(plain.eta), kappa=np.float64(plain.kappa), amp_ref=1,
            gamma1_table=tuple((np.float64(f), np.float64(rate))
                               for f, rate in plain.gamma1_table))
        odd.validate()
        band = tuple(map(np.float64, DEFAULT_BAND))
        text = serialize_device(make_graph([(0, 0, Role.DATA, odd, band)]))
        assert text == serialize_device(make_graph([(0, 0, Role.DATA, plain)]))
        q = load_device(text).qubits[QubitId(0, 0)]
        assert (q.g_eff, q.eta, q.amp_ref) == (plain.g_eff, plain.eta, plain.amp_ref)
        assert all(type(v) is float for v in (q.alpha, q.g_eff, q.omega_r, q.eta,
                                               q.kappa, q.amp_ref))


@st.composite
def device_configs(draw):
    """A valid device config (YAML mapping) of one to four qubits."""
    coords = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=1, max_size=4, unique=True))
    entries = []
    for row, col in coords:
        freqs = sorted(draw(st.lists(st.floats(3.0, 9.0), min_size=2,
                                     max_size=6, unique=True)))
        lo, hi = sorted(draw(st.lists(st.floats(freqs[0], freqs[-1]),
                                      min_size=2, max_size=2, unique=True)))
        entries.append({
            "row": row, "col": col,
            "role": draw(st.sampled_from(("data", "measure"))),
            "alpha_GHz": draw(st.floats(-0.4, -0.05)),
            "g_eff": draw(st.floats(0.0, 0.2)),
            "f_r_GHz": draw(st.floats(4.0, 8.0)),
            "eta": draw(st.floats(0.01, 1.0)),
            "kappa_MHz": draw(st.floats(0.5, 30.0)),
            "amp_ref": draw(st.floats(0.1, 3.0)),
            "band_GHz": [lo, hi],
            "gamma1_table": [[f, draw(st.floats(0.0, 1.0))] for f in freqs],
        })
    return {"qubits": entries}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(device_configs())
def test_serialize_round_trip(raw):
    # GHz <-> rad/ns and per-us <-> per-ns conversions may move the last bit
    graph = load_device(yaml.safe_dump(raw))
    again = load_device(serialize_device(graph))
    roles = {(q.row, q.col): q.role for q in graph.qubits}
    assert {(q.row, q.col): q.role for q in again.qubits} == roles
    for qid, q in graph.qubits.items():
        q2 = again.qubits[qid]
        assert (q2.eta, q2.g_eff, q2.amp_ref) == (q.eta, q.g_eff, q.amp_ref)
        for name in ("alpha", "omega_r", "kappa"):
            assert getattr(q2, name) == pytest.approx(getattr(q, name), rel=1e-12)
        assert np.array(q2.gamma1_table) == pytest.approx(
            np.array(q.gamma1_table), rel=1e-12)
        assert again.search_band[qid] == pytest.approx(graph.search_band[qid],
                                                       rel=1e-12)


class TestCouplingStrength:
    def test_zero_coupling_efficiency(self):
        q = make_qubit(g_eff=0.0)
        assert coupling_strength(q, TWO_PI * 6.0) == 0.0

    def test_at_resonator_frequency(self):
        q = make_qubit()
        assert coupling_strength(q, q.omega_r) == pytest.approx(
            q.g_eff * q.omega_r / 2.0)

    def test_monotone_in_omega_q(self):
        q = make_qubit()
        omegas = np.linspace(TWO_PI * 5.0, TWO_PI * 7.0, 50)
        values = [coupling_strength(q, w) for w in omegas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            coupling_strength(make_qubit(), 0.0)


class TestRelaxationRate:
    def setup_method(self):
        self.q = make_qubit(gamma1_table=(
            (TWO_PI * 5.0, 1e-5), (TWO_PI * 6.0, 3e-5), (TWO_PI * 7.0, 2e-5),
        ))

    def test_table_node_exact(self):
        assert relaxation_rate(self.q, TWO_PI * 6.0) == 3e-5

    def test_midpoint_is_mean(self):
        assert relaxation_rate(self.q, TWO_PI * 5.5) == pytest.approx(2e-5)

    def test_below_range_rejected(self):
        with pytest.raises(FrequencyRangeError):
            relaxation_rate(self.q, TWO_PI * 4.9)

    def test_above_range_rejected(self):
        with pytest.raises(FrequencyRangeError):
            relaxation_rate(self.q, TWO_PI * 7.1)

    def test_array_input(self):
        out = relaxation_rate(self.q, np.array([TWO_PI * 5.0, TWO_PI * 6.5]))
        assert out == pytest.approx([1e-5, 2.5e-5])

    def test_scalar_matches_array(self):
        xp = [w for w, _ in self.q.gamma1_table]
        points = [xp[0], xp[-1], xp[1], TWO_PI * 5.3, TWO_PI * 6.77, 35, math.nan]
        rates = relaxation_rate(self.q, np.array(points, dtype=float))
        for w, rate in zip(points, rates):
            for scalar in (w, np.float64(w)):
                got = relaxation_rate(self.q, scalar)
                assert type(got) is float
                assert got == rate or (math.isnan(got) and math.isnan(rate))
        for w in (np.nextafter(xp[0], -np.inf), np.nextafter(xp[-1], np.inf)):
            for value in (float(w), w, np.array([w])):
                with pytest.raises(FrequencyRangeError):
                    relaxation_rate(self.q, value)

    def test_piecewise_linear_continuity(self):
        omegas = np.linspace(TWO_PI * 5.0, TWO_PI * 7.0, 401)
        rates = relaxation_rate(self.q, omegas)
        assert np.all(np.abs(np.diff(rates)) < 1e-6)


class TestNeighbors:
    def test_corner_nearest(self):
        graph = grid_3x3()
        corner = graph.at(0, 0)
        assert len(neighbors(graph, corner, NeighborOrder.NEAREST)) == 2

    def test_center_both(self):
        graph = grid_3x3()
        center = graph.at(1, 1)
        both = neighbors(graph, center, NeighborOrder.BOTH)
        assert len(both) == 8
        assert len(neighbors(graph, center, NeighborOrder.NEAREST)) == 4
        assert len(neighbors(graph, center, NeighborOrder.NEXT_NEAREST)) == 4

    def test_row_major_order(self):
        graph = grid_3x3()
        both = neighbors(graph, graph.at(1, 1), NeighborOrder.BOTH)
        keys = [(n.row, n.col) for n in both]
        assert keys == sorted(keys)

    def test_single_qubit_no_neighbors(self):
        graph = make_graph([(0, 0, Role.DATA)])
        assert neighbors(graph, graph.at(0, 0), NeighborOrder.BOTH) == []

    def test_unknown_qubit(self):
        graph = grid_3x3()
        with pytest.raises(KeyError):
            neighbors(graph, QubitId(9, 9, Role.DATA), NeighborOrder.BOTH)

    @pytest.mark.parametrize("order", list(NeighborOrder))
    def test_symmetry(self, order, d3_graph):
        for q in d3_graph.qubits:
            for n in neighbors(d3_graph, q, order):
                assert q in neighbors(d3_graph, n, order)
