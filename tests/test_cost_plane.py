"""The array cost kernel against the scalar cost oracle, cell by cell.

cost_plane must reproduce every field of evaluate_cost's breakdown bit for
bit (compared as int64, so NaNs and signed zeros count) at every point of
its omega x amplitude x pulse-length grid.  On an invalid grid it must
raise, whatever its omegas, the error evaluate_cost raises first in
row-major order on those amplitudes and pulse lengths at an omega whose
|chi| passes.  cell_bound must stay at or below the kernel's total in
every finite cell, and score_planes with with_coupling, as the scan scores
cells, must give the kernel's cells bit for bit; plane_statistics and the
scan must raise the kernel's error.
"""
import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from readout_opt import (
    CostBreakdown,
    CostModel,
    CostWeights,
    MistParams,
    ReadoutParams,
    SearchGrid,
    StepSizeError,
    build_search_grids,
    field_pair,
    load_device,
    load_optimizer_config,
    optimize_qubit,
)
from readout_opt import error_models
from readout_opt.dynamics import dispersive_shift, photon_number
from readout_opt.error_models import (
    ParameterError,
    cell_bound,
    cost_plane,
    coupling_error,
    plane_statistics,
    score_planes,
    with_coupling,
)

from conftest import CONFIG_DIR, TWO_PI
from oracle import evaluate_cost, half_snr_time, stark_trajectory

D3 = load_device((CONFIG_DIR / "device_d3.yaml").read_text())
QIDS = D3.sorted_ids()
MIST = MistParams(a=0.075, b=0.54)
GUARD = TWO_PI * 0.008
TOTAL = 500.0
DT = 1.0
FIELDS = [f.name for f in fields(CostBreakdown)]


def model(weights=CostWeights(), include_heuristics=True, total_time=TOTAL, dt=DT):
    return CostModel(weights, MIST, pole_guard=GUARD, dt=dt,
                     total_time=total_time, heuristics=include_heuristics)


def omega_bound(q, omega, amps, tps, cost_model):
    """cell_bound of one omega with no locked neighbor, from its own
    plane_statistics entry, or None where that entry is None."""
    (plane,), = plane_statistics([(q, [omega], amps, tps)], cost_model)
    if plane is None:
        return None
    return cell_bound(plane, 0.0, cost_model)


def score_cells(plane, rows, cols, cost_model, locked=()):
    """The breakdown of the cells plane.amps[rows] x the plane's pulse
    lengths [cols], as the scan scores them: score_planes, then
    with_coupling.  Each field is a (len(rows), len(cols)) array."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    flat = (rows[:, None] * len(plane.n_ps) + cols).ravel()
    scored, = score_planes([(plane, flat)], cost_model)
    coupling, = coupling_error(plane.q, [plane.omega], locked, cost_model)
    scored = with_coupling(scored, coupling, cost_model)
    return CostBreakdown(**{name: values.reshape(len(rows), len(cols))
                            for name, values in scored.items()})


def oracle(q, omegas, amps, tps, cost_model, locked):
    """evaluate_cost at every cell in row-major order.

    Returns ({field: grid}, None), or (None, exception) for the first
    point that raises.
    """
    grids = {name: np.empty((len(omegas), len(amps), len(tps))) for name in FIELDS}
    for i, omega in enumerate(omegas):
        for a, b0 in enumerate(amps):
            for j, t_p in enumerate(tps):
                params = ReadoutParams(omega, b0, t_p, cost_model.total_time - t_p)
                try:
                    bd = evaluate_cost(q, params, cost_model, locked)
                except ValueError as exc:
                    return None, exc
                for name in FIELDS:
                    grids[name][i, a, j] = getattr(bd, name)
    return grids, None


#: the middle of the band every qubit of D3 shares, where |chi| passes at
#: dt = 1 ns on each of them, so every pulse check runs there
CHECKED_OMEGA = 0.5 * sum(D3.search_band[QIDS[0]])


def grid_error(q, amps, tps, cost_model, locked=()):
    """The oracle's first error on the grid amps x tps at CHECKED_OMEGA, or
    None: what cost_plane raises on any omegas with those amplitudes and
    pulse lengths."""
    return oracle(q, [CHECKED_OMEGA], amps, tps, cost_model, locked)[1]


def assert_raises_as(error, func, *args):
    """func(*args) raises error's type and message."""
    with pytest.raises(type(error)) as got:
        func(*args)
    assert (type(got.value), str(got.value)) == (type(error), str(error))


def assert_same(q, omegas, amps, tps, weights=CostWeights(), locked=(),
                include_heuristics=True, **kw):
    """Kernel and oracle agree in every field of every cell, or the kernel
    raises the grid's error (grid_error).  Returns the kernel's breakdown,
    or None where it raises."""
    cost_model = model(weights, include_heuristics, **kw)
    error = grid_error(q, amps, tps, cost_model, locked)
    if error is not None:
        assert_raises_as(error, cost_plane, q, omegas, amps, tps, cost_model, locked)
        return None
    expected, error = oracle(q, omegas, amps, tps, cost_model, locked)
    assert error is None
    bd = cost_plane(q, omegas, amps, tps, cost_model, locked)
    for name in FIELDS:
        grid = getattr(bd, name)
        assert grid.shape == expected[name].shape, name
        bad = np.argwhere(grid.view(np.int64) != expected[name].view(np.int64))
        assert not len(bad), (name, [(tuple(c), grid[tuple(c)], expected[name][tuple(c)])
                                     for c in bad[:3]])
    return bd


def in_band(band):
    lo, hi = band
    return st.floats(lo - 0.5, hi + 0.5)


def near_pole(q):
    """Omega within three guards of a chi pole: inside the guard, or with
    |chi| too large for dt, or neither."""
    return st.sampled_from((q.omega_r, q.omega_r - q.alpha)).flatmap(
        lambda pole: st.floats(pole - 3 * GUARD, pole + 3 * GUARD))


pulse_lengths = st.one_of(
    st.integers(1, 500).map(float),                   # on the dt grid
    st.floats(0.6, TOTAL, allow_subnormal=False),     # anywhere
)
# zero weights isolate single terms, so a last-bit change in one shows
weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 2.0))
weights = st.builds(CostWeights, *(weight,) * 5)


@st.composite
def grids(draw):
    """A few omegas, repeated or distinct, or up to 40 distinct ones, with
    amplitudes from zero up to 3 amp_ref; one in ten holds an invalid point."""
    qid = draw(st.sampled_from(QIDS))
    q = D3.qubits[qid]
    band = D3.search_band[qid]
    amp = st.floats(0.0, 3.0 * q.amp_ref)
    if draw(st.integers(0, 4)):
        distinct = draw(st.lists(in_band(band) | in_band(band) | near_pole(q),
                                 min_size=1, max_size=4))
        omegas = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=4))
        amps = [0.0] + draw(st.lists(amp, max_size=3))
        tps = draw(st.lists(pulse_lengths, min_size=1, max_size=4))
    else:
        omegas = draw(st.lists(st.floats(*band), unique=True, min_size=1, max_size=40))
        omegas = draw(st.permutations(omegas + draw(st.lists(near_pole(q), max_size=2))))
        amps = draw(st.lists(amp, min_size=1, max_size=2))
        tps = draw(st.lists(pulse_lengths, min_size=1, max_size=2))
    amps = draw(st.permutations(amps))
    if draw(st.integers(0, 9)) == 7:  # an invalid point, where evaluate_cost raises
        if draw(st.booleans()):
            amps[draw(st.integers(0, len(amps) - 1))] = -draw(st.floats(1e-3, 1.0))
        else:  # t_r < 0, t_p <= 0, or n_p = 0 samples
            tps.insert(draw(st.integers(0, len(tps))),
                       draw(st.sampled_from((TOTAL + 1.0, 0.0, 0.4))))
    include_heuristics = draw(st.booleans())
    locked = []
    for _ in range(draw(st.integers(0, 3))):
        nb = D3.qubits[draw(st.sampled_from(QIDS))]
        nb_omega = omegas[0] + draw(st.floats(-0.3, 0.3))
        locked.append((nb, ReadoutParams(nb_omega, 0.1, 300.0, 200.0),
                       draw(st.booleans())))
    return q, omegas, amps, tps, draw(weights), locked, include_heuristics


# no shrinking: each shrink step reruns the oracle, so a fault would take
# minutes to report; the first failing grid is reported as drawn
EXAMPLES = settings(max_examples=500, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))


@EXAMPLES
@given(grids())
def test_every_cell_bit_identical_to_evaluate_cost(case):
    assert_same(*case)


@EXAMPLES
@given(grids())
def test_cell_bound_below_every_finite_cell(case):
    """cell_bound is <= the kernel's total in every finite cell of every
    omega, never NaN; plane_statistics has no entry only where the whole
    omega is infeasible or there is no cell, and score_planes with
    with_coupling, the scan's scoring, gives the kernel's plane bit for
    bit.  On an invalid grid plane_statistics raises what the kernel
    raises, and so does the scan on the grid's sorted values."""
    q, omegas, amps, tps, weights, locked, include_heuristics = case
    cost_model = model(weights, include_heuristics)
    try:
        bd, error = cost_plane(q, omegas, amps, tps, cost_model, locked), None
    except ValueError as exc:
        error = exc
    if error is not None:
        assert_raises_as(error, plane_statistics, [(q, omegas, amps, tps)], cost_model)
        grid = SearchGrid(*(tuple(sorted(set(axis))) for axis in (omegas, amps, tps)))
        with pytest.raises(ValueError) as want:
            cost_plane(q, grid.omega_points, grid.amp_points, grid.tp_points, cost_model)
        assert_raises_as(want.value, optimize_qubit, q, grid, [], cost_model)
        return
    planes, = plane_statistics([(q, omegas, amps, tps)], cost_model)
    coupling = coupling_error(q, omegas, locked, cost_model)
    for i, plane in enumerate(planes):
        total = bd.total[i]
        # snr is NaN only near a pole or with |chi| too large for dt
        if plane is None:
            assert np.isnan(bd.snr[i]).all() and np.isposinf(total).all()
            continue
        assert not np.isnan(bd.snr[i]).any()
        bound = cell_bound(plane, coupling[i], cost_model)
        assert bound.shape == total.shape
        assert not np.isnan(bound).any()
        finite = np.isfinite(total)
        assert (bound[finite] <= total[finite]).all(), (omegas[i], bound, total)
        got = score_cells(plane, np.arange(len(amps)), np.arange(len(tps)), cost_model,
                          locked)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(got, name).view(np.int64),
                                          getattr(bd, name)[i].view(np.int64))


@pytest.mark.parametrize("t_p", [60.0, 120.0])  # half-SNR index after, before the pulse end
def test_cell_bound_reads_stark_trace_to_half_snr_index(t_p):
    """Gamma1 drops to 0 past a photon number the field reaches between 20
    samples before the half-SNR index and 2 after it.  The bound must take
    that 0 as its minimum; the kernel scores the samples short of the drop
    at the full rate, more than a bound blind to the drop would allow."""
    qid = QIDS[2]
    q = D3.qubits[qid]
    omega, b0 = 0.5 * sum(D3.search_band[qid]), 0.3 * q.amp_ref
    traj = field_pair(q, ReadoutParams(omega, b0, t_p, TOTAL - t_p), DT, guard=GUARD)
    k = int(half_snr_time(traj, q.eta, q.kappa) / DT) + 1  # the kernel's index
    n = photon_number(traj.beta1)
    n_edge = 0.5 * (n[: k - 19].max() + n[: k + 3].max())
    assert (n[: k - 1] > n_edge).sum() >= 4
    edge, rate = omega + 2.0 * traj.chi * n_edge, 1e-3
    if traj.chi < 0:
        table = ((omega - 5.0, 0.0), (edge - 1e-9, 0.0), (edge, rate), (omega + 5.0, rate))
    else:
        table = ((omega - 5.0, rate), (edge, rate), (edge + 1e-9, 0.0), (omega + 5.0, 0.0))
    cut = replace(q, gamma1_table=table)
    relaxation_only = model(CostWeights(0.0, 1.0, 0.0, 0.0, 0.0))
    total = cost_plane(cut, [omega], [b0], [t_p], relaxation_only).total[0, 0, 0]
    assert 0.0 < total < (k - 2) * DT * rate
    assert omega_bound(cut, omega, [b0], [t_p], relaxation_only)[0, 0] == 0.0


@pytest.mark.parametrize("weights", [CostWeights(1.0, 0.0, 0.0, 0.0, 0.0),
                                     CostWeights(0.0, 0.0, 1.0, 0.0, 0.0)],
                         ids=["separation", "photon"])
def test_cell_bound_is_tight_on_separation_and_photon(weights):
    """The separation and photon terms scale exactly with the unit
    response, so there the bound is the kernel's total up to its 1e-9
    margins.  The scan stays exact under any looser bound, scoring more
    cells; this is what fails if the bound loosens."""
    cfg = load_optimizer_config("grid: {n_omega: 3, n_amp: 40, n_tp: 39}")
    cost_model = model(weights)
    for qid, grid in build_search_grids(D3, cfg).items():
        q = D3.qubits[qid]
        totals = cost_plane(q, grid.omega_points, grid.amp_points, grid.tp_points,
                            cost_model).total
        planes, = plane_statistics([(q, grid.omega_points, grid.amp_points,
                                     grid.tp_points)], cost_model)
        for omega, plane, total in zip(grid.omega_points, planes, totals):
            bound = cell_bound(plane, 0.0, cost_model)
            finite = np.isfinite(total)
            assert finite.any()
            assert (bound[finite] >= (1.0 - 1e-6) * total[finite]).all(), (qid, omega)


def test_grid_with_every_kind_of_cell(monkeypatch):
    """One grid holds every kind of cell the property test draws."""
    qid = QIDS[0]
    q = D3.qubits[qid]
    lo, hi = D3.search_band[qid]
    inside_guard = q.omega_r + 0.5 * GUARD
    chi_too_large = q.omega_r - q.alpha + 0.095
    off_table = TWO_PI * 5.5   # a strong drive pulls the Stark trace below 5.2 GHz
    spread = list(np.linspace(lo, hi, 38))
    omegas = [off_table, inside_guard, chi_too_large] + spread
    amps = [3.0 * q.amp_ref, 0.0, 0.2 * q.amp_ref]
    tps = [5.0, 300.0]
    widths = []
    real_responses = error_models.step_responses

    def spy(chis, *args):
        widths.append(len(chis))
        return real_responses(chis, *args)
    monkeypatch.setattr(error_models, "step_responses", spy)
    bd = assert_same(q, omegas, amps, tps)
    assert widths == [len(spread) + 1]
    assert np.isnan(bd.snr[1:3]).all() and np.isinf(bd.total[1:3]).all()
    # off the table: only snr and separation are known
    assert np.isinf(bd.total[0, 0, 1]) and np.isfinite(bd.snr[0, 0, 1])
    assert np.isnan(bd.relaxation[0, 0, 1]) and np.isfinite(bd.separation[0, 0, 1])
    # a 5 ns pulse rings down for about 30 ns before half the SNR is in
    assert (bd.t0[3:, 2, 0] > 20.0).all()
    assert np.isfinite(bd.total[0, 1:]).all() and np.isfinite(bd.total[3:, 1:]).all()


def test_mixed_cells_keep_their_bits_in_any_batch(monkeypatch):
    """One kernel call on cells from planes of several d3 qubits, at mixed
    amplitudes and pulse lengths, one of them with a Stark trace that
    leaves the Gamma1 table, gives every field of every cell the bits of
    the oracle and of a one-cell cost_plane, and the same bits in any
    order of the cells, each run of cells on one plane one pick.  An
    infeasible omega has no plane to take cells from: the kernel's total
    is +inf there, everywhere."""
    cost_model = model()
    qids = (QIDS[0], QIDS[3], QIDS[6])
    scans, locked = [], []
    for k, qid in enumerate(qids):
        q, (lo, hi) = D3.qubits[qid], D3.search_band[qid]
        omegas = [lo + 0.3 * (hi - lo), lo + 0.8 * (hi - lo)]
        if k == 0:  # off the table at 5.5 GHz; the resonator pole
            omegas += [TWO_PI * 5.5, q.omega_r]
        amps = [0.0, 0.05 * q.amp_ref, 0.2 * q.amp_ref, 3.0 * q.amp_ref]
        scans.append((q, omegas, amps, [5.0, 120.0, 300.0, 480.0]))
        nb = D3.qubits[QIDS[k + 1]]
        locked.append([(nb, ReadoutParams(omegas[0], 0.1, 300.0, 200.0), False)])
    planes = plane_statistics(scans, cost_model)
    q, omegas, amps, tps = scans[0]
    assert planes[0][3] is None
    assert np.isinf(cost_plane(q, omegas[3:], amps, tps, cost_model).total).all()
    rng = np.random.default_rng(3)
    picks = [(k, i, a, j) for k, (_, omegas, amps, tps) in enumerate(scans)
             for i in range(len(omegas)) for a in range(len(amps)) for j in range(len(tps))
             if planes[k][i] is not None and rng.random() < 0.3]
    picks.append((0, 2, 3, 2))  # 3 amp_ref for 300 ns at 5.5 GHz: off the table
    expected = {}
    for k, i, a, j in picks:
        q, omegas, amps, tps = scans[k]
        point = ReadoutParams(omegas[i], amps[a], tps[j], TOTAL - tps[j])
        want = evaluate_cost(q, point, cost_model, locked[k])
        one = cost_plane(q, [omegas[i]], [amps[a]], [tps[j]], cost_model, locked[k])
        for name in FIELDS:
            assert getattr(one, name)[0, 0, 0].hex() == getattr(want, name).hex(), name
        expected[k, i, a, j] = [getattr(want, name) for name in FIELDS]
    assert not math.isfinite(expected[0, 2, 3, 2][-1])
    monkeypatch.setattr(error_models, "_BLOCK_PLANES", len(picks))  # one call
    for order in (picks, picks[::-1], [picks[n] for n in rng.permutation(len(picks))]):
        runs = []  # each run of cells on one plane, one pick
        for (k, i), run in itertools.groupby(order, key=lambda c: c[:2]):
            flat = np.array([a * len(scans[k][3]) + j for _, _, a, j in run])
            runs.append((planes[k][i], flat))
        parts = error_models.score_planes(runs, cost_model)
        scored = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
        coupling = [coupling_error(scans[k][0], [scans[k][1][i]], locked[k], cost_model)[0]
                    for k, i, _, _ in order]
        got = error_models.with_coupling(scored, np.array(coupling), cost_model)
        for c, key in enumerate(order):
            for name, want in zip(FIELDS, expected[key]):
                assert float(got[name][c]).hex() == want.hex(), (key, name)


class TestInfeasible:
    def test_stark_trace_leaving_gamma1_table(self):
        # chi < 0, so a strong drive at 5.5 GHz pulls the trace below the
        # table's 5.2 GHz edge
        q = D3.qubits[QIDS[0]]
        omega = TWO_PI * 5.5
        amps = [0.0, 0.05, 0.3, 1.0, 3.0]
        tps = [100.0, 250.5, 480.0]
        plane = assert_same(q, [omega], amps, tps).total[0]
        assert np.isinf(plane).any()
        assert np.isfinite(plane[0]).all()  # zero SNR: no relaxation term
        assert np.isfinite(plane[1]).all()

    def test_partial_interval_endpoint_leaving_gamma1_table(self):
        # the Stark trace still falls at t0 here, so a table whose lower end
        # lies between the trace up to n_full and the interpolated endpoint
        # at t0 rejects only the partial last interval
        q = D3.qubits[D3.at(1, 0)]
        params = ReadoutParams(TWO_PI * 6.4, 0.2, 120.0, TOTAL - 120.0)
        traj = field_pair(q, params, DT, guard=GUARD)
        t0 = half_snr_time(traj, q.eta, q.kappa)
        stark = stark_trajectory(params.omega_q, traj.chi, traj)
        n_full = int(t0 / DT)
        omega_end = stark[n_full] + (t0 / DT - n_full) * (
            stark[n_full + 1] - stark[n_full])
        edge = 0.5 * (stark[: n_full + 1].min() + omega_end)
        assert omega_end < edge < stark[: n_full + 1].min()
        cut = replace(q, gamma1_table=((edge, 1e-5),) + tuple(
            entry for entry in q.gamma1_table if entry[0] > edge))

        full = evaluate_cost(q, params, model())
        bd = evaluate_cost(cut, params, model())
        assert math.isfinite(full.total)
        assert bd.total == math.inf
        assert (bd.snr, bd.separation) == (full.snr, full.separation)
        plane = assert_same(cut, [params.omega_q], [0.0, params.b0], [params.t_p]).total[0]
        assert math.isfinite(plane[0, 0]) and plane[1, 0] == math.inf

    def test_pole_guard_gives_inf_plane(self):
        q = D3.qubits[QIDS[0]]
        plane = assert_same(q, [q.omega_r + 0.5 * GUARD], [0.0, 0.2], [300.0]).total
        assert np.isinf(plane).all()

    def test_invalid_pulse_raises_inside_the_pole_guard(self):
        # the grid is checked before any omega: an omega inside the guard
        # does not hide its error
        q = D3.qubits[QIDS[0]]
        with pytest.raises(ValueError, match="t_r must be >= 0, got -100.0"):
            cost_plane(q, [q.omega_r], [-1.0], [600.0], model())
        assert_same(q, [q.omega_r], [-1.0], [600.0])


class TestErrors:
    """The kernel raises what evaluate_cost raises at the first bad point."""

    OMEGA = TWO_PI * 5.9

    @pytest.mark.parametrize("amps, tps, kind", [
        ([0.1, 0.2], [300.0, 520.0], ValueError),       # t_r < 0
        ([0.1, -0.2], [300.0, 400.0], ValueError),      # negative b0, row 1
        ([-0.1], [0.0], ValueError),                    # t_p checked before b0
        ([0.1], [300.0, 0.4], StepSizeError),           # rounds to n_p = 0
    ])
    def test_invalid_pulse(self, amps, tps, kind):
        with pytest.raises(kind):
            cost_plane(D3.qubits[QIDS[0]], [self.OMEGA], amps, tps,
                       model())
        assert_same(D3.qubits[QIDS[0]], [self.OMEGA], amps, tps)

    def test_step_too_coarse(self):
        with pytest.raises(StepSizeError):
            cost_plane(D3.qubits[QIDS[0]], [self.OMEGA], [0.1], [300.0],
                       model(dt=20.0))
        assert_same(D3.qubits[QIDS[0]], [self.OMEGA], [0.1], [300.0], dt=20.0)
        # the first amplitude's b0 is checked before the step
        assert_same(D3.qubits[QIDS[0]], [self.OMEGA], [-0.1], [300.0], dt=20.0)


def test_scan_raises_the_kernels_error_in_any_walk_order():
    """At omega = 31 rad/ns |chi| is too large for dt, and at 25 rad/ns
    every pulse check runs: there the 0.4 ns pulse rounds to no sample
    before the 600 ns one's t_r < 0.  A neighbor locked at 25 rad/ns sends
    the walk to 31 first.  The kernel and both scans raise the grid's
    first error all the same."""
    q, nb = D3.qubits[D3.at(0, 2)], D3.qubits[D3.at(0, 3)]
    cost_model = CostModel()
    grid = SearchGrid((25.0, 31.0), (0.1,), (0.4, 600.0))
    assert abs(dispersive_shift(q, 31.0)) > 0.1 / cost_model.dt
    locked = [(nb, ReadoutParams(25.0, 0.1, 300.0, 200.0), False)]
    high, low = coupling_error(q, [31.0, 25.0], locked, cost_model)
    assert high < low
    with pytest.raises(StepSizeError) as kernel:
        cost_plane(q, grid.omega_points, grid.amp_points, grid.tp_points, cost_model)
    assert str(kernel.value) == "pulse (t_p=0.4, t_r=499.6) unresolvable at dt=1.0"
    for neighbors in ([], locked):
        assert_raises_as(kernel.value, optimize_qubit, q, grid, neighbors, cost_model)


EMPTY_AXES = pytest.mark.parametrize("amps, tps", [
    ([], [100.0, 300.0]),       # no amplitude
    ([0.1, 0.2], []),           # no pulse length
    ([-0.1], []),               # a negative amplitude, but no point to score
])


class TestEmptyAxes:
    OMEGA = TWO_PI * 5.9

    @EMPTY_AXES
    def test_cost_plane_gives_empty_planes(self, amps, tps):
        bd = cost_plane(D3.qubits[QIDS[0]], [self.OMEGA], amps, tps, model())
        for name in FIELDS:
            assert getattr(bd, name).shape == (1, len(amps), len(tps))

    @EMPTY_AXES
    def test_cell_bound_gives_an_empty_bound(self, amps, tps):
        """No cell, so nothing to bound: the omega has no entry, and the
        scan passes it by."""
        assert omega_bound(D3.qubits[QIDS[0]], self.OMEGA, amps, tps, model()) is None


def test_separation_is_math_erfc_bit_for_bit():
    """The kernel's separation is 0.5 * math.erfc(math.sqrt(snr) / 2), the
    oracle's, at SNR 0, at a typical cell and deep in erfc's tail."""
    q = D3.qubits[QIDS[2]]
    omega = 0.5 * sum(D3.search_band[QIDS[2]])
    bd = cost_plane(q, [omega], [0.0, 0.2 * q.amp_ref, q.amp_ref], [300.0], model())
    snr, sep = bd.snr[0, :, 0].tolist(), bd.separation[0, :, 0].tolist()
    assert snr[0] == 0.0 and 10.0 < snr[1] < 100.0 and sep[2] < 1e-70
    for s, got in zip(snr, sep):
        assert got.hex() == (0.5 * math.erfc(math.sqrt(s) / 2.0)).hex()


def long_double_photons(q, chis, tps, total_time=TOTAL, dt=DT):
    """|beta|^2 at the last sample of the unit-amplitude field at each chi
    (rows) and pulse length (columns), from RK4's recurrence beta -> R beta
    + g, g = 0 once the pulse ends, stepped in long double."""
    ld = np.longdouble
    z = (1j * np.array(chis, dtype=ld) - ld(q.kappa) / 2) * ld(dt)
    p = 1 + z / 2 + z * z / 6 + z * z * z / 24
    r, g = (1 + z * p)[:, None], (np.sqrt(ld(q.kappa)) * ld(dt) * p)[:, None]
    n_ps = np.array([round(t_p / dt) for t_p in tps])
    beta = np.zeros((len(chis), len(tps)), dtype=np.clongdouble)
    for n in range(round(total_time / dt)):
        beta = r * beta + np.where(n < n_ps, g, 0)
    return beta.real**2 + beta.imag**2


def test_photon_term_is_rk4_to_1e12():
    """The residual-photon term, the field left at the end of the readout
    window, on every d3 qubit at four frequencies across its band and three
    pulse lengths, within 1e-12 relative of RK4 in long double.  A ringdown
    formed as the step response minus its delayed copy keeps only about 8
    digits here, as the copy cancels the step's steady state."""
    tps = [100.0, 200.0, 480.0]
    worst = 0.0
    for qid in QIDS:
        q, band = D3.qubits[qid], D3.search_band[qid]
        omegas = np.linspace(*band, 6)[1:-1].tolist()
        bd = cost_plane(q, omegas, [1.0], tps, model())
        want = long_double_photons(q, [dispersive_shift(q, w, GUARD) for w in omegas], tps)
        worst = max(worst, float(np.max(np.abs(bd.photon[:, 0] - want) / want)))
    assert worst <= 1e-12


class TestPulseGridCache:
    """_pulse_grid keeps the sample counts of a valid pulse-length grid and
    no error: which error a grid raises must not depend on whether the
    cache is warm, and each call's message has its own values."""

    QID = QIDS[0]
    AMPS = [0.1, 0.2]

    def omegas(self):
        q = D3.qubits[self.QID]
        # |chi| too large for dt first: the oracle counts no samples there
        return [q.omega_r - q.alpha + 0.095, CHECKED_OMEGA]

    def assert_like_oracle(self, tps):
        """cost_plane on both omegas, plane_statistics and cell_bound on
        each, raise the grid's error, or nothing on a valid grid."""
        q = D3.qubits[self.QID]
        assert_same(q, self.omegas(), self.AMPS, tps)
        error = grid_error(q, self.AMPS, tps, model())
        for omega in self.omegas():
            if error is None:
                omega_bound(q, omega, self.AMPS, tps, model())
            else:
                assert_raises_as(error, omega_bound, q, omega, self.AMPS, tps, model())

    @pytest.mark.parametrize("tps", [
        [300.0, 0.4],         # n_p = 0, at either omega
        [0.4, 520.0],         # that before t_r < 0, at either omega
        [300.0, 520.0],       # t_r < 0
        [300.0, math.nan],    # no sample count for a NaN
        [300.0, 400.0],       # valid: the warm calls read the cache
    ])
    def test_cold_and_warm(self, tps):
        error_models._pulse_grid.cache_clear()
        self.assert_like_oracle(tps)
        info = error_models._pulse_grid.cache_info()
        self.assert_like_oracle(tps)
        warm = error_models._pulse_grid.cache_info()
        if grid_error(D3.qubits[self.QID], self.AMPS, tps, model()) is None:
            assert warm.hits > info.hits and warm.currsize == 1
        else:  # no error is kept: every call checks the grid again
            assert warm.hits == 0 and warm.currsize == 0

    def test_equal_keys_keep_their_own_message(self):
        # 0.0 == -0.0 == 0 are equal keys, but the messages differ
        error_models._pulse_grid.cache_clear()
        for t_p in (0.0, -0.0, 0):
            self.assert_like_oracle([300.0, t_p])
        assert error_models._pulse_grid.cache_info().currsize == 0


class TestColumns:
    """The scan's scoring, score_planes and with_coupling, scores the
    cells of the amplitude rows and pulse-length columns it is given, bit
    for bit as cost_plane on those alone, either set possibly empty; an
    omega that is infeasible everywhere has no entry to score or bound."""

    QID = QIDS[3]
    AMPS = [0.0, 0.15, 0.3]
    TPS = [100.0, 160.0, 300.0, 480.0]

    def omegas(self):
        return list(np.linspace(*D3.search_band[self.QID], 2))

    @pytest.mark.parametrize("cols", [[2], [3, 0], [0, 1, 2, 3], []])
    def test_columns_equal_a_call_on_their_pulse_lengths(self, cols):
        q = D3.qubits[self.QID]
        for omega in self.omegas():
            for rows in ([1], [2, 0], [0, 1, 2], []):
                (plane,), = plane_statistics([(q, [omega], self.AMPS, self.TPS)], model())
                got = score_cells(plane, rows, cols, model())
                want = cost_plane(q, [omega], [self.AMPS[i] for i in rows],
                                  [self.TPS[j] for j in cols], model())
                for name in FIELDS:
                    np.testing.assert_array_equal(getattr(got, name).view(np.int64),
                                                  getattr(want, name)[0].view(np.int64))

    @pytest.mark.parametrize("omega", ["pole guard", "|chi| too large"])
    def test_infeasible_omega_has_no_scorer(self, omega):
        q = D3.qubits[self.QID]
        omega = {"pole guard": q.omega_r,
                 "|chi| too large": q.omega_r - q.alpha + 0.095}[omega]
        assert np.isinf(cost_plane(q, [omega], self.AMPS, self.TPS, model()).total).all()
        assert omega_bound(q, omega, self.AMPS, self.TPS, model()) is None

    def test_every_pulse_length_is_checked(self):
        q, tps = D3.qubits[self.QID], self.TPS + [520.0]  # t_r < 0 in the last column
        for omega in self.omegas():
            with pytest.raises(ValueError) as want:
                cost_plane(q, [omega], self.AMPS, tps, model())
            with pytest.raises(type(want.value)) as got:
                omega_bound(q, omega, self.AMPS, tps, model())
            assert str(got.value) == str(want.value)


def half_time(q, omega, b0, t_p, total_time=TOTAL, dt=DT):
    """half_snr_time of one point, from the scalar field solver."""
    traj = field_pair(q, ReadoutParams(omega, b0, t_p, total_time - t_p), dt,
                      guard=GUARD)
    return half_snr_time(traj, q.eta, q.kappa)


def test_padded_reduceat_sums_rows_as_sum():
    """_relaxation's prefix sums: np.add.reduceat over rows of a flat buffer,
    each prefix after a 0.0 and other values between the prefixes, gives
    each prefix the bits of its .sum() as a 1-D row and as a row of a 2-D
    slice, for random lengths and magnitudes; a numpy whose pairwise sum
    changes fails here."""
    rng = np.random.default_rng(7)
    n_rows, width = 3000, 502
    padded = np.zeros(n_rows * width + 1)
    rates = padded[:-1].reshape(n_rows, width)[:, 1:]
    rates[:] = 10.0 ** rng.uniform(-6.0, 5.0, (n_rows, 1)) * rng.random((n_rows, width - 1))
    rows = np.flatnonzero(rng.random(n_rows) < 0.8)
    n_full = rng.integers(0, width - 1, len(rows))
    starts = rows * width
    err = np.add.reduceat(padded, np.stack([starts, starts + n_full + 2], axis=1).ravel())[::2]
    assert err.tolist() == [rates[r, :m + 1].sum() for r, m in zip(rows, n_full.tolist())]
    for m in np.unique(n_full).tolist():
        at = n_full == m
        assert err[at].tolist() == rates[rows[at], :m + 1].sum(axis=1).tolist()


class TestKernelPaths:
    """Edge cases of the half-SNR index against the oracle.

    A cell's field is the step response up to its pulse's last sample n_p
    and the ringdown after it.  The cases put the half-SNR time past n_p,
    on the last pulse sample, at the end of a pulse that fills the total
    time, and on both sides of n_p within one plane.
    """

    QID = QIDS[2]

    def setup_method(self):
        self.q = D3.qubits[self.QID]
        self.omega = 0.5 * sum(D3.search_band[self.QID])
        self.b0 = 0.2 * self.q.amp_ref

    def test_half_snr_time_after_pulse_end(self):
        # a 5 ns pulse rings down for about 30 ns before half the SNR is in
        t0 = half_time(self.q, self.omega, self.b0, 5.0)
        assert t0 > 20.0
        assert_same(self.q, [self.omega], [0.0, self.b0, 2.0 * self.b0], [5.0])

    def test_t0_on_last_pulse_sample(self):
        # int(t0 / dt) == n_p with t0 off the grid: the endpoint sample after
        # t0 is the ringdown's first
        hits = [t_p for t_p in range(1, 200)
                if int(half_time(self.q, self.omega, self.b0, t_p)) == t_p]
        assert hits
        for t_p in hits:
            assert half_time(self.q, self.omega, self.b0, t_p) > t_p
        assert_same(self.q, [self.omega], [self.b0], [float(t) for t in hits])

    def test_pulse_fills_total_time(self):
        plane = assert_same(self.q, [self.omega], [0.0, self.b0, 3.0 * self.b0],
                            [TOTAL, 499.0, 250.0]).total
        assert np.isfinite(plane).all()

    def test_mixed_early_and_late_half_snr_times(self):
        tps = [3.0, 40.0, 76.0, 77.0, 150.0, 480.0]
        times = [half_time(self.q, self.omega, self.b0, t_p) for t_p in tps]
        assert times[0] > tps[0] and times[-1] < tps[-1]
        amps = [0.0, 0.05 * self.q.amp_ref, self.b0, 0.4 * self.q.amp_ref]
        assert_same(self.q, [self.omega], amps, tps)
        # heuristics off, and a plane with a Stark trace leaving the table
        assert_same(self.q, [self.omega], amps, tps, include_heuristics=False)
        assert_same(D3.qubits[QIDS[0]], [TWO_PI * 5.5], [0.3, 3.0], tps)

    def test_one_amplitude(self):
        assert_same(self.q, [self.omega], [self.b0], [100.0, 101.0, 333.0, 480.0])

    def test_total_time_off_the_step_grid_is_rejected(self):
        # at dt = 0.1, 25.05 ns is 250.5 steps: t_p + t_r would round to 250
        # or 251 steps, so the simulated t_r would not be the one reported
        with pytest.raises(ParameterError, match="total_time") as got:
            CostModel(total_time=25.05, dt=0.1)
        assert got.value.field == "total_time"
        assert model(total_time=25.0, dt=0.1).total_time == 25.0


def small_grid(q, band, n_omega=3, n_amp=3, n_tp=3):
    return SearchGrid(
        omega_points=tuple(float(w) for w in np.linspace(*band, n_omega)),
        amp_points=tuple(float(a) for a in np.linspace(0.05, 0.4, n_amp) * q.amp_ref),
        tp_points=tuple(float(t) for t in np.linspace(150.0, 450.0, n_tp)),
    )


class TestScan:
    def test_all_zero_weights_pick_first_grid_index(self):
        qid = QIDS[0]
        q = D3.qubits[qid]
        grid = small_grid(q, D3.search_band[qid])
        zero = CostWeights(0.0, 0.0, 0.0, 0.0, 0.0)
        params, bd, _ = optimize_qubit(q, grid, [], model(zero))
        assert bd.total == 0.0
        assert (params.omega_q, params.b0, params.t_p) == (
            grid.omega_points[0], grid.amp_points[0], grid.tp_points[0])

        # an infeasible first omega hands the tie to the next one
        at_pole = SearchGrid((q.omega_r,) + grid.omega_points[1:],
                             grid.amp_points, grid.tp_points)
        params, _, _ = optimize_qubit(q, at_pole, [], model(zero))
        assert (params.omega_q, params.b0, params.t_p) == (
            grid.omega_points[1], grid.amp_points[0], grid.tp_points[0])

    @pytest.mark.parametrize("include_heuristics", [True, False])
    def test_winner_breakdown_total_is_kernel_minimum(self, include_heuristics):
        qid = QIDS[4]
        q = D3.qubits[qid]
        grid = small_grid(q, D3.search_band[qid], 5, 4, 4)
        nb = D3.qubits[QIDS[5]]
        locked = [(nb, ReadoutParams(grid.omega_points[2], 0.2, 300.0, 200.0),
                   False)]
        params, bd, _ = optimize_qubit(
            q, grid, locked, model(include_heuristics=include_heuristics))
        planes = cost_plane(q, grid.omega_points, grid.amp_points, grid.tp_points,
                            model(include_heuristics=include_heuristics), locked).total
        assert bd.total == planes.min()
        i_w, i_a, i_t = np.unravel_index(np.argmin(planes), planes.shape)
        assert params == ReadoutParams(
            grid.omega_points[i_w], grid.amp_points[i_a], grid.tp_points[i_t],
            TOTAL - grid.tp_points[i_t])
        assert math.isfinite(bd.total)
        # the breakdown read from the plane is evaluate_cost's
        assert bd == evaluate_cost(
            q, params, model(include_heuristics=include_heuristics), locked)

    def test_chi_too_large_for_dt_is_infeasible(self):
        # 0.095 rad/ns above the omega_r - alpha pole: outside the guard, but
        # chi = -10.9 rad/ns needs dt <= 0.009 ns
        qid = QIDS[0]
        q = D3.qubits[qid]
        bad = q.omega_r - q.alpha + 0.095
        centre = 0.5 * sum(D3.search_band[qid])
        grid = small_grid(q, D3.search_band[qid], 1, 2, 2)
        grid = SearchGrid((bad, centre), grid.amp_points, grid.tp_points)
        plane = assert_same(q, [bad], grid.amp_points, grid.tp_points).total
        assert np.isinf(plane).all()
        assert_same(q, [bad], [0.1], [300.0, 520.0])  # an invalid pulse still raises
        params, bd, _ = optimize_qubit(q, grid, [], model())
        assert params.omega_q == centre
        assert math.isfinite(bd.total)
