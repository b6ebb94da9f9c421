"""cell_bound's building blocks against independent oracles.

_unit_columns reads each pulse length's unit-amplitude statistics off
prefix arrays of the step response; row_unit_columns below reads them off
one full row per pulse length, as the bound did before, and is the oracle.
plane_statistics computes them for blocks of planes, and each plane must
have the bits it has alone.  _erfc_lower is held at or just below
math.erfc, and _gamma1_floor to a brute-force minimum.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from readout_opt import build_search_grids, dynamics, error_models, load_device, snake
from readout_opt import load_optimizer_config
from readout_opt.error_models import (
    BOUND_MARGIN,
    Cells,
    _erfc_lower,
    _gamma1_floor,
    _pulse_rows,
    _unit_columns,
    plane_statistics,
    step_responses,
)

from conftest import CONFIG_DIR, make_qubit

D3 = load_device((CONFIG_DIR / "device_d3.yaml").read_text())
QIDS = D3.sorted_ids()


def row_unit_columns(q, chi, n_ps, n_tot, dt):
    """Per pulse length, the unit-amplitude statistics cell_bound scales.

    The unit pulse responses are _pulse_rows' fields at amplitude 1.0, on
    the step response step_responses gives cost_plane.  Returns
    each column's C = cum[-1] (trapezoid integral of (2 Im f)^2), P =
    n0[-1] (|f|^2 at the last sample), the peak of n0 = |f|^2 over the
    row, and k_lo, the count of samples whose cum is below C (1 - 1e-9) / 2.
    """
    parts = step_responses([chi], q.kappa, dt, n_tot, n_tot - min(n_ps))
    cells = Cells(np.zeros(len(n_ps), dtype=int), np.ones(len(n_ps)), np.array(n_ps))
    n0, cum = _pulse_rows(*parts, cells, n_tot, dt)
    c = cum[:, -1]
    k_lo = np.count_nonzero(cum < (0.5 * c * (1.0 - BOUND_MARGIN))[:, None], axis=1)
    return c, n0[:, -1], n0.max(axis=1), k_lo


#: pulse lengths in samples at n_tot = 500: n_p = 1, half the SNR past the
#: pulse end (n_p <= 5 everywhere, 60 on some qubits) or before it (120),
#: and t_p = total_time (K = 0)
N_PS = (1, 2, 5, 20, 60, 100, 120, 250, 480, 499, 500)


def assert_brackets(q, chi, n_ps, n_tot, dt, width):
    """_unit_columns brackets the row oracle's C and peak, with P bit for
    bit and k_lo at most one below the oracle's, counted no further than
    the pulse end; C's bracket is at most width wide relative to C.
    Returns the oracle's (c, k_lo)."""
    c, p, peak, k_lo = row_unit_columns(q, chi, n_ps, n_tot, dt)
    got = _unit_columns(*step_responses([chi], q.kappa, dt, max(n_ps), n_tot - min(n_ps)),
                        n_ps, n_tot, dt)
    got = type(got)(*(field[0] for field in got))
    np.testing.assert_array_equal(got.p.view(np.int64), p.view(np.int64))
    assert (got.c_lo <= c).all() and (c <= got.c_hi).all()
    assert (got.c_hi - got.c_lo <= width * c).all()
    assert (got.n_lo <= peak).all() and (peak <= got.n_hi).all()
    assert (got.n_hi - got.n_lo <= 1e-9 * peak).all()
    assert (got.k_lo <= k_lo).all()
    assert (got.k_lo >= np.minimum(k_lo, np.array(n_ps) + 1) - 1).all()
    return c, k_lo


@pytest.mark.parametrize("qid", QIDS, ids=str)
def test_unit_columns_bracket_the_row_oracle(qid):
    q = D3.qubits[qid]
    for omega in np.linspace(*D3.search_band[qid], 3):
        chi = dynamics.dispersive_shift(q, omega)
        _, k_lo = assert_brackets(q, chi, N_PS, 500, 1.0, 1e-9)
        # the searches on both sides of the pulse end are exercised
        assert (k_lo > np.array(N_PS)).any() and (k_lo <= np.array(N_PS)).any()


@pytest.mark.parametrize("qid", QIDS[:4], ids=str)
def test_k_lo_counts_no_further_than_the_pulse_end(qid):
    """Where half of C lies past the pulse end, k_lo counts every sample up
    to the pulse end and none after it: u's running integral past n_p is a
    longer pulse's, not the ringdown's."""
    q, n_ps = D3.qubits[qid], np.array(N_PS)
    for omega in np.linspace(*D3.search_band[qid], 3):
        chi = dynamics.dispersive_shift(q, omega)
        _, _, _, k_lo = row_unit_columns(q, chi, N_PS, 500, 1.0)
        got = _unit_columns(*step_responses([chi], q.kappa, 1.0, max(N_PS), 500 - min(N_PS)),
                            N_PS, 500, 1.0).k_lo[0]
        late = k_lo > n_ps
        assert late.any() and (got <= n_ps + 1).all()
        np.testing.assert_array_equal(got[late], n_ps[late] + 1)


def test_unit_columns_on_a_finer_step():
    q = D3.qubits[QIDS[4]]
    chi = dynamics.dispersive_shift(q, 0.5 * sum(D3.search_band[QIDS[4]]))
    assert_brackets(q, chi, (1, 3, 150, 400, 699, 700), 700, 0.5, 1e-9)


@pytest.mark.parametrize("scale", [1e-2, 1e-3])
def test_unit_columns_with_a_tiny_chi(scale):
    """|chi| far below kappa: Im u is tiny beside |u|, so the ringdown's
    three-term sum and the gap to the kernel's ringdown weigh most."""
    qid = QIDS[0]
    q = replace(D3.qubits[qid], g_eff=scale * D3.qubits[qid].g_eff)
    chi = dynamics.dispersive_shift(q, D3.search_band[qid][0])
    u = step_responses([chi], q.kappa, 1.0, 500, 0)[0][0]
    assert np.abs(u[:, 1]).max() < 1e-3 * np.hypot(u[:, 0], u[:, 1]).max()
    assert_brackets(q, chi, N_PS, 500, 1.0, 1e-3)


def test_plane_entries_have_their_bits_in_any_block(monkeypatch):
    """Each plane of d3 under optimizer_small.yaml, with a pole-guard
    omega and one whose |chi| is too large for dt among them, has the same
    chi, sample counts, response, powers and neighbor-free bound, bit for
    bit, in one block with all the other planes as alone."""
    cfg = load_optimizer_config((CONFIG_DIR / "optimizer_small.yaml").read_text())
    dt, scans = cfg.model.dt, []
    grids = build_search_grids(D3, cfg)
    for qid in QIDS:
        q, grid = D3.qubits[qid], grids[qid]
        too_large = q.omega_r - q.alpha + 0.095
        assert abs(dynamics.dispersive_shift(q, too_large)) > 0.1 / dt
        omegas = list(grid.omega_points)
        omegas[5:5], omegas[11:11] = [q.omega_r], [too_large]  # pole guard, |chi|
        scans.append((q, omegas, grid.amp_points, grid.tp_points))
    widths = []

    def spy(chis, *args):
        widths.append(len(chis))
        return step_responses(chis, *args)
    monkeypatch.setattr(error_models, "step_responses", spy)
    monkeypatch.setattr(error_models, "_BLOCK_PLANES", sum(len(s[1]) for s in scans))
    together = plane_statistics(scans, cfg.model)
    assert widths == [len(QIDS) * cfg.grid.n_omega]
    for (q, omegas, amps, tps), entries in zip(scans, together):
        assert entries[5] is None and entries[11] is None
        for omega, entry in zip(omegas, entries):
            (alone,), = plane_statistics([(q, [omega], amps, tps)], cfg.model)
            assert (entry is None) == (alone is None)
            if entry is None:
                continue
            assert (entry.omega, entry.chi, entry.n_ps) == (alone.omega, alone.chi, alone.n_ps)
            assert entry.response.shape == (1, 1 + max(entry.n_ps), 2)
            assert entry.powers.shape == (1, 501 - min(entry.n_ps), 2)
            for got, want in zip((entry.response, entry.powers, entry.bound),
                                 (alone.response, alone.powers, alone.bound)):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_plane_entries_carry_their_qubit_and_amplitudes():
    """Every entry of d3's walk under optimizer_small.yaml holds its
    qubit's QubitPhysical and its grid's amplitudes, so a pick of its
    cells is the entry and the cells' indices."""
    cfg = load_optimizer_config((CONFIG_DIR / "optimizer_small.yaml").read_text())
    grids, order = build_search_grids(D3, cfg), snake.traversal_order(D3)
    planes = plane_statistics([(D3.qubits[qid], grids[qid].omega_points,
                                grids[qid].amp_points, grids[qid].tp_points)
                               for qid in order], cfg.model)
    assert len(set(grid.amp_points for grid in grids.values())) > 1
    for qid, entries in zip(order, planes):
        live = [entry for entry in entries if entry is not None]
        assert live
        for entry in live:
            assert entry.q is D3.qubits[qid]
            assert entry.amps == grids[qid].amp_points


def test_erfc_matches_math_erfc():
    """At or below math.erfc, and within 4e-7 relative of it, wherever
    erfc is at least 1e-300; at least 0 and at most 1e-310 above it in the
    underflow tail and beyond."""
    seams = [s + d for s in (0.46875, 4.0) for d in (-1e-15, 0.0, 1e-15)]
    x = np.concatenate([np.linspace(0.0, 27.3, 100_001), seams,
                        np.linspace(26.0, 27.5, 3001), [30.0, 1e3, 1e150, math.inf]])
    got = _erfc_lower(x)
    want = np.array([math.erfc(v) for v in x])
    normal = want >= 1e-300
    assert normal.sum() > 95_000 and (~normal).sum() > 4_000
    assert (got[normal] <= want[normal]).all()
    assert (got[normal] >= (1.0 - 4e-7) * want[normal]).all()
    assert (got[~normal] >= 0.0).all() and (got[~normal] <= want[~normal] + 1e-310).all()
    assert _erfc_lower(x[:12].reshape(3, 4)).shape == (3, 4)


@pytest.mark.parametrize("below", [True, False])
def test_gamma1_floor_is_the_least_rate_between_the_ends(below):
    q = make_qubit(gamma1_table=((6.0, 3.0), (6.5, 1.0), (7.0, 2.5), (7.5, 0.5),
                                 (8.0, 4.0)))
    xp, fp = q.gamma1_arrays
    rng = np.random.default_rng(7)
    for omega in (5.9, 6.5, 6.8, 7.0, 7.7, 8.2):
        spread = rng.uniform(0.0, 1.5, 200)
        # the Stark shift's side of omega is chi's sign
        ends = omega - spread if below else omega + spread
        got = _gamma1_floor(q, omega, -1.0 if below else 1.0, ends)
        for end, floor in zip(ends, got):
            lo, hi = min(omega, end), max(omega, end)
            knots = [r for x, r in zip(xp, fp) if lo <= x <= hi]
            want = min([np.interp(lo, xp, fp), np.interp(hi, xp, fp)] + knots)
            assert floor == want
