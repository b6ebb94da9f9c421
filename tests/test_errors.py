import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from readout_opt import (
    CollisionChannel,
    CollisionDefaults,
    CollisionSpec,
    CostModel,
    CostWeights,
    FieldTrajectory,
    MistParams,
    ReadoutParams,
    collision_specs,
    coupling_error,
    field_pair,
    load_device,
    mist_threshold,
    separation_error,
)

from conftest import CONFIG_DIR, TWO_PI, make_qubit
from oracle import (
    evaluate_cost,
    half_snr_time,
    mist_penalty,
    relaxation_error,
    snr,
    stark_trajectory,
)

DT = 0.5
D3 = load_device((CONFIG_DIR / "device_d3.yaml").read_text())


def default_params(**overrides):
    fields = dict(omega_q=TWO_PI * 5.9, b0=0.2, t_p=300.0, t_r=200.0)
    fields.update(overrides)
    return ReadoutParams(**fields)


class TestSnr:
    def test_zero_for_identical_branches(self):
        q = make_qubit(g_eff=0.0)
        traj = field_pair(q, default_params(), dt=DT)
        assert snr(traj, q.eta, q.kappa) == 0.0

    def test_matches_direct_quadrature(self):
        q = make_qubit()
        traj = field_pair(q, default_params(), dt=DT)
        d = np.abs(traj.beta0 - traj.beta1) ** 2
        oracle = 2 * q.eta * q.kappa * np.trapezoid(d, dx=DT)
        assert snr(traj, q.eta, q.kappa) == pytest.approx(oracle, rel=1e-12)

    def test_scales_with_eta(self):
        q = make_qubit()
        traj = field_pair(q, default_params(), dt=DT)
        assert snr(traj, 1.0, q.kappa) == pytest.approx(
            2 * snr(traj, 0.5, q.kappa), rel=1e-12)

    def test_quadratic_in_amplitude(self):
        q = make_qubit()
        s1 = snr(field_pair(q, default_params(b0=0.1), dt=DT), q.eta, q.kappa)
        s2 = snr(field_pair(q, default_params(b0=0.2), dt=DT), q.eta, q.kappa)
        assert s2 == pytest.approx(4 * s1, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), scale=st.one_of(
        st.sampled_from((0.25, 0.5, 2.0, 4.0)), st.floats(0.05, 5.0)))
    def test_b0_squared_scaling_keeps_half_snr_time(self, data, scale):
        # beta is linear in B0, so the SNR scales as B0^2 and the half-SNR
        # time does not move: every amplitude of a pulse length shares it.
        # A power-of-two scale is exact in floating point.
        qid = data.draw(st.sampled_from(D3.sorted_ids()))
        q = D3.qubits[qid]
        omega = data.draw(st.floats(*D3.search_band[qid]))
        b0 = data.draw(st.floats(0.01, 1.0)) * q.amp_ref
        t_p = float(data.draw(st.integers(1, 500)))

        def snr_and_time(amp):
            traj = field_pair(q, ReadoutParams(omega, amp, t_p, 500.0 - t_p), 1.0)
            return snr(traj, q.eta, q.kappa), half_snr_time(traj, q.eta, q.kappa)

        s1, t1 = snr_and_time(b0)
        s2, t2 = snr_and_time(scale * b0)
        if math.log2(scale).is_integer():
            assert (s2, t2) == (scale * scale * s1, t1)
        assert s2 == pytest.approx(scale * scale * s1, rel=1e-12)
        assert t2 == pytest.approx(t1, rel=1e-12, abs=1e-9)


class TestSeparationError:
    def test_zero_snr_is_coin_flip(self):
        assert separation_error(0.0) == 0.5

    def test_known_value(self):
        assert separation_error(4.0) == pytest.approx(
            0.5 * math.erfc(1.0), rel=1e-12)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 30.0, 1000)
        vals = [separation_error(s) for s in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            separation_error(-1e-9)


class TestHalfSnrTime:
    def make_traj(self, delta_beta, dt=1.0):
        d = np.asarray(delta_beta, dtype=complex)
        return FieldTrajectory(dt=dt, beta0=d, beta1=np.zeros_like(d), chi=0.0)

    def test_uniform_signal_gives_midpoint(self):
        n = 400
        traj = self.make_traj(np.ones(n + 1))
        assert half_snr_time(traj, 0.5, 0.06) == pytest.approx(n / 2)

    def test_front_loaded_signal_is_early(self):
        d = np.zeros(401)
        d[:100] = 1.0
        traj = self.make_traj(d)
        assert half_snr_time(traj, 0.5, 0.06) < 60.0

    def test_zero_signal_rejected(self):
        traj = self.make_traj(np.zeros(100))
        with pytest.raises(ValueError):
            half_snr_time(traj, 0.5, 0.06)

    def test_matches_bisection_oracle(self):
        q = make_qubit()
        traj = field_pair(q, default_params(), dt=DT)
        d = np.abs(traj.beta0 - traj.beta1) ** 2
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * DT * (d[1:] + d[:-1]))])
        half = 0.5 * cum[-1]
        # invert the piecewise-linear cumulative integral by hand
        k = int(np.searchsorted(cum, half))
        t_oracle = DT * (k - 1 + (half - cum[k - 1]) / (cum[k] - cum[k - 1]))
        assert half_snr_time(traj, q.eta, q.kappa) == pytest.approx(
            t_oracle, abs=1e-12)

    def test_independent_of_overall_scale(self):
        q = make_qubit()
        t1 = half_snr_time(field_pair(q, default_params(b0=0.1), dt=DT),
                           q.eta, q.kappa)
        t2 = half_snr_time(field_pair(q, default_params(b0=0.3), dt=DT),
                           q.eta, q.kappa)
        assert t1 == pytest.approx(t2, abs=1e-9)


class TestRelaxationError:
    def test_zero_t0(self):
        q = make_qubit()
        stark = np.full(11, TWO_PI * 5.9)
        assert relaxation_error(stark, 1.0, q, 0.0) == 0.0

    def test_flat_rate_gives_rate_times_t0(self):
        q = make_qubit()  # flat 5e-5 table
        stark = np.full(501, TWO_PI * 5.9)
        assert relaxation_error(stark, 1.0, q, 123.4) == pytest.approx(
            5e-5 * 123.4, rel=1e-12)

    def test_partial_interval(self):
        q = make_qubit(gamma1_table=(
            (TWO_PI * 5.0, 0.0), (TWO_PI * 7.0, 2e-4)))
        # frequency ramps linearly, so the rate does too
        stark = np.linspace(TWO_PI * 5.0, TWO_PI * 7.0, 101)
        dt = 1.0
        t0 = 50.5
        rate = lambda t: 2e-4 * t / 100.0
        oracle = quad(rate, 0.0, t0)[0]
        assert relaxation_error(stark, dt, q, t0) == pytest.approx(
            oracle, rel=1e-10)

    def test_out_of_table_rejected(self):
        from oracle import FrequencyRangeError
        q = make_qubit()
        stark = np.full(51, TWO_PI * 9.0)
        with pytest.raises(FrequencyRangeError):
            relaxation_error(stark, 1.0, q, 25.0)

    def test_stark_pull_raises_rate_on_upward_slope(self):
        # table rises with frequency; a negative-chi Stark shift pulls the
        # qubit down, so the integrated error drops below the static value
        q = make_qubit(gamma1_table=(
            (TWO_PI * 5.0, 1e-5), (TWO_PI * 7.0, 9e-5)))
        params = default_params(omega_q=TWO_PI * 5.9, b0=0.3)
        traj = field_pair(q, params, dt=DT)
        stark = stark_trajectory(params.omega_q, traj.chi, traj)
        assert traj.chi < 0
        t0 = 250.0
        moving = relaxation_error(stark, DT, q, t0)
        static = relaxation_error(
            np.full_like(stark, params.omega_q), DT, q, t0)
        assert moving < static


class TestMist:
    P = MistParams(a=0.075, b=0.54)

    def test_threshold_formula(self):
        w_r = TWO_PI * 4.7
        w_q = TWO_PI * 6.0
        x = self.P.a * math.exp(self.P.b * (w_q - w_r))
        assert mist_threshold(w_q, w_r, self.P) == pytest.approx(
            x - math.sqrt(x), rel=1e-12)

    def test_threshold_grows_with_detuning(self):
        w_r = TWO_PI * 4.7
        t1 = mist_threshold(TWO_PI * 5.9, w_r, self.P)
        t2 = mist_threshold(TWO_PI * 6.3, w_r, self.P)
        assert t2 > t1 > 0

    def test_threshold_requires_positive_detuning(self):
        with pytest.raises(ValueError):
            mist_threshold(TWO_PI * 4.6, TWO_PI * 4.7, self.P)

    def test_penalty_half_at_threshold(self):
        assert mist_penalty(5.0, 5.0) == pytest.approx(0.5)

    def test_penalty_saturates(self):
        assert mist_penalty(0.0, 5.0) == pytest.approx(0.0, abs=1e-8)
        assert mist_penalty(50.0, 5.0) == pytest.approx(1.0, abs=1e-8)

    def test_penalty_monotone_in_occupation(self):
        n = np.linspace(3.0, 7.0, 200)
        vals = [mist_penalty(v, 5.0) for v in n]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_penalty_extreme_arguments_finite(self):
        assert mist_penalty(1e6, 1e-3) == pytest.approx(1.0)
        assert mist_penalty(0.0, 1e6, sharpness=1e-9) < 1e-100

    def test_penalty_bad_threshold(self):
        with pytest.raises(ValueError):
            mist_penalty(1.0, 0.0)


class TestCollisions:
    def test_four_channels_per_neighbor(self):
        q = make_qubit()
        nb = make_qubit(alpha=-TWO_PI * 0.25)
        nb_params = default_params(omega_q=TWO_PI * 6.0)
        specs = collision_specs(q, [(nb, nb_params, False)])
        assert len(specs) == 4
        by_channel = {s.channel: s.center for s in specs}
        w = nb_params.omega_q
        assert by_channel[CollisionChannel.SWAP_01_10] == pytest.approx(w)
        assert by_channel[CollisionChannel.UP_11_20] == pytest.approx(
            w + nb.alpha)
        assert by_channel[CollisionChannel.UP_11_02] == pytest.approx(
            w - q.alpha)
        assert by_channel[CollisionChannel.HI_12_21] == pytest.approx(
            w + nb.alpha - q.alpha)

    def test_next_nearest_scaled_down(self):
        q = make_qubit()
        nb_params = default_params()
        near = collision_specs(q, [(q, nb_params, False)])
        far = collision_specs(q, [(q, nb_params, True)])
        for s_near, s_far in zip(near, far):
            assert s_far.amplitude == pytest.approx(0.5 * s_near.amplitude)

    def test_resonance_value(self):
        spec = CollisionSpec(CollisionChannel.SWAP_01_10,
                             center=10.0, width=0.2, amplitude=0.03)
        assert coupling_error(10.0, [spec]) == pytest.approx(
            2 * math.pi * 0.03 / 0.2, rel=1e-12)

    def test_default_amplitude_normalizes_resonance_to_penalty(self):
        d = CollisionDefaults(resonance_penalty=0.7)
        spec = CollisionSpec(CollisionChannel.SWAP_01_10, center=5.0,
                             width=d.width, amplitude=d.amplitude(False))
        assert coupling_error(5.0, [spec]) == pytest.approx(0.7, rel=1e-12)

    def test_half_width_half_maximum(self):
        spec = CollisionSpec(CollisionChannel.SWAP_01_10,
                             center=10.0, width=0.2, amplitude=0.03)
        peak = coupling_error(10.0, [spec])
        assert coupling_error(10.1, [spec]) == pytest.approx(
            peak / 2, rel=1e-12)

    def test_sum_over_specs(self):
        specs = [
            CollisionSpec(CollisionChannel.SWAP_01_10, 10.0, 0.2, 0.03),
            CollisionSpec(CollisionChannel.UP_11_20, 11.0, 0.3, 0.02),
        ]
        total = coupling_error(10.5, specs)
        parts = [coupling_error(10.5, [s]) for s in specs]
        assert total == pytest.approx(sum(parts), rel=1e-12)

    def test_empty_specs(self):
        assert coupling_error(10.0, []) == 0.0


class TestEvaluateCost:
    W = CostWeights()
    M = MistParams(a=0.075, b=0.54)
    MODEL = CostModel(W, M, dt=DT)

    def test_matches_component_functions(self):
        q = make_qubit()
        params = default_params()
        specs = collision_specs(
            q, [(make_qubit(), default_params(omega_q=TWO_PI * 6.05), False)])
        out = evaluate_cost(q, params, self.MODEL, specs)
        traj = field_pair(q, params, DT)
        s = snr(traj, q.eta, q.kappa)
        assert out.snr == pytest.approx(s, rel=1e-12)
        assert out.separation == pytest.approx(separation_error(s), rel=1e-12)
        t0 = half_snr_time(traj, q.eta, q.kappa)
        assert out.t0 == pytest.approx(t0, abs=1e-9)
        stark = stark_trajectory(params.omega_q, traj.chi, traj)
        assert out.relaxation == pytest.approx(
            relaxation_error(stark, DT, q, t0), rel=1e-10)
        n0 = np.abs(traj.beta0) ** 2
        n1 = np.abs(traj.beta1) ** 2
        assert out.photon == pytest.approx(0.5 * (n0[-1] + n1[-1]), rel=1e-12)
        assert out.n_max == pytest.approx(max(n0.max(), n1.max()), rel=1e-12)
        n_th = mist_threshold(params.omega_q, q.omega_r, self.M)
        assert out.mist == pytest.approx(mist_penalty(out.n_max, n_th), rel=1e-12)
        assert out.coupling == pytest.approx(
            coupling_error(params.omega_q, specs), rel=1e-12)
        assert out.total == pytest.approx(
            out.separation + out.relaxation + out.photon + out.mist
            + out.coupling, rel=1e-12)
        assert math.isfinite(out.total)

    def test_weights_applied(self):
        q = make_qubit()
        params = default_params()
        weights = CostWeights(separation=2.0, relaxation=0.0, photon=3.0,
                              mist=0.5, coupling=0.0)
        out = evaluate_cost(q, params, replace(self.MODEL, weights=weights))
        assert out.total == pytest.approx(
            2.0 * out.separation + 3.0 * out.photon + 0.5 * out.mist,
            rel=1e-12)

    def test_predictive_only_drops_heuristics(self):
        q = make_qubit()
        params = default_params()
        specs = collision_specs(q, [(q, params, False)])
        out = evaluate_cost(q, params, replace(self.MODEL, heuristics=False),
                            specs)
        assert out.mist == 0.0
        assert out.coupling == 0.0
        assert out.total == pytest.approx(
            out.separation + out.relaxation + out.photon, rel=1e-12)

    def test_pole_proximity_infeasible(self):
        q = make_qubit()
        params = default_params(omega_q=q.omega_r)
        out = evaluate_cost(q, params, self.MODEL)
        assert not math.isfinite(out.total)
        assert out.total == math.inf

    def test_stark_out_of_table_infeasible(self):
        q = make_qubit(gamma1_table=(
            (TWO_PI * 5.89, 5e-5), (TWO_PI * 5.91, 5e-5)))
        params = default_params(b0=0.35)
        out = evaluate_cost(q, params, self.MODEL)
        assert not math.isfinite(out.total)

    def test_mist_ceiling_below_resonator(self):
        q = make_qubit(omega_r=TWO_PI * 6.5, gamma1_table=tuple(
            (TWO_PI * f, 5e-5) for f in (5.2, 5.6, 6.0, 6.4, 6.8)))
        params = default_params(omega_q=TWO_PI * 5.9)
        out = evaluate_cost(q, params, self.MODEL)
        assert out.mist == 1.0
