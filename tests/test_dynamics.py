import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readout_opt import (
    FieldTrajectory,
    PoleProximityError,
    PulseShape,
    ReadoutParams,
    StepSizeError,
    coupling_strength,
    dispersive_shift,
    field_pair,
    solve_field,
)
from readout_opt import dynamics
from readout_opt.dynamics import _check_step, step_responses

from conftest import TWO_PI, make_qubit
from oracle import max_photon, residual_photon, stark_trajectory


def analytic_square_pulse(times, b0, t_p, delta, kappa):
    """Closed-form field for a rectangular drive, used as an oracle."""
    lam = 1j * delta - kappa / 2.0
    drive = math.sqrt(kappa) * b0 / (kappa / 2.0 - 1j * delta)
    out = np.empty(len(times), dtype=complex)
    for k, t in enumerate(times):
        if t <= t_p:
            out[k] = drive * (1.0 - cmath.exp(lam * t))
        else:
            beta_p = drive * (1.0 - cmath.exp(lam * t_p))
            out[k] = beta_p * cmath.exp(lam * (t - t_p))
    return out


def reference_rk4(b0, t_p, n_tot, delta, kappa, dt):
    """Deliberately naive fixed-step RK4, independent of the library path."""
    lam = 1j * delta - kappa / 2.0
    c = math.sqrt(kappa)
    n_p = round(t_p / dt)
    beta = 0j
    out = [beta]
    for n in range(n_tot):
        drive = c * b0 if n < n_p else 0.0
        k1 = drive + lam * beta
        k2 = drive + lam * (beta + dt / 2 * k1)
        k3 = drive + lam * (beta + dt / 2 * k2)
        k4 = drive + lam * (beta + dt * k3)
        beta = beta + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(beta)
    return np.array(out)


class TestDispersiveShift:
    def test_zero_coupling(self):
        q = make_qubit(g_eff=0.0)
        assert dispersive_shift(q, TWO_PI * 6.0) == 0.0

    def test_matches_hand_evaluation(self):
        q = make_qubit()
        omega_q = TWO_PI * 5.9
        g = coupling_strength(q, omega_q)
        detuning = omega_q - q.omega_r
        expected = (g**2 * q.alpha
                    / (detuning**2 * (1 + q.alpha / detuning))
                    * (1 - detuning / omega_q))
        assert dispersive_shift(q, omega_q) == pytest.approx(expected, rel=1e-14)

    def test_sign_matches_alpha_far_below_resonator(self):
        # omega_q < omega_r with |detuning| >> |alpha|
        q = make_qubit()
        chi = dispersive_shift(q, TWO_PI * 2.5)
        assert math.copysign(1.0, chi) == math.copysign(1.0, q.alpha)

    def test_pole_guard(self):
        q = make_qubit()
        with pytest.raises(PoleProximityError):
            dispersive_shift(q, q.omega_r + 0.01)
        with pytest.raises(PoleProximityError):
            dispersive_shift(q, q.omega_r - q.alpha + 0.01)


class TestSolveField:
    def test_zero_drive(self):
        pulse = PulseShape(b0=0.0, t_p=100.0, t_r=100.0)
        beta = solve_field(pulse, delta=0.02, kappa=0.06, dt=0.1)
        assert np.all(beta == 0)

    def test_starts_empty(self):
        pulse = PulseShape(b0=0.3, t_p=100.0, t_r=0.0)
        beta = solve_field(pulse, delta=0.02, kappa=0.06, dt=0.1)
        assert beta[0] == 0

    def test_steady_state_on_resonance(self):
        kappa, b0 = 0.06, 0.25
        t_p = 24.0 / kappa
        pulse = PulseShape(b0=b0, t_p=round(t_p), t_r=0.0)
        beta = solve_field(pulse, delta=0.0, kappa=kappa, dt=0.1)
        assert abs(beta[-1]) == pytest.approx(2 * b0 / math.sqrt(kappa), rel=1e-4)
        assert abs(beta[-1]) ** 2 == pytest.approx(4 * b0**2 / kappa, rel=1e-4)

    def test_matches_analytic_solution(self):
        dt = 0.1
        pulse = PulseShape(b0=0.3, t_p=300.0, t_r=200.0)
        delta, kappa = 0.03, 0.07
        beta = solve_field(pulse, delta, kappa, dt)
        times = np.arange(len(beta)) * dt
        oracle = analytic_square_pulse(times, pulse.b0, pulse.t_p, delta, kappa)
        scale = np.abs(oracle).max()
        assert np.abs(beta - oracle).max() < 1e-6 * scale

    def test_matches_fine_step_reference(self):
        dt = 0.1
        pulse = PulseShape(b0=0.2, t_p=200.0, t_r=100.0)
        delta, kappa = 0.02, 0.05
        beta = solve_field(pulse, delta, kappa, dt)
        fine = reference_rk4(pulse.b0, pulse.t_p, 300000, delta, kappa, dt / 100)
        scale = np.abs(fine).max()
        assert np.abs(beta - fine[::100]).max() < 1e-8 * scale

    def test_rk4_convergence_order(self):
        pulse = PulseShape(b0=0.3, t_p=200.0, t_r=0.0)
        delta, kappa = 0.04, 0.08
        times_end = 200.0
        errors = []
        for dt in (0.4, 0.2):
            beta = solve_field(pulse, delta, kappa, dt)
            oracle = analytic_square_pulse([times_end], pulse.b0, pulse.t_p,
                                           delta, kappa)[0]
            errors.append(abs(beta[-1] - oracle))
        ratio = errors[0] / errors[1]
        assert 10 < ratio < 25

    def test_exact_linearity_in_amplitude(self):
        # amplitudes exact in binary so the scaling itself is exact
        pulse1 = PulseShape(b0=0.125, t_p=200.0, t_r=100.0)
        pulse3 = PulseShape(b0=0.375, t_p=200.0, t_r=100.0)
        b1 = solve_field(pulse1, 0.03, 0.06, 0.5)
        b3 = solve_field(pulse3, 0.03, 0.06, 0.5)
        assert np.array_equal(3.0 * b1, b3)

    def test_ringdown_energy_decay(self):
        kappa = 0.06
        pulse = PulseShape(b0=0.3, t_p=200.0, t_r=250.0)
        beta = solve_field(pulse, 0.02, kappa, 0.1)
        n = np.abs(beta) ** 2
        ring = n[2000:]  # samples after the pulse turns off
        assert np.all(np.diff(ring) < 0)
        tau = 150.0
        assert ring[1500] == pytest.approx(ring[0] * math.exp(-kappa * tau),
                                           rel=1e-6)

    def test_step_size_precondition(self):
        pulse = PulseShape(b0=0.1, t_p=100.0, t_r=0.0)
        with pytest.raises(StepSizeError):
            solve_field(pulse, delta=0.0, kappa=0.5, dt=1.0)
        with pytest.raises(StepSizeError):
            solve_field(pulse, delta=2.0, kappa=0.05, dt=1.0)
        with pytest.raises(StepSizeError):
            solve_field(pulse, delta=0.0, kappa=0.05, dt=-0.1)


class TestFieldPair:
    def params(self, **overrides):
        fields = dict(omega_q=TWO_PI * 5.9, b0=0.2, t_p=300.0, t_r=200.0)
        fields.update(overrides)
        return ReadoutParams(**fields)

    def test_zero_chi_identical_branches(self):
        q = make_qubit(g_eff=0.0)
        traj = field_pair(q, self.params(), dt=0.5)
        assert np.array_equal(traj.beta0, traj.beta1)

    def test_square_pulse_magnitude_symmetry(self):
        q = make_qubit()
        traj = field_pair(q, self.params(), dt=0.5)
        assert np.allclose(np.abs(traj.beta0), np.abs(traj.beta1), rtol=1e-12)

    def test_ringdown_decay_both_branches(self):
        q = make_qubit()
        traj = field_pair(q, self.params(), dt=0.5)
        n1 = np.abs(traj.beta1) ** 2
        i_p = 600  # t_p = 300 at dt = 0.5
        tau = 100.0
        assert n1[i_p + 200] == pytest.approx(
            n1[i_p] * math.exp(-q.kappa * tau), rel=1e-6)

    def test_zero_drive_zero_delta_beta(self):
        q = make_qubit()
        traj = field_pair(q, self.params(b0=0.0), dt=0.5)
        assert np.all(traj.beta0 - traj.beta1 == 0)

    @pytest.mark.parametrize("g_eff", [None, 0.0], ids=["chi", "zero chi"])
    def test_one_pass_equals_two_solve_field_calls(self, monkeypatch, g_eff):
        """Bit for bit, signed zeros included, from one step_responses call."""
        q = make_qubit() if g_eff is None else make_qubit(g_eff=g_eff)
        params = self.params(t_p=120.5)
        widths = []

        def spy(chis, *args):
            widths.append(len(chis))
            return step_responses(chis, *args)
        monkeypatch.setattr(dynamics, "step_responses", spy)
        traj = field_pair(q, params, dt=0.5)
        assert widths == [2]
        pulse = PulseShape(params.b0, params.t_p, params.t_r)
        for beta, delta in ((traj.beta0, traj.chi), (traj.beta1, -traj.chi)):
            want = solve_field(pulse, delta, q.kappa, 0.5)
            np.testing.assert_array_equal(beta.view(np.int64), want.view(np.int64))
        assert widths == [2, 1, 1]


class TestStarkTrajectory:
    def make_traj(self, beta1):
        beta1 = np.asarray(beta1, dtype=complex)
        return FieldTrajectory(dt=1.0, beta0=np.zeros_like(beta1),
                               beta1=beta1, chi=-0.03)

    def test_empty_resonator(self):
        traj = self.make_traj(np.zeros(10))
        omega0 = TWO_PI * 6.0
        assert np.all(stark_trajectory(omega0, traj.chi, traj) == omega0)

    def test_negative_chi_shifts_down(self):
        traj = self.make_traj(np.full(10, 1.5 + 0.5j))
        omega0 = TWO_PI * 6.0
        assert np.all(stark_trajectory(omega0, -0.03, traj) < omega0)

    def test_formula(self):
        traj = self.make_traj([0.0, 2.0])
        out = stark_trajectory(10.0, -0.05, traj)
        assert out[1] == pytest.approx(10.0 + 2 * 4.0 * -0.05)

    def test_steady_state_shift(self):
        # on-resonance steady state: n = 4 B0^2 / kappa
        kappa, b0, chi = 0.06, 0.2, -0.04
        pulse = PulseShape(b0=b0, t_p=round(25 / kappa), t_r=0.0)
        beta = solve_field(pulse, 0.0, kappa, 0.1)
        traj = FieldTrajectory(dt=0.1, beta0=beta, beta1=beta, chi=chi)
        shift = stark_trajectory(0.0, chi, traj)[-1]
        assert shift == pytest.approx(2 * (4 * b0**2 / kappa) * chi, rel=1e-3)


class TestPhotonNumbers:
    def test_zero_drive(self):
        q = make_qubit()
        params = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.0, t_p=300.0, t_r=200.0)
        traj = field_pair(q, params, dt=0.5)
        assert max_photon(traj) == 0.0
        assert residual_photon(traj) == 0.0

    def test_max_at_least_residual(self):
        q = make_qubit()
        params = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.25, t_p=300.0, t_r=200.0)
        traj = field_pair(q, params, dt=0.5)
        assert max_photon(traj) >= residual_photon(traj)

    def test_max_matches_analytic_peak(self):
        q = make_qubit()
        params = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.2, t_p=450.0, t_r=50.0)
        dt = 0.5
        traj = field_pair(q, params, dt=dt)
        times = np.arange(len(traj.beta0)) * dt
        peak = 0.0
        for delta in (traj.chi, -traj.chi):
            oracle = analytic_square_pulse(times, params.b0, params.t_p,
                                           delta, q.kappa)
            peak = max(peak, (np.abs(oracle) ** 2).max())
        assert max_photon(traj) == pytest.approx(peak, rel=1e-6)
        # never below the detuned steady-state occupation
        steady = q.kappa * params.b0**2 / (traj.chi**2 + q.kappa**2 / 4)
        assert max_photon(traj) >= steady

    def test_extra_ringdown_decays_residual(self):
        q = make_qubit()
        short = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.2, t_p=300.0, t_r=100.0)
        long = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.2, t_p=300.0, t_r=200.0)
        r_short = residual_photon(field_pair(q, short, dt=0.5))
        r_long = residual_photon(field_pair(q, long, dt=0.5))
        assert r_long == pytest.approx(r_short * math.exp(-q.kappa * 100.0),
                                       rel=1e-6)

    def test_photon_number_scales_quadratically(self):
        q = make_qubit()
        p1 = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.1, t_p=300.0, t_r=200.0)
        p2 = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.2, t_p=300.0, t_r=200.0)
        assert max_photon(field_pair(q, p2, dt=0.5)) == pytest.approx(
            4 * max_photon(field_pair(q, p1, dt=0.5)), rel=1e-12)


def literal_rk4_step(delta, kappa, dt, n_steps):
    """RK4 samples of the field under a constant unit drive, beta(0) = 0,
    one step at a time."""
    return reference_rk4(1.0, (n_steps + 1) * dt, n_steps, delta, kappa, dt)


@st.composite
def step_batches(draw):
    """(deltas, kappa, dt, n_steps, n_powers) that pass the step check,
    edges included: signed zeros, subnormal and tiny detunings, |delta| *
    dt at its limit, and powers up to R^0, to R^n_steps or past it."""
    dt = draw(st.sampled_from((0.1, 0.5, 1.0)))
    limit = 0.1 / dt
    kappa = draw(st.floats(min_value=1e-12, max_value=limit)
                 | st.sampled_from((limit, TWO_PI * 0.011)))
    edges = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, limit, -limit,
             limit * (1.0 + 1e-9), math.nextafter(-limit, 0.0))
    delta = st.floats(min_value=-limit, max_value=limit) | st.sampled_from(edges)
    width = draw(st.sampled_from((1, 2, 37, 38, 77)))
    deltas = draw(st.lists(delta, min_size=width, max_size=width))
    n_steps = draw(st.integers(min_value=1, max_value=600))
    n_powers = draw(st.sampled_from((0, n_steps)) | st.integers(0, 600))
    return deltas, kappa, dt, n_steps, n_powers


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_conjugate(mirrored, got):
    """The same real parts, and imaginary parts that differ only in the
    sign of a zero."""
    assert_same_bits(mirrored[:, 0], got[:, 0])
    np.testing.assert_array_equal(-mirrored[:, 1], got[:, 1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(step_batches())
def test_step_responses_are_rk4_at_every_width(batch):
    """Each row of the responses and of the powers has the bits of a
    width-1 call, and at -delta those of the conjugate; the responses are
    RK4's, and the powers those of the step factor R = powers[1]."""
    deltas, kappa, dt, n_steps, n_powers = batch
    for delta in deltas:
        _check_step(delta, kappa, dt)
    got, powers = step_responses(deltas, kappa, dt, n_steps, n_powers)
    assert got.shape == (len(deltas), n_steps + 1, 2)
    assert powers.shape == (len(deltas), n_powers + 1, 2)
    mirrored = step_responses([-d for d in deltas], kappa, dt, n_steps, n_powers)
    for j, delta in enumerate(deltas):
        alone = step_responses([delta], kappa, dt, n_steps, n_powers)
        for rows, row in zip((got, powers), alone):
            assert_same_bits(rows[j], row[0])
        for rows, mirror in zip((got, powers), mirrored):
            assert_conjugate(mirror[j], rows[j])
        want = literal_rk4_step(delta, kappa, dt, n_steps)
        err = np.abs(got[j, :, 0] + 1j * got[j, :, 1] - want)
        assert err.max() <= 1e-13 * np.abs(want).max()
        # R^t, one long-double product at a time
        exact = np.ones(n_powers + 1, dtype=np.clongdouble)
        exact[1:] = powers[j, 1:2].view(complex)[:, 0]
        exact = np.cumprod(exact)
        err = np.abs(powers[j, :, 0] + 1j * powers[j, :, 1] - exact)
        assert err.max() <= 1e-13



@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(step_batches(), st.data())
def test_step_responses_take_one_kappa_per_row(batch, data):
    """With one kappa per chi, each row of the responses and of the powers
    has the bits of a width-1 call at its own kappa, signed zeros included,
    and at -chi those of the conjugate."""
    deltas, kappa, dt, n_steps, n_powers = batch
    limit = 0.1 / dt
    rate = st.floats(min_value=1e-12, max_value=limit) | st.sampled_from((kappa, limit))
    kappas = data.draw(st.lists(rate, min_size=len(deltas), max_size=len(deltas)))
    got = step_responses(deltas, kappas, dt, n_steps, n_powers)
    assert got[0].shape == (len(deltas), n_steps + 1, 2)
    mirrored = step_responses([-d for d in deltas], kappas, dt, n_steps, n_powers)
    for j, (delta, rate) in enumerate(zip(deltas, kappas)):
        alone = step_responses([delta], rate, dt, n_steps, n_powers)
        for rows, row, mirror in zip(got, alone, mirrored):
            assert_same_bits(rows[j], row[0])
            assert_conjugate(mirror[j], rows[j])
