"""Driven readout-resonator dynamics.

Integrates d(beta)/dt = sqrt(kappa) * B(t) + (i*Delta - kappa/2) * beta
with fixed-step RK4 for a rectangular pulse (B(t) = B0 for t < t_p, then
zero).  The cost kernel, error_models.cost_plane, and the statistics of
its bound, error_models.plane_statistics, read the unit step responses
and the powers of RK4's step factor (step_responses), the latter for
blocks of planes with one kappa per chi; sweep's trajectory.csv reads one
point's two fields (field_pair) and their photon numbers (photon_number).

The ODE is linear with a piecewise-constant drive, so the pulse response
is assembled from the unit-amplitude step response: RK4 superposition is
exact for this recurrence, and the result scales exactly linearly in B0,
so one integration serves every amplitude and pulse length.

RK4 on this ODE is an affine recurrence, beta -> R beta + g, so the step
response is computed in closed form: its samples double from the first,
u_{m+j} = u_m + R^m u_j, in about log2(n) numpy steps over all detunings
at once, with real and imaginary parts in separate float64 arrays.  The
samples equal a step-by-step RK4 loop's in exact arithmetic; in floating
point they differ from it by about 4e-17 n of the largest sample (2e-14
at n = 500 steps, 2e-13 at 5,000), as the loop's own rounding grows with
n too.  The same doubling keeps the powers R^t it multiplies by.  With
the drive off RK4 is beta -> R beta, so the field t samples after a pulse
of n_p samples is R^t u_{n_p}, and _ringdown forms it as one complex
product per sample, for the kernel, its bound and the trajectory alike:
each needs the step response only up to its longest pulse, and the
powers up to its longest ringdown.
The step response minus its copy delayed by n_p is the same field in
exact arithmetic, but after a long ringdown both terms sit near steady
state and their difference keeps only about 8 digits.  Every value is an
elementwise IEEE sum or product, so a response, its powers and its
ringdown have the same bits alone or in a batch, at a shared kappa or at
its own, and at -chi they are the conjugates of the +chi ones.
solve_field integrates its one detuning, and field_pair its +chi and
-chi, in one step_responses pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import QubitPhysical, coupling_strength, ghz_to_rad_ns

#: qubit frequencies closer than this (rad/ns) to a chi pole are rejected;
#: 8 MHz.
DEFAULT_POLE_GUARD = ghz_to_rad_ns(0.008)


class PoleProximityError(ValueError):
    """Raised when omega_q sits too close to a pole of the dispersive shift."""


class StepSizeError(ValueError):
    """Raised when the RK4 step is too coarse for the requested dynamics."""


class DetuningStepError(StepSizeError):
    """Raised when the RK4 step is fine for kappa but too coarse for |delta|."""


@dataclass(frozen=True)
class PulseShape:
    """Rectangular readout pulse: drive b0 for t_p ns, then t_r ns ringdown."""

    b0: float
    t_p: float
    t_r: float

    def __post_init__(self) -> None:
        if self.t_p <= 0:
            raise ValueError(f"t_p must be > 0, got {self.t_p}")
        if self.t_r < 0:
            raise ValueError(f"t_r must be >= 0, got {self.t_r}")
        if self.b0 < 0:
            raise ValueError(f"b0 must be >= 0, got {self.b0}")

    @property
    def total(self) -> float:
        return self.t_p + self.t_r


@dataclass
class FieldTrajectory:
    """Resonator fields for both prepared states on a shared time grid.

    beta0 is the field with the qubit in |0> (drive detuning +chi), beta1
    the field for |1> (detuning -chi).
    """

    dt: float
    beta0: np.ndarray
    beta1: np.ndarray
    chi: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.beta0)) * self.dt


def dispersive_shift(
    q: QubitPhysical, omega_q: float, guard: float = DEFAULT_POLE_GUARD
) -> float:
    """State-dependent resonator shift chi at the given qubit frequency."""
    detuning = omega_q - q.omega_r
    if abs(detuning) < guard or abs(detuning + q.alpha) < guard:
        raise PoleProximityError(
            f"omega_q = {omega_q} rad/ns within {guard} rad/ns of a chi pole"
        )
    g = coupling_strength(q, omega_q)
    return (
        g * g * q.alpha
        / (detuning * detuning * (1.0 + q.alpha / detuning))
        * (1.0 - detuning / omega_q)
    )


def _complex_times(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as its real and imaginary parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _rk4_factors(deltas, kappa, dt: float):
    """RK4's step factor R = 1 + z P(z) and P(z) at each delta, as (Re R,
    Im R, Re P, Im P) arrays; z = (i delta - kappa/2) dt, P(z) = 1 + z/2 +
    z^2/6 + z^3/24, and kappa one rate for every delta or one per delta."""
    zr = (-0.5 * np.asarray(kappa, dtype=float)) * dt
    zi = np.asarray(deltas, dtype=float) * dt
    # P by Horner's rule; a real constant adds to the real part alone
    pr, pi = zr * (1.0 / 24.0) + 1.0 / 6.0, zi * (1.0 / 24.0)
    for const in (0.5, 1.0):
        pr, pi = _complex_times(zr, zi, pr, pi)
        pr += const
    rr, ri = _complex_times(zr, zi, pr, pi)
    rr += 1.0
    return rr, ri, pr, pi


def step_responses(chis, kappa, dt: float, n_steps: int, n_powers: int):
    """RK4 samples of the field under a constant unit drive, beta(0) = 0,
    at drive detuning delta = +chi, for every chi, and the powers of RK4's
    step factor R.

    kappa is one decay rate for every chi or a sequence of one per chi.
    Returns (u, powers): u the (len(chis), n_steps + 1, 2) array of the
    responses' real and imaginary parts, one row per chi, and powers the
    (len(chis), n_powers + 1, 2) array of R^0 = 1, ..., R^n_powers in the
    same form; n_steps >= 1 and n_powers >= 0.  Every chi must pass
    _check_step at its kappa.  One RK4 step of d(beta)/dt = lam beta
    + c is beta -> R beta + g, with z = lam dt, P(z) = 1 + z/2 + z^2/6 +
    z^3/24, R = 1 + z P(z) and g = c dt P(z).  So u_1 = g and u_{m+j} =
    u_m + R^m u_j (drive m steps, then j more), and R^{m+j} = R^m R^j: the
    samples and the powers double from u_1 and R, those at m+1..m+j from
    those at 1..j for j <= m, then R^{2m} = (R^m)^2, in about log2 of
    max(n_steps, n_powers) numpy steps.  No division: as kappa and delta
    go to 0, so does z, and u_n tends to n c dt.  Each value is an elementwise IEEE
    product, sum or square root of its own row's chi and kappa, so a row
    has the same bits at every batch width, beside any other rows.

    The -chi row is the conjugate, bit for bit but for a zero's sign.  At
    -chi, z becomes z* and c stays real, and a real constant adds to a real
    part alone.  So each real part is a sum of products re * re and im * im
    whose operands are equal or both negated, and each imaginary part a
    sum of products with one operand negated.  IEEE negation is exact and
    rounding to nearest is symmetric, so the real parts are equal and the
    imaginary parts negated, except that a sum of two zeros keeps its
    signs' combination.  Such a zero enters a real part only as a zero
    product, which changes no sum with a nonzero term: the real parts agree
    bit for bit unless all the terms of one vanish at once.
    """
    rr, ri, pr, pi = _rk4_factors(chis, kappa, dt)
    rr, ri = rr[:, None], ri[:, None]

    out = np.empty((len(pr), n_steps + 1, 2))
    powers = np.empty((len(pr), n_powers + 1, 2))
    re, im = out[..., 0], out[..., 1]
    out[:, 0], powers[:, 0] = 0.0, (1.0, 0.0)
    g = np.sqrt(np.asarray(kappa, dtype=float)) * dt
    re[:, 1], im[:, 1] = g * pr, g * pi
    powers[:, 1:2, 0], powers[:, 1:2, 1] = rr, ri  # none where n_powers = 0
    n = max(n_steps, n_powers)
    t = np.empty((len(pr), n // 2))

    def times_power(x, j):
        """x[:, m+1..m+j] = R^m x[:, 1..j], in place; returns that slice."""
        x_re, x_im = x[..., 0], x[..., 1]
        new, old, tj = slice(m + 1, m + j + 1), slice(1, j + 1), t[:, :j]
        np.multiply(x_re[:, old], rr, out=x_re[:, new])
        x_re[:, new] -= np.multiply(x_im[:, old], ri, out=tj)
        np.multiply(x_im[:, old], rr, out=x_im[:, new])
        x_im[:, new] += np.multiply(x_re[:, old], ri, out=tj)
        return new

    m = 1
    while m < n:
        if m < n_steps:
            new = times_power(out, min(m, n_steps - m))
            re[:, new] += re[:, m, None]
            im[:, new] += im[:, m, None]
        if m < n_powers:
            times_power(powers, min(m, n_powers - m))
        m += m
        if m < n:
            rr, ri = _complex_times(rr, ri, rr, ri)
    return out, powers


def _check_step(delta: float, kappa: float, dt: float) -> None:
    """Require dt <= min(1/kappa, 1/|delta|)/10.

    kappa is checked first: a step too coarse for it is too coarse at every
    qubit frequency, while DetuningStepError depends on delta = +-chi alone,
    so the cost model can treat that frequency as infeasible.
    """
    if dt <= 0:
        raise StepSizeError(f"dt must be > 0, got {dt}")
    for error, name, rate in ((StepSizeError, "kappa", kappa),
                              (DetuningStepError, "|delta|", abs(delta))):
        if rate != 0.0 and dt > 0.1 * (1.0 / rate) * (1.0 + 1e-9):
            raise error(f"dt = {dt} ns too coarse; need dt <= 1/{name}/10 "
                        f"= {0.1 * (1.0 / rate):.4g} ns")


def _sample_counts(pulse: PulseShape, dt: float) -> tuple[int, int]:
    """(n_p, n_tot): pulse and total length in steps, rounded to the grid."""
    n_tot = round(pulse.total / dt)
    n_p = round(pulse.t_p / dt)
    if n_p < 1 or n_tot < n_p:
        raise StepSizeError(
            f"pulse (t_p={pulse.t_p}, t_r={pulse.t_r}) unresolvable at dt={dt}"
        )
    return n_p, n_tot


def _ringdown(u, powers, n_p: int, out) -> None:
    """The unit pulse response after a pulse of n_p samples, into out.

    u and powers are step_responses' arrays, u up to at least sample n_p
    and powers up to at least R^(k - 1), out a (rows, k, 2) array.
    out[:, t] = fl(R^t u[n_p]), the complex product of powers[:, t] and
    u[:, n_p] in split real and imaginary parts, each part two IEEE
    products and one sum or difference.  So a row has the same bits in any
    batch, and at -chi, where u and the powers are conjugated, out is too,
    but for a zero's sign.  In exact arithmetic with RK4's R, R^t u_{n_p}
    is u_{n_p+t} - u_t, the drive switched off after n_p steps; this form
    never subtracts the two.
    """
    pr, pi = powers[:, : out.shape[1], 0], powers[:, : out.shape[1], 1]
    wr, wi = u[:, n_p, 0, None], u[:, n_p, 1, None]
    np.subtract(pr * wr, pi * wi, out=out[..., 0])
    np.add(pi * wr, pr * wi, out=out[..., 1])


def _pulse_fields(pulse: PulseShape, deltas, kappa: float, dt: float) -> np.ndarray:
    """solve_field at each of deltas, as rows of one complex array, from
    one step_responses pass; each delta is checked before the pulse."""
    for delta in deltas:
        _check_step(delta, kappa, dt)
    n_p, n_tot = _sample_counts(pulse, dt)
    u, powers = step_responses(deltas, kappa, dt, n_p, n_tot - n_p)
    out = np.empty((len(u), n_tot + 1, 2))
    out[:, :n_p] = u[:, :n_p]
    _ringdown(u, powers, n_p, out[:, n_p:])
    return out.view(complex)[..., 0] * pulse.b0


def solve_field(
    pulse: PulseShape, delta: float, kappa: float, dt: float
) -> np.ndarray:
    """Field samples on [0, t_p + t_r] at spacing dt for a rectangular pulse.

    t_p and the total time are rounded to the nearest grid point, so an
    off-grid t_p is simulated as the nearest multiple of dt;
    config.snap_to_steps snaps the optimizer's and the sweep's pulse
    lengths to the grid for that reason.
    """
    return _pulse_fields(pulse, [delta], kappa, dt)[0]


def field_pair(
    q: QubitPhysical,
    params,
    dt: float,
    guard: float = DEFAULT_POLE_GUARD,
) -> FieldTrajectory:
    """Solve both state branches at drive detunings +chi and -chi.

    params carries omega_q, b0, t_p and t_r (see error_models.ReadoutParams).
    The two fields have the bits of two solve_field calls: a response has
    the same bits at every batch width.
    """
    chi = dispersive_shift(q, params.omega_q, guard)
    pulse = PulseShape(b0=params.b0, t_p=params.t_p, t_r=params.t_r)
    beta0, beta1 = _pulse_fields(pulse, [+chi, -chi], q.kappa, dt)
    return FieldTrajectory(dt=dt, beta0=beta0, beta1=beta1, chi=chi)


def photon_number(beta: np.ndarray) -> np.ndarray:
    """|beta|^2 per sample, as re*re + im*im.

    Every photon count uses this form; abs(beta)**2 can differ from it in
    the last bit.
    """
    return beta.real**2 + beta.imag**2
