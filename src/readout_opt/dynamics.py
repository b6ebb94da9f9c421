"""Driven readout-resonator dynamics.

Integrates d(beta)/dt = sqrt(kappa) * B(t) + (i*Delta - kappa/2) * beta
with fixed-step RK4 for a rectangular pulse (B(t) = B0 for t < t_p, then
zero), and derives photon numbers and the AC-Stark frequency trace.

The ODE is linear with a piecewise-constant drive, so the pulse response
is assembled from a cached unit-amplitude step response: RK4 superposition
is exact for this recurrence, the result scales exactly linearly in B0,
and repeated evaluations at different amplitudes reuse the integration.

A step response is integrated in one of two arithmetic forms of the same
recurrence, bit for bit alike: a scalar loop in Python complex numbers, or
a split-real numpy pass over many detunings at once.  solve_field reads
one response from an lru_cache of the scalar loop; step_responses, which
the cost kernel calls with the chi of each of its qubit frequencies, runs
the numpy pass, past the cache, for at least BATCH_MIN_WIDTH responses and
reads fewer from the cache.  It integrates +chi alone: the -chi response
is the conjugate, bit for bit.  field_pair integrates both.
"""
from __future__ import annotations

import functools
import math
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


def _rk4_step_response(delta: float, kappa: float, dt: float, n_steps: int):
    """RK4 samples of the field under a constant unit drive, beta(0) = 0."""
    lam = 1j * delta - 0.5 * kappa
    c = math.sqrt(kappa)
    out = np.empty(n_steps + 1, dtype=complex)
    beta = 0j
    out[0] = beta
    half = 0.5 * dt
    sixth = dt / 6.0
    for n in range(n_steps):
        k1 = c + lam * beta
        k2 = c + lam * (beta + half * k1)
        k3 = c + lam * (beta + half * k2)
        k4 = c + lam * (beta + dt * k3)
        beta = beta + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[n + 1] = beta
    return out


def _rk4_step_responses(deltas, kappa: float, dt: float, n_steps: int) -> np.ndarray:
    """_rk4_step_response at every delta, in one numpy pass.

    Returns the (n_steps + 1, len(deltas), 2) array of the responses' real
    and imaginary parts.  The state is a (2, width) array of real and imaginary parts, and each
    complex product is the real products and sums CPython forms, one ufunc
    each: no complex128 multiply, whose loop may fuse or reorder them.
    CPython (before 3.14) promotes a float operand to complex(x, 0.0) and
    so also adds the products 0.0 * x, and the 0.0 of c + z.  This pass
    leaves them out.  They are zeros, so every value here equals the scalar
    loop's as a real number, as long as all are finite; only the sign of a
    zero can differ.  A sample is beta + v, and an IEEE sum is -0.0 only if
    both terms are, so no sample of either form is -0.0 and the two agree
    bit for bit.  Finiteness holds where _check_step passes.
    """
    lam = [1j * d - 0.5 * kappa for d in deltas]
    lam_re = np.array([z.real for z in lam])
    lam_im = np.array([z.imag for z in lam])
    # lam * x = lam_re * (re, im) + (-lam_im * im, lam_im * re)
    lam_swap = np.stack((-lam_im, lam_im))
    c = math.sqrt(kappa)
    half = 0.5 * dt
    sixth = dt / 6.0
    beta = np.empty((n_steps + 1, len(lam), 2))
    beta[0] = 0.0
    b, k1, k2, k3, k4, t, swap = (np.zeros((2, len(lam))) for _ in range(7))
    mul, add = np.multiply, np.add

    def c_plus_lam_times(x, out):
        mul(lam_re, x, out=out)
        add(out, mul(lam_swap, x[::-1], out=swap), out=out)
        add(out[0], c, out=out[0])

    for n in range(n_steps):
        c_plus_lam_times(b, k1)
        for k_in, k_out, h in ((k1, k2, half), (k2, k3, half), (k3, k4, dt)):
            add(b, mul(h, k_in, out=t), out=t)
            c_plus_lam_times(t, k_out)
        mul(2.0, add(k2, k3, out=t), out=t)
        add(add(k1, t, out=t), k4, out=t)
        add(b, mul(sixth, t, out=t), out=b)
        beta[n + 1] = b.T
    return beta


#: fewest responses for which the numpy pass beats the scalar loop, from the
#: widths tools/bench_kernel.py times (BENCH_kernel.json)
BATCH_MIN_WIDTH = 38

#: responses the step cache holds, about 8 KB each at 500 steps
STEP_CACHE_SIZE = 256


@functools.lru_cache(maxsize=STEP_CACHE_SIZE)
def _unit_step_response(delta: float, kappa: float, dt: float, n_steps: int):
    """_rk4_step_response, cached; the array is read-only, shared by every caller."""
    out = _rk4_step_response(delta, kappa, dt, n_steps)
    out.setflags(write=False)
    return out


def step_responses(chis, kappa: float, dt: float, n_steps: int) -> np.ndarray:
    """The unit step responses at +chi, for every chi.

    Returns a (len(chis), n_steps + 1, 2) array of their real and imaginary
    parts: from the numpy pass, past the cache, for at least BATCH_MIN_WIDTH
    chis, else from the cache one by one.  Every chi must pass _check_step.

    The -chi response is the conjugate, bit for bit but for a zero's sign.
    At -chi, lam becomes lam* and c stays real, so in either form each
    product and sum takes equal (real parts) or negated (imaginary parts)
    operands.  IEEE negation is exact, rounding to nearest is symmetric and
    a zero's sign changes no nonzero result, so each value is the same or
    negated up to a zero's sign.  No sample is -0.0 (a sum is -0.0 only if
    both terms are), so the samples' real parts agree bit for bit.
    """
    if len(chis) >= BATCH_MIN_WIDTH:
        # a view: (sample, chi, re/im) to (chi, sample, re/im)
        return _rk4_step_responses(chis, kappa, dt, n_steps).transpose(1, 0, 2)
    steps = [_unit_step_response(chi, kappa, dt, n_steps) for chi in chis]
    return np.stack(steps).view(float).reshape(len(chis), n_steps + 1, 2)


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


def solve_field(
    pulse: PulseShape, delta: float, kappa: float, dt: float
) -> np.ndarray:
    """Field samples on [0, t_p + t_r] at spacing dt for a rectangular pulse.

    t_p and the total time are rounded to the nearest grid point, so an
    off-grid t_p is simulated as the nearest multiple of dt;
    config.snap_to_steps snaps the optimizer's and the sweep's pulse
    lengths to the grid for that reason.
    """
    _check_step(delta, kappa, dt)
    n_p, n_tot = _sample_counts(pulse, dt)
    step = _unit_step_response(delta, kappa, dt, n_tot)
    # the step minus its copy delayed by n_p
    out = step.copy()
    if n_p < n_tot:
        out[n_p:] -= step[: n_tot + 1 - n_p]
    out *= pulse.b0
    return out


def field_pair(
    q: QubitPhysical,
    params,
    dt: float,
    guard: float = DEFAULT_POLE_GUARD,
) -> FieldTrajectory:
    """Solve both state branches at drive detunings +chi and -chi.

    params carries omega_q, b0, t_p and t_r (see error_models.ReadoutParams).
    """
    chi = dispersive_shift(q, params.omega_q, guard)
    pulse = PulseShape(b0=params.b0, t_p=params.t_p, t_r=params.t_r)
    beta0 = solve_field(pulse, +chi, q.kappa, dt)
    beta1 = solve_field(pulse, -chi, q.kappa, dt)
    return FieldTrajectory(dt=dt, beta0=beta0, beta1=beta1, chi=chi)


def photon_number(beta: np.ndarray) -> np.ndarray:
    """|beta|^2 per sample, as re*re + im*im.

    Every photon count uses this form; abs(beta)**2 can differ from it in
    the last bit.
    """
    return beta.real**2 + beta.imag**2


def stark_trajectory(
    omega_q0: float, chi: float, traj: FieldTrajectory
) -> np.ndarray:
    """Instantaneous qubit frequency under the linear AC-Stark shift."""
    return omega_q0 + (2.0 * chi) * photon_number(traj.beta1)


def max_photon(traj: FieldTrajectory) -> float:
    """Largest photon number over both branches and all samples."""
    return float(max(photon_number(traj.beta0).max(),
                     photon_number(traj.beta1).max()))


def residual_photon(traj: FieldTrajectory) -> float:
    """Mean photon number left in the resonator at the end of the ringdown."""
    z0, z1 = complex(traj.beta0[-1]), complex(traj.beta1[-1])
    # x*x, as max_photon's array squares compute it: abs(z)**2 and a numpy
    # scalar x**2 can differ from it in the last bit
    return 0.5 * ((z0.real * z0.real + z0.imag * z0.imag)
                  + (z1.real * z1.real + z1.imag * z1.imag))
