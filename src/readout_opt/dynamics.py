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
a split-real numpy pass over many detunings at once.  solve_field
integrates a missing response alone in the scalar loop; cache_field_pairs
integrates the responses of many points together, in the numpy pass when
there are at least BATCH_MIN_WIDTH of them.
"""
from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
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


def _rk4_step_responses(deltas, kappa: float, dt: float, n_steps: int) -> list:
    """_rk4_step_response at every delta, in one numpy pass.

    The state is a (2, width) array of real and imaginary parts, and each
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
    beta = np.empty((n_steps + 1, 2, len(lam)))
    beta[0] = 0.0
    k1, k2, k3, k4, t, swap = (np.empty((2, len(lam))) for _ in range(6))
    mul, add = np.multiply, np.add

    def c_plus_lam_times(x, out):
        mul(lam_re, x, out=out)
        add(out, mul(lam_swap, x[::-1], out=swap), out=out)
        add(out[0], c, out=out[0])

    for n in range(n_steps):
        b = beta[n]
        c_plus_lam_times(b, k1)
        for k_in, k_out, h in ((k1, k2, half), (k2, k3, half), (k3, k4, dt)):
            add(b, mul(h, k_in, out=t), out=t)
            c_plus_lam_times(t, k_out)
        mul(2.0, add(k2, k3, out=t), out=t)
        add(add(k1, t, out=t), k4, out=t)
        add(b, mul(sixth, t, out=t), out=beta[n + 1])
    # one array per response, so that the cache frees each on its own
    return [np.ascontiguousarray(beta[:, :, j]).view(complex)[:, 0]
            for j in range(len(lam))]


#: fewest missing responses for which the numpy pass beats the scalar loop,
#: from the widths tools/bench_kernel.py times (BENCH_kernel.json)
BATCH_MIN_WIDTH = 38

#: responses the step cache holds, about 8 KB each at 500 steps
STEP_CACHE_SIZE = 256

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _StepCache:
    """The unit step responses used last, keyed by (delta, kappa, dt, n_steps).

    A call looks one response up and integrates it on a miss, like the
    functools.lru_cache it replaces, with the same cache_info() and
    cache_clear().  fill puts many responses in at once, and counts its
    deltas as that many calls would: one miss per response it integrates,
    one hit for every other delta.  Responses are read-only.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._store: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, delta: float, kappa: float, dt: float, n_steps: int):
        """RK4 samples of the field under a constant unit drive, beta(0) = 0."""
        key = (delta, kappa, dt, n_steps)
        out = self._store.get(key)
        if out is not None:
            self._hits += 1
            self._store.move_to_end(key)
            return out
        self._misses += 1
        out = _rk4_step_response(delta, kappa, dt, n_steps)
        self._put(key, out)
        return out

    def fill(self, deltas, kappa: float, dt: float, n_steps: int) -> None:
        """Cache the step response at every delta.

        The missing ones are integrated together, in the numpy pass when
        there are at least BATCH_MIN_WIDTH of them, else one by one.  Every
        delta must pass _check_step.
        """
        keys = [(d, kappa, dt, n_steps) for d in deltas]
        missing = list(dict.fromkeys(k for k in keys if k not in self._store))
        for key in keys:
            if key in self._store:
                self._store.move_to_end(key)
        self._hits += len(keys) - len(missing)
        self._misses += len(missing)
        # evict first, so that the old responses are freed before the new exist
        for _ in range(min(len(self._store),
                           len(self._store) + len(missing) - self.maxsize)):
            self._store.popitem(last=False)
        if len(missing) >= BATCH_MIN_WIDTH:
            responses = _rk4_step_responses([k[0] for k in missing], kappa, dt, n_steps)
        else:
            responses = [_rk4_step_response(*key) for key in missing]
        for key, out in zip(missing, responses):
            self._put(key, out)

    def _put(self, key, out: np.ndarray) -> None:
        out.setflags(write=False)  # shared by every caller
        self._store[key] = out
        if len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self.maxsize, len(self._store))

    def cache_clear(self) -> None:
        self._store.clear()
        self._hits = self._misses = 0


_unit_step_response = _StepCache(STEP_CACHE_SIZE)


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


def cache_field_pairs(q: QubitPhysical, points, dt: float,
                      guard: float = DEFAULT_POLE_GUARD) -> None:
    """Cache the step responses field_pair reads for each of points.

    points carry omega_q, b0, t_p and t_r, as field_pair's params.  The
    +-chi responses of all points are integrated together (see
    _StepCache.fill), and the cache keeps the last STEP_CACHE_SIZE.  A
    point field_pair would reject, near a chi pole, with a step too coarse
    or a pulse it cannot resolve, is skipped: field_pair raises for it, or
    the cost model scores it, as it would without this call.
    """
    deltas: dict[int, list[float]] = {}  # n_steps -> detunings
    for params in points:
        try:
            chi = dispersive_shift(q, params.omega_q, guard)
            _check_step(chi, q.kappa, dt)
            pulse = PulseShape(b0=params.b0, t_p=params.t_p, t_r=params.t_r)
            n_steps = _sample_counts(pulse, dt)[1]
        except ValueError:
            continue
        deltas.setdefault(n_steps, []).extend((chi, -chi))
    for n_steps, group in deltas.items():
        _unit_step_response.fill(group, q.kappa, dt, n_steps)


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
