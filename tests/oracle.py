"""The scalar cost model: the tests' independent oracle for the cost kernel.

Each cost term is one function of one readout point, and evaluate_cost
composes them.  error_models.cost_plane, the cost kernel that sweep
scores with (optimize scores through score_planes, which runs cost_plane's
cell scoring on the cells it picks), must give every field of every cell
of its grid the bits of evaluate_cost at that point, and the tests compare
the two exactly.  The
oracle builds each point's two fields with dynamics.field_pair, one full
RK4 trajectory per prepared state, and reads every term off them one
point at a time.
"""
from __future__ import annotations

import math

import numpy as np

from readout_opt.device import QubitPhysical
from readout_opt.dynamics import (
    DetuningStepError,
    FieldTrajectory,
    PoleProximityError,
    field_pair,
    photon_number,
)
from readout_opt.error_models import (
    CostBreakdown,
    CostModel,
    MistParams,
    ReadoutParams,
    coupling_error,
    mist_threshold,
    separation_error,
)


class FrequencyRangeError(ValueError):
    """Raised when a frequency falls outside the relaxation-rate table."""


def relaxation_rate(q: QubitPhysical, omega_q):
    """Linearly interpolated Gamma1 at omega_q; no extrapolation.

    Accepts a scalar or an ndarray of frequencies; raises
    FrequencyRangeError if any lies outside the table.  A NaN is not
    outside it and gives NaN.
    """
    xp, fp = q.gamma1_arrays
    omega_arr = np.asarray(omega_q, dtype=float)
    if omega_arr.size and (omega_arr.min() < xp[0] or omega_arr.max() > xp[-1]):
        raise FrequencyRangeError(
            f"frequency outside gamma1 table span [{xp[0]}, {xp[-1]}] rad/ns"
        )
    out = np.interp(omega_arr, xp, fp)
    return float(out) if np.isscalar(omega_q) else out


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


def _snr_and_half_time(
    traj: FieldTrajectory, eta: float, kappa: float
) -> tuple[float, float | None]:
    """snr and half_snr_time, read off one cumulative trapezoid integral.

    The time is None unless the SNR is > 0.
    """
    d = traj.beta0 - traj.beta1
    mag2 = d.real**2 + d.imag**2
    cum = np.empty_like(mag2)
    cum[0] = 0.0
    np.cumsum((mag2[1:] + mag2[:-1]) * (0.5 * traj.dt), out=cum[1:])
    total = 2.0 * eta * kappa * float(cum[-1])
    if not total > 0.0:
        return total, None
    # the factor 2*eta*kappa cancels in the half time
    half = 0.5 * cum[-1]
    idx = int(np.searchsorted(cum, half, side="left"))
    if idx == 0:
        return total, 0.0
    frac = (half - cum[idx - 1]) / (cum[idx] - cum[idx - 1])
    return total, (idx - 1 + frac) * traj.dt


def snr(traj: FieldTrajectory, eta: float, kappa: float) -> float:
    """Matched-filter SNR: 2*eta*kappa * integral of |beta0 - beta1|^2."""
    return _snr_and_half_time(traj, eta, kappa)[0]


def half_snr_time(traj: FieldTrajectory, eta: float, kappa: float) -> float:
    """Earliest time where the cumulative SNR reaches half its final value.

    Linear interpolation between bracketing samples; ties resolve to the
    earliest time.  Raises ValueError unless the SNR is > 0.
    """
    t0 = _snr_and_half_time(traj, eta, kappa)[1]
    if t0 is None:
        raise ValueError("total SNR is zero; half-SNR time undefined")
    return t0


def relaxation_error(
    stark: np.ndarray, dt: float, q: QubitPhysical, t0: float
) -> float:
    """Integral of Gamma1 along the Stark-shifted frequency trace up to t0.

    Trapezoidal quadrature with a linearly interpolated partial last
    interval.  Raises FrequencyRangeError if the trace up to t0 leaves the
    table.
    """
    if t0 <= 0.0:
        return 0.0
    n_full = min(int(t0 / dt), len(stark) - 1)
    prefix = stark[: n_full + 1]
    rates = relaxation_rate(q, prefix)
    err = dt * (float(rates.sum()) - 0.5 * (rates[0] + rates[-1]))
    t_rem = t0 - n_full * dt
    if t_rem > 0.0 and n_full + 1 < len(stark):
        omega_end = prefix[-1] + (t_rem / dt) * (stark[n_full + 1] - prefix[-1])
        err += 0.5 * (rates[-1] + relaxation_rate(q, omega_end)) * t_rem
    return err


def mist_penalty(
    n_max: float,
    n_th: float,
    sharpness: float = MistParams.sharpness,
    ceiling: float = MistParams.ceiling,
) -> float:
    """Logistic step in n_max centered on the threshold n_th."""
    if n_th <= 0:
        raise ValueError(f"n_th must be > 0, got {n_th}")
    z = (n_max - n_th) / (sharpness * n_th)
    # clip to avoid overflow in exp for far-from-threshold points
    z = min(max(z, -500.0), 500.0)
    return ceiling / (1.0 + math.exp(-z))


def _infeasible(**known) -> CostBreakdown:
    fields = dict(
        separation=math.nan, relaxation=math.nan, photon=math.nan,
        mist=math.nan, coupling=math.nan, snr=math.nan, t0=math.nan,
        n_max=math.nan,
    )
    fields.update(known)
    return CostBreakdown(total=math.inf, **fields)


def evaluate_cost(
    q: QubitPhysical,
    params: ReadoutParams,
    model: CostModel,
    locked=(),
) -> CostBreakdown:
    """All five cost terms for one parameter point under model.

    The composition of the term functions: snr, separation_error,
    half_snr_time, stark_trajectory and relaxation_error up to that time,
    residual_photon, max_photon, and the MIST and coupling heuristics.
    Deterministic and pure.  A point in a hard domain of the model comes
    back with total = +inf: within model.pole_guard of a chi pole, with
    |chi| too large for the step model.dt, or with the Stark trace leaving
    the Gamma1 table.  An invalid pulse, or a step too coarse for kappa,
    raises.  locked holds the (QubitPhysical, ReadoutParams, next_nearest)
    triples of the locked neighbors; with model.heuristics False (the
    predictive-only strategy) the MIST and coupling terms are zero and
    locked is ignored.
    """
    try:
        traj = field_pair(q, params, model.dt, guard=model.pole_guard)
    except (PoleProximityError, DetuningStepError):
        return _infeasible()
    # snr and half_snr_time from one integral
    snr_value, t0 = _snr_and_half_time(traj, q.eta, q.kappa)
    sep = separation_error(snr_value)
    relax = 0.0
    if t0 is None:
        t0 = 0.0
    else:
        stark = stark_trajectory(params.omega_q, traj.chi, traj)
        try:
            relax = relaxation_error(stark, model.dt, q, t0)
        except FrequencyRangeError:
            return _infeasible(snr=snr_value, separation=sep)
    photon = residual_photon(traj)
    n_max = max_photon(traj)

    mist = model.mist
    mist_term = 0.0
    coupling_term = 0.0
    if model.heuristics:
        try:
            n_th = mist_threshold(params.omega_q, q.omega_r, mist)
            mist_term = mist_penalty(n_max, n_th, mist.sharpness, mist.ceiling)
        except ValueError:  # omega_q <= omega_r or n_th <= 0: no threshold
            mist_term = mist.ceiling
        coupling_term, = coupling_error(q, [params.omega_q], locked, model)

    weights = model.weights
    total = (
        weights.separation * sep
        + weights.relaxation * relax
        + weights.photon * photon
        + weights.mist * mist_term
        + weights.coupling * coupling_term
    )
    return CostBreakdown(
        separation=sep,
        relaxation=relax,
        photon=photon,
        mist=mist_term,
        coupling=coupling_term,
        snr=snr_value,
        t0=t0,
        n_max=n_max,
        total=total,
    )
