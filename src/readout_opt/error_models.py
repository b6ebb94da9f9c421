"""Error models: the five cost terms and their weighted aggregation.

Terms: state-separation error from the matched-filter SNR, relaxation
during the informative part of the readout, residual resonator photons,
a smoothed-step penalty for measurement-induced state transitions (MIST),
and Lorentzian penalties for frequency collisions with neighboring qubits.

Each term has one scalar function (here and in dynamics); evaluate_cost
scores a point by composing them.  cost_plane scores a whole amplitude x
pulse-length plane with the same IEEE operations in array form, and the
tests hold it to evaluate_cost bit for bit.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erfc

from .device import (
    FrequencyRangeError,
    QubitPhysical,
    _gamma1_arrays,
    relaxation_rate,
)
from .dynamics import (
    DEFAULT_POLE_GUARD,
    DetuningStepError,
    FieldTrajectory,
    PoleProximityError,
    PulseShape,
    _check_step,
    _sample_counts,
    _unit_pulse_response,
    _unit_step_response,
    dispersive_shift,
    field_pair,
    max_photon,
    residual_photon,
    stark_trajectory,
)


class ParameterError(ValueError):
    """A model parameter outside its domain; field names the attribute."""

    def __init__(self, obj, field: str, rule: str):
        super().__init__(
            f"{type(obj).__name__}.{field} must be {rule}, "
            f"got {getattr(obj, field)!r}")
        self.field = field


def require(obj, rule: str, *names: str) -> None:
    """Raise ParameterError for the first named field of obj that breaks
    rule, "> 0" or ">= 0"; NaN breaks both."""
    for name in names:
        v = getattr(obj, name)
        if not (v > 0 if rule == "> 0" else v >= 0):
            raise ParameterError(obj, name, rule)


@dataclass(frozen=True)
class ReadoutParams:
    """The optimizable triple plus the derived ringdown length."""

    omega_q: float
    b0: float
    t_p: float
    t_r: float

    @property
    def total(self) -> float:
        return self.t_p + self.t_r


@dataclass(frozen=True)
class MistParams:
    """Constants of the MIST photon-number threshold and its penalty.

    a is dimensionless, b has units of ns/rad; both come from external
    numerical simulations and are config inputs here.  The penalty is a
    logistic step of height ceiling and relative width sharpness.
    """

    a: float = 0.075
    b: float = 0.54
    ceiling: float = 1.0
    sharpness: float = 0.05

    def __post_init__(self) -> None:
        require(self, "> 0", "a", "sharpness")
        require(self, ">= 0", "ceiling")


class CollisionChannel(enum.Enum):
    SWAP_01_10 = "swap_01_10"
    UP_11_20 = "up_11_20"
    UP_11_02 = "up_11_02"
    HI_12_21 = "hi_12_21"


@dataclass(frozen=True)
class CollisionSpec:
    channel: CollisionChannel
    center: float
    width: float
    amplitude: float

    def __post_init__(self) -> None:
        require(self, "> 0", "width")
        require(self, ">= 0", "amplitude")


@dataclass(frozen=True)
class CollisionDefaults:
    """Config-overridable Lorentzian defaults for the coupling heuristic.

    amplitude is chosen so a direct hit on a nearest-neighbor center costs
    about resonance_penalty; next-nearest neighbors are scaled down.
    """

    width: float = 2.0 * math.pi * 0.030  # rad/ns, 30 MHz
    resonance_penalty: float = 1.0
    next_nearest_scale: float = 0.5

    def __post_init__(self) -> None:
        require(self, "> 0", "width")
        require(self, ">= 0", "resonance_penalty", "next_nearest_scale")

    def amplitude(self, next_nearest: bool) -> float:
        # epsilon at resonance is 2*pi*c/gamma, so c = penalty*gamma/(2*pi)
        c = self.resonance_penalty * self.width / (2.0 * math.pi)
        return c * self.next_nearest_scale if next_nearest else c


@dataclass(frozen=True)
class CostWeights:
    separation: float = 1.0
    relaxation: float = 1.0
    photon: float = 1.0
    mist: float = 1.0
    coupling: float = 1.0

    def __post_init__(self) -> None:
        require(self, ">= 0", *(f.name for f in fields(self)))


@dataclass(frozen=True)
class CostModel:
    """Everything besides the qubit and the point that a cost depends on.

    weights scale the five terms; mist and collision parametrize the two
    heuristic terms, which heuristics=False (the predictive-only strategy)
    sets to zero; points within pole_guard (rad/ns) of a chi pole are
    infeasible; dt is the RK4 step and total_time the fixed t_p + t_r, both
    in ns.
    """

    weights: CostWeights = CostWeights()
    mist: MistParams = MistParams()
    collision: CollisionDefaults = CollisionDefaults()
    pole_guard: float = DEFAULT_POLE_GUARD
    dt: float = 1.0
    total_time: float = 500.0
    heuristics: bool = True

    def __post_init__(self) -> None:
        require(self, ">= 0", "pole_guard")
        require(self, "> 0", "dt", "total_time")


@dataclass
class CostBreakdown:
    separation: float
    relaxation: float
    photon: float
    mist: float
    coupling: float
    snr: float
    t0: float
    n_max: float
    total: float

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.total)


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


def separation_error(snr_value: float) -> float:
    """Probability of misassigning the state at the given SNR."""
    if snr_value < 0:
        raise ValueError(f"SNR must be >= 0, got {snr_value}")
    return 0.5 * float(erfc(math.sqrt(snr_value) / 2.0))


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


def mist_threshold(omega_q: float, omega_r: float, p: MistParams) -> float:
    """Maximum tolerable photon number before state transitions set in."""
    if omega_q <= omega_r:
        raise ValueError(
            "MIST threshold is only defined for omega_q > omega_r"
        )
    x = p.a * math.exp(p.b * (omega_q - omega_r))
    return x - math.sqrt(x)


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


def collision_specs(
    q: QubitPhysical,
    neighbor_locked,
    defaults: CollisionDefaults = CollisionDefaults(),
) -> list[CollisionSpec]:
    """Four Lorentzian collision channels per locked neighbor.

    neighbor_locked entries are (QubitPhysical, ReadoutParams, next_nearest)
    triples for neighbors whose parameters the optimizer already fixed.
    """
    specs: list[CollisionSpec] = []
    for nb, nb_params, next_nearest in neighbor_locked:
        w_j = nb_params.omega_q
        width = defaults.width
        amp = defaults.amplitude(next_nearest)
        centers = (
            (CollisionChannel.SWAP_01_10, w_j),
            (CollisionChannel.UP_11_20, w_j + nb.alpha),
            (CollisionChannel.UP_11_02, w_j - q.alpha),
            (CollisionChannel.HI_12_21, w_j + nb.alpha - q.alpha),
        )
        for channel, center in centers:
            specs.append(CollisionSpec(channel, center, width, amp))
    return specs


def coupling_error(omega_q: float, specs) -> float:
    """Sum of Lorentzian penalties at the candidate qubit frequency."""
    total = 0.0
    for s in specs:
        total += (
            s.amplitude * (s.width / 2.0) * math.pi
            / ((omega_q - s.center) ** 2 + s.width**2 / 4.0)
        )
    return total


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
    specs=(),
) -> CostBreakdown:
    """All five cost terms for one parameter point under model.

    The composition of the term functions: snr, separation_error,
    half_snr_time, stark_trajectory and relaxation_error up to that time,
    residual_photon, max_photon, and the MIST and coupling heuristics.
    Deterministic and pure.  A point in a hard domain of the model comes
    back with total = +inf: within model.pole_guard of a chi pole, with
    |chi| too large for the step model.dt, or with the Stark trace leaving
    the Gamma1 table.  An invalid pulse, or a step too coarse for kappa,
    raises.  specs are the CollisionSpecs of the locked neighbors; with
    model.heuristics False (the predictive-only strategy) the MIST and
    coupling terms are zero and specs are ignored.
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
        coupling_term = coupling_error(params.omega_q, specs)

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


def cost_plane(
    q: QubitPhysical,
    omega_q: float,
    amp_points,
    tp_points,
    model: CostModel,
    specs=(),
) -> np.ndarray:
    """Cost totals over one omega's whole amplitude x pulse-length plane.

    Entry [i, j] is, bit for bit, the total evaluate_cost(q, params, model,
    specs) returns for params = ReadoutParams(omega_q, amp_points[i],
    tp_points[j], model.total_time - tp_points[j]); infeasible points are
    +inf, and an omega near a chi pole or with |chi| too large for
    model.dt gives an all-+inf plane.  Everything that depends only on
    omega (chi, the step responses, the heuristic terms) is computed once,
    and each pulse length scores all amplitudes at once in reused
    (n_amp, n_steps + 1) buffers.  The array operations repeat the
    term functions' IEEE operations in the same order: the trapezoid cumsum
    runs along each row, the half-SNR index counts the samples below half
    (equal to searchsorted on the nondecreasing cum), the Gamma1 prefixes
    are summed row-wise in groups of equal length, and the MIST logistic
    calls math.exp.  An invalid point raises the
    error evaluate_cost raises at the first such point in row-major order.
    """
    shape = (len(amp_points), len(tp_points))
    dt, total_time = model.dt, model.total_time
    weights, mist = model.weights, model.mist
    try:
        chi = dispersive_shift(q, omega_q, model.pole_guard)
    except PoleProximityError:
        return np.full(shape, math.inf)
    counts = []
    chi_too_large = False
    for j, t_p in enumerate(tp_points):
        pulse = PulseShape(b0=amp_points[0], t_p=t_p, t_r=total_time - t_p)
        if j == 0:
            try:
                _check_step(chi, q.kappa, dt)
            except DetuningStepError:
                chi_too_large = True
        # evaluate_cost stops at the step check, before counting samples
        if not chi_too_large:
            counts.append(_sample_counts(pulse, dt))
    for b0 in amp_points[1:]:
        PulseShape(b0=b0, t_p=tp_points[0], t_r=total_time - tp_points[0])
    if chi_too_large:
        return np.full(shape, math.inf)

    mist_n_th = None
    mist_term = 0.0
    coupling_term = 0.0
    if model.heuristics:
        if omega_q <= q.omega_r:
            mist_term = mist.ceiling
        else:
            mist_n_th = mist_threshold(omega_q, q.omega_r, mist)
            if mist_n_th <= 0.0:
                mist_term, mist_n_th = mist.ceiling, None
        coupling_term = coupling_error(omega_q, specs)

    amps = np.asarray(amp_points, dtype=float)[:, None]
    rows = np.arange(len(amps))
    xp, fp = _gamma1_arrays(q)
    scale = 2.0 * q.eta * q.kappa
    totals = np.empty(shape)
    bufs = None
    for j, (n_p, n_tot) in enumerate(counts):
        if bufs is None or bufs.shape[2] != n_tot + 1:
            bufs = np.empty((6, len(amps), n_tot + 1))
        re0, im0, re1, im1, cum, tmp = bufs
        u0 = _unit_pulse_response(
            _unit_step_response(chi, q.kappa, dt, n_tot), n_p, n_tot)
        u1 = _unit_pulse_response(
            _unit_step_response(-chi, q.kappa, dt, n_tot), n_p, n_tot)
        # beta = b0 * unit response, one row per amplitude
        np.multiply(amps, u0.real, out=re0)
        np.multiply(amps, u0.imag, out=im0)
        np.multiply(amps, u1.real, out=re1)
        np.multiply(amps, u1.imag, out=im1)
        # n0 = |beta0|^2, then d = beta0 - beta1 in place of beta0
        n0 = np.add(np.square(re0, out=cum), np.square(im0, out=tmp), out=cum)
        n0_max, n0_last = n0.max(axis=1), n0[:, -1].copy()
        re0 -= re1
        im0 -= im1
        # n1 = |beta1|^2 in place of beta1; |d|^2 in place of d
        n1 = np.add(np.square(re1, out=re1), np.square(im1, out=im1), out=re1)
        mag2 = np.add(np.square(re0, out=re0), np.square(im0, out=im0), out=re0)
        trap = np.add(mag2[:, 1:], mag2[:, :-1], out=tmp[:, 1:])
        trap *= 0.5 * dt
        cum[:, 0] = 0.0
        np.cumsum(trap, axis=1, out=cum[:, 1:])
        cum_last = cum[:, -1]
        snr_value = scale * cum_last
        sep = 0.5 * erfc(np.sqrt(snr_value) / 2.0)

        # relaxation, as in evaluate_cost's snr > 0 branch
        pos = snr_value > 0.0
        relax = np.zeros(len(amps))
        bad = np.zeros(len(amps), dtype=bool)
        if pos.any():
            half = 0.5 * cum_last
            idx = np.count_nonzero(cum < half[:, None], axis=1)
            lo = cum[rows, np.maximum(idx - 1, 0)]
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = (half - lo) / (cum[rows, idx] - lo)
            t0 = np.where(idx > 0, ((idx - 1) + frac) * dt, 0.0)
            n_full = np.minimum((t0 / dt).astype(np.int64), n_tot)
            t_rem = t0 - n_full * dt
            n_cols = min(int(n_full[pos].max()) + 2, n_tot + 1)
            stark = omega_q + (2.0 * chi) * n1[:, :n_cols]
            for m in np.unique(n_full[pos]).tolist():
                k = np.flatnonzero(pos & (n_full == m))
                prefix = stark[k, : m + 1]
                bad[k] = (prefix.min(axis=1) < xp[0]) | (prefix.max(axis=1) > xp[-1])
                rates = np.interp(prefix, xp, fp)
                relax[k] = dt * (rates.sum(axis=1) - 0.5 * (rates[:, 0] + rates[:, -1]))
                part = (t_rem[k] > 0.0) & (m < n_tot)
                if part.any():
                    kp = k[part]
                    last = prefix[part, -1]
                    omega_end = last + (t_rem[kp] / dt) * (stark[kp, m + 1] - last)
                    bad[kp] |= ~((xp[0] <= omega_end) & (omega_end <= xp[-1]))
                    rate_end = np.interp(omega_end, xp, fp)
                    relax[kp] += 0.5 * (rates[part, -1] + rate_end) * t_rem[kp]

        photon = 0.5 * (n0_last + n1[:, -1])
        if mist_n_th is not None:
            n_max = np.maximum(n0_max, n1.max(axis=1))
            z = (n_max - mist_n_th) / (mist.sharpness * mist_n_th)
            z = np.minimum(np.maximum(z, -500.0), 500.0)
            # math.exp as in mist_penalty: np.exp's SIMD loop differs from
            # it in the last bit for some inputs
            mist_term = mist.ceiling / (1.0 + np.array([math.exp(-v) for v in z.tolist()]))
        total = (
            weights.separation * sep
            + weights.relaxation * relax
            + weights.photon * photon
            + weights.mist * mist_term
            + weights.coupling * coupling_term
        )
        total[bad] = math.inf
        totals[:, j] = total
    return totals
