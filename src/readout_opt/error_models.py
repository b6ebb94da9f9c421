"""Error models: the five cost terms and their weighted aggregation.

Terms: state-separation error from the matched-filter SNR, relaxation
during the informative part of the readout, residual resonator photons,
a smoothed-step penalty for measurement-induced state transitions (MIST),
and Lorentzian penalties for frequency collisions with neighboring qubits.

cost_plane is the cost kernel that sweep scores with and the tests hold
to the scalar oracle: the whole breakdown of every point of a grid of
qubit frequencies x amplitudes x pulse lengths, each field defined in its
docstring, and CostWeights.total their weighted sum.  Its scoring (_score)
takes any list of cells, each one amplitude and pulse length on one plane
(one qubit's frequency) of any qubit, and gives each cell the same bits in
any list; score_planes, which optimize scores with, runs it on cells of
the planes that plane_statistics stored, picked by their grid indices,
and with_coupling adds the coupling term and the total last, as
CostWeights.total does.  Only that term depends on the
neighbors.  So plane_statistics computes, for every plane of a walk up
front and in blocks of planes, each plane's response and its neighbor-free
bound: cell by cell, the weighted sum of lower bounds on the other four
terms.  cell_bound adds the coupling term to it, a lower bound on
cost_plane's total in every cell, so optimize can leave out the cells that
cannot win.  The scan's side of this seam is grid indices and the two
calls: the kernel's cell layout, the planes per kernel call and the
bound's margins are this module's alone.  Both kernels check each grid
of amplitudes and pulse lengths once, before any frequency (_check_grid),
so an invalid grid raises the same error in either, and per frequency
check only the pole guard and the step against |chi|, which make the
frequency infeasible (_feasible_chi).  separation_error, mist_threshold
and coupling_error are the terms that are functions of one number: the
benchmark reads the first, the kernel and the bound the other two.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .device import QubitPhysical
from .dynamics import (
    DEFAULT_POLE_GUARD,
    DetuningStepError,
    PoleProximityError,
    PulseShape,
    _check_step,
    _complex_times,
    _ringdown,
    _sample_counts,
    dispersive_shift,
    step_responses,
)


class ParameterError(ValueError):
    """A model parameter outside its domain; field names the attribute."""

    def __init__(self, obj, field: str, rule: str):
        super().__init__(
            f"{type(obj).__name__}.{field} must be {rule}, "
            f"got {getattr(obj, field)!r}")
        self.field = field


def require(obj, rule: str, *names: str) -> None:
    """Raise ParameterError for the first named field of obj that is not
    finite or breaks rule, "> 0" or ">= 0"."""
    for name in names:
        v = getattr(obj, name)
        # comparisons, not math.isfinite, which overflows on a huge int
        if not ((v > 0 if rule == "> 0" else v >= 0) and v < math.inf):
            raise ParameterError(obj, name, f"finite and {rule}")


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
        if not math.isfinite(self.b):
            raise ParameterError(self, "b", "finite")


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

    def total(self, separation, relaxation, photon, mist, coupling):
        """The weighted sum of the five terms, added left to right in this
        order: cost_plane's total, and cell_bound's from its lower bounds
        on the terms, so the bound sums in the kernel's order."""
        return (
            self.separation * separation
            + self.relaxation * relaxation
            + self.photon * photon
            + self.mist * mist
            + self.coupling * coupling
        )


@dataclass(frozen=True)
class CostModel:
    """Everything besides the qubit and the point that a cost depends on.

    weights scale the five terms; mist and collision parametrize the two
    heuristic terms, which heuristics=False (the predictive-only strategy)
    sets to zero; points within pole_guard (rad/ns) of a chi pole are
    infeasible; dt is the RK4 step and total_time the fixed t_p + t_r, both
    in ns.  total_time must be a whole number of steps, within 1e-9 of one
    as on config's pulse-length grid: so every pulse length has the same
    sample count, and a reported t_r is the one simulated.
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
        steps = self.total_time / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ParameterError(self, "total_time", f"a whole number of steps of dt = {self.dt}")


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


_FIELDS = tuple(f.name for f in fields(CostBreakdown))


def separation_error(snr_value: float) -> float:
    """Probability of misassigning the state at the given SNR."""
    if snr_value < 0:
        raise ValueError(f"SNR must be >= 0, got {snr_value}")
    return 0.5 * math.erfc(math.sqrt(snr_value) / 2.0)


def mist_threshold(omega_q: float, omega_r: float, p: MistParams) -> float:
    """Maximum tolerable photon number before state transitions set in."""
    if omega_q <= omega_r:
        raise ValueError(
            "MIST threshold is only defined for omega_q > omega_r"
        )
    x = p.a * math.exp(p.b * (omega_q - omega_r))
    return x - math.sqrt(x)


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


def _interp_runs(x, rows, runs, out=None):
    """np.interp of each x[i] in the Gamma1 table of cell rows[i], in out
    when given.

    runs holds (start, stop, xp, fp): the cells start to stop - 1 take the
    table (xp, fp).  rows is ascending.  np.interp is elementwise, so each
    value has the bits of a call on it alone.
    """
    out = np.empty(x.shape) if out is None else out
    for start, stop, xp, fp in runs:
        a, b = np.searchsorted(rows, (start, stop))
        out[a:b] = np.interp(x[a:b], xp, fp)
    return out


def _relaxation(cum, stark, half, live, dt, runs):
    """The half-SNR times t0 and relaxation terms of the live cells, one
    row each, as cost_plane defines them.

    Row i of cum is cell i's nondecreasing cumulative integral, of stark its
    Stark trace, and half[i] half its final integral, > 0 where live.  runs
    holds (start, stop, xp, fp): the cells start to stop - 1 belong to a
    qubit with the Gamma1 table (xp, fp), and the runs cover the rows in
    order.  Returns the half-SNR times and relaxation errors, 0 off live,
    and the mask of cells whose trace up to that time leaves their table.
    """
    t0, relax = np.zeros(len(live)), np.zeros(len(live))
    bad = np.zeros(len(live), dtype=bool)
    rows = np.flatnonzero(live)
    if not len(rows):
        return t0, relax, bad
    n_tot = cum.shape[1] - 1
    # as searchsorted on a nondecreasing row: the count of samples below half
    idx = np.count_nonzero(cum < half[:, None], axis=1)[rows]
    lo = cum[rows, idx - 1]
    frac = (half[rows] - lo) / (cum[rows, idx] - lo)
    t0[rows] = t = ((idx - 1) + frac) * dt
    n_full = np.minimum((t / dt).astype(np.int64), n_tot)
    t_rem = t - n_full * dt
    stark = stark[:, : min(int(n_full.max()) + 2, n_tot + 1)]
    # each row of rates after a 0.0, in one flat buffer with a spare slot
    width = stark.shape[1] + 1
    padded = np.empty(len(live) * width + 1)
    grid = padded[:-1].reshape(len(live), width)
    grid[:, 0] = padded[-1] = 0.0
    rates = _interp_runs(stark, np.arange(len(live)), runs, out=grid[:, 1:])
    # each cell's table range
    x_lo, x_hi = np.empty(len(live)), np.empty(len(live))
    for start, stop, xp, _ in runs:
        x_lo[start:stop], x_hi[start:stop] = xp[0], xp[-1]
    leaves = (stark.min(axis=1) < x_lo) | (stark.max(axis=1) > x_hi)
    out = rows[leaves[rows]]
    if len(out):
        trace, m = stark[out], n_full[np.searchsorted(rows, out)]
        at = np.arange(len(out))
        bad[out] = ((np.minimum.accumulate(trace, axis=1)[at, m] < x_lo[out])
                    | (np.maximum.accumulate(trace, axis=1)[at, m] > x_hi[out]))
    # a row's .sum() is 0.0 + pairwise(row), and reduceat's sum of a segment
    # a[start] + pairwise(a[start + 1:end]): each live row's prefix up to
    # n_full after its 0.0 is one segment, and those between are dropped
    starts = rows * width
    err = np.add.reduceat(padded, np.stack([starts, starts + n_full + 2], axis=1).ravel())[::2]
    err = dt * (err - 0.5 * (rates[rows, 0] + rates[rows, n_full]))
    part = np.flatnonzero((t_rem > 0.0) & (n_full < n_tot))
    if len(part):
        r, m = rows[part], n_full[part]
        last = stark[r, m]
        omega_end = last + (t_rem[part] / dt) * (stark[r, m + 1] - last)
        bad[r] |= (omega_end < x_lo[r]) | (omega_end > x_hi[r])
        err[part] += 0.5 * (rates[r, m] + _interp_runs(omega_end, r, runs)) * t_rem[part]
    relax[rows] = err
    return t0, relax, bad


#: pulse-length grids whose sample counts _pulse_grid keeps
PULSE_GRID_CACHE_SIZE = 64


@functools.lru_cache(maxsize=PULSE_GRID_CACHE_SIZE)
def _pulse_grid(tp_points: tuple, total_time: float, dt: float) -> tuple:
    """The sample counts of the pulse lengths tp_points, checked in order:
    each one's PulseShape at b0 = 0, then its sample count.

    The first failing check raises.  lru_cache keeps no exception, so a
    failing grid is checked again on every call, and its message has the
    caller's own values.
    """
    return tuple(_sample_counts(PulseShape(b0=0.0, t_p=t_p, t_r=total_time - t_p), dt)[0]
                 for t_p in tp_points)


def _check_grid(amps, kappa, tp_points, model: CostModel):
    """cost_plane's checks of the grid amps x tp_points, before any omega.

    In order: the first point's PulseShape, dt against kappa, each pulse
    length's shape and sample count (_pulse_grid, once per grid), and b0
    >= 0 on the other rows.  So it raises the error of the grid's first
    invalid point in row-major (amplitude, pulse length) order, as the
    point checks run at an omega whose |chi| passes.  Returns the pulse
    lengths' sample counts n_p and the count n_tot of t_p + t_r, the whole
    number of steps of total_time for every pulse length, or None where an
    axis is empty.
    """
    if len(amps) == 0 or len(tp_points) == 0:
        return None
    total_time, dt = model.total_time, model.dt
    PulseShape(b0=amps[0], t_p=tp_points[0], t_r=total_time - tp_points[0])
    _check_step(0.0, kappa, dt)
    n_ps = _pulse_grid(tuple(tp_points), total_time, dt)
    for b0 in amps[1:]:
        if b0 < 0:
            PulseShape(b0=b0, t_p=tp_points[0], t_r=total_time - tp_points[0])
    return n_ps, round(total_time / dt)


def _feasible_chi(q: QubitPhysical, omega: float, model: CostModel):
    """chi at omega, or None where omega is infeasible: within
    model.pole_guard of a chi pole, or with |chi| too large for model.dt."""
    try:
        chi = dispersive_shift(q, omega, model.pole_guard)
        _check_step(chi, q.kappa, model.dt)
    except (PoleProximityError, DetuningStepError):
        return None
    return chi


def cost_plane(
    q: QubitPhysical,
    omegas,
    amps,
    tp_points,
    model: CostModel,
    specs=(),
) -> CostBreakdown:
    """The cost breakdown of the grid omegas x amplitudes x pulse lengths.

    Each field of the result is a (len(omegas), len(amps), len(tp_points))
    array.  Entry [i, a, j] scores the point omega = omegas[i], b0 =
    amps[a], t_p = tp_points[j] and t_r = model.total_time - t_p.  There,
    with chi = dynamics.dispersive_shift(q, omega), beta0 and beta1 are the
    fields dynamics.solve_field gives for that pulse at detunings +chi and
    -chi (the qubit in |0> and |1>): n_tot + 1 RK4 samples at spacing dt =
    model.dt, n_tot the steps of total_time.  n0 and n1 are their photon
    numbers, re^2 + im^2, and C is the trapezoid integral of |beta0 -
    beta1|^2, summed sample by sample.

      snr         2 eta kappa C
      separation  separation_error(snr)
      t0          the half-SNR time (idx - 1 + frac) dt: idx counts the
                  samples whose running integral is below C/2, and frac
                  interpolates between samples idx - 1 and idx; 0 where
                  C = 0
      relaxation  the trapezoid integral of Gamma1, interpolated in q's
                  table, along the Stark trace omega + 2 chi n1 over the
                  n_full = int(t0 / dt) whole steps up to t0 (at most
                  n_tot), its samples summed as numpy sums a row, plus the
                  partial step to t0 at the linearly interpolated
                  frequency; 0 where C = 0
      photon      (n0 + n1) / 2 at the last sample
      n_max       the peak of n0 and n1
      mist        ceiling / (1 + exp(-z)) with z = (n_max - n_th) /
                  (sharpness n_th) clipped to [-500, 500] and n_th =
                  mist_threshold(omega, q.omega_r, model.mist); the
                  ceiling where omega <= omega_r or n_th <= 0
      coupling    coupling_error(omega, specs)
      total       model.weights.total of the five terms

    With model.heuristics False (the predictive-only strategy) mist and
    coupling are 0 and specs are ignored.  Infeasible points have a +inf
    total and NaN fields: every field at an omega within model.pole_guard
    of a chi pole or with |chi| too large for dt, and every field but snr
    and separation where the Stark trace up to t0 leaves the Gamma1 table.
    The amplitudes and pulse lengths are checked once, before any omega,
    point by point in row-major (amplitude, pulse length) order: the pulse
    (ValueError for t_p <= 0, t_r < 0 or b0 < 0), dt against kappa
    (StepSizeError), and the pulse's sample count (StepSizeError where t_p
    rounds to no step).  An invalid grid raises the first failing check's
    error at its first invalid point, whatever omegas it holds: the error
    a point-by-point evaluation raises at an omega whose |chi| passes.
    Then each omega is checked against the pole guard and dt against |chi|
    (infeasible, both).  Every value has the bits of these formulas evaluated
    one point at a time with the operations in the order written, erfc and
    exp from math; the tests hold each field of each cell to such a
    one-point evaluation, bit for bit.

    The +chi step responses of all feasible omegas up to the longest
    pulse, and the powers of R up to the longest ringdown, come from
    dynamics.step_responses at once (-chi gives their conjugate, bit for
    bit).  The feasible cells, omega-major, then amplitude, then pulse
    length, are then one list of cells to the kernel's scoring, _score,
    as the scan's cells from any planes of any qubits are: every cell has
    the same bits in any such list.  Its transient memory is about four
    arrays of cells x (n_tot + 1) floats.  The coupling term and the total
    come last, through with_coupling, as the scan adds them to cells it
    scored before it knew the neighbors.
    """
    shape = (len(omegas), len(amps), len(tp_points))
    planes = {name: np.full(shape, math.nan) for name in _FIELDS}
    planes["total"][:] = math.inf
    counts = _check_grid(amps, q.kappa, tp_points, model)
    chis = [] if counts is None else [_feasible_chi(q, omega, model) for omega in omegas]
    feasible = np.array([chi is not None for chi in chis], dtype=bool)
    if feasible.any():
        chis = [chi for chi in chis if chi is not None]
        omegas = [w for w, ok in zip(omegas, feasible) if ok]
        n_ps, n_tot = counts
        u, powers = step_responses(chis, q.kappa, model.dt, max(n_ps), n_tot - min(n_ps))
        per_plane = len(amps) * len(n_ps)
        plane, i_a = np.divmod(np.arange(len(chis) * per_plane), per_plane)
        i_a, i_t = np.divmod(i_a, len(n_ps))
        cells = Cells(plane, np.asarray(amps, dtype=float)[i_a], np.asarray(n_ps)[i_t])
        scored = _score([q] * len(chis), omegas, chis, u, powers, cells, model)
        coupling = 0.0
        if model.heuristics:
            coupling = np.repeat([coupling_error(w, specs) for w in omegas], per_plane)
        for name, plane in with_coupling(scored, coupling, model).items():
            planes[name][feasible] = plane.reshape(len(chis), *shape[1:])
    return CostBreakdown(**planes)


def _running_integral(values, dt, out):
    """The trapezoid integral of values at spacing dt up to each sample,
    along the last axis, into out: 0, then the sequential cumsum of the
    trapezoids (v[n] + v[n - 1]) * (dt / 2)."""
    out[..., 0] = 0.0
    trap = np.add(values[..., 1:], values[..., :-1], out=out[..., 1:])
    trap *= 0.5 * dt
    np.cumsum(trap, axis=-1, out=trap)
    return out


class Cells(NamedTuple):
    """Cells for the kernel to score: cell i is plane plane[i] at b0 =
    amp[i] with a pulse of n_p[i] samples."""

    plane: np.ndarray
    amp: np.ndarray
    n_p: np.ndarray


def _pulse_rows(u, powers, cells: Cells, n_tot, dt):
    """|beta0|^2 and the running SNR integral of each cell's field, one row each.

    u and powers hold the unit +chi step responses and the powers of R of
    the cells' planes, one row per plane, as step_responses returns them:
    u up to at least sample n_p and the powers up to at least n_tot - n_p
    for each cell's n_p.  A cell's field is u up to sample n_p, then the
    ringdown fl(R^t u[n_p]) at sample n_p + t (dynamics._ringdown; at t =
    0 that is u[n_p]), times the amplitude: one unit row per distinct
    (plane, n_p), then one product per sample.  Returns the (cells, n_tot
    + 1) arrays n0 = |beta0|^2 and cum, the sequential trapezoid cumsum of
    |beta0 - beta1|^2.

    beta1 is beta0's conjugate but for a zero's sign (step_responses), so
    cost_plane's quantities of both fields have the same bits from beta0
    alone: |beta1|^2 = |beta0|^2, their max is |beta0|^2, and |beta0 -
    beta1|^2 = (im0 + im0)^2, as the real part's 0.0 squared adds +0.0.
    """
    n_cells, n_planes = len(cells.plane), len(u)
    bufs = np.empty((4, n_cells, n_tot + 1))
    re, im, n0, cum = bufs
    if not n_cells:  # no cells, and no room for the unit rows
        return n0, cum
    # the distinct (plane, n_p) pairs, ordered by n_p, then plane
    keys = cells.n_p * n_planes + cells.plane
    direct = bool((keys[1:] > keys[:-1]).all())  # each cell its own pair, in order
    if direct:  # the unit rows go straight into re and im
        pairs, unit = keys, bufs[:2].transpose(1, 2, 0)
    else:
        # they fit in n0 and cum, which are free until after the products;
        # a separate array cost a 128-omega sweep chunk about a thousand
        # page faults per call
        pairs, row = np.unique(keys, return_inverse=True)
        unit = bufs[2:].reshape(-1)[: 2 * len(pairs) * (n_tot + 1)].reshape(
            2, len(pairs), n_tot + 1).transpose(1, 2, 0)
    pair_np, pair_plane = np.divmod(pairs, n_planes)
    edges = (np.flatnonzero(pair_np[1:] != pair_np[:-1]) + 1).tolist()
    for start, stop in zip([0] + edges, edges + [len(pairs)]):
        n_p = int(pair_np[start])
        # every plane at this n_p: slices, no copies
        at = slice(None) if stop - start == n_planes else pair_plane[start:stop]
        unit[start:stop, :n_p] = u[at, :n_p]
        _ringdown(u[at, n_p : n_p + 1], powers[at, : n_tot + 1 - n_p], 0,
                  unit[start:stop, n_p:])
    if not direct:
        np.take(unit[..., 0], row, axis=0, out=re)
        np.take(unit[..., 1], row, axis=0, out=im)
    # beta0 = b0 * unit row, one IEEE product per sample
    re *= cells.amp[:, None]
    im *= cells.amp[:, None]
    np.add(np.square(re, out=n0), np.square(im, out=cum), out=n0)
    mag2 = np.square(np.add(im, im, out=im), out=im)
    return n0, _running_integral(mag2, dt, cum)


def _elementwise(func, x: np.ndarray) -> np.ndarray:
    """func, a math function, at each element of x.

    The kernel takes erfc and exp from math, so every cell has the bits of
    a one-point evaluation: numpy has no erfc, and np.exp's SIMD loop
    differs from math.exp in the last bit for some inputs.  The bound,
    which needs no bits, takes the vectorized _erfc_lower instead.
    """
    return np.fromiter(map(func, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _score(qubits, omegas, chis, u, powers, cells: Cells, model) -> dict:
    """The kernel's scoring: the neighbor-free breakdown of a list of cells
    from any planes of any qubits.

    Plane k is qubits[k] at omegas[k], with chi chis[k]; row k of u and
    powers holds its unit +chi step response and powers of R, as
    _pulse_rows takes them.  Returns one array per field of CostBreakdown
    but coupling and total, one entry per cell as cost_plane defines it,
    and bad, the mask of cells whose Stark trace leaves the Gamma1 table,
    where every field but snr and separation is NaN.  with_coupling adds
    the other two fields, once the neighbors are known.

    After _pulse_rows, once over all rows, with the one-point operations
    in the same order: the peak photon number and the Stark trace, the SNR
    and the separation error through math.erfc, the half-SNR index as the
    count of samples below half the integral (the cumsum is nondecreasing,
    so that is searchsorted's index), the Gamma1 prefixes summed by one
    np.add.reduceat, each after a 0.0 so that it has the bits of its own
    row's .sum(), with each run of consecutive cells of one qubit
    interpolated and range-checked in its own table, the photon term, and
    the MIST logistic through math.exp.  Each value is an elementwise
    operation or a reduction along its own cell's row, so a cell has the
    same bits in any list.  The Gamma1 rates up to the latest half-SNR
    time, each row after its 0.0 in one buffer, take at most one more
    array of cells x (n_tot + 2) floats.
    """
    dt, mist, plane = model.dt, model.mist, cells.plane
    n0, cum = _pulse_rows(u, powers, cells, round(model.total_time / dt), dt)
    n_max = n0.max(axis=1)
    # the photon term, 0.5 * (|beta0|^2 + |beta1|^2) at the last sample
    photon = 0.5 * (n0[:, -1] + n0[:, -1])
    stark = np.multiply(n0, np.multiply(2.0, chis)[plane, None], out=n0)
    stark += np.asarray(omegas, dtype=float)[plane, None]

    # runs of consecutive cells on consecutive planes of one qubit
    owner = np.cumsum([q is not p for p, q in zip([None] + qubits, qubits)])[plane]
    edges = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
    runs = [(start, stop, qubits[plane[start]])
            for start, stop in zip([0] + edges, edges + [len(plane)]) if start < stop]
    snr_value = np.empty(len(plane))
    for start, stop, q in runs:
        np.multiply(2.0 * q.eta * q.kappa, cum[start:stop, -1], out=snr_value[start:stop])
    runs = [(start, stop, *q.gamma1_arrays) for start, stop, q in runs]
    sep = 0.5 * _elementwise(math.erfc, np.sqrt(snr_value) / 2.0)
    t0, relax, bad = _relaxation(cum, stark, 0.5 * cum[:, -1], snr_value > 0.0, dt, runs)
    mist_term = np.full(len(plane), mist.ceiling if model.heuristics else 0.0)
    if model.heuristics:
        # > 0 where the MIST threshold is defined; mist_threshold's domain
        n_th = np.array([0.0 if w <= q.omega_r else mist_threshold(w, q.omega_r, mist)
                         for q, w in zip(qubits, omegas)])[plane]
        has = ~(n_th <= 0.0)
        if has.any():
            z = (n_max[has] - n_th[has]) / (mist.sharpness * n_th[has])
            z = np.minimum(np.maximum(z, -500.0), 500.0)
            mist_term[has] = mist.ceiling / (1.0 + _elementwise(math.exp, -z))
    scored = dict(relaxation=relax, photon=photon, mist=mist_term, t0=t0, n_max=n_max)
    if bad.any():  # off the table, only snr and separation are defined
        for name, values in scored.items():
            scored[name] = np.where(bad, math.nan, values)
    return dict(scored, separation=sep, snr=snr_value, bad=bad)


def with_coupling(scored: dict, coupling, model: CostModel) -> dict:
    """The CostBreakdown fields of cells _score scored, given their
    coupling term, one value or one per cell: the coupling term, NaN where
    the Stark trace leaves the table, and model.weights.total of the five
    terms, +inf there, as cost_plane has them."""
    bad = scored["bad"]
    coupling = np.where(bad, math.nan, coupling)
    total = model.weights.total(scored["separation"], scored["relaxation"], scored["photon"],
                                scored["mist"], coupling)
    total[bad] = math.inf
    return {name: coupling if name == "coupling" else total if name == "total"
            else scored[name] for name in _FIELDS}


#: relative margin of each term of cell_bound, far above the kernel's rounding
BOUND_MARGIN = 1e-9
#: absolute margin of each term: far above any underflow, far below any cost
BOUND_FLOOR = 1e-300
_EPS = float(np.finfo(float).eps)


class _UnitColumns(NamedTuple):
    """The unit-amplitude statistics cell_bound scales, one entry per pulse length."""

    c_lo: np.ndarray  # the SNR integral C, from below
    c_hi: np.ndarray  # and from above
    p: np.ndarray  # |f|^2 at the last sample
    n_lo: np.ndarray  # the peak of |f|^2, from below
    n_hi: np.ndarray  # and from above
    k_lo: np.ndarray  # at most the count of samples, up to n_p + 1, whose running C is below C/2


def _unit_columns(u, powers, n_ps, n_tot, dt) -> _UnitColumns:
    """Per plane and pulse length, the statistics of the unit pulse response f.

    u and powers hold the planes' unit +chi step responses up to at least
    sample max(n_ps) and the powers of R up to at least n_tot - min(n_ps),
    n_tot the samples of t_p + t_r, as step_responses returns them; the
    kernel's cells of the plane (score_planes) read the same ones.  Each
    field of the result is a (len(u), len(n_ps)) array.  f is _pulse_rows' field at
    amplitude 1.0: u up to sample n_p, then the ringdown fl(R^t w), w =
    u[n_p], t samples on.  Each statistic is read off a few prefix arrays
    of u and of the powers, never off f's rows:

    - P is the kernel's own last sample, |fl(R^K w)|^2 at K = n_tot - n_p,
      with its bits.
    - Up to n_p, f is u, so there f's |f|^2 and running SNR integral (the
      trapezoid cumsum of (2 Im f)^2) are u's prefixes, with their bits: the
      running max of |u|^2 and the shared cumsum.  k_lo counts the samples
      of that cumsum below half of C_lo (1 - 1e-9), up to n_p + 1.
    - After the pulse, f is g_t = R^t w up to the rounding of one complex
      product (see cell_bound).  So N lies between the running max at n_p
      and that times the largest |R^t|^2 and 1 + 8 eps, and as Im(g_t)^2 =
      (Im w)^2 (Re R^t)^2 + 2 Re w Im w Re R^t Im R^t + (Re w)^2 (Im R^t)^2,
      the ringdown's part of C is read off three trapezoid prefix sums of
      the powers at K, with margins for their rounding and for f's distance
      d = 2 eps sqrt(N_hi) from g_t.

    The planes share every numpy call but the searchsorted, one per plane:
    every value is an elementwise IEEE operation on its own plane's
    samples, or a prefix sum, running max or max along them, so a plane's
    statistics have the same bits in any block.
    """
    ur, ui = u[..., 0], u[..., 1]
    n_p = np.asarray(n_ps)
    k = n_tot - n_p
    wr, wi = ur[:, n_p], ui[:, n_p]
    # the kernel's last sample, with _ringdown's bits
    fr, fi = _complex_times(powers[:, k, 0], powers[:, k, 1], wr, wi)
    peak = ur * ur
    peak += ui * ui
    np.maximum.accumulate(peak, axis=1, out=peak)
    # the kernel's running SNR integral along u, as _pulse_rows forms it
    mag2 = np.square(ui + ui)
    pre = _running_integral(mag2, dt, np.empty_like(mag2))
    # trapezoid prefix sums of (Re p)^2, Re p Im p and (Im p)^2, p = R^t
    pr, pi = powers[..., 0], powers[..., 1]
    terms = np.stack([pr * pr, pr * pi, pi * pi], axis=1)
    p_max = (terms[:, 0] + terms[:, 2]).max(axis=1)[:, None]
    sums = _running_integral(terms, dt, np.empty_like(terms))

    # the ringdown sum's coefficients of the three prefix sums at K, with its
    # rounding margin added (hi) and taken off (lo); |Re p Im p| <= |p|^2/2
    c_rr, c_ri, c_ii = 4.0 * wi * wi, 8.0 * wr * wi, 4.0 * wr * wr
    half_cross, slack = 0.5 * np.abs(c_ri), 2.0 * (n_tot + 10) * _EPS
    m_rr, m_ii = (c_rr + half_cross) * slack, (c_ii + half_cross) * slack
    s_rr, s_ri, s_ii = sums[:, 0, k], sums[:, 1, k], sums[:, 2, k]
    ring_hi = (c_rr + m_rr) * s_rr + c_ri * s_ri + (c_ii + m_ii) * s_ii
    ring_lo = (c_rr - m_rr) * s_rr + c_ri * s_ri + (c_ii - m_ii) * s_ii

    n_lo = peak[:, n_p]
    n_hi = n_lo * p_max * (1.0 + 8.0 * _EPS)
    d = 2.0 * _EPS * np.sqrt(n_hi)
    # f is d from g_t: (2 Im f)^2 moves by 4 (2 |Im g_t| d + d^2), summed by Cauchy-Schwarz
    k_dt = k * dt
    gap_k = 4.0 * d * np.sqrt(k_dt * np.maximum(ring_hi, 0.0)) + 4.0 * d * d * k_dt
    gamma = (n_tot + 10) * _EPS
    c_hi = (pre[:, n_p] + ring_hi + gap_k) * (1.0 + gamma)
    c_lo = np.maximum((pre[:, n_p] + ring_lo - gap_k) * (1.0 - gamma), 0.0)

    half = 0.5 * c_lo * (1.0 - BOUND_MARGIN)
    k_lo = np.minimum([np.searchsorted(row, h) for row, h in zip(pre, half)], n_p + 1)
    return _UnitColumns(c_lo, c_hi, fr * fr + fi * fi, n_lo, n_hi, k_lo)


_ERFCC = (-1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
          0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277)


def _erfc_lower(x: np.ndarray) -> np.ndarray:
    """A lower bound on math.erfc at each element of x >= 0: at least 0,
    and within 4e-7 relative of it where erfc is at least 1e-300.  Numerical
    Recipes' erfcc (Press et al., 2nd ed. (1992), section 6.2), t exp(-x^2 +
    poly(t)), t = 1 / (1 + x/2), _ERFCC lowest power first, is within 1.2e-7
    relative of erfc; 1 - 2e-7 takes it below, with room for math.erfc's
    last bits and x^2's rounding, under 1e-13 relative while erfc is normal.
    Evaluated in place in three new arrays."""
    t = 0.5 * x
    t += 1.0
    np.divide(1.0, t, out=t)
    poly = np.full_like(t, _ERFCC[-1])
    for c in _ERFCC[-2::-1]:  # Horner's rule
        poly *= t
        poly += c
    poly -= np.square(x, out=np.empty_like(x))
    poly = np.exp(poly, out=poly)
    poly *= t
    poly *= 1.0 - 2e-7
    return poly


def _gamma1_floor(q: QubitPhysical, omega, chi: float, ends):
    """Minimum of the interpolated Gamma1 table between omega and each end.

    omega is one frequency, or one per plane for planes of one qubit,
    broadcasting against ends.  The ends are Stark shifts omega + 2 chi x
    with x >= 0, so they all lie on the side of omega that chi's sign
    gives, and chi is one sign for all.  np.interp is linear between knots
    and flat past the ends, so the minimum is at an end or at a knot
    between them: the least of the rates at the two ends, lowered to each
    knot's rate where the knot lies between them.  Only the knots between
    the nearest omega and the farthest end are looked at, mostly none.
    """
    xp, fp = q.gamma1_arrays
    floor = np.interp(ends, xp, fp)
    np.minimum(floor, np.interp(omega, xp, fp), out=floor)
    below = chi < 0.0
    near = np.max(omega) if below else np.min(omega)
    far = ends.min() if below else ends.max()
    lo, hi = (far, near) if below else (near, far)
    for k in np.flatnonzero((xp >= lo) & (xp <= hi)):
        if below:
            between = (ends <= xp[k]) & (omega >= xp[k])
        else:
            between = (ends >= xp[k]) & (omega <= xp[k])
        np.minimum(floor, fp[k], out=floor, where=between)
    return floor


def _lower(term):
    """term times (1 - BOUND_MARGIN), less BOUND_FLOOR and at least 0, in
    place: term is an array of its caller's own."""
    term *= 1.0 - BOUND_MARGIN
    term -= BOUND_FLOOR
    return np.maximum(term, 0.0, out=term)


def _plane_bounds(qubits, omegas, chis, amps, unit: _UnitColumns, model: CostModel):
    """The neighbor-free bound of every cell of a block of planes: the
    weighted sum, in CostWeights.total's order, of cell_bound's lower
    bounds on the separation, relaxation, photon and MIST terms.

    Plane k is qubits[k] at omegas[k], with chi chis[k], amplitudes
    amps[k] and unit statistics unit[k].  Returns a (planes, amplitudes,
    pulse lengths) array.  Every value is an elementwise operation on its
    own plane's numbers, in the order cell_bound's docstring gives (an
    in-place product or sum is the same IEEE operation on the same
    operands), so a plane's bounds have the bits of a block of its own.
    _gamma1_floor runs once per run of consecutive planes of one qubit
    whose chis share a sign.  Each term is added to the sum as soon as it
    is bounded, and the next one reuses its array.
    """
    dt, mist, weights = model.dt, model.mist, model.weights
    a2 = np.square(amps)[:, :, None]
    c_lo, c_hi, p, n_lo, n_hi, k_lo = (field[:, None, :] for field in unit)

    def per_plane(values):
        return np.array(values, dtype=float)[:, None, None]

    # separation: 1/2 erfc(sqrt(2 eta kappa a^2 C_hi (1 + margin) + floor) / 2)
    term = np.multiply(a2, c_hi)
    term *= per_plane([2.0 * q.eta * q.kappa for q in qubits])
    term *= 1.0 + BOUND_MARGIN
    term += BOUND_FLOOR
    term = np.sqrt(term, out=term)
    term /= 2.0
    total = _erfc_lower(term)
    total *= 0.5
    total = _lower(total)
    total *= weights.separation
    # relaxation: whole steps at the least Gamma1 between omega and the
    # Stark shift's end
    om = per_plane(omegas)
    ends = np.multiply(a2, n_hi, out=term)
    ends *= 1.0 + BOUND_MARGIN
    ends *= per_plane([2.0 * chi for chi in chis])
    ends += om
    start = 0
    for stop in range(1, len(qubits) + 1):
        if (stop == len(qubits) or qubits[stop] is not qubits[start]
                or (chis[stop] < 0.0) != (chis[start] < 0.0)):
            ends[start:stop] = _gamma1_floor(qubits[start], om[start:stop], chis[start],
                                             ends[start:stop])
            start = stop
    term = ends
    term *= np.maximum(k_lo - 2.0, 0.0) * dt
    # the kernel's SNR integral is surely > 0, so it has a relaxation term
    if not (a2.min() * c_lo.min() > 1e-280):  # else every cell has one
        np.putmask(term, a2 * c_lo <= 1e-280, 0.0)
    term = _lower(term)
    term *= weights.relaxation
    total += term
    # photon
    term = _lower(np.multiply(a2, p, out=term))
    term *= weights.photon
    total += term
    # MIST: the logistic at a^2 N_lo, the ceiling where there is no threshold
    if not model.heuristics:
        term[:] = 0.0
    else:
        n_th = per_plane([0.0 if w <= q.omega_r else mist_threshold(w, q.omega_r, mist)
                          for q, w in zip(qubits, omegas)])
        has = ~(n_th <= 0.0)
        n_th = np.where(has, n_th, 1.0)  # no threshold: any value, overwritten
        z = _lower(np.multiply(a2, n_lo, out=term))
        z -= n_th
        z /= mist.sharpness * n_th
        z = np.minimum(np.maximum(z, -500.0, out=z), 500.0, out=z)
        z = np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        term = _lower(np.divide(mist.ceiling, z, out=z))
        term[~has[:, 0, 0]] = mist.ceiling
    term *= weights.mist
    total += term
    return total


class PlaneStatistics(NamedTuple):
    """What cell_bound and score_planes read of one omega; no neighbor changes it."""

    omega: float
    chi: float
    n_ps: tuple  # the pulse lengths' sample counts
    response: np.ndarray  # the unit +chi step response, as a width-1 batch
    powers: np.ndarray  # the powers of R it doubled, likewise
    bound: np.ndarray  # the neighbor-free bound, one per (amplitude, pulse length)


#: most planes plane_statistics puts through one step_responses pass, one
#: _unit_columns and one _plane_bounds, and score_planes through one _score
#: call.  At 500 steps a plane's entry keeps about 11 kB and 8 bytes per
#: cell, and a block's transient arrays take about 40 kB and a dozen floats
#: per cell more per plane.
_BLOCK_PLANES = 32


def plane_statistics(scans, model: CostModel) -> list[list]:
    """cell_bound's per-omega statistics and neighbor-free bounds for every
    plane of a walk.

    scans holds one (q, omegas, amps, tp_points) grid per qubit, in walk
    order.  Returns one list per grid with one entry per omega: None where
    the omega is infeasible in every cell (within model.pole_guard of a chi
    pole, or |chi| too large for model.dt) or the grid has no cell, else its
    PlaneStatistics.  Its bound is cell_bound's per-cell stage: the weighted
    sum of the separation, relaxation, photon and MIST bounds of each
    (amplitude, pulse length) cell, in CostWeights.total's order, which
    cell_bound completes with the coupling term, the only one that depends
    on the neighbors.

    First each grid gets cost_plane's grid checks, in walk order, so an
    invalid grid raises what cost_plane raises on it before any step
    response.  Then each omega gets its chi and the check of dt against
    |chi|.  The feasible planes go in blocks of at most _BLOCK_PLANES
    consecutive planes with the same sample counts and amplitude count,
    each block through one step_responses pass at every plane's chi and
    kappa, one _unit_columns and one vectorized _plane_bounds.  Each gives
    a plane's row the same bits in any block, so an entry has the bits it
    has computed alone.
    """
    counts = [_check_grid(amps, q.kappa, tp_points, model)
              for q, _, amps, tp_points in scans]
    out, block = [], []

    def flush():
        lists, index, qubits, omegas, chis, amps, keys = zip(*block)
        (n_ps, n_tot), _ = keys[0]
        response, powers = step_responses(chis, [q.kappa for q in qubits], model.dt,
                                          max(n_ps), n_tot - min(n_ps))
        bound = _plane_bounds(qubits, omegas, chis, np.array(amps, dtype=float),
                              _unit_columns(response, powers, n_ps, n_tot, model.dt), model)
        for j, (entries, i) in enumerate(zip(lists, index)):
            entries[i] = PlaneStatistics(omegas[j], chis[j], n_ps, response[j : j + 1],
                                         powers[j : j + 1], bound[j])
        block.clear()

    for (q, omegas, amps, _), grid_counts in zip(scans, counts):
        entries = [None] * len(omegas)
        out.append(entries)
        if grid_counts is None:
            continue
        key = (grid_counts, len(amps))
        for i, omega in enumerate(omegas):
            chi = _feasible_chi(q, omega, model)
            if chi is None:
                continue
            if block and (len(block) == _BLOCK_PLANES or block[0][-1] != key):
                flush()
            block.append((entries, i, q, omega, chi, amps, key))
    if block:
        flush()
    return out


def score_planes(picks, model: CostModel) -> list[dict]:
    """The kernel's neighbor-free breakdown of cells of plane_statistics
    entries.

    picks holds (q, entry, amps, flat) tuples, from any qubits: entry a
    PlaneStatistics of q, amps its grid's amplitudes and flat the row-major
    (amplitude, pulse length) indices of the cells to score on it.  Returns
    one dict of _score's fields per pick, one value per index of flat,
    which with_coupling completes once the neighbors are known.  This is
    where the scan's cells meet the kernel's layout: each pick's cells go
    to _score as its Cells, at most _BLOCK_PLANES picks per call, as
    plane_statistics' blocks, so a call's transient memory does not grow
    with the device.  The picks' stored responses and powers go as one
    array, each zero-padded to the longest, so nothing integrates; each
    cell has the bits cost_plane gives it.
    """
    out = []
    for start in range(0, len(picks), _BLOCK_PLANES):
        block = picks[start : start + _BLOCK_PLANES]
        entries = [entry for _, entry, _, _ in block]
        amp, n_p = [], []
        for _, entry, amps, flat in block:
            i_a, i_t = np.divmod(flat, len(entry.n_ps))
            amp.append(np.asarray(amps, dtype=float)[i_a])
            n_p.append(np.asarray(entry.n_ps)[i_t])
        sizes = [len(flat) for *_, flat in block]
        cells = Cells(np.repeat(np.arange(len(block)), sizes), np.concatenate(amp),
                      np.concatenate(n_p))
        scored = _score([q for q, *_ in block], [e.omega for e in entries],
                        [e.chi for e in entries], _stack([e.response for e in entries]),
                        _stack([e.powers for e in entries]), cells, model)
        ends = np.cumsum(sizes).tolist()
        out.extend({name: values[start:stop] for name, values in scored.items()}
                   for start, stop in zip([0] + ends, ends))
    return out


def _stack(rows):
    """Width-1 (1, n, 2) arrays as one array, each zero-padded to the longest."""
    out = np.zeros((len(rows), max(row.shape[1] for row in rows), 2))
    for k, row in enumerate(rows):
        out[k, : row.shape[1]] = row[0]
    return out


def cell_bound(plane: PlaneStatistics, coupling: float, model: CostModel) -> np.ndarray:
    """A lower bound on cost_plane's total in each (amplitude, pulse length)
    cell of one omega.

    plane is the omega's entry of plane_statistics on a grid and model,
    and coupling the omega's coupling term on the neighbors' specs, as
    cost_plane forms it (0 with model.heuristics False).  Returns a
    (amplitudes, pulse lengths) array b, never NaN, with b <= total in
    every cell where cost_plane(q, [omega], amps, tp_points, model,
    specs).total is finite.  A None entry has no bound to add to: its
    omega is infeasible in every cell (within the pole guard, or with |chi|
    too large for model.dt), or its grid has no cell.  An invalid grid has
    no entries: plane_statistics raises its error.  Only the coupling term
    depends on the neighbors, and CostWeights.total adds it last: b is
    (plane.bound + weights.coupling * coupling) (1 - 1e-9), plane.bound
    the weighted sum of the other four terms' bounds that plane_statistics
    computes for the whole walk.

    The kernel's field is fl(a * f), f the unit pulse response at
    amplitude a, so every quantity it reads is a^2 times f's, up to
    rounding.  _unit_columns brackets C (f's SNR integral) and N (the peak
    of |f|^2) as [C_lo, C_hi] and [N_lo, N_hi], and reads P and k_lo, once
    per pulse length, and _plane_bounds scales them, once per cell, both in
    plane_statistics; the cell at a gets

      separation  1/2 _erfc_lower(sqrt(2 eta kappa a^2 C_hi (1 + 1e-9)) / 2),
      photon      a^2 P,
      MIST        the logistic at a^2 N_lo,
      relaxation  max(k_lo - 2, 0) dt times the minimum of the
                  interpolated Gamma1 over [omega, omega + 2 chi a^2 N_hi
                  (1 + 1e-9)], where a^2 C_lo > 1e-280, else 0,
      coupling    as the kernel has it.

    Each of the first four is taken times (1 - 1e-9), less 1e-300 and at
    least 0, and so is MIST's argument.  The weighted sum, in the kernel's
    order, is taken times (1 - 1e-9).  Why that is <= the kernel's float
    total:

    - The unit statistics.  P, N_lo and C up to the pulse end are the
      kernel's own operations at amplitude 1.0, so they have the bits of
      f's row.  After the pulse the kernel's f is fl(p_t w), p_t = R^t the
      power step_responses doubled and w = u[n_p], and the brackets use
      g_t = p_t w, the exact product of the same floats.  Each part of the
      kernel's product is two products and a sum, each within eps/2
      relative, so |f - g_t| <= sqrt(2) eps (1 + eps/2) |p_t| |w|, and
      |f|^2, rounded as the kernel rounds it, is within 4 eps relative of
      |p_t|^2 |w|^2.  |w|^2 <= N_lo and |p_t|^2 <= max_t |p_t|^2 (1 at t =
      0) up to the rounding of those squares, so N <= N_lo max_t |p_t|^2
      (1 + 8 eps) = N_hi, and d = 2 eps sqrt(N_hi) bounds |f - g_t| at
      every ringdown sample.  Each ringdown sample's (2 Im f)^2 is then
      within 4 (2 |Im g_t| d + d^2) of (2 Im g_t)^2; by Cauchy-Schwarz,
      sum_t |Im g_t| <= sqrt(K dt sum_t (Im g_t)^2) over the trapezoid
      weights.  The three-term form can cancel: each prefix sum is within (K + 4) eps of
      the sum of its terms' magnitudes, and with |Re p Im p| <= |p|^2 / 2
      the terms' magnitudes are covered by a margin of 2 (n + 10) eps
      times 4 ((Im w)^2 + |Re w Im w|) and 4 ((Re w)^2 + |Re w Im w|) on
      the two squares' sums.  With those margins, and (n + 10) eps for the
      kernel's own sequential cumsum, C_lo <= C <= C_hi, and k_lo counts
      only samples up to the pulse end whose running integral lies below
      half of C_lo.
    - Rounding.  The kernel's SNR integral is a sequential cumsum of
      n_tot nonnegative trapezoids, each a few roundings from a^2 times
      f's; its photon numbers, and so their peak, are a few roundings from
      a^2 |f|^2.  So each is within (n_tot + 5) eps relative of a^2 times
      the unit quantity: under 1e-10 for n_tot < 10^5.  The 1e-9 margins
      cover that and the last-bit differences of np.exp against the
      kernel's math.exp and of np.interp; the bound's erfc, _erfc_lower,
      lies at or below math.erfc by its own factor.  The 1e-300 margins
      cover underflow, whose errors are absolute.  Each term is then <= the
      kernel's; rounding is monotone and the weights are >= 0, so each
      weighted term and each partial sum is too.
    - The half-SNR index.  The kernel's idx counts the samples whose
      running integral is below half its last value.  With the rounding
      above, every sample k_lo counts, below half of C_lo moved down by
      1e-9, is below the kernel's half too, so idx >= k_lo.  t0 = (idx - 1
      + frac) dt with frac in (0, 1], and int(t0 / dt) can lose one more to
      rounding.  So the kernel integrates Gamma1 over n_full >= idx - 2 >=
      k_lo - 2 whole steps, each trapezoid >= dt times the smallest rate
      (up to rounding of the order of eps times the largest rate, inside
      the margin unless the rates along one trace differ by more than
      about 10^5), plus a partial step >= 0.
    - Gamma1's minimum.  The Stark trace omega + 2 chi |beta0|^2 lies
      between omega and omega + 2 chi a^2 N_hi (1 + 1e-9) at every sample.
      In a finite cell it lies in the table too up to n_full, where the
      interpolated Gamma1 is piecewise linear, so its minimum over the
      interval is at an end or at a knot between them (_gamma1_floor).
    - Infeasible cells.  A cell whose Stark trace leaves the Gamma1 table
      is +inf in the kernel, and the bound is finite there.  An omega near
      a pole or with |chi| too large is +inf in the kernel and in the
      bound.  Where the SNR integral is 0 the kernel has no relaxation
      term; the bound has one only where a^2 C_lo exceeds 1e-280, far
      above anything underflow can round to 0.
    """
    return (plane.bound + model.weights.coupling * coupling) * (1.0 - BOUND_MARGIN)
