"""Monte Carlo benchmark of simultaneous readout with optimized parameters.

The shot model collapses the IQ plane to the 1-D matched-filter decision
variable: a Gaussian with mean +/- sqrt(SNR)/2 and variance 1/2, threshold
at zero, which misassigns with the separation error 0.5*erfc(sqrt(SNR)/2).
Preparation errors flip the prepared bit, relaxation flips a |1> to |0>
before thresholding, and the heuristic coupling penalty replaces the
outcome by a fair coin (a crude crosstalk proxy, flagged as such in
reports).  Within one prepared state a qubit's shots are i.i.d. Bernoulli
draws with the closed-form probability of ``one_probability``, and the
reports use only their counts, so each count is drawn as one exact
binomial sample instead of shot by shot.

Every tally the reports read is a sum of those counts, at most
n_states * n_shots.  BenchmarkConfig caps that product at 2**53, so the
tallies are exact in float64 whatever order BLAS sums them in.  They are
counted once, as two float64 Gram products, into one table of miss rates
conditioned on the prepared bits of a pair of qubits (``_miss_table``):
the per-qubit error rates are its diagonal, and the cross-fidelity matrix
is read from the rest.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .device import DeviceGraph, QubitId, Role
from .error_models import CostBreakdown, separation_error
from .snake import OptimizationResult


class Subset(enum.Enum):
    ALL_QUBITS = "all"
    MEASURE_ONLY = "measure"


def _check_exact_tallies(n_states: int, n_shots: int) -> None:
    """Raise ValueError unless every tally, at most n_states * n_shots, is
    exact in float64, which holds every integer up to 2**53."""
    if n_states * n_shots > 2**53:
        raise ValueError(
            f"n_states * n_shots must be <= 2**53 for exact tallies, "
            f"got {n_states} * {n_shots}")


@dataclass(frozen=True)
class BenchmarkConfig:
    n_states: int = 200
    n_shots: int = 2000
    seed: int = 0
    prep_error: float = 0.0
    subset: Subset = Subset.ALL_QUBITS

    def __post_init__(self) -> None:
        if self.n_states <= 0:
            raise ValueError(f"n_states must be > 0, got {self.n_states}")
        if self.n_shots <= 0:
            raise ValueError(f"n_shots must be > 0, got {self.n_shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_exact_tallies(self.n_states, self.n_shots)
        if not 0.0 <= self.prep_error <= 1.0:
            raise ValueError(f"prep_error must be a probability, got {self.prep_error}")


@dataclass
class ShotRecords:
    """Aggregated outcomes: prepared bits and measured-one counts per state."""

    qubits: list[QubitId]
    prepared: np.ndarray  # (n_states, n_qubits) of 0/1
    ones: np.ndarray      # (n_states, n_qubits) counts of measured |1>
    n_shots: int


@dataclass
class ErrorBudget:
    separation: float
    state_prep: float
    relaxation: float
    unknown: float
    observed: float
    suspect: bool = False  # unknown negative beyond statistical tolerance


@dataclass
class BenchmarkReport:
    config: BenchmarkConfig
    qubits: list[QubitId]
    p10: dict[QubitId, float]       # P(measured 1 | prepared 0)
    p01: dict[QubitId, float]       # P(measured 0 | prepared 1)
    error: dict[QubitId, float]
    cross_fidelity: np.ndarray      # (n_qubits, n_qubits), nan on diagonal
    undefined_pairs: list[tuple[QubitId, QubitId]]
    budget: ErrorBudget
    records: ShotRecords = field(repr=False, default=None)


def one_probability(
    prepared: int,
    snr: float,
    relax_p: float,
    prep_p: float,
    coupling_p: float,
) -> float:
    """Probability that one shot of a qubit prepared in |prepared> reads 1.

    The bit is 1 before readout with probability e (preparation flip, then
    relaxation of a 1); thresholding misassigns it with the separation
    error; a coupling scramble replaces the outcome by a fair coin.
    """
    e = (prep_p if prepared == 0 else 1.0 - prep_p) * (1.0 - relax_p)
    eps = separation_error(snr)
    p0 = e * (1.0 - eps) + (1.0 - e) * eps
    c = min(1.0, coupling_p)
    return (1.0 - c) * p0 + c / 2.0


def _miss_table(prepared: np.ndarray, ones: np.ndarray, n_shots: int) -> np.ndarray:
    """Conditional miss rates of every qubit given every qubit's prepared bit.

    Entry [y, i, z, j] is the chance of measuring NOT y on qubit i, given
    that qubit i was prepared in |y> and qubit j in |z>; it is nan where no
    state prepares that pair of bits.  Its diagonal, j = i and z = y, holds
    the per-qubit rates P(1|0) and P(0|1).  Every cell is counted at once
    by two Gram products of the float64 indicator matrix X = [prepared
    |0>, prepared |1>] of shape (n_states, 2 n_qubits): X.T @ X counts the
    states of each (y_i, z_j) cell, and X weighted by each column's
    measured ones counts their measured ones.  Every count is an integer at
    most n_states * n_shots <= 2**53, so each sum is exact in any order and
    the rates equal integer tallies' ratios bit for bit.
    """
    prep = np.asarray(prepared, dtype=bool)
    n_q = prep.shape[1]
    # x[s, y * n_q + i] = 1 where state s prepares qubit i in |y>
    x = np.concatenate((~prep, prep), axis=1).astype(float)
    shots = x.T @ x
    shots *= n_shots
    # measured ones, then the misses of the rows that prepare |1>
    miss = (x * np.tile(ones, 2)).T @ x
    np.subtract(shots[n_q:], miss[n_q:], out=miss[n_q:])
    with np.errstate(divide="ignore", invalid="ignore"):
        miss /= shots
    return miss.reshape(2, n_q, 2, n_q)


def _fidelity(table: np.ndarray, qubits: list) -> tuple[np.ndarray, list]:
    """Cross-fidelity matrix of a _miss_table, and its undefined pairs.

    The table's cells are misassignment probabilities; the formula's
    second and fourth terms are correct-assignment ones.  A pair with an
    empty conditioning cell reads nan, as does the diagonal, where no
    state prepares a qubit in both |0> and |1>.
    """
    f = 1.0 - 0.5 * (table[0, :, 0] + (1.0 - table[1, :, 0])
                     + table[1, :, 1] + (1.0 - table[0, :, 1]))
    undefined = np.isnan(f)
    np.fill_diagonal(undefined, False)
    return f, [(qubits[i], qubits[j]) for i, j in zip(*np.nonzero(undefined))]


def cross_fidelity(records: ShotRecords):
    """Pairwise cross-fidelity matrix from the benchmark tallies.

    F_ij = 1 - [P(1_i|0_i 0_j) + P(1_i|1_i 0_j)
                + P(0_i|1_i 1_j) + P(0_i|0_i 1_j)] / 2,
    conditioning on the prepared states of both qubits (Heinsoo et al.,
    PRApplied 10, 034040 (2018)), read off _miss_table.  Entries whose
    conditioning cell is empty come back as nan and are listed separately,
    in row-major order.  Records with n_states * n_shots above 2**53 raise
    ValueError.
    """
    _check_exact_tallies(len(records.prepared), records.n_shots)
    table = _miss_table(records.prepared, records.ones, records.n_shots)
    return _fidelity(table, records.qubits)


def error_budget(
    breakdowns: dict[QubitId, CostBreakdown],
    observed: float,
    prep_error: float,
    tolerance: float = 0.0,
) -> ErrorBudget:
    """Decompose the observed mean error into modeled components.

    The relaxation model applies only to prepared |1>, so it enters the
    symmetric (state-averaged) error at half weight.  unknown is the exact
    remainder; a remainder more negative than -tolerance flags the budget.
    """
    sep = float(np.mean([b.separation for b in breakdowns.values()]))
    relax = float(np.mean([b.relaxation for b in breakdowns.values()])) / 2.0
    unknown = observed - (sep + prep_error + relax)
    return ErrorBudget(
        separation=sep,
        state_prep=prep_error,
        relaxation=relax,
        unknown=unknown,
        observed=observed,
        suspect=unknown < -tolerance,
    )


def run_benchmark(
    graph: DeviceGraph,
    result: OptimizationResult,
    cfg: BenchmarkConfig,
) -> BenchmarkReport:
    """Simulate simultaneous readout of random initial states.

    Deterministic for a fixed config.  The seed spawns two substreams: the
    first draws the prepared states, the second every tally at once, as one
    binomial sample per (state, qubit) of n_shots trials at the qubit's
    ``one_probability`` for its prepared bit.
    """
    if cfg.subset is Subset.MEASURE_ONLY:
        qubits = [q for q in graph.sorted_ids() if q.role is Role.MEASURE]
    else:
        qubits = graph.sorted_ids()
    if not qubits:
        raise ValueError(f"benchmark subset {cfg.subset.value!r} selects no qubit")
    missing = [q for q in qubits if q not in result.per_qubit]
    if missing:
        raise ValueError(f"optimization result missing qubits {missing}")

    # (prepared bit, qubit) -> probability of measuring 1
    p_one = np.empty((2, len(qubits)))
    for j, qid in enumerate(qubits):
        bd = result.per_qubit[qid].breakdown
        relax_p = min(1.0, max(0.0, bd.relaxation))
        for bit in (0, 1):
            p_one[bit, j] = one_probability(
                bit, bd.snr, relax_p, cfg.prep_error, max(0.0, bd.coupling))

    prep_ss, tally_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    prepared = np.random.default_rng(prep_ss).integers(
        0, 2, size=(cfg.n_states, len(qubits)))
    p = np.take_along_axis(p_one, prepared, axis=0)
    ones = np.random.default_rng(tally_ss).binomial(cfg.n_shots, p)

    table = _miss_table(prepared, ones, cfg.n_shots)
    # its diagonal: P(1|0) and P(0|1), nan where no state prepares that bit
    p10, p01 = table.reshape(2 * len(qubits), -1).diagonal().reshape(2, -1)
    lacking = np.flatnonzero(np.isnan(p10) | np.isnan(p01))
    if lacking.size:
        q, bit = qubits[lacking[0]], int(np.isnan(p10[lacking[0]]))
        raise ValueError(
            f"n_states={cfg.n_states} prepares qubit ({q.row},{q.col}) only in "
            f"|{bit}>: both prepared values must be represented")
    error = 0.5 * (p10 + p01)
    fmat, undefined = _fidelity(table, qubits)
    budget = error_budget(
        {qid: result.per_qubit[qid].breakdown for qid in qubits},
        float(np.mean(error)),
        cfg.prep_error,
        tolerance=3.0 * math.sqrt(0.25 / (cfg.n_states * cfg.n_shots)),
    )
    return BenchmarkReport(
        config=cfg,
        qubits=qubits,
        p10=dict(zip(qubits, p10.tolist())),
        p01=dict(zip(qubits, p01.tolist())),
        error=dict(zip(qubits, error.tolist())),
        cross_fidelity=fmat,
        undefined_pairs=undefined,
        budget=budget,
        records=ShotRecords(qubits, prepared, ones, cfg.n_shots),
    )
