"""Greedy graph-traversal ("snake") optimizer with branch-and-bound inner search.

Measure qubits are optimized first, hopping diagonally between them where
possible, then the data qubits.  Each qubit's cost is minimized exactly
over its (omega_q, amplitude, pulse length) grid while accumulating
frequency-collision constraints from already-locked neighbors up to
next-nearest order.  One error_models.CostModel defines the cost for the
whole walk; its collision defaults turn each locked neighbor into collision
specs, and with model.heuristics False the neighbors are ignored.

Before the first qubit is locked, error_models.plane_statistics checks
every qubit's grid, in walk order, so an invalid grid raises before any
qubit is locked, and computes what no neighbor changes for every plane
(one qubit's omega) of the device: its chi, unit step response and
unit-amplitude statistics, in blocks of planes.  The scan then prunes
omegas by the coupling term and cells by error_models.cell_bound, which
reads its plane's entry, both exact lower bounds (see optimize_qubit),
under either strategy, and scores the cells it keeps through the scorer
cell_bound returns, which reads the plane's stored response and scores
bit for bit as error_models.cost_plane; nothing integrates inside the
walk, and the result equals an exhaustive scan's.  The winner's breakdown
is its cell of the kernel's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .device import DeviceGraph, NeighborOrder, QubitId, QubitPhysical, Role, neighbors
from .error_models import (
    CollisionChannel,
    CostBreakdown,
    CostModel,
    ReadoutParams,
    cell_bound,
    collision_specs,
    coupling_error,
    plane_statistics,
)


class InfeasibleQubitError(RuntimeError):
    """Raised when every grid point for a qubit is infeasible.

    Carries any partial OptimizationResult accumulated before the failure.
    """

    def __init__(self, qid, partial=None):
        super().__init__(f"all grid points infeasible for qubit {qid}")
        self.qid = qid
        self.partial = partial


@dataclass(frozen=True)
class SearchGrid:
    """Sorted candidate values for the three optimizable parameters."""

    omega_points: tuple[float, ...]
    amp_points: tuple[float, ...]
    tp_points: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("omega_points", "amp_points", "tp_points"):
            pts = getattr(self, name)
            if len(pts) == 0:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise ValueError(f"{name} must be strictly ascending")

    @property
    def size(self) -> int:
        return len(self.omega_points) * len(self.amp_points) * len(self.tp_points)


@dataclass
class QubitResult:
    params: ReadoutParams
    breakdown: CostBreakdown
    traversal_index: int
    n_collision_specs: int


@dataclass
class OptimizationResult:
    per_qubit: dict[QubitId, QubitResult]
    order: list[QubitId]
    evaluations: int  # grid points, scored or pruned
    scored: int = 0  # grid cells the kernel scored; pruning skips the rest


def _row_major(qids) -> list[QubitId]:
    return sorted(qids, key=lambda q: (q.row, q.col))


def traversal_order(graph: DeviceGraph, start: QubitId | None = None) -> list[QubitId]:
    """Measure qubits first (diagonal hops where possible), then data qubits.

    Among measure qubits the walk prefers an unvisited diagonal neighbor
    (row-major tie-break) and falls back to the first unvisited measure
    qubit in row-major order.  Data qubits follow in row-major order.
    """
    measures = _row_major(q for q in graph.qubits if q.role is Role.MEASURE)
    datas = _row_major(q for q in graph.qubits if q.role is Role.DATA)
    order: list[QubitId] = []
    if measures:
        if start is None:
            current = measures[0]
        else:
            if start not in graph.qubits or start.role is not Role.MEASURE:
                raise ValueError(f"start qubit {start} is not a measure qubit")
            current = start
        unvisited = set(measures)
        while True:
            order.append(current)
            unvisited.discard(current)
            if not unvisited:
                break
            diag = [
                n for n in neighbors(graph, current, NeighborOrder.NEXT_NEAREST)
                if n in unvisited
            ]
            current = diag[0] if diag else _row_major(unvisited)[0]
    order.extend(datas)
    return order


class QubitScan(NamedTuple):
    """optimize_qubit's winner, its breakdown and how many cells the kernel scored."""

    params: ReadoutParams
    breakdown: CostBreakdown
    scored: int


def optimize_qubit(
    q: QubitPhysical,
    grid: SearchGrid,
    locked,
    model: CostModel,
    *,
    qid: QubitId | None = None,
    planes=None,
) -> QubitScan:
    """Exact grid minimum of the cost for one qubit.

    locked holds (QubitPhysical, ReadoutParams, next_nearest) triples for
    previously optimized neighbors.  planes holds the entries of
    error_models.plane_statistics for grid's omegas, as optimize_device
    computes them for the whole device; by default this call computes
    them, and so raises what cost_plane raises on an invalid grid before
    the scan.  Ties break lexicographically on (omega, amplitude,
    pulse-length) grid indices.

    The scan is branch and bound over omega, then over the amplitude rows
    and pulse-length columns of each omega's plane, under either strategy.
    Every cost term is >= 0 and the weighted coupling term depends on
    omega alone, so weights.coupling * coupling_error(omega, specs) is a
    lower bound on that omega's whole plane; each total is fl(x + bound)
    with x >= 0, and rounding is monotone, so it holds in floating point
    too.  Planes are reached in ascending (bound, omega index) order until
    a bound is strictly above the best total so far.  A plane gets its
    error_models.cell_bound when the scan reaches it: a lower bound on each
    cell's total, read off the statistics of the omega's unit-amplitude
    response in its entry, and a scorer that gives cost_plane's cells from
    that same stored response, so the scan integrates nothing.  The
    scorer then scores the outer product of the amplitude rows and
    pulse-length columns that hold a cell whose bound is <= the best total.
    Before there is a best total, the cells at the bound's minimum are
    scored first, and if they are all infeasible, the rest of the plane.
    A cell whose bound equals the best total can still hold a tie at a
    lower grid index, so it is scored, and candidates compare by (total,
    omega index, flat plane index), mapped back from the scored subgrid,
    whose rows and columns keep the grid's order.  The winner's breakdown
    is its cell of the kernel's.  Returns the winner, its breakdown and the
    number of cells scored.
    """
    if planes is None:
        planes, = plane_statistics([_grid_scan(q, grid)], model)
    specs = collision_specs(q, locked, model.collision) if model.heuristics else ()
    bounds = sorted((model.weights.coupling * coupling_error(omega, specs), i_w)
                    for i_w, omega in enumerate(grid.omega_points))
    best = best_bd = None  # (total, i_omega, flat (amp, t_p) index), breakdown
    scored = 0

    def score(i_w, scorer, keep):
        """Score the rows x columns of omega i_w that hold keep's cells
        through its scorer, and keep the best finite candidate; returns the
        scored cells' index."""
        nonlocal best, best_bd, scored
        rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
        bd = scorer(rows, cols)
        scored += len(rows) * len(cols)
        totals = np.where(np.isfinite(bd.total), bd.total, math.inf)
        # first occurrence: row-major order is the (amp, t_p) index order
        i_a, i_t = divmod(int(np.argmin(totals)), len(cols))
        flat = int(rows[i_a]) * len(grid.tp_points) + int(cols[i_t])
        candidate = (float(totals[i_a, i_t]), i_w, flat)
        if candidate[0] < math.inf and (best is None or candidate < best):
            best = candidate
            best_bd = CostBreakdown(**{f.name: float(getattr(bd, f.name)[i_a, i_t])
                                       for f in fields(CostBreakdown)})
        return np.ix_(rows, cols)

    for bound, i_w in bounds:
        if best is not None and bound > best[0]:
            break
        cells, scorer = cell_bound(q, planes[i_w], grid.amp_points, grid.tp_points,
                                   model, specs)
        done = None
        if best is None and np.isfinite(cells).any():
            # no incumbent yet: the cells at the bound's minimum first
            done = score(i_w, scorer, cells == cells.min())
        # +inf bounds: infeasible in the kernel too
        keep = np.isfinite(cells) if best is None else cells <= best[0]
        if done is not None:
            keep[done] = False
        if keep.any():
            score(i_w, scorer, keep)
    if best is None:
        raise InfeasibleQubitError(qid)
    _, i_w, flat = best
    i_a, i_t = divmod(flat, len(grid.tp_points))
    t_p = grid.tp_points[i_t]
    params = ReadoutParams(omega_q=grid.omega_points[i_w], b0=grid.amp_points[i_a],
                           t_p=t_p, t_r=model.total_time - t_p)
    return QubitScan(params, best_bd, scored)


def optimize_device(
    graph: DeviceGraph,
    grids: dict[QubitId, SearchGrid],
    model: CostModel,
    *,
    start: QubitId | None = None,
) -> OptimizationResult:
    """Run the snake over the whole device, locking qubits as it goes."""
    order = traversal_order(graph, start)
    planes = plane_statistics([_grid_scan(graph.qubits[qid], grids[qid]) for qid in order],
                              model)
    locked_params: dict[QubitId, ReadoutParams] = {}
    per_qubit: dict[QubitId, QubitResult] = {}
    evaluations = scored = 0
    for index, (qid, qubit_planes) in enumerate(zip(order, planes)):
        q = graph.qubits[qid]
        grid = grids[qid]
        locked = _locked_neighbors(graph, qid, locked_params)
        evaluations += grid.size
        try:
            params, bd, n_scored = optimize_qubit(q, grid, locked, model, qid=qid,
                                                  planes=qubit_planes)
        except InfeasibleQubitError as exc:
            exc.partial = OptimizationResult(per_qubit, order[:index], evaluations, scored)
            raise
        scored += n_scored
        n_specs = len(CollisionChannel) * len(locked) if model.heuristics else 0
        per_qubit[qid] = QubitResult(params, bd, index, n_specs)
        locked_params[qid] = params
    return OptimizationResult(per_qubit, order, evaluations, scored)


def _grid_scan(q: QubitPhysical, grid: SearchGrid):
    """plane_statistics' (q, omegas, amps, tp_points) entry of one grid."""
    return q, grid.omega_points, grid.amp_points, grid.tp_points


def _locked_neighbors(
    graph: DeviceGraph,
    qid: QubitId,
    locked_params: dict[QubitId, ReadoutParams],
) -> list[tuple[QubitPhysical, ReadoutParams, bool]]:
    """Locked (physical, params, next_nearest) triples around one qubit."""
    out = []
    for nb in neighbors(graph, qid, NeighborOrder.BOTH):
        if nb in locked_params:
            diagonal = nb.row != qid.row and nb.col != qid.col
            out.append((graph.qubits[nb], locked_params[nb], diagonal))
    return out
