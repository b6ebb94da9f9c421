"""Greedy graph-traversal ("snake") optimizer with branch-and-bound inner search.

Measure qubits are optimized first, hopping diagonally between them where
possible, then the data qubits.  Each qubit's cost is minimized exactly
over its (omega_q, amplitude, pulse length) grid while accumulating
frequency-collision constraints from already-locked neighbors up to
next-nearest order.  One error_models.CostModel defines the cost for the
whole walk; its collision defaults turn each locked neighbor into collision
specs, and with model.heuristics False the neighbors are ignored.  The scan
scores one omega's whole amplitude x pulse-length plane per
error_models.cost_plane call, bit-identical to the scalar cost function
point by point, and prunes planes by an exact lower bound (see
optimize_qubit), so the result equals an exhaustive scan's.  The winner's
breakdown is its cell of the best plane's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .device import DeviceGraph, NeighborOrder, QubitId, QubitPhysical, Role, neighbors
from .error_models import (
    CostBreakdown,
    CostModel,
    ReadoutParams,
    collision_specs,
    cost_plane,
    coupling_error,
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
    evaluations: int


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


def optimize_qubit(
    q: QubitPhysical,
    grid: SearchGrid,
    locked,
    model: CostModel,
    *,
    qid: QubitId | None = None,
) -> tuple[ReadoutParams, CostBreakdown]:
    """Exact grid minimum of the cost for one qubit.

    locked holds (QubitPhysical, ReadoutParams, next_nearest) triples for
    previously optimized neighbors.  Ties break lexicographically on
    (omega, amplitude, pulse-length) grid indices.

    Each omega's amplitude x pulse-length plane is scored in one cost_plane
    call, and the scan is branch and bound over omega.  Every cost term is
    >= 0 and the weighted coupling term depends on omega alone, so
    bound = weights.coupling * coupling_error(omega, specs) is a lower
    bound on that omega's whole plane; each total is fl(x + bound) with
    x >= 0, and rounding is monotone, so it holds in floating point too.
    Planes are scored in ascending (bound, omega index) order until a bound
    is strictly above the best total so far.  A plane whose bound equals
    the best total can still hold a tie at a lower omega index, so it is
    scored, and candidates compare by (total, omega index, flat plane
    index).  Without heuristics (the predictive-only strategy) or locked
    neighbors every bound is 0, so every plane is scored.  The winner's
    breakdown is its cell of the best plane's.
    """
    specs = collision_specs(q, locked, model.collision) if model.heuristics else ()
    bounds = sorted((model.weights.coupling * coupling_error(omega, specs), i_w)
                    for i_w, omega in enumerate(grid.omega_points))
    best = None  # (total, i_omega, flat index into the (amp, t_p) plane)
    for bound, i_w in bounds:
        if best is not None and bound > best[0]:
            break
        plane = cost_plane(q, [grid.omega_points[i_w]], grid.amp_points,
                           grid.tp_points, model, specs)
        totals = np.where(np.isfinite(plane.total[0]), plane.total[0], math.inf)
        # first occurrence: row-major order is the (amp, t_p) index order
        flat = int(np.argmin(totals))
        candidate = (float(totals.flat[flat]), i_w, flat)
        if candidate[0] < math.inf and (best is None or candidate < best):
            best, best_plane = candidate, plane
    if best is None:
        raise InfeasibleQubitError(qid)
    _, i_w, flat = best
    i_a, i_t = divmod(flat, len(grid.tp_points))
    t_p = grid.tp_points[i_t]
    params = ReadoutParams(omega_q=grid.omega_points[i_w], b0=grid.amp_points[i_a],
                           t_p=t_p, t_r=model.total_time - t_p)
    return params, CostBreakdown(**{f.name: float(getattr(best_plane, f.name)[0, i_a, i_t])
                                    for f in fields(CostBreakdown)})


def optimize_device(
    graph: DeviceGraph,
    grids: dict[QubitId, SearchGrid],
    model: CostModel,
    *,
    start: QubitId | None = None,
) -> OptimizationResult:
    """Run the snake over the whole device, locking qubits as it goes."""
    order = traversal_order(graph, start)
    locked_params: dict[QubitId, ReadoutParams] = {}
    per_qubit: dict[QubitId, QubitResult] = {}
    evaluations = 0
    for index, qid in enumerate(order):
        q = graph.qubits[qid]
        grid = grids[qid]
        locked = _locked_neighbors(graph, qid, locked_params)
        evaluations += grid.size
        try:
            params, bd = optimize_qubit(q, grid, locked, model, qid=qid)
        except InfeasibleQubitError as exc:
            exc.partial = OptimizationResult(per_qubit, order[:index], evaluations)
            raise
        n_specs = 4 * len(locked) if model.heuristics else 0
        per_qubit[qid] = QubitResult(params, bd, index, n_specs)
        locked_params[qid] = params
    return OptimizationResult(per_qubit, order, evaluations)


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
