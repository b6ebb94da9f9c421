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
(one qubit's omega) of the device: its chi, unit step response,
unit-amplitude statistics and the neighbor-free bound of each cell, in
blocks of planes.  Then _seed_cells gives each qubit a seed plane, the one
with the least neighbor-free bound, and scores its likely winners there
for the whole device in two rounds of kernel calls, one call per
error_models._BLOCK_PLANES qubits.  The walk prunes omegas by the
coupling term and cells by error_models.cell_bound, the neighbor-free
bound plus that term, both exact lower bounds (see optimize_qubit),
under either strategy.  It serves the seed cells with the coupling its
locked neighbors give, and scores the other cells whose bound is at or
below the best total so far in one kernel call per plane, from the
plane's stored response: nothing integrates inside the walk, and the
result equals an exhaustive scan's.  The winner's breakdown is its cell
of the kernel's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .device import DeviceGraph, NeighborOrder, QubitId, QubitPhysical, Role, neighbors
from .error_models import (
    _BLOCK_PLANES,
    BOUND_MARGIN,
    Cells,
    CollisionChannel,
    CostBreakdown,
    CostModel,
    ReadoutParams,
    cell_bound,
    collision_specs,
    coupling_error,
    plane_statistics,
    score_planes,
    with_coupling,
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
    seeds=None,
) -> QubitScan:
    """Exact grid minimum of the cost for one qubit.

    locked holds (QubitPhysical, ReadoutParams, next_nearest) triples for
    previously optimized neighbors.  planes holds the entries of
    error_models.plane_statistics for grid's omegas, and seeds this
    qubit's cells scored before the walk (_seed_cells), as optimize_device
    computes both for the whole device; by default this call computes
    them, and so raises what cost_plane raises on an invalid grid before
    the scan.  Ties break lexicographically on (omega, amplitude,
    pulse-length) grid indices.

    The scan is branch and bound over omega, then over the cells of each
    omega's plane, under either strategy.  Every cost term is >= 0 and the
    weighted coupling term depends on omega alone, so weights.coupling *
    coupling_error(omega, specs) is a lower bound on that omega's whole
    plane; each total is fl(x + bound) with x >= 0, and rounding is
    monotone, so it holds in floating point too.  Planes are reached in
    ascending (bound, omega index) order until a bound is strictly above
    the best total so far.  A reached plane's cells get
    error_models.cell_bound's lower bound, (plane.bound + that coupling
    bound) (1 - BOUND_MARGIN), from the neighbor-free bound its entry
    holds, and the cells whose bound is <= the best total are scored, in
    one call of the kernel (error_models.score_planes) from the plane's
    stored response, so the scan integrates nothing.

    The seeds' cells are served first: each with its coupling term and its
    total formed now, as the kernel forms them (error_models.with_coupling),
    so the best of them is the first incumbent, and a cell that is already
    scored never reaches the kernel again.  At the first plane reached,
    and at any plane before there is a best total, the cells at the
    bound's minimum are scored first (at the first plane, if their bound
    is <= the best total), and if they are all infeasible, the rest of the
    plane.  A cell whose bound equals the best total can still hold a tie
    at a lower grid index, so it is scored, and candidates compare by
    (total, omega index, flat plane index).  Any cell left out has a
    bound, and so a total, above the best total, so the result equals an
    exhaustive scan's.  The winner's breakdown is its
    cell of the kernel's.  Returns the winner, its breakdown and the number
    of cells the kernel scored for this qubit, before the walk and in it.
    """
    if planes is None:
        planes, = plane_statistics([_grid_scan(q, grid)], model)
        seeds, = _seed_cells([q], [grid], [planes], model)
    specs = collision_specs(q, locked, model.collision) if model.heuristics else ()
    coupling = [coupling_error(omega, specs) for omega in grid.omega_points]
    bounds = sorted((model.weights.coupling * c, i_w) for i_w, c in enumerate(coupling))
    amps, n_tp = np.asarray(grid.amp_points), len(grid.tp_points)
    best = best_bd = None  # (total, i_omega, flat (amp, t_p) index), breakdown
    done = {}  # per omega index, the mask of its cells scored so far
    scored = 0

    def offer(i_w, flat, cells):
        """Keep the best finite candidate among cells, flat ascending."""
        nonlocal best, best_bd
        cells = with_coupling(cells, coupling[i_w], model)
        totals = np.where(np.isfinite(cells["total"]), cells["total"], math.inf)
        i = int(np.argmin(totals))  # first occurrence: the least flat index
        candidate = (float(totals[i]), i_w, int(flat[i]))
        if candidate[0] < math.inf and (best is None or candidate < best):
            best = candidate
            best_bd = CostBreakdown(**{name: float(v[i]) for name, v in cells.items()})
        if i_w not in done:
            done[i_w] = np.zeros(len(amps) * n_tp, dtype=bool)
        done[i_w][flat] = True

    def score(i_w, ask):
        """Score the cells of omega i_w that ask marks and that are not
        scored yet, in one kernel call."""
        nonlocal scored
        flat = np.flatnonzero(ask if i_w not in done else ask & ~done[i_w])
        if len(flat):
            scored += len(flat)
            i_a, i_t = np.divmod(flat, n_tp)
            entry = planes[i_w]
            cells = Cells(np.zeros(len(flat), dtype=int), amps[i_a],
                          np.asarray(entry.n_ps)[i_t])
            offer(i_w, flat, score_planes([(q, entry)], cells, model))

    for i_w, flat, cells in seeds or ():
        scored += len(flat)
        offer(i_w, flat, cells)
    reached = False
    for bound, i_w in bounds:
        if best is not None and bound > best[0]:
            break
        if planes[i_w] is None:  # infeasible in every cell, or no cell
            continue
        cells = cell_bound(planes[i_w], coupling[i_w], model).ravel()
        if best is None or not reached:
            # the first plane, or no incumbent yet: the cells at the bound's
            # minimum first, if it can still win
            reached = True
            first = cells == cells.min()
            if best is not None:
                first &= cells <= best[0]
            score(i_w, first)
        score(i_w, np.ones(len(cells), dtype=bool) if best is None else cells <= best[0])
    if best is None:
        raise InfeasibleQubitError(qid)
    _, i_w, flat = best
    i_a, i_t = divmod(flat, n_tp)
    t_p = grid.tp_points[i_t]
    params = ReadoutParams(omega_q=grid.omega_points[i_w], b0=grid.amp_points[i_a],
                           t_p=t_p, t_r=model.total_time - t_p)
    return QubitScan(params, best_bd, scored)


def _seed_cells(qubits, grids, planes, model: CostModel) -> list[list]:
    """Each qubit's likely winners, scored for the whole device before the walk.

    qubits, grids and planes (plane_statistics' entries) run in walk order.
    A qubit's seed plane is the one whose neighbor-free bound has the least
    minimum, ties broken by omega index.  A first round of kernel calls
    scores every seed plane's cells at that minimum; a second one, for
    each qubit with a finite total among them, the seed plane's other
    cells whose bound times (1 - BOUND_MARGIN) is <= the least such total,
    its neighbor-free total (coupling 0).  Each call takes the seed planes
    of at most _BLOCK_PLANES qubits, as plane_statistics' blocks do, so
    its transient memory does not grow with the device.  Returns one list
    per qubit of (omega index, flat cell indices, ascending, score_planes'
    fields) chunks, for optimize_qubit to serve with the coupling its
    neighbors give.
    """
    seeds = []
    for entries in planes:
        live = [(entry.bound.min(), i_w) for i_w, entry in enumerate(entries)
                if entry is not None]
        seeds.append(min(live)[1] if live else None)
    chunks = [[] for _ in planes]

    def call(picks):
        """Score picks[k], flat indices on qubit k's seed plane, in one
        kernel call per _BLOCK_PLANES seed planes."""
        ks = [k for k, flat in enumerate(picks) if flat is not None and len(flat)]
        for group in (ks[i : i + _BLOCK_PLANES] for i in range(0, len(ks), _BLOCK_PLANES)):
            parts = []
            for n, k in enumerate(group):
                i_a, i_t = np.divmod(picks[k], len(grids[k].tp_points))
                parts.append((np.full(len(i_a), n), np.asarray(grids[k].amp_points)[i_a],
                              np.asarray(planes[k][seeds[k]].n_ps)[i_t]))
            scored = score_planes([(qubits[k], planes[k][seeds[k]]) for k in group],
                                  Cells(*map(np.concatenate, zip(*parts))), model)
            end = 0
            for k in group:
                start, end = end, end + len(picks[k])
                chunks[k].append((seeds[k], picks[k],
                                  {name: values[start:end] for name, values in scored.items()}))

    bounds = [None if i_w is None else entries[i_w].bound.ravel()
              for i_w, entries in zip(seeds, planes)]
    first = [None if bound is None else np.flatnonzero(bound == bound.min())
             for bound in bounds]
    call(first)
    rest = [None] * len(planes)
    for k, found in enumerate(chunks):
        if found:
            total = with_coupling(found[0][2], 0.0, model)["total"]
            least = np.min(np.where(np.isfinite(total), total, math.inf))
            if least < math.inf:
                keep = bounds[k] * (1.0 - BOUND_MARGIN) <= least
                keep[first[k]] = False
                rest[k] = np.flatnonzero(keep)
    call(rest)
    return chunks


def optimize_device(
    graph: DeviceGraph,
    grids: dict[QubitId, SearchGrid],
    model: CostModel,
    *,
    start: QubitId | None = None,
) -> OptimizationResult:
    """Run the snake over the whole device, locking qubits as it goes."""
    order = traversal_order(graph, start)
    qubits, walk_grids = [graph.qubits[qid] for qid in order], [grids[qid] for qid in order]
    planes = plane_statistics([_grid_scan(q, grid) for q, grid in zip(qubits, walk_grids)],
                              model)
    seeds = _seed_cells(qubits, walk_grids, planes, model)
    locked_params: dict[QubitId, ReadoutParams] = {}
    per_qubit: dict[QubitId, QubitResult] = {}
    evaluations = scored = 0
    for index, (qid, qubit_planes, qubit_seeds) in enumerate(zip(order, planes, seeds)):
        q = graph.qubits[qid]
        grid = grids[qid]
        locked = _locked_neighbors(graph, qid, locked_params)
        evaluations += grid.size
        try:
            params, bd, n_scored = optimize_qubit(q, grid, locked, model, qid=qid,
                                                  planes=qubit_planes, seeds=qubit_seeds)
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
