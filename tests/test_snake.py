import itertools
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from readout_opt import (
    CostModel,
    CostWeights,
    InfeasibleQubitError,
    MistParams,
    QubitId,
    ReadoutParams,
    Role,
    SearchGrid,
    build_search_grid,
    collision_specs,
    load_optimizer_config,
    optimize_device,
    optimize_qubit,
    traversal_order,
)
from readout_opt import error_models, snake
from readout_opt.error_models import cost_plane

from conftest import CONFIG_DIR, DEFAULT_BAND, TWO_PI, make_graph, make_qubit
from oracle import evaluate_cost

WEIGHTS = CostWeights()
MIST = MistParams(a=0.075, b=0.54)
DT = 1.0
TOTAL = 500.0
MODEL = CostModel(weights=WEIGHTS, mist=MIST, dt=DT, total_time=TOTAL)


def small_grid(n_omega=5, n_amp=4, n_tp=3):
    return SearchGrid(
        omega_points=tuple(np.linspace(*DEFAULT_BAND, n_omega)),
        amp_points=tuple(np.linspace(0.05, 0.30, n_amp)),
        tp_points=tuple(np.linspace(200.0, 400.0, n_tp)),
    )


def brute_force(q, grid, locked, include_heuristics=True):
    """Oracle: independent exhaustive scan with its own tie-breaking."""
    specs = collision_specs(q, locked) if include_heuristics else ()
    best_key, best = None, None
    indices = itertools.product(
        range(len(grid.omega_points)),
        range(len(grid.amp_points)),
        range(len(grid.tp_points)),
    )
    for i_w, i_a, i_t in indices:
        params = ReadoutParams(
            omega_q=grid.omega_points[i_w],
            b0=grid.amp_points[i_a],
            t_p=grid.tp_points[i_t],
            t_r=TOTAL - grid.tp_points[i_t],
        )
        bd = evaluate_cost(q, params,
                           replace(MODEL, heuristics=include_heuristics), specs)
        if not math.isfinite(bd.total):
            continue
        key = (bd.total, i_w, i_a, i_t)
        if best_key is None or key < best_key:
            best_key, best = key, (params, bd)
    return best


class TestSearchGrid:
    def test_size(self):
        assert small_grid(5, 4, 3).size == 60

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SearchGrid((), (0.1,), (200.0,))

    def test_unsorted_axis_rejected(self):
        with pytest.raises(ValueError):
            SearchGrid((1.0, 0.5), (0.1,), (200.0,))

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError):
            SearchGrid((1.0, 1.0), (0.1,), (200.0,))


class TestTraversalOrder:
    def test_measure_before_data(self, d3_graph):
        order = traversal_order(d3_graph)
        roles = [q.role for q in order]
        n_measure = sum(r is Role.MEASURE for r in roles)
        assert all(r is Role.MEASURE for r in roles[:n_measure])
        assert all(r is Role.DATA for r in roles[n_measure:])

    def test_visits_every_qubit_once(self, d3_graph):
        order = traversal_order(d3_graph)
        assert len(order) == len(d3_graph.qubits)
        assert len(set(order)) == len(order)

    def test_diagonal_hops_on_measure_chain(self, d3_graph):
        order = traversal_order(d3_graph)
        measures = [q for q in order if q.role is Role.MEASURE]
        diagonal_steps = sum(
            abs(a.row - b.row) == 1 and abs(a.col - b.col) == 1
            for a, b in zip(measures, measures[1:])
        )
        # the greedy walk can dead-end and restart, but on this diagonally
        # connected sublattice most hops should still be diagonal
        assert diagonal_steps > (len(measures) - 1) / 2

    def test_data_row_major(self, d3_graph):
        order = traversal_order(d3_graph)
        datas = [(q.row, q.col) for q in order if q.role is Role.DATA]
        assert datas == sorted(datas)

    def test_start_override(self, d3_graph):
        measures = sorted(
            (q for q in d3_graph.qubits if q.role is Role.MEASURE),
            key=lambda q: (q.row, q.col))
        start = measures[-1]
        order = traversal_order(d3_graph, start=start)
        assert order[0] == start

    def test_start_must_be_measure(self, d3_graph):
        data = next(q for q in d3_graph.qubits if q.role is Role.DATA)
        with pytest.raises(ValueError):
            traversal_order(d3_graph, start=data)

    def test_data_only_device(self):
        graph = make_graph([(0, 0, Role.DATA), (0, 1, Role.DATA)])
        order = traversal_order(graph)
        assert [(q.row, q.col) for q in order] == [(0, 0), (0, 1)]


class TestOptimizeQubit:
    def test_matches_brute_force_oracle(self):
        q = make_qubit()
        grid = small_grid()
        locked = [(make_qubit(), ReadoutParams(
            omega_q=TWO_PI * 6.0, b0=0.2, t_p=300.0, t_r=200.0), False)]
        params, bd, _ = optimize_qubit(q, grid, locked, MODEL)
        oracle_params, oracle_bd = brute_force(q, grid, locked)
        assert params == oracle_params
        assert bd.total == oracle_bd.total

    def test_single_point_grid(self):
        q = make_qubit()
        grid = SearchGrid((TWO_PI * 5.9,), (0.2,), (300.0,))
        params, bd, _ = optimize_qubit(q, grid, [], MODEL)
        assert params.omega_q == TWO_PI * 5.9
        assert params.t_r == TOTAL - 300.0
        direct = evaluate_cost(q, params, MODEL)
        assert bd.total == direct.total

    def test_bad_grid_raises_the_kernels_error(self):
        q = make_qubit()
        # the first omega sits on the resonator pole; t_r < 0 at 520 ns
        grid = SearchGrid((q.omega_r, TWO_PI * 5.9), (0.2,), (300.0, 520.0))
        with pytest.raises(ValueError) as expected:
            cost_plane(q, grid.omega_points, grid.amp_points, grid.tp_points, MODEL)
        with pytest.raises(ValueError) as got:
            optimize_qubit(q, grid, [], MODEL)
        assert (type(got.value), str(got.value)) == (type(expected.value),
                                                     str(expected.value))

    def test_all_infeasible_raises(self):
        q = make_qubit()
        # every omega sits on the resonator pole
        grid = SearchGrid((q.omega_r,), (0.2,), (300.0,))
        with pytest.raises(InfeasibleQubitError):
            optimize_qubit(q, grid, [], MODEL, qid=QubitId(0, 0, Role.DATA))


class TestPruning:
    """The branch-and-bound scan on designed planes and bounds.

    coupling_error supplies each omega's coupling term (MODEL weighs it by
    1, so it is also the omega's bound), snake.plane_statistics each
    omega's entry, with its neighbor-free bound (by default 0 in every
    cell), and snake.score_planes, the kernel, each requested cell's
    designed neighbor-free value as its separation term, the other terms
    0, and infeasible where that value is not finite.  So a cell's total
    is its value plus its omega's coupling term, and every designed cell
    lies at or above its bound, as the real cost does.  Every value is a
    multiple of 1/64, so every sum is exact.
    """

    GRID = SearchGrid((1.0, 2.0, 3.0), (0.1, 0.2), (100.0, 200.0))

    class Entry(NamedTuple):
        omega: float
        n_ps: tuple
        bound: np.ndarray

    def scan(self, monkeypatch, couplings, values, bounds=None):
        """The winner's params (None if infeasible) and each kernel call's
        (omega, ((amp, t_p), ...)) cells, in order."""
        bounds, calls = bounds or {}, []
        n_ps = (1, 2)  # one sample count per pulse length

        def fake_kernel(picks, model):
            out = []
            for _, entry, amps, flat in picks:
                i_a, i_t = np.divmod(flat, len(n_ps))
                calls.append((entry.omega, [(amps[a], self.GRID.tp_points[t])
                                            for a, t in zip(i_a, i_t)]))
                value = np.array([values[entry.omega][a][t] for a, t in zip(i_a, i_t)])
                zero = np.zeros(len(value))
                out.append(dict(separation=value, relaxation=zero, photon=zero, mist=zero,
                                snr=zero, t0=zero, n_max=zero, bad=~np.isfinite(value)))
            return out

        def entry(omega):
            return self.Entry(omega, n_ps, np.array(bounds.get(omega, np.zeros((2, 2))),
                                                    dtype=float))

        monkeypatch.setattr(snake, "coupling_error", lambda omega, specs: couplings[omega])
        monkeypatch.setattr(snake, "plane_statistics",
                            lambda scans, model: [[entry(w) for w in s[1]] for s in scans])
        monkeypatch.setattr(snake, "score_planes", fake_kernel)
        try:
            params, _, n_scored = optimize_qubit(make_qubit(), self.GRID, [], MODEL)
        except InfeasibleQubitError:
            params, n_scored = None, None
        if params is not None:
            assert n_scored == sum(len(cells) for _, cells in calls)
        return params, [(omega, tuple(cells)) for omega, cells in calls]

    ALL = ((0.1, 100.0), (0.1, 200.0), (0.2, 100.0), (0.2, 200.0))

    def test_equal_bound_scored_and_lower_index_wins_tie(self, monkeypatch):
        couplings = {1.0: 0.5, 2.0: 0.25, 3.0: 1.0}
        # (0.5000000010000001 + 0.5) (1 - BOUND_MARGIN) is 1.0 exactly
        tie = 0.5000000010000001
        assert (tie + 0.5) * (1.0 - error_models.BOUND_MARGIN) == 1.0
        bounds = {1.0: [[1.5, 1.5], [tie, 1.5]], 3.0: [[0.0, 1.0], [1.0, 1.0]]}
        values = {
            1.0: [[1.5, 1.5], [0.5, 1.5]],  # total 1.0 ties omega 2.0's best
            2.0: [[2.5, 2.5], [2.5, 0.75]],
            3.0: [[0.0, 1.0], [1.0, 1.0]],  # and so does a cell here
        }
        params, calls = self.scan(monkeypatch, couplings, values, bounds)
        # omega 2.0 is the seed plane (the least bound minimum at the lowest
        # index), scored whole before the walk, and the first one the walk
        # reaches; then omega 1.0, whose one cell with a bound equal to the
        # best total is scored, and omega 3.0, whose coupling bound is
        # equal to it, and whose one cell below it ties too
        assert calls == [(2.0, self.ALL), (1.0, ((0.2, 100.0),)), (3.0, ((0.1, 100.0),))]
        assert (params.omega_q, params.b0, params.t_p) == (1.0, 0.2, 100.0)

    def test_bound_above_incumbent_not_scored(self, monkeypatch):
        couplings = {1.0: 0.25, 2.0: 1.0, 3.0: 0.75}
        values = {
            1.0: [[0.5, 0.25], [0.375, 0.75]],
            2.0: [[0.0, 0.0], [0.0, 0.0]],
            3.0: [[0.0, 0.0], [0.0, 0.0]],
        }
        params, calls = self.scan(monkeypatch, couplings, values)
        assert calls == [(1.0, self.ALL)]
        assert (params.omega_q, params.b0, params.t_p) == (1.0, 0.1, 200.0)

    def test_infeasible_plane_never_incumbent(self, monkeypatch):
        inf, nan = math.inf, math.nan
        couplings = {1.0: 0.0, 2.0: 0.0, 3.0: 0.5}
        values = {
            1.0: [[inf, inf], [inf, inf]],
            2.0: [[nan, inf], [inf, nan]],
            3.0: [[3.5, 2.5], [1.5, 4.5]],
        }
        params, calls = self.scan(monkeypatch, couplings, values)
        # the seed's cells are all infeasible: no second call before the
        # walk, and each plane's cells at the bound's minimum (all of them)
        # until one is feasible
        assert calls == [(1.0, self.ALL), (2.0, self.ALL), (3.0, self.ALL)]
        assert (params.omega_q, params.b0, params.t_p) == (3.0, 0.2, 100.0)
        values[3.0] = [[inf, inf], [inf, inf]]
        params, calls = self.scan(monkeypatch, couplings, values)
        assert params is None
        assert calls == [(1.0, self.ALL), (2.0, self.ALL), (3.0, self.ALL)]

    def test_infeasible_bound_minimum_scores_rest_of_plane(self, monkeypatch):
        inf = math.inf
        couplings = {1.0: 0.0, 2.0: 0.5, 3.0: 0.5}
        bounds = {1.0: [[0.125, 0.375], [0.25, 0.5]],
                  2.0: [[0.5, 0.5], [0.5, 0.5]], 3.0: [[0.5, 0.5], [0.5, 0.5]]}
        values = {
            1.0: [[inf, 0.625], [0.375, 0.75]],  # the bound's minimum is infeasible
            2.0: [[0.5, 0.5], [0.5, 0.5]],
            3.0: [[0.5, 0.5], [0.5, 0.5]],
        }
        params, calls = self.scan(monkeypatch, couplings, values, bounds)
        # the seed's one cell at its bound's minimum, before the walk, then
        # the rest of its plane
        assert calls == [(1.0, ((0.1, 100.0),)),
                         (1.0, ((0.1, 200.0), (0.2, 100.0), (0.2, 200.0)))]
        assert (params.omega_q, params.b0, params.t_p) == (1.0, 0.2, 100.0)

    def test_cells_above_incumbent_not_scored(self, monkeypatch):
        couplings = {1.0: 0.0, 2.0: 0.125, 3.0: 0.25}
        bounds = {
            1.0: [[0.375, 0.375], [0.375, 0.375]],
            2.0: [[0.375, 1.0], [1.0, 0.375]],
            3.0: [[1.0, 1.0], [1.0, 0.25]],
        }
        values = {
            1.0: [[0.75, 0.625], [0.875, 1.0]],
            2.0: [[0.4375, 1.0], [1.0, 0.5]],
            3.0: [[1.0, 1.0], [1.0, 0.25]],
        }
        params, calls = self.scan(monkeypatch, couplings, values, bounds)
        # omega 3.0 is the seed plane, and its one cell at the bound's
        # minimum, scored before the walk, the incumbent at 0.5.  The walk
        # scores the first plane's cells at its bound's minimum, then of
        # omega 2.0 the two diagonal cells whose bound is <= 0.5, not the
        # rows x columns they span; omega 3.0's cell is served, not scored
        assert calls == [(3.0, ((0.2, 200.0),)), (1.0, self.ALL),
                         (2.0, ((0.1, 100.0), (0.2, 200.0)))]
        assert (params.omega_q, params.b0, params.t_p) == (3.0, 0.2, 200.0)


@pytest.mark.parametrize("heuristics", [True, False], ids=["all", "predictive"])
def test_scan_reads_its_pulse_checks_from_one_cache_entry(small_run, d3_graph, monkeypatch,
                                                          heuristics):
    """Before the walk, each qubit's grid gets one pass of the grid checks,
    in walk order, whose pulse-length part comes from one _pulse_grid
    entry; then each omega of the device one chi, and the feasible planes
    one step_responses call per block, with one kappa per row.  The walk
    calls none of them: its bounds and scored cells read the blocks'
    statistics and responses."""
    cfg, grids, _ = small_run
    block = 40
    monkeypatch.setattr(error_models, "_BLOCK_PLANES", block)
    calls = {name: [] for name in ("_check_grid", "dispersive_shift", "step_responses")}
    for name in calls:
        def spy(*args, _real=getattr(error_models, name), _calls=calls[name]):
            _calls.append(args)
            return _real(*args)
        monkeypatch.setattr(error_models, name, spy)
    walk, real_scan = [], snake.optimize_qubit

    def scan_spy(*args, **kwargs):
        before = [len(c) for c in calls.values()]
        scan = real_scan(*args, **kwargs)
        walk.append([len(c) - n for c, n in zip(calls.values(), before)])
        return scan
    monkeypatch.setattr(snake, "optimize_qubit", scan_spy)
    error_models._pulse_grid.cache_clear()
    result = optimize_device(d3_graph, grids, replace(cfg.model, heuristics=heuristics))
    assert result.scored > 0
    assert walk == [[0, 0, 0]] * len(grids)
    assert [args[0] for args in calls["_check_grid"]] == [
        grids[qid].amp_points for qid in result.order]
    omegas = [w for qid in result.order for w in grids[qid].omega_points]
    assert [args[1] for args in calls["dispersive_shift"]] == omegas
    planes = len(omegas)
    widths = [len(args[0]) for args in calls["step_responses"]]
    assert widths == [block] * (planes // block) + [planes % block]
    assert all(len(args[1]) == len(args[0]) for args in calls["step_responses"])
    info = error_models._pulse_grid.cache_info()
    assert (info.misses, info.currsize, info.hits) == (1, 1, len(grids) - 1)


@pytest.mark.parametrize("heuristics", [True, False], ids=["all", "predictive"])
def test_one_omega_walk_is_scored_before_it_starts(small_run, d3_graph, monkeypatch,
                                                   heuristics):
    """With one omega per qubit, each seed plane is the qubit's only
    plane, and the kernel runs exactly twice, before the walk, for the
    whole device: never inside the walk.  The walk serves every cell it
    needs from those two calls, with its coupling added, and gets the
    result it gets without the spies."""
    cfg, grids, _ = small_run
    model = replace(cfg.model, heuristics=heuristics)
    # a mix of low and high omegas, as perfbench's optimize_dense
    grids = {qid: SearchGrid((grid.omega_points[(7 * k) % len(grid.omega_points)],),
                             grid.amp_points, grid.tp_points)
             for k, (qid, grid) in enumerate(sorted(grids.items()))}
    want = optimize_device(d3_graph, grids, model)
    kernel, walk, real_kernel, real_scan = [], [], error_models._score, snake.optimize_qubit

    def kernel_spy(*args):
        kernel.append(len(args[-2].plane))
        return real_kernel(*args)

    def scan_spy(*args, **kwargs):
        before = len(kernel)
        scan = real_scan(*args, **kwargs)
        walk.append(len(kernel) - before)
        return scan
    monkeypatch.setattr(error_models, "_score", kernel_spy)
    monkeypatch.setattr(snake, "optimize_qubit", scan_spy)
    result = optimize_device(d3_graph, grids, model)
    assert len(kernel) == 2 and walk == [0] * len(grids)
    assert result.scored == sum(kernel) < result.evaluations
    assert result.per_qubit == want.per_qubit


def test_seed_calls_take_at_most_a_block_of_planes(small_run, d3_graph, monkeypatch):
    """Before the walk, each kernel call scores the seed cells of at most
    _BLOCK_PLANES qubits, so its memory stays bounded on any device, and
    the result is the one the default blocks give."""
    cfg, grids, _ = small_run
    grids = {qid: SearchGrid(grid.omega_points[:1], grid.amp_points, grid.tp_points)
             for qid, grid in grids.items()}
    want = optimize_device(d3_graph, grids, cfg.model)
    widths, real_kernel = [], error_models._score

    def kernel_spy(*args):
        widths.append(len(args[0]))
        return real_kernel(*args)
    monkeypatch.setattr(error_models, "_score", kernel_spy)
    monkeypatch.setattr(error_models, "_BLOCK_PLANES", 4)
    result = optimize_device(d3_graph, grids, cfg.model)
    assert widths[:5] == [4, 4, 4, 4, 1] and max(widths) <= 4
    assert result.per_qubit == want.per_qubit and result.scored == want.scored


@pytest.mark.parametrize("heuristics", [True, False], ids=["all", "predictive"])
def test_pruned_walk_matches_unpruned_reference(small_run, d3_graph, monkeypatch,
                                                heuristics):
    """Every qubit of the small d3 walk equals an exhaustive plane scan,
    under both strategies, and counts the cells the kernel scored for it,
    before the walk and in it."""
    cfg, grids, result = small_run
    model = replace(cfg.model, heuristics=heuristics)
    if not heuristics:
        result = optimize_device(d3_graph, grids, model)
    scored, real_kernel = [], snake.score_planes

    def counting_kernel(picks, model):
        scored.extend(len(flat) for *_, flat in picks)
        return real_kernel(picks, model)

    monkeypatch.setattr(snake, "score_planes", counting_kernel)
    locked_params = {}
    pruned = total_scored = 0
    for qid in result.order:
        q, grid = d3_graph.qubits[qid], grids[qid]
        locked = snake._locked_neighbors(d3_graph, qid, locked_params)
        specs = collision_specs(q, locked, model.collision) if heuristics else ()
        best = None
        for i_w, omega in enumerate(grid.omega_points):
            totals = cost_plane(q, [omega], grid.amp_points, grid.tp_points,
                                model, specs).total
            for flat, total in enumerate(totals.flat):
                if math.isfinite(total) and (best is None or (total, i_w, flat) < best):
                    best = (total, i_w, flat)
        _, i_w, flat = best
        i_a, i_t = divmod(flat, len(grid.tp_points))
        t_p = grid.tp_points[i_t]
        reference = ReadoutParams(grid.omega_points[i_w], grid.amp_points[i_a],
                                  t_p, model.total_time - t_p)
        scored.clear()
        params, bd, n_scored = optimize_qubit(q, grid, locked, model, qid=qid)
        assert params == reference == result.per_qubit[qid].params
        assert bd.total == best[0] == result.per_qubit[qid].breakdown.total
        assert n_scored == sum(scored)
        total_scored += n_scored
        pruned += n_scored < grid.size
        locked_params[qid] = params
    assert pruned >= 1
    assert result.evaluations == sum(grid.size for grid in grids.values())
    assert result.scored == total_scored < result.evaluations


@pytest.mark.parametrize("config, heuristics, most, most_calls", [
    ("optimizer_small.yaml", True, 255, 40),
    ("optimizer_small.yaml", False, 108, 23),
    ("optimizer.yaml", True, 3_335, 120),
    ("optimizer.yaml", False, 1_521, 95),
], ids=["small-all", "small-predictive", "full-all", "full-predictive"])
def test_bound_prunes_the_d3_scan(d3_graph, monkeypatch, config, heuristics, most,
                                  most_calls):
    """The bound leaves at most `most` cells of d3 for the kernel to score,
    in at most `most_calls` kernel calls, before the walk and in it, under
    each shipped config and strategy: a call's overhead is most of a
    scan's kernel time.  The exactness tests pass for any bound at or
    below the kernel, however loose: the least rate of the whole Gamma1
    table in place of _gamma1_floor's scores 532 / 502 cells of the small
    grid, and no MIST bound 4,236 under all."""
    cfg = load_optimizer_config((CONFIG_DIR / config).read_text())
    grids = {qid: build_search_grid(d3_graph, qid, cfg) for qid in d3_graph.qubits}
    calls, real_kernel = [], error_models._score

    def kernel_spy(*args):
        calls.append(args)
        return real_kernel(*args)
    monkeypatch.setattr(error_models, "_score", kernel_spy)
    result = optimize_device(d3_graph, grids, replace(cfg.model, heuristics=heuristics))
    assert 0 < result.scored <= most
    assert 0 < len(calls) <= most_calls


class TestOptimizeDevice:
    def two_qubit_graph(self):
        return make_graph([
            (0, 0, Role.MEASURE, make_qubit()),
            (0, 1, Role.DATA, make_qubit(omega_r=TWO_PI * 4.75)),
        ])

    def test_greedy_sequence_matches_oracle(self):
        graph = self.two_qubit_graph()
        grid = small_grid()
        grids = {qid: grid for qid in graph.qubits}
        result = optimize_device(graph, grids, MODEL)
        order = result.order
        assert order[0].role is Role.MEASURE
        # first qubit: no locked neighbors
        first = brute_force(graph.qubits[order[0]], grid, [])
        assert result.per_qubit[order[0]].params == first[0]
        # second qubit: first is locked, orthogonal so nearest-neighbor
        locked = [(graph.qubits[order[0]], first[0][0]
                   if isinstance(first[0], tuple) else first[0], False)]
        second = brute_force(graph.qubits[order[1]], grid, locked)
        assert result.per_qubit[order[1]].params == second[0]
        assert result.evaluations == 2 * grid.size

    def test_locked_collision_spec_counts(self, d3_graph):
        grid = small_grid(3, 2, 2)
        grids = {qid: grid for qid in d3_graph.qubits}
        result = optimize_device(d3_graph, grids, MODEL)
        assert result.per_qubit[result.order[0]].n_collision_specs == 0
        counts = [r.n_collision_specs for r in result.per_qubit.values()]
        assert max(counts) <= 32
        assert any(c > 0 for c in counts)

    def test_repeat_runs_identical(self):
        graph = self.two_qubit_graph()
        grids = {qid: small_grid() for qid in graph.qubits}
        r1 = optimize_device(graph, grids, MODEL)
        r2 = optimize_device(graph, grids, MODEL)
        for qid in graph.qubits:
            assert r1.per_qubit[qid].params == r2.per_qubit[qid].params
            assert r1.per_qubit[qid].breakdown.total == \
                r2.per_qubit[qid].breakdown.total

    def test_partial_result_on_infeasible(self):
        graph = make_graph([
            (0, 0, Role.MEASURE, make_qubit()),
            (0, 1, Role.DATA, make_qubit()),
        ])
        good = small_grid()
        bad = SearchGrid((make_qubit().omega_r,), (0.2,), (300.0,))
        grids = {
            qid: (good if qid.role is Role.MEASURE else bad)
            for qid in graph.qubits
        }
        with pytest.raises(InfeasibleQubitError) as err:
            optimize_device(graph, grids, MODEL)
        partial = err.value.partial
        assert len(partial.per_qubit) == 1
        assert partial.evaluations == good.size + bad.size

    def test_invalid_grid_raises_before_any_qubit_is_locked(self):
        """A later qubit's invalid grid raises what cost_plane raises on it
        before the walk locks any qubit, even where an earlier qubit is
        infeasible."""
        graph = make_graph([
            (0, 0, Role.MEASURE, make_qubit()),
            (0, 1, Role.DATA, make_qubit()),
        ])
        good = small_grid()
        infeasible = SearchGrid((make_qubit().omega_r,), (0.2,), (300.0,))
        invalid = SearchGrid(good.omega_points, good.amp_points, (300.0, 520.0))  # t_r < 0
        with pytest.raises(ValueError) as want:
            cost_plane(make_qubit(), invalid.omega_points, invalid.amp_points,
                       invalid.tp_points, MODEL)
        for first in (infeasible, good):
            grids = {qid: first if qid.role is Role.MEASURE else invalid
                     for qid in graph.qubits}
            with pytest.raises(type(want.value)) as got:
                optimize_device(graph, grids, MODEL)
            assert str(got.value) == str(want.value)

    def test_predictive_only_ignores_neighbors(self):
        graph = self.two_qubit_graph()
        grids = {qid: small_grid() for qid in graph.qubits}
        result = optimize_device(graph, grids, replace(MODEL, heuristics=False))
        for qid in graph.qubits:
            solo = brute_force(graph.qubits[qid], grids[qid], [],
                               include_heuristics=False)
            assert result.per_qubit[qid].params == solo[0]
            assert result.per_qubit[qid].n_collision_specs == 0
