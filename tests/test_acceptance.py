"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line on success; a failure shows up as the
usual pytest failure for that criterion.  Oracles are coded independently
of the library internals wherever the criterion calls for one.
"""
import cmath
import contextlib
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from readout_opt import (
    BenchmarkConfig,
    CostBreakdown,
    CostModel,
    CostWeights,
    MistParams,
    OptimizationResult,
    PulseShape,
    QubitResult,
    ReadoutParams,
    Role,
    SearchGrid,
    Strategy,
    collision_specs,
    error_budget,
    field_pair,
    load_optimizer_config,
    build_search_grid,
    optimize_device,
    optimize_qubit,
    run_benchmark,
    separation_error,
    solve_field,
)
from readout_opt.cli import result_to_dict

from conftest import CONFIG_DIR, DEFAULT_BAND, TWO_PI, make_graph, make_qubit
from oracle import evaluate_cost, snr

WEIGHTS = CostWeights()
MIST = MistParams(a=0.075, b=0.54)
MODEL = CostModel(weights=WEIGHTS, mist=MIST, total_time=500.0, dt=1.0)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:2d}: PASS  {description}", flush=True)


def closed_form_square_pulse(times, b0, t_p, delta, kappa):
    """Independent oracle for the driven-cavity field."""
    lam = 1j * delta - kappa / 2.0
    amp = math.sqrt(kappa) * b0 / (kappa / 2.0 - 1j * delta)
    out = np.empty(len(times), dtype=complex)
    for k, t in enumerate(times):
        if t <= t_p:
            out[k] = amp * (1.0 - cmath.exp(lam * t))
        else:
            beta_p = amp * (1.0 - cmath.exp(lam * t_p))
            out[k] = beta_p * cmath.exp(lam * (t - t_p))
    return out


def test_criterion_01_ode_matches_closed_form():
    with criterion(1, "square-pulse ODE matches closed form, RK4 order"):
        t_begin = time.perf_counter()
        rng = np.random.default_rng(12345)
        dt = 0.1
        for _ in range(100):
            b0 = rng.uniform(0.05, 0.5)
            delta = rng.uniform(-0.3, 0.3)
            kappa = rng.uniform(0.02, 0.2)
            t_p = dt * rng.integers(500, 3000)
            t_r = dt * rng.integers(0, 1500)
            beta = solve_field(PulseShape(b0, t_p, t_r), delta, kappa, dt)
            times = np.arange(len(beta)) * dt
            oracle = closed_form_square_pulse(times, b0, t_p, delta, kappa)
            scale = np.abs(oracle).max()
            assert np.abs(beta - oracle).max() <= 1e-6 * scale

        # halving dt improves the endpoint error about 16x (4th order)
        for b0, delta, kappa in ((0.3, 0.04, 0.08), (0.2, -0.1, 0.05)):
            pulse = PulseShape(b0, 200.0, 0.0)
            end = closed_form_square_pulse([200.0], b0, 200.0, delta, kappa)[0]
            errs = [
                abs(solve_field(pulse, delta, kappa, h)[-1] - end)
                for h in (0.4, 0.2)
            ]
            assert 10 < errs[0] / errs[1] < 25
        assert time.perf_counter() - t_begin < 10.0


def test_criterion_02_steady_state_photon_number():
    with criterion(2, "resonant drive reaches 4*B0^2/kappa within 1e-4"):
        for kappa, b0 in ((0.06, 0.25), (0.12, 0.1)):
            t_end = 25.0 / kappa
            dt = 0.1
            pulse = PulseShape(b0, dt * round(t_end / dt), 0.0)
            beta = solve_field(pulse, 0.0, kappa, dt)
            n = np.abs(beta) ** 2
            n_ss = 4.0 * b0**2 / kappa
            settled = n[int(20.0 / kappa / dt):]
            assert np.abs(settled - n_ss).max() <= 1e-4 * n_ss


def test_criterion_03_separation_error_formula():
    with criterion(3, "separation error: exact endpoints, erfc oracle, monotone"):
        assert separation_error(0.0) == 0.5
        assert abs(separation_error(4.0) - 0.5 * math.erfc(1.0)) <= 1e-12
        grid = np.linspace(0.0, 40.0, 1000)
        vals = [separation_error(s) for s in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_criterion_04_matched_filter_reduction():
    with criterion(4, "SNR quadrature equals 2*eta*kappa*integral|dbeta|^2"):
        rng = np.random.default_rng(99)
        for _ in range(20):
            q = make_qubit(
                eta=rng.uniform(0.3, 0.9),
                kappa=rng.uniform(0.04, 0.1),
            )
            params = ReadoutParams(
                omega_q=TWO_PI * rng.uniform(5.6, 6.3),
                b0=rng.uniform(0.05, 0.3),
                t_p=rng.uniform(150.0, 400.0),
                t_r=rng.uniform(50.0, 100.0),
            )
            traj = field_pair(q, params, dt=0.5)
            d = np.abs(traj.beta0 - traj.beta1) ** 2
            oracle = 2.0 * q.eta * q.kappa * np.trapezoid(d, dx=0.5)
            value = snr(traj, q.eta, q.kappa)
            assert abs(value - oracle) <= 1e-9 * max(oracle, 1e-30)


def test_criterion_05_snr_per_photon_optimum():
    # At fixed max photon number the plain ratio SNR/n_max grows
    # monotonically with |chi|, so the peak is read from the SNR per unit
    # drive power (B0 rescaled at each point to hold n_max fixed), which
    # the steady-state algebra places at |2*chi| = kappa.
    with criterion(5, "SNR per drive photon peaks where |2*chi| = kappa"):
        q = make_qubit()
        freqs = np.linspace(5.65, 6.05, 81)
        n_target = 2.0
        ratio = []
        chi_scale = []
        for f in freqs:
            probe = ReadoutParams(omega_q=TWO_PI * f, b0=0.1,
                                  t_p=6000.0, t_r=0.0)
            traj = field_pair(q, probe, dt=0.5)
            n_probe = max(np.abs(traj.beta0).max(), np.abs(traj.beta1).max()) ** 2
            b0 = probe.b0 * math.sqrt(n_target / n_probe)
            scaled = ReadoutParams(omega_q=probe.omega_q, b0=b0,
                                   t_p=probe.t_p, t_r=0.0)
            straj = field_pair(q, scaled, dt=0.5)
            n_max = max(np.abs(straj.beta0).max(),
                        np.abs(straj.beta1).max()) ** 2
            assert abs(n_max - n_target) <= 1e-9 * n_target
            ratio.append(snr(straj, q.eta, q.kappa) / b0**2)
            chi_scale.append(abs(2.0 * straj.chi / q.kappa))
        chi_scale = np.array(chi_scale)
        i_peak = int(np.argmax(ratio))
        assert 0 < i_peak < len(freqs) - 1  # interior peak
        resolution = np.abs(np.diff(chi_scale)).max()
        assert abs(chi_scale[i_peak] - 1.0) < resolution


def _exhaustive_scan(q, grid, locked, model):
    """Independent brute-force oracle with its own loop and tie-breaking."""
    specs = collision_specs(q, locked)
    best_key, best = None, None
    for i_w, i_a, i_t in itertools.product(
        range(len(grid.omega_points)),
        range(len(grid.amp_points)),
        range(len(grid.tp_points)),
    ):
        params = ReadoutParams(
            omega_q=grid.omega_points[i_w],
            b0=grid.amp_points[i_a],
            t_p=grid.tp_points[i_t],
            t_r=model.total_time - grid.tp_points[i_t],
        )
        bd = evaluate_cost(q, params, model, specs)
        if not math.isfinite(bd.total):
            continue
        key = (bd.total, i_w, i_a, i_t)
        if best_key is None or key < best_key:
            best_key, best = key, params
    return best


def test_criterion_06_greedy_exactness(d3_graph, small_run):
    with criterion(6, "greedy steps match exhaustive oracle; fixed point holds"):
        # part 1: 2-qubit toy with 10x10x10 grids, checked step by step
        graph = make_graph([
            (0, 0, Role.MEASURE, make_qubit()),
            (0, 1, Role.DATA, make_qubit(omega_r=TWO_PI * 4.75)),
        ])
        grid = SearchGrid(
            omega_points=tuple(np.linspace(*DEFAULT_BAND, 10)),
            amp_points=tuple(np.linspace(0.04, 0.35, 10)),
            tp_points=tuple(np.linspace(150.0, 450.0, 10)),
        )
        result = optimize_device(
            graph, {qid: grid for qid in graph.qubits}, MODEL)
        locked = []
        for qid in result.order:
            oracle = _exhaustive_scan(graph.qubits[qid], grid, locked, MODEL)
            assert result.per_qubit[qid].params == oracle
            locked.append((graph.qubits[qid], oracle, False))

        # part 2: every qubit of the 17-qubit device is conditionally
        # optimal given the constraints active at its turn
        cfg, grids, full = small_run
        locked_params = {}
        for qid in full.order:
            active = []
            for nb, nb_params, diagonal in _neighbor_triples(
                    d3_graph, qid, locked_params):
                active.append((nb, nb_params, diagonal))
            params, bd, _ = optimize_qubit(
                d3_graph.qubits[qid], grids[qid], active, cfg.model, qid=qid)
            assert params == full.per_qubit[qid].params
            assert bd.total == full.per_qubit[qid].breakdown.total
            locked_params[qid] = params


def _neighbor_triples(graph, qid, locked_params):
    from readout_opt import NeighborOrder, neighbors

    out = []
    for nb in neighbors(graph, qid, NeighborOrder.BOTH):
        if nb in locked_params:
            diagonal = nb.row != qid.row and nb.col != qid.col
            out.append((graph.qubits[nb], locked_params[nb], diagonal))
    return out


def test_criterion_07_collision_avoidance():
    with criterion(7, "dominant coupling weight clears all collision centers"):
        # two identical coupled qubits: without the coupling term the
        # second qubit lands on the same frequency as the first
        graph = make_graph([
            (0, 0, Role.MEASURE, make_qubit()),
            (0, 1, Role.DATA, make_qubit()),
        ])
        grid = SearchGrid(
            omega_points=tuple(np.linspace(*DEFAULT_BAND, 40)),
            amp_points=(0.1, 0.2),
            tp_points=(250.0, 350.0),
        )
        grids = {qid: grid for qid in graph.qubits}
        naive = optimize_device(
            graph, grids, replace(MODEL, heuristics=False))
        first, second = naive.order
        assert naive.per_qubit[first].params.omega_q == \
            naive.per_qubit[second].params.omega_q  # the collision

        strong = CostWeights(coupling=1e4)
        avoided = optimize_device(graph, grids, replace(MODEL, weights=strong))
        w_first = avoided.per_qubit[first].params
        q_second = graph.qubits[second]
        specs = collision_specs(q_second, [(graph.qubits[first], w_first, False)])
        w_second = avoided.per_qubit[second].params.omega_q
        for spec in specs:
            assert abs(w_second - spec.center) > spec.width / 2.0


def test_criterion_08_benchmark_self_consistency():
    with criterion(8, "simulated errors match the separation+relaxation model"):
        graph = make_graph([
            (0, 0, Role.MEASURE), (0, 1, Role.DATA),
            (1, 0, Role.DATA), (1, 1, Role.MEASURE),
        ])
        models = {qid: (6.0 + 2.0 * k, 0.002 * (k + 1))
                  for k, qid in enumerate(graph.sorted_ids())}
        per_qubit = {}
        for k, (qid, (snr_v, relax)) in enumerate(models.items()):
            sep = separation_error(snr_v)
            bd = CostBreakdown(
                separation=sep, relaxation=relax, photon=0.0, mist=0.0,
                coupling=0.0, snr=snr_v, t0=200.0, n_max=1.0,
                total=sep + relax)
            per_qubit[qid] = QubitResult(
                ReadoutParams(TWO_PI * 5.9, 0.2, 300.0, 200.0), bd, k, 0)
        result = OptimizationResult(per_qubit, graph.sorted_ids(), 0)

        cfg = BenchmarkConfig(n_states=200, n_shots=2000, seed=2024)
        report = run_benchmark(graph, result, cfg)

        for j, qid in enumerate(report.qubits):
            snr_v, relax = models[qid]
            eps = separation_error(snr_v)
            expected = eps + relax * (1.0 - 2.0 * eps) / 2.0
            prepared = report.records.prepared[:, j].astype(bool)
            n0 = int((~prepared).sum()) * cfg.n_shots
            n1 = int(prepared.sum()) * cfg.n_shots
            p0 = eps
            p1 = eps + relax * (1.0 - 2.0 * eps)
            sigma = 0.5 * math.sqrt(
                p0 * (1 - p0) / n0 + p1 * (1 - p1) / n1)
            assert abs(report.error[qid] - expected) < 3.0 * sigma

        # independent qubits: cross-fidelity consistent with zero
        f = report.cross_fidelity
        off = f[~np.isnan(f)]
        sigmas = []
        for i, qid in enumerate(report.qubits):
            snr_v, relax = models[qid]
            eps = separation_error(snr_v)
            p = eps + relax * (1 - 2 * eps) / 2
            # four conditional cells of ~n_states/4 states each
            cell = cfg.n_states / 4 * cfg.n_shots
            sigmas.append(0.5 * math.sqrt(4 * p * (1 - p) / cell))
        sigma_f = max(sigmas)
        assert abs(float(np.mean(off))) < 3.0 * sigma_f


def test_criterion_09_error_budget_closure():
    with criterion(9, "budget components plus unknown equal observed exactly"):
        rng = np.random.default_rng(5)
        bds = {}
        for k in range(5):
            snr_v = rng.uniform(4.0, 16.0)
            sep = separation_error(snr_v)
            relax = rng.uniform(0.001, 0.01)
            bds[k] = CostBreakdown(sep, relax, 0.0, 0.0, 0.0, snr_v,
                                   200.0, 1.0, sep + relax)
        observed = rng.uniform(0.01, 0.03)
        prep = 0.002
        budget = error_budget(bds, observed, prep)
        lhs = (budget.separation + budget.state_prep
               + budget.relaxation + budget.unknown)
        assert lhs == pytest.approx(budget.observed, abs=1e-15)

        # the reference decomposition: 1.2% modeled vs 1.5% observed
        sep_t, prep_t, relax_t = 0.008, 0.002, 0.002
        bd = CostBreakdown(sep_t, 2 * relax_t, 0.0, 0.0, 0.0,
                           0.0, 200.0, 1.0, 0.0)
        ref = error_budget({0: bd}, observed=0.015, prep_error=prep_t)
        assert ref.separation + ref.state_prep + ref.relaxation == \
            pytest.approx(0.012, abs=1e-12)
        assert ref.unknown == pytest.approx(0.003, abs=1e-12)
        assert not ref.suspect


def test_criterion_10_performance_full_device(d3_graph):
    with criterion(10, "full 17-qubit optimization within the time budget"):
        cfg = load_optimizer_config((CONFIG_DIR / "optimizer.yaml").read_text())
        grids = {qid: build_search_grid(d3_graph, qid, cfg)
                 for qid in d3_graph.qubits}
        expected_evals = sum(g.size for g in grids.values())
        assert expected_evals == 17 * 60 * 40 * 42  # 1,713,600

        t_begin = time.perf_counter()
        result = optimize_device(d3_graph, grids, cfg.model)
        elapsed = time.perf_counter() - t_begin

        assert result.evaluations == expected_evals  # reported and exact
        assert len(result.per_qubit) == 17
        assert elapsed <= 300.0
        for r in result.per_qubit.values():
            assert math.isfinite(r.breakdown.total)
        print(f"  ({result.evaluations} evaluations in {elapsed:.1f} s)",
              flush=True)


def test_criterion_11_determinism(d3_graph, small_run):
    with criterion(11, "repeat runs are bit-identical with fixed seeds"):
        cfg, grids, first = small_run
        second = optimize_device(d3_graph, grids, cfg.model)
        dump1 = yaml.safe_dump(result_to_dict(first, Strategy.ALL_MODELS))
        dump2 = yaml.safe_dump(result_to_dict(second, Strategy.ALL_MODELS))
        assert dump1 == dump2

        bench_cfg = BenchmarkConfig(n_states=50, n_shots=500, seed=7)
        r1 = run_benchmark(d3_graph, first, bench_cfg)
        r2 = run_benchmark(d3_graph, second, bench_cfg)
        assert np.array_equal(r1.records.prepared, r2.records.prepared)
        assert np.array_equal(r1.records.ones, r2.records.ones)
        assert all(r1.error[q] == r2.error[q] for q in r1.qubits)
        eq = (r1.cross_fidelity == r2.cross_fidelity)
        both_nan = np.isnan(r1.cross_fidelity) & np.isnan(r2.cross_fidelity)
        assert np.all(eq | both_nan)
