import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readout_opt import (
    BenchmarkConfig,
    CostBreakdown,
    CostModel,
    CostWeights,
    MistParams,
    OptimizationResult,
    QubitResult,
    ReadoutParams,
    Role,
    SearchGrid,
    ShotRecords,
    Subset,
    cross_fidelity,
    error_budget,
    optimize_device,
    run_benchmark,
    separation_error,
)
from readout_opt.benchmark import _miss_table, one_probability

from conftest import DEFAULT_BAND, TWO_PI, make_graph, make_qubit


def make_breakdown(snr=9.0, relaxation=0.0, coupling=0.0):
    sep = separation_error(snr)
    return CostBreakdown(
        separation=sep, relaxation=relaxation, photon=0.0, mist=0.0,
        coupling=coupling, snr=snr, t0=200.0, n_max=1.0,
        total=sep + relaxation + coupling,
    )


def make_result(graph, breakdown):
    per_qubit = {}
    for i, qid in enumerate(graph.sorted_ids()):
        params = ReadoutParams(omega_q=TWO_PI * 5.9, b0=0.2,
                               t_p=300.0, t_r=200.0)
        per_qubit[qid] = QubitResult(params, breakdown, i, 0)
    return OptimizationResult(per_qubit, graph.sorted_ids(), 0)


def sample_shots(prepared, n, snr, relax_p, prep_p, coupling_p, rng):
    """Per-shot oracle of the shot model: one measured bit per shot."""
    bits = np.full(n, bool(prepared))
    if prep_p > 0.0:
        bits ^= rng.random(n) < prep_p
    if relax_p > 0.0:
        bits &= ~(rng.random(n) < relax_p)
    mean = np.where(bits, 0.5, -0.5) * math.sqrt(snr)
    x = mean + rng.normal(0.0, math.sqrt(0.5), n)
    measured = x > 0.0
    if coupling_p > 0.0:
        scramble = rng.random(n) < min(1.0, coupling_p)
        measured[scramble] = rng.integers(0, 2, int(scramble.sum())).astype(bool)
    return measured


class TestOneProbability:
    def test_error_rate_matches_separation_model(self):
        for snr in (0.0, 1.0, 5.0, 16.0):
            assert one_probability(0, snr, 0.0, 0.0, 0.0) == separation_error(snr)

    def test_huge_snr_faithful(self):
        assert one_probability(0, 1e4, 0.0, 0.0, 0.0) == 0.0
        assert one_probability(1, 1e4, 0.0, 0.0, 0.0) == 1.0

    def test_relaxation_biases_prepared_one(self):
        assert one_probability(1, 1e4, 0.3, 0.0, 0.0) == 1.0 - 0.3
        assert one_probability(0, 1e4, 0.3, 0.0, 0.0) == 0.0

    def test_prep_error_flips_both_ways(self):
        assert one_probability(0, 1e4, 0.0, 0.1, 0.0) == 0.1
        assert one_probability(1, 1e4, 0.0, 0.1, 0.0) == 1.0 - 0.1

    def test_coupling_scrambles(self):
        for prepared in (0, 1):
            for coupling in (1.0, 2.5):
                assert one_probability(prepared, 1e4, 0.0, 0.0, coupling) == 0.5

    @pytest.mark.parametrize("prepared, snr, relax, prep, coupling", [
        (0, 5.0, 0.0, 0.0, 0.0),
        (1, 3.0, 0.05, 0.0, 0.0),
        (1, 6.0, 0.02, 0.03, 0.1),
        (0, 2.0, 0.1, 0.05, 0.3),
        (1, 9.0, 0.01, 0.0, 1.5),
    ])
    def test_matches_per_shot_oracle(self, prepared, snr, relax, prep, coupling):
        n = 200_000
        rng = np.random.default_rng(17)
        rate = sample_shots(prepared, n, snr, relax, prep, coupling, rng).mean()
        p = one_probability(prepared, snr, relax, prep, coupling)
        assert abs(rate - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


def miss_table_ints(prepared, ones, n_shots):
    """Oracle: _miss_table cell by cell, as ratios of Python ints."""
    n_states, n_q = prepared.shape
    table = np.full((2, n_q, 2, n_q), np.nan)
    for y, i, z, j in np.ndindex(table.shape):
        states = [s for s in range(n_states)
                  if prepared[s, i] == y and prepared[s, j] == z]
        if states:
            ones_i = sum(int(ones[s, i]) for s in states)
            shots = len(states) * n_shots
            table[y, i, z, j] = (ones_i if y == 0 else shots - ones_i) / shots
    return table


class TestMissTable:
    def test_perfect_readout(self):
        prepared = np.array([[0], [1], [0], [1]])
        ones = np.array([[0], [10], [0], [10]])
        table = _miss_table(prepared, ones, 10)
        assert (table[0, 0, 0, 0], table[1, 0, 1, 0]) == (0.0, 0.0)

    def test_counts(self):
        table = _miss_table(np.array([[0], [1]]), np.array([[2], [9]]), 10)
        p10, p01 = table[0, 0, 0, 0], table[1, 0, 1, 0]
        assert p10 == pytest.approx(0.2)
        assert p01 == pytest.approx(0.1)
        assert 0.5 * (p10 + p01) == pytest.approx(0.15)

    def test_column_prepared_in_one_state_reads_nan(self):
        prepared = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])
        table = _miss_table(prepared, np.zeros((2, 4), dtype=int), 10)
        p10, p01 = table.reshape(8, 8).diagonal().reshape(2, 4)
        assert np.array_equal(np.isnan(p10), [False, True, False, False])
        assert np.array_equal(np.isnan(p01), [False, False, False, True])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n_states=st.integers(1, 40), n_q=st.integers(1, 6),
           n_shots=st.integers(1, 2**47), seed=st.integers(0, 2**32 - 1))
    def test_equals_integer_ratios(self, n_states, n_q, n_shots, seed):
        rng = np.random.default_rng(seed)
        prepared = rng.integers(0, 2, size=(n_states, n_q))
        ones = rng.integers(0, n_shots + 1, size=(n_states, n_q))
        table = _miss_table(prepared, ones, n_shots)
        expected = miss_table_ints(prepared, ones, n_shots)
        assert np.array_equal(np.isnan(table), np.isnan(expected))
        assert [v.hex() for v in table[~np.isnan(table)].tolist()] == \
            [v.hex() for v in expected[~np.isnan(expected)].tolist()]


class TestCrossFidelity:
    def test_tallies_beyond_2_53_rejected(self):
        prepared = np.array([[0, 1], [1, 0]])
        cross_fidelity(ShotRecords([0, 1], prepared, prepared * 2**52, 2**52))
        with pytest.raises(ValueError, match=r"got 2 \* 4503599627370497"):
            cross_fidelity(ShotRecords([0, 1], prepared, prepared, 2**52 + 1))

    def test_independent_perfect_readout_gives_zero(self):
        # conditioning on the qubit's own prepared state removes its own
        # error, so without crosstalk the metric vanishes
        rng = np.random.default_rng(0)
        prepared = rng.integers(0, 2, size=(60, 3))
        n = 50
        ones = prepared * n  # every shot reproduces the prepared bit
        records = ShotRecords(list(range(3)), prepared, ones, n)
        f, undefined = cross_fidelity(records)
        assert undefined == []
        off = f[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.0)
        assert np.all(np.isnan(np.diag(f)))

    def test_full_crosstalk_gives_unity(self):
        # qubit 0's outcome copies qubit 1's prepared bit exactly
        prepared = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        n = 10
        ones = np.array([[0, 0], [0, 0], [10, 10], [10, 10]])
        records = ShotRecords([0, 1], prepared, ones, n)
        f, _ = cross_fidelity(records)
        assert f[0, 1] == pytest.approx(1.0)

    def test_random_guessing_gives_zero(self):
        rng = np.random.default_rng(1)
        prepared = rng.integers(0, 2, size=(80, 2))
        n = 100
        ones = np.full((80, 2), n // 2)  # coin-flip outcomes
        records = ShotRecords([0, 1], prepared, ones, n)
        f, _ = cross_fidelity(records)
        assert f[0, 1] == pytest.approx(0.0)
        assert f[1, 0] == pytest.approx(0.0)

    def test_hand_computed_pair(self):
        # qubit 0 is ideal; condition on qubit 1's prepared bit
        prepared = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        n = 10
        ones = np.array([[1, 0], [9, 0], [8, 10], [2, 10]])
        records = ShotRecords([0, 1], prepared, ones, n)
        f, _ = cross_fidelity(records)
        # P(1|00)=0.1, P(0|10)=0.1, P(0|11)=0.2, P(1|01)=0.2
        expected = 1.0 - 0.5 * (0.1 + (1 - 0.1) + 0.2 + (1 - 0.2))
        assert f[0, 0 + 1] == pytest.approx(expected)

    def test_empty_conditioning_cell_undefined(self):
        prepared = np.array([[0, 0], [1, 0], [1, 0]])  # no (·,1) states
        ones = np.zeros((3, 2), dtype=int)
        records = ShotRecords(["a", "b"], prepared, ones, 5)
        f, undefined = cross_fidelity(records)
        assert math.isnan(f[0, 1])
        assert ("a", "b") in undefined


def cross_fidelity_loop(records):
    """Oracle: cross_fidelity one pair and one conditioning cell at a time."""
    prep = records.prepared.astype(bool)
    ones = records.ones.astype(float)
    n = records.n_shots
    n_q = len(records.qubits)
    f = np.full((n_q, n_q), np.nan)
    undefined = []
    for i in range(n_q):
        for j in range(n_q):
            if i == j:
                continue
            cells = []
            for y, z in ((0, 0), (1, 0), (1, 1), (0, 1)):
                mask = (prep[:, i] == bool(y)) & (prep[:, j] == bool(z))
                count = int(mask.sum())
                if count == 0:
                    undefined.append((records.qubits[i], records.qubits[j]))
                    break
                if y == 0:
                    cells.append(ones[mask, i].sum() / (count * n))
                else:
                    cells.append((n - ones[mask, i]).sum() / (count * n))
            else:
                f[i, j] = 1.0 - 0.5 * (
                    cells[0] + (1.0 - cells[1]) + cells[2] + (1.0 - cells[3]))
    return f, undefined


class TestCrossFidelityMatchesLoop:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n_states=st.integers(1, 40), n_q=st.integers(1, 6),
           n_shots=st.integers(1, 2**47), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical(self, n_states, n_q, n_shots, seed):
        rng = np.random.default_rng(seed)
        prepared = rng.integers(0, 2, size=(n_states, n_q))
        ones = rng.integers(0, n_shots + 1, size=(n_states, n_q))
        records = ShotRecords([f"q{k}" for k in range(n_q)], prepared, ones, n_shots)
        f, undefined = cross_fidelity(records)
        f_ref, undefined_ref = cross_fidelity_loop(records)
        assert np.array_equal(np.isnan(f), np.isnan(f_ref))
        assert np.array_equal(f, f_ref, equal_nan=True)
        assert undefined == undefined_ref


class TestBenchmarkConfig:
    def test_tallies_beyond_2_53_rejected(self):
        BenchmarkConfig(n_states=2**3, n_shots=2**50)
        with pytest.raises(ValueError, match=r"n_states \* n_shots must be <= 2\*\*53"):
            BenchmarkConfig(n_states=2**3, n_shots=2**50 + 1)


class TestErrorBudget:
    def test_exact_closure(self):
        bds = {0: make_breakdown(snr=9.0, relaxation=0.004),
               1: make_breakdown(snr=16.0, relaxation=0.002)}
        budget = error_budget(bds, observed=0.015, prep_error=0.002)
        assert budget.separation == pytest.approx(
            0.5 * (bds[0].separation + bds[1].separation))
        assert budget.relaxation == pytest.approx(0.003 / 2)
        total = (budget.separation + budget.state_prep
                 + budget.relaxation + budget.unknown)
        assert total == pytest.approx(budget.observed, abs=1e-15)

    def test_suspect_flag(self):
        bds = {0: make_breakdown(snr=0.0)}  # separation error 0.5
        good = error_budget(bds, observed=0.6, prep_error=0.0, tolerance=1e-3)
        assert not good.suspect
        bad = error_budget(bds, observed=0.4, prep_error=0.0, tolerance=1e-3)
        assert bad.suspect


class TestRunBenchmark:
    def graph_and_result(self, **bd_kwargs):
        graph = make_graph([
            (0, 0, Role.MEASURE),
            (0, 1, Role.DATA),
            (1, 0, Role.DATA),
        ])
        return graph, make_result(graph, make_breakdown(**bd_kwargs))

    def test_deterministic_given_seed(self):
        graph, result = self.graph_and_result(snr=6.0, relaxation=0.003)
        cfg = BenchmarkConfig(n_states=20, n_shots=200, seed=11)
        r1 = run_benchmark(graph, result, cfg)
        r2 = run_benchmark(graph, result, cfg)
        assert np.array_equal(r1.records.ones, r2.records.ones)
        assert np.array_equal(r1.records.prepared, r2.records.prepared)
        for qid in r1.qubits:
            assert r1.error[qid] == r2.error[qid]

    def test_prepared_states_from_first_substream(self):
        graph, result = self.graph_and_result(snr=6.0)
        cfg = BenchmarkConfig(n_states=30, n_shots=10, seed=123)
        report = run_benchmark(graph, result, cfg)
        first = np.random.SeedSequence(cfg.seed).spawn(cfg.n_states + 1)[0]
        expected = np.random.default_rng(first).integers(0, 2, size=(30, 3))
        assert np.array_equal(report.records.prepared, expected)

    def test_noiseless_tallies_copy_prepared_states(self):
        graph, result = self.graph_and_result(snr=1e4)
        report = run_benchmark(graph, result,
                               BenchmarkConfig(n_states=30, n_shots=70, seed=4))
        assert np.array_equal(report.records.ones, report.records.prepared * 70)

    def test_seed_changes_outcomes(self):
        graph, result = self.graph_and_result(snr=6.0)
        r1 = run_benchmark(graph, result,
                           BenchmarkConfig(n_states=20, n_shots=200, seed=1))
        r2 = run_benchmark(graph, result,
                           BenchmarkConfig(n_states=20, n_shots=200, seed=2))
        assert not np.array_equal(r1.records.ones, r2.records.ones)

    def test_measure_only_subset(self):
        graph, result = self.graph_and_result()
        cfg = BenchmarkConfig(n_states=10, n_shots=50,
                              subset=Subset.MEASURE_ONLY)
        report = run_benchmark(graph, result, cfg)
        assert all(q.role is Role.MEASURE for q in report.qubits)
        assert len(report.qubits) == 1

    def test_qubit_prepared_in_one_state_rejected(self):
        graph, result = self.graph_and_result()

        def prepared(seed):
            first = np.random.SeedSequence(seed).spawn(2)[0]
            return np.random.default_rng(first).integers(0, 2, size=(3, 3))

        # a seed that prepares qubit 0 in both bits and qubits 1 and 2 in
        # one bit each: the message names qubit 1, the first of those
        seed = next(s for s in range(100)
                    if np.ptp(prepared(s), axis=0).tolist() == [1, 0, 0])
        q, bit = graph.sorted_ids()[1], int(prepared(seed)[0, 1])
        with pytest.raises(ValueError) as info:
            run_benchmark(graph, result, BenchmarkConfig(n_states=3, n_shots=10, seed=seed))
        assert str(info.value) == (
            f"n_states=3 prepares qubit ({q.row},{q.col}) only in |{bit}>: "
            f"both prepared values must be represented")

    def test_missing_qubit_rejected(self):
        graph, result = self.graph_and_result()
        del result.per_qubit[graph.sorted_ids()[0]]
        with pytest.raises(ValueError):
            run_benchmark(graph, result,
                          BenchmarkConfig(n_states=10, n_shots=50))

    def test_error_tracks_model(self):
        snr, relax = 5.0, 0.01
        graph, result = self.graph_and_result(snr=snr, relaxation=relax)
        cfg = BenchmarkConfig(n_states=100, n_shots=2000, seed=5)
        report = run_benchmark(graph, result, cfg)
        eps = separation_error(snr)
        expected = eps + relax * (1 - 2 * eps) / 2
        n_eff = cfg.n_states * cfg.n_shots
        sigma = math.sqrt(expected * (1 - expected) / n_eff)
        for qid in report.qubits:
            assert abs(report.error[qid] - expected) < 5 * sigma

    def test_budget_closure_on_report(self):
        graph, result = self.graph_and_result(snr=6.0, relaxation=0.004)
        cfg = BenchmarkConfig(n_states=50, n_shots=500, seed=3,
                              prep_error=0.002)
        report = run_benchmark(graph, result, cfg)
        b = report.budget
        assert b.observed == pytest.approx(
            float(np.mean([report.error[q] for q in report.qubits])))
        assert b.separation + b.state_prep + b.relaxation + b.unknown == \
            pytest.approx(b.observed, abs=1e-15)

    def test_cross_fidelity_near_zero_for_independent_qubits(self):
        graph, result = self.graph_and_result(snr=8.0)
        cfg = BenchmarkConfig(n_states=200, n_shots=500, seed=9)
        report = run_benchmark(graph, result, cfg)
        off = report.cross_fidelity[~np.isnan(report.cross_fidelity)]
        assert np.abs(off).max() < 0.02

    def test_end_to_end_with_optimizer(self):
        graph = make_graph([
            (0, 0, Role.MEASURE, make_qubit()),
            (0, 1, Role.DATA, make_qubit(omega_r=TWO_PI * 4.75)),
        ])
        grid = SearchGrid(
            omega_points=tuple(np.linspace(*DEFAULT_BAND, 4)),
            amp_points=(0.1, 0.2),
            tp_points=(250.0, 350.0),
        )
        result = optimize_device(
            graph, {qid: grid for qid in graph.qubits},
            CostModel(CostWeights(), MistParams(a=0.075, b=0.54),
                      total_time=500.0, dt=1.0))
        report = run_benchmark(graph, result,
                               BenchmarkConfig(n_states=20, n_shots=100))
        assert set(report.qubits) == set(graph.qubits)
        for qid in report.qubits:
            assert 0.0 <= report.error[qid] <= 0.5
