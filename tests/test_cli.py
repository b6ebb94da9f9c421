import contextlib
import csv
import dataclasses
import gc
import itertools
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from readout_opt import (
    QubitId,
    ReadoutParams,
    Role,
    Strategy,
    load_device,
    load_optimizer_config,
)
from readout_opt import cli
from readout_opt.benchmark import BenchmarkConfig, BenchmarkReport, ErrorBudget
from readout_opt.cli import (
    EXIT_IO,
    EXIT_OK,
    SWEEP_CHUNK,
    main,
    result_from_dict,
)
from readout_opt import device, yamlio
from readout_opt.device import ghz_to_rad_ns, serialize_device
from readout_opt.yamlio import NotCanonical, dump_yaml, parse_with, parse_yaml
from readout_opt.dynamics import (
    DetuningStepError,
    PoleProximityError,
    _check_step,
    dispersive_shift,
)

from conftest import CONFIG_DIR
from oracle import evaluate_cost

TWO_QUBIT_DEVICE = {
    "qubits": [
        {
            "row": 0, "col": 0, "role": "measure",
            "alpha_GHz": -0.2, "g_eff": 0.07, "f_r_GHz": 4.70, "eta": 0.5,
            "kappa_MHz": 11.0, "amp_ref": 1.0, "band_GHz": [5.6, 6.3],
            "gamma1_table": [[5.2, 0.05], [5.8, 0.06], [6.4, 0.05]],
        },
        {
            "row": 0, "col": 1, "role": "data",
            "alpha_GHz": -0.21, "g_eff": 0.068, "f_r_GHz": 4.75, "eta": 0.52,
            "kappa_MHz": 10.0, "amp_ref": 0.9, "band_GHz": [5.6, 6.3],
            "gamma1_table": [[5.2, 0.05], [5.8, 0.055], [6.4, 0.05]],
        },
    ],
}

#: one qubit whose band crosses both chi poles (4.70 and 4.90 GHz)
POLE_BAND_DEVICE = {
    "qubits": [{
        **TWO_QUBIT_DEVICE["qubits"][0], "band_GHz": [4.5, 6.3],
        "gamma1_table": [[4.4, 0.05], [5.8, 0.06], [6.4, 0.05]],
    }],
}

TINY_OPT = {
    "total_readout_time_ns": 500,
    "dt_ns": 1.0,
    "grid": {
        "n_omega": 4, "n_amp": 3, "n_tp": 2,
        "amp_min": 0.05, "amp_max": 0.30,
        "tp_min_ns": 250, "tp_max_ns": 400,
    },
    "pole_guard_GHz": 0.008,
}


@pytest.fixture
def device_path(tmp_path):
    path = tmp_path / "device.yaml"
    path.write_text(yaml.safe_dump(TWO_QUBIT_DEVICE))
    return path


@pytest.fixture
def opt_path(tmp_path):
    path = tmp_path / "opt.yaml"
    path.write_text(yaml.safe_dump(TINY_OPT))
    return path


@pytest.fixture
def results_path(device_path, opt_path, tmp_path):
    out = tmp_path / "run"
    run_optimize(device_path, opt_path, out)
    return out / "results.yaml"


def run_optimize(device_path, opt_path, out_dir, *extra):
    return main([
        "optimize", "--device", str(device_path),
        "--opt-config", str(opt_path), "--out", str(out_dir), *extra,
    ])


class TestValidate:
    def test_ok(self, device_path, capsys):
        assert main(["validate", "--device", str(device_path)]) == EXIT_OK
        assert "2 qubits" in capsys.readouterr().out

    def test_with_opt_config(self, device_path, opt_path, capsys):
        code = main(["validate", "--device", str(device_path),
                     "--opt-config", str(opt_path)])
        assert code == EXIT_OK
        assert "optimizer config ok" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--device",
                     str(tmp_path / "nope.yaml")]) == EXIT_IO

    def test_bad_device(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("qubits: [{row: 0}]")
        assert main(["validate", "--device", str(path)]) == EXIT_IO

    @pytest.mark.parametrize("flag", ["--device", "--opt-config"])
    def test_parse_failure_names_the_file(self, device_path, tmp_path, capsys, flag):
        bad = tmp_path / "bad.yaml"
        bad.write_text("qubits: [\n")
        args = {"--device": str(device_path), "--opt-config": None, flag: str(bad)}
        argv = ["validate"] + [a for k, v in args.items() if v for a in (k, v)]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: config parse failure: while parsing")

    def test_bad_device_value_names_the_field(self, tmp_path, capsys):
        raw = yaml.safe_load((CONFIG_DIR / "device_d3.yaml").read_text())
        raw["qubits"][1]["alpha_GHz"] = "x"
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--device", str(path)]) == EXIT_IO
        assert "qubit (0,3,measure): alpha_GHz: could not convert" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    @pytest.mark.parametrize("key, value, message", [
        ("g_eff", math.nan, "g_eff: must be finite, got nan"),
        ("amp_ref", math.inf, "amp_ref: must be finite, got inf"),
        ("kappa_MHz", math.inf, "kappa_MHz: must be finite, got inf"),
        ("f_r_GHz", math.nan, "f_r_GHz: must be finite, got nan"),
        ("f_r_GHz", -3.0, "f_r_GHz: must be > 0, got -3.0"),
        ("band_GHz", [math.nan, 6.4], "band_GHz: must be finite, got nan"),
        ("gamma1_table", [[3.0, 10.0], [6.0, math.nan], [9.0, 10.0]],
         "gamma1_table: must be finite, got nan"),
    ])
    def test_bad_device_number_names_the_field(self, tmp_path, capsys, command, key,
                                               value, message):
        raw = yaml.safe_load((CONFIG_DIR / "device_d3.yaml").read_text())
        raw["qubits"][1][key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = ["--out", str(tmp_path / "run")] if command == "optimize" else []
        assert main([command, "--device", str(path), *out]) == EXIT_IO
        assert capsys.readouterr().err == f"error: qubit (0,3,measure): {message}\n"

    def test_default_dt_checked_without_opt_config(self, tmp_path, capsys):
        raw = yaml.safe_load((CONFIG_DIR / "device_d3.yaml").read_text())
        raw["qubits"][1]["kappa_MHz"] = 20  # 1/kappa/10 = 0.8 ns < the default 1 ns
        path = tmp_path / "coarse.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--device", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dt_ns: qubit (0,3,measure): dt = 1.0 ns")

    def test_shipped_configs_validate(self):
        code = main([
            "validate",
            "--device", str(CONFIG_DIR / "device_d3.yaml"),
            "--opt-config", str(CONFIG_DIR / "optimizer.yaml"),
        ])
        assert code == EXIT_OK


@pytest.mark.parametrize("command", ["validate", "optimize"])
@pytest.mark.parametrize("start, message", [
    ([9, 9], "start_qubit: (9, 9) not on device"),
    ([1, 1], "start_qubit: (1, 1) is not a measure qubit"),
])
def test_bad_start_qubit_rejected_by_validate_and_optimize(tmp_path, capsys, command,
                                                           start, message):
    """A start qubit off d3, or on a data qubit, is the same config error,
    with the same message, in validate as in optimize, before any output."""
    opt = tmp_path / "opt.yaml"
    opt.write_text(yaml.safe_dump({**TINY_OPT, "start_qubit": start}))
    out = ["--out", str(tmp_path / "run")] if command == "optimize" else []
    assert main([command, "--device", str(CONFIG_DIR / "device_d3.yaml"),
                 "--opt-config", str(opt), *out]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


class TestOptimize:
    def test_writes_outputs(self, device_path, opt_path, tmp_path):
        out = tmp_path / "run"
        assert run_optimize(device_path, opt_path, out) == EXIT_OK
        raw = yaml.safe_load((out / "results.yaml").read_text())
        assert raw["strategy"] == "all"
        assert len(raw["qubits"]) == 2
        assert raw["evaluations"] == 2 * 4 * 3 * 2
        for row in raw["qubits"]:
            assert 5.6 <= row["f_q_GHz"] <= 6.3
            assert row["t_p_ns"] + row["t_r_ns"] == pytest.approx(500.0)
            assert math.isfinite(row["cost"]["total"])
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["total"]) == pytest.approx(
            raw["qubits"][0]["cost"]["total"])
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["command"] == "optimize"
        assert manifest["resolved_config"]["grid"]["n_omega"] == 4
        assert manifest["evaluations"] == raw["evaluations"]

    def test_prints_grid_points_and_scored(self, device_path, opt_path, tmp_path, capsys,
                                           monkeypatch):
        results, real = [], cli.optimize_device

        def spy(*args, **kw):
            results.append(real(*args, **kw))
            return results[-1]
        monkeypatch.setattr(cli, "optimize_device", spy)
        out = tmp_path / "run"
        assert run_optimize(device_path, opt_path, out) == EXIT_OK
        (result,) = results
        assert 0 < result.scored <= result.evaluations == 2 * 4 * 3 * 2
        line = (f"wrote {out / 'results.yaml'} ({result.evaluations} grid points, "
                f"{result.scored} scored, ")
        assert re.fullmatch(re.escape(line) + r"\d+\.\d ms\)\n", capsys.readouterr().out)
        for name in ("results.yaml", "manifest.yaml"):
            raw = yaml.safe_load((out / name).read_text())
            assert (raw["evaluations"], raw["scored"]) == (result.evaluations, result.scored)

    def test_round_trip(self, device_path, opt_path, tmp_path, monkeypatch):
        """results.yaml reads back to the float bits of each qubit's
        parameters and costs that optimize held, in the same order, under
        either strategy; the scored count is not written, so it reads back
        as 0."""
        held, optimize = [], cli.optimize_device
        monkeypatch.setattr(cli, "optimize_device",
                            lambda *a, **k: held.append(optimize(*a, **k)) or held[-1])

        def bits(obj):
            return [getattr(obj, f.name).hex() for f in dataclasses.fields(obj)]

        shipped = CONFIG_DIR / "device_d3.yaml"
        runs = [(device_path, opt_path), (shipped, CONFIG_DIR / "optimizer_small.yaml"),
                (shipped, CONFIG_DIR / "optimizer.yaml")]
        for k, ((device_file, opt_file), strategy) in enumerate(
                itertools.product(runs, ["all", "predictive"])):
            out = tmp_path / f"run{k}"
            assert run_optimize(device_file, opt_file, out, "--strategy", strategy) == EXIT_OK
            result = held.pop()
            text = (out / "results.yaml").read_text()
            back = result_from_dict(parse_with(cli._read_results, text))
            assert back.order == result.order
            assert back.per_qubit.keys() == result.per_qubit.keys()
            for qid, q in result.per_qubit.items():
                b = back.per_qubit[qid]
                assert bits(b.params) == bits(q.params), (k, qid)
                assert bits(b.breakdown) == bits(q.breakdown), (k, qid)
                assert (b.traversal_index, b.n_collision_specs) == (
                    q.traversal_index, q.n_collision_specs)
            assert (back.evaluations, back.scored) == (result.evaluations, 0)

    def test_predictive_strategy(self, device_path, opt_path, tmp_path):
        out = tmp_path / "run"
        code = run_optimize(device_path, opt_path, out,
                            "--strategy", "predictive")
        assert code == EXIT_OK
        raw = yaml.safe_load((out / "results.yaml").read_text())
        assert raw["strategy"] == "predictive"
        for row in raw["qubits"]:
            assert row["cost"]["mist"] == 0.0
            assert row["cost"]["coupling"] == 0.0

    def test_threads_flag_removed(self, device_path, opt_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_optimize(device_path, opt_path, tmp_path / "pool", "--threads", "2")
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "pool").exists()
        out = tmp_path / "run"
        assert run_optimize(device_path, opt_path, out) == EXIT_OK
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert "threads" not in manifest

    def test_bad_opt_config(self, device_path, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("grid: {n_omega: 0}")
        out = tmp_path / "run"
        assert run_optimize(device_path, bad, out) == EXIT_IO


class TestSweep:
    def test_frequency_sweep(self, device_path, opt_path, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--device", str(device_path),
            "--opt-config", str(opt_path),
            "--qubit", "0,0", "--axis", "frequency",
            "--min", "5.7", "--max", "6.2", "--points", "11",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert float(rows[0]["f_q_GHz"]) == pytest.approx(5.7)
        assert float(rows[-1]["f_q_GHz"]) == pytest.approx(6.2)
        with (out / "trajectory.csv").open() as fh:
            traj = list(csv.DictReader(fh))
        assert float(traj[0]["t_ns"]) == 0.0
        assert float(traj[0]["n0"]) == 0.0
        assert len(traj) == 501  # 500 ns at dt = 1
        assert (out / "manifest.yaml").exists()

    def test_amplitude_sweep_quadratic_snr(self, device_path, opt_path,
                                           tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--device", str(device_path),
            "--opt-config", str(opt_path),
            "--qubit", "0,1", "--axis", "amplitude",
            "--min", "0.1", "--max", "0.2", "--points", "2",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[1]["snr"]) == pytest.approx(
            4 * float(rows[0]["snr"]), rel=1e-9)

    def test_length_sweep_reports_simulated_lengths(self, device_path,
                                                    opt_path, tmp_path):
        # 121 points over 100..480 ns lie off the 1 ns grid (103.1667, ...);
        # each row reports the multiple of dt that solve_field simulates
        rows = self._sweep(device_path, opt_path, tmp_path, "--axis", "length",
                           "--min", "100", "--max", "480", "--points", "121")
        tps = [float(r["t_p_ns"]) for r in rows]
        assert tps == sorted(set(tps))
        assert tps == [float(t) for t in np.unique(np.rint(np.linspace(100, 480, 121)))]
        assert all(float(r["t_r_ns"]) == 500.0 - t for r, t in zip(rows, tps))
        q = load_device(device_path.read_text()).qubits[QubitId(0, 0)]
        model = load_optimizer_config(opt_path.read_text()).model
        for r, t_p in zip(rows, tps):
            params = ReadoutParams(ghz_to_rad_ns(float(r["f_q_GHz"])),
                                   float(r["B0"]), t_p, 500.0 - t_p)
            bd = evaluate_cost(q, params, model)
            assert float(r["snr"]) == bd.snr
            assert float(r["relaxation_error"]) == bd.relaxation

    def test_pinned_length_snapped_to_dt(self, device_path, opt_path, tmp_path):
        rows = self._sweep(device_path, opt_path, tmp_path, "--axis", "amplitude",
                           "--min", "0.1", "--max", "0.2", "--points", "2",
                           "--pin-tp-ns", "290.4")
        assert [float(r["t_p_ns"]) for r in rows] == [290.0, 290.0]
        manifest = yaml.safe_load((tmp_path / "sweep" / "manifest.yaml").read_text())
        assert manifest["pins"]["t_p_ns"] == 290.0

    @pytest.mark.parametrize("args", [
        (("--axis", "length", "--min", "100.2", "--max", "100.7", "--points", "3"),
         "--min/--max: pulse-length range [100.2, 100.7] ns holds no positive "
         "multiple of dt_ns = 1.0"),
        (("--axis", "amplitude", "--min", "0.1", "--max", "0.2", "--points", "2",
          "--pin-tp-ns", "0.4"),
         "--pin-tp-ns: pulse length 0.4 ns rounds to 0.0 ns at dt_ns = 1.0, "
         "outside (0, 500.0] ns"),
    ])
    def test_lengths_off_the_grid_rejected(self, device_path, opt_path,
                                           tmp_path, capsys, args):
        args, message = args
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", *args,
                     "--out", str(tmp_path / "sweep")]) == EXIT_IO
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_trajectory_photon_numbers_as_max_photon_forms_them(
            self, device_path, opt_path, tmp_path):
        self._sweep(device_path, opt_path, tmp_path, "--axis", "frequency",
                    "--min", "5.7", "--max", "6.2", "--points", "2")
        with (tmp_path / "sweep" / "trajectory.csv").open() as fh:
            traj = list(csv.DictReader(fh))
        for row in traj:
            for n, re, im in (("n0", "re_beta0", "im_beta0"),
                              ("n1", "re_beta1", "im_beta1")):
                x, y = float(row[re]), float(row[im])
                assert float(row[n]) == x * x + y * y

    def _sweep(self, device_path, opt_path, tmp_path, *args):
        out = tmp_path / "sweep"
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", *args,
                     "--out", str(out)]) == EXIT_OK
        with (out / "sweep.csv").open() as fh:
            return list(csv.DictReader(fh))

    @pytest.mark.parametrize("axis, lo, hi", [
        ("amplitude", "0.3", "-0.1"), ("length", "400", "100"),
        ("frequency", "6.2", "5.7")])
    def test_min_above_max_rejected(self, device_path, opt_path, tmp_path,
                                    capsys, axis, lo, hi):
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--axis", axis,
                     "--min", lo, "--max", hi, "--points", "3",
                     "--out", str(tmp_path / "sweep")]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"--min ({float(lo)}) must be <= --max ({float(hi)})" in err

    @staticmethod
    def _assert_rows_equal_cold_evaluate_cost(device, opt_path, out):
        """Every sweep.csv field equals cold evaluate_cost's bit for bit;
        returns the breakdowns."""
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        q = load_device(device.read_text()).qubits[QubitId(0, 0)]
        model = load_optimizer_config(opt_path.read_text()).model
        breakdowns = []
        for r in rows:
            params = ReadoutParams(ghz_to_rad_ns(float(r["f_q_GHz"])), float(r["B0"]),
                                   float(r["t_p_ns"]), float(r["t_r_ns"]))
            bd = evaluate_cost(q, params, model)
            got = [float(r[k]) for k in ("separation_error", "relaxation_error",
                                         "residual_photons", "n_max", "snr",
                                         "mist", "coupling")]
            want = [bd.separation, bd.relaxation, bd.photon, bd.n_max, bd.snr,
                    bd.mist, bd.coupling]
            np.testing.assert_array_equal(np.array(got).view(np.int64),
                                          np.array(want).view(np.int64))
            breakdowns.append((params, bd))
        return q, model, breakdowns

    def test_frequency_rows_equal_cold_evaluate_cost(self, opt_path, tmp_path):
        # 150 rows: two kernel calls, with rows inside the pole guard and
        # rows whose |chi| is too large for dt among them
        device = tmp_path / "poles.yaml"
        device.write_text(yaml.safe_dump(POLE_BAND_DEVICE))
        out = tmp_path / "sweep"
        assert main(["sweep", "--device", str(device), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--axis", "frequency",
                     "--min", "4.5", "--max", "6.3", "--points", "150",
                     "--pin-f-ghz", "6.0", "--out", str(out)]) == EXIT_OK
        q, model, breakdowns = self._assert_rows_equal_cold_evaluate_cost(
            device, opt_path, out)
        kinds = set()
        for (params, _), f in zip(breakdowns, np.linspace(4.5, 6.3, 150), strict=True):
            assert params.omega_q == ghz_to_rad_ns(float(f))
            try:
                _check_step(dispersive_shift(q, params.omega_q, model.pole_guard),
                            q.kappa, model.dt)
                kinds.add("ok")
            except (PoleProximityError, DetuningStepError) as exc:
                kinds.add(type(exc))
        assert kinds == {"ok", PoleProximityError, DetuningStepError}

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)
        real = cli.cost_plane
        monkeypatch.setattr(cli, "cost_plane", counting)
        return calls

    def test_amplitude_rows_equal_cold_evaluate_cost(self, device_path, opt_path,
                                                     tmp_path, monkeypatch):
        # two kernel calls, across the chunk boundary; from zero drive, with
        # no SNR, to drives whose Stark trace leaves the Gamma1 table
        calls = self._count_kernel_calls(monkeypatch)
        out = tmp_path / "sweep"
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--axis", "amplitude",
                     "--min", "0", "--max", "12", "--points", str(SWEEP_CHUNK + 22),
                     "--pin-f-ghz", "5.65", "--out", str(out)]) == EXIT_OK
        _, _, breakdowns = self._assert_rows_equal_cold_evaluate_cost(
            device_path, opt_path, out)
        assert len(calls) == 2 and len(breakdowns) == SWEEP_CHUNK + 22
        assert breakdowns[0][1].snr == 0.0
        assert any(math.isnan(bd.relaxation) and bd.snr > 0.0 for _, bd in breakdowns)
        assert any(math.isfinite(bd.total) and bd.snr > 0.0 for _, bd in breakdowns)

    def test_length_rows_equal_cold_evaluate_cost(self, device_path, opt_path,
                                                  tmp_path, monkeypatch):
        # two kernel calls, across the chunk boundary; from pulses whose
        # half-SNR time lies in the ringdown to a pulse without one
        calls = self._count_kernel_calls(monkeypatch)
        out = tmp_path / "sweep"
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--axis", "length",
                     "--min", "1", "--max", "500", "--points", str(SWEEP_CHUNK + 22),
                     "--out", str(out)]) == EXIT_OK
        _, _, breakdowns = self._assert_rows_equal_cold_evaluate_cost(
            device_path, opt_path, out)
        assert len(calls) == 2 and len(breakdowns) == SWEEP_CHUNK + 22
        assert any(bd.t0 > params.t_p for params, bd in breakdowns)
        assert breakdowns[-1][0].t_r == 0.0

    def test_kappa_too_coarse_for_dt_rejected(self, opt_path, tmp_path, capsys):
        raw = {"qubits": [{**POLE_BAND_DEVICE["qubits"][0], "kappa_MHz": 20.0}]}
        device = tmp_path / "coarse.yaml"
        device.write_text(yaml.safe_dump(raw))
        assert main(["sweep", "--device", str(device), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--axis", "frequency",
                     "--min", "4.5", "--max", "6.3", "--points", "50",
                     "--out", str(tmp_path / "sweep")]) == EXIT_IO
        assert capsys.readouterr().err == (
            "error: dt_ns: qubit (0,0,measure): dt = 1.0 ns too coarse; "
            "need dt <= 1/kappa/10 = 0.7958 ns\n")

    @pytest.mark.parametrize("pin_f_ghz, axis, lo, hi", [
        ("4.70", "amplitude", "0.1", "0.2"),   # inside the pole guard
        ("4.95", "amplitude", "0.1", "0.2"),   # |chi| too large for dt
        ("4.95", "length", "100", "400"),
        ("4.70", "frequency", "5.7", "6.2"),
    ])
    def test_infeasible_pin_rejected_before_any_output(
            self, opt_path, tmp_path, capsys, pin_f_ghz, axis, lo, hi):
        device = tmp_path / "poles.yaml"
        device.write_text(yaml.safe_dump(POLE_BAND_DEVICE))
        out = tmp_path / "sweep"
        assert main(["sweep", "--device", str(device), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--axis", axis,
                     "--min", lo, "--max", hi, "--points", "3",
                     "--pin-f-ghz", pin_f_ghz, "--out", str(out)]) == EXIT_IO
        assert "error: " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("args, message", [
        (("--axis", "frequency", "--min", "4.0", "--max", "6.2"),
         "--min (4.0) outside search band"),
        (("--axis", "frequency", "--min", "5.7", "--max", "7.5"),
         "--max (7.5) outside search band"),
        (("--axis", "length", "--min", "0", "--max", "400"),
         "--min must be > 0, got 0.0"),
        (("--axis", "length", "--min", "100", "--max", "600"),
         "--max (600.0) outside (0, 500.0] ns"),
        (("--axis", "amplitude", "--min", "-0.1", "--max", "0.2"),
         "--min must be >= 0, got -0.1"),
        (("--axis", "amplitude", "--min", "0.1", "--max", "0.2", "--points", "0"),
         "--points must be >= 1, got 0"),
        (("--axis", "amplitude", "--min", "0.1", "--max", "0.2", "--points", "1"),
         "--points 1 requires --min == --max, got 0.1 and 0.2"),
    ])
    def test_range_error_names_flag_and_value(self, device_path, opt_path, tmp_path,
                                              capsys, args, message):
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--points", "3", *args,
                     "--out", str(tmp_path / "sweep")]) == EXIT_IO
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_out_of_band_rejected(self, device_path, opt_path, tmp_path):
        code = main([
            "sweep", "--device", str(device_path),
            "--opt-config", str(opt_path),
            "--qubit", "0,0", "--axis", "frequency",
            "--min", "4.0", "--max", "6.2", "--points", "5",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("args, message", [
        (("--axis", "frequency", "--min", "5.7", "--max", "6.2",
          "--pin-f-ghz", "99"), "--pin-f-ghz (99.0) outside search band"),
        (("--axis", "amplitude", "--min", "0.1", "--max", "0.2",
          "--pin-amp=-1"), "--pin-amp must be >= 0, got -1.0"),
    ])
    def test_pin_out_of_range_rejected(self, device_path, opt_path, tmp_path,
                                       capsys, args, message):
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--points", "2", *args,
                     "--out", str(tmp_path / "sweep")]) == EXIT_IO
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag, value", [
        (("--axis", "amplitude", "--min", "0", "--max", "inf"), "--max", "inf"),
        (("--axis", "amplitude", "--min", "0.1", "--max", "0.2", "--pin-f-ghz", "nan"),
         "--pin-f-ghz", "nan"),
        (("--axis", "amplitude", "--min", "nan", "--max", "nan", "--points", "1"),
         "--min", "nan"),
        (("--axis", "frequency", "--min", "5.7", "--max", "6.2", "--pin-amp", "inf"),
         "--pin-amp", "inf"),
        (("--axis", "amplitude", "--min", "0.1", "--max", "0.2", "--pin-tp-ns=-inf"),
         "--pin-tp-ns", "-inf"),
    ])
    def test_non_finite_input_rejected(self, device_path, opt_path, tmp_path,
                                       capsys, args, flag, value):
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", *args,
                     "--out", str(tmp_path / "sweep")]) == EXIT_IO
        assert f"error: {flag} must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_unknown_qubit_rejected(self, device_path, opt_path, tmp_path):
        code = main([
            "sweep", "--device", str(device_path),
            "--opt-config", str(opt_path),
            "--qubit", "5,5", "--axis", "amplitude",
            "--min", "0.1", "--max", "0.2", "--points", "2",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == EXIT_IO


@pytest.mark.parametrize("flag", ["--device", "--opt-config", "--results"])
def test_undecodable_file_named_once(device_path, opt_path, tmp_path, capsys, flag):
    """A file that is not UTF-8 exits 2 with its path named once."""
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xffqubits: []\n")
    if flag == "--results":
        argv = ["benchmark", "--device", str(device_path), "--results", str(bad),
                "--n-states", "5", "--n-shots", "10", "--out", str(tmp_path / "bench")]
    else:
        args = {"--device": str(device_path), "--opt-config": str(opt_path), flag: str(bad)}
        argv = ["optimize", *(a for k, v in args.items() for a in (k, v)),
                "--out", str(tmp_path / "run2")]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count(str(bad)) == 1


class TestBenchmark:
    def test_writes_outputs(self, device_path, results_path, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--device", str(device_path),
            "--results", str(results_path),
            "--n-states", "20", "--n-shots", "100",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        for name in ("per_qubit_errors.csv", "cross_fidelity.csv",
                     "cross_fidelity_hist.csv", "budget.csv", "report.txt",
                     "manifest.yaml"):
            assert (out / name).exists()
        with (out / "per_qubit_errors.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= float(row["error"]) <= 0.5
        budget = {r["component"]: float(r["probability"])
                  for r in csv.DictReader((out / "budget.csv").open())}
        modeled = (budget["separation"] + budget["state_prep"]
                   + budget["relaxation"] + budget["unknown"])
        assert modeled == pytest.approx(budget["observed"], abs=1e-12)
        report = (out / "report.txt").read_text()
        assert "mean measurement error" in report

    def test_deterministic_across_runs(self, device_path, results_path,
                                       tmp_path):
        args = [
            "benchmark", "--device", str(device_path),
            "--results", str(results_path),
            "--n-states", "10", "--n-shots", "100", "--seed", "42",
        ]
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "per_qubit_errors.csv").read_text() == \
            (out2 / "per_qubit_errors.csv").read_text()
        assert (out1 / "cross_fidelity.csv").read_text() == \
            (out2 / "cross_fidelity.csv").read_text()
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_results_device_mismatch(self, results_path, tmp_path, capsys):
        other = dict(TWO_QUBIT_DEVICE)
        other["qubits"] = TWO_QUBIT_DEVICE["qubits"][:1]
        other_path = tmp_path / "other.yaml"
        other_path.write_text(yaml.safe_dump(other))
        code = main([
            "benchmark", "--device", str(other_path),
            "--results", str(results_path),
            "--n-states", "5", "--n-shots", "10",
            "--out", str(tmp_path / "bench"),
        ])
        assert code == EXIT_IO
        assert ("error: results file does not match the device: 1 mismatched qubits, "
                "the first (0,1) only in the results file\n") in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_results_role_mismatch(self, device_path, results_path, tmp_path, capsys):
        """QubitId equality ignores the role, so the roles are compared on
        their own; the first qubit at fault is named with both roles."""
        text = results_path.read_text()
        assert text.count("role: measure") == 1
        edited = tmp_path / "edited.yaml"
        edited.write_text(text.replace("role: measure", "role: data"))
        code = main([
            "benchmark", "--device", str(device_path),
            "--results", str(edited),
            "--n-states", "5", "--n-shots", "10",
            "--out", str(tmp_path / "bench"),
        ])
        assert code == EXIT_IO
        assert ("error: results file does not match the device: qubit (0,0) is data "
                "in the results file, measure in the device\n") in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_empty_subset_rejected_before_any_output(self, opt_path, tmp_path,
                                                      capsys):
        data_only = {"qubits": [{**q, "role": "data"}
                                for q in TWO_QUBIT_DEVICE["qubits"]]}
        device = tmp_path / "data_only.yaml"
        device.write_text(yaml.safe_dump(data_only))
        assert run_optimize(device, opt_path, tmp_path / "run") == EXIT_OK
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--device", str(device),
            "--results", str(tmp_path / "run" / "results.yaml"),
            "--subset", "measure", "--n-states", "5", "--n-shots", "10",
            "--out", str(out),
        ])
        assert code == EXIT_IO
        assert "subset 'measure' selects no qubit" in capsys.readouterr().err
        assert not out.exists()


    def test_one_state_qubit_named_before_any_output(self, device_path, results_path,
                                                      tmp_path, capsys):
        # seed 21 prepares qubit (0,0) in |1>, |0>, |1> and qubit (0,1) in |0> only
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--device", str(device_path),
            "--results", str(results_path),
            "--n-states", "3", "--n-shots", "10", "--seed", "21",
            "--out", str(out),
        ])
        assert code == EXIT_IO
        assert ("error: n_states=3 prepares qubit (0,1) only in |0>: "
                "both prepared values must be represented") in capsys.readouterr().err
        assert not out.exists()

    def test_tallies_beyond_2_53_rejected(self, device_path, results_path, tmp_path,
                                          capsys):
        out = tmp_path / "bench"
        code = main([
            "benchmark", "--device", str(device_path),
            "--results", str(results_path),
            "--n-states", "2", "--n-shots", str(2**52 + 1),
            "--out", str(out),
        ])
        assert code == EXIT_IO
        assert ("error: n_states * n_shots must be <= 2**53 for exact tallies, "
                f"got 2 * {2**52 + 1}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--n-states", "0"), "n_states must be > 0, got 0"),
        (("--n-shots", "-5"), "n_shots must be > 0, got -5"),
        (("--prep-error", "nan"), "prep_error must be a probability, got nan"),
    ])
    def test_bad_flag_named_before_any_output(self, device_path, results_path, tmp_path,
                                              capsys, args, message):
        out = tmp_path / "bench"
        assert main(["benchmark", "--device", str(device_path),
                     "--results", str(results_path), "--n-states", "5",
                     "--n-shots", "10", *args, "--out", str(out)]) == EXIT_IO
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()


class TestPulseRangeBelowOneStep:
    """A pulse-length range that starts above 0 ns but below one step of dt
    holds no 0 ns pulse: its first pulse length is one step."""

    def opt(self, tmp_path, lo, hi):
        path = tmp_path / "opt_short.yaml"
        path.write_text(yaml.safe_dump(
            {**TINY_OPT, "grid": {**TINY_OPT["grid"], "tp_min_ns": lo, "tp_max_ns": hi}}))
        return path

    def test_validate_and_optimize(self, device_path, tmp_path, capsys):
        opt = self.opt(tmp_path, 1e-10, 5.0)
        assert main(["validate", "--device", str(device_path),
                     "--opt-config", str(opt)]) == EXIT_OK
        assert "optimizer config ok" in capsys.readouterr().out
        assert run_optimize(device_path, opt, tmp_path / "run") == EXIT_OK
        results = yaml.safe_load((tmp_path / "run" / "results.yaml").read_text())
        assert {row["t_p_ns"] for row in results["qubits"]} <= {1.0, 5.0}

    def test_length_sweep(self, device_path, opt_path, tmp_path):
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", "--axis", "length",
                     "--min", "1e-10", "--max", "4", "--points", "3",
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        with (tmp_path / "sweep" / "sweep.csv").open(newline="") as fh:
            assert [float(r["t_p_ns"]) for r in csv.DictReader(fh)] == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("command", ["validate", "optimize", "sweep"])
    def test_range_without_a_positive_step_rejected(self, device_path, opt_path,
                                                    tmp_path, capsys, command):
        argv = [command, "--device", str(device_path), "--opt-config",
                str(self.opt(tmp_path, 1e-10, 0.5))]
        if command == "optimize":
            argv += ["--out", str(tmp_path / "out")]
        elif command == "sweep":
            argv = [command, "--device", str(device_path), "--opt-config",
                    str(opt_path), "--qubit", "0,0", "--axis", "length", "--min",
                    "1e-10", "--max", "0.5", "--points", "3", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_IO
        field = "--min/--max" if command == "sweep" else "grid.tp_min_ns"
        assert (f"error: {field}: pulse-length range [1e-10, 0.5] ns holds no positive "
                "multiple of dt_ns = 1.0") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRerunIntoSameOut:
    """A rerun into an existing --out rewrites every output file."""

    @pytest.fixture
    def commands(self, device_path, opt_path, results_path):
        return {
            "optimize": ["optimize", "--device", str(device_path),
                         "--opt-config", str(opt_path)],
            "sweep": ["sweep", "--device", str(device_path),
                      "--opt-config", str(opt_path), "--qubit", "0,1",
                      "--axis", "amplitude", "--min", "0.1", "--max", "0.2",
                      "--points", "3"],
            "benchmark": ["benchmark", "--device", str(device_path),
                          "--results", str(results_path),
                          "--n-states", "10", "--n-shots", "100"],
        }

    @staticmethod
    def contents(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", ["optimize", "sweep", "benchmark"])
    def test_rerun_gives_the_same_bytes(self, commands, tmp_path, command):
        out = tmp_path / "out"
        assert main(commands[command] + ["--out", str(out)]) == EXIT_OK
        first = self.contents(out)
        assert main(commands[command] + ["--out", str(out)]) == EXIT_OK
        assert self.contents(out) == first

    @pytest.mark.parametrize("command", ["optimize", "sweep", "benchmark"])
    def test_longer_stale_files_fully_replaced(self, commands, tmp_path, command):
        fresh = tmp_path / "fresh"
        assert main(commands[command] + ["--out", str(fresh)]) == EXIT_OK
        out = tmp_path / "out"
        out.mkdir()
        for name, data in self.contents(fresh).items():
            (out / name).write_bytes(b"stale," * (len(data) + 100))
        assert main(commands[command] + ["--out", str(out)]) == EXIT_OK
        assert self.contents(out) == self.contents(fresh)


class TestWriteCsv:
    VALUES = (0, 7, -3, 2**60, 0.1, -2.5, np.float64(1 / 3), float("nan"),
              float("inf"), float("-inf"), -0.0, np.float64(-0.0), 5e-324, 1e16,
              1e22, np.float64(1e22), np.float64("nan"), 1.0, "measure", "t0_ns")

    @staticmethod
    def csv_writer_bytes(path, header, rows):
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 5])
    def test_bytes_equal_csv_writer(self, tmp_path, n_rows):
        header = [f"c{k}" for k in range(len(self.VALUES))]
        # row k rotates the values by k places
        rows = [self.VALUES[k:] + self.VALUES[:k] for k in range(n_rows)]
        cli._write_csv(tmp_path / "fast.csv", header, rows)
        expected = self.csv_writer_bytes(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "fast.csv").read_bytes() == expected


class TestCrossFidelityCsv:
    """cross_fidelity.csv has csv.writer's bytes: undefined (NaN) pairs and
    the awkward floats of TestWriteCsv included."""

    @pytest.mark.parametrize("n_qubits", [1, 2, 5])
    def test_bytes_equal_csv_writer(self, tmp_path, n_qubits):
        qubits = [QubitId(k // 3, 10 * (k % 3) - 1, Role.MEASURE if k % 2 else Role.DATA)
                  for k in range(n_qubits)]
        values = [float("nan"), -0.0, 5e-324, 1e22, np.float64(1e22), 0.1, -2.5,
                  np.float64(1 / 3), float("inf"), 1e16, 1.0]
        f = np.array([[values[(3 * i + j) % len(values)] for j in range(n_qubits)]
                      for i in range(n_qubits)])
        np.fill_diagonal(f, np.nan)
        report = BenchmarkReport(
            config=BenchmarkConfig(), qubits=qubits,
            p10={q: 0.0 for q in qubits}, p01={q: 0.0 for q in qubits},
            error={q: 0.0 for q in qubits}, cross_fidelity=f, undefined_pairs=[],
            budget=ErrorBudget(0.0, 0.0, 0.0, 0.0, 0.0))
        cli._write_benchmark_outputs(tmp_path, report)
        rows = [(qi.row, qi.col, qj.row, qj.col, f[i, j])
                for i, qi in enumerate(qubits) for j, qj in enumerate(qubits) if i != j]
        expected = TestWriteCsv.csv_writer_bytes(
            tmp_path / "ref.csv", ["row_i", "col_i", "row_j", "col_j", "F_ij"], rows)
        written = (tmp_path / "cross_fidelity.csv").read_bytes()
        assert written == expected
        if n_qubits == 5:
            for text in (b",nan\r\n", b",-0.0\r\n", b",5e-324\r\n", b",1e+22\r\n"):
                assert text in written

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 6])
    def test_histogram_bytes_equal_sorted_abs_values(self, tmp_path, n_qubits):
        """cross_fidelity_hist.csv and report.txt's mean |F| are those of the
        sorted finite |F_ij| written by csv.writer, on undefined (NaN) pairs,
        infinities, -0.0 beside 0.0, subnormals and equal |F| of either sign."""
        qubits = [QubitId(0, k, Role.DATA) for k in range(n_qubits)]
        values = [0.25, float("nan"), -0.0, -0.25, 5e-324, 0.0, -5e-324, float("-inf"),
                  1 / 3, -1e-310, 0.25, -1 / 3, 1e22, float("nan"), -0.125]
        f = np.array([[values[(5 * i + j) % len(values)] for j in range(n_qubits)]
                      for i in range(n_qubits)])
        np.fill_diagonal(f, np.nan)
        report = BenchmarkReport(
            config=BenchmarkConfig(), qubits=qubits,
            p10={q: 0.0 for q in qubits}, p01={q: 0.0 for q in qubits},
            error={q: 0.0 for q in qubits}, cross_fidelity=f, undefined_pairs=[],
            budget=ErrorBudget(0.0, 0.0, 0.0, 0.0, 0.0))
        cli._write_benchmark_outputs(tmp_path, report)
        offdiag = f[~np.eye(n_qubits, dtype=bool)]
        absf = np.sort(np.abs(offdiag[np.isfinite(offdiag)]))
        expected = TestWriteCsv.csv_writer_bytes(
            tmp_path / "ref.csv", ["abs_F", "cumulative_fraction"],
            [(v, (k + 1) / len(absf)) for k, v in enumerate(absf.tolist())])
        assert (tmp_path / "cross_fidelity_hist.csv").read_bytes() == expected
        mean = float(np.mean(absf)) if len(absf) else float("nan")
        assert f"mean |F_ij|: {mean:.5f}\n" in (tmp_path / "report.txt").read_text()
        if n_qubits == 6:
            written = expected.decode()
            for text in ("\r\n0.0,", "\r\n5e-324,", "\r\n1e-310,", "\r\n0.25,"):
                assert text in written


def _set(path, value):
    """Edit of a results dict: set the value at a key path, None deletes it."""
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return edit


class TestBadResultsFile:
    """benchmark --results on a bad file exits 2, naming the file and key."""

    def run_benchmark(self, device_path, results_path, tmp_path):
        return main([
            "benchmark", "--device", str(device_path),
            "--results", str(results_path),
            "--n-states", "5", "--n-shots", "10",
            "--out", str(tmp_path / "bench"),
        ])

    @pytest.mark.parametrize("text, message", [
        ("qubits: [", "while parsing"),
        ("qubits: [{row: 0}]", "qubits[0].col: missing"),
        ("qubits: [{row: 0, col: x, role: data}]", "qubits[0].col: must be an integer"),
        ("", "qubits: missing"),
        ("qubits: 5", "qubits: must be a list"),
    ])
    def test_malformed(self, device_path, tmp_path, capsys, text, message):
        bad = tmp_path / "results.yaml"
        bad.write_text(text)
        assert self.run_benchmark(device_path, bad, tmp_path) == EXIT_IO
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err
        assert message in err

    @pytest.mark.parametrize("edit, message", [
        (_set(("qubits", 0, "cost", "snr"), float("nan")),
         "qubit (0,0): cost.snr: must be finite and >= 0, got nan"),
        (_set(("qubits", 1, "cost", "relaxation"), -0.1),
         "qubit (0,1): cost.relaxation: must be finite and >= 0, got -0.1"),
        (_set(("qubits", 1, "cost", "coupling"), float("inf")),
         "qubit (0,1): cost.coupling: must be finite and >= 0, got inf"),
        (_set(("qubits", 0, "cost", "snr"), "high"),
         "qubit (0,0): cost.snr: could not convert"),
        (_set(("qubits", 0, "cost", "t0_ns"), None),
         "qubit (0,0): cost.t0_ns: missing"),
        (_set(("qubits", 1, "B0"), None), "qubit (0,1): B0: missing"),
        (_set(("qubits", 0, "role"), "ancilla"), "qubits[0].role: "),
        (_set(("evaluations",), None), "evaluations: missing"),
        (_set(("evaluations",), True), "evaluations: must be an integer, got True"),
        (_set(("qubits", 0, "row"), 0.5), "qubits[0].row: must be an integer, got 0.5"),
        (_set(("qubits", 1, "col"), True), "qubits[1].col: must be an integer, got True"),
        (_set(("qubits", 1, "traversal_index"), "1"),
         "qubit (0,1): traversal_index: must be an integer, got '1'"),
        (_set(("qubits", 0, "n_collision_specs"), 2.5),
         "qubit (0,0): n_collision_specs: must be an integer, got 2.5"),
        (lambda raw: raw["qubits"].append(dict(raw["qubits"][0])),
         "qubit (0,0): duplicate entry"),
    ])
    def test_bad_entry(self, device_path, results_path, tmp_path, capsys,
                       edit, message):
        raw = yaml.safe_load(results_path.read_text())
        edit(raw)
        results_path.write_text(yaml.safe_dump(raw, sort_keys=False))
        assert self.run_benchmark(device_path, results_path, tmp_path) == EXIT_IO
        assert f"error: {results_path}: {message}" in capsys.readouterr().err


class TestDumpYaml:
    """The libyaml emitter writes every output as yaml.safe_dump does."""

    def test_results_file(self, results_path):
        self.assert_dumpers_agree(yaml.safe_load(results_path.read_text()))

    def test_manifest_with_awkward_path(self):
        path = "/tmp/run dir: 'quoted' \"twice\"/résumé µs/" + "x" * 90 + "/results.yaml"
        self.assert_dumpers_agree({"version": "1", "command": "benchmark",
                                   "results": path, "seed": 0, "prep_error": 0.0})

    @staticmethod
    def assert_dumpers_agree(data):
        assert dump_yaml(data) == yaml.safe_dump(data, sort_keys=False)


def _outcome(load, text):
    """("value", what load(text) returns) or ("error", (type, message))."""
    try:
        return "value", load(text)
    except Exception as exc:  # the exception is the outcome
        return "error", (type(exc), str(exc))


def _assert_same_objects(actual, expected):
    """actual and expected are equal by type and repr, NaN-aware, and share
    objects alike: two places that hold one list, dict or float in expected
    hold one in actual, and two that hold distinct ones hold distinct ones."""
    forward, backward = {}, {}

    def walk(a, e, at):
        assert type(a) is type(e), at
        if isinstance(e, (list, dict, float)):
            seen = id(e) in forward
            assert forward.setdefault(id(e), a) is a, f"{at}: alias lost"
            assert backward.setdefault(id(a), e) is e, f"{at}: objects merged"
            if seen:  # compared where first met; a recursive one stops here
                return
        if isinstance(e, dict):
            assert len(a) == len(e), at
            for (ka, va), (ke, ve) in zip(a.items(), e.items()):
                walk(ka, ke, f"{at}.key")
                walk(va, ve, f"{at}[{ke!r}]")
        elif isinstance(e, list):
            assert len(a) == len(e), at
            for k, (va, ve) in enumerate(zip(a, e)):
                walk(va, ve, f"{at}[{k}]")
        else:
            assert repr(a) == repr(e), at
            if isinstance(e, float):  # the sign of a NaN too
                assert math.copysign(1.0, a) == math.copysign(1.0, e), at

    walk(actual, expected, "document")


def _assert_matches_safe_loader(text):
    expected = _outcome(lambda t: yaml.load(t, Loader=yaml.SafeLoader), text)
    actual = _outcome(parse_yaml, text)
    assert actual[0] == expected[0], (actual, expected)
    if expected[0] == "error":
        assert actual[1] == expected[1]
    else:
        _assert_same_objects(actual[1], expected[1])
    return actual


#: nested values that safe_dump writes: str, int, float, bool and None,
#: in lists and in dicts with scalar keys; [x, x] shares x, which safe_dump
#: writes as an anchor and an alias when x is a list or dict
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_SCALARS, inner, max_size=4)
                   | inner.map(lambda x: [x, x])),
    max_leaves=24)


class TestParseYaml:
    """parse_yaml returns and raises what yaml.load(text, Loader=yaml.SafeLoader)
    does."""

    @pytest.mark.parametrize("name", [
        "device_d3.yaml", "optimizer.yaml", "optimizer_small.yaml"])
    def test_shipped_configs(self, name):
        text = (CONFIG_DIR / name).read_text()
        self.assert_loaders_agree(text)

    def test_results_file(self, results_path):
        self.assert_loaders_agree(results_path.read_text())

    @staticmethod
    def assert_loaders_agree(text):
        kind, value = _assert_matches_safe_loader(text)
        assert kind == "value" and value
        if hasattr(yaml, "CSafeLoader"):
            assert yaml.load(text, Loader=yaml.CSafeLoader) == value

    @pytest.mark.parametrize("text", [
        "base: &b {x: 1, y: 2}\nderived: {<<: *b, y: 3}\n",  # merge key
        "when: 2001-12-14\nlist: [1, 2001-12-14]\n",  # implicit date
        "at: 2001-12-14t21:59:43.10-05:00\n",  # implicit timestamp
        "data: !!binary aGVsbG8=\n",
        "names: !!set {a, b}\n",
        "pairs: !!omap [{a: 1}, {b: 2}]\n",
        "? [1, 2]\n: pair\n",  # non-scalar key
        "? {a: 1}\n: pair\n",
        "x: !local 1\n",  # local tag
        "=: value key\n",
        "- =\n",
    ])
    def test_documents_handed_to_safe_constructor(self, text):
        _assert_matches_safe_loader(text)

    @pytest.mark.parametrize("scalar, value", [
        (".inf", math.inf), ("-.Inf", -math.inf), (".NaN", math.nan),
        ("1_000.5", 1000.5), ("1:30.5", 90.5), ("1e3", "1e3"), ("+.5", "+.5"),
        ("-0.0", -0.0), ("0x1F", 31), ("0o17", "0o17"), ("yes", True),
        ("off", False), ("~", None), ("017", 15), ("-017", -15), ("00", 0), ("-0", 0),
        ("017.5", 17.5), ("-0b101", -5), ("1:30", 90),
        ("1_000", 1000), ("2.5e-3", 0.0025), ("6.02E+23", 6.02e23), ("1.", 1.0),
        ("123", 123), ("''", ""), ("'1.5'", "1.5"), ("Null", None), ("TRUE", True),
    ])
    def test_scalar(self, scalar, value):
        text = f"value: {scalar}\nlist: [{scalar}]\n{scalar}: key\n"
        kind, doc = _assert_matches_safe_loader(text)
        assert kind == "value"
        assert repr(doc["value"]) == repr(value)
        assert type(doc["list"][0]) is type(value)

    @pytest.mark.parametrize("text, value", [
        ("!!float 1", 1.0), ("!!str 1.5", "1.5"), ("!!int '12'", 12),
        ("!!float '-0'", -0.0), ("!!bool 'on'", True), ("!!null ''", None),
        ("!!float 1_0", 10.0), ("!!float .5", 0.5), ("!!float -nan", math.nan),
        ("!!float -inf", -math.inf), ("!!int 1_0", 10), ("!!int '0_7'", 7),
    ])
    def test_tagged_scalar(self, text, value):
        assert repr(_assert_matches_safe_loader(text)[1]) == repr(value)

    def test_quoted_and_plain_text_resolve_apart(self):
        text = "[1, '1', 1, !!str 1, yes, 'yes', \"yes\", yes, ~, '~']"
        assert _assert_matches_safe_loader(text)[1] == [
            1, "1", 1, "1", True, "yes", "yes", True, None, "~"]

    def test_aliases_are_one_object(self):
        text = "a: &x [1, {b: 2}]\nb: *x\nc: &s 1.5\nd: *s\ne: &m {k: *x}\nf: *m\n"
        _, doc = _assert_matches_safe_loader(text)
        assert doc["a"] is doc["b"] is doc["e"]["k"]
        assert doc["c"] is doc["d"]
        assert doc["e"] is doc["f"]

    @pytest.mark.parametrize("text, inner", [
        ("&r [1, *r]", lambda d: [d[1]]),
        ("&m {self: *m, n: 1}", lambda d: [d["self"]]),
        ("&r [[*r], {k: *r}]", lambda d: [d[0][0], d[1]["k"]]),
    ])
    def test_recursive_alias(self, text, inner):
        _, doc = _assert_matches_safe_loader(text)
        assert all(held is doc for held in inner(doc))

    def test_duplicate_keys_keep_the_last_value_in_first_place(self):
        _, doc = _assert_matches_safe_loader("a: 1\nb: 2\na: 3\n")
        assert list(doc.items()) == [("a", 3), ("b", 2)]

    @pytest.mark.parametrize("text", [
        "a: 1\n---\nb: 2\n",  # two documents
        "qubits: [", "{a: 1", "a:\n  - b\n c: 2", "\tfoo: 1", "a: *x", "&a a: &a b",
        "!!int abc", "!!bool maybe", "!!seq abc", "!!str [1]", "!!map [1]",
        "[[0b_], !!float x]", "[!!int '', !!float '']", "{[1]: 2}", "x: !!float -",
        "bad: \x00",
    ])
    def test_bad_text_raises_what_safe_loader_raises(self, text):
        assert _assert_matches_safe_loader(text)[0] == "error"

    @pytest.mark.parametrize("text", ["", "# comment\n", "---\n", "--- # comment\n...\n"])
    def test_empty_document(self, text):
        assert _assert_matches_safe_loader(text) == ("value", None)

    def test_no_state_shared_between_calls(self):
        text = "a: &x [yes, 1.5]\nb: *x\n"
        first, second = parse_yaml(text), parse_yaml(text)
        assert first == second and first["a"] is not second["a"]
        # an anchor of one call is unknown to the next
        _assert_matches_safe_loader("c: *x\n")

    @pytest.mark.parametrize("text", [
        "a: &x [1, {b: 2.5}]\nc: *x\n", "base: &b {x: 1}\nd: {<<: *b}\n",
        "!!int abc", "qubits: [", pytest.param(None, id="device_d3.yaml")])
    def test_frees_what_it_made_on_return(self, text):
        """A call leaves no reference cycle, so its nodes and loader go when it
        returns, not at some later cyclic garbage collection."""
        if text is None:
            text = (CONFIG_DIR / "device_d3.yaml").read_text()
        gc.collect()
        gc.disable()
        try:
            with contextlib.suppress(Exception):
                parse_yaml(text)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=150, deadline=None)
    @given(_DOCUMENTS, st.booleans(), st.booleans())
    def test_dumped_values(self, data, flow, allow_unicode):
        text = yaml.safe_dump(data, default_flow_style=flow, sort_keys=False,
                              allow_unicode=allow_unicode)
        _assert_matches_safe_loader(text)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["!!int", "!!float"]),
           st.text(alphabet="0123456789+-._:eEinfaINFAxXbo \u0663", max_size=8))
    def test_tagged_number_text(self, tag, body):
        """The int and float shortcuts agree with the constructors on any
        text, including text neither can read."""
        _assert_matches_safe_loader(f"{tag} '{body}'")


#: floats and ints of the codec's drawn documents: PyYAML's special float
#: texts, -0.0, a subnormal, floats whose repr has no ".", ints past 2**53
_CODEC_FLOATS = (st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e22])
                 | st.floats())
_CODEC_INTS = st.sampled_from([2**53 + 1, -(2**64), 10**30]) | st.integers()
_ROLE_VALUES = st.sampled_from([r.value for r in Role])


def _ordered(schema: dict):
    """Dicts with schema's keys in schema's order, each value drawn from its
    strategy (fixed_dictionaries does not keep the order)."""
    return st.fixed_dictionaries(schema).map(lambda d: {key: d[key] for key in schema})


_RESULTS_DOCS = _ordered({
    "strategy": st.sampled_from([s.value for s in Strategy]),
    "evaluations": _CODEC_INTS, "scored": _CODEC_INTS,
    "qubits": st.lists(_ordered({
        "row": _CODEC_INTS, "col": _CODEC_INTS, "role": _ROLE_VALUES,
        "traversal_index": _CODEC_INTS, "n_collision_specs": _CODEC_INTS,
        **{key: _CODEC_FLOATS for key in ("f_q_GHz", "B0", "t_p_ns", "t_r_ns")},
        "cost": _ordered({key: _CODEC_FLOATS for key in cli._COST_KEYS.values()}),
    }), min_size=1, max_size=60)})
_DEVICE_DOCS = _ordered({"qubits": st.lists(_ordered({
    "row": _CODEC_INTS, "col": _CODEC_INTS, "role": _ROLE_VALUES,
    **{key: _CODEC_FLOATS for key in (
        "alpha_GHz", "g_eff", "f_r_GHz", "eta", "kappa_MHz", "amp_ref")},
    "band_GHz": st.lists(_CODEC_FLOATS, min_size=2, max_size=2),
    "gamma1_table": st.lists(st.lists(_CODEC_FLOATS, min_size=2, max_size=2),
                             min_size=1, max_size=12),
}), min_size=1, max_size=60)})

#: the reader and the emitter of each schema
_READERS = {"device": device._read_device, "results": cli._read_results}
_EMITTERS = {"device": device._emit_device, "results": cli._emit_results}

#: tokens that stand for a value in the mutated texts: non-canonical texts
#: of a value, and the edges of the readers' int and float grammars
_MUTANT_TOKENS = ["0.50", "1e5", "1_0", "+1", "017", ".NaN", "nan", "yes", "~", "1.0E+16",
                  "1.", "-0.0", "+1.5", "1.5e5", "1.5e+5", ".5", "1_0.0", "00.5", "01", "-0",
                  "1:30.0", "1.0e+999", "1" + "0" * 18, "1" + "0" * 19, "1" * 5000]
#: the tokens a reader reads directly in each kind of slot; it declines
#: every other token of _MUTANT_TOKENS in any slot
_DIRECT_MUTANTS = {
    "int": {"-0", "1" + "0" * 18},
    "float": {"0.50", "1.0E+16", "1.", "-0.0", "+1.5", "1.5e+5", "00.5", "1.0e+999"},
    "enum": set(),
}
_INT_KEYS = {"row", "col", "traversal_index", "n_collision_specs", "evaluations", "scored"}
_ENUM_KEYS = {"role", "strategy"}


def _slot_kind(line):
    """The kind of a value line, "int", "enum" or "float" by its key (a list
    item, of the band or the Gamma1 table, is a float)."""
    key = re.match(r"[ -]*(?:(\w+): )?", line).group(1)
    return "int" if key in _INT_KEYS else "enum" if key in _ENUM_KEYS else "float"


def _mutants(text):
    """(name, text, whether a reader reads it directly) of variants of a
    canonical text cut to its first two entries: each token of
    _MUTANT_TOKENS in place of each value of the head, of the first entry
    and of the text's last line, and other edits, which the readers decline."""
    lines = text.splitlines(keepends=True)
    entries = [k for k, line in enumerate(lines) if line.startswith("- row:")] + [len(lines)] * 2
    lines = lines[:entries[2]]
    text = "".join(lines)
    for k in dict.fromkeys([*range(entries[1]), len(lines) - 1]):
        if lines[k].endswith(":\n"):
            continue
        kind = _slot_kind(lines[k])
        prefix = lines[k][:lines[k].rindex(" ") + 1]
        for token in _MUTANT_TOKENS:
            yield (f"{token} as {kind} on line {k}",
                   "".join(lines[:k] + [prefix + token + "\n"] + lines[k + 1:]),
                   token in _DIRECT_MUTANTS[kind])
    role = next(k for k, line in enumerate(lines) if "role:" in line)
    edits = {
        "comment line": "".join(lines[:2] + ["# note\n"] + lines[2:]),
        "CRLF": text.replace("\n", "\r\n"),
        "swapped keys": "".join(lines[:2] + [lines[2].replace("  ", "- ", 1),
                                             lines[1].replace("- ", "  ", 1)] + lines[3:]),
        "extra key": "".join(lines[:role + 1] + ["  extra: 1\n"] + lines[role + 1:]),
        "trailing space": text[:-1] + " \n",
        "no final newline": text[:-1],
    }
    for name, mutant in edits.items():
        yield name, mutant, False


def _finite_and_short(data) -> bool:
    """Whether every float of data is finite and every int has at most 19
    digits: the documents whose emitted text a reader reads directly."""
    if isinstance(data, dict):
        return all(map(_finite_and_short, data.values()))
    if isinstance(data, list):
        return all(map(_finite_and_short, data))
    if isinstance(data, float):
        return math.isfinite(data)
    return not isinstance(data, int) or len(str(abs(data))) <= 19


class TestCodec:
    """The direct codec of device and results files: its emitters write
    yaml.safe_dump's text, and its readers return SafeLoader's objects or
    None, where parse_with hands the text to parse_yaml."""

    @settings(max_examples=40, deadline=None)
    @given(_RESULTS_DOCS)
    def test_results_emitter_is_safe_dump(self, data):
        assert cli._emit_results(data) == yaml.safe_dump(data, sort_keys=False)
        assert cli._emit_results(data) == dump_yaml(data)

    @settings(max_examples=40, deadline=None)
    @given(_DEVICE_DOCS)
    def test_device_emitter_is_safe_dump(self, data):
        assert device._emit_device(data) == yaml.safe_dump(data, sort_keys=False)
        assert device._emit_device(data) == dump_yaml(data)

    @pytest.mark.parametrize("schema, docs", [("results", _RESULTS_DOCS),
                                              ("device", _DEVICE_DOCS)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_readers_read_emitted_texts_as_safe_loader(self, schema, docs, data):
        """An emitted text is read to SafeLoader's objects, or declined for a
        non-finite float or a long int, whose text is not of the grammar."""
        doc = data.draw(docs)
        text = _EMITTERS[schema](doc)
        read = _READERS[schema](text)
        assert (read is not None) == _finite_and_short(doc)
        if read is not None:
            _assert_same_objects(read, yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.fixture
    def texts(self, results_path):
        """Canonical texts of each schema: the shipped device, a serialized
        one and a results file that optimize wrote."""
        d3 = (CONFIG_DIR / "device_d3.yaml").read_text()
        return {"device": [d3, serialize_device(load_device(d3))],
                "results": [results_path.read_text()]}

    @pytest.mark.parametrize("schema, edit", [
        ("device", lambda t: "qubits:\n"),
        ("results", lambda t: t[:t.index("- row:")]),
        ("results", lambda t: re.sub("^strategy: .*", "strategy: yes", t)),
        ("results", lambda t: re.sub("^strategy: .*", "strategy: ~", t)),
        ("device", lambda t: t.replace("role: data", "role: on", 1)),
        ("results", lambda t: re.sub("role: .*", "role: null", t, count=1)),
    ], ids=["no qubits", "no results", "strategy yes", "strategy ~", "role on", "role null"])
    def test_emitter_checks_keep_the_reader_exact(self, texts, schema, edit):
        """Texts of the template that SafeLoader reads otherwise, which the
        emitter's checks refuse to write: the reader makes the same checks
        and declines them, so parse_with returns SafeLoader's objects."""
        text = edit(texts[schema][-1])
        assert _READERS[schema](text) is None
        _assert_same_objects(parse_with(_READERS[schema], text),
                             yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("schema, key", [("device", "eta"), ("results", "B0")])
    def test_emitters_refuse_a_numpy_float(self, texts, schema, key):
        """A numpy float, whose repr is not YAML, raises rather than being written."""
        data = _READERS[schema](texts[schema][-1])
        data["qubits"][0][key] = np.float64(0.5)
        with pytest.raises(NotCanonical):
            _EMITTERS[schema](data)

    @pytest.mark.parametrize("schema", ["device", "results"])
    def test_canonical_texts_are_read_directly(self, texts, schema):
        for text in texts[schema]:
            data = _READERS[schema](text)
            assert data is not None
            _assert_same_objects(data, yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("schema", ["device", "results"])
    def test_mutated_texts_load_as_safe_loader_loads_them(self, monkeypatch, texts, schema):
        """Each reader reads exactly the mutants with a token of
        _DIRECT_MUTANTS in its kind of slot, to SafeLoader's objects, and
        declines the others; load_device and benchmark's results reading
        keep their objects and errors."""
        if schema == "device":
            def load(t):
                return load_device(t)

            def load_old(t):
                with monkeypatch.context() as m:
                    m.setattr(device, "_read_device", lambda _: None)
                    return load_device(t)
        else:
            def load(t):
                return result_from_dict(parse_with(cli._read_results, t))

            def load_old(t):
                return result_from_dict(parse_yaml(t))
        for text in texts[schema]:
            direct, expected = set(), set()
            for name, mutant, read_directly in _mutants(text):
                assert mutant != text, name
                if read_directly:
                    expected.add(name)
                data = _READERS[schema](mutant)
                if data is not None:
                    direct.add(name)
                    _assert_same_objects(data, yaml.load(mutant, Loader=yaml.SafeLoader))
                assert repr(_outcome(load, mutant)) == repr(_outcome(load_old, mutant)), name
            assert direct == expected

    def test_no_parse_yaml_for_the_programs_own_files(self, monkeypatch, opt_path, tmp_path):
        """The shipped device, serialize_device's text and a results.yaml that
        optimize wrote load without parse_yaml."""
        calls = []
        real = yamlio.parse_yaml

        def spy(text):
            calls.append(text)
            return real(text)

        d3 = (CONFIG_DIR / "device_d3.yaml").read_text()
        graph = load_device(d3)
        device_file = tmp_path / "device.yaml"
        device_file.write_text(serialize_device(graph))
        assert run_optimize(device_file, opt_path, tmp_path / "run") == EXIT_OK
        monkeypatch.setattr(yamlio, "parse_yaml", spy)
        load_device(d3)
        load_device(device_file.read_text())
        assert main(["benchmark", "--device", str(device_file),
                     "--results", str(tmp_path / "run" / "results.yaml"),
                     "--n-states", "5", "--n-shots", "10",
                     "--out", str(tmp_path / "bench")]) == EXIT_OK
        assert calls == []
        parse_with(device._read_device, "qubits: []\n")
        assert calls == ["qubits: []\n"]  # the spy sees a fallback


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_one_parser_per_process(self, device_path, opt_path, results_path, tmp_path,
                                    capsys):
        """main builds its parser once, and each command run through the
        reused parser gives the exit code and outputs of a fresh parser."""
        commands = {
            "validate": ["validate", "--device", str(device_path),
                         "--opt-config", str(opt_path)],
            "optimize": ["optimize", "--device", str(device_path),
                         "--opt-config", str(opt_path), "--out", "OUT"],
            "benchmark": ["benchmark", "--device", str(device_path),
                          "--results", str(results_path), "--n-states", "5",
                          "--n-shots", "10", "--out", "OUT"],
            "version": ["--version"],
            "unknown flag": ["validate", "--device", str(device_path), "--nope"],
        }

        def run(argv, out: Path):
            try:
                code = main([str(out) if arg == "OUT" else arg for arg in argv])
            except SystemExit as exc:
                code = exc.code
            printed = [re.sub(r"[0-9.]+ ms", "ms", text.replace(str(out), "OUT"))
                       for text in capsys.readouterr()]
            files = {p.name: p.read_bytes() for p in out.glob("*")}
            return code, printed, files

        cli.build_parser.cache_clear()
        reused = {name: run(argv, tmp_path / "reused" / name.replace(" ", "_"))
                  for name, argv in commands.items()}
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in reused.values()] == [EXIT_OK] * 4 + [2]
        assert "results.yaml" in reused["optimize"][2] and "report.txt" in reused["benchmark"][2]
        for name, argv in commands.items():
            cli.build_parser.cache_clear()
            assert run(argv, tmp_path / "fresh" / name.replace(" ", "_")) == reused[name], name


def test_parse_yaml_without_libyaml():
    """Where PyYAML has no libyaml, parse_yaml loads through yaml.SafeLoader
    and still returns and raises what yaml.SafeLoader does."""
    src = Path(cli.__file__).resolve().parents[1]
    texts = [(CONFIG_DIR / "device_d3.yaml").read_text(), "a: &x [1, .5]\nb: *x\n",
             "&r [1, *r]", "base: &b {x: 1}\nd: {<<: *b}\n", "!!int abc", "qubits: ["]
    code = f"""
import sys, yaml
del yaml.CSafeLoader
sys.path.insert(0, {str(src)!r})
from readout_opt.yamlio import parse_yaml
loaders, load = [], yaml.load
yaml.load = lambda stream, Loader: loaders.append(Loader) or load(stream, Loader)
parse_yaml("a: 1")
yaml.load = load
assert loaders == [yaml.SafeLoader], loaders
def outcome(load, text):
    try:
        return repr(load(text))
    except Exception as exc:
        return repr((type(exc), str(exc)))
for text in {texts!r}:
    assert outcome(parse_yaml, text) == outcome(
        lambda t: yaml.load(t, Loader=yaml.SafeLoader), text), text
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_cli_import_leaves_scipy_out():
    """The CLI's start-up imports no scipy: a fresh interpreter that
    imports readout_opt.cli has no scipy module loaded."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import readout_opt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
