import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from readout_opt import (
    OptimizationResult,
    QubitId,
    ReadoutParams,
    Strategy,
    evaluate_cost,
    load_device,
    load_optimizer_config,
)
from readout_opt import cli
from readout_opt.cli import (
    EXIT_IO,
    EXIT_OK,
    SWEEP_CHUNK,
    main,
    result_from_dict,
    result_to_dict,
)
from readout_opt.device import dump_yaml, ghz_to_rad_ns, parse_yaml
from readout_opt.dynamics import (
    DetuningStepError,
    PoleProximityError,
    _check_step,
    _unit_step_response,
    dispersive_shift,
)

from conftest import CONFIG_DIR

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

    def test_bad_device_value_names_the_field(self, tmp_path, capsys):
        raw = yaml.safe_load((CONFIG_DIR / "device_d3.yaml").read_text())
        raw["qubits"][1]["alpha_GHz"] = "x"
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--device", str(path)]) == EXIT_IO
        assert "qubit (0,3,measure): alpha_GHz: could not convert" in capsys.readouterr().err

    def test_shipped_configs_validate(self):
        code = main([
            "validate",
            "--device", str(CONFIG_DIR / "device_d3.yaml"),
            "--opt-config", str(CONFIG_DIR / "optimizer.yaml"),
        ])
        assert code == EXIT_OK


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

    def test_round_trip(self, device_path, opt_path, tmp_path):
        out = tmp_path / "run"
        run_optimize(device_path, opt_path, out)
        raw = yaml.safe_load((out / "results.yaml").read_text())
        result = result_from_dict(raw)
        assert isinstance(result, OptimizationResult)
        again = result_to_dict(result, Strategy(raw["strategy"]))
        assert again["evaluations"] == raw["evaluations"]
        for a, b in zip(again["qubits"], raw["qubits"]):
            assert a["f_q_GHz"] == pytest.approx(b["f_q_GHz"], rel=1e-12)
            assert a["cost"]["total"] == pytest.approx(
                b["cost"]["total"], rel=1e-12)

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
        ("--axis", "length", "--min", "100.2", "--max", "100.7", "--points", "3"),
        ("--axis", "amplitude", "--min", "0.1", "--max", "0.2", "--points", "2",
         "--pin-tp-ns", "0.4"),
    ])
    def test_lengths_off_the_grid_rejected(self, device_path, opt_path,
                                           tmp_path, args):
        assert main(["sweep", "--device", str(device_path), "--opt-config",
                     str(opt_path), "--qubit", "0,0", *args,
                     "--out", str(tmp_path / "sweep")]) == EXIT_IO

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
            _unit_step_response.cache_clear()
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
            "error: dt = 1.0 ns too coarse; need dt <= 1/kappa/10 = 0.7958 ns\n")

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

    def test_results_device_mismatch(self, results_path, tmp_path):
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


class TestParseYaml:
    """The libyaml loader reads every input to the objects of yaml.safe_load."""

    @pytest.mark.parametrize("name", [
        "device_d3.yaml", "optimizer.yaml", "optimizer_small.yaml"])
    def test_shipped_configs(self, name):
        text = (CONFIG_DIR / name).read_text()
        self.assert_loaders_agree(text)

    def test_results_file(self, results_path):
        self.assert_loaders_agree(results_path.read_text())

    @staticmethod
    def assert_loaders_agree(text):
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        assert expected
        assert parse_yaml(text) == expected
        if hasattr(yaml, "CSafeLoader"):
            assert yaml.load(text, Loader=yaml.CSafeLoader) == expected


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


def test_cli_import_leaves_scipy_out():
    """The CLI's start-up imports no scipy: a fresh interpreter that
    imports readout_opt.cli has no scipy module loaded."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import readout_opt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
