"""Smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload end to end for one command, the traced run once, and
shows that the output checks catch an altered reference value.  Takes
about half a minute on two cores.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import hostspeed
import run

run.use_checkout_source()

import workloads  # noqa: E402  (needs the checkout's src/ on the path)


def last_json(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(argv) == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_runs_and_passes_its_checks(workload):
    result = last_json(["--workload", workload, "--seed", "7", "--seconds", "0"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = [m["name"] for m in run.declared_metrics(0)]
    assert list(result["metrics"]) == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = last_json(["--workload", "sweep_band", "--seed", "7", "--seconds", "0",
                        "--trace", "1"])
    assert result["correct"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(values) == [m["name"] for m in run.declared_metrics(1)]
    # two fresh step responses per sweep row, plus two for the pinned trajectory
    assert values["dynamics.step_response.misses"] == 2 * workloads.SweepBand.ROWS + 2
    assert values["error_models.evaluate_cost.calls"] == workloads.SweepBand.ROWS


def test_rotated_layout_reproduces_d3_and_sizes_d5():
    d3 = [(q["row"], q["col"], q["role"]) for q in workloads.d3_raw()["qubits"]]
    assert [(r, c, role.value) for r, c, role in workloads.rotated_layout(3)] == sorted(d3)
    d5 = workloads.rotated_layout(5)
    assert len(d5) == 49
    assert sum(role is workloads.Role.DATA for _, _, role in d5) == 25


def test_sampler_takes_the_kernel_off_the_wall_time():
    sampler = hostspeed.Sampler()
    with sampler.span() as span:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        elapsed = perf_counter() - t0
    # the body's 0.3 s hold about six kernel samples, each taken off
    assert len(sampler._samples) >= 5
    assert 0.25 < span.wall_s < elapsed
    assert span.ref_s > 0


def test_no_result_without_the_program(tmp_path):
    bench = tmp_path / "checkout"
    shutil.copytree(run.HERE, bench / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_band", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bench, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def first_command(wl_class, tmp_path: Path):
    """Set up the workload, run its first command, and check it passes."""
    with run.quiet():
        wl = wl_class(tmp_path / "inputs")
    runner = run.Runner(wl, wl.commands(7), tmp_path / "out")
    cmd = next(runner.plan)
    runner.run_one(cmd, wl.check)
    assert runner.failed == 0, runner.problems
    return wl, cmd, runner.out


def test_altered_dense_reference_fails(tmp_path):
    wl, cmd, out = first_command(workloads.OptimizeDense, tmp_path)
    ref = wl.refs[cmd.ref][sorted(wl.refs[cmd.ref])[0]]
    b0 = ref[1]
    ref[1] = b0 * (1.0 + 1e-12)   # B0 must match exactly
    assert any("params" in p for p in wl.check(cmd, out))
    ref[1] = b0
    ref[4] *= 1.0 + 1e-6          # total within RTOL
    problems = wl.check(cmd, out)
    assert problems and all("total" in p for p in problems)


def test_altered_sweep_reference_fails(tmp_path):
    wl, cmd, out = first_command(workloads.SweepBand, tmp_path)
    rows = wl.refs[f"rows/{cmd.ref}"]
    snr = [str(c) for c in wl.refs["columns"]].index("snr")
    rows[17, snr] *= 1.0 + 1e-6
    assert any("row 17 snr" in p for p in wl.check(cmd, out))


def test_altered_montecarlo_output_fails(tmp_path):
    wl, cmd, out = first_command(workloads.MonteCarloD5, tmp_path)
    budget = out / "budget.csv"
    lines = budget.read_text().splitlines()
    name, value = lines[-1].split(",")
    lines[-1] = f"{name},{float(value) * (1.0 + 1e-9)!r}"
    budget.write_text("\n".join(lines) + "\n")
    assert any("budget components" in p for p in wl.check(cmd, out))
    fidelity = out / "cross_fidelity.csv"
    fidelity.write_text("\n".join(fidelity.read_text().splitlines()[:-1]) + "\n")
    assert any("off-diagonal" in p for p in wl.check(cmd, out))
