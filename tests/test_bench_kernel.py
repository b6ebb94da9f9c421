"""Smoke test of tools/bench_kernel.py on a tiny workload, so that a change
to the kernel's signature cannot break the tool unnoticed."""
import importlib.util
import json
from pathlib import Path

import yaml

from readout_opt.cli import result_from_dict
from readout_opt.device import load_device
from readout_opt.yamlio import parse_yaml

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_kernel.py"


def test_bench_kernel_writes_its_report(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_kernel", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "N_OMEGAS", 1)
    monkeypatch.setattr(bench, "ROUNDS", 2)
    monkeypatch.setattr(bench, "STEP_WIDTHS", (2, 4))
    monkeypatch.setattr(bench, "STEP_ROUNDS", 2)
    monkeypatch.setattr(bench, "IMPORT_ROUNDS", 2)
    monkeypatch.setattr(bench, "CROSS_FIDELITY_QUBITS", (3, 5))
    monkeypatch.setattr(bench, "CROSS_FIDELITY_ROUNDS", 2)
    monkeypatch.setattr(bench, "YAML_ROUNDS", 2)
    monkeypatch.setattr(bench, "SCAN_CONFIGS", ("optimizer_small.yaml",))
    monkeypatch.setattr(bench, "SCAN_ROUNDS", 2)

    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == report
    assert set(report) == {
        "kernel", "planes", "points", "rounds", "total_s", "points_per_s",
        "per_plane_ms", "statistics_s", "bound_s", "prescore_s", "scan_s", "sweep_s",
        "step_response", "import_s", "cross_fidelity_s", "yaml_load_s", "yaml_dump_s",
        "environment"}
    assert report["rounds"] == 2
    assert report["points"] == report["planes"] * 40 * 39
    for key in ("total_s", "statistics_s", "bound_s", "prescore_s", "sweep_s", "import_s"):
        assert set(report[key]) == {"median", "q1", "q3"}
        assert report[key]["median"] > 0
    scans = report["scan_s"]
    assert scans["rounds"] == 2
    assert set(scans["runs"]) == {"optimizer_small.yaml:all", "optimizer_small.yaml:predictive"}
    for run in scans["runs"].values():
        assert set(run) == {"scored", "median", "q1", "q3"}
        assert run["median"] > 0 and 0 < run["scored"] < 17 * 16 * 12 * 10
    steps = report["step_response"]
    assert set(steps) == {"n_steps", "n_powers", "rounds", "widths"}
    assert (steps["n_steps"], steps["n_powers"]) == (480, 400)
    assert set(steps["widths"]) == {"2", "4"}
    assert all(t > 0 for t in steps["widths"].values())
    pairs = report["cross_fidelity_s"]
    assert (pairs["n_states"], pairs["n_shots"], pairs["rounds"]) == (200, 2000, 2)
    assert set(pairs["qubits"]) == {"3", "5"}
    assert all(t["median"] > 0 for t in pairs["qubits"].values())
    loads = report["yaml_load_s"]
    assert loads["rounds"] == 2
    assert set(loads["texts"]) == {"device_49", "results_49", "device_49_noncanonical",
                                   "results_49_noncanonical"}
    loaders = {"direct", "parse_yaml"} | ({"CSafeLoader"} if yaml.__with_libyaml__ else set())
    for name, text in loads["texts"].items():
        assert set(text) == {"bytes"} | loaders
        assert text["bytes"] > 10_000
        if name.endswith("_noncanonical"):  # one byte more than its canonical text
            assert text["bytes"] == loads["texts"][name.removesuffix("_noncanonical")]["bytes"] + 1
        for loader in loaders:
            assert set(text[loader]) == {"median", "q1", "q3"}
            assert text[loader]["median"] > 0
    dumps = report["yaml_dump_s"]
    assert dumps["rounds"] == 2
    assert set(dumps["texts"]) == {"device_49", "results_49"}
    for text in dumps["texts"].values():
        assert set(text) == {"direct", "dump_yaml"}
        for dumper in text.values():
            assert set(dumper) == {"median", "q1", "q3"}
            assert dumper["median"] > 0
    assert set(report["environment"]) >= {"pyyaml", "libyaml"}


def test_bench_kernel_texts_load_as_their_files():
    """The 49-qubit texts load as a device and as a results file of it."""
    spec = importlib.util.spec_from_file_location("bench_kernel", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    texts = bench.yaml_texts()
    graph = load_device(texts["device_49"])
    result = result_from_dict(parse_yaml(texts["results_49"]))
    assert len(graph.qubits) == 49
    assert set(result.per_qubit) == set(graph.qubits)


def test_bench_kernel_noncanonical_texts_are_declined_at_the_end():
    """Each non-canonical variant loads to its text's document, but the
    direct reader reads it in full and declines it on re-emission."""
    spec = importlib.util.spec_from_file_location("bench_kernel", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, text in bench.yaml_texts().items():
        read, emit = bench.CODECS[name]
        variant = bench.noncanonical(text)
        data = read(variant)
        assert data == parse_yaml(variant) == parse_yaml(text)
        emitted = emit(data)
        assert emitted == text != variant
