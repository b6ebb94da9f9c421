import numpy as np
import pytest
import yaml

from readout_opt import (
    DeviceGraph,
    NeighborOrder,
    OptimizerConfig,
    Strategy,
    build_search_grid,
    collision_specs,
    load_device,
    load_optimizer_config,
    neighbors,
    optimize_device,
)
from readout_opt.cli import EXIT_IO, main, result_to_dict
from readout_opt.config import OptimizerConfigError, config_echo, snap_to_steps

from conftest import CONFIG_DIR, TWO_PI, make_graph, make_qubit
from oracle import evaluate_cost
from readout_opt import Role


class TestLoadOptimizerConfig:
    def test_empty_text_gives_defaults(self):
        cfg = load_optimizer_config("")
        assert cfg.model.total_time == 500.0
        assert cfg.model.dt == 1.0
        assert cfg.grid.n_omega == 60
        assert cfg.model.weights.separation == 1.0
        assert cfg.model.mist.a == 0.075
        assert cfg.start is None

    def test_unit_conversions(self):
        cfg = load_optimizer_config(yaml.safe_dump({
            "collision": {"width_MHz": 30.0},
            "pole_guard_GHz": 0.008,
        }))
        assert cfg.model.collision.width == pytest.approx(TWO_PI * 0.030)
        assert cfg.model.pole_guard == pytest.approx(TWO_PI * 0.008)

    def test_partial_override(self):
        cfg = load_optimizer_config(yaml.safe_dump({
            "grid": {"n_omega": 7},
            "weights": {"photon": 0.2},
        }))
        assert cfg.grid.n_omega == 7
        assert cfg.grid.n_amp == 40  # untouched default
        assert cfg.model.weights.photon == 0.2
        assert cfg.model.weights.mist == 1.0

    def test_zero_grid_rejected(self):
        with pytest.raises(OptimizerConfigError):
            load_optimizer_config("grid: {n_amp: 0}")

    def test_tp_range_must_fit_total(self):
        with pytest.raises(OptimizerConfigError):
            load_optimizer_config(yaml.safe_dump({
                "total_readout_time_ns": 400,
                "grid": {"tp_max_ns": 450},
            }))

    @pytest.mark.parametrize("text", [
        "total_readout_time_ns: 500.5",
        "dt_ns: 0.3",  # 500 ns is 1666.7 steps
    ])
    def test_total_must_be_whole_steps(self, text):
        # t_p + t_r would round to a step count the reported t_r does not give
        with pytest.raises(OptimizerConfigError) as exc:
            load_optimizer_config(text)
        assert str(exc.value).startswith("total_readout_time_ns: ")
        assert load_optimizer_config("{total_readout_time_ns: 500.5, dt_ns: 0.5}")

    def test_non_mapping_rejected(self):
        with pytest.raises(OptimizerConfigError):
            load_optimizer_config("- a\n- b\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "---\n", "~", "null"])
    def test_document_without_value_gives_defaults(self, text):
        assert load_optimizer_config(text) == OptimizerConfig()

    @pytest.mark.parametrize("text", ["[]", "false", "0", "''"])
    def test_falsy_non_mapping_rejected(self, text, tmp_path, capsys):
        with pytest.raises(OptimizerConfigError, match="^optimizer config must be a mapping$"):
            load_optimizer_config(text)
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert main(["validate", "--device", str(CONFIG_DIR / "device_d3.yaml"),
                     "--opt-config", str(bad)]) == EXIT_IO
        assert "error: optimizer config must be a mapping" in capsys.readouterr().err

    def test_parse_failure(self):
        with pytest.raises(OptimizerConfigError):
            load_optimizer_config("grid: [::")

    def test_start_qubit(self):
        cfg = load_optimizer_config("start_qubit: [2, 3]")
        assert cfg.start == (2, 3)


class TestBuildSearchGrid:
    def test_spans_band_and_scales_amp(self):
        band = (TWO_PI * 5.7, TWO_PI * 6.2)
        graph = make_graph([(0, 0, Role.DATA, make_qubit(amp_ref=0.5), band)])
        qid = graph.at(0, 0)
        cfg = load_optimizer_config(yaml.safe_dump({
            "grid": {"n_omega": 5, "n_amp": 3, "n_tp": 2,
                     "amp_min": 0.1, "amp_max": 0.3},
        }))
        grid = build_search_grid(graph, qid, cfg)
        assert grid.omega_points[0] == pytest.approx(band[0])
        assert grid.omega_points[-1] == pytest.approx(band[1])
        assert grid.amp_points == pytest.approx((0.05, 0.1, 0.15))
        assert grid.tp_points[0] == 100.0
        assert grid.tp_points[-1] == 480.0
        assert grid.size == 5 * 3 * 2

    @pytest.mark.parametrize("name", ["optimizer.yaml", "optimizer_small.yaml"])
    def test_each_qubit_has_its_own_grid_bits(self, name):
        """Axes computed once per grid and dt give every d3 qubit the bits of
        its grid computed alone, and a reloaded config the same grids."""
        graph = load_device((CONFIG_DIR / "device_d3.yaml").read_text())
        text = (CONFIG_DIR / name).read_text()
        cfg = load_optimizer_config(text)
        g = cfg.grid
        for qid in graph.sorted_ids():
            lo, hi = graph.search_band[qid]
            grid = build_search_grid(graph, qid, cfg)
            assert grid.omega_points == tuple(np.linspace(lo, hi, g.n_omega).tolist())
            assert grid.amp_points == tuple(
                (np.linspace(g.amp_min, g.amp_max, g.n_amp) * graph.qubits[qid].amp_ref).tolist())
            assert grid.tp_points == tuple(snap_to_steps(
                np.linspace(g.tp_min_ns, g.tp_max_ns, g.n_tp),
                g.tp_min_ns, g.tp_max_ns, cfg.model.dt).tolist())
            assert build_search_grid(graph, qid, load_optimizer_config(text)) == grid

    def one_qubit_grid(self, **grid):
        graph = make_graph([(0, 0, Role.DATA)])
        dt = grid.pop("dt_ns", 1.0)
        cfg = load_optimizer_config(yaml.safe_dump(
            {"dt_ns": dt, "grid": {"n_omega": 2, "n_amp": 2, **grid}}))
        return build_search_grid(graph, graph.at(0, 0), cfg).tp_points

    def test_tp_snapped_to_dt(self):
        # linspace(100, 480, 42) steps by 9.268 ns
        assert self.one_qubit_grid(n_tp=42)[:3] == (100.0, 109.0, 119.0)
        assert self.one_qubit_grid(n_tp=4, dt_ns=0.5, tp_max_ns=200.2) == (
            100.0, 133.5, 167.0, 200.0)

    def test_duplicate_tp_dropped(self):
        assert self.one_qubit_grid(n_tp=6, tp_min_ns=100, tp_max_ns=102) == (
            100.0, 101.0, 102.0)

    def test_snapped_tp_stays_in_range(self):
        assert self.one_qubit_grid(n_tp=2, tp_min_ns=100.4, tp_max_ns=102.6) == (
            101.0, 102.0)

    def test_range_without_dt_multiple_rejected(self):
        with pytest.raises(OptimizerConfigError, match="multiple of dt"):
            load_optimizer_config("grid: {tp_min_ns: 100.2, tp_max_ns: 100.7}")

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(OptimizerConfigError, match="dt_ns"):
            load_optimizer_config("dt_ns: 0")

    def test_equal_amp_bounds_need_one_amplitude(self):
        assert load_optimizer_config(
            "grid: {n_amp: 1, amp_min: 0.2, amp_max: 0.2}").grid.n_amp == 1
        with pytest.raises(OptimizerConfigError,
                           match=r"^grid\.amp_max: .*> amp_min when n_amp > 1"):
            load_optimizer_config("grid: {n_amp: 2, amp_min: 0.2, amp_max: 0.2}")

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    def test_equal_amp_bounds_exit_2_naming_amp_max(self, command, tmp_path, capsys):
        raw = yaml.safe_load((CONFIG_DIR / "optimizer_small.yaml").read_text())
        raw["grid"]["amp_min"] = raw["grid"]["amp_max"] = 0.2
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw))
        argv = [command, "--device", str(CONFIG_DIR / "device_d3.yaml"),
                "--opt-config", str(bad)]
        if command == "optimize":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_IO
        assert "error: grid.amp_max: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestBadConfigNamesKey:
    """A bad optimizer config exits 2 through the CLI, naming the file key."""

    CASES = [
        ("grid: [1, 2]", "grid"),
        ("grid: {n_omega: abc}", "grid.n_omega"),
        ("grid: {n_amp: 0}", "grid.n_amp"),
        ("start_qubit: 5", "start_qubit"),
        ("start_qubit: [1, x]", "start_qubit"),
        ("mist: {sharpness: 0}", "mist.sharpness"),
        ("mist: {ceiling: -1}", "mist.ceiling"),
        ("collision: {width_MHz: 0}", "collision.width_MHz"),
        ("weights: {photon: -1}", "weights.photon"),
        ("pole_guard_GHz: -1", "pole_guard_GHz"),
        ("dt_ns: 0", "dt_ns"),
        ("total_readout_time_ns: .nan", "total_readout_time_ns"),
        ("total_readout_time_ns: 500.5", "total_readout_time_ns"),
        ("total_readout_time_ns: .inf", "total_readout_time_ns"),
        ("mist: {sharpnes: 0}", "mist.sharpnes"),
        ("weight: {photon: 5}", "weight"),
        ("grid: {n_omega: 2.7}", "grid.n_omega"),
        ("grid: {n_omega: true}", "grid.n_omega"),
        ("start_qubit: [1.7, true]", "start_qubit"),
        ('start_qubit: ["1", 2]', "start_qubit"),
        # non-finite values
        ("grid: {amp_max: .inf}", "grid.amp_max"),
        ("dt_ns: .inf", "dt_ns"),
        ("weights: {separation: .inf}", "weights.separation"),
        ("mist: {a: .inf}", "mist.a"),
        ("mist: {b_per_rad_ns: .nan}", "mist.b_per_rad_ns"),
        ("mist: {b_per_rad_ns: -.inf}", "mist.b_per_rad_ns"),
        ("collision: {width_MHz: .inf}", "collision.width_MHz"),
        ("pole_guard_GHz: .inf", "pole_guard_GHz"),
        # too coarse for a qubit's kappa
        ("dt_ns: 5", "dt_ns"),
    ]

    @pytest.mark.parametrize("text, key", CASES)
    def test_exit_2_with_key(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        code = main(["optimize", "--device", str(CONFIG_DIR / "device_d3.yaml"),
                     "--opt-config", str(bad), "--out", str(tmp_path / "run")])
        assert code == EXIT_IO
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", CASES)
    def test_validate_exit_2_with_key(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        code = main(["validate", "--device", str(CONFIG_DIR / "device_d3.yaml"),
                     "--opt-config", str(bad)])
        assert code == EXIT_IO
        assert f"error: {key}: " in capsys.readouterr().err


class TestShippedConfigsReportWhatTheySimulate:
    """Every reported t_p is on the dt grid and re-evaluates to its total."""

    @pytest.mark.parametrize("name, n_qubits", [
        ("optimizer_small.yaml", None),  # the whole device
        ("optimizer.yaml", 2),           # a measure qubit and a neighbor
    ])
    def test_reported_params_reproduce_totals(self, d3_graph, name, n_qubits):
        cfg = load_optimizer_config((CONFIG_DIR / name).read_text())
        graph = d3_graph
        if n_qubits is not None:
            first = graph.sorted_ids()[1]
            keep = [first] + neighbors(graph, first, NeighborOrder.NEAREST)
            graph = DeviceGraph(
                qubits={q: graph.qubits[q] for q in keep[:n_qubits]},
                search_band={q: graph.search_band[q] for q in keep[:n_qubits]})
        grids = {qid: build_search_grid(graph, qid, cfg) for qid in graph.qubits}
        assert all(len(g.tp_points) == cfg.grid.n_tp for g in grids.values())
        model = cfg.model
        result = optimize_device(graph, grids, model)
        reported = result_to_dict(result, Strategy.ALL_MODELS)["qubits"]
        assert len(reported) == len(graph.qubits)
        for row in reported:
            assert (row["t_p_ns"] / model.dt).is_integer()
            assert row["t_r_ns"] == model.total_time - row["t_p_ns"]

        locked = {}
        for qid in result.order:
            r = result.per_qubit[qid]
            active = [
                (graph.qubits[nb], locked[nb], nb.row != qid.row and nb.col != qid.col)
                for nb in neighbors(graph, qid, NeighborOrder.BOTH) if nb in locked
            ]
            specs = collision_specs(graph.qubits[qid], active, model.collision)
            again = evaluate_cost(graph.qubits[qid], r.params, model, specs)
            assert again.total == r.breakdown.total
            locked[qid] = r.params


class TestConfigEcho:
    def test_round_trips_through_loader(self):
        cfg = load_optimizer_config(yaml.safe_dump({
            "dt_ns": 0.5,
            "grid": {"n_omega": 9},
            "mist": {"a": 0.06, "sharpness": 0.02},
            "collision": {"width_MHz": 25.0},
            "start_qubit": [1, 2],
        }))
        echoed = load_optimizer_config(yaml.safe_dump(config_echo(cfg)))
        assert echoed.model.dt == cfg.model.dt
        assert echoed.grid == cfg.grid
        assert echoed.model.mist.a == pytest.approx(cfg.model.mist.a)
        assert echoed.model.mist.sharpness == cfg.model.mist.sharpness
        assert echoed.model.collision.width == pytest.approx(cfg.model.collision.width)
        assert echoed.model.pole_guard == pytest.approx(cfg.model.pole_guard)
        assert echoed.start == cfg.start

    def test_strategy_values(self):
        assert Strategy("all") is Strategy.ALL_MODELS
        assert Strategy("predictive") is Strategy.PREDICTIVE_ONLY
