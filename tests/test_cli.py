"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        parser.parse_args(["figure1"])
        parser.parse_args(["table2", "--set", "1"])
        parser.parse_args(["solve", "--n", "4", "--poisson", "0.1"])
        parser.parse_args(
            ["batch", "--n", "4", "--poisson", "0.1", "--sizes", "4,8"]
        )
        parser.parse_args(
            ["serve", "--port", "0", "--gate-capacity", "8",
             "--batch-window", "0.01"]
        )

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "0.0006" in out

    def test_solve_poisson(self, capsys):
        assert main(["solve", "--n", "4", "--poisson", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Crossbar 4x4" in out
        assert "poisson-0" in out

    def test_solve_rectangular_mva(self, capsys):
        code = main(
            ["solve", "--n", "3", "--n2", "5", "--poisson", "0.1",
             "--method", "mva"]
        )
        assert code == 0
        assert "3x5" in capsys.readouterr().out

    def test_solve_all_class_kinds(self, capsys):
        code = main(
            ["solve", "--n", "6", "--poisson", "0.1", "--pascal",
             "0.05:0.2", "--bernoulli", "4:0.02"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pascal-1" in out and "bernoulli-2" in out

    def test_solve_multirate_spec(self, capsys):
        assert main(["solve", "--n", "6", "--poisson", "0.05:2"]) == 0
        assert "a=2" in capsys.readouterr().out

    def test_solve_without_classes_fails(self, capsys):
        assert main(["solve", "--n", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_pascal_spec_fails(self, capsys):
        assert main(["solve", "--n", "4", "--pascal", "0.1"]) == 2

    def test_figure4(self, capsys):
        assert main(["figure4", "--precision", "4"]) == 0
        out = capsys.readouterr().out
        assert "a=1" in out and "a=2" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "--n", "3", "--poisson", "0.2",
             "--horizon", "300", "--warmup", "30",
             "--replications", "2", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Simulation vs analysis" in out

    def test_solve_from_config_json(self, capsys, tmp_path):
        config = tmp_path / "model.json"
        config.write_text(
            '{"n1": 4, "n2": 4, "classes": [{"alpha": 0.1}]}'
        )
        assert main(["solve", "--config", str(config), "--json"]) == 0
        import json

        record = json.loads(capsys.readouterr().out)
        assert record["dims"] == [4, 4]

    def test_solve_requires_n_or_config(self, capsys):
        assert main(["solve", "--poisson", "0.1"]) == 2
        assert "--n is required" in capsys.readouterr().err

    def test_report_command(self, capsys, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "reproduction criteria pass" in text
        assert (out / "summary.txt").exists()

    def test_figure_plot_flag(self, capsys):
        assert main(["figure4", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "x: N" in out  # chart footer

    def test_validate(self, capsys):
        code = main(["validate", "--n", "4", "--poisson", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CONSISTENT" in out

    def test_hotspot(self, capsys):
        code = main(
            ["hotspot", "--n", "5", "--rho", "0.1",
             "--factors", "1,4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Hot-spot sweep" in out
        assert "hot-request B" in out

    def test_asymptotic(self, capsys):
        code = main(
            ["asymptotic", "--n", "512", "--poisson", "0.00001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Large-system approximation" in out

    def test_multistage(self, capsys):
        code = main(
            ["multistage", "--n", "4", "--stages", "2",
             "--poisson", "0.02"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "end-to-end blocking" in out

    def test_table2_small(self, capsys):
        # full table2 runs to N=256; keep CLI test on the real path but
        # accept its runtime (~seconds)
        assert main(["table2", "--set", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_robust_healthy(self, capsys):
        code = main(["robust", "--n", "4", "--poisson", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "solver chain" in out
        assert "chosen: mva" in out
        assert "Healthy 4x4 via mva" in out

    def test_robust_degraded_and_availability(self, capsys):
        code = main(
            ["robust", "--n", "5", "--poisson", "0.1",
             "--failed-inputs", "0,2", "--failed-outputs", "4",
             "--availability", "0.9", "--routing", "oblivious"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded-mode analysis" in out
        assert "3 failed ports -> 3x4" in out
        assert "availability-weighted measures" in out
        assert "A_in=0.9" in out

    def test_robust_budgets_parse(self, capsys):
        code = main(
            ["robust", "--n", "4", "--poisson", "0.1",
             "--budget", "30", "--solver-budget", "10"]
        )
        assert code == 0
        assert "chosen:" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_sizes_table(self, capsys):
        code = main(
            ["batch", "--poisson", "0.01", "--sizes", "4,8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch of 2 requests" in out
        assert "4x4" in out and "8x8" in out

    def test_batch_metrics_json_to_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["batch", "--poisson", "0.01", "--sizes", "4,8,16",
             "--metrics-json", str(path)]
        )
        assert code == 0
        record = json.loads(path.read_text())
        assert record["requests"] == 3
        assert "hit_rate" in record and "grid_points" in record
        assert "breaker_state" in record

    def test_batch_metrics_json_to_stdout(self, capsys):
        import json

        code = main(
            ["batch", "--poisson", "0.01", "--sizes", "4", "--json",
             "--metrics-json", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # stdout holds the metrics object then the results array
        metrics_text, _, results_text = out.partition("\n[")
        record = json.loads(metrics_text)
        assert record["requests"] == 1
        results = json.loads("[" + results_text)
        assert results[0]["request"]["n1"] == 4
        assert results[0]["request"]["n2"] == 4

    def test_batch_from_request_file(self, capsys, tmp_path):
        import json

        from repro.api import SolveRequest
        from repro.core.traffic import TrafficClass

        request = SolveRequest.square(4, [TrafficClass.poisson(0.05)])
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({"requests": [request.to_dict()]}))
        assert main(["batch", "--requests", str(path)]) == 0
        assert "4x4" in capsys.readouterr().out

    def test_batch_without_inputs_fails(self, capsys):
        assert main(["batch", "--poisson", "0.1"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_parses_knobs(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9999",
             "--gate-capacity", "16", "--point-weight", "2",
             "--batch-member-weight", "3", "--batch-window", "0.05",
             "--max-batch", "32", "--min-hold", "0.1"]
        )
        assert args.host == "0.0.0.0" and args.port == 9999
        assert args.gate_capacity == 16
        assert args.point_weight == 2
        assert args.batch_member_weight == 3
        assert args.batch_window == 0.05
        assert args.max_batch == 32
        assert args.min_hold == 0.1

    def test_serve_rejects_bad_capacity(self, capsys):
        assert main(["serve", "--port", "0", "--gate-capacity", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestResilienceFlags:
    @pytest.fixture(autouse=True)
    def restore_engine(self):
        from repro.engine import reset_default_engine

        yield
        reset_default_engine()

    def test_no_flags_leave_engine_untouched(self):
        from repro.engine import get_default_engine, set_default_engine

        sentinel = get_default_engine()
        assert main(["table1"]) == 0
        assert get_default_engine() is sentinel
        set_default_engine(sentinel)
