"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


class TestDevices:
    def test_lists_specs(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GeForce RTX 2080 Ti" in out
        assert "Nvidia A100" in out
        assert "Intel Core i7-8700" in out


class TestRun:
    def test_q6_matches_oracle(self, capsys):
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--model", "chunked"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle match: True" in out
        assert "simulated time" in out

    def test_q3_needs_catalog_aware_build(self, capsys):
        code = main(["run", "--query", "q3", "--sf", "0.002",
                     "--chunk-size", "1024",
                     "--model", "four_phase_pipelined"])
        assert code == 0
        assert "oracle match: True" in capsys.readouterr().out

    def test_q14_float_result(self, capsys):
        code = main(["run", "--query", "q14", "--sf", "0.005",
                     "--chunk-size", "1024", "--model", "oaat"])
        assert code == 0

    @pytest.mark.parametrize("driver", ["opencl-gpu", "opencl-cpu", "openmp"])
    def test_other_drivers(self, capsys, driver):
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--driver", driver])
        assert code == 0
        assert "oracle match: True" in capsys.readouterr().out

    def test_spec_selection(self, capsys):
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--spec", "a100"])
        assert code == 0

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--query", "q99"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "vectorwise"])


class TestCompare:
    def test_all_models_listed(self, capsys):
        code = main(["compare", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024"])
        out = capsys.readouterr().out
        assert code == 0
        for model in ("oaat", "chunked", "pipelined", "four_phase_chunked",
                      "four_phase_pipelined"):
            assert model in out
        assert "vs chunked" in out

    def test_oom_reported_not_raised(self, capsys):
        code = main(["compare", "--query", "q6", "--sf", "0.01",
                     "--chunk-size", "1024",
                     "--memory-limit", "400000"])
        out = capsys.readouterr().out
        assert "DeviceMemoryError" in out  # oaat line
        assert "chunked" in out
        assert code == 0  # chunked models still verified OK


class TestOptimize:
    def test_run_optimize(self, capsys):
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--model", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle match: True" in out
        assert "model=auto" in out

    def test_model_auto_equivalent(self, capsys):
        """``--model auto`` refuses a bad flag exactly like a manual
        model: exit 3 and the same message."""
        errors = []
        for model in ("chunked", "auto"):
            code = main(["run", "--query", "q6", "--sf", "0.001",
                         "--model", model, "--data-scale", "0"])
            assert code == 3, model
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("execution failed: data_scale")

    def test_nodes_refuses_analyze(self, capsys):
        """A sharded run has no profile to print (ROADMAP "One trace id
        per request; ANALYZE for served requests and for clusters"); the
        flag pair is refused instead of silently dropping --analyze."""
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--nodes", "2", "--analyze"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--analyze does not combine with --nodes" in captured.err
        assert captured.out == ""

    def test_concurrent_optimize(self, capsys):
        code = main(["concurrent", "--queries", "q6,q4", "--sf", "0.002",
                     "--chunk-size", "1024", "--model", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q6" in out and "q4" in out

    def test_run_overlay_path_persists(self, capsys, tmp_path):
        path = tmp_path / "overlay.json"
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--model", "auto",
                     "--overlay-path", str(path)])
        assert code == 0
        assert path.exists()
        assert "overlays" in path.read_text()


class TestExplainPlans:
    def test_explain_plans(self, capsys):
        code = main(["explain", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--plans", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("EXPLAIN PLANS q6")
        assert "#1" in out
        assert "chosen" in out

    def test_plans_must_be_positive(self, capsys):
        code = main(["explain", "q6", "--sf", "0.002",
                     "--plans", "0"])
        assert code == 2
        assert "--plans must be >= 1" in capsys.readouterr().err
