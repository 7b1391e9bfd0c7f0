"""CLI tests (argument parsing and command execution on tiny inputs)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "las"])

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "jacobi", "--scheduler", "magic"]
            )


class TestCommands:
    def test_apps_lists_registries(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "jacobi" in out and "rgp+las" in out and "bullion-s16" in out

    def test_run_quick(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        assert main(["run", "--app", "nstream", "--scheduler", "rgp+las",
                     "--quick", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "core" in out  # gantt

    def test_run_writes_traces(self, tmp_path, monkeypatch, capsys):
        self._shrink(monkeypatch)
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert main(["run", "--app", "nstream", "--scheduler", "las",
                     "--quick", "--trace-csv", str(csv_path),
                     "--trace-json", str(json_path)]) == 0
        assert csv_path.exists() and json_path.exists()

    def test_figure1_quick(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        assert main(["figure1", "--quick", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_analyze(self, capsys, monkeypatch, tmp_path):
        self._shrink(monkeypatch)
        dot = tmp_path / "tdg.dot"
        assert main(["analyze", "--app", "nstream", "--scheduler", "las",
                     "--quick", "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "core utilization" in out
        assert "utilization [" in out
        assert dot.exists()

    def test_figure1_bars(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        assert main(["figure1", "--quick", "--seeds", "1", "--bars"]) == 0
        out = capsys.readouterr().out
        assert "geomean:" in out  # bar chart group

    def test_ablation_window(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        monkeypatch.setattr(
            "repro.experiments.ablations.ABLATION_APPS", ("nstream",)
        )
        assert main(["ablation", "window", "--quick", "--seeds", "1"]) == 0
        assert "window=" in capsys.readouterr().out

    @staticmethod
    def _shrink(monkeypatch):
        """Make --quick truly tiny so CLI tests stay fast."""
        tiny = {
            "cg": dict(nt=2, tile=16, iterations=2),
            "gauss-seidel": dict(nt=3, tile=16, sweeps=2),
            "histogram": dict(nt=3, tile=16, n_bins=2, repeats=2),
            "jacobi": dict(nt=3, tile=16, sweeps=2),
            "nstream": dict(n_blocks=6, block_elems=1024, iterations=2),
            "qr": dict(nt=3, tile=16),
            "redblack": dict(nt=3, tile=16, sweeps=2),
            "symminv": dict(nt=3, tile=16),
        }
        monkeypatch.setattr(
            "repro.experiments.config.QUICK_APP_PARAMS", tiny
        )


class TestAblationGapGate:
    """``repro ablation gap --gate-drb`` exits 6 above the gate, 0 at or
    below it — the check CI's gap smoke job relies on.  The gap runner is
    stubbed: the real quick run is far too slow for tier-1."""

    @pytest.fixture
    def stub_gap(self, monkeypatch):
        from repro.experiments.ablations import GapReport

        calls = []

        def fake_run_gap_ablation(config, quick=False):
            calls.append(quick)
            # drb mean gap is exactly 0.125 (binary-exact floats).
            return GapReport(
                title="stub gap ablation", k=2, backends=["drb"],
                windows=["w0", "w1"],
                gaps={("drb", "w0"): 0.25, ("drb", "w1"): 0.0},
                proven={"w0": True, "w1": True},
            )

        monkeypatch.setattr(
            "repro.experiments.ablations.run_gap_ablation",
            fake_run_gap_ablation,
        )
        return calls

    def test_gap_above_gate_exits_six(self, stub_gap, capsys):
        from repro.errors import EXIT_BENCHMARK

        code = main(["ablation", "gap", "--quick", "--gate-drb", "0.1"])
        assert code == EXIT_BENCHMARK == 6
        out = capsys.readouterr().out
        assert "stub gap ablation" in out
        assert "FAIL: drb mean optimality gap 12.5%" in out
        assert "gate ok" not in out
        assert stub_gap == [True]

    @pytest.mark.parametrize("gate", ["0.125", "0.15"])
    def test_gap_at_or_below_gate_exits_zero(self, stub_gap, capsys, gate):
        assert main(["ablation", "gap", "--quick", "--gate-drb", gate]) == 0
        out = capsys.readouterr().out
        assert "gate ok: drb mean optimality gap 12.5%" in out
        assert "FAIL" not in out

    def test_no_gate_never_fails(self, stub_gap, capsys):
        assert main(["ablation", "gap", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "gate ok" not in out and "FAIL" not in out


class TestTraceCommand:
    _shrink = staticmethod(TestCommands._shrink)

    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys,
                                            monkeypatch):
        import json

        self._shrink(monkeypatch)
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--app", "nstream", "--scheduler", "rgp+las",
                     "--machine", "two-socket", "--quick",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["scheduler"] == "rgp+las"

    def test_trace_optional_paraver_and_metrics(self, tmp_path, capsys,
                                                monkeypatch):
        import json

        self._shrink(monkeypatch)
        chrome = tmp_path / "t.json"
        prv = tmp_path / "t.prv"
        met = tmp_path / "m.json"
        assert main(["trace", "--app", "nstream", "--scheduler", "las",
                     "--machine", "two-socket", "--quick",
                     "--out", str(chrome), "--paraver", str(prv),
                     "--metrics-json", str(met)]) == 0
        assert prv.read_text().startswith("#Paraver")
        assert "registry" in json.loads(met.read_text())

    def test_stats_prints_registry_summary(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        assert main(["stats", "--app", "nstream", "--scheduler", "rgp+las",
                     "--machine", "two-socket", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "numa.traffic" in out
        assert "tasks.completed" in out


class TestFaultsCommand:
    _shrink = staticmethod(TestCommands._shrink)

    def test_empty_plan_rejected(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        assert main(["faults", "--app", "nstream", "--scheduler", "las",
                     "--quick"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_crash_plan_prints_report(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        assert main(["faults", "--app", "nstream", "--scheduler", "rgp+las",
                     "--machine", "two-socket", "--quick",
                     "--crash-prob", "0.5", "--max-retries", "30"]) == 0
        out = capsys.readouterr().out
        assert "resilience report" in out
        assert "re-executions" in out
        assert "degradation" in out

    def test_inline_specs_and_save_plan(self, tmp_path, capsys, monkeypatch):
        self._shrink(monkeypatch)
        plan_path = tmp_path / "plan.json"
        assert main(["faults", "--app", "nstream", "--scheduler", "las",
                     "--machine", "two-socket", "--quick",
                     "--fail-core", "0@0.001",
                     "--slow-core", "1@0*2",
                     "--degrade-node", "1@0*0.5",
                     "--save-plan", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "core 0 fails" in out
        assert plan_path.exists()

    def test_plan_file_round_trip_through_run(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.faults import FaultPlan, TaskCrash

        self._shrink(monkeypatch)
        plan_path = tmp_path / "plan.json"
        FaultPlan(task_crashes=(TaskCrash(probability=0.4),)).dump(plan_path)
        assert main(["run", "--app", "nstream", "--scheduler", "las",
                     "--quick", "--faults", str(plan_path)]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_bad_spec_reports_clean_error(self, capsys, monkeypatch):
        self._shrink(monkeypatch)
        # fault-plan errors map to the documented exit code 5 (EXIT_FAULT)
        assert main(["faults", "--app", "nstream", "--scheduler", "las",
                     "--quick", "--fail-core", "nope"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "needs an '@'" in err
        assert "Traceback" not in err

    def test_debug_flag_reraises(self, monkeypatch):
        self._shrink(monkeypatch)
        from repro.errors import FaultError
        with pytest.raises(FaultError):
            main(["--debug", "faults", "--app", "nstream",
                  "--scheduler", "las", "--quick", "--fail-core", "nope"])
