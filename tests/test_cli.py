"""Unit tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestExperimentsCommand:
    def test_runs_table1(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "google" in out


class TestSimulateCommand:
    def test_small_simulation(self, capsys):
        assert main(["simulate", "--users", "3", "--campaigns", "30"]) == 0
        out = capsys.readouterr().out
        assert "requests served" in out
        assert "relevance ratio" in out

    def test_simulation_with_attack(self, capsys):
        assert main(
            ["simulate", "--users", "3", "--campaigns", "20", "--attack"]
        ) == 0
        out = capsys.readouterr().out
        assert "attack success" in out

    def test_output_is_independent_of_the_hash_seed(self):
        """Users route to edges by crc32, not by salted builtin ``hash``."""
        cmd = [sys.executable, "-m", "repro.cli", "simulate", "--users", "40",
               "--attack"]
        procs = [
            subprocess.Popen(
                cmd, stdout=subprocess.PIPE, env=_env(PYTHONHASHSEED=seed)
            )
            for seed in ("1", "3")
        ]
        outs = [proc.communicate(timeout=300)[0] for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        assert b"attack success" in outs[0]
        assert outs[0] == outs[1]


class TestStartup:
    def test_serve_import_does_not_load_scipy(self):
        """scipy.stats / scipy.special load on first use, not at import."""
        code = (
            "import sys, repro.serve; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_env(), check=True, timeout=120,
        ).stdout
        assert out.strip() == "[]"


def _env(**extra):
    """This interpreter's environment with ``src`` importable."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = src if not path else os.pathsep.join([src, path])
    return env


class TestAttackCommand:
    def test_case_study_attack(self, capsys):
        assert main(["attack", "--level", "ln4"]) == 0
        out = capsys.readouterr().out
        assert "full year" in out
        assert "home recovered" in out


class TestServeCommand:
    def test_replay_run_reports_and_writes_artifacts(self, capsys, tmp_path):
        import json

        prom = tmp_path / "serve.prom"
        bench = tmp_path / "BENCH_serve.json"
        code = main(
            ["serve", "--replay", "--shards", "2", "--duration-events", "120",
             "--users", "5", "--campaigns", "30", "--inline",
             "--prom-file", str(prom), "--bench-json", str(bench)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["processed"] == 120
        assert report["dropped"] == 0
        # The exactness contract surfaces in the report itself.
        assert report["epsilon_spent"] == report["audit_epsilon"]
        assert len(report["response_digest"]) == 64
        prom_text = prom.read_text()
        assert "serve_events_total" in prom_text
        assert "privacy_epsilon_spent" in prom_text
        payload = json.loads(bench.read_text())
        assert payload["experiment_id"] == "serve"
        assert payload["wall_seconds"] > 0

    def test_duration_sizes_workload_from_qps(self, capsys):
        code = main(
            ["serve", "--replay", "--shards", "1", "--inline", "--users", "4",
             "--campaigns", "20", "--qps", "50", "--duration", "2"]
        )
        assert code == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["processed"] == 100


class TestVerifyCommand:
    def test_valid_budget_passes(self, capsys):
        code = main(
            ["verify", "--r", "500", "--epsilon", "1.0", "--delta", "0.01",
             "--n", "10", "--samples", "20000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic check:  OK" in out
