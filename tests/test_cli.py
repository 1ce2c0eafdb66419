"""The command-line interface: exit codes, conversions, and metrics."""

import json
import subprocess
import sys

import pytest

from conftest import FIXTURES
from dpsearch.cli import main


def run_cli(*argv, capsys=None):
    return main(list(argv))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("{solver: cabs}\n")
    return str(path)


class TestSolve:
    def test_fixture_solves_to_optimal(self, tmp_path, config_path, capsys):
        out = tmp_path / "solution.txt"
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--output", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("status: optimal\ncost: 14\nbound: 14\n")
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["status"] == "optimal"
        assert report["optimality_gap"] == 0.0

    def test_byte_identical_across_runs(self, tmp_path, config_path, capsys):
        outputs = []
        for run in range(2):
            out = tmp_path / f"solution-{run}.txt"
            code = run_cli(
                "solve",
                "--domain", str(FIXTURES / "tsptw_domain.yaml"),
                "--problem", str(FIXTURES / "tsptw_problem.yaml"),
                "--config", config_path,
                "--output", str(out),
                "--quiet",
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_yaml_exits_nonzero_and_names_key(self, tmp_path, config_path, capsys):
        domain = tmp_path / "bad.yaml"
        domain.write_text("cost_type: integer\nreduce: min\nwobble: 3\n")
        code = run_cli(
            "solve",
            "--domain", str(domain),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
        )
        assert code == 1
        assert "wobble" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cost, fault",
        [
            ('"(+ (/ (c i j) 0) cost)"', "division by zero"),
            ('"(+ (* (c i j) 9223372036854775807) cost)"', "64-bit range"),
        ],
    )
    def test_arithmetic_fault_exits_with_message(
        self, tmp_path, config_path, capsys, cost, fault
    ):
        domain = tmp_path / "domain.yaml"
        text = (FIXTURES / "tsptw_domain.yaml").read_text()
        domain.write_text(text.replace('"(+ (c i j) cost)"', cost))
        code = run_cli(
            "solve",
            "--domain", str(domain),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: weight of 'visit")
        assert fault in err
        assert "Traceback" not in err

    def test_time_limit_zero_reports_bound(self, tmp_path, config_path, capsys):
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--time-limit", "0",
            "--output", str(tmp_path / "s.txt"),
        )
        assert code == 3
        text = (tmp_path / "s.txt").read_text()
        assert text.splitlines()[0] == "status: no-solution-found"
        assert "bound: 12" in text  # root dual bound: sum of cheapest edges + depot

    def test_env_var_supplies_config(self, tmp_path, config_path, capsys, monkeypatch):
        monkeypatch.setenv("DPSEARCH_CONFIG", config_path)
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--output", str(tmp_path / "s.txt"),
            "--quiet",
        )
        assert code == 0


class TestConvert:
    def test_tsptw_roundtrip_solves_equal(self, tmp_path, config_path, capsys):
        raw = tmp_path / "desk.txt"
        raw.write_text("3\n0 2 3\n2 0 1\n3 1 0\n0 10\n0 10\n0 10\n")
        code = run_cli(
            "convert", "tsptw",
            "--input", str(raw),
            "--domain-out", str(tmp_path / "d.yaml"),
            "--problem-out", str(tmp_path / "p.yaml"),
        )
        assert code == 0
        out = tmp_path / "solution.txt"
        code = run_cli(
            "solve",
            "--domain", str(tmp_path / "d.yaml"),
            "--problem", str(tmp_path / "p.yaml"),
            "--config", config_path,
            "--output", str(out),
            "--quiet",
        )
        assert code == 0
        assert "cost: 6" in out.read_text()

    def test_unknown_class(self, capsys, tmp_path):
        raw = tmp_path / "x.txt"
        raw.write_text("whatever")
        code = run_cli(
            "convert", "tsp2",
            "--input", str(raw),
            "--domain-out", str(tmp_path / "d.yaml"),
            "--problem-out", str(tmp_path / "p.yaml"),
        )
        assert code == 1
        assert "tsp2" in capsys.readouterr().err

    def test_mdkp_fractional_gate(self, capsys, tmp_path):
        raw = tmp_path / "frac.txt"
        raw.write_text("2 1\n3 4\n2.5\n3\n4\n")
        args = [
            "convert", "mdkp",
            "--input", str(raw),
            "--domain-out", str(tmp_path / "d.yaml"),
            "--problem-out", str(tmp_path / "p.yaml"),
        ]
        assert run_cli(*args) == 1
        assert run_cli(*args, "--continuous") == 0


class TestMetricsCommands:
    def test_gap(self, capsys):
        assert run_cli("gap", "10", "5") == 0
        assert capsys.readouterr().out.strip() == "0.5"
        assert run_cli("gap", "6", "absent") == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_primal_integral(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("2,10\n6,5\n")
        code = run_cli(
            "primal-integral",
            "--events", str(events),
            "--reference", "5",
            "--horizon", "10",
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "4.0"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dpsearch.cli", "gap", "10", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"
