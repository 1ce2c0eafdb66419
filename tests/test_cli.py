"""The command-line interface: exit codes, conversions, and metrics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpsearch
from conftest import FIXTURES, REMOVED_POLICY_KEYS
from dpsearch import cli
from dpsearch.cli import main
from test_yamlio import REPEATED_NAME_DOMAIN

# subprocesses import dpsearch from this checkout, installed or not
SOURCES_ENV = {**os.environ, "PYTHONPATH": str(Path(dpsearch.__file__).resolve().parents[1])}


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

    def test_malformed_document_exits_without_traceback(self, tmp_path, config_path):
        domain = tmp_path / "domain.yaml"
        text = (FIXTURES / "tsptw_domain.yaml").read_text()
        domain.write_text(text[: text.index("dual_bounds:")] + "dual_bounds: 5\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "dpsearch.cli", "solve",
                "--domain", str(domain),
                "--problem", str(FIXTURES / "tsptw_problem.yaml"),
                "--config", config_path,
            ],
            capture_output=True,
            text=True,
            env=SOURCES_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: dual_bounds in domain document must be a list")
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize(
        "effect",
        [
            # a flat sum folds into a chain 500 deep, and its emission recurses per level
            "(+ x " + " ".join(["1"] * 499) + ")",
            # reading and typing the text recurse per level
            "(+ 1 " * 300 + "x" + ")" * 300,
        ],
        ids=["flat-sum-of-500", "nested-300-deep"],
    )
    def test_a_deep_expression_exits_with_one_line(self, tmp_path, config_path, capsys, effect):
        domain = tmp_path / "domain.yaml"
        domain.write_text(
            "cost_type: integer\n"
            "reduce: min\n"
            "state_variables:\n"
            "  - {name: x, type: integer}\n"
            "transitions:\n"
            f"  - {{name: step, effect: {{x: '{effect}'}}, cost: '(+ 1 cost)'}}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 2)'], cost: '0'}\n"
        )
        problem = tmp_path / "problem.yaml"
        problem.write_text("object_numbers: {}\ntarget: {x: 0}\n")
        code = run_cli(
            "solve", "--domain", str(domain), "--problem", str(problem), "--config", config_path,
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: an expression is nested too deeply to read or compile\n"
        )

    def test_a_huge_object_count_solves(self, tmp_path, config_path, capsys):
        """A set variable over 10**11 objects: its values are checked
        without building the universe's full mask."""
        domain = tmp_path / "domain.yaml"
        domain.write_text(
            "cost_type: integer\n"
            "reduce: min\n"
            "objects: [item]\n"
            "state_variables:\n"
            "  - {name: x, type: integer}\n"
            "  - {name: S, type: set, object: item}\n"
            "transitions:\n"
            "  - {name: step, effect: {x: '(+ x 1)'}, cost: '(+ 1 cost)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 2)'], cost: '0'}\n"
        )
        problem = tmp_path / "problem.yaml"
        problem.write_text("object_numbers: {item: 99999999999}\ntarget: {x: 0, S: [3]}\n")
        out = tmp_path / "solution.txt"
        code = run_cli(
            "solve", "--domain", str(domain), "--problem", str(problem), "--config", config_path,
            "--output", str(out), "--quiet",
        )
        assert (code, capsys.readouterr().err) == (0, "")
        assert out.read_text().startswith("status: optimal\ncost: 2\n")

    def test_path_cost_overflow_exits_with_message(self, tmp_path, config_path, capsys):
        domain = tmp_path / "domain.yaml"
        domain.write_text(
            "cost_type: integer\n"
            "reduce: min\n"
            "state_variables:\n"
            "  - {name: x, type: integer}\n"
            "transitions:\n"
            "  - {name: step, effect: {x: '(+ x 1)'}, cost: '(+ 4611686018427387904 cost)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 2)'], cost: '0'}\n"
        )
        problem = tmp_path / "problem.yaml"
        problem.write_text("object_numbers: {}\ntarget: {x: 0}\n")
        code = run_cli(
            "solve",
            "--domain", str(domain),
            "--problem", str(problem),
            "--config", config_path,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: path cost through 'step'")
        assert "64-bit range" in err
        assert "Traceback" not in err

    def test_nan_table_value_exits_with_message(self, tmp_path, config_path, capsys):
        domain = tmp_path / "domain.yaml"
        domain.write_text(
            "cost_type: integer\n"
            "reduce: min\n"
            "objects: [item]\n"
            "state_variables:\n"
            "  - {name: i, type: element, object: item}\n"
            "tables:\n"
            "  - {name: x, type: continuous, args: [item]}\n"
            "transitions:\n"
            "  - {name: step, preconditions: ['(< i 1)'], effect: {i: '(+ i 1)'},\n"
            "     cost: '(+ (floor (x i)) cost)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(= i 1)'], cost: '0'}\n"
        )
        problem = tmp_path / "problem.yaml"
        problem.write_text(
            "object_numbers: {item: 2}\ntarget: {i: 0}\ntable_values: {x: {0: .nan, 1: 1.5}}\n"
        )
        code = run_cli(
            "solve",
            "--domain", str(domain),
            "--problem", str(problem),
            "--config", config_path,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: NaN value in table 'x'\n"

    def test_zero_denominator_exits_with_message(self, tmp_path, config_path, capsys):
        domain = tmp_path / "domain.yaml"
        domain.write_text(
            "cost_type: integer\n"
            "reduce: min\n"
            "objects: [item]\n"
            "state_variables:\n"
            "  - {name: i, type: element, object: item}\n"
            "tables:\n"
            "  - {name: t, type: integer, args: [item]}\n"
            "transitions:\n"
            "  - {name: step, preconditions: ['(< i 1)'], effect: {i: '(+ i 1)'},\n"
            "     cost: '(+ (t i) cost)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(= i 1)'], cost: '0'}\n"
        )
        problem = tmp_path / "problem.yaml"
        problem.write_text(
            "object_numbers: {item: 2}\ntarget: {i: 0}\ntable_values: {t: {0: '1/0', 1: 1}}\n"
        )
        code = run_cli(
            "solve",
            "--domain", str(domain),
            "--problem", str(problem),
            "--config", config_path,
        )
        assert code == 1
        assert capsys.readouterr().err == "error: bad numeric value '1/0' in table 't'\n"

    def test_negative_time_limit_exits_with_message(self, config_path, capsys):
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--time-limit", "-1",
        )
        assert code == 1
        assert capsys.readouterr().err == "error: time_limit must be at least 0\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("initial_bound: .nan", "initial_bound must be a number other than NaN"),
            ("initial_bound: abc", "initial_bound must be a number other than NaN"),
        ],
    )
    def test_bad_config_value_exits_with_message(self, tmp_path, capsys, entry, message):
        config = tmp_path / "bad.yaml"
        config.write_text(f"{{solver: caasdy, {entry}}}\n")
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", str(config),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: bad solver config: {message}\n"

    @pytest.mark.parametrize("key", REMOVED_POLICY_KEYS)
    def test_policy_key_exits_with_message(self, tmp_path, capsys, key):
        config = tmp_path / "policy.yaml"
        config.write_text(f"{{solver: cabs, {key}: 2}}\n")
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", str(config),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown key '{key}' in solver config\n"

    @pytest.mark.parametrize(
        "sections, message",
        [
            ("state_variables:\n"
             "  - {name: x, type: integer}\n"
             "  - {name: U, type: set, object: [item]}\n",
             "object in state variable must be a name, got ['item']"),
            ("state_variables:\n"
             "  - {name: x, type: integer}\n"
             "tables:\n"
             "  - {name: s, type: set, args: [item], object: [item]}\n",
             "object in table must be a name, got ['item']"),
            ("state_variables:\n"
             "  - {name: x, type: integer}\n"
             "  - {name: U, type: set, object: 5}\n",
             "object in state variable must be a name, got 5"),
        ],
        ids=["state-variable", "table", "state-variable-number"],
    )
    def test_object_that_is_no_name_exits_with_message(
        self, tmp_path, config_path, capsys, sections, message
    ):
        domain = tmp_path / "domain.yaml"
        domain.write_text(
            "cost_type: integer\n"
            "reduce: min\n"
            "objects: [item]\n"
            f"{sections}"
            "transitions:\n"
            "  - {name: step, effect: {x: '(+ x 1)'}, cost: '(+ 1 cost)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 2)'], cost: '0'}\n"
        )
        problem = tmp_path / "problem.yaml"
        problem.write_text("object_numbers: {item: 2}\ntarget: {x: 0}\n")
        code = run_cli(
            "solve",
            "--domain", str(domain),
            "--problem", str(problem),
            "--config", config_path,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_reference_reports_the_primal_integral(self, tmp_path, config_path, capsys):
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--time-limit", "5",
            "--reference", "14",
            "--output", str(tmp_path / "s.txt"),
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["cost"] == 14
        # the gap is at most 1 until the optimum 14 is found and 0 after it
        assert 0 <= report["primal_integral"] <= report["elapsed"]

    @pytest.mark.parametrize("reference", ["14", "0"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_infinite_time_limit_integrates_over_the_elapsed_time(
        self, tmp_path, capsys, where, reference
    ):
        config = tmp_path / "config.yaml"
        limit_key = ", time_limit: .inf" if where == "config" else ""
        config.write_text(f"{{solver: cabs{limit_key}}}\n")
        limit = ("--time-limit", "inf") if where == "flag" else ()
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", str(config),
            *limit,
            "--reference", reference,
            "--output", str(tmp_path / "s.txt"),
        )
        assert code == 0

        def no_constant(name):
            raise AssertionError(f"the report holds {name}, which is not JSON")

        line = capsys.readouterr().out.strip().splitlines()[-1]
        report = json.loads(line, parse_constant=no_constant)
        assert report["params"]["time_limit"] is None
        assert 0 <= report["primal_integral"] <= report["elapsed"]
        if reference == "0":  # a gap of 1 throughout: the integral is the elapsed time
            assert report["primal_integral"] == pytest.approx(report["elapsed"])

    def test_unwritable_output_exits_with_message(self, tmp_path, config_path, capsys):
        missing = tmp_path / "missing" / "x"
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--output", str(missing),
            "--quiet",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")

    def test_unwritable_output_exits_before_solving(
        self, tmp_path, config_path, capsys, monkeypatch
    ):
        def no_solve(*args):
            raise AssertionError("solved before checking --output")

        monkeypatch.setattr(cli, "solve", no_solve)
        missing = tmp_path / "missing" / "x"
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--output", str(missing),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")

    def test_failed_solve_leaves_the_output_as_it_was(
        self, tmp_path, config_path, capsys, monkeypatch
    ):
        def failing_solve(*args):
            raise dpsearch.EvaluationError("weight of 't': boom")

        monkeypatch.setattr(cli, "solve", failing_solve)
        kept, new = tmp_path / "kept.yaml", tmp_path / "new.yaml"
        kept.write_text("an earlier record\n")
        for out in (kept, new):
            code = run_cli(
                "solve",
                "--domain", str(FIXTURES / "tsptw_domain.yaml"),
                "--problem", str(FIXTURES / "tsptw_problem.yaml"),
                "--config", config_path,
                "--output", str(out),
            )
            assert code == 1
            assert capsys.readouterr().err == "error: weight of 't': boom\n"
        assert kept.read_text() == "an earlier record\n"
        assert not new.exists()

    def test_nan_reference_exits_before_solving(self, tmp_path, config_path, capsys):
        out = tmp_path / "s.txt"
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--reference", "nan",
            "--output", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --reference must be a number other than NaN\n"
        assert not out.exists()

    def test_no_config_runs_cabs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DPSEARCH_CONFIG", raising=False)
        code = run_cli(
            "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--output", str(tmp_path / "s.txt"),
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["solver"] == "cabs"
        assert "primal_integral" not in report

    def test_invalid_model_exits_with_its_errors(self, tmp_path, config_path, capsys):
        domain = (FIXTURES / "tsptw_domain.yaml").read_text()
        weight = 'cost: "(+ (c i j) cost)"'
        assert domain.count(weight) == 1
        (tmp_path / "d.yaml").write_text(domain.replace(weight, 'cost: "(+ (c i) cost)"'))
        out = tmp_path / "s.txt"
        code = run_cli(
            "solve",
            "--domain", str(tmp_path / "d.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--output", str(out),
            "--quiet",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: table 'c' takes 2 indices, got 1 in weight of ")
        assert captured.out == "" and not out.exists()


    def test_repeated_transition_name_exits_with_message(self, tmp_path, config_path, capsys):
        (tmp_path / "d.yaml").write_text(REPEATED_NAME_DOMAIN)
        (tmp_path / "p.yaml").write_text("object_numbers: {spot: 2}\ntarget: {x: 0}\n")
        code = run_cli(
            "solve",
            "--domain", str(tmp_path / "d.yaml"),
            "--problem", str(tmp_path / "p.yaml"),
            "--config", config_path,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: transition name 'a-1' is used twice\n"
        assert captured.out == ""


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

    def test_truncated_text_exits_without_traceback(self, tmp_path):
        raw = tmp_path / "truncated.txt"
        raw.write_text("3\n0 1 2\n1 0\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "dpsearch.cli", "convert", "tsptw",
                "--input", str(raw),
                "--domain-out", str(tmp_path / "d.yaml"),
                "--problem-out", str(tmp_path / "p.yaml"),
            ],
            capture_output=True,
            text=True,
            env=SOURCES_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: truncated instance text\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n0 2 3\n2 0 1\n3 1 0\n0 10\n0 10\n0 10\n 7 7 7\n",
             "unexpected field '7' past the end of the instance text"),
            ("-1\n", "negative customer count -1"),
        ],
    )
    def test_malformed_counts_exit_without_traceback(self, tmp_path, text, message):
        raw = tmp_path / "raw.txt"
        raw.write_text(text)
        proc = subprocess.run(
            [
                sys.executable, "-m", "dpsearch.cli", "convert", "tsptw",
                "--input", str(raw),
                "--domain-out", str(tmp_path / "d.yaml"),
                "--problem-out", str(tmp_path / "p.yaml"),
            ],
            capture_output=True,
            text=True,
            env=SOURCES_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "d.yaml").exists()

    @pytest.mark.parametrize(
        "problem_class, text, message",
        [
            ("talent", "2 2\n1 1 5\n1 1 0\n3 4\n", "actor 5 of scene 0 is outside actors 0..1"),
            ("mosp", "2 3\n2 0 1\n1 3\n", "product 3 of customer 1 is outside products 0..2"),
            ("graphclear", "3\n1 2 3\n1\n0 7 4\n", "edge 0 7 is outside nodes 0..2"),
            ("salbp1", "5\n2\n-1 2\n", "weights must be nonnegative"),
        ],
    )
    def test_index_out_of_range_exits_without_traceback(
        self, tmp_path, problem_class, text, message
    ):
        raw = tmp_path / "raw.txt"
        raw.write_text(text)
        proc = subprocess.run(
            [
                sys.executable, "-m", "dpsearch.cli", "convert", problem_class,
                "--input", str(raw),
                "--domain-out", str(tmp_path / "d.yaml"),
                "--problem-out", str(tmp_path / "p.yaml"),
            ],
            capture_output=True,
            text=True,
            env=SOURCES_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "d.yaml").exists()

    def test_continuous_applies_to_mdkp_only(self, capsys, tmp_path):
        raw = tmp_path / "t.txt"
        raw.write_text("3\n0 2 3\n2 0 1\n3 1 0\n0 10\n0 10\n0 10\n")
        code = run_cli(
            "convert", "tsptw", "--continuous",
            "--input", str(raw),
            "--domain-out", str(tmp_path / "d.yaml"),
            "--problem-out", str(tmp_path / "p.yaml"),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --continuous applies to mdkp only\n"
        assert not (tmp_path / "d.yaml").exists()

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

    def test_unwritable_domain_out_exits_with_message(self, capsys, tmp_path):
        raw = tmp_path / "t.txt"
        raw.write_text("3\n0 2 3\n2 0 1\n3 1 0\n0 10\n0 10\n0 10\n")
        missing = tmp_path / "missing" / "d.yaml"
        code = run_cli(
            "convert", "tsptw",
            "--input", str(raw),
            "--domain-out", str(missing),
            "--problem-out", str(tmp_path / "p.yaml"),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")

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

    @pytest.mark.parametrize("primal, dual", [("inf", "inf"), ("-inf", "-inf")])
    def test_gap_of_two_equal_infinite_bounds_is_a_full_gap(self, capsys, primal, dual):
        assert run_cli("gap", "--", primal, dual) == 0
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

    @pytest.mark.parametrize(
        "primal, dual, message",
        [("nan", "1", "primal bound must not be NaN"), ("1", "nan", "dual bound must not be NaN")],
    )
    def test_gap_rejects_nan(self, capsys, primal, dual, message):
        assert run_cli("gap", primal, dual) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "reference, horizon, events, message",
        [
            ("nan", "10", "2,10\n", "reference must not be NaN"),
            ("5", "-1", "", "horizon -1.0 must be a number of at least 0"),
            ("5", "nan", "", "horizon nan must be a number of at least 0"),
            ("5", "10", "2,nan\n", "cost must not be NaN"),
            ("5", "inf", "2,5\n", "horizon inf must be finite"),
        ],
    )
    def test_primal_integral_rejects_nan_and_a_negative_horizon(
        self, capsys, tmp_path, reference, horizon, events, message
    ):
        path = tmp_path / "events.csv"
        path.write_text(events)
        code = run_cli(
            "primal-integral", "--events", str(path), "--reference", reference,
            "--horizon", horizon,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, number, line",
        [("2,10\n6\n", 2, "6"), ("\n 1,2,3\n", 2, "1,2,3"), ("x,1\n", 1, "x,1")],
    )
    def test_primal_integral_names_a_malformed_line(self, capsys, tmp_path, text, number, line):
        path = tmp_path / "events.csv"
        path.write_text(text)
        code = run_cli(
            "primal-integral", "--events", str(path), "--reference", "5", "--horizon", "10"
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path} line {number}: expected 'time,cost', got {line!r}\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--domain", "d.yaml", "--problem", "p.yaml", "--time-limit", "abc"],
        ["solve", "--domain", "d.yaml"],
        ["gap", "10"],
        ["frobnicate"],
        [],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "usage: dpsearch" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: dpsearch" in capsys.readouterr().out


def test_usage_error_is_the_exit_status_of_the_process():
    proc = subprocess.run(
        [sys.executable, "-m", "dpsearch", "solve", "--time-limit", "abc"],
        capture_output=True,
        text=True,
        env=SOURCES_ENV,
    )
    assert proc.returncode == 1
    assert "usage: dpsearch" in proc.stderr


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dpsearch.cli", "gap", "10", "5"],
        capture_output=True,
        text=True,
        env=SOURCES_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"


def test_package_runs_as_a_module(tmp_path, config_path):
    """``python -m dpsearch`` works from a checkout with only its sources on the path."""
    out = tmp_path / "solution.txt"
    proc = subprocess.run(
        [
            sys.executable, "-m", "dpsearch", "solve",
            "--domain", str(FIXTURES / "tsptw_domain.yaml"),
            "--problem", str(FIXTURES / "tsptw_problem.yaml"),
            "--config", config_path,
            "--output", str(out),
            "--quiet",
        ],
        capture_output=True,
        text=True,
        env=SOURCES_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("status: optimal\ncost: 14\nbound: 14\n")


def test_make_instance_writes_a_pair_that_solves_to_its_optimum(tmp_path, config_path, capsys):
    """``scripts/make_instance.py`` writes a domain and problem file that
    ``solve`` proves optimal at the oracle optimum the script prints."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_instance.py"
    proc = subprocess.run(
        [sys.executable, str(script), "tsptw", "--seed", "3", "--out", str(tmp_path / "tsptw")],
        capture_output=True,
        text=True,
        env=SOURCES_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    optimum = proc.stdout.splitlines()[-1].removeprefix("oracle optimum: ")
    assert optimum.isdigit(), proc.stdout
    problem = tmp_path / "tsptw-problem.yaml"
    assert "? [" not in problem.read_text()  # every table is dense: rows
    out = tmp_path / "solution.txt"
    code = run_cli(
        "solve",
        "--domain", str(tmp_path / "tsptw-domain.yaml"),
        "--problem", str(problem),
        "--config", config_path,
        "--output", str(out),
        "--quiet",
    )
    assert code == 0
    assert out.read_text().startswith(f"status: optimal\ncost: {optimum}\nbound: {optimum}\n")
