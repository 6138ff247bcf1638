import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daesvr.benchmarks
import daesvr.cli as cli
import daesvr.legendre
from daesvr.benchmarks import CSV_COLUMNS, PLOT_COLUMNS
from daesvr.cli import main
from daesvr.errors import SelfCheckError
from daesvr.legendre import legendre_table
from daesvr.model import Identity
from daesvr.schema import load_problem
from daesvr.solver import SolverConfig, solve

OSCILLATOR = {
    "unknowns": 2,
    "domain": {"lo": 0.0, "hi": 1.0},
    "equations": [
        {
            "terms": [
                {"coeff": 1, "op": "deriv", "order": 1, "target": 0},
                {"coeff": -1, "op": "identity", "target": 1},
            ],
            "rhs": 0,
        },
        {
            "terms": [
                {"coeff": 1, "op": "identity", "target": 0},
                {"coeff": 1, "op": "deriv", "order": 1, "target": 1},
            ],
            "rhs": 0,
        },
    ],
    "side_conditions": [
        {"target": 0, "point": 0.0, "value": 0.0},
        {"target": 1, "point": 0.0, "value": 1.0},
    ],
    "exact": ["sin(t)", "cos(t)"],
}


def problem_file(tmp_path, data=None, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data or OSCILLATOR))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "example1", "--m", "0"],
        ["sweep", "example1", "--m", "4", "--gamma", "inf"],
        ["bench", "example1", "example3", "--degree", "0"],
        ["solve", "example1", "--gamma", "inf"],
        ["solve", "example3", "--fractional-scheme", "l1:1"],
        ["sweep", "example1", "--m", ","],
        ["sweep", "example1", "--m", "4", "--gamma", ","],
        ["solve", "example3", "--gamma", "1e-320"],
        ["sweep", "example3", "--m", "8", "--gamma", "1e-320"],
    ],
    ids=" ".join,
)
def test_bad_option_value_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no case ran
    assert err.count("\n") == 1 and err.startswith(f"{argv[0]}: ")
    assert "Traceback" not in err


class TestList:
    def test_exit_code_and_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for k in range(1, 6):
            assert f"example{k}" in out

    def test_shows_default_configuration(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "default m=" in out
        assert "rectangle" in out and "interval" in out


class TestSolve:
    def test_builtin_with_overrides(self, capsys):
        assert main(["solve", "example3", "--m", "8", "--gamma", "1e5"]) == 0
        out = capsys.readouterr().out
        assert "example3" in out
        assert "m=8" in out

    def test_problem_file(self, tmp_path, capsys):
        path = problem_file(tmp_path)
        assert main(["solve", "--file", path, "--m", "8", "--gamma", "1e8"]) == 0
        out = capsys.readouterr().out
        assert "u1" in out and "u2" in out

    def test_csv_output(self, tmp_path, capsys):
        path = problem_file(tmp_path)
        out_csv = tmp_path / "errors.csv"
        code = main(
            ["solve", "--file", path, "--m", "8", "--gamma", "1e8", "--out", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 5

    def test_plot_data_output(self, tmp_path):
        path = problem_file(tmp_path)
        plot = tmp_path / "plot.csv"
        code = main(
            ["solve", "--file", path, "--m", "8", "--gamma", "1e8", "--plot-data", str(plot)]
        )
        assert code == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == ",".join(PLOT_COLUMNS)
        assert len(lines) == 1 + 2 * 201

    def test_gamma_must_be_positive(self, capsys):
        assert main(["solve", "example1", "--gamma", "-5"]) == 2
        err = capsys.readouterr().err
        assert "> 0" in err

    def test_unknown_name(self, capsys):
        assert main(["solve", "example9"]) == 2

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["solve"]) == 2
        path = problem_file(tmp_path)
        assert main(["solve", "example1", "--file", path]) == 2

    def test_side_condition_outside_the_domain_is_a_usage_error(self, tmp_path, capsys):
        # refused when the file is loaded, before any solve
        data = json.loads(json.dumps(OSCILLATOR))
        data["side_conditions"][1]["point"] = 2.0
        assert main(["solve", "--file", problem_file(tmp_path, data)]) == 2
        assert "side_conditions[1]: t = 2.0 outside [0.0, 1.0]" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--file", str(tmp_path / "nope.json")]) == 2

    def test_bad_fractional_scheme(self, capsys):
        assert main(["solve", "example2", "--fractional-scheme", "magic"]) == 2

    def test_bad_l1_grid_names_the_value(self, capsys):
        assert main(["solve", "example3", "--fractional-scheme", "l1:abc"]) == 2
        assert "bad l1 grid size in 'l1:abc'" in capsys.readouterr().err

    def test_analytic_scheme_is_the_default(self, capsys):
        assert main(["solve", "example3"]) == 0
        default = capsys.readouterr().out
        assert main(["solve", "example3", "--fractional-scheme", "analytic"]) == 0
        assert capsys.readouterr().out == default

    def test_overflowing_gamma_is_a_run_error(self, capsys):
        # a finite 1/gamma passes the configuration; Gauss-Newton names the overflow
        assert main(["solve", "example1", "--gamma", "1e306"]) == 1
        err = capsys.readouterr().err
        assert err == "solve: Gauss-Newton normal matrix overflows at gamma = 1e+306\n"

    def test_overflowing_objective_is_a_run_error(self, capsys):
        # nearer the float maximum the starting objective overflows first,
        # named without a RuntimeWarning
        assert main(["solve", "example1", "--gamma", "1e308"]) == 1
        err = capsys.readouterr().err
        assert err == "solve: Gauss-Newton objective overflows at gamma = 1e+308\n"

    def test_l1_scheme_accepted(self, capsys):
        code = main(["solve", "example3", "--fractional-scheme", "l1:600", "--m", "8"])
        assert code == 0

    def test_without_exact_prints_summary(self, tmp_path, capsys, monkeypatch):
        data = dict(OSCILLATOR)
        data = json.loads(json.dumps(data))
        del data["exact"]
        path = problem_file(tmp_path, data)
        argv = ["solve", "--file", path, "--m", "8", "--gamma", "1e8"]
        model = solve(load_problem(json.dumps(data)), SolverConfig(m=8, gamma=1e8))
        probes = (0.2, 0.4, 0.6, 0.8, 1.0)
        values = model.values(Identity(), probes)
        # the solve is taken as trained, so every table counted is printing's
        monkeypatch.setattr(cli, "solve", lambda problem, config: model)
        tables = []
        monkeypatch.setattr(
            daesvr.legendre, "legendre_table",
            lambda *a: tables.append(a) or legendre_table(*a),
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "trained" in out
        for pt, column in zip(probes, values.T):
            want = " ".join(f"u{u + 1}={v:.9g}" for u, v in enumerate(column))
            assert f"  at {pt}: {want}\n" in out
        assert len(tables) == 1

    def test_rectangle_without_exact_prints_default_probes(self, tmp_path, capsys):
        # a rectangle problem with no case of its own is probed at five
        # points on the diagonal of its domain, (x, t) each
        data = load_problem("example5").source
        del data["exact"]
        path = problem_file(tmp_path, data)
        assert main(["solve", "--file", path, "--m", "6", "--gamma", "1e8"]) == 0
        out = capsys.readouterr().out
        probes = [(-0.3, 0.2), (-0.09999999999999998, 0.4), (0.09999999999999998, 0.6),
                  (0.30000000000000004, 0.8), (0.5, 1.0)]
        model = solve(load_problem(json.dumps(data)), SolverConfig(m=6, gamma=1e8))
        values = model.values(Identity(), probes)
        lines = [line for line in out.splitlines() if line.startswith("  at ")]
        want = [
            f"  at {pt}: " + " ".join(f"u{u + 1}={v:.9g}" for u, v in enumerate(column))
            for pt, column in zip(probes, values.T)
        ]
        assert lines == want

    def test_undefined_expression_value_is_named(self, tmp_path, capsys):
        data = json.loads(json.dumps(OSCILLATOR))
        data["equations"][0]["rhs"] = "sqrt(t-0.5)"
        path = problem_file(tmp_path, data)
        assert main(["solve", "--file", path, "--m", "8"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'sqrt(t-0.5)'" in err and "math domain error" in err

    def test_complex_expression_value_is_named(self, tmp_path, capsys):
        # a fractional power of a negative base was a NaN that ended in a
        # scipy traceback; it is refused like the sqrt of a negative number
        data = json.loads(json.dumps(OSCILLATOR))
        data["equations"][0]["rhs"] = "(t-0.5)**0.5"
        path = problem_file(tmp_path, data)
        assert main(["solve", "--file", path, "--m", "8"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'(t-0.5)**0.5'" in err and "the value is not real" in err

    def test_malformed_number_is_named(self, tmp_path, capsys):
        data = json.loads(json.dumps(OSCILLATOR))
        data["side_conditions"][0]["target"] = "0"
        path = problem_file(tmp_path, data)
        assert main(["solve", "--file", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("solve: side_conditions[0].target: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("equations",), 7),
            (("equations", 0, "terms"), 3),
            (("side_conditions",), 5),
            (("exact",), 7),
            (("exact",), "t"),
            (("exact",), "sin(t)"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v),
    )
    def test_field_that_is_not_a_list_is_named(self, tmp_path, capsys, path, value):
        data = json.loads(json.dumps(OSCILLATOR))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        where = path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])
        assert main(["solve", "--file", problem_file(tmp_path, data)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"solve: {where}: expected a list, got ")
        assert "Traceback" not in err

    def test_without_exact_rejects_error_tables(self, tmp_path, capsys):
        data = json.loads(json.dumps(OSCILLATOR))
        del data["exact"]
        path = problem_file(tmp_path, data)
        out_csv = tmp_path / "errors.csv"
        code = main(["solve", "--file", path, "--m", "8", "--out", str(out_csv)])
        assert code == 1
        assert not out_csv.exists()


class TestBench:
    def test_single_case_passes(self, capsys):
        assert main(["bench", "example3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "bench: 1 case(s) run, 1 graded, 0 failed bounds" in out

    def test_unknown_case(self, capsys):
        assert main(["bench", "example3", "example9"]) == 2

    def test_failing_bounds_exit_code(self, capsys):
        # paper-level accuracy is impossible at this tiny resolution
        assert main(["bench", "example3", "--m", "10", "--gamma", "1e-6"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_failed_case_is_named_and_the_others_print(self, capsys):
        # example5's dual fails at m = 8; example1 before it still prints
        assert main(["bench", "example1", "example5", "--m", "8"]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("example1 (m=8, gamma=1e+08, dual)\n")
        assert "example5" not in out
        assert "bench: 1 case(s) run, 0 graded, 0 failed bounds" in out
        assert err.startswith("bench: example5: dual matrix is not positive definite")

    def test_output_is_deterministic(self, capsys):
        main(["bench", "example3"])
        first = capsys.readouterr().out
        main(["bench", "example3"])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_artifact(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "example3", "example4", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 15


class TestSweep:
    def test_resolution_grid(self, capsys):
        assert main(["sweep", "example1", "--m", "4,10"]) == 0
        out = capsys.readouterr().out
        assert "m=4" in out and "m=10" in out
        assert "sweep: 2 cell(s), 0 errored" in out

    def test_unknown_case(self, capsys):
        assert main(["sweep", "example9", "--m", "4"]) == 2

    def test_bad_m_list(self, capsys):
        assert main(["sweep", "example1", "--m", "4,abc"]) == 2

    @pytest.mark.parametrize("flag, noun", [("--m", "integers"), ("--gamma", "numbers")])
    def test_list_parser_names_its_type(self, flag, noun, capsys):
        assert main(["sweep", "example1", flag, "4,abc"]) == 2
        assert f"expected comma-separated {noun}, got '4,abc'" in capsys.readouterr().err

    def test_negative_gamma(self, capsys):
        assert main(["sweep", "example1", "--m", "4", "--gamma", "-1"]) == 2

    def test_errored_cell_sets_exit_code(self, capsys):
        # past the double-precision conditioning ceiling
        assert main(["sweep", "example5", "--m", "14", "--gamma", "1e11"]) == 1
        out = capsys.readouterr().out
        assert "failed:" in out

    def test_error_outside_a_cell_is_a_run_error(self, monkeypatch, capsys):
        def failing(name, problem, probes):
            raise SelfCheckError(f"{name}: exact solution violates equation 0")

        monkeypatch.setattr(daesvr.benchmarks, "self_check", failing)
        assert main(["sweep", "example3", "--m", "8"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "sweep: example3: exact solution violates equation 0\n"

    def test_csv_labels_carry_configuration(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "example3", "--m", "8,10", "--gamma", "1e6", "--out", str(out_csv)]
        )
        assert code == 0
        text = out_csv.read_text()
        assert "example3[m=8,gamma=1e+06]" in text
        assert "example3[m=10,gamma=1e+06]" in text


class TestParser:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "example1", "--bias"],
            ["bench", "example1", "--hard-ic"],
            ["bench", "example2", "--quadrature-nodes", "8"],
        ],
        ids=" ".join,
    )
    def test_unknown_flag_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no case ran
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in err


def test_import_leaves_scipy_linalg_out():
    # scipy.linalg is most of the import time and only the solves need it,
    # so `daesvr list`, `--help` and usage errors run without loading it
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, daesvr, daesvr.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
