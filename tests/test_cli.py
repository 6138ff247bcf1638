import json

import pytest

from daesvr.benchmarks import CSV_COLUMNS, PLOT_COLUMNS
from daesvr.cli import main

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

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--file", str(tmp_path / "nope.json")]) == 2

    def test_bad_fractional_scheme(self, capsys):
        assert main(["solve", "example2", "--fractional-scheme", "magic"]) == 2

    def test_l1_scheme_accepted(self, capsys):
        code = main(["solve", "example3", "--fractional-scheme", "l1:600", "--m", "8"])
        assert code == 0

    def test_without_exact_prints_summary(self, tmp_path, capsys):
        data = dict(OSCILLATOR)
        data = json.loads(json.dumps(data))
        del data["exact"]
        path = problem_file(tmp_path, data)
        assert main(["solve", "--file", path, "--m", "8", "--gamma", "1e8"]) == 0
        out = capsys.readouterr().out
        assert "trained" in out

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

    def test_negative_gamma(self, capsys):
        assert main(["sweep", "example1", "--m", "4", "--gamma", "-1"]) == 2

    def test_errored_cell_sets_exit_code(self, capsys):
        # past the double-precision conditioning ceiling
        assert main(["sweep", "example5", "--m", "14", "--gamma", "1e11"]) == 1
        out = capsys.readouterr().out
        assert "failed:" in out

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
