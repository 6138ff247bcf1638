import csv
import io
import json

import pytest

from daesvr.benchmarks import (
    CASES,
    CSV_COLUMNS,
    PLOT_COLUMNS,
    PROBES_1D,
    case_names,
    plot_rows,
    render_result,
    run_case,
    self_check,
    sweep,
    write_csv,
    write_plot_data,
)
from daesvr.errors import MissingExact, SelfCheckError, ValidationError
from daesvr.schema import load_problem


@pytest.fixture(scope="module")
def results():
    """Every packaged benchmark at its default configuration."""
    return {name: run_case(name) for name in case_names()}


class TestRunCase:
    def test_all_cases_pass_their_bounds(self, results):
        for name, res in results.items():
            assert res.passed is True, f"{name}: {res.failures}"
            assert res.failures == ()

    def test_reports_cover_all_probes(self, results):
        for name, res in results.items():
            case = CASES[name]
            assert len(res.report.rows) == res.problem.unknowns
            for rows in res.report.rows:
                assert len(rows) == len(case.probes)

    def test_modes_and_configs(self, results):
        for name, res in results.items():
            assert res.mode == "dual"
            assert res.config == CASES[name].config

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            run_case("example9")

    def test_unknown_override(self):
        with pytest.raises(ValidationError):
            run_case("example3", tolerance=1e-3)

    def test_override_changes_config(self):
        res = run_case("example3", gamma=1e5)
        assert res.config.gamma == 1e5

    def test_ungraded_resolution_returns_none(self):
        # no stored reference row for m=4
        res = run_case("example1", m=4)
        assert res.passed is None
        assert res.failures == ()

    def test_label_encodes_configuration(self, results):
        assert results["example3"].label == "example3[m=10,gamma=1e+06]"


class TestSelfCheck:
    def test_packaged_systems_are_consistent(self):
        for name in case_names():
            p = load_problem(name)
            worst = self_check(name, p, CASES[name].probes)
            assert worst <= 1e-10

    def test_detects_broken_transcription(self):
        data = load_problem("example1").source
        data["equations"][0]["rhs"] = "sin(t)"
        broken = load_problem(json.dumps(data))
        with pytest.raises(SelfCheckError, match="equation"):
            self_check("example1", broken, PROBES_1D)

    def test_detects_broken_exact_solution_text(self):
        # u1 of example5 enters its equations only through du1/dt, so only
        # a derivative taken from the text itself sees the slip
        data = load_problem("example5").source
        data["exact"][0] = "pow(x,2)*exp(-2*t)"
        broken = load_problem(json.dumps(data))
        with pytest.raises(SelfCheckError, match="equation 1"):
            self_check("example5", broken, CASES["example5"].probes)

    def test_needs_an_exact_solution(self):
        data = load_problem("example1").source
        del data["exact"]
        with pytest.raises(MissingExact):
            self_check("example1", load_problem(json.dumps(data)), PROBES_1D)


class TestSweep:
    def test_empty_inputs_give_empty_sweep(self):
        sr = sweep("example1", [])
        assert sr.cells == []

    @pytest.mark.parametrize("bad_m", [[0], [-3], [2.5], [4, 0]])
    def test_m_validation(self, bad_m):
        with pytest.raises(ValidationError):
            sweep("example1", bad_m)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            sweep("example1", [6], gamma_values=[-1.0])
        with pytest.raises(ValidationError):
            sweep("example1", [6], gamma_values=[float("inf")])

    def test_resolution_grid(self):
        sr = sweep("example1", [4, 10])
        assert [c.config.m for c in sr.cells] == [4, 10]
        assert sr.cells[0].passed is None
        assert sr.cells[1].passed is True

    def test_failed_cell_is_recorded_not_raised(self):
        # far past the double-precision conditioning ceiling: the dual
        # factorization fails and the sweep must carry the error forward
        sr = sweep("example5", [14], gamma_values=[1e11])
        cell = sr.cells[0]
        assert cell.error is not None
        assert "NotPositiveDefinite" in cell.error
        assert cell.passed is None

    def test_interpolant_mode_when_gamma_omitted(self):
        sr = sweep("example5", [4])
        cell = sr.cells[0]
        assert cell.mode == "interpolant"
        assert "gamma=inf" in cell.label
        assert cell.passed is None  # no stored reference at m=4
        assert cell.report is not None

    def test_fractional_case_stays_dual_without_gamma(self):
        sr = sweep("example3", [6])
        cell = sr.cells[0]
        assert cell.mode == "dual"
        assert cell.config.gamma == CASES["example3"].config.gamma


class TestCsv:
    def test_header_and_row_count(self, results):
        buf = io.StringIO()
        write_csv([results["example3"]], buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        # three unknowns, five probes
        assert len(lines) == 1 + 15

    def test_point_x_blank_on_intervals(self, results):
        buf = io.StringIO()
        write_csv([results["example3"]], buf)
        first = buf.getvalue().strip().split("\n")[1].split(",")
        assert first[CSV_COLUMNS.index("point_x")] == ""

    def test_rectangle_fills_both_coordinates(self, results):
        buf = io.StringIO()
        write_csv([results["example5"]], buf)
        first = buf.getvalue().strip().split("\n")[1].split(",")
        assert first[CSV_COLUMNS.index("point_x")] != ""

    def test_deterministic_bytes(self, results):
        a, b = io.StringIO(), io.StringIO()
        write_csv([results["example1"]], a)
        write_csv([results["example1"]], b)
        assert a.getvalue() == b.getvalue()

    def test_repeated_solve_gives_identical_csv(self):
        a, b = io.StringIO(), io.StringIO()
        write_csv([run_case("example3")], a)
        write_csv([run_case("example3")], b)
        assert a.getvalue() == b.getvalue()

    def test_config_labels_opt_in(self, results):
        buf = io.StringIO()
        write_csv([results["example3"]], buf, label_with_config=True)
        assert "example3[m=10,gamma=1e+06]" in buf.getvalue()


class TestPlotRows:
    def test_interval_sampling(self, results):
        rows = plot_rows(results["example1"])
        assert len(rows) == 3 * 201
        assert rows[0][0] == "example1"
        assert len(rows[0]) == len(PLOT_COLUMNS)

    def test_rectangle_sampling(self, results):
        rows = plot_rows(results["example5"], points_2d=11)
        assert len(rows) == 3 * 11 * 11

    def test_errors_are_small_everywhere_sampled(self, results):
        rows = plot_rows(results["example4"], points_1d=51)
        worst = max(float(r[-1]) for r in rows)
        assert worst <= 1e-6


class TestPlotData:
    def test_list_concatenates_plot_rows(self, results):
        a, b = results["example3"], results["example5"]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(PLOT_COLUMNS)
        writer.writerows(plot_rows(a) + plot_rows(b))
        buf = io.StringIO()
        write_plot_data([a, b], buf)
        assert buf.getvalue() == expected.getvalue()

    def test_single_result_matches_one_element_list(self, results):
        one, listed = io.StringIO(), io.StringIO()
        write_plot_data(results["example1"], one)
        write_plot_data([results["example1"]], listed)
        assert one.getvalue() == listed.getvalue()


class TestRender:
    def test_header_and_verdict(self, results):
        text = render_result(results["example3"])
        assert "example3" in text
        assert "m=10" in text
        assert "PASS" in text
        assert "u1" in text and "u3" in text

    def test_failure_text_lists_reasons(self):
        res = run_case("example3", gamma=1e-6)
        text = render_result(res)
        if res.passed is False:
            assert "FAIL" in text
            assert res.failures

    def test_no_timing_text(self, results):
        # rendered output is part of the deterministic surface
        text = render_result(results["example1"])
        assert "second" not in text
        assert res_has_no_duration(text)


def res_has_no_duration(text: str) -> bool:
    return "elapsed" not in text and " ms" not in text
