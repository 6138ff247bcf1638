import json
import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf, workdps
from numpy.testing import assert_allclose

import daesvr.highprec as highprec
from daesvr.benchmarks import CASES, sweep
from daesvr.errors import DaeSvrError, MissingExact, SingularSystem, ValidationError
from daesvr.highprec import solve_interpolant, solve_square
from daesvr.expressions import MPF
from daesvr.legendre import legendre_table
from daesvr.model import DaeProblem, Identity
from daesvr.schema import _build, load_problem
from daesvr.solver import SolverConfig, TrainedModel, assemble, build_grid, report

OSCILLATOR = json.dumps(
    {
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
)

PROBES = (0.2, 0.4, 0.6, 0.8, 1.0)

# Polynomial solutions inside the basis span, on domains whose widths are not
# powers of two: the chain factor 2/(hi - lo) and the canonical map are then
# inexact in binary, so any value rounded to double on the extended-precision
# path shows as an error near 1e-17 instead of near 1e-40.
CUBIC = json.dumps(
    {
        "unknowns": 1,
        "domain": {"lo": 0.0, "hi": 0.7},
        "equations": [
            {"terms": [{"coeff": 1, "op": "deriv", "order": 1, "target": 0}], "rhs": "3*t**2"}
        ],
        "side_conditions": [{"target": 0, "point": 0.0, "value": 0.0}],
        "exact": ["t**3"],
    }
)

HEAT = json.dumps(
    {
        "unknowns": 1,
        "domain2": {"x_lo": -0.3, "x_hi": 0.9, "t_lo": 0.0, "t_hi": 0.7},
        "equations": [
            {
                "terms": [
                    {"coeff": 1, "op": "deriv", "order": 1, "var": "t", "target": 0},
                    {"coeff": -1, "op": "deriv", "order": 2, "var": "x", "target": 0},
                ],
                "rhs": "x**2 + 1 - 2*t",
            }
        ],
        "side_conditions": [{"target": 0, "x": "*", "t": 0.0, "value": 0}],
        "exact": ["x**2*t + t"],
    }
)


# Rectangles that keep the assembled system: a coefficient that varies
# along x, and a condition at one x (which the counts make square only
# with an explicit degree, 5 on both axes at m = 4).  Both exact solutions
# lie in the basis span.
X_COEFFICIENT = json.dumps(
    {
        "unknowns": 1,
        "domain2": {"x_lo": -0.3, "x_hi": 0.9, "t_lo": 0.0, "t_hi": 0.7},
        "equations": [
            {
                "terms": [
                    {"coeff": 1, "op": "deriv", "order": 1, "var": "t", "target": 0},
                    {"coeff": "-x", "op": "deriv", "order": 1, "var": "x", "target": 0},
                ],
                "rhs": "x**2 + 1 - 2*x**2*t",
            }
        ],
        "side_conditions": [{"target": 0, "x": "*", "t": 0.0, "value": 0}],
        "exact": ["x**2*t + t"],
    }
)

SINGLE_X = json.dumps(
    {
        "unknowns": 1,
        "domain2": {"x_lo": -0.3, "x_hi": 0.9, "t_lo": 0.0, "t_hi": 0.7},
        "equations": [
            {
                "terms": [
                    {"coeff": 1, "op": "deriv", "order": 1, "var": "t", "target": 0},
                    {"coeff": 1, "op": "deriv", "order": 1, "var": "x", "target": 0},
                ],
                "rhs": "x**2 + 1 + 2*x*t",
            }
        ],
        "side_conditions": [
            {"target": 0, "x": "*", "t": 0.0, "value": 0},
            {"target": 0, "x": "*", "t": 0.0, "order": 1, "value": "x**2 + 1"},
            {"target": 0, "x": 0.5, "t": 0.5, "value": 0.625},
        ],
        "exact": ["x**2*t + t"],
    }
)

RECTANGLE_PROBES = ((-0.3, 0.1), (0.2, 0.35), (0.75, 0.6), (0.9, 0.7))


def mode_matrix(A0, blocks, m):
    """The matrix of the system `_solve_modes` solves, I (x) A0 + sum N (x) B,
    with rows and columns mode-major; its entries are exact at 3000 bits."""
    n = len(A0)
    M = np.zeros((m * n, m * n), dtype=object)
    with mp.workprec(3000):
        for j in range(m):
            M[j * n:(j + 1) * n, j * n:(j + 1) * n] += A0
            for N, B in blocks:
                for p in range(m):
                    M[j * n:(j + 1) * n, p * n:(p + 1) * n] += N[j, p] * B
    return M


@pytest.fixture(scope="module", params=[6, 8])
def example5(request):
    """The example5 interpolant at 40 digits, and the system (A, b) its
    kernel solved, in x-modes, with the solution w the kernel returned
    (mode-major, like the rows of A)."""
    seen = {}
    solve_modes = highprec._solve_modes

    def recording(A0, blocks, b):
        X, residual = solve_modes(A0, blocks, b)
        seen["system"] = mode_matrix(A0, blocks, len(b)), b.ravel(), X.ravel()
        return X, residual

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(highprec, "_solve_modes", recording)
        config = SolverConfig(m=request.param)
        model = solve_interpolant(load_problem("example5"), config, digits=40)
    return (model, *seen["system"])


@pytest.fixture(scope="module")
def coarse():
    return solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=6), digits=40)


@pytest.fixture(scope="module")
def fine():
    return solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=10), digits=40)


def abs_errors(model, probes):
    """Absolute errors of every (unknown, probe) row of the model's report."""
    return [row.abs_err for rows in report(model, probes).rows for row in rows]


class TestInterval:
    def test_coarse_accuracy(self, coarse):
        assert max(abs_errors(coarse, PROBES)) <= 1e-6

    def test_fine_accuracy(self, fine):
        assert max(abs_errors(fine, PROBES)) <= 1e-12

    def test_refinement_improves_every_probe(self, coarse, fine):
        for f, c in zip(abs_errors(fine, PROBES), abs_errors(coarse, PROBES)):
            assert f < c

    def test_square_system_residual_is_tiny(self, coarse):
        # the collocation equations are solved exactly at working precision,
        # far below anything double arithmetic could represent as nonzero
        assert coarse.residual_inf <= 1e-35

    def test_evaluate_is_float_of_mp(self, coarse):
        # the value is summed in working precision and rounded once; on [0, 1]
        # the canonical coordinate of t is 2t - 1
        with workdps(40):
            s = np.array([2 * mpf(0.4) - 1], dtype=object)
            want = mpmath.fdot(coarse.weights[0], legendre_table(coarse.block, s)[0][:, 0])
        assert coarse.evaluate(0, 0.4) == float(want)

    def test_values_are_mp(self, coarse):
        # values stay mpf, summed in working precision; on [0, 1] the
        # canonical coordinate of t is 2t - 1
        with workdps(40):
            s = np.array([2 * mpf(0.4) - 1], dtype=object)
            want = mpmath.fdot(coarse.weights[0], legendre_table(coarse.block, s)[0][:, 0])
        got = coarse.values(Identity(), [0.4])
        assert got.shape == (2, 1) and type(got[0, 0]) is mpf
        assert float(got[0, 0]) == float(want)

    def test_errors_are_consistent(self, fine):
        row = report(fine, [0.6]).rows[0][0]
        assert_allclose(row.rel_err, row.abs_err / abs(math.sin(0.6)), rtol=1e-7)

    def test_block_size_interval(self, coarse):
        assert isinstance(coarse, TrainedModel)
        assert coarse.block == 7
        assert coarse.weights.shape == (2, 7)
        assert all(isinstance(w, mpf) for w in coarse.weights.ravel())
        # the model carries the mpf problem it solved
        assert all(isinstance(v, mpf) for v in coarse.problem.domain)


class TestRectangle:
    def test_small_rectangle_solve(self):
        p = load_problem("example5")
        model = solve_interpolant(p, SolverConfig(m=4), digits=30)
        assert model.block == 4 * 6
        assert max(abs_errors(model, ((0.02, 0.02), (0.1, 0.1), (-0.3, 0.5)))) <= 1e-6

    @pytest.mark.parametrize(
        "text, probes",
        [
            (CUBIC, (0.05, 0.3, 0.55, 0.7)),
            (HEAT, RECTANGLE_PROBES),
        ],
        ids=["interval", "rectangle"],
    )
    def test_polynomial_reproduced_to_working_precision(self, text, probes):
        model = solve_interpolant(load_problem(text), SolverConfig(m=6), digits=40)
        assert max(abs_errors(model, probes)) <= 1e-30

    def test_square_system_residual_is_tiny(self, example5):
        model, *_ = example5
        assert model.residual_inf <= 1e-35

    def test_residual_is_the_exact_one_of_the_weights(self, example5):
        # A w - y recomputed with 3000 bits: the reported residual must carry
        # its digits, not a dot product rounded to working precision first
        model, A, b, w = example5
        m = model.grid.config.m
        assert list(w) == list(model.weights.reshape(model.grid.k, m, -1).swapaxes(0, 1).ravel())
        with mp.workprec(3000):
            exact = [mpmath.fsum(a * w_i for a, w_i in zip(row, w)) - b_i
                     for row, b_i in zip(A, b)]
            want = max(abs(r) for r in exact)
            assert abs(mpf(model.residual_inf) - want) <= 1e-3 * want


class TestModes:
    """The x-mode solve of a rectangle against the assembled system."""

    @pytest.mark.parametrize(
        "text, m", [("example5", 4), ("example5", 6), ("example5", 8), (HEAT, 6)],
        ids=["example5-m4", "example5-m6", "example5-m8", "heat"],
    )
    def test_weights_match_the_assembled_solve(self, monkeypatch, text, m):
        def refuse(*args):
            raise AssertionError("the x-mode solve assembled Z")

        with monkeypatch.context() as patch:
            patch.setattr(highprec, "assemble", refuse)
            model = solve_interpolant(load_problem(text), SolverConfig(m=m), digits=40)
        with workdps(40):
            Z, y = assemble(model.grid)
            want, _ = solve_square(Z.T, y)
        assert rel_max_diff(model.weights.ravel(), want) <= 1e-30
        assert model.residual_inf <= 1e-35

    @pytest.mark.parametrize(
        "text, config", [(X_COEFFICIENT, SolverConfig(m=6)), (SINGLE_X, SolverConfig(m=4, degree=5))],
        ids=["x-coefficient", "single-x"],
    )
    def test_other_rectangles_are_assembled(self, monkeypatch, text, config):
        assembled = []

        def recording(grid):
            assembled.append(grid)
            return assemble(grid)

        monkeypatch.setattr(highprec, "assemble", recording)
        model = solve_interpolant(load_problem(text), config, digits=40)
        assert assembled == [model.grid]
        assert max(abs_errors(model, RECTANGLE_PROBES)) <= 1e-30

    def test_legendre_derivative_matrix(self):
        # column p holds P_p' in the P_j: P_3' = P_0 * 1 + P_2 * 5
        D = highprec._legendre_derivative(5)
        assert D[:, 3].tolist() == [1, 0, 5, 0, 0]
        s = np.linspace(-1, 1, 7)
        P, dP = legendre_table(5, s, 1)
        assert_allclose(D.astype(float).T @ P, dP, atol=1e-12)


def lu_reference(A, b, digits, extra=20):
    """The square solve as mp.lu_solve computes it, in the same mpf entries.

    mp.lu_solve rounds at working precision, so on a system with condition
    near 1e16 (the 12x12 Hilbert matrix) its own error is about 1e-30 at 40
    digits.  It runs here with `extra` more digits so that the reference is
    exact to well below the tolerance the solver under test is held to.
    """
    with workdps(digits + extra):
        w = mp.lu_solve(mp.matrix([list(row) for row in A]), mp.matrix(list(b)))
        return [w[i] for i in range(len(b))]


def rel_max_diff(got, ref):
    return max(abs(g - r) for g, r in zip(got, ref)) / max(abs(r) for r in ref)


def hilbert(n):
    return [[mpf(1) / (i + j + 1) for j in range(n)] for i in range(n)]


def block_sparse():
    """A 12x12 system of three 4x4 Hilbert blocks with their rows rotated,
    so partial pivoting swaps rows, and two rows coupled into block 0, so
    some multipliers of a column are nonzero and the rest are zero.  The
    zeros are Python ints, as in the assembled Z."""
    A = [[0] * 12 for _ in range(12)]
    for block in range(3):
        for i in range(4):
            for j in range(4):
                A[4 * block + (i + 1) % 4][4 * block + j] = mpf(1) / (i + j + block + 1)
    A[6][1] = mpf(2) / 3
    A[9][2] = mpf(-5) / 7
    return A, [mpf(i + 1) / 3 for i in range(12)]


class TestSquareSolve:
    def test_hilbert_matches_lu_solve(self):
        digits = 40
        with workdps(digits):
            A = hilbert(12)
            b = [mpf(1)] * 12
            got, _ = solve_square(A, b)
        assert rel_max_diff(got, lu_reference(A, b, digits)) <= mpf(10) ** (5 - digits)

    def test_correction_reaches_working_precision(self):
        # the first solve alone is off by about 8.5e-39; only the correction
        # from the exact residual brings it under 2e-39
        digits = 40
        with workdps(digits):
            A = hilbert(32)
            b = [mpf(1)] * 32
            got, _ = solve_square(A, b)
        assert rel_max_diff(got, lu_reference(A, b, digits, extra=160)) <= 2e-39

    def test_block_sparse_with_row_swaps_matches_lu_solve(self):
        digits = 40
        with workdps(digits):
            A, b = block_sparse()
            got, _ = solve_square(A, b)
        assert rel_max_diff(got, lu_reference(A, b, digits)) <= 1e-35

    def test_assembled_rectangle_matches_lu_solve(self):
        digits = 40
        problem = load_problem("example5")
        with workdps(digits):
            grid = build_grid(_build(problem.source, problem.name, MPF), SolverConfig(m=4))
            Z, b = assemble(grid)
            got, _ = solve_square(Z.T, b)
        assert len(b) == 72
        ref = lu_reference(Z.T, b, digits)
        assert rel_max_diff(got, ref) <= mpf(10) ** (5 - digits)

    def test_equal_rows_raise_singular_system(self):
        with workdps(40):
            A = [[mpf(1) / (i + j + 1) for j in range(5)] for i in range(5)]
            A[3] = list(A[1])
            with pytest.raises(SingularSystem, match="zero pivot") as info:
                solve_square(A, [mpf(1)] * 5)
        assert isinstance(info.value, DaeSvrError)

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_entries_are_refused(self, where, value):
        with workdps(40):
            A, b = hilbert(3), [mpf(1)] * 3
            (A[1] if where == "matrix" else b)[2] = mpf(value)
            with pytest.raises(ValidationError, match="finite"):
                solve_square(A, b)

    def test_dependent_sparse_rows_raise_singular_system(self):
        # row 3 is row 0 + row 1 in a sparse pattern: only elimination shows
        # it, leaving an exact zero row that no later column can pivot on
        with workdps(40):
            A = [
                [mpf(2), 0, mpf(1), 0, 0, mpf(3)],
                [0, mpf(1), 0, 0, mpf(2), 0],
                [0, 0, 0, mpf(4), 0, mpf(1)],
                [mpf(2), mpf(1), mpf(1), 0, mpf(2), mpf(3)],
                [0, 0, mpf(3), 0, 0, 0],
                [mpf(1), 0, 0, 0, 0, mpf(-1)],
            ]
            with pytest.raises(SingularSystem, match="zero pivot"):
                solve_square(A, [mpf(1)] * 6)


class TestRejections:
    def test_nonlinear_problems_stay_on_double_path(self):
        with pytest.raises(ValidationError, match="linear"):
            solve_interpolant(load_problem("example4"), SolverConfig(m=6))

    @pytest.mark.parametrize("name", ["example2", "example3"])
    def test_fractional_terms_rejected(self, name):
        with pytest.raises(ValidationError, match="identity and derivative"):
            solve_interpolant(load_problem(name), SolverConfig(m=8))

    def test_digits_floor(self):
        with pytest.raises(ValidationError, match="at least 15"):
            solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=6), digits=10)

    @pytest.mark.parametrize("digits", ["40", None, 40.5, True])
    def test_digits_must_be_an_integer(self, digits):
        with pytest.raises(ValidationError, match="digits must be an integer"):
            solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=6), digits=digits)

    def test_unbalanced_degree_rejected(self):
        # forcing extra basis functions breaks the square count
        with pytest.raises(ValidationError, match="counts balance"):
            solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=6, degree=9))

    def test_unbalanced_degree_rejected_before_assembly(self, monkeypatch):
        # the counts are checked before the mpf assembly, which costs the most
        def refuse(*args):
            raise AssertionError("assemble ran on a system that is not square")

        monkeypatch.setattr(highprec, "assemble", refuse)
        with pytest.raises(ValidationError, match="not square"):
            solve_interpolant(load_problem("example5"), SolverConfig(m=10, degree=11))

    def test_missing_exact_reported_at_error_time(self):
        bare = json.loads(OSCILLATOR)
        del bare["exact"]
        model = solve_interpolant(load_problem(json.dumps(bare)), SolverConfig(m=6))
        assert float(model.values(Identity(), [0.5])[0, 0]) == pytest.approx(0.479425538604, abs=1e-6)
        with pytest.raises(MissingExact, match="exact"):
            report(model, [0.5])


class TestMpfBuild:
    """The schema builds the mpf problem the extended-precision solve runs on."""

    @staticmethod
    def numbers(problem, point):
        """Every real number of the problem: constants, and fields at `point`."""
        yield from np.ravel(problem.domain)
        for sc in problem.side_conditions:
            yield from (v for v in np.ravel(sc.point) if v is not None)
            yield sc.value(point[0]) if callable(sc.value) else sc.value
        for eq in problem.equations:
            yield from (term.coeff(*point) for term in eq.terms)
            yield eq.rhs(*point)
        yield from (e(*point) for e in problem.exact)

    @pytest.mark.parametrize("text", [OSCILLATOR, "example5"], ids=["oscillator", "example5"])
    def test_every_number_is_mpf_and_matches_the_float_build(self, text):
        problem = load_problem(text)
        point = (0.13, 0.37) if len(problem.axes) > 1 else (0.37,)
        want = list(self.numbers(problem, point))
        with workdps(40):
            mp_problem = _build(problem.source, problem.name, MPF)
            got = list(self.numbers(mp_problem, tuple(mpf(v) for v in point)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert isinstance(g, mpf)
            assert abs(g - w) <= 1e-15 * abs(w)

    def test_points_are_mpf_on_the_mpf_domain(self):
        # the float reading, converted exactly; the float build keeps float64
        problem = load_problem("example5")
        probes = CASES["example5"].probes
        with workdps(40):
            pts = _build(problem.source, problem.name, MPF).points(probes)
        assert pts.dtype == object and all(isinstance(v, mpf) for v in pts.ravel())
        assert pts.astype(float).tobytes() == problem.points(probes).tobytes()
        assert problem.points(probes).dtype == np.float64

    def test_problem_without_source_is_refused(self):
        loaded = load_problem(OSCILLATOR)
        built = DaeProblem(
            unknowns=loaded.unknowns,
            domain=loaded.domain,
            equations=loaded.equations,
            side_conditions=loaded.side_conditions,
            exact=loaded.exact,
        )
        with pytest.raises(ValidationError, match="load_problem"):
            solve_interpolant(built, SolverConfig(m=6))


class TestReport:
    def test_sweep_cell_is_the_report_of_the_interpolant(self):
        cell = sweep("example5", [4]).cells[0]
        model = solve_interpolant(load_problem("example5"), SolverConfig(m=4), digits=40)
        rep = report(model, CASES["example5"].probes)
        assert cell.report.rows == rep.rows
        assert cell.report.l2.tobytes() == rep.l2.tobytes()
