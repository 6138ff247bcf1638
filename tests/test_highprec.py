import json

import pytest
from mpmath import mp, mpf, workdps
from numpy.testing import assert_allclose

import daesvr.highprec as highprec
from daesvr.errors import DaeSvrError, SingularSystem, ValidationError
from daesvr.highprec import solve_interpolant, solve_square
from daesvr.schema import load_problem
from daesvr.solver import SolverConfig

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


@pytest.fixture(scope="module")
def coarse():
    return solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=6), digits=40)


@pytest.fixture(scope="module")
def fine():
    return solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=10), digits=40)


class TestInterval:
    def test_coarse_accuracy(self, coarse):
        errs = [coarse.errors_at(u, t)[0] for u in range(2) for t in PROBES]
        assert max(errs) <= 1e-6

    def test_fine_accuracy(self, fine):
        errs = [fine.errors_at(u, t)[0] for u in range(2) for t in PROBES]
        assert max(errs) <= 1e-12

    def test_refinement_improves_every_probe(self, coarse, fine):
        for u in range(2):
            for t in PROBES:
                assert fine.errors_at(u, t)[0] < coarse.errors_at(u, t)[0]

    def test_square_system_residual_is_tiny(self, coarse):
        # the collocation equations are solved exactly at working precision,
        # far below anything double arithmetic could represent as nonzero
        assert coarse.residual_inf <= 1e-35

    def test_evaluate_is_float_of_mp(self, coarse):
        got = coarse.evaluate(0, 0.4)
        assert got == float(coarse.evaluate_mp(0, 0.4))

    def test_errors_are_consistent(self, fine):
        import math

        abs_err, rel_err = fine.errors_at(0, 0.6)
        assert_allclose(rel_err, abs_err / abs(math.sin(0.6)), rtol=1e-7)

    def test_block_size_interval(self, coarse):
        assert coarse.d_x is None
        assert coarse.d_t == 7
        assert coarse.block == 7


class TestRectangle:
    def test_small_rectangle_solve(self):
        p = load_problem("example5")
        model = solve_interpolant(p, SolverConfig(m=4), digits=30)
        assert model.block == model.d_x * model.d_t == 4 * 6
        worst = 0.0
        for u in range(3):
            for pt in ((0.02, 0.02), (0.1, 0.1), (-0.3, 0.5)):
                worst = max(worst, model.errors_at(u, pt)[0])
        assert worst <= 1e-6

    @pytest.mark.parametrize(
        "text, probes",
        [
            (CUBIC, (0.05, 0.3, 0.55, 0.7)),
            (HEAT, ((-0.3, 0.1), (0.2, 0.35), (0.75, 0.6), (0.9, 0.7))),
        ],
        ids=["interval", "rectangle"],
    )
    def test_polynomial_reproduced_to_working_precision(self, text, probes):
        model = solve_interpolant(load_problem(text), SolverConfig(m=6), digits=40)
        assert max(model.errors_at(0, p)[0] for p in probes) <= 1e-30

    @pytest.mark.parametrize("m", [6, 8])
    def test_square_system_residual_is_tiny(self, m):
        model = solve_interpolant(load_problem("example5"), SolverConfig(m=m), digits=40)
        assert model.residual_inf <= 1e-35


def lu_reference(A, b, digits):
    """The square solve as mp.lu_solve computes it, in the same mpf entries.

    mp.lu_solve rounds at working precision, so on a system with condition
    near 1e16 (the 12x12 Hilbert matrix) its own error is about 1e-30 at 40
    digits.  It runs here with 20 more digits so that the reference is exact
    to well below the tolerance the solver under test is held to.
    """
    with workdps(digits + 20):
        w = mp.lu_solve(mp.matrix([list(row) for row in A]), mp.matrix(list(b)))
        return [w[i] for i in range(len(b))]


def rel_max_diff(got, ref):
    return max(abs(g - r) for g, r in zip(got, ref)) / max(abs(r) for r in ref)


class TestSquareSolve:
    def test_hilbert_matches_lu_solve(self):
        digits = 40
        with workdps(digits):
            A = [[mpf(1) / (i + j + 1) for j in range(12)] for i in range(12)]
            b = [mpf(1)] * 12
            got = solve_square(A, b)
        assert rel_max_diff(got, lu_reference(A, b, digits)) <= mpf(10) ** (5 - digits)

    def test_assembled_rectangle_matches_lu_solve(self, monkeypatch):
        digits = 40
        seen = {}

        def recording(A, b):
            seen["system"] = A, b
            seen["weights"] = solve_square(A, b)
            return seen["weights"]

        monkeypatch.setattr(highprec, "solve_square", recording)
        solve_interpolant(load_problem("example5"), SolverConfig(m=4), digits=digits)
        A, b = seen["system"]
        assert len(b) == 72
        ref = lu_reference(A, b, digits)
        assert rel_max_diff(seen["weights"], ref) <= mpf(10) ** (5 - digits)

    def test_equal_rows_raise_singular_system(self):
        with workdps(40):
            A = [[mpf(1) / (i + j + 1) for j in range(5)] for i in range(5)]
            A[3] = list(A[1])
            with pytest.raises(SingularSystem, match="zero pivot") as info:
                solve_square(A, [mpf(1)] * 5)
        assert isinstance(info.value, DaeSvrError)


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

    def test_bias_rejected(self):
        with pytest.raises(ValidationError, match="bias"):
            solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=6, include_bias=True))

    def test_unbalanced_degree_rejected(self):
        # forcing extra basis functions breaks the square count
        with pytest.raises(ValidationError, match="counts balance"):
            solve_interpolant(load_problem(OSCILLATOR), SolverConfig(m=6, degree=9))

    def test_missing_exact_reported_at_error_time(self):
        bare = json.loads(OSCILLATOR)
        del bare["exact"]
        model = solve_interpolant(load_problem(json.dumps(bare)), SolverConfig(m=6))
        assert model.evaluate(0, 0.5) == pytest.approx(0.479425538604, abs=1e-6)
        with pytest.raises(ValidationError, match="exact"):
            model.errors_at(0, 0.5)
