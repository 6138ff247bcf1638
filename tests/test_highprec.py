import json
import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf, workdps, workprec
from numpy.testing import assert_allclose

import daesvr.highprec as highprec
from daesvr.benchmarks import CASES, sweep
from daesvr.errors import DaeSvrError, MissingExact, SingularSystem, ValidationError
from daesvr.highprec import solve_interpolant
from daesvr.expressions import MPF, Vocabulary
from daesvr.legendre import legendre_table
from daesvr.model import DaeProblem, Derivative, Identity, residuals
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

    @pytest.mark.parametrize(
        "text, m, modes, has_blocks",
        [(OSCILLATOR, 6, 1, False), ("example5", 6, 6, True)],
        ids=["oscillator-dense", "example5-modes"],
    )
    def test_one_kernel_call_per_solve(self, monkeypatch, text, m, modes, has_blocks):
        # the dense system is the kernel's one mode with no blocks
        calls = []
        solve_modes = highprec._solve_modes

        def recording(A0, blocks, b):
            calls.append((len(b), len(blocks) > 0))
            return solve_modes(A0, blocks, b)

        monkeypatch.setattr(highprec, "_solve_modes", recording)
        solve_interpolant(load_problem(text), SolverConfig(m=m), digits=40)
        assert calls == [(modes, has_blocks)]

    def test_fields_are_evaluated_on_the_open_mesh(self):
        # exp occurs only in factors of t, which the x-node by t-node mesh
        # computes once per t-node, not once per grid point
        calls = []

        def exp(v):
            calls.append(v)
            return mpmath.exp(v)

        vocabulary = Vocabulary(MPF.functions | {"exp": exp}, MPF.constants, MPF.result, MPF.dtype)
        source = load_problem("example5").source
        occurrences = sum(json.dumps(eq).count("exp(") for eq in source["equations"])
        with workdps(40):
            grid = build_grid(_build(source, "example5", vocabulary), SolverConfig(m=6))
            calls.clear()
            assert highprec._mode_system(grid) is not None
        assert occurrences == 3
        assert len(calls) == occurrences * len(grid.nodes[1])

    def test_legendre_derivative_matrix(self):
        # column p holds P_p' in the P_j: P_3' = P_0 * 1 + P_2 * 5
        D = highprec._legendre_derivative(5)
        assert D[:, 3].tolist() == [1, 0, 5, 0, 0]
        s = np.linspace(-1, 1, 7)
        P, dP = legendre_table(5, s, 1)
        assert_allclose(D.astype(float).T @ P, dP, atol=1e-12)


def mpf_bits(values):
    return [v._mpf_ for v in np.ravel(values)]


class TestDot:
    """`_dot`: exact integer products, each entry rounded to mpf once."""

    @staticmethod
    def operands(prec):
        """A (3, 5) by (5, 4) pair of mpf matrices: entries of either sign
        from 2**-40 to 2**20 in size, and one zero (an int, as in Z)."""
        rng = np.random.default_rng(7)
        with workprec(prec):
            entries = [mpf(float(v)) * mpf(2) ** int(e) / 3
                       for v, e in zip(rng.standard_normal(35), rng.integers(-40, 20, 35))]
        A = np.array(entries[:15], dtype=object).reshape(3, 5)
        B = np.array(entries[15:], dtype=object).reshape(5, 4)
        A[1, 2] = 0
        return A, B

    def test_entry_is_the_same_alone_and_in_a_batch(self):
        with workdps(40):
            A, B = self.operands(mp.prec)
            full = highprec._dot(A, B)
            for i, j in np.ndindex(full.shape):
                assert mpf_bits(highprec._dot(A[i:i + 1], B[:, j:j + 1])) == mpf_bits(full[i, j])

    def test_matches_a_90_digit_contraction(self):
        with workdps(40):
            prec = mp.prec
            A, B = self.operands(prec)
            got = highprec._dot(A, B)
        with workdps(90):
            for i, j in np.ndindex(got.shape):
                want = mpmath.fsum(a * b for a, b in zip(A[i], B[:, j]))
                assert abs(got[i, j] - want) <= mpf(2) ** -prec * abs(want)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_entries_are_refused(self, value):
        with workdps(40):
            A, B = self.operands(mp.prec)
            B[3, 1] = mpf(value)
            with pytest.raises(ValidationError, match="finite"):
                highprec._dot(A, B)


class TestValues:
    """`InterpolantModel.values`, which `report` and `residuals` read."""

    @staticmethod
    def points(model):
        if len(model.problem.axes) == 1:
            return PROBES
        return CASES["example5"].probes + ((-0.5, 0.0), (0.3, 0.85), (-0.2, 1.0))

    @pytest.fixture(params=["interval", "rectangle"])
    def model(self, request, coarse, example5):
        return coarse if request.param == "interval" else example5[0]

    @pytest.mark.parametrize("op", [Identity(), Derivative(1, "t")], ids=["identity", "d/dt"])
    def test_value_is_the_same_alone_and_in_a_batch(self, model, op):
        probes = self.points(model)
        batch = model.values(op, probes)
        for i, p in enumerate(probes):
            assert mpf_bits(model.values(op, [p])) == mpf_bits(batch[:, i])

    def test_values_match_a_90_digit_contraction(self, model):
        # rounded once, to 2**-prec relative; a value that cancels to near
        # zero (the probes on t = 0) keeps 128 bits beyond working precision
        # of the terms' size, from the truncation to fixed point
        probes = self.points(model)
        got = model.values(Identity(), probes)
        with workdps(model.digits):
            prec = mp.prec
            M = model.grid.operator_matrix(Identity(), model.problem.points(probes))
        with workdps(90):
            for u, i in np.ndindex(got.shape):
                want = mpmath.fsum(a * w for a, w in zip(M[i], model.weights[u]))
                size = mpmath.fsum(abs(a * w) for a, w in zip(M[i], model.weights[u]))
                assert abs(got[u, i] - want) <= mpf(2) ** -prec * (abs(want) + 2 ** -120 * size)

    def test_non_finite_weight_is_refused(self, coarse):
        broken = highprec.InterpolantModel(
            weights=coarse.weights.copy(), errors=coarse.errors, grid=coarse.grid, digits=40)
        broken.weights[1, 3] = mpf("nan")
        with pytest.raises(ValidationError, match="finite"):
            broken.values(Identity(), PROBES)

    def test_report_and_residuals_read_them(self, monkeypatch, coarse):
        seen = []
        dot = highprec._dot

        def recording(A, B):
            seen.append(B.shape)
            return dot(A, B)

        monkeypatch.setattr(highprec, "_dot", recording)
        report(coarse, PROBES)
        residuals(coarse.problem, coarse, PROBES)
        # report: the identity; residuals: the identity and d/dt
        assert seen == [(coarse.block, len(PROBES))] * 3


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


def solve_square(A, b):
    """The square system A w = b, solved as the kernel's one mode with no
    blocks: the solution w and its residual A w - b."""
    X, errors = highprec._solve_modes(A, [], [b])
    return X[0], errors[0]


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


# The integer kernels as numpy object arrays, with each entry converted by
# mpmath.ldexp: references for the Python-int kernels, which must give the
# same integers and so the same bits.

def reference_factor(A_int):
    F = mp.prec + highprec._GUARD_BITS
    n = len(A_int)
    U = A_int.copy()
    perm = np.arange(n)
    for j in range(n):
        p = j + int(np.argmax(np.abs(U[j:, j])))
        if not U[p, j]:
            raise SingularSystem(f"zero pivot in column {j} after row equilibration")
        U[[j, p]] = U[[p, j]]
        perm[[j, p]] = perm[[p, j]]
        l = (U[j + 1:, j] << F) // U[j, j]
        U[j + 1:, j] = l
        nz = np.flatnonzero(l)
        U[nz + j + 1, j + 1:] -= np.outer(l[nz], U[j, j + 1:]) >> F
    return U, perm


def reference_substitute(factors, c):
    F = mp.prec + highprec._GUARD_BITS
    U, perm = factors
    n = len(c)
    c = np.array(c, dtype=object)[perm]
    for j in range(n - 1):
        c[j + 1:] -= (U[j + 1:, j] * c[j]) >> F
    z = np.zeros(n, dtype=object)
    for k in range(n - 1, -1, -1):
        z[k] = ((c[k] << F) - U[k, k + 1:].dot(z[k + 1:])) // U[k, k]
    return z


def reference_solve_modes(A0, blocks, b):
    F = mp.prec + highprec._GUARD_BITS
    row, A_int = highprec._row_scaled(A0)
    factors = reference_factor(A_int)
    blocks = [(N, highprec._row_scaled(B, row)[1]) for N, B in blocks]
    b_sign, b_man, b_exp, _ = highprec._mantissas(b)
    m = len(b_man)

    def solution(sign, man, e):
        scale = F - max((int(k) + v.bit_length() for v, k in zip(man.flat, e.flat) if v), default=F)
        c = highprec._scaled(sign, man, e + scale)
        z = np.empty_like(c)
        for j in range(m - 1, -1, -1):
            z[j] = reference_substitute(factors, c[j])
            for N, B in blocks:
                c[:j] -= np.outer(N[:j, j], B.dot(z[j])) >> F
        return np.array([[mpmath.ldexp(z_k, -F - scale) for z_k in z_j] for z_j in z], dtype=object)

    def residual(X):
        x_sign, x_man, x_exp, x_bc = highprec._mantissas(X)
        E = F - int(highprec._mag(x_exp, x_bc, F))
        V = highprec._scaled(x_sign, x_man, x_exp + E)
        AV = V.dot(A_int.T)
        for N, B in blocks:
            AV += N.dot(V.dot(B.T))
        r = highprec._scaled(b_sign, b_man, b_exp + row + E) - AV
        return r < 0, np.abs(r), np.full(r.shape, -E)

    X = solution(b_sign, b_man, b_exp + row)
    X = X + solution(*residual(X))
    sign, man, e = residual(X)
    errors = [mpmath.ldexp(v if s else -v, k)
              for s, v, k in zip(sign.flat, man.flat, (e - row).ravel().tolist())]
    return X, np.array(errors, dtype=object).reshape(X.shape)


def random_system(n, seed):
    """A row-scaled integer matrix of order n, about a third of its entries
    zero, with some rows made of small integers (ties for the pivot) and
    two right-hand sides, at the current working precision."""
    rng = np.random.default_rng(seed)
    F = mp.prec + highprec._GUARD_BITS
    A = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() < 0.65:
                A[i, j] = int(rng.integers(-3, 4)) << F if i % 4 == 3 else \
                    int(rng.integers(1, 2**62)) * int(rng.choice([-1, 1])) << (F - 62)
    rhs = [[int(rng.integers(-2**62, 2**62)) << int(rng.integers(0, F)) for _ in range(n)]
           for _ in range(2)]
    return A, rhs


class TestKernelBits:
    """The Python-int kernels give the integers, and so the bits, of the
    numpy object-array kernels and the ldexp conversion above."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_factor_and_substitute(self, n):
        with workdps(40):
            for seed in range(3):
                A, rhs = random_system(n, 1000 * n + seed)
                try:
                    want = reference_factor(A)
                except SingularSystem:
                    with pytest.raises(SingularSystem):
                        highprec._factor(A)
                    continue
                got = highprec._factor(A)
                for c in rhs:
                    z = highprec._substitute(got, np.array(c, dtype=object))
                    assert z == reference_substitute(want, c).tolist()
                    assert all(type(z_k) is int for z_k in z)

    @pytest.mark.parametrize(
        "text, m, digits",
        [("example5", 4, 40), ("example5", 10, 40), ("example5", 16, 40), ("example5", 6, 80),
         (OSCILLATOR, 6, 40), (X_COEFFICIENT, 6, 40)],
        ids=["example5-m4", "example5-m10", "example5-m16", "example5-m6-80-digits",
             "oscillator-dense", "x-coefficient-dense"],
    )
    def test_weights_and_errors(self, monkeypatch, text, m, digits):
        problem, config = load_problem(text), SolverConfig(m=m)
        model = solve_interpolant(problem, config, digits=digits)
        monkeypatch.setattr(highprec, "_solve_modes", reference_solve_modes)
        want = solve_interpolant(problem, config, digits=digits)
        assert mpf_bits(model.weights) == mpf_bits(want.weights)
        assert mpf_bits(model.errors) == mpf_bits(want.errors)


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


class TestPrecisionKey:
    def test_finer_solve_after_a_coarser_one_reaches_its_accuracy(self):
        # the Gauss rule is cached per (m, precision): an 80-digit solve after
        # a 40-digit one at m = 16 gets 80-digit nodes (the 40-digit l2 is 3e-22)
        problem, probes = load_problem("example5"), CASES["example5"].probes
        config = SolverConfig(m=16)
        coarse_l2 = max(report(solve_interpolant(problem, config, digits=40), probes).l2)
        fine_l2 = max(report(solve_interpolant(problem, config, digits=80), probes).l2)
        assert coarse_l2 > 1e-23
        assert fine_l2 <= 1e-28


class TestReport:
    def test_sweep_cell_is_the_report_of_the_interpolant(self):
        cell = sweep("example5", [4]).cells[0]
        model = solve_interpolant(load_problem("example5"), SolverConfig(m=4), digits=40)
        rep = report(model, CASES["example5"].probes)
        assert cell.report.rows == rep.rows
        assert cell.report.l2.tobytes() == rep.l2.tobytes()
