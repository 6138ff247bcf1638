import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from daesvr.errors import (
    DomainError,
    NonConvergence,
    NotPositiveDefinite,
    ShapeError,
    ValidationError,
)
import daesvr.highprec
import daesvr.legendre
import daesvr.solver
from daesvr.benchmarks import CASES, self_check
from daesvr.fractional import caputo_l1_table, caputo_table
from daesvr.highprec import solve_interpolant
from daesvr.legendre import gauss_quadrature, legendre_table, shift_to_canonical
from daesvr.model import (
    Caputo,
    DaeProblem,
    Derivative,
    Field,
    Identity,
    SideCondition,
    VolterraIntegral,
    is_linear,
    residuals,
)
from daesvr.schema import load_problem
from daesvr.solver import (
    VOLTERRA_NODES,
    SolverConfig,
    _refined_solver,
    assemble,
    basis_counts,
    build_grid,
    gauss_newton,
    report,
    solve,
    solve_linear,
)

# harmonic oscillator as a first-order system: u1 = sin t, u2 = cos t
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

# one equation, no linear part, no side conditions: u^2 = 4
FLAT_SQUARE = json.dumps(
    {
        "unknowns": 1,
        "domain": {"lo": 0.0, "hi": 1.0},
        "equations": [{"terms": [], "nonlinear": "pow(u1,2)", "rhs": 4}],
    }
)


def oscillator():
    return load_problem(OSCILLATOR)


# rectangle problems with their exact solutions: a Caputo term, a Volterra
# term, and a closure that reads x
RECTANGLE = {"x_lo": -0.5, "x_hi": 0.5, "t_lo": 0.0, "t_hi": 1.0}
ON_RECTANGLE = {
    "caputo": {
        "unknowns": 1,
        "domain2": RECTANGLE,
        "equations": [{"terms": [{"coeff": 1, "op": "caputo", "alpha": 0.5, "target": 0},
                                 {"coeff": 1, "op": "identity", "target": 0}],
                       "rhs": "pow(x,2)*(2/gamma(2.5)*pow(t,1.5) + pow(t,2))"}],
        "side_conditions": [{"target": 0, "x": "*", "t": 0.0, "value": 0.0}],
        "exact": ["pow(x,2)*pow(t,2)"],
    },
    "volterra": {
        "unknowns": 1,
        "domain2": RECTANGLE,
        "equations": [{"terms": [{"coeff": 1, "op": "deriv", "order": 1, "target": 0},
                                 {"coeff": -1, "op": "volterra", "kernel": 1, "target": 0}],
                       "rhs": "cos(x)"}],
        "side_conditions": [{"target": 0, "x": "*", "t": 0.0, "value": "cos(x)"}],
        "exact": ["cos(x)*exp(t)"],
    },
    "closure": {
        "unknowns": 1,
        "domain2": RECTANGLE,
        "equations": [{"terms": [{"coeff": 1, "op": "deriv", "order": 1, "target": 0}],
                       "nonlinear": "x*pow(u1,2)",
                       "rhs": "(1+x)*cos(t) + x*pow((1+x)*sin(t),2)"}],
        "side_conditions": [{"target": 0, "x": "*", "t": 0.0, "value": 0.0}],
        "exact": ["(1+x)*sin(t)"],
    },
}
DIAGONAL = [(f - 0.5, f) for f in np.linspace(0.1, 0.9, 5)]

# a linear rectangle problem whose coefficient varies along x
X_COEFFICIENT = {
    "unknowns": 1,
    "domain2": RECTANGLE,
    "equations": [{"terms": [{"coeff": 1, "op": "deriv", "order": 1, "var": "t", "target": 0},
                             {"coeff": "-x", "op": "deriv", "order": 1, "var": "x", "target": 0}],
                   "rhs": "pow(x,2) + 1 - 2*pow(x,2)*t"}],
    "side_conditions": [{"target": 0, "x": "*", "t": 0.0, "value": 0.0}],
    "exact": ["pow(x,2)*t + t"],
}


def on_rectangle(name):
    return load_problem(json.dumps(ON_RECTANGLE[name]))


class TestConfigValidation:
    def test_defaults_pass(self):
        SolverConfig()

    @pytest.mark.parametrize("gamma", [0.0, -1.0, -1e-9])
    def test_gamma_positive(self, gamma):
        with pytest.raises(ValidationError, match="> 0"):
            SolverConfig(gamma=gamma)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, 1e-320, 5e-309, pytest.param(10**400, id="10**400")])
    def test_gamma_finite(self, gamma):
        # the objective 1/2 ||w||^2 + gamma/2 ||e||^2 needs a finite gamma,
        # and the dual's I/gamma a finite 1/gamma: gamma above about 5.6e-309
        with pytest.raises(ValidationError, match="finite"):
            SolverConfig(gamma=gamma)
        assert SolverConfig(gamma=5.6e-309).gamma == 5.6e-309

    @pytest.mark.parametrize("gamma", [None, "1", True])
    def test_gamma_is_a_number(self, gamma):
        # bool is a Real, but True is no weight
        with pytest.raises(ValidationError, match="gamma must be a finite number"):
            SolverConfig(gamma=gamma)
        assert SolverConfig(gamma=np.float64(2.0)).gamma == SolverConfig(gamma=2).gamma == 2.0

    def test_m_at_least_one(self):
        with pytest.raises(ValidationError):
            SolverConfig(m=0)

    def test_m_integral(self):
        with pytest.raises(ValidationError, match="integer"):
            SolverConfig(m=2.5)
        assert SolverConfig(m=np.int64(6)).m == 6

    @pytest.mark.parametrize("name", ["degree", "max_iters", "l1_grid"])
    def test_counts_integral(self, name):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            SolverConfig(**{name: 100.5})
        assert getattr(SolverConfig(**{name: np.int64(12)}), name) == 12

    @pytest.mark.parametrize("name", ["m", "degree", "max_iters", "l1_grid"])
    def test_counts_refuse_bools(self, name):
        # bool is an Integral, but True is no count
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            SolverConfig(**{name: True})

    @pytest.mark.parametrize("name", ["m", "max_iters", "l1_grid"])
    def test_only_degree_may_be_none(self, name):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            SolverConfig(**{name: None})
        assert SolverConfig(degree=None).degree is None

    def test_degree_positive_when_given(self):
        with pytest.raises(ValidationError):
            SolverConfig(degree=0)

    def test_fractional_scheme_names(self):
        SolverConfig(fractional_scheme="l1")
        with pytest.raises(ValidationError):
            SolverConfig(fractional_scheme="spectral")

    def test_iteration_budget(self):
        with pytest.raises(ValidationError):
            SolverConfig(max_iters=0)


class TestGrid:
    def test_single_node_is_midpoint(self):
        g = build_grid(oscillator(), SolverConfig(m=1))
        assert_allclose(g.points, [[0.5]], atol=1e-15)

    def test_two_nodes(self):
        # roots of the degree-2 Legendre polynomial mapped onto [0, 1]
        # are 1/2 -+ 1/(2 sqrt(3))
        g = build_grid(oscillator(), SolverConfig(m=2))
        r = 0.5 / math.sqrt(3.0)
        assert_allclose(g.points[:, 0], [0.5 - r, 0.5 + r], rtol=1e-14)

    def test_repeated_grids_reuse_the_cached_rule(self, monkeypatch):
        calls = []
        original = daesvr.legendre.legendre_roots

        def counting(m):
            calls.append(m)
            return original(m)

        for mod in (daesvr.legendre, daesvr.solver):
            if vars(mod).get("legendre_roots") is original:
                monkeypatch.setattr(mod, "legendre_roots", counting)
        gauss_quadrature.cache_clear()
        p = oscillator()
        first = build_grid(p, SolverConfig(m=7))
        second = build_grid(p, SolverConfig(m=7))
        assert len(calls) <= 1
        assert np.array_equal(first.points, second.points)
        assert np.array_equal(first.points[:, 0], 0.5 * (original(7) + 1.0))

    def test_nodes_stay_interior(self):
        p = load_problem("example2")
        g = build_grid(p, SolverConfig(m=14))
        lo, hi = p.domain
        assert np.all(g.points > lo)
        assert np.all(g.points < hi)
        assert len(g) == 14

    def test_rectangle_tensor_order(self):
        # the 2D grid is the tensor product with t varying fastest
        p = load_problem("example5")
        g = build_grid(p, SolverConfig(m=3))
        assert g.points.shape == (9, 2)
        x_nodes, t_nodes = g.nodes
        assert_allclose(g.points[:3, 0], x_nodes[0])
        assert_allclose(g.points[:3, 1], t_nodes)
        assert_allclose(g.points[::3, 0], x_nodes)

    def test_rectangle_axes_are_mapped_roots(self):
        p = load_problem("example5")
        g = build_grid(p, SolverConfig(m=3))
        x_nodes, t_nodes = g.nodes
        assert_allclose(x_nodes[1], 0.0, atol=1e-15)
        assert_allclose(t_nodes[1], 0.5, atol=1e-15)

    def test_sides_are_conditions_at_points(self):
        # each slice condition of example5 pins its value or du/dt at every x node
        p = load_problem("example5")
        g = build_grid(p, SolverConfig(m=3))
        assert len(g.sides) == 3 * len(p.side_conditions)
        for s in g.sides:
            assert isinstance(s, SideCondition) and s.point[0] in g.nodes[0] and s.point[1] == 0.0
            assert s.op == (Identity() if s.order == 0 else Derivative(1, "t"))


class TestOneDiscretization:
    """build_grid discretizes a problem once; assembly, the trainers and the
    model share that grid."""

    @pytest.mark.parametrize("name, digits, assembles", [
        ("example3", None, 1), ("example1", None, 1), ("example5", 40, 0), ("x-coefficient", 40, 1),
    ], ids=["example3-None", "example1-None", "example5-40", "x-coefficient-40"])
    def test_model_carries_the_grid_assemble_used(self, monkeypatch, name, digits, assembles):
        # the dual, Gauss-Newton and extended-precision paths; example5's
        # rectangle is solved in x-modes without Z, a rectangle whose
        # coefficient varies along x through Z
        built, assembled = [], []
        grid_fn, assemble_fn = daesvr.solver.build_grid, daesvr.solver.assemble

        def recording_grid(*args):
            built.append(grid_fn(*args))
            return built[-1]

        def recording_assemble(*args):
            assembled.append(args)
            return assemble_fn(*args)

        for module in (daesvr.solver, daesvr.highprec):
            monkeypatch.setattr(module, "build_grid", recording_grid)
            monkeypatch.setattr(module, "assemble", recording_assemble)
        if name in CASES:
            problem, config = load_problem(name), CASES[name].config
        else:
            problem, config = load_problem(json.dumps(X_COEFFICIENT)), SolverConfig(m=6)
        if digits is None:
            model = solve(problem, config)
        else:
            model = solve_interpolant(problem, config, digits=digits)
        assert built == [model.grid]
        assert assembled == [(model.grid,)] * assembles
        assert model.problem is model.grid.problem and model.config is config

    def test_side_fields_are_called_once_per_solve(self, monkeypatch):
        calls = []
        field_call = Field.__call__

        def counted_field(self, *args):
            calls.append(self)
            return field_call(self, *args)

        problem = load_problem("example5")
        sides = [sc.value for sc in problem.side_conditions if callable(sc.value)]
        monkeypatch.setattr(Field, "__call__", counted_field)
        solve(problem, CASES["example5"].config)
        assert len(sides) == 5
        assert [sum(f is side for f in calls) for side in sides] == [1] * 5

    def test_gauss_newton_builds_the_identity_grid_table_once(self, monkeypatch):
        # example1 has identity terms, so assembly's table serves the
        # closures' unknown values too
        config = CASES["example1"].config
        grid = build_grid(load_problem("example1"), config)
        orders = []
        table = daesvr.legendre.legendre_table

        def counted_table(count, x, order=0):
            if np.size(x) == config.m:
                orders.append(order)
            return table(count, x, order)

        monkeypatch.setattr(daesvr.legendre, "legendre_table", counted_table)
        gauss_newton(grid)
        assert sorted(orders) == [0, 1]

    def test_grid_tables_are_read_only(self):
        grid = build_grid(oscillator(), SolverConfig(m=4))
        assert grid.grid_matrix(Identity()) is grid.grid_matrix(Identity())
        with pytest.raises(ValueError):
            grid.grid_matrix(Identity())[0, 0] = 1.0


class TestBasisCounts:
    def test_interval_adds_condition_slots(self):
        # one initial condition per unknown: one extra basis function
        p = load_problem("example3")
        assert basis_counts(p, SolverConfig(m=10)) == (11,)

    def test_rectangle_counts(self):
        # two conditions on the time axis per unknown
        p = load_problem("example5")
        assert basis_counts(p, SolverConfig(m=6)) == (6, 8)

    def test_explicit_degree_wins(self):
        p3 = load_problem("example3")
        assert basis_counts(p3, SolverConfig(m=10, degree=12)) == (12,)
        p5 = load_problem("example5")
        assert basis_counts(p5, SolverConfig(m=6, degree=9)) == (9, 9)

    def test_no_conditions_means_m(self):
        p = load_problem(FLAT_SQUARE)
        assert basis_counts(p, SolverConfig(m=7)) == (7,)


class TestDualSystem:
    def setup_method(self):
        self.problem = oscillator()
        self.config = SolverConfig(m=8, gamma=1e8)
        self.grid = build_grid(self.problem, self.config)
        self.Z, self.y = assemble(self.grid)

    def solve(self):
        return solve_linear(self.Z, self.y, self.grid)

    def test_gram_matrix_is_symmetric(self):
        # numpy forms Z^T Z with a symmetric rank-k update, so the dual
        # matrix needs no symmetrisation
        omega = self.Z.T @ self.Z
        assert np.array_equal(omega, omega.T)

    def test_gram_matrix_is_positive_semidefinite(self):
        ev = np.linalg.eigvalsh(self.Z.T @ self.Z)
        assert ev[0] > -1e-10 * ev[-1]

    def test_weights_reproduce_from_dual_coefficients(self):
        # w = Z alpha with alpha = -gamma * errors
        model = self.solve()
        assert_allclose(model.weights.ravel(), self.Z @ (-self.config.gamma * model.errors),
                        rtol=1e-12, atol=1e-15)

    def test_slack_ties_to_dual_coefficients(self):
        # alpha = -gamma * errors solves the dual (Z^T Z + I/gamma) alpha = y
        model = self.solve()
        dual = self.Z.T @ self.Z + np.eye(self.y.size) / self.config.gamma
        assert_allclose(dual @ (-self.config.gamma * model.errors), self.y, rtol=0, atol=1e-12)

    def test_residual_inf_is_the_largest_constraint_error(self):
        model = self.solve()
        assert model.residual_inf == max(abs(model.errors))
        assert model.block == model.weights.shape[1] == 9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            solve_linear(np.eye(2), np.ones(3), self.grid)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            _refined_solver(np.array([[1.0, 2.0], [2.0, 1.0]]))
        # the known dual failure: example5 at m = 8 and its case gamma
        config = dataclasses.replace(CASES["example5"].config, m=8)
        with pytest.raises(NotPositiveDefinite):
            solve(load_problem("example5"), config)


class TestLinearSolve:
    def test_oscillator_accuracy(self):
        model = solve(oscillator(), SolverConfig(m=8, gamma=1e8))
        ts = np.array([0.1, 0.5, 0.9])
        assert_allclose(model.values(Identity(), ts), [np.sin(ts), np.cos(ts)], atol=1e-7)

    def test_linear_path_reports_zero_iterations(self):
        model = solve(load_problem("example3"), SolverConfig(m=8, gamma=1e5))
        assert model.iterations == 0

    def test_interpolation_limit(self):
        # with gamma pushed to 1e14 the training residuals collapse to
        # rounding level: the estimator approaches plain interpolation
        model = solve(oscillator(), SolverConfig(m=8, gamma=1e14))
        assert np.max(np.abs(model.errors)) <= 1e-12

    def test_regularization_monotonicity(self):
        sums = []
        for gamma in (1e1, 1e3, 1e5):
            model = solve(load_problem("example3"), SolverConfig(m=8, gamma=gamma))
            sums.append(model.squared_error_sum)
        assert sums[0] >= sums[1] >= sums[2]

    def test_spectral_convergence(self):
        p = load_problem("example1")
        probes = (0.2, 0.4, 0.6, 0.8, 1.0)
        worst = {}
        for m in (4, 10):
            rep = report(solve(p, SolverConfig(m=m, gamma=1e8)), probes)
            worst[m] = max(r.rel_err for rows in rep.rows for r in rows)
        assert worst[10] < worst[4] / 100.0

    def test_trained_model_applies_operators(self):
        model = solve(oscillator(), SolverConfig(m=8, gamma=1e8))
        got = model.values(Derivative(1), [0.3, 0.7])
        assert got.shape == (2, 2)
        assert_allclose(got[0], [math.cos(0.3), math.cos(0.7)], atol=1e-6)

    @pytest.mark.parametrize("name", ["example3", "example5"])
    def test_values_refuse_an_unknown_operator(self, name):
        # values is public: an object that is no operator must not be
        # read as the identity on the axes it does not act on
        p = load_problem(name)
        model = solve(p, SolverConfig(m=4, gamma=1e5))
        with pytest.raises(ValidationError, match="unknown operator"):
            model.values(object(), [(0.1, 0.5)[-len(p.axes):]])

    def test_values_refuse_a_derivative_by_a_missing_axis(self):
        model = solve(load_problem("example3"), SolverConfig(m=4, gamma=1e5))
        with pytest.raises(ValidationError, match="derivative by 'x', which is not an axis"):
            model.values(Derivative(1, "x"), [0.5])

    def test_values_refuse_a_nonfinite_point(self):
        model = solve(load_problem("example3"), SolverConfig(m=4, gamma=1e5))
        with pytest.raises(ValidationError, match=r"point \(nan,\) is not finite"):
            model.values(Identity(), [math.nan, 0.5])

    @pytest.mark.parametrize("name", ["example1", "example2", "example5"])
    def test_grid_residuals_are_the_constraint_rows(self, name):
        # a trained model is a residual candidate; on its own grid the
        # residuals are the collocation rows of the constraint residual
        # (Gauss-Newton's `errors` include the closures; on the dual path
        # `errors` is -alpha/gamma, so take Z^T w - y there)
        p = load_problem(name)
        config = CASES[name].config
        model = solve(p, config)
        got = residuals(p, model, model.grid.points)
        if is_linear(p):
            Z, y = assemble(model.grid)
            want = Z.T @ model.weights.ravel() - y
        else:
            want = model.errors
        assert_allclose(got, want[: got.size].reshape(got.shape), rtol=0, atol=1e-14)

    def test_rectangle_solve(self):
        p = load_problem("example5")
        model = solve(p, SolverConfig(m=4, gamma=1e9))
        got = model.values(Identity(), [(0.05, 0.1), (-0.2, 0.7)])
        want = [p.exact[0](0.05, 0.1), p.exact[0](-0.2, 0.7)]
        assert_allclose(got[0], want, rtol=1e-5)


class TestOperatorTables:
    """One table per interval operator; column 0 is the operator applied to 1."""

    def context(self, config=None):
        problem = load_problem("example2")
        config = config or SolverConfig(m=8)
        return build_grid(problem, config)

    def test_volterra_matches_per_function_loop(self):
        # the scalar loop the table replaced, kept as reference: same
        # arithmetic, so the entries must agree bit for bit
        ctx = self.context()
        kernel = Field(lambda t, s: 1.0 + s * t)
        spec, pts = ctx.specs[-1], [0.0, 0.13, 0.5, 0.97]
        rule = gauss_quadrature(VOLTERRA_NODES)
        want = np.zeros((len(pts), spec.degree_count))
        for g, p in enumerate(pts[1:], start=1):
            qx, qw = rule.mapped(spec.lo, p)
            kvals = np.array([kernel(p, s) for s in qx])
            for j in range(spec.degree_count):
                vals = legendre_table(j + 1, shift_to_canonical(qx, spec))[0][j]
                want[g, j] = float(np.sum(qw * kvals * vals))
        got = ctx.operator_matrix(VolterraIntegral(kernel), np.array(pts)[:, None])
        assert got.tobytes() == want.tobytes()

    def test_column_zero_is_operator_on_one(self):
        ctx = self.context()
        pts = np.array([0.0, 0.25, 0.8])
        cases = [
            (Identity(), np.ones(3)),
            (Derivative(1), np.zeros(3)),
            (Caputo(0.5), np.zeros(3)),
            (VolterraIntegral(Field.constant(2.0)), 2.0 * pts),
        ]
        for op, want in cases:
            assert_allclose(ctx.operator_matrix(op, pts[:, None])[:, 0], want, atol=1e-15)

    def test_volterra_exact_beyond_the_node_floor(self):
        # 80 basis functions need more than VOLTERRA_NODES Gauss nodes; on a
        # constant kernel the table is int_-1^xi P_j = (P_{j+1} - P_{j-1})/(2j+1)
        # scaled by width/2, with int_-1^xi P_0 = xi + 1
        ctx = self.context(SolverConfig(m=8, degree=80))
        spec, pts = ctx.specs[-1], np.linspace(0.05, 1.0, 7)
        xi = shift_to_canonical(pts, spec)
        P = legendre_table(81, xi)[0]
        j = np.arange(1, 80)[:, None]
        want = np.vstack([xi + 1.0, (P[2:] - P[:-2]) / (2 * j + 1)]).T * spec.width / 2
        got = ctx.operator_matrix(VolterraIntegral(Field.constant(1.0)), pts[:, None])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [8, 14])
    def test_each_field_is_called_once_per_grid(self, monkeypatch, m):
        # every term coefficient, right-hand side and distinct Volterra
        # kernel text is called once per assemble, on the whole grid (on
        # the (point, node) array for a kernel), whatever the grid size
        calls = []
        field_call = Field.__call__

        def counted_field(self, *args):
            calls.append(self)
            return field_call(self, *args)

        problem = load_problem("example2")
        config = SolverConfig(m=m)
        grid = build_grid(problem, config)
        terms = [term for eq in problem.equations for term in eq.terms]
        # each kernel text through the first term that carries it (reversed,
        # so the first one is kept)
        kernels = {t.op.kernel.tag: t.op.kernel for t in reversed(terms)
                   if isinstance(t.op, VolterraIntegral)}
        fields = [t.coeff for t in terms] + [eq.rhs for eq in problem.equations] + list(kernels.values())
        monkeypatch.setattr(Field, "__call__", counted_field)
        assemble(grid)
        assert len(calls) == len(fields) == 9
        assert {id(f) for f in calls} == {id(f) for f in fields}

    def test_volterra_kernels_with_the_same_text_share_a_table(self, monkeypatch):
        # example2 has four Volterra terms: three with kernel "1", one "1+s"
        calls = []
        table = daesvr.solver._volterra_table
        monkeypatch.setattr(daesvr.solver, "_volterra_table",
                            lambda *a: calls.append(a[0].tag) or table(*a))
        assemble(self.context())
        assert sorted(calls) == ["1", "1+s"]

    @pytest.mark.parametrize("scheme", ["analytic", "l1"])
    @pytest.mark.parametrize("point", [-0.5, 1.5])
    def test_memory_operators_name_a_point_outside_the_domain(self, scheme, point):
        # as Identity does: the point is named, not the quadrature nodes,
        # and a point below the base point is not a zero row
        model = solve(load_problem("example2"), SolverConfig(m=4, fractional_scheme=scheme))
        kernel = model.problem.equations[0].terms[1].op.kernel
        for op in (Identity(), Caputo(0.5), VolterraIntegral(kernel)):
            with pytest.raises(DomainError, match=rf"point \[{point}\] outside \[0\.0, 1\.0\]$"):
                model.values(op, [point])

    def test_volterra_at_the_base_point_alone(self):
        # no point past the base point: the empty set of integrals gives zero rows
        grid = self.context()
        kernel = grid.problem.equations[1].terms[0].op.kernel
        got = grid.operator_matrix(VolterraIntegral(kernel), [[0.0], [0.0]])
        assert got.shape == (2, grid.D) and np.all(got == 0.0)

    def test_l1_scheme_matches_analytic_table(self):
        ctx = self.context(SolverConfig(m=8, fractional_scheme="l1", l1_grid=4000))
        exact = self.context().operator_matrix(Caputo(0.5), ctx.points)
        got = ctx.operator_matrix(Caputo(0.5), ctx.points)
        assert np.max(np.abs(got - exact)) <= 5e-3 * np.max(np.abs(exact))

    def test_assembly_cost_is_per_operator(self, monkeypatch):
        # example2 at its default m: one table per operator and one kernel
        # call per (point, node), never one per basis function
        calls = {"field": 0, "table": 0}
        field_call, table = Field.__call__, daesvr.legendre.legendre_table

        def counted_field(self, *args):
            calls["field"] += 1
            return field_call(self, *args)

        def counted_table(*args, **kwargs):
            calls["table"] += 1
            return table(*args, **kwargs)

        problem = load_problem("example2")
        config = CASES["example2"].config
        grid = build_grid(problem, config)
        monkeypatch.setattr(Field, "__call__", counted_field)
        monkeypatch.setattr(daesvr.legendre, "legendre_table", counted_table)
        assemble(grid)
        assert calls["field"] <= 2000
        assert calls["table"] <= 60


class TestEveryOperatorOnTheRectangle:
    """Caputo, Volterra and closures on the rectangle, through the same
    operator tables and trainers as on the interval."""

    @pytest.mark.parametrize("scheme, m, bound", [("analytic", 10, 1e-10), ("l1", 8, 1e-5)])
    @pytest.mark.parametrize("name", sorted(ON_RECTANGLE))
    def test_self_check_then_convergence(self, name, scheme, m, bound):
        p = on_rectangle(name)
        assert self_check(name, p, DIAGONAL) <= 1e-12
        model = solve(p, SolverConfig(m=m, gamma=1e10, fractional_scheme=scheme))
        assert report(model, DIAGONAL).l2.max() <= bound

    @pytest.mark.parametrize("scheme", ["analytic", "l1"])
    def test_caputo_table_is_x_identity_times_interval_table(self, scheme):
        grid = build_grid(on_rectangle("caputo"), SolverConfig(m=6, fractional_scheme=scheme))
        (spec_x, spec_t), (x, t) = grid.specs, grid.points.T
        ident = legendre_table(spec_x.degree_count, shift_to_canonical(x, spec_x))[0].T
        if scheme == "analytic":
            memory = caputo_table(spec_t, 0.5, t)
        else:
            memory = caputo_l1_table(spec_t, 0.5, t, grid.config.l1_grid)
        want = (ident[:, :, None] * memory[:, None, :]).reshape(len(grid), -1)
        assert grid.operator_matrix(Caputo(0.5), grid.points).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, reason", [("caputo", "identity and derivative terms only"),
                                              ("closure", "linear problems only")])
    def test_interpolant_still_refuses(self, name, reason):
        with pytest.raises(ValidationError, match=reason):
            solve_interpolant(on_rectangle(name), SolverConfig(m=4))


class TestGaussNewton:
    @pytest.mark.parametrize("name", ["example1", "example4"])
    def test_each_closure_is_called_once_per_linearize(self, monkeypatch, name):
        # one call per closure serves the residual and the k forward
        # differences; linearize runs once at the start and once per step
        calls = []
        field_call = Field.__call__

        def counted_field(self, *args):
            calls.append(self)
            return field_call(self, *args)

        problem = load_problem(name)
        config = CASES[name].config
        grid = build_grid(problem, config)
        monkeypatch.setattr(Field, "__call__", counted_field)
        model = gauss_newton(grid)
        for eq in problem.equations:
            want = 0 if eq.nonlinear is None else model.iterations + 1
            assert sum(f is eq.nonlinear for f in calls) == want

    def test_scalar_square_root(self):
        # pure closure equation u^2 = 4; from a positive start the
        # iteration must land on the u = 2 branch everywhere
        p = load_problem(FLAT_SQUARE)
        config = SolverConfig(m=4, gamma=1e10)
        grid = build_grid(p, config)
        model = gauss_newton(grid, w0=np.full(4, 1.0))
        assert_allclose(model.values(Identity(), [0.2, 0.5, 0.8]), [[2.0] * 3], atol=1e-10)
        assert model.iterations >= 1

    def test_matches_dual_solver_on_linear_problem(self):
        p = load_problem("example3")
        config = SolverConfig(m=8, gamma=1e5)
        grid = build_grid(p, config)
        iterated = gauss_newton(grid)
        Z, y = assemble(grid)
        direct = solve_linear(Z, y, grid)
        assert_allclose(iterated.weights, direct.weights, rtol=1e-9, atol=1e-9)
        # the start is the linear-part solve, so there is nothing left to do
        assert iterated.iterations <= 2

    @pytest.mark.parametrize("m", [6, 8, 10, 12, 14, 16])
    @pytest.mark.parametrize("name", ["example1", "example4"])
    def test_cases_converge_with_margin(self, name, m):
        config = dataclasses.replace(CASES[name].config, m=m)
        model = solve(load_problem(name), config)
        assert model.iterations <= config.max_iters // 2

    def test_nonconvergence_carries_best_iterate(self):
        p = load_problem("example1")
        config = SolverConfig(m=6, gamma=1e6, max_iters=1)
        with pytest.raises(NonConvergence) as exc:
            gauss_newton(build_grid(p, config))
        best = exc.value.best
        assert best.iterations == 1
        assert best.weights.shape[0] == p.unknowns

    def test_converges_on_a_rectangle(self):
        # the closure reads (x, t, u1) at every grid point: its residuals,
        # evaluated by `residuals`, are the collocation rows of `errors`
        p = on_rectangle("closure")
        model = gauss_newton(build_grid(p, SolverConfig(m=10, gamma=1e10)))
        assert model.iterations <= 6
        got = residuals(p, model, model.grid.points)
        assert_allclose(got.ravel(), model.errors[: got.size], rtol=0, atol=1e-14)

    def test_cholesky_failure_is_named(self, monkeypatch):
        def failing(*args, **kwargs):
            raise scipy.linalg.LinAlgError("2-th leading minor not positive definite")

        grid = build_grid(load_problem(FLAT_SQUARE), SolverConfig(m=4))
        monkeypatch.setattr(scipy.linalg, "cho_factor", failing)
        # w0 skips the dual start, so the failure is the normal matrix's
        with pytest.raises(NotPositiveDefinite, match="Gauss-Newton normal matrix failed: 2-th"):
            gauss_newton(grid, w0=np.full(4, 1.0))

    def test_overflowing_normal_matrix_is_named(self):
        # 1/gamma is finite, but gamma J^T J is not
        grid = build_grid(load_problem("example1"), SolverConfig(m=10, gamma=1e306))
        with pytest.raises(DomainError, match="normal matrix overflows at gamma = 1e\\+306"):
            gauss_newton(grid)

    def test_overflowing_objective_is_named(self):
        # at gamma near the float maximum the starting objective overflows
        # first; a RuntimeWarning from it fails this test
        grid = build_grid(load_problem("example1"), SolverConfig(m=10, gamma=1e308))
        with pytest.raises(DomainError, match="objective overflows at gamma = 1e\\+308"):
            gauss_newton(grid)

    def test_rejects_wrong_start_length(self):
        p = load_problem(FLAT_SQUARE)
        config = SolverConfig(m=4)
        with pytest.raises(ShapeError):
            gauss_newton(build_grid(p, config), w0=np.ones(3))

    def test_dispatch_routes_closures_here(self):
        model = solve(load_problem("example1"), SolverConfig(m=8, gamma=1e6))
        assert model.iterations >= 1


class TestReport:
    def test_near_zero_rows_use_absolute_error(self):
        model = solve(oscillator(), SolverConfig(m=8, gamma=1e8))
        rep = report(model, (0.0, 0.5, 1.0))
        first = rep.rows[0][0]
        assert first.near_zero
        assert first.rel_err == first.abs_err

    def test_l2_is_root_sum_of_squares(self):
        model = solve(oscillator(), SolverConfig(m=8, gamma=1e8))
        rep = report(model, (0.25, 0.5, 0.75))
        for u in range(2):
            manual = math.sqrt(sum(r.abs_err**2 for r in rep.rows[u]))
            assert_allclose(rep.l2[u], manual, rtol=1e-12)

    def test_probe_order_is_preserved(self):
        model = solve(oscillator(), SolverConfig(m=8, gamma=1e8))
        probes = (0.9, 0.1, 0.5)
        rep = report(model, probes)
        assert rep.probes == probes
        assert [r.point for r in rep.rows[0]] == list(probes)

    @pytest.mark.parametrize(
        "probes",
        [[(0.1, 0.2, 0.3, 0.4)], [0.1, 0.2]],
        ids=["four-coordinates", "flat-pair"],
    )
    def test_rectangle_refuses_points_that_are_not_pairs(self, probes):
        # neither is read as the point (0.1, 0.2)
        model = solve(load_problem("example5"), CASES["example5"].config)
        with pytest.raises(ValidationError, match=r"each point needs the coordinates \('x', 't'\)"):
            report(model, probes)

    @pytest.mark.parametrize("name", ["example3", "example5"])
    def test_no_probes_give_an_empty_report(self, name):
        model = solve(load_problem(name), CASES[name].config)
        rep = report(model, [])
        assert [len(rows) for rows in rep.rows] == [0, 0, 0] and not rep.l2.any()

    def test_interval_refuses_a_pair(self):
        model = solve(oscillator(), SolverConfig(m=8, gamma=1e8))
        with pytest.raises(ValidationError, match=r"each point needs the coordinates \('t',\)"):
            report(model, [(0.2, 0.9)])

    @pytest.mark.parametrize("digits", [None, 40], ids=["double", "interpolant"])
    def test_probes_are_read_once(self, monkeypatch, digits):
        # the values and the exact solutions both come from one read
        case, problem = CASES["example5"], load_problem("example5")
        if digits is None:
            model = solve(problem, case.config)
        else:
            model = solve_interpolant(problem, case.config, digits=digits)
        reads, points = [], DaeProblem.points
        monkeypatch.setattr(DaeProblem, "points", lambda self, p: reads.append(p) or points(self, p))
        rep = report(model, case.probes)
        assert len(reads) == 1
        assert len(rep.rows) == 3 and all(len(rows) == 5 for rows in rep.rows)

    @pytest.mark.parametrize(
        "name, extra",
        [("example2", (0.05, 0.0)), ("example5", ((0.45, 0.35), (-0.5, 0.0)))],
    )
    def test_batch_matches_one_point_evaluation(self, name, extra):
        # report evaluates all probes from one table; each value must be the
        # bits that values() gives for its point alone
        case = CASES[name]
        model = solve(load_problem(name), case.config)
        rep = report(model, case.probes + extra)
        for u, rows in enumerate(rep.rows):
            for row in rows:
                alone = model.values(Identity(), [row.point])
                assert row.approx.hex() == float(alone[u, 0]).hex()
