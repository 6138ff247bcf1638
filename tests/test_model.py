import json
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import daesvr.expressions
from daesvr.benchmarks import self_check
from daesvr.errors import DomainError, EvaluationError, MissingExact, ParseError, ValidationError
from daesvr.expressions import compile_expression, derivative
from daesvr.model import (
    Caputo,
    DaeProblem,
    Derivative,
    Equation,
    ExactCandidate,
    Field,
    Identity,
    OperatorTerm,
    SideCondition,
    VolterraIntegral,
    is_linear,
    residuals,
)
from daesvr.schema import load_problem

from caputo_reference import caputo_monomial

ONE = Field.constant(1.0)


def interval_problem(equations, unknowns=1, **kw):
    return DaeProblem(unknowns=unknowns, domain=(0.0, 1.0), equations=tuple(equations), **kw)


class TestField:
    def test_constant(self):
        f = Field.constant(3)
        assert f(0.7) == 3.0
        assert f.tag == "3.0"

    def test_constant_broadcasts_in_its_number_type(self):
        f = Field.constant(2, mpmath.mpf)
        assert type(f(0.5)) is mpmath.mpf and f.tag == "2.0"
        got = f(np.zeros((3, 1)), np.zeros(4))
        assert got.shape == (3, 4) and got.dtype == object
        assert all(type(v) is mpmath.mpf and v == 2 for v in got.flat)
        got = Field.constant(2.5)(np.zeros(3))
        assert got.dtype == np.float64 and got.tolist() == [2.5] * 3

    def test_callable_with_tag(self):
        f = Field(lambda t: 2 * t, tag="2*t")
        assert f(0.25) == 0.5
        assert "2*t" in repr(f)


class TestOperatorValidation:
    def test_derivative_order_range(self):
        Derivative(order=4)
        with pytest.raises(ValidationError):
            Derivative(order=0)
        with pytest.raises(ValidationError):
            Derivative(order=5)

    def test_derivative_variable(self):
        Derivative(order=1, var="x")
        with pytest.raises(ValidationError):
            Derivative(order=1, var="y")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_caputo_order_open_interval(self, alpha):
        with pytest.raises(ValidationError):
            Caputo(alpha=alpha)

    def test_caputo_accepts_half(self):
        assert Caputo(alpha=0.5).alpha == 0.5


class TestValidate:
    def eq(self, target=0):
        return Equation(terms=(OperatorTerm(ONE, Identity(), target),), rhs=ONE)

    def test_accepts_minimal(self):
        interval_problem([self.eq()]).validate()

    def test_zero_unknowns(self):
        with pytest.raises(ValidationError):
            DaeProblem(unknowns=0, domain=(0.0, 1.0), equations=()).validate()

    def test_square_system_required(self):
        with pytest.raises(ValidationError, match="square"):
            interval_problem([self.eq(), self.eq()], unknowns=1).validate()

    def test_empty_interval(self):
        with pytest.raises(ValidationError, match="domain interval is empty"):
            DaeProblem(unknowns=1, domain=(1.0, 1.0), equations=(self.eq(),)).validate()

    def test_empty_rectangle(self):
        p = DaeProblem(
            unknowns=1, domain=((0.0, 0.0), (0.0, 1.0)), equations=(self.eq(),)
        )
        with pytest.raises(ValidationError, match="domain rectangle is empty"):
            p.validate()

    def test_reversed_time_axis_is_empty(self):
        p = DaeProblem(
            unknowns=1, domain=((0.0, 1.0), (1.0, 0.5)), equations=(self.eq(),)
        )
        with pytest.raises(ValidationError, match="domain rectangle is empty"):
            p.validate()

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError, match="target"):
            interval_problem([self.eq(target=1)]).validate()

    def test_memory_terms_on_a_rectangle(self):
        # Caputo and Volterra act on t; the exact candidate passes x through
        caputo, volterra = Caputo(0.5), VolterraIntegral(Field.constant(1.0))
        eq = Equation(terms=(OperatorTerm(ONE, caputo, 0), OperatorTerm(ONE, volterra, 1)), rhs=ONE)
        texts = ("pow(x,2)*pow(t,2)", "cos(x)*exp(t)")
        p = DaeProblem(unknowns=2, domain=((-0.5, 0.5), (0.0, 1.0)), equations=(eq, eq),
                       exact=tuple(Field(compile_expression(e, ("x", "t")), tag=e) for e in texts))
        p.validate()
        pts = [(0.3, 0.4), (-0.2, 0.9), (0.1, 0.0)]
        c = ExactCandidate(p)
        want = [x * x * caputo_monomial(2, 0.5, t) for x, t in pts]
        assert_allclose(c.values(caputo, pts)[0], want, rtol=1e-13, atol=1e-300)
        want = [math.cos(x) * (math.exp(t) - 1.0) for x, t in pts]
        assert_allclose(c.values(volterra, pts)[1], want, rtol=1e-13, atol=1e-300)

    def test_closures_on_a_rectangle(self):
        # a closure takes the axis coordinates, then u1..uk
        eq = Equation(
            terms=(OperatorTerm(ONE, Derivative(1, "t"), 0),),
            rhs=Field(lambda x, t: (1 + x) * np.cos(t) + x * ((1 + x) * np.sin(t)) ** 2),
            nonlinear=Field(lambda x, t, u1: x * u1 * u1),
        )
        text = "(1+x)*sin(t)"
        p = DaeProblem(unknowns=1, domain=((-0.5, 0.5), (0.0, 1.0)), equations=(eq,),
                       exact=(Field(compile_expression(text, ("x", "t")), tag=text),))
        p.validate()
        got = residuals(p, ExactCandidate(p), [(0.3, 0.4), (-0.2, 0.9)])
        assert_allclose(got, [[0.0, 0.0]], atol=1e-15)

    def test_side_condition_guards(self):
        bad_target = interval_problem(
            [self.eq()], side_conditions=(SideCondition(3, 0.0, 0.0),)
        )
        with pytest.raises(ValidationError):
            bad_target.validate()
        bad_order = interval_problem(
            [self.eq()], side_conditions=(SideCondition(0, 0.0, 0.0, order=9),)
        )
        with pytest.raises(ValidationError):
            bad_order.validate()

    def test_side_condition_outside_the_domain(self):
        # refused when the problem is checked, not when a solve reaches it
        p1 = interval_problem([self.eq()], side_conditions=(SideCondition(0, 2.0, 0.0),))
        with pytest.raises(ValidationError, match=r"side_conditions\[0\]: t = 2\.0 outside"):
            p1.validate()
        slice_ = SideCondition(0, (None, 0.0), ONE), SideCondition(0, (3.0, 0.0), 0.0)
        p2 = DaeProblem(unknowns=1, domain=((-0.5, 0.5), (0.0, 1.0)), equations=(self.eq(),),
                        side_conditions=slice_)
        with pytest.raises(ValidationError, match=r"side_conditions\[1\]: x = 3\.0 outside"):
            p2.validate()

    def test_exact_count(self):
        p = interval_problem([self.eq()], exact=(ONE, ONE))
        with pytest.raises(ValidationError, match="exact"):
            p.validate()

    def test_derivative_along_a_missing_axis(self):
        # an interval has no x-axis: d/dx is refused by name, not solved as d/dt
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0), OperatorTerm(ONE, Derivative(1, "x"), 0)),
                      rhs=ONE)
        with pytest.raises(ValidationError, match=r"equations\[0\]\.terms\[1\]: derivative by 'x'"):
            interval_problem([eq]).validate()

    def test_axes_and_variables(self):
        p2 = DaeProblem(unknowns=1, domain=((-0.5, 0.5), (0.0, 2.0)), equations=(self.eq(),))
        assert p2.axes == (("x", -0.5, 0.5), ("t", 0.0, 2.0))
        assert p2.variables == ("x", "t")
        p1 = interval_problem([self.eq()])
        assert p1.axes == (("t", 0.0, 1.0),) and p1.variables == ("t",)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_points_are_refused(self, bad):
        p1 = interval_problem([self.eq()])
        with pytest.raises(ValidationError, match=rf"point \({bad},\) is not finite"):
            p1.points([0.5, bad])
        p2 = DaeProblem(unknowns=1, domain=((-0.5, 0.5), (0.0, 1.0)), equations=(self.eq(),))
        with pytest.raises(ValidationError, match=rf"point \(0.1, {bad}\) is not finite"):
            p2.points([(0.2, 0.5), (0.1, bad)])

    def test_points_outside_the_domain_are_refused(self):
        p1 = interval_problem([self.eq()])
        with pytest.raises(DomainError, match=r"point \[1\.5\] outside \[0\.0, 1\.0\]"):
            p1.points([0.5, 1.5])
        p2 = DaeProblem(unknowns=1, domain=((-0.5, 0.5), (0.0, 1.0)), equations=(self.eq(),))
        with pytest.raises(DomainError, match=r"point \[2\.\] outside \[-0\.5, 0\.5\]"):
            p2.points([(0.2, 0.5), (2.0, 0.5)])
        with pytest.raises(DomainError, match=r"point \[-0\.1\] outside \[0\.0, 1\.0\]"):
            p2.points([(0.2, -0.1)])
        # within the 1e-12 slack of BasisSpec.checked a point is on the domain
        assert p1.points([1.0 + 1e-13]).shape == (1, 1)

    def test_points_must_be_numbers(self):
        with pytest.raises(ValidationError, match="must be numbers"):
            interval_problem([self.eq()]).points([["a"]])

    def test_interval_property(self):
        p2 = DaeProblem(
            unknowns=1, domain=((-0.5, 0.5), (0.0, 2.0)), equations=(self.eq(),)
        )
        assert p2.axes[-1] == ("t", 0.0, 2.0) and len(p2.axes) == 2
        p1 = interval_problem([self.eq()])
        assert p1.axes[-1] == ("t", 0.0, 1.0) and len(p1.axes) == 1


class TestIsLinear:
    @pytest.mark.parametrize(
        "name,want",
        [
            ("example1", False),
            ("example2", True),
            ("example3", True),
            ("example4", False),
            ("example5", True),
        ],
    )
    def test_builtins(self, name, want):
        assert is_linear(load_problem(name)) is want


def exact_problem(equations, texts, unknowns=1):
    """An interval problem whose exact solutions are the given texts."""
    exact = tuple(Field(compile_expression(t, ("t",)), tag=t) for t in texts)
    return interval_problem(equations, unknowns=unknowns, exact=exact)


class StubCandidate:
    """The candidate interface with one fixed value everywhere."""

    def __init__(self, value):
        self._value = value

    def values(self, op, points):
        return np.full((1, len(points)), self._value)


class TestResidualAt:
    """`residuals` at a batch of points: one row per equation."""

    def test_constant_satisfies_flat_equation(self):
        # u' = 0 and any constant candidate give a zero residual
        eq = Equation(terms=(OperatorTerm(ONE, Derivative(1), 0),), rhs=Field.constant(0.0))
        p = exact_problem([eq], ["3.0"])
        got = residuals(p, ExactCandidate(p), [0.0, 0.4, 1.0])
        assert got.shape == (1, 3) and got.tolist() == [[0.0, 0.0, 0.0]]

    def test_rhs_enters_with_minus_sign(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=Field.constant(5.0))
        p = exact_problem([eq], ["2"])
        assert_allclose(residuals(p, ExactCandidate(p), [0.4, 0.9]), [[-3.0, -3.0]], rtol=1e-15)

    def test_rows_follow_the_equations(self):
        # u1 = t, u2 = 2 against u1 = 1, u2 = 0: residuals t - 1 and 2
        eqs = [
            Equation(terms=(OperatorTerm(ONE, Identity(), u),), rhs=Field.constant(v))
            for u, v in ((0, 1.0), (1, 0.0))
        ]
        p = exact_problem(eqs, ["t", "2"], unknowns=2)
        got = residuals(p, ExactCandidate(p), [0.25, 0.5])
        assert got.tolist() == [[-0.75, -0.5], [2.0, 2.0]]

    def test_nonlinear_closure_contributes(self):
        eq = Equation(
            terms=(),
            rhs=Field.constant(4.0),
            nonlinear=Field(lambda t, u1: u1 * u1),
        )
        p = exact_problem([eq], ["2"])
        assert_allclose(residuals(p, ExactCandidate(p), [0.5, 0.75]), [[0.0, 0.0]], atol=1e-15)

    def test_nonfinite_residual_raises(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        p = interval_problem([eq])
        with pytest.raises(EvaluationError):
            residuals(p, StubCandidate(float("inf")), [0.5])

    def test_nonfinite_residual_names_equation_and_first_point(self):
        # equation 1 is finite at 0.2 only; equation 0 is finite everywhere
        eqs = (
            Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE),
            Equation(
                terms=(OperatorTerm(ONE, Identity(), 1),),
                rhs=Field(lambda t: np.where(t < 0.3, 1.0, np.nan)),
            ),
        )
        p = interval_problem(eqs, unknowns=2)

        class Finite:
            def values(self, op, points):
                return np.ones((2, len(points)))

        with pytest.raises(EvaluationError, match=r"^equation 1 residual at 0\.4 is not finite$"):
            residuals(p, Finite(), [0.2, 0.4, 0.6])

    def test_rectangle_point_is_named_as_a_pair(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        p = DaeProblem(unknowns=1, domain=((0.0, 1.0), (0.0, 1.0)), equations=(eq,))
        with pytest.raises(EvaluationError, match=r"equation 0 residual at \(0\.5, 0\.25\)"):
            residuals(p, StubCandidate(float("nan")), [(0.5, 0.25)])

    def test_candidate_is_asked_once_per_operator(self):
        # two equations share d/dt and the identity; the closure reads every value
        eqs = (
            Equation(
                terms=(OperatorTerm(ONE, Derivative(1), 0), OperatorTerm(ONE, Identity(), 1)),
                rhs=ONE,
            ),
            Equation(
                terms=(OperatorTerm(ONE, Derivative(1), 1),),
                rhs=ONE,
                nonlinear=Field(lambda t, u1, u2: u1 * u2),
            ),
        )
        p = interval_problem(eqs, unknowns=2)
        asked = []

        class Recording:
            def values(self, op, points):
                asked.append(op)
                return np.ones((2, len(points)))

        got = residuals(p, Recording(), [0.1, 0.2, 0.3, 0.4])
        assert asked == [Derivative(1), Identity()]
        assert got.tolist() == [[1.0] * 4, [1.0] * 4]

    def test_candidate_count_must_match(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        p = interval_problem([eq], exact=())
        with pytest.raises(ValidationError):
            ExactCandidate(p)

    def test_tagless_exact_is_refused(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        p = interval_problem([eq], exact=(Field(lambda t: t),))
        with pytest.raises(ValidationError, match="load_problem"):
            ExactCandidate(p)

    def test_missing_exact_is_refused(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        with pytest.raises(MissingExact):
            ExactCandidate(interval_problem([eq]))


def op_values(text, op, points, domain=(0.0, 1.0)):
    """`ExactCandidate.values(op, points)` of one unknown with exact text
    `text`, in a problem whose one term applies `op` to it."""
    eq = Equation(terms=(OperatorTerm(ONE, op, 0),), rhs=ONE)
    exact = (Field(compile_expression(text, ("t",)), tag=text),)
    p = DaeProblem(unknowns=1, domain=domain, equations=(eq,), exact=exact)
    got = ExactCandidate(p).values(op, points)
    assert got.shape == (1, len(points)) and got.dtype == np.float64
    return got[0]


class TestExactCandidateOperators:
    def test_analytic_derivative_preferred(self):
        got = op_values("sin(t)", Derivative(1), [0.3, 0.7])
        assert got.tolist() == [math.cos(0.3), math.cos(0.7)]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivative_orders(self, order):
        # d^k/dt^k sin(t) cycles through cos, -sin, -cos, sin
        def cycle(t):
            return [math.cos(t), -math.sin(t), -math.cos(t), math.sin(t)][order - 1]

        got = op_values("sin(t)", Derivative(order), [0.2, 0.6])
        assert_allclose(got, [cycle(0.2), cycle(0.6)], rtol=1e-13)

    def test_derivatives_are_compiled_once(self, monkeypatch):
        eq = Equation(terms=(OperatorTerm(ONE, Derivative(2), 0),), rhs=ONE)
        c = ExactCandidate(exact_problem([eq], ["t*sin(t)"]))
        first = derivative("t*sin(t)", ("t",), "t", 2)
        compiled = []
        monkeypatch.setattr(daesvr.expressions, "_function", lambda *args: compiled.append(args))
        c.values(Derivative(2), [0.5, 0.6])
        assert compiled == []
        assert derivative("t*sin(t)", ("t",), "t", 2) is first

    def test_power_sum_derivative(self):
        got = op_values("pow(t,2.5)", Derivative(1), [0.49, 0.81])
        assert_allclose(got, [2.5 * 0.49**1.5, 2.5 * 0.81**1.5], rtol=1e-14)

    def test_power_sum_derivative_at_base_point(self):
        with pytest.raises(EvaluationError, match="sqrt"):
            op_values("sqrt(t)", Derivative(1), [0.5, 0.0])

    def test_rectangle_derivatives_in_both_variables(self):
        dt, dxx = Derivative(1, "t"), Derivative(2, "x")
        eq = Equation(terms=(OperatorTerm(ONE, dt, 0), OperatorTerm(ONE, dxx, 0)), rhs=ONE)
        text = "pow(x,2)*exp(-t/2)"
        p = DaeProblem(
            unknowns=1,
            domain=((-0.5, 0.5), (0.0, 1.0)),
            equations=(eq,),
            exact=(Field(compile_expression(text, ("x", "t")), tag=text),),
        )
        c = ExactCandidate(p)
        pts = [(0.3, 0.4), (-0.2, 0.9)]
        assert_allclose(
            c.values(dt, pts)[0], [-x * x * math.exp(-t / 2) / 2 for x, t in pts], rtol=1e-15
        )
        assert_allclose(c.values(dxx, pts)[0], [2 * math.exp(-t / 2) for _, t in pts], rtol=1e-15)

    def test_rows_of_other_operators_are_not_computed(self):
        # u2's text has no symbolic derivative; no term differentiates it
        eqs = (
            Equation(terms=(OperatorTerm(ONE, Derivative(1), 0),), rhs=ONE),
            Equation(terms=(OperatorTerm(ONE, Identity(), 1),), rhs=ONE),
        )
        c = ExactCandidate(exact_problem(eqs, ["t", "pow(2,t)"], unknowns=2))
        got = c.values(Derivative(1), [0.5])
        assert got[0].tolist() == [1.0] and np.isnan(got[1]).all()
        assert c.values(Identity(), [0.5]).tolist() == [[0.5], [2**0.5]]

    def test_caputo_power_rule(self):
        got = op_values("pow(t,3)", Caputo(0.5), [0.7, 0.3])
        assert_allclose(got, [caputo_monomial(3, 0.5, x) for x in (0.7, 0.3)], rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 1.5, 2.5, 3.5])
    def test_caputo_substitution_matches_power_rule(self, k, alpha):
        # the rule in sigma after s = tau sigma^2 on t^k and t^(k+1/2)
        xs = (0.05, 0.7, 1.0)
        got = op_values(f"pow(t,{k})", Caputo(alpha), xs)
        assert_allclose(got, [caputo_monomial(k, alpha, x) for x in xs], rtol=1e-12)

    def test_caputo_quadrature_matches_power_rule(self):
        # a sum of powers, and a base point away from 0
        got = op_values("2*(t-1) + pow(t-1,4)", Caputo(0.5), [1.7], domain=(1.0, 2.0))
        want = 2 * caputo_monomial(1, 0.5, 0.7) + caputo_monomial(4, 0.5, 0.7)
        assert_allclose(got, [want], rtol=1e-13)

    def test_caputo_of_a_smooth_function(self):
        # D^(1/2) sin(t) = int_0^x (x-s)^(-1/2) cos(s) ds / Gamma(1/2)
        x = 0.8
        with mpmath.workdps(30):
            want = mpmath.quad(lambda s: (x - s) ** -0.5 * mpmath.cos(s), [0, x]) / mpmath.gamma(0.5)
        assert_allclose(op_values("sin(t)", Caputo(0.5), [x]), [float(want)], rtol=1e-13)

    def test_caputo_at_base_point_vanishes(self):
        # the entry at lo is zero and its neighbours are untouched; sqrt(t)
        # has no derivative at lo, so the rule must not evaluate it there
        got = op_values("pow(t,2)", Caputo(0.5), [0.5, 0.0, 0.7])
        assert got[1] == 0.0
        assert_allclose(got[[0, 2]], [caputo_monomial(2, 0.5, x) for x in (0.5, 0.7)], rtol=1e-13)
        assert op_values("sqrt(t)", Caputo(0.5), [0.0]).tolist() == [0.0]

    def test_caputo_below_base_point(self):
        with pytest.raises(DomainError, match="outside"):
            op_values("pow(t,2)", Caputo(0.5), [0.5, -0.1])

    def test_volterra_constant_kernel(self):
        # int_0^t s ds = t^2 / 2
        got = op_values("t", VolterraIntegral(Field.constant(1.0)), [0.8, 0.4])
        assert_allclose(got, [0.32, 0.08], rtol=1e-12)

    def test_volterra_sqrt_behaviour(self):
        # int_0^t sqrt(s) ds = (2/3) t^(3/2); exercises the substitution
        got = op_values("sqrt(t)", VolterraIntegral(Field.constant(1.0)), [0.9, 0.25])
        assert_allclose(got, [2.0 / 3.0 * x**1.5 for x in (0.9, 0.25)], rtol=1e-12)

    def test_volterra_bivariate_kernel(self):
        # int_0^t (t + s) s^2 ds = t^4/3 + t^4/4
        kernel = Field(lambda t, s: t + s, tag="t+s")
        got = op_values("t**2", VolterraIntegral(kernel), [0.6, 0.9])
        assert_allclose(got, [x**4 * (1.0 / 3.0 + 1.0 / 4.0) for x in (0.6, 0.9)], rtol=1e-12)

    def test_volterra_at_base_point(self):
        got = op_values("t**2", VolterraIntegral(Field.constant(1.0)), [0.6, 0.0])
        assert got[1] == 0.0
        assert_allclose(got[0], 0.6**3 / 3, rtol=1e-12)

    def test_unknown_operator(self):
        # a problem built in Python may carry any object as an operator
        with pytest.raises(ValidationError, match="unknown operator 'shift'"):
            op_values("t", "shift", [0.5])

    def test_volterra_below_base_point(self):
        with pytest.raises(DomainError, match="outside"):
            op_values("t**2", VolterraIntegral(Field.constant(1.0)), [0.6, -0.1])


class TestBuiltinExactness:
    """The stored exact solutions must satisfy their own equations."""

    def test_first_system_residuals(self):
        p = load_problem("example1")
        assert np.abs(residuals(p, ExactCandidate(p), [0.5])).max() <= 1e-13

    def test_algebraic_equation_is_exact(self):
        # third equation of the mixed-index system: identity couplings only,
        # so the residual carries no differentiation error at all
        p = load_problem("example3")
        assert abs(residuals(p, ExactCandidate(p), [1.0])[2, 0]) <= 1e-12

    def test_points_outside_the_domain_are_refused(self):
        # refused as report refuses them, so a probe off the domain cannot pass a self-check
        p = load_problem("example1")
        with pytest.raises(DomainError, match="outside"):
            residuals(p, ExactCandidate(p), [1.5])
        with pytest.raises(DomainError, match="outside"):
            self_check("example1", p, [1.5, 3.0])
        with pytest.raises(DomainError, match="outside"):
            self_check("example5", load_problem("example5"), [(2.0, 5.0)])

    def test_rectangle_system_residuals(self):
        rng = np.random.default_rng(11)
        p = load_problem("example5")
        pts = [(rng.uniform(-0.4, 0.4), rng.uniform(0.1, 0.9)) for _ in range(4)]
        got = residuals(p, ExactCandidate(p), pts)
        assert got.shape == (p.unknowns, 4) and np.abs(got).max() <= 1e-13

    def test_undifferentiated_unknown_needs_no_derivative(self):
        # u2 = pow(2,t) appears under the identity only, so its text, which
        # has no symbolic derivative, is never differentiated
        p = load_problem(json.dumps({
            "unknowns": 2,
            "domain": {"lo": 0.0, "hi": 1.0},
            "equations": [
                {
                    "terms": [
                        {"op": "deriv", "order": 1, "coeff": 1, "target": 0},
                        {"op": "identity", "coeff": -1, "target": 0},
                    ],
                    "rhs": 0,
                },
                {"terms": [{"op": "identity", "coeff": 1, "target": 1}], "rhs": "pow(2,t)"},
            ],
            "side_conditions": [{"target": 0, "point": 0.0, "value": 1.0}],
            "exact": ["exp(t)", "pow(2,t)"],
        }))
        with pytest.raises(ParseError):
            derivative("pow(2,t)", ("t",), "t")
        assert self_check("pow2", p, [0.2, 0.6, 1.0]) <= 1e-15

    def test_self_check_calls_each_field_once(self, monkeypatch):
        # every coefficient, right-hand side and Volterra kernel once per
        # self_check, on the whole batch of probes
        p = load_problem("example2")
        fields = [term.coeff for eq in p.equations for term in eq.terms]
        fields += [term.op.kernel for eq in p.equations for term in eq.terms
                   if isinstance(term.op, VolterraIntegral)]
        fields += [eq.rhs for eq in p.equations]
        calls = []
        real = Field.__call__
        monkeypatch.setattr(Field, "__call__", lambda self, *a: calls.append(self) or real(self, *a))
        self_check("example2", p, (0.2, 0.4, 0.6, 0.8, 1.0))
        assert [sum(c is f for c in calls) for f in fields] == [1] * len(fields)
