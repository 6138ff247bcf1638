import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from daesvr.errors import DomainError, EvaluationError, MissingExact, ValidationError
from daesvr.expressions import compile_expression
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
    residual_at,
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
        with pytest.raises(ValidationError):
            DaeProblem(unknowns=1, domain=(1.0, 1.0), equations=(self.eq(),)).validate()

    def test_empty_rectangle(self):
        p = DaeProblem(
            unknowns=1, domain=((0.0, 0.0), (0.0, 1.0)), equations=(self.eq(),)
        )
        with pytest.raises(ValidationError):
            p.validate()

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError, match="target"):
            interval_problem([self.eq(target=1)]).validate()

    def test_fractional_is_interval_only(self):
        eq = Equation(terms=(OperatorTerm(ONE, Caputo(0.5), 0),), rhs=ONE)
        p = DaeProblem(unknowns=1, domain=((0.0, 1.0), (0.0, 1.0)), equations=(eq,))
        with pytest.raises(ValidationError, match="interval"):
            p.validate()

    def test_closures_are_interval_only(self):
        eq = Equation(
            terms=(OperatorTerm(ONE, Identity(), 0),),
            rhs=ONE,
            nonlinear=Field(lambda p, u1: u1 * u1),
        )
        p = DaeProblem(unknowns=1, domain=((0.0, 1.0), (0.0, 1.0)), equations=(eq,))
        with pytest.raises(ValidationError, match="interval"):
            p.validate()

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

    def test_exact_count(self):
        p = interval_problem([self.eq()], exact=(ONE, ONE))
        with pytest.raises(ValidationError, match="exact"):
            p.validate()

    def test_interval_property(self):
        p2 = DaeProblem(
            unknowns=1, domain=((-0.5, 0.5), (0.0, 2.0)), equations=(self.eq(),)
        )
        assert p2.is_2d
        assert p2.interval == (0.0, 2.0)
        p1 = interval_problem([self.eq()])
        assert not p1.is_2d
        assert p1.interval == (0.0, 1.0)


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
    """The candidate interface with fixed values."""

    def __init__(self, value):
        self._value = value

    def value(self, u, point):
        return self._value

    def apply_op(self, u, op, point):
        return self._value


class TestResidualAt:
    def test_constant_satisfies_flat_equation(self):
        # u' = 0 and any constant candidate give a zero residual
        eq = Equation(terms=(OperatorTerm(ONE, Derivative(1), 0),), rhs=Field.constant(0.0))
        p = exact_problem([eq], ["3.0"])
        assert residual_at(p, 0, ExactCandidate(p), 0.4) == 0.0

    def test_rhs_enters_with_minus_sign(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=Field.constant(5.0))
        p = exact_problem([eq], ["2"])
        assert_allclose(residual_at(p, 0, ExactCandidate(p), 0.4), -3.0, rtol=1e-15)

    def test_nonlinear_closure_contributes(self):
        eq = Equation(
            terms=(),
            rhs=Field.constant(4.0),
            nonlinear=Field(lambda t, u1: u1 * u1),
        )
        p = exact_problem([eq], ["2"])
        assert_allclose(residual_at(p, 0, ExactCandidate(p), 0.5), 0.0, atol=1e-15)

    def test_nonfinite_residual_raises(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        p = interval_problem([eq])
        with pytest.raises(EvaluationError):
            residual_at(p, 0, StubCandidate(float("inf")), 0.5)

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


class TestExactCandidateOperators:
    def cand(self, text):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        return ExactCandidate(exact_problem([eq], [text]))

    def test_analytic_derivative_preferred(self):
        c = self.cand("sin(t)")
        assert c.apply_op(0, Derivative(1), 0.3) == math.cos(0.3)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivative_orders(self, order):
        # d^k/dt^k sin(t) cycles through cos, -sin, -cos, sin
        c = self.cand("sin(t)")
        cycle = [math.cos(0.6), -math.sin(0.6), -math.cos(0.6), math.sin(0.6)]
        got = c.apply_op(0, Derivative(order), 0.6)
        assert_allclose(got, cycle[order - 1], rtol=1e-13)

    def test_derivatives_are_compiled_once(self):
        c = self.cand("t*sin(t)")
        first = c._derivative(0, "t", 2)
        c.apply_op(0, Derivative(2), 0.5)
        assert c._derivative(0, "t", 2) is first

    def test_power_sum_derivative(self):
        c = self.cand("pow(t,2.5)")
        assert_allclose(c.apply_op(0, Derivative(1), 0.49), 2.5 * 0.49**1.5, rtol=1e-14)

    def test_power_sum_derivative_at_base_point(self):
        c = self.cand("sqrt(t)")
        with pytest.raises(EvaluationError, match="sqrt"):
            c.apply_op(0, Derivative(1), 0.0)

    def test_rectangle_derivatives_in_both_variables(self):
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        text = "pow(x,2)*exp(-t/2)"
        p = DaeProblem(
            unknowns=1,
            domain=((-0.5, 0.5), (0.0, 1.0)),
            equations=(eq,),
            exact=(Field(compile_expression(text, ("x", "t")), tag=text),),
        )
        c = ExactCandidate(p)
        x, t = 0.3, 0.4
        assert_allclose(c.apply_op(0, Derivative(1, "t"), (x, t)), -x * x * math.exp(-t / 2) / 2, rtol=1e-15)
        assert_allclose(c.apply_op(0, Derivative(2, "x"), (x, t)), 2 * math.exp(-t / 2), rtol=1e-15)

    def test_caputo_power_rule(self):
        c = self.cand("pow(t,3)")
        got = c.apply_op(0, Caputo(0.5), 0.7)
        assert_allclose(got, caputo_monomial(3, 0.5, 0.7), rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 1.5, 2.5, 3.5])
    def test_caputo_substitution_matches_power_rule(self, k, alpha):
        # the rule in sigma after s = tau sigma^2 on t^k and t^(k+1/2)
        c = self.cand(f"pow(t,{k})")
        for x in (0.05, 0.7, 1.0):
            got = c.apply_op(0, Caputo(alpha), x)
            assert_allclose(got, caputo_monomial(k, alpha, x), rtol=1e-12)

    def test_caputo_quadrature_matches_power_rule(self):
        # a sum of powers, and a base point away from 0
        eq = Equation(terms=(OperatorTerm(ONE, Identity(), 0),), rhs=ONE)
        text = "2*(t-1) + pow(t-1,4)"
        p = DaeProblem(
            unknowns=1,
            domain=(1.0, 2.0),
            equations=(eq,),
            exact=(Field(compile_expression(text, ("t",)), tag=text),),
        )
        got = ExactCandidate(p).apply_op(0, Caputo(0.5), 1.7)
        want = 2 * caputo_monomial(1, 0.5, 0.7) + caputo_monomial(4, 0.5, 0.7)
        assert_allclose(got, want, rtol=1e-13)

    def test_caputo_of_a_smooth_function(self):
        # D^(1/2) sin(t) = int_0^x (x-s)^(-1/2) cos(s) ds / Gamma(1/2)
        mpmath = pytest.importorskip("mpmath")
        x = 0.8
        with mpmath.workdps(30):
            want = mpmath.quad(lambda s: (x - s) ** -0.5 * mpmath.cos(s), [0, x]) / mpmath.gamma(0.5)
        got = self.cand("sin(t)").apply_op(0, Caputo(0.5), x)
        assert_allclose(got, float(want), rtol=1e-13)

    def test_caputo_at_base_point_vanishes(self):
        c = self.cand("pow(t,2)")
        assert c.apply_op(0, Caputo(0.5), 0.0) == 0.0

    def test_caputo_below_base_point(self):
        c = self.cand("pow(t,2)")
        with pytest.raises(DomainError):
            c.apply_op(0, Caputo(0.5), -0.1)

    def test_volterra_constant_kernel(self):
        # int_0^t s ds = t^2 / 2
        c = self.cand("t")
        got = c.apply_op(0, VolterraIntegral(Field.constant(1.0)), 0.8)
        assert_allclose(got, 0.32, rtol=1e-12)

    def test_volterra_sqrt_behaviour(self):
        # int_0^t sqrt(s) ds = (2/3) t^(3/2); exercises the substitution
        c = self.cand("sqrt(t)")
        got = c.apply_op(0, VolterraIntegral(Field.constant(1.0)), 0.9)
        assert_allclose(got, 2.0 / 3.0 * 0.9**1.5, rtol=1e-12)

    def test_volterra_bivariate_kernel(self):
        # int_0^t (t + s) s^2 ds = t^4/3 + t^4/4
        c = self.cand("t**2")
        kernel = Field(lambda t, s: t + s, tag="t+s")
        got = c.apply_op(0, VolterraIntegral(kernel), 0.6)
        assert_allclose(got, 0.6**4 * (1.0 / 3.0 + 1.0 / 4.0), rtol=1e-12)

    def test_volterra_at_base_point(self):
        c = self.cand("t**2")
        assert c.apply_op(0, VolterraIntegral(Field.constant(1.0)), 0.0) == 0.0


class TestBuiltinExactness:
    """The stored exact solutions must satisfy their own equations."""

    def test_first_system_residuals(self):
        p = load_problem("example1")
        cand = ExactCandidate(p)
        for i in range(p.unknowns):
            assert abs(residual_at(p, i, cand, 0.5)) <= 1e-13

    def test_algebraic_equation_is_exact(self):
        # third equation of the mixed-index system: identity couplings only,
        # so the residual carries no differentiation error at all
        p = load_problem("example3")
        cand = ExactCandidate(p)
        assert abs(residual_at(p, 2, cand, 1.0)) <= 1e-12

    def test_rectangle_system_residuals(self):
        rng = np.random.default_rng(11)
        p = load_problem("example5")
        cand = ExactCandidate(p)
        for _ in range(4):
            pt = (rng.uniform(-0.4, 0.4), rng.uniform(0.1, 0.9))
            for i in range(p.unknowns):
                assert abs(residual_at(p, i, cand, pt)) <= 1e-13
