import math
import re

import mpmath
import pytest
from numpy.testing import assert_allclose

from daesvr.errors import EvaluationError, ParseError
from daesvr.expressions import FUNCTIONS, MPF, compile_expression, derivative


class TestCompile:
    def test_arithmetic(self):
        fn = compile_expression("2*t + 1", ("t",))
        assert fn(0.25) == 1.5

    def test_two_variables(self):
        fn = compile_expression("x*t - x", ("x", "t"))
        assert_allclose(fn(2.0, 0.75), -0.5, rtol=1e-15)

    def test_constants(self):
        fn = compile_expression("sin(pi*t)", ("t",))
        assert_allclose(fn(0.5), 1.0, rtol=1e-15)

    def test_power_operator(self):
        fn = compile_expression("t**3 - 1", ("t",))
        assert_allclose(fn(2.0), 7.0, rtol=1e-15)

    def test_pow_function(self):
        fn = compile_expression("pow(t, 2.5)", ("t",))
        assert_allclose(fn(4.0), 32.0, rtol=1e-15)

    def test_secant(self):
        fn = compile_expression("sec(t)", ("t",))
        assert_allclose(fn(0.3), 1.0 / math.cos(0.3), rtol=1e-15)

    def test_unary_signs(self):
        fn = compile_expression("-t + (+2)", ("t",))
        assert fn(3.0) == -1.0

    def test_nested_calls(self):
        fn = compile_expression("exp(sin(t) * cos(t))", ("t",))
        assert_allclose(fn(0.4), math.exp(math.sin(0.4) * math.cos(0.4)), rtol=1e-15)

    def test_every_listed_function_compiles(self):
        # every name in the vocabulary table must be callable through text
        for name in FUNCTIONS:
            text = "pow(0.5, 2)" if name == "pow" else f"{name}(0.5)"
            fn = compile_expression(text, ())
            assert math.isfinite(fn())

    def test_no_variables(self):
        fn = compile_expression("gamma(4)", ())
        assert_allclose(fn(), 6.0, rtol=1e-15)


class TestRejections:
    @pytest.mark.parametrize(
        "text",
        [
            "__import__('os')",
            "().__class__",
            "t.__class__",
            "t[0]",
            "lambda t: t",
            "t if t else 0",
            "t == 1",
            "t % 2",
            "unknown_fn(t)",
            "y + 1",
            "pow(t, exponent=2)",
            "pow(t)",
            "sin(t, 1)",
            "'abc'",
            "t +",
            "",
            "   ",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            compile_expression(text, ("t",))

    def test_non_string_input(self):
        with pytest.raises(ParseError):
            compile_expression(3.0, ("t",))

    def test_unknown_name_message_lists_variables(self):
        with pytest.raises(ParseError, match="variables"):
            compile_expression("q", ("x", "t"))


class TestEvaluationFailures:
    @pytest.mark.parametrize(
        "text, args, reason",
        [
            ("sqrt(t - 0.5)", (0.25,), "domain"),
            ("1 / (x - t)", (1.0, 1.0), "division"),
            ("exp(t)", (1e6,), "range"),
        ],
    )
    def test_named_in_the_error(self, text, args, reason):
        variables = ("x", "t")[-len(args):]
        fn = compile_expression(text, variables)
        with pytest.raises(EvaluationError, match=reason) as exc:
            fn(*args)
        message = str(exc.value)
        assert repr(text) in message
        for name, value in zip(variables, args):
            assert f"{name}={value}" in message

    def test_defined_values_unchanged(self):
        assert compile_expression("sqrt(t - 0.5)", ("t",))(0.75) == math.sqrt(0.25)


class TestDerivative:
    # every rule: sum, difference, product, quotient, unary signs, ** and
    # pow with constant exponents, each function of the vocabulary, gamma
    # of a constant, and constant denominators
    TEXTS = [
        "t*sin(t)",
        "tan(t)",
        "tan(t/2)",
        "exp(-t/2)*t",
        "t*cos(t) - sec(t)",
        "sqrt(1 + t*t)",
        "pow(t,2.5) + t**3",
        "-exp(t) + +sin(3*t)",
        "1/(2 + cos(t))",
        "sin(t)/(1 + t)",
        "gamma(3.5)/gamma(3)*pow(t,1.5)",
        "pow(sin(t), 3)",
        "pi*exp(e*t)",
        "2*t + pow(t,4)",
        "sqrt(t)*t",
    ]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("text", TEXTS)
    def test_matches_numerical_derivative(self, text, order):
        fn = compile_expression(text, ("t",), MPF)
        d = derivative(text, ("t",), "t", order)
        for t in (0.3, 0.9):
            with mpmath.workdps(40):
                want = mpmath.diff(fn, mpmath.mpf(t), order)
            assert_allclose(d(t), float(want), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize(
        "var, order, want",
        [
            ("x", 1, lambda x, t: 2 * x * math.sin(t)),
            ("x", 2, lambda x, t: 2 * math.sin(t)),
            ("x", 3, lambda x, t: 0.0),
            ("t", 1, lambda x, t: x * x * math.cos(t)),
            ("t", 2, lambda x, t: -x * x * math.sin(t)),
        ],
    )
    def test_partial_derivatives_of_a_rectangle_field(self, var, order, want):
        d = derivative("pow(x,2)*sin(t)", ("x", "t"), var, order)
        assert_allclose(d(0.3, 0.7), want(0.3, 0.7), rtol=1e-15)

    @pytest.mark.parametrize("text", ["pow(2,t)", "t**t", "pow(t, sin(t))", "gamma(t)", "gamma(2*t)"])
    def test_refuses_what_the_rules_do_not_cover(self, text):
        with pytest.raises(ParseError, match=re.escape(repr(text))):
            derivative(text, ("t",), "t")

    def test_constant_parts_need_no_rule(self):
        # an exponent or gamma argument free of the variable is a constant
        assert derivative("gamma(t)*x + pow(2,t)", ("x", "t"), "x")(0.5, 0.25) == math.gamma(0.25)

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="'x'"):
            derivative("sin(t)", ("t",), "x")

    def test_text_is_checked(self):
        with pytest.raises(ParseError):
            derivative("t.__class__", ("t",), "t")

    def test_evaluation_failure_names_the_text(self):
        d = derivative("sqrt(t)", ("t",), "t")
        with pytest.raises(EvaluationError, match=re.escape("'sqrt(t)'")):
            d(0.0)
