import math

import pytest
from numpy.testing import assert_allclose

from daesvr.errors import EvaluationError, ParseError
from daesvr.expressions import FUNCTIONS, compile_expression


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
