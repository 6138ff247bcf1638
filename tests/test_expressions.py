import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from daesvr.errors import EvaluationError, ParseError
from daesvr.expressions import FLOAT, FUNCTIONS, MPF, Vocabulary, compile_expression, derivative


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


class TestCompileCache:
    """A compiled expression is kept per (text, variables, vocabulary)."""

    @pytest.mark.parametrize("vocabulary", [FLOAT, MPF], ids=["float", "mpf"])
    def test_same_arguments_give_the_same_function(self, vocabulary):
        fn = compile_expression("sin(t) + x", ("x", "t"), vocabulary)
        assert compile_expression("sin(t) + x", ("x", "t"), vocabulary) is fn
        assert compile_expression("sin(t) + x", ("t", "x"), vocabulary) is not fn
        assert compile_expression("sin(t) + x ", ("x", "t"), vocabulary) is not fn
        assert compile_expression("sin(t) + x", ["x", "t"], vocabulary) is fn

    def test_each_vocabulary_gets_its_own_compile(self):
        calls = []

        def exp(v):
            calls.append(v)
            return mpmath.exp(v)

        counting = Vocabulary(MPF.functions | {"exp": exp}, MPF.constants, MPF.result, MPF.dtype)
        plain = compile_expression("exp(t)", ("t",), MPF)
        fn = compile_expression("exp(t)", ("t",), counting)
        assert fn is not plain and compile_expression("exp(t)", ("t",), counting) is fn
        fn(mpmath.mpf(1))
        fn(np.array([mpmath.mpf(1), mpmath.mpf(2)], dtype=object))
        plain(mpmath.mpf(1))
        assert len(calls) == 3
        # equal fields make a distinct vocabulary: it is keyed by identity
        twin = Vocabulary(counting.functions, counting.constants, counting.result, counting.dtype)
        assert twin != counting
        assert compile_expression("exp(t)", ("t",), twin) is not fn

    @pytest.mark.parametrize("text", ["t +", "unknown_fn(t)", "", 3.0, None, ["t"]])
    def test_refused_on_every_call(self, text):
        for _ in range(3):
            with pytest.raises(ParseError):
                compile_expression(text, ("t",))


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

    @pytest.mark.parametrize("text", ["t % 2", "~t"])
    def test_operator_refused_by_name(self, text):
        # a binary and a unary operator outside the grammar
        with pytest.raises(ParseError, match="operator not allowed"):
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

    @pytest.mark.parametrize("vocabulary", [FLOAT, MPF], ids=["float", "mpf"])
    @pytest.mark.parametrize("arg", [-1.0, np.float64(-1.0), mpmath.mpf(-1)], ids=type)
    def test_complex_value_is_named(self, vocabulary, arg):
        # a negative base to a fractional power is complex, not a raw TypeError
        # (nor, on a numpy float, a NaN with a RuntimeWarning)
        with pytest.raises(EvaluationError, match=r"'t\*\*0\.5' at t=-1\.0: the value is not real"):
            compile_expression("t**0.5", ("t",), vocabulary)(arg)

    @pytest.mark.parametrize(
        "text, arg, reason",
        [("t*1e308*10", np.float64(1.0), "the value is inf"), ("1/t", np.float64(0.0), "division")],
    )
    def test_numpy_arguments_fail_like_floats(self, text, arg, reason):
        with pytest.raises(EvaluationError, match=reason):
            compile_expression(text, ("t",))(arg)

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

    def test_exponent_that_is_not_a_literal(self):
        # 2*pi is a constant expression, so the power rule lowers it by 1
        t = np.array([0.3, 0.7, 1.2])
        want = 2 * math.pi * t ** (2 * math.pi - 1)
        assert_allclose(derivative("pow(t,2*pi)", ("t",), "t")(t), want, rtol=1e-14)

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


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestArrays:
    """An array call broadcasts and has, element by element, the bits of the
    scalar call at that point, in both vocabularies."""

    # sampled where numpy's ufuncs and numpy's ** differ from the scalar
    # functions in the last bit (np.exp in about 5% of these samples,
    # np.tan 0.5%, np.power(t, 2.5) 5%, t**2 0.1%, scipy's gamma 70%), so
    # that an array path through them fails here
    FLOAT_CASES = [
        ("exp(t)", (-700.0, 700.0)),
        ("tan(t)", (-1e3, 1e3)),
        ("sin(t)", (-1e3, 1e3)),
        ("cos(t)", (-1e3, 1e3)),
        ("sec(t)", (-1e3, 1e3)),
        ("sqrt(t)", (0.0, 1e6)),
        ("gamma(t)", (0.01, 170.0)),
        ("pow(t, 2.5)", (0.0, 1e3)),
        ("pow(t, 2)", (-1e3, 1e3)),
        ("t**2", (-1e3, 1e3)),
        ("t**2.5", (0.0, 1e3)),
        ("t**3 + t**-2", (-1e3, 1e3)),
        ("pow(t, -1.5) + t**-3", (0.5, 1e3)),
        ("pi*exp(e*t) - 2*t/3", (-20.0, 20.0)),
    ]

    @pytest.mark.parametrize("text, bounds", FLOAT_CASES)
    def test_float_equals_scalar_calls(self, text, bounds):
        fn = compile_expression(text, ("t",))
        t = np.random.default_rng(15).uniform(*bounds, 50_000)
        got = fn(t)
        assert got.dtype == np.float64 and got.shape == t.shape
        assert got.tobytes() == _bits([fn(v) for v in t])

    def test_every_function_is_covered(self):
        covered = {name for text, _ in self.FLOAT_CASES for name in FUNCTIONS if f"{name}(" in text}
        assert covered == set(FUNCTIONS)

    @pytest.mark.parametrize("text", ["pow(x,2)*exp(-t/2) - x**t", "x*sin(t) + gamma(x+t)", "1", "x"])
    def test_two_dimensional_arguments_broadcast(self, text):
        rng = np.random.default_rng(15)
        x = rng.uniform(0.1, 3.0, (40, 1))
        t = rng.uniform(-3.0, 3.0, (1, 30))
        fn = compile_expression(text, ("x", "t"))
        got = fn(x, t)
        assert got.shape == (40, 30)
        want = [[fn(xi, tj) for tj in t[0]] for xi in x[:, 0]]
        assert got.tobytes() == _bits(want)
        pts = np.column_stack([x[:30, 0], t[0]])  # one point per row, as a grid passes them
        assert fn(pts[:, 0], pts[:, 1]).tobytes() == _bits([fn(*p) for p in pts])

    @pytest.mark.parametrize("text", ["1", "-gamma(3.5)/gamma(3)", "2**3 - pi"])
    def test_constant_texts_broadcast(self, text):
        fn = compile_expression(text, ("t",))
        got = fn(np.linspace(0.0, 1.0, 7))
        assert got.dtype == np.float64 and got.shape == (7,)
        assert got.tobytes() == _bits([fn(0.5)] * 7)
        got.fill(0.0)  # a writeable array of its own
        assert fn(0.5) != 0.0

    def test_scalar_arguments_give_scalars(self):
        fn = compile_expression("exp(t)", ("t",))
        assert type(fn(0.5)) is float and type(fn(np.float64(0.5))) is float
        assert type(fn(np.array(0.5))) is float

    def test_arguments_are_not_modified_or_returned(self):
        t = np.linspace(0.0, 1.0, 5)
        got = compile_expression("t", ("t",))(t)
        got += 1.0
        assert t[0] == 0.0

    MPF_CASES = [
        "exp(t)", "tan(t)", "sin(t) + cos(t)", "sec(t)", "sqrt(t)", "gamma(t)",
        "pow(t, 2.5)", "t**2", "t**2.5 - pi/e", "-gamma(3.5)/gamma(3)",
    ]

    @pytest.mark.parametrize("text", MPF_CASES)
    def test_mpf_equals_scalar_calls(self, text):
        fn = compile_expression(text, ("t",), MPF)
        with mpmath.workdps(40):
            t = np.array([mpmath.mpf(v) / 3 for v in np.random.default_rng(15).uniform(0.1, 9.0, 60)])
            got = fn(t)
            want = [fn(v) for v in t]
        assert got.dtype == object and got.shape == t.shape
        assert all(type(g) is mpmath.mpf for g in got)
        assert [g._mpf_ for g in got] == [w._mpf_ for w in want]

    def test_mpf_two_dimensional(self):
        fn = compile_expression("pow(x,2)*exp(-t/2) + x**t", ("x", "t"), MPF)
        with mpmath.workdps(40):
            x = np.array([[mpmath.mpf(i) / 7] for i in range(1, 6)])
            t = np.array([[mpmath.mpf(j) / 11 for j in range(4)]])
            got = fn(x, t)
            want = [[fn(x[i, 0], t[0, j]) for j in range(4)] for i in range(5)]
        assert got.shape == (5, 4)
        assert [g._mpf_ for g in got.ravel()] == [w._mpf_ for row in want for w in row]


class TestArrayFailures:
    """A failing point of an array call raises the scalar call's error at the
    first such point, with no numpy warning."""

    @staticmethod
    def scalar_error(fn, *point) -> str:
        with pytest.raises(EvaluationError) as exc:
            fn(*point)
        return str(exc.value)

    @pytest.mark.parametrize(
        "text, args, first, reason",
        [
            ("sqrt(t - 0.5)", ([0.75, 0.25, 0.1],), (0.25,), "math domain error"),
            ("(t-0.5)**0.5", ([1.0, 0.25, 0.1],), (0.25,), "the value is not real"),
            ("1 / (x - t)", ([2.0, 1.0, 3.0], [1.0, 1.0, 3.0]), (1.0, 1.0), "division by zero"),
            ("t*1e308*10", ([0.0, 1.0, 2.0],), (1.0,), "the value is inf"),
            ("exp(t)", ([1.0, 1e6],), (1e6,), "math range error"),
            ("(-1)**0.5 + t", ([1.0, 2.0],), (1.0,), "the value is not real"),
        ],
        ids=["domain", "complex", "division", "inf", "overflow", "complex-constant"],
    )
    def test_same_message_as_the_scalar_path(self, text, args, first, reason):
        variables = ("x", "t")[-len(args):]
        fn = compile_expression(text, variables)
        want = self.scalar_error(fn, *first)
        assert reason in want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as exc:
                fn(*map(np.array, args))
        assert str(exc.value) == want

    def test_mpf_complex_value(self):
        fn = compile_expression("t**0.5", ("t",), MPF)
        want = self.scalar_error(fn, mpmath.mpf(-1))
        with pytest.raises(EvaluationError) as exc:
            fn(np.array([mpmath.mpf(1), mpmath.mpf(-1)]))
        assert str(exc.value) == want

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_mpf_non_finite_value(self, value):
        fn = compile_expression("2*t", ("t",), MPF)
        want = self.scalar_error(fn, mpmath.mpf(value))
        assert repr("2*t") in want
        with pytest.raises(EvaluationError) as exc:
            fn(np.array([mpmath.mpf(1), mpmath.mpf(value), mpmath.mpf(2)], dtype=object))
        assert str(exc.value) == want

    def test_mpf_finiteness_check_adds_nothing(self, monkeypatch):
        # an object array is checked element by element, not through its sum
        fn = compile_expression("2*t", ("t",), MPF)
        t = np.array([mpmath.mpf(k) for k in range(8)], dtype=object)
        added = []

        def add(a, b):
            added.append(b)
            return mpmath.fadd(a, b)

        monkeypatch.setattr(mpmath.mpf, "__add__", add)
        assert [float(v) for v in fn(t)] == [2.0 * k for k in range(8)]
        assert added == []

    def test_values_the_scalar_path_accepts_are_kept(self):
        # numpy flags the overflow of t*1e308*10, but 1/inf is a finite
        # value on the scalar path, so the array call returns it too
        fn = compile_expression("1/(t*1e308*10) + t", ("t",))
        t = np.array([0.5, 1.0, 2.0])
        assert fn(t).tobytes() == _bits([fn(v) for v in t])
