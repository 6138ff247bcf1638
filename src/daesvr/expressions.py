"""Small safe expression compiler for problem definitions.

Problem files describe coefficients, right-hand sides, integral kernels and
exact solutions as plain text over a fixed function vocabulary.  The text is
parsed with `ast`, checked against a whitelist, and compiled to an ordinary
Python function of the declared variables.  Nothing outside the whitelist
(attribute access, subscripts, names other than the declared variables) is
accepted.  The vocabulary (functions, constants and the number type of
the result) is a parameter: `FLOAT` computes in double precision, `MPF` in
mpmath's extended precision at the working precision of the call.
`derivative` differentiates the checked tree and compiles the result the
same way, in double precision.

One code object takes scalars or arrays (float64, or object arrays of `mpf`),
which broadcast, so a field is evaluated once per grid with the bits of the
per-point calls: `+ - * /` round as Python's do, and every function and `**`
run element by element through the vocabulary's scalar functions.  numpy's
ufuncs would change bits: over 500k samples `np.exp` differs from `math.exp`
in 22,638, `np.tan` in 2,169, `np.power(x, 2.5)` in 26,558 and `x**2` from
`math.pow(x, 2)` in 423, and scipy's `gamma` from `math.gamma` in
73,997 of 100k.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import mpmath
import numpy as np

from .errors import EvaluationError, ParseError

__all__ = ["compile_expression", "derivative", "FUNCTIONS", "Vocabulary", "FLOAT", "MPF"]


def _sec(x: float) -> float:
    return 1.0 / math.cos(x)


FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sec": _sec,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "pow": math.pow,
    "gamma": math.gamma,
}


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """What an expression may call and name; its value is `result`, or an array of `dtype`.
    Equal and hashed by identity, so a compiled expression is cached per vocabulary."""

    functions: dict
    constants: dict
    result: Callable
    dtype: type = float


FLOAT = Vocabulary(FUNCTIONS, {"pi": math.pi, "e": math.e}, float)

MPF = Vocabulary(
    functions={
        "sin": mpmath.sin,
        "cos": mpmath.cos,
        "tan": mpmath.tan,
        "sec": mpmath.sec,
        "exp": mpmath.exp,
        "sqrt": mpmath.sqrt,
        "pow": mpmath.power,
        "gamma": mpmath.gamma,
    },
    constants={"pi": mpmath.pi, "e": mpmath.e},
    result=mpmath.mpf,
    dtype=object,
)

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _check(node: ast.AST, variables: tuple, text: str, vocabulary: Vocabulary) -> None:
    if isinstance(node, ast.Expression):
        _check(node.body, variables, text, vocabulary)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ParseError(f"operator not allowed in {text!r}")
        _check(node.left, variables, text, vocabulary)
        _check(node.right, variables, text, vocabulary)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ParseError(f"operator not allowed in {text!r}")
        _check(node.operand, variables, text, vocabulary)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in vocabulary.functions:
            raise ParseError(f"unknown function in {text!r}")
        if node.keywords:
            raise ParseError(f"keyword arguments not allowed in {text!r}")
        arity = 2 if node.func.id == "pow" else 1
        if len(node.args) != arity:
            raise ParseError(f"{node.func.id} takes {arity} argument(s) in {text!r}")
        for arg in node.args:
            _check(arg, variables, text, vocabulary)
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in vocabulary.constants:
            raise ParseError(
                f"unknown name {node.id!r} in {text!r} (variables: {', '.join(variables)})"
            )
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ParseError(f"non-numeric literal in {text!r}")
    else:
        raise ParseError(f"unsupported syntax ({type(node).__name__}) in {text!r}")


def _parse(text: str, variables: tuple, vocabulary: Vocabulary) -> ast.Expression:
    """The checked syntax tree of `text`."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError(f"expected an expression string, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ParseError(f"syntax error in {text!r} at column {err.offset}") from err
    _check(tree, variables, text, vocabulary)
    return tree


_POW = "_pow"  # `**`: Python's on scalars, the vocabulary's pow (same values) on arrays


class _PowerCalls(ast.NodeTransformer):
    """a ** b -> _pow(a, b); the array pow never puts a complex into a float64 array."""

    def visit_BinOp(self, node):
        node = self.generic_visit(node)
        return _call(_POW, node.left, node.right) if isinstance(node.op, ast.Pow) else node


def _function(tree: ast.Expression, variables: tuple, vocabulary: Vocabulary, label: str):
    """`tree` as a function of `variables`; evaluation failures name `label`."""
    code = compile(ast.fix_missing_locations(_PowerCalls().visit(tree)), "<expression>", "eval")
    functions, pow_ = vocabulary.functions, vocabulary.functions["pow"]
    namespace = {"__builtins__": {}, _POW: pow} | functions | vocabulary.constants
    arrays = namespace | {  # every function element by element, object arrays out
        name: np.frompyfunc(f, 2 if f is pow_ else 1, 1)
        for name, f in (functions | {_POW: pow_}).items()
    }
    result, dtype = vocabulary.result, vocabulary.dtype
    if dtype is object:  # mpf() of every element, as the scalar path takes it
        arg = cast = np.frompyfunc(result, 1, 1)

        def finite(out):  # mpmath marks an infinity or a NaN with a negative bit count
            return all(v._mpf_[3] >= 0 for v in out.flat)
    else:  # assigning to float64 takes float() of every element
        arg, cast = partial(np.asarray, dtype=dtype), np.asarray

        def finite(out):  # an inf or a nan makes the sum one too
            return math.isfinite(out.sum())

    def scalar(*args):
        local = dict(zip(variables, map(result, args)))
        try:
            value = result(eval(code, namespace, local))
        except (ValueError, ArithmeticError) as err:
            raise EvaluationError(f"cannot evaluate {label} at {_at(local)}: {err}") from err
        except TypeError as err:  # a complex value, which `result` and real functions refuse
            raise EvaluationError(
                f"cannot evaluate {label} at {_at(local)}: the value is not real"
            ) from err
        if value - value:  # nonzero only for inf and nan
            raise EvaluationError(f"cannot evaluate {label} at {_at(local)}: the value is {value}")
        return value

    def fn(*args):
        if not any(isinstance(a, np.ndarray) and a.ndim for a in args):
            return scalar(*args)
        args = [arg(a) for a in args]
        out = np.empty(np.broadcast(*args).shape, dtype)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                value = eval(code, arrays, dict(zip(variables, args)))
                out[...] = cast(value)
                if finite(out):
                    return out
        except (ValueError, ArithmeticError, TypeError):
            pass
        # a failure or a refused value: point by point, the scalar path raises its error
        points = zip(*(np.broadcast_to(a, out.shape).ravel().tolist() for a in args))
        return np.array([scalar(*p) for p in points], dtype=dtype).reshape(out.shape)

    return fn


def _at(local: dict) -> str:
    return ", ".join(f"{v}={a}" for v, a in local.items())


def compile_expression(text: str, variables: tuple, vocabulary: Vocabulary = FLOAT):
    """Compile `text` to a function of the named `variables`.

    The function converts its arguments to `vocabulary.result` (a float by
    default, so numpy scalars compute as Python floats), evaluates with
    `vocabulary`'s functions and constants and returns `vocabulary.result`
    of the value.  Array arguments broadcast, and the result is then an
    array of `vocabulary.dtype` of their shape (for a constant text too)
    holding the scalar calls' bits; no numpy ufunc is used (see above).

    Raises ParseError for syntax errors, unknown names, or any construct
    outside the arithmetic/function whitelist.  The returned function
    raises EvaluationError, naming the text and its arguments, where the
    value is undefined (a math domain error, a division by zero, an
    overflow) or is not a finite real number (a fractional power of a
    negative base, an infinity); on arrays, the scalar call's error at the
    first such point, with no numpy warning.  The function depends only on
    the arguments, so the most recent ones are kept and returned again
    without compiling; a text that fails is refused again on every call.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}")
    return _compiled(text, tuple(variables), vocabulary)


@lru_cache(maxsize=256)
def _compiled(text: str, variables: tuple, vocabulary: Vocabulary):
    return _function(_parse(text, variables, vocabulary), variables, vocabulary, repr(text))


# ---------------------------------------------------------------------------
# Symbolic differentiation of the checked tree.

def _depends(node: ast.AST, var: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == var for n in ast.walk(node))


def _call(name: str, *args) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _mul(a, b) -> ast.BinOp:
    return ast.BinOp(a, ast.Mult(), b)


# d f(a) / da for the one-argument functions, as a tree in a
_OUTER = {
    "sin": lambda a: _call("cos", a),
    "cos": lambda a: ast.UnaryOp(ast.USub(), _call("sin", a)),
    "tan": lambda a: _call("pow", _call("sec", a), ast.Constant(2)),
    "sec": lambda a: _mul(_call("sec", a), _call("tan", a)),
    "exp": lambda a: _call("exp", a),
    "sqrt": lambda a: ast.BinOp(ast.Constant(0.5), ast.Div(), _call("sqrt", a)),
}


def _diff(node: ast.AST, var: str, text: str) -> ast.AST:
    """The tree of d(node)/d(var).  A subtree free of `var` differentiates
    to 0 and is kept out of the product and quotient rules."""
    if not _depends(node, var):
        return ast.Constant(0)
    if isinstance(node, ast.Name):
        return ast.Constant(1)
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, _diff(node.operand, var, text))
    if isinstance(node, ast.Call) and node.func.id in _OUTER:
        return _mul(_OUTER[node.func.id](node.args[0]), _diff(node.args[0], var, text))
    if isinstance(node, ast.Call) and node.func.id == "pow":
        base, exponent = node.args
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base, exponent = node.left, node.right
    elif isinstance(node, ast.BinOp):
        a, b = node.left, node.right
        da, db = _diff(a, var, text), _diff(b, var, text)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return ast.BinOp(da, node.op, db)
        if not _depends(b, var):
            return ast.BinOp(da, node.op, b)
        if isinstance(node.op, ast.Mult) and not _depends(a, var):
            return _mul(a, db)
        if isinstance(node.op, ast.Mult):
            return ast.BinOp(_mul(da, b), ast.Add(), _mul(a, db))
        numerator = ast.BinOp(_mul(da, b), ast.Sub(), _mul(a, db))
        return ast.BinOp(numerator, ast.Div(), _mul(b, b))
    else:
        raise ParseError(f"cannot differentiate {ast.unparse(node)} in {text!r} by {var}")
    if _depends(exponent, var):
        raise ParseError(f"cannot differentiate {ast.unparse(node)} in {text!r} by {var}: "
                         "the exponent depends on it")
    if isinstance(exponent, ast.Constant):
        if exponent.value == 0:
            return ast.Constant(0)
        lowered = ast.Constant(exponent.value - 1)
    else:
        lowered = ast.BinOp(exponent, ast.Sub(), ast.Constant(1))
    return _mul(_mul(exponent, _call("pow", base, lowered)), _diff(base, var, text))


@lru_cache(maxsize=256)
def derivative(text: str, variables: tuple, var: str, order: int = 1):
    """Compile the `order`-th partial derivative of `text` by `var`, taken on
    the checked syntax tree and compiled like `compile_expression` (a float
    result; EvaluationError naming the text where it is undefined).  An
    exponent or a `gamma` argument that depends on `var` raises ParseError.
    The result depends on the strings alone, so the most recent derivatives
    are kept and returned again without compiling.
    """
    body = _parse(text, variables, FLOAT).body
    if var not in variables:
        raise ParseError(f"cannot differentiate {text!r} by {var!r}: not one of {variables}")
    for _ in range(order):
        body = _diff(body, var, text)
    label = f"d^{order}/d{var}^{order} of {text!r}"
    return _function(ast.Expression(body), variables, FLOAT, label)
