"""Small safe expression compiler for problem definitions.

Problem files describe coefficients, right-hand sides, integral kernels and
exact solutions as plain text over a fixed function vocabulary.  The text is
parsed with `ast`, checked against a whitelist, and compiled to an ordinary
Python function of the declared variables.  Nothing outside the whitelist
(attribute access, subscripts, names other than the declared variables) is
accepted.  The vocabulary (functions, constants and the number type of
the result) is a parameter: `FLOAT` computes in double precision, `MPF` in
mpmath's extended precision at the working precision of the call.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable

import mpmath

from .errors import EvaluationError, ParseError

__all__ = ["compile_expression", "FUNCTIONS", "Vocabulary", "FLOAT", "MPF"]


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


@dataclass(frozen=True)
class Vocabulary:
    """What an expression may call and name, and the type its value is returned as."""

    functions: dict
    constants: dict
    result: Callable


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


def compile_expression(text: str, variables: tuple, vocabulary: Vocabulary = FLOAT):
    """Compile `text` to a function of the named `variables`.

    The function evaluates with `vocabulary`'s functions and constants and
    returns `vocabulary.result` of the value (a float by default).

    Raises ParseError for syntax errors, unknown names, or any construct
    outside the arithmetic/function whitelist.  The returned function
    raises EvaluationError, naming the text and its arguments, where the
    value is undefined (a math domain error, a division by zero, an
    overflow).
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError(f"expected an expression string, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ParseError(f"syntax error in {text!r} at column {err.offset}") from err
    _check(tree, variables, text, vocabulary)
    code = compile(tree, "<expression>", "eval")
    namespace = {"__builtins__": {}} | vocabulary.functions | vocabulary.constants
    result = vocabulary.result

    def fn(*args):
        local = dict(zip(variables, args))
        try:
            return result(eval(code, namespace, local))
        except (ValueError, ArithmeticError) as err:
            at = ", ".join(f"{v}={a}" for v, a in local.items())
            raise EvaluationError(f"cannot evaluate {text!r} at {at}: {err}") from err

    fn.__name__ = f"expr[{text}]"
    return fn
