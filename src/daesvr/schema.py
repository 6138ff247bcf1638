"""Problem text format, loader, and the built-in benchmark systems.

Problems are described as JSON objects::

    {
      "unknowns": 2,
      "domain": {"lo": 0.0, "hi": 1.0},          # or "domain2" for rectangles
      "equations": [
        {"terms": [{"op": "deriv", "order": 1, "coeff": 1, "target": 0},
                   {"op": "identity", "coeff": "-t", "target": 1}],
         "nonlinear": "u1*u2",                   # optional
         "rhs": "sin(t)"},
        ...
      ],
      "side_conditions": [{"target": 0, "point": 0.0, "value": 0.0}],
      "exact": ["t*sin(t)", "tan(t)"]            # optional
    }

Operator kinds: "identity"; "deriv" (fields: order, var defaulting to "t");
"caputo" (field: alpha); "volterra" (field: kernel, an expression in t and
s).  Caputo and Volterra terms act on t on both domains.  Coefficients,
right-hand sides, kernels and exact solutions are numbers or expression
strings over the fixed vocabulary in `expressions.FUNCTIONS`; a closure
("nonlinear") is an expression in the domain variables, then u1..uk.
In rectangle problems a side condition pins a t-slice: "x" is a number or
"*" (every x collocation node) and "value" may be an expression in x.

Numbers must be JSON numbers, "unknowns", "target" and "order" integers,
and "equations", "terms", "side_conditions" and "exact" lists; a refusal
names the field ("domain.lo").  Each real number and expression is
built in one vocabulary, so one description gives the double-precision
problem (`FLOAT`) and the extended-precision one (`MPF`).

`load_problem` also accepts the names of the built-in benchmark systems,
"example1" through "example5".
"""

from __future__ import annotations

import copy
import json
from typing import Optional

from .errors import ParseError, ValidationError
from .expressions import FLOAT, Vocabulary, compile_expression
from .model import (
    Caputo,
    DaeProblem,
    Derivative,
    Equation,
    Field,
    Identity,
    OperatorTerm,
    SideCondition,
    VolterraIntegral,
)

__all__ = ["load_problem", "serialize_problem", "builtin_names"]


def _real(value, where: str, vocabulary: Vocabulary, expected: str = "a number"):
    """A JSON number in the vocabulary's number type; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected {expected}, got {value!r}")
    return vocabulary.result(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list, got {value!r}")
    return value


def _field(value, variables: tuple, where: str, vocabulary: Vocabulary) -> Field:
    if isinstance(value, str):
        return Field(compile_expression(value, variables, vocabulary), tag=value)
    return Field.constant(_real(value, where, vocabulary, "a number or expression string"),
                          vocabulary.result)


def _require(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise ValidationError(f"{where}: expected an object, got {d!r}")
    if key not in d:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return d[key]


def _build_term(d: dict, variables: tuple, where: str, vocabulary: Vocabulary) -> OperatorTerm:
    kind = _require(d, "op", where)
    target = _integer(_require(d, "target", where), f"{where}.target")
    coeff = _field(_require(d, "coeff", where), variables, f"{where}.coeff", vocabulary)
    if kind == "identity":
        op = Identity()
    elif kind == "deriv":
        order = _integer(_require(d, "order", where), f"{where}.order")
        op = Derivative(order=order, var=d.get("var", "t"))
    elif kind == "caputo":
        op = Caputo(alpha=_real(_require(d, "alpha", where), f"{where}.alpha", vocabulary))
    elif kind == "volterra":
        kernel = _field(_require(d, "kernel", where), ("t", "s"), f"{where}.kernel", vocabulary)
        op = VolterraIntegral(kernel=kernel)
    else:
        raise ValidationError(f"{where}: unknown operator kind {kind!r}")
    return OperatorTerm(coeff=coeff, op=op, target=target)


def _build(data: dict, name: Optional[str] = None, vocabulary: Vocabulary = FLOAT) -> DaeProblem:
    """The problem `data` describes, with every real number and expression
    in `vocabulary`'s number type (double precision by default)."""
    if not isinstance(data, dict):
        raise ValidationError(f"problem must be an object, got {type(data).__name__}")
    where = "problem"
    unknowns = _require(data, "unknowns", where)
    if isinstance(unknowns, bool) or not isinstance(unknowns, int) or unknowns < 1:
        raise ValidationError("unknowns must be a positive integer")

    def number(d: dict, key: str, where: str):
        return _real(_require(d, key, where), f"{where}.{key}", vocabulary)

    if "domain2" in data:
        d2 = data["domain2"]
        domain = (
            (number(d2, "x_lo", "domain2"), number(d2, "x_hi", "domain2")),
            (number(d2, "t_lo", "domain2"), number(d2, "t_hi", "domain2")),
        )
        is_2d = True
        variables = ("x", "t")
    elif "domain" in data:
        d1 = data["domain"]
        domain = (number(d1, "lo", "domain"), number(d1, "hi", "domain"))
        is_2d = False
        variables = ("t",)
    else:
        raise ValidationError("problem: need 'domain' or 'domain2'")

    nl_vars = variables + tuple(f"u{i + 1}" for i in range(unknowns))
    equations = []
    for i, eq in enumerate(_list(_require(data, "equations", where), "equations")):
        eq_where = f"equations[{i}]"
        terms = tuple(
            _build_term(t, variables, f"{eq_where}.terms[{j}]", vocabulary)
            for j, t in enumerate(_list(_require(eq, "terms", eq_where), f"{eq_where}.terms"))
        )
        rhs = _field(_require(eq, "rhs", eq_where), variables, f"{eq_where}.rhs", vocabulary)
        nonlinear = None
        if eq.get("nonlinear") is not None:
            nonlinear = _field(eq["nonlinear"], nl_vars, f"{eq_where}.nonlinear", vocabulary)
        equations.append(Equation(terms=terms, rhs=rhs, nonlinear=nonlinear))

    side = []
    for i, sc in enumerate(_list(data.get("side_conditions", []), "side_conditions")):
        sc_where = f"side_conditions[{i}]"
        target = _integer(_require(sc, "target", sc_where), f"{sc_where}.target")
        order = _integer(sc.get("order", 0), f"{sc_where}.order")
        raw = _require(sc, "value", sc_where)
        if is_2d:
            x = _require(sc, "x", sc_where)
            x = None if x == "*" else _real(x, f"{sc_where}.x", vocabulary, 'a number or "*"')
            point = (x, number(sc, "t", sc_where))
            if isinstance(raw, str):
                value = Field(compile_expression(raw, ("x",), vocabulary), tag=raw)
            else:
                value = _real(raw, f"{sc_where}.value", vocabulary, "a number or expression string")
        else:
            point = number(sc, "point", sc_where)
            value = _real(raw, f"{sc_where}.value", vocabulary)
        side.append(SideCondition(target=target, point=point, value=value, order=order))

    exact = None
    if data.get("exact") is not None:
        exact = tuple(
            _field(e, variables, f"exact[{i}]", vocabulary)
            for i, e in enumerate(_list(data["exact"], "exact"))
        )

    problem = DaeProblem(
        unknowns=unknowns,
        domain=domain,
        equations=tuple(equations),
        side_conditions=tuple(side),
        exact=exact,
        name=name,
        source=copy.deepcopy(data),
    )
    problem.validate()
    return problem


def load_problem(text_or_name: str) -> DaeProblem:
    """Build a problem from JSON text or a built-in benchmark name."""
    if not isinstance(text_or_name, str):
        raise ParseError("load_problem expects a string")
    key = text_or_name.strip()
    if key in BUILTIN_PROBLEMS:
        return _build(copy.deepcopy(BUILTIN_PROBLEMS[key]), name=key)
    try:
        data = json.loads(text_or_name)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"not a built-in problem name and not valid JSON "
            f"(line {err.lineno}, column {err.colno}: {err.msg})"
        ) from err
    return _build(data)


def serialize_problem(problem: DaeProblem) -> str:
    """Problem back to JSON text; requires a problem built from text/dict."""
    if problem.source is None:
        raise ValidationError(
            "cannot serialize a problem constructed without a source description"
        )
    return json.dumps(problem.source, indent=2)


def builtin_names() -> list:
    return sorted(BUILTIN_PROBLEMS)


# ---------------------------------------------------------------------------
# Built-in benchmark systems.  All five carry their exact solutions, used by
# the benchmark layer for error tables.

BUILTIN_PROBLEMS = {
    # Semi-explicit nonlinear ODE-DAE, index 1.
    "example1": {
        "unknowns": 3,
        "domain": {"lo": 0.0, "hi": 1.0},
        "equations": [
            {
                "terms": [
                    {"op": "deriv", "order": 1, "coeff": 1, "target": 0},
                    {"op": "identity", "coeff": -1, "target": 0},
                ],
                "nonlinear": "u3*u2",
                "rhs": "sin(t)+t*cos(t)",
            },
            {
                "terms": [
                    {"op": "deriv", "order": 1, "coeff": 1, "target": 1},
                    {"op": "identity", "coeff": "-t", "target": 2},
                ],
                "nonlinear": "-pow(u1,2)",
                "rhs": "pow(sec(t),2)-pow(t,2)*(cos(t)+pow(sin(t),2))",
            },
            {
                "terms": [
                    {"op": "identity", "coeff": 1, "target": 0},
                    {"op": "identity", "coeff": -1, "target": 2},
                ],
                "rhs": "t*(sin(t)-cos(t))",
            },
        ],
        "side_conditions": [
            {"target": 0, "point": 0.0, "value": 0.0},
            {"target": 1, "point": 0.0, "value": 0.0},
            {"target": 2, "point": 0.0, "value": 0.0},
        ],
        "exact": ["t*sin(t)", "tan(t)", "t*cos(t)"],
    },
    # Fractional integro-differential-algebraic pair; order-1/2 Caputo
    # derivative against Volterra couplings.
    "example2": {
        "unknowns": 2,
        "domain": {"lo": 0.0, "hi": 1.0},
        "equations": [
            {
                "terms": [
                    {"op": "caputo", "alpha": 0.5, "coeff": 1, "target": 0},
                    {"op": "volterra", "kernel": "1", "coeff": "-t", "target": 0},
                    {"op": "volterra", "kernel": "1", "coeff": "-(1+t)", "target": 1},
                ],
                "rhs": "3*t*sqrt(pi)/4 - 2*pow(t,3.5)/5 - 2*(1+t)*pow(t,2.5)/5",
            },
            {
                "terms": [
                    {"op": "volterra", "kernel": "1+s", "coeff": 1, "target": 0},
                    {"op": "volterra", "kernel": "1", "coeff": 1, "target": 1},
                ],
                "rhs": "2*pow(t,2.5)*(5*t+7)/35 + 2*pow(t,2.5)/5",
            },
        ],
        "side_conditions": [
            {"target": 0, "point": 0.0, "value": 0.0},
            {"target": 1, "point": 0.0, "value": 0.0},
        ],
        "exact": ["t*sqrt(t)", "t*sqrt(t)"],
    },
    # Linear fractional DAE with an algebraic constraint.
    "example3": {
        "unknowns": 3,
        "domain": {"lo": 0.0, "hi": 1.0},
        "equations": [
            {
                "terms": [
                    {"op": "caputo", "alpha": 0.5, "coeff": 1, "target": 0},
                    {"op": "identity", "coeff": 2, "target": 0},
                    {"op": "identity", "coeff": "-gamma(3.5)/gamma(3)", "target": 1},
                    {"op": "identity", "coeff": 1, "target": 2},
                ],
                "rhs": "2*pow(t,2.5)+sin(t)",
            },
            {
                "terms": [
                    {"op": "caputo", "alpha": 0.5, "coeff": 1, "target": 1},
                    {"op": "identity", "coeff": 1, "target": 1},
                    {"op": "identity", "coeff": 1, "target": 2},
                ],
                "rhs": "gamma(3)/gamma(2.5)*pow(t,1.5)+pow(t,2)+sin(t)",
            },
            {
                "terms": [
                    {"op": "identity", "coeff": 2, "target": 0},
                    {"op": "identity", "coeff": 1, "target": 1},
                    {"op": "identity", "coeff": -1, "target": 2},
                ],
                "rhs": "2*pow(t,2.5)+pow(t,2)-sin(t)",
            },
        ],
        "side_conditions": [
            {"target": 0, "point": 0.0, "value": 0.0},
            {"target": 1, "point": 0.0, "value": 0.0},
            {"target": 2, "point": 0.0, "value": 0.0},
        ],
        "exact": ["pow(t,2.5)", "pow(t,2)", "sin(t)"],
    },
    # Nonlinear fractional DAE; bilinear couplings u1*u2, u1*u3 and a
    # quadratic algebraic constraint.
    "example4": {
        "unknowns": 3,
        "domain": {"lo": 0.0, "hi": 1.0},
        "equations": [
            {
                "terms": [
                    {"op": "caputo", "alpha": 0.5, "coeff": 1, "target": 0},
                    {"op": "identity", "coeff": -1, "target": 2},
                ],
                "nonlinear": "u1*u2",
                "rhs": "gamma(4)/gamma(3.5)*pow(t,2.5)+2*pow(t,4)+pow(t,7)-exp(t)-t*sin(t)",
            },
            {
                "terms": [
                    {"op": "caputo", "alpha": 0.5, "coeff": 1, "target": 1},
                    {"op": "identity", "coeff": "-gamma(5)/gamma(4.5)*sqrt(t)", "target": 0},
                    {"op": "identity", "coeff": 2, "target": 1},
                ],
                "nonlinear": "u1*u3",
                "rhs": "2/gamma(1.5)*sqrt(t)+4*t+2*pow(t,4)+pow(t,3)*exp(t)+pow(t,4)*sin(t)",
            },
            {
                "terms": [
                    {"op": "identity", "coeff": "-pow(t,2)", "target": 1},
                    {"op": "identity", "coeff": 1, "target": 2},
                ],
                "nonlinear": "pow(u1,2)",
                "rhs": "exp(t)-2*pow(t,3)+t*sin(t)",
            },
        ],
        "side_conditions": [
            {"target": 0, "point": 0.0, "value": 0.0},
            {"target": 1, "point": 0.0, "value": 0.0},
            {"target": 2, "point": 0.0, "value": 1.0},
        ],
        "exact": ["pow(t,3)", "2*t+pow(t,4)", "exp(t)+t*sin(t)"],
    },
    # Linear partial DAE on a rectangle; first-order in t, second-order
    # diffusion in x on the third unknown only.
    "example5": {
        "unknowns": 3,
        "domain2": {"x_lo": -0.5, "x_hi": 0.5, "t_lo": 0.0, "t_hi": 1.0},
        "equations": [
            {
                "terms": [
                    {"op": "deriv", "order": 1, "var": "t", "coeff": 1, "target": 1},
                    {"op": "deriv", "order": 1, "var": "t", "coeff": 1, "target": 2},
                ],
                "rhs": "-pow(x,2)*exp(-t/2)/2 + pow(x,2)*cos(t)",
            },
            {
                "terms": [
                    {"op": "deriv", "order": 1, "var": "t", "coeff": 2, "target": 0},
                    {"op": "deriv", "order": 1, "var": "t", "coeff": -1, "target": 1},
                    {"op": "deriv", "order": 1, "var": "t", "coeff": -1, "target": 2},
                    {"op": "identity", "coeff": -1, "target": 1},
                ],
                "rhs": "-2*pow(x,2)*exp(-t) - pow(x,2)*exp(-t/2)/2 - pow(x,2)*cos(t)",
            },
            {
                "terms": [
                    {"op": "deriv", "order": 2, "var": "x", "coeff": -1, "target": 2},
                    {"op": "identity", "coeff": 1, "target": 2},
                ],
                "rhs": "-2*sin(t)+pow(x,2)*sin(t)",
            },
        ],
        "side_conditions": [
            {"target": 0, "x": "*", "t": 0.0, "order": 0, "value": "pow(x,2)"},
            {"target": 0, "x": "*", "t": 0.0, "order": 1, "value": "-pow(x,2)"},
            {"target": 1, "x": "*", "t": 0.0, "order": 0, "value": "pow(x,2)"},
            {"target": 1, "x": "*", "t": 0.0, "order": 1, "value": "-pow(x,2)/2"},
            {"target": 2, "x": "*", "t": 0.0, "order": 0, "value": 0.0},
            {"target": 2, "x": "*", "t": 0.0, "order": 1, "value": "pow(x,2)"},
        ],
        "exact": ["pow(x,2)*exp(-t)", "pow(x,2)*exp(-t/2)", "pow(x,2)*sin(t)"],
    },
}
