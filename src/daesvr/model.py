"""Declarative model of differential-algebraic systems.

A problem is a square system of k equations in k unknown functions over an
interval (functions of t) or a rectangle (functions of x and t).  Each
equation is a list of linear operator terms, an optional scalar nonlinear
closure, and a right-hand side:

    sum_j coeff_j(p) * (Op_j u_{target_j})(p) + g(p, u_1(p), ..., u_k(p)) = rhs(p)

Supported linear operators: the identity, integer-order derivatives, Caputo
fractional derivatives (interval problems only), and Volterra integrals from
the left endpoint.  Side conditions pin values or derivatives at points.

`residual_at` evaluates one equation's residual against any candidate object
that can report values and operator-applied values of the unknowns; both
trained models and `ExactCandidate`, which reads the exact solutions from
their source text, implement that interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, EvaluationError, MissingExact, ValidationError
from .expressions import derivative
from .fractional import caputo_rule
from .legendre import gauss_quadrature

__all__ = [
    "Identity",
    "Derivative",
    "Caputo",
    "VolterraIntegral",
    "OperatorTerm",
    "Equation",
    "SideCondition",
    "DaeProblem",
    "ExactCandidate",
    "Field",
    "is_linear",
    "residual_at",
]

MAX_DERIVATIVE_ORDER = 4


class Field:
    """A scalar coefficient field: a callable plus its source text."""

    def __init__(self, fn: Callable, tag: Optional[str] = None):
        self.fn = fn
        self.tag = tag

    def __call__(self, *args) -> float:
        return self.fn(*args)

    @classmethod
    def constant(cls, value: float) -> "Field":
        v = float(value)
        return cls(lambda *args: v, tag=repr(v))

    def __repr__(self):
        return f"Field({self.tag or self.fn!r})"


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Derivative:
    order: int
    var: str = "t"

    def __post_init__(self):
        if not 1 <= self.order <= MAX_DERIVATIVE_ORDER:
            raise ValidationError(f"derivative order must be 1..{MAX_DERIVATIVE_ORDER}")
        if self.var not in ("x", "t"):
            raise ValidationError(f"derivative variable must be 'x' or 't', got {self.var!r}")


@dataclass(frozen=True)
class Caputo:
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"Caputo order must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class VolterraIntegral:
    """Integral from the left endpoint: (V u)(t) = int_a^t kernel(t, s) u(s) ds."""

    kernel: Field


LinearOp = Union[Identity, Derivative, Caputo, VolterraIntegral]


@dataclass(frozen=True)
class OperatorTerm:
    coeff: Field
    op: LinearOp
    target: int


@dataclass(frozen=True)
class Equation:
    terms: tuple
    rhs: Field
    nonlinear: Optional[Field] = None


@dataclass(frozen=True)
class SideCondition:
    """Pins the `order`-th t-derivative of one unknown at a point.

    1D: `point` is a float, `value` a float.  2D: `point` is (x, t) where x
    may be None, meaning "every x collocation node on the slice t=const";
    `value` is then a Field of x (or a constant).
    """

    target: int
    point: Union[float, tuple]
    value: Union[float, Field]
    order: int = 0


@dataclass
class DaeProblem:
    unknowns: int
    domain: tuple
    equations: tuple
    side_conditions: tuple = ()
    exact: Optional[tuple] = None
    name: Optional[str] = None
    source: Optional[dict] = field(default=None, repr=False)

    @property
    def is_2d(self) -> bool:
        return isinstance(self.domain[0], tuple)

    @property
    def interval(self) -> tuple:
        """The t-interval: the whole domain in 1D, the second axis in 2D."""
        return self.domain[1] if self.is_2d else self.domain

    def validate(self) -> None:
        if self.unknowns < 1:
            raise ValidationError("need at least one unknown")
        if len(self.equations) != self.unknowns:
            raise ValidationError(
                f"square system required: {self.unknowns} unknowns, "
                f"{len(self.equations)} equations"
            )
        if self.is_2d:
            (xlo, xhi), (tlo, thi) = self.domain
            if not (xhi > xlo and thi > tlo):
                raise ValidationError("domain rectangle is empty")
        else:
            lo, hi = self.domain
            if not hi > lo:
                raise ValidationError("domain interval is empty")
        for eq in self.equations:
            for term in eq.terms:
                if not 0 <= term.target < self.unknowns:
                    raise ValidationError(f"term target {term.target} out of range")
                if self.is_2d and isinstance(term.op, (Caputo, VolterraIntegral)):
                    raise ValidationError(
                        "Caputo and Volterra operators are interval-only"
                    )
            if self.is_2d and eq.nonlinear is not None:
                raise ValidationError("nonlinear closures are interval-only")
        for sc in self.side_conditions:
            if not 0 <= sc.target < self.unknowns:
                raise ValidationError(f"side condition target {sc.target} out of range")
            if sc.order < 0 or sc.order > MAX_DERIVATIVE_ORDER:
                raise ValidationError("side condition order out of range")
        if self.exact is not None and len(self.exact) != self.unknowns:
            raise ValidationError("exact solution count must match unknowns")


def is_linear(problem: DaeProblem) -> bool:
    """True when no equation carries a nonlinear closure."""
    return all(eq.nonlinear is None for eq in problem.equations)


def residual_at(problem: DaeProblem, eq_index: int, candidate, point) -> float:
    """Collocated residual of equation `eq_index` at `point`.

    `candidate` must provide value(u, point) and apply_op(u, op, point).
    Non-finite results raise EvaluationError.
    """
    eq = problem.equations[eq_index]
    args = tuple(point) if problem.is_2d else (point,)
    total = 0.0
    for term in eq.terms:
        total += term.coeff(*args) * candidate.apply_op(term.target, term.op, point)
    if eq.nonlinear is not None:
        values = [candidate.value(u, point) for u in range(problem.unknowns)]
        total += eq.nonlinear(point, *values)
    total -= eq.rhs(*args)
    if not math.isfinite(total):
        raise EvaluationError(
            f"equation {eq_index} residual at {point} is not finite"
        )
    return total


# ---------------------------------------------------------------------------
# Exact solutions as residual candidates

class ExactCandidate:
    """The problem's exact solutions, read from their text alone, as a candidate.

    Derivatives are the text's symbolic derivatives, compiled once per
    (unknown, variable, order).  Caputo derivatives and Volterra integrals
    are Gauss rules in sigma after s = lo + tau sigma^2, tau = point - lo,
    which makes half-integer powers at the left endpoint polynomials.
    """

    def __init__(self, problem: DaeProblem):
        if problem.exact is None:
            raise MissingExact("problem carries no exact solution")
        if len(problem.exact) != problem.unknowns:
            raise ValidationError("one exact solution per unknown required")
        if any(f.tag is None for f in problem.exact):
            raise ValidationError("exact solutions need their source text; build with load_problem")
        self.problem = problem
        self._variables = ("x", "t") if problem.is_2d else ("t",)
        self._derivatives = {}

    def _args(self, point) -> tuple:
        return tuple(point) if self.problem.is_2d else (point,)

    def value(self, u: int, point) -> float:
        return float(self.problem.exact[u](*self._args(point)))

    def apply_op(self, u: int, op: LinearOp, point) -> float:
        if isinstance(op, Identity):
            return self.value(u, point)
        if isinstance(op, Derivative):
            return self._derivative(u, op.var, op.order)(*self._args(point))
        if isinstance(op, Caputo):
            return self._caputo(u, op.alpha, point)
        if isinstance(op, VolterraIntegral):
            return self._volterra(u, op.kernel, point)
        raise ValidationError(f"unknown operator {op!r}")

    def _derivative(self, u: int, var: str, order: int):
        key = (u, var, order)
        if key not in self._derivatives:
            text = self.problem.exact[u].tag
            self._derivatives[key] = derivative(text, self._variables, var, order)
        return self._derivatives[key]

    def _caputo(self, u: int, alpha: float, point: float) -> float:
        # D^a u(x) = tau^(1-a) int_0^1 (1-sigma)^(-a) (1+sigma)^(-a) 2 sigma
        # u'(lo + tau sigma^2) dsigma / Gamma(1-a), the Gauss-Jacobi rule
        # carrying (1-sigma)^(-a) / Gamma(1-a)
        lo = self.problem.interval[0]
        tau = point - lo
        if tau < 0:
            raise DomainError("Caputo evaluation below base point")
        if tau == 0.0:
            return 0.0
        sigma, weights = caputo_rule(alpha, 32)
        du = self._derivative(u, "t", 1)
        slopes = [du(lo + tau * si * si) for si in sigma]
        return tau ** (1.0 - alpha) * float(np.dot(weights * (1.0 + sigma) ** -alpha * 2.0 * sigma, slopes))

    def _volterra(self, u: int, kernel: Field, point: float) -> float:
        lo = self.problem.interval[0]
        length = point - lo
        if length <= 0.0:
            return 0.0
        sigma, w = gauss_quadrature(64).mapped(0.0, 1.0)
        s = lo + length * sigma**2
        exact = self.problem.exact[u]
        vals = np.array([kernel(point, si) * exact(si) for si in s])
        return float(np.sum(w * vals * 2.0 * length * sigma))
