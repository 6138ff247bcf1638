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
trained models and exact solutions implement that interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, EvaluationError, ValidationError
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
    "ExactSolution",
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


# 4th-order central stencils, offsets symmetric about 0.
_STENCILS = {
    1: (np.arange(-2, 3), np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0),
    2: (np.arange(-2, 3), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0),
    3: (np.arange(-3, 4), np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0),
    4: (np.arange(-3, 4), np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0),
}


@dataclass
class ExactSolution:
    """A known solution with optional analytic structure.

    derivatives maps ("t", order) or ("x", order) to a callable with the
    same signature as `value`.  `powers` is a list of (coefficient,
    exponent) pairs describing value(t) = sum c * (t - base)^e, which makes
    the Caputo derivative exact; it is only meaningful for interval
    problems.
    """

    value: Callable
    derivatives: dict = field(default_factory=dict)
    powers: Optional[Sequence] = None


class ExactCandidate:
    """Adapter exposing exact solutions through the candidate interface.

    Analytic derivative and power-sum data are used when present; otherwise
    derivatives fall back to finite differences and Caputo derivatives to a
    Gauss-Jacobi quadrature of the singular integral.  Volterra integrals
    use a square-root substitution so half-integer power behaviour at the
    left endpoint is integrated exactly.
    """

    def __init__(self, problem: DaeProblem, solutions: Sequence[ExactSolution], quad_nodes: int = 64):
        if len(solutions) != problem.unknowns:
            raise ValidationError("one exact solution per unknown required")
        self.problem = problem
        self.solutions = list(solutions)
        self._rule = gauss_quadrature(quad_nodes)

    def value(self, u: int, point) -> float:
        args = tuple(point) if self.problem.is_2d else (point,)
        return float(self.solutions[u].value(*args))

    def apply_op(self, u: int, op: LinearOp, point) -> float:
        sol = self.solutions[u]
        if isinstance(op, Identity):
            return self.value(u, point)
        if isinstance(op, Derivative):
            return self._derivative(sol, op.var, op.order, point)
        if isinstance(op, Caputo):
            return self._caputo(sol, op.alpha, point)
        if isinstance(op, VolterraIntegral):
            return self._volterra(sol, op.kernel, point)
        raise ValidationError(f"unknown operator {op!r}")

    # -- derivatives --------------------------------------------------

    def _derivative(self, sol: ExactSolution, var: str, order: int, point) -> float:
        fn = sol.derivatives.get((var, order))
        if fn is not None:
            args = tuple(point) if self.problem.is_2d else (point,)
            return float(fn(*args))
        if sol.powers is not None and var == "t" and not self.problem.is_2d:
            lo = self.problem.interval[0]
            tau = point - lo
            total = 0.0
            for c, e in sol.powers:
                factor = c
                for i in range(order):
                    factor *= e - i
                if e - order < 0 and tau == 0.0:
                    raise EvaluationError("derivative of fractional power at base point")
                total += factor * tau ** (e - order) if factor else 0.0
            return total
        return self._fd_derivative(sol, var, order, point)

    def _fd_derivative(self, sol: ExactSolution, var: str, order: int, point) -> float:
        offsets, weights = _STENCILS[order]
        h = (2.6e-16) ** (1.0 / (order + 4)) * 0.5
        if self.problem.is_2d:
            x, t = point
            if var == "x":
                samples = [sol.value(x + k * h, t) for k in offsets]
            else:
                samples = [sol.value(x, t + k * h) for k in offsets]
        else:
            samples = [sol.value(point + k * h) for k in offsets]
        out = float(np.dot(weights, samples) / h**order)
        if not math.isfinite(out):
            raise EvaluationError(
                "finite-difference derivative failed; supply an analytic derivative"
            )
        return out

    # -- Caputo -------------------------------------------------------

    def _caputo(self, sol: ExactSolution, alpha: float, point: float) -> float:
        lo = self.problem.interval[0]
        tau = point - lo
        if tau < 0:
            raise DomainError("Caputo evaluation below base point")
        if tau == 0.0:
            return 0.0
        if sol.powers is not None:
            total = 0.0
            for c, e in sol.powers:
                if e <= 0:
                    continue
                total += c * math.gamma(e + 1) / math.gamma(e + 1 - alpha) * tau ** (e - alpha)
            return total
        fractions, weights = caputo_rule(alpha, 32)
        acc = 0.0
        for f, w in zip(fractions, weights):
            acc += w * self._derivative(sol, "t", 1, lo + tau * f)
        return tau ** (1.0 - alpha) * acc

    # -- Volterra -----------------------------------------------------

    def _volterra(self, sol: ExactSolution, kernel: Field, point: float) -> float:
        lo = self.problem.interval[0]
        length = point - lo
        if length <= 0.0:
            return 0.0
        # s = lo + length * sigma^2 turns sqrt-type behaviour at lo into a
        # polynomial in sigma; Gauss on [0, 1] in sigma.
        sigma, w = self._rule.mapped(0.0, 1.0)
        s = lo + length * sigma**2
        vals = np.array([kernel(point, si) * sol.value(si) for si in s])
        return float(np.sum(w * vals * 2.0 * length * sigma))
