"""Declarative model of differential-algebraic systems.

A problem is a square system of k equations in k unknown functions over an
interval (functions of t) or a rectangle (functions of x and t).  Each
equation is a list of linear operator terms, an optional scalar nonlinear
closure, and a right-hand side:

    sum_j coeff_j(p) * (Op_j u_{target_j})(p) + g(p, u_1(p), ..., u_k(p)) = rhs(p)

where the closure g takes the coordinates of p (t, or x then t), then the
unknowns' values.  Supported linear operators: the identity, integer-order
derivatives (by `var`), and, in t from the start of the t-axis, Caputo
fractional derivatives and Volterra integrals; each works on both domains.
Side conditions pin values or t-derivatives at points.

The domain is a list of axes, `DaeProblem.axes` (t, or x then t), and a
batch of points is an (n, n_axes) array, which `DaeProblem.points` parses.

`residuals` evaluates every equation's residual at a batch of points against
a candidate: any object whose `values(op, points)` gives the (k, n_points)
values of an operator applied to every unknown.  Trained models and
`ExactCandidate`, which reads the exact solutions from their source text,
implement it.
"""

from __future__ import annotations

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
    "residuals",
]

MAX_DERIVATIVE_ORDER = 4


class Field:
    """A coefficient field: a callable plus its source text.  The callable
    takes scalars, or arrays, which broadcast to the shape of its value."""

    def __init__(self, fn: Callable, tag: Optional[str] = None):
        self.fn = fn
        self.tag = tag

    def __call__(self, *args):
        return self.fn(*args)

    @classmethod
    def constant(cls, value, result: Callable = float) -> "Field":
        """The field that is `result(value)` everywhere, in that number type."""
        v = result(value)

        def fn(*args):
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            return np.full(np.broadcast(*arrays).shape, v) if arrays else v

        return cls(fn, tag=str(v))

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

    On an interval `point` is a float and `value` a float.  On a rectangle
    `point` is (x, t), where x may be None, meaning "every x collocation node
    on the slice t=const"; `value` is then a Field of x (or a constant).
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
    def axes(self) -> tuple:
        """(("t", lo, hi),) on an interval, (("x", xlo, xhi), ("t", tlo, thi))
        on a rectangle."""
        if isinstance(self.domain[0], tuple):
            (xlo, xhi), (tlo, thi) = self.domain
            return (("x", xlo, xhi), ("t", tlo, thi))
        lo, hi = self.domain
        return (("t", lo, hi),)

    @property
    def variables(self) -> tuple:
        return tuple(name for name, _, _ in self.axes)

    def points(self, points) -> np.ndarray:
        """Points as an (n, n_axes) float array: numbers (or 1-tuples) on an
        interval, (x, t) pairs on a rectangle, every coordinate finite;
        ValidationError otherwise."""
        try:
            pts = np.asarray(points, dtype=float)
        except (TypeError, ValueError) as err:
            raise ValidationError(f"points must be numbers or tuples of numbers: {err}") from err
        if pts.ndim == 1 and (len(self.axes) == 1 or pts.size == 0):
            pts = pts.reshape(-1, len(self.axes))
        if pts.ndim != 2 or pts.shape[1] != len(self.axes):
            raise ValidationError(f"each point needs the coordinates {self.variables}, "
                                  f"got an array of shape {pts.shape}")
        if not np.isfinite(pts).all():
            bad = pts[np.argmin(np.isfinite(pts).all(axis=1))]
            raise ValidationError(f"point {tuple(bad.tolist())} is not finite")
        return pts

    def validate(self) -> None:
        if self.unknowns < 1:
            raise ValidationError("need at least one unknown")
        if len(self.equations) != self.unknowns:
            raise ValidationError(
                f"square system required: {self.unknowns} unknowns, "
                f"{len(self.equations)} equations"
            )
        variables = self.variables
        if not all(hi > lo for _, lo, hi in self.axes):
            raise ValidationError(f"domain {'rectangle' if len(variables) > 1 else 'interval'} is empty")
        for i, eq in enumerate(self.equations):
            for j, term in enumerate(eq.terms):
                if not 0 <= term.target < self.unknowns:
                    raise ValidationError(f"term target {term.target} out of range")
                if isinstance(term.op, Derivative) and term.op.var not in variables:
                    raise ValidationError(
                        f"equations[{i}].terms[{j}]: derivative by {term.op.var!r}, "
                        f"which is not an axis of the domain {variables}"
                    )
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


def residuals(problem: DaeProblem, candidate, points) -> np.ndarray:
    """(n_equations, n_points) array: row i is equation i's residual
    sum_j c_j (L_j u)(p) + g(p, u(p)) - f(p) at every point p.

    `candidate.values(op, points)` gives the (k, n_points) values of `op`
    applied to every unknown.  It is asked once per distinct operator, and
    every coefficient, closure and right-hand side is called once on the
    whole batch.  A non-finite residual raises EvaluationError naming its
    equation and the first such point.
    """
    pts = problem.points(points)
    args = tuple(pts.T)
    ops = [term.op for eq in problem.equations for term in eq.terms]
    if not is_linear(problem):
        ops.append(Identity())  # closures read every unknown's value
    values = {op: candidate.values(op, pts) for op in dict.fromkeys(ops)}
    out = []
    for i, eq in enumerate(problem.equations):
        total = np.zeros(len(pts))
        for term in eq.terms:
            total = total + term.coeff(*args) * values[term.op][term.target]
        if eq.nonlinear is not None:
            total = total + eq.nonlinear(*args, *values[Identity()])
        total = total - eq.rhs(*args)
        bad = np.flatnonzero(~np.isfinite(np.asarray(total, dtype=float)))
        if bad.size:
            point = tuple(pts[bad[0]].tolist())
            point = point if len(point) > 1 else point[0]
            raise EvaluationError(f"equation {i} residual at {point} is not finite")
        out.append(total)
    return np.array(out)


# ---------------------------------------------------------------------------
# Exact solutions as residual candidates

class ExactCandidate:
    """The problem's exact solutions, read from their text alone, as a candidate.

    Derivatives are the text's symbolic derivatives (`derivative`, which
    keeps what it compiled).  Caputo derivatives and Volterra integrals
    are Gauss rules in sigma after s = lo + tau sigma^2, tau = point - lo,
    which makes half-integer powers at the left endpoint polynomials; each
    is one (points x nodes) array.
    """

    def __init__(self, problem: DaeProblem):
        if problem.exact is None:
            raise MissingExact("problem carries no exact solution")
        if len(problem.exact) != problem.unknowns:
            raise ValidationError("one exact solution per unknown required")
        if any(f.tag is None for f in problem.exact):
            raise ValidationError("exact solutions need their source text; build with load_problem")
        self.problem = problem
        self._applied = {(term.op, term.target) for eq in problem.equations for term in eq.terms}

    def values(self, op: LinearOp, points) -> np.ndarray:
        """(k, n_points) float array of `op` applied to the unknowns.

        Only the rows of the unknowns that some term applies `op` to are
        computed, and every row of the identity, which closures read; the
        others are NaN.  So an unknown that no term differentiates may have
        a text such as `pow(2,t)`, which has no symbolic derivative.
        """
        args = tuple(self.problem.points(points).T)
        out = np.full((self.problem.unknowns, args[0].size), np.nan)
        for u in range(self.problem.unknowns):
            if isinstance(op, Identity):
                out[u] = self.problem.exact[u](*args)
            elif (op, u) not in self._applied:
                continue
            elif isinstance(op, Derivative):
                text = self.problem.exact[u].tag
                out[u] = derivative(text, self.problem.variables, op.var, op.order)(*args)
            else:
                out[u] = self._memory(u, op, *args)
        return out

    def _memory(self, u: int, op: LinearOp, *coords: np.ndarray) -> np.ndarray:
        """A Caputo derivative or Volterra integral in t at the points, given
        by their coordinates (x, then t): zero at lo, refused below it."""
        *before, t = coords
        lo = self.problem.axes[-1][1]
        if (t < lo).any():
            raise DomainError(f"{type(op).__name__} evaluation below base point")
        live = t > lo
        before = [x[live, None] for x in before]
        tau, out = t[live, None] - lo, np.zeros(t.size)
        if isinstance(op, Caputo):
            # D^a u(t) = tau^(1-a) int_0^1 (1-sigma)^(-a) (1+sigma)^(-a) 2 sigma
            # u'(lo + tau sigma^2) dsigma / Gamma(1-a), the Gauss-Jacobi rule
            # carrying (1-sigma)^(-a) / Gamma(1-a)
            sigma, weights = caputo_rule(op.alpha, 32)
            slope = derivative(self.problem.exact[u].tag, self.problem.variables, "t", 1)
            slopes = slope(*before, lo + tau * sigma * sigma)
            rule = weights * (1.0 + sigma) ** -op.alpha * 2.0 * sigma
            out[live] = tau[:, 0] ** (1.0 - op.alpha) * np.vecdot(slopes, rule)
        elif isinstance(op, VolterraIntegral):
            sigma, w = gauss_quadrature(64).mapped(0.0, 1.0)
            s = lo + tau * sigma**2
            vals = op.kernel(t[live, None], s) * self.problem.exact[u](*before, s)
            out[live] = np.sum(w * vals * 2.0 * tau * sigma, axis=1)
        else:
            raise ValidationError(f"unknown operator {op!r}")
        return out
