"""Extended-precision interpolation-limit solver for linear problems.

Double precision puts a hard ceiling on the dual solve once the collocation
system's conditioning approaches 1/eps.  Coupled partial systems hit that
ceiling quickly: when the continuous operator admits modes the constraints
barely see, the discrete system inherits near-null directions whose singular
values sink exponentially as the basis grows, and past m ~ 8 no double
precision algorithm can recover the accuracy the basis offers.

This module sidesteps the ceiling for linear problems by assembling the
square collocation system (basis counts chosen so coefficients and
constraints balance, the same rule the regular solver uses) in software
floats and solving it directly.  That is the limit of the regularized
estimator as gamma grows without bound, so the result is the interpolant
the dual solve approaches but cannot reach in double precision.  Only
identity and derivative operators are supported; fractional and integral
terms stay on the double precision path.

The direct solve (`solve_square`) is Gaussian elimination with partial
pivoting on Python integers: each row is scaled by a power of two and held
in fixed point with 128 bits beyond working precision, and one residual at
that precision drives one correction solve through the same factors.  On
the rectangle benchmark at 40 digits (n = 144, 240, 360 for m = 6, 8, 10)
it takes about 0.3, 1 and 3 s on one core of a 2 vCPU VM, against about 8 s
for mpmath's LU solve at m = 6.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps
import mpmath

from .errors import SingularSystem, ValidationError
from .expressions import _check
from .model import Caputo, DaeProblem, Derivative, Field, Identity, VolterraIntegral, is_linear
from .solver import SolverConfig, basis_counts

__all__ = ["InterpolantModel", "solve_interpolant", "solve_square"]


def _mp_sec(x):
    return 1 / mpmath.cos(x)


_MP_FUNCTIONS = {
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "tan": mpmath.tan,
    "sec": _mp_sec,
    "exp": mpmath.exp,
    "sqrt": mpmath.sqrt,
    "pow": mpmath.power,
    "gamma": mpmath.gamma,
}

_MP_CONSTANTS = {"pi": mpmath.pi, "e": mpmath.e}


def _mp_field(value, variables: tuple):
    """Rebuild a coefficient field as an mpmath callable.

    Accepts plain numbers, Field objects carrying their source text, and
    raw expression strings.
    """
    if isinstance(value, (int, float)):
        c = mpf(value)
        return lambda *args: c
    if isinstance(value, Field):
        text = value.tag
        if text is None:
            raise ValidationError(
                "extended-precision solve needs fields with source text; "
                "build the problem through the structured schema"
            )
        value = text
    try:
        c = mpf(float(value))
        return lambda *args: c
    except ValueError:
        pass
    tree = ast.parse(value, mode="eval")
    _check(tree, variables, value)
    code = compile(tree, "<mp-expression>", "eval")
    namespace = {"__builtins__": {}} | _MP_FUNCTIONS | _MP_CONSTANTS

    def fn(*args):
        return eval(code, namespace, dict(zip(variables, args)))

    return fn


def _legendre_rows(count: int, s, max_order: int):
    """Values and derivatives of P_0..P_{count-1} at canonical scalar s."""
    P = [mpf(1)] + [mpf(0)] * (count - 1)
    if count > 1:
        P[1] = s
    for n in range(1, count - 1):
        P[n + 1] = ((2 * n + 1) * s * P[n] - n * P[n - 1]) / (n + 1)
    rows = [P]
    for order in range(1, max_order + 1):
        prev = rows[order - 1]
        D = [mpf(0)] * count
        for n in range(count - 1):
            lower = D[n - 1] if n else mpf(0)
            D[n + 1] = ((2 * n + 1) * (s * D[n] + order * prev[n]) - n * lower) / (n + 1)
        rows.append(D)
    return rows


def _gauss_nodes(m: int):
    """Gauss-Legendre nodes on [-1, 1] refined to working precision."""
    seeds = np.polynomial.legendre.leggauss(m)[0]
    nodes = []
    for seed in seeds:
        s = mpf(float(seed))
        for _ in range(8):
            rows = _legendre_rows(m + 1, s, 1)
            step = rows[0][m] / rows[1][m]
            s = s - step
            if abs(step) < mpf(10) ** (-mp.dps):
                break
        nodes.append(s)
    return nodes


class _Axis:
    """One coordinate axis: interval, basis count, and cached tables."""

    def __init__(self, lo, hi, count: int, max_order: int):
        self.lo = mpf(lo)
        self.hi = mpf(hi)
        self.count = count
        self.max_order = max_order
        self.chain = 2 / (self.hi - self.lo)
        self._cache = {}

    def tables(self, v):
        key = str(v)
        hit = self._cache.get(key)
        if hit is None:
            s = 2 * (v - self.lo) / (self.hi - self.lo) - 1
            hit = _legendre_rows(self.count, s, self.max_order)
            self._cache[key] = hit
        return hit

    def value(self, v, j: int, order: int = 0):
        return self.tables(v)[order][j] * self.chain ** order


def _max_order(problem: DaeProblem, var: str) -> int:
    top = 1 if var == "t" else 0
    for eq in problem.equations:
        for term in eq.terms:
            if isinstance(term.op, Derivative) and term.op.var == var:
                top = max(top, term.op.order)
    if var == "t":
        for side in problem.side_conditions:
            top = max(top, side.order)
    return top


@dataclass
class InterpolantModel:
    """Square-system interpolant with extended-precision evaluation."""

    problem: DaeProblem
    digits: int
    d_x: Optional[int]
    d_t: int
    residual_inf: float
    _axes: tuple
    _weights: list

    @property
    def block(self) -> int:
        return (self.d_x or 1) * self.d_t

    def _basis(self, point):
        if self.d_x is None:
            ax_t, = self._axes
            return ax_t.tables(mpf(point))[0]
        x, t = point
        ax_x, ax_t = self._axes
        bx = ax_x.tables(mpf(x))[0]
        bt = ax_t.tables(mpf(t))[0]
        return [bx[p] * bt[q] for p in range(self.d_x) for q in range(self.d_t)]

    def evaluate_mp(self, unknown: int, point):
        """Value of one unknown at a point, in working precision."""
        with workdps(self.digits):
            row = self._basis(point)
            base = unknown * self.block
            return mpmath.fsum(self._weights[base + j] * row[j] for j in range(self.block))

    def evaluate(self, unknown: int, point) -> float:
        return float(self.evaluate_mp(unknown, point))

    def errors_at(self, unknown: int, point):
        """(absolute, relative) error against the problem's exact solution."""
        if not self.problem.exact:
            raise ValidationError("problem has no exact solution attached")
        nvars = ("x", "t") if self.d_x is not None else ("t",)
        exact = self.problem.exact[unknown]
        if not isinstance(exact, Field) and hasattr(exact, "value"):
            exact = exact.value
        with workdps(self.digits):
            exact_fn = _mp_field(exact, nvars)
            args = point if self.d_x is not None else (point,)
            exact = exact_fn(*args)
            approx = self.evaluate_mp(unknown, point)
            abs_err = abs(approx - exact)
            rel = abs_err / abs(exact) if abs(exact) > 0 else abs_err
            return float(abs_err), float(rel)


def _reject_unsupported(problem: DaeProblem) -> None:
    if not is_linear(problem):
        raise ValidationError("extended-precision solve handles linear problems only")
    for eq in problem.equations:
        for term in eq.terms:
            if isinstance(term.op, (Caputo, VolterraIntegral)):
                raise ValidationError(
                    "extended-precision solve supports identity and derivative "
                    "terms only; fractional and integral operators stay on the "
                    "double precision path"
                )


_GUARD_BITS = 128
_fixed = np.frompyfunc(lambda x, shift: int(mpmath.ldexp(x, shift)), 2, 1)


def solve_square(A, b) -> list:
    """Solve the square system A w = b to working precision.

    Each row of A is scaled by a power of two so its largest entry sits near
    2**F, F = mp.prec + 128; elimination runs in fixed point with F fractional
    bits, and one correction solve follows from a residual taken with F bits.
    Raises SingularSystem on a zero pivot.
    """
    A = np.asarray(A, dtype=object)
    b = np.asarray(b, dtype=object)
    n = len(b)
    F = mp.prec + _GUARD_BITS

    def shift(v):
        """Power of two that puts the largest entry of v near 2**F."""
        return F - max((mpmath.mag(x) for x in v if x), default=F)

    shifts = np.array([shift(row) for row in A], dtype=object)
    U = _fixed(A, shifts[:, None])
    perm = np.arange(n)
    for j in range(n):
        p = j + int(np.argmax(np.abs(U[j:, j])))
        if not U[p, j]:
            raise SingularSystem(f"zero pivot in column {j} after row equilibration")
        U[[j, p]] = U[[p, j]]
        perm[[j, p]] = perm[[p, j]]
        l = (U[j + 1:, j] << F) // U[j, j]
        U[j + 1:, j] = l  # the multipliers, reused by substitute
        U[j + 1:, j + 1:] -= np.outer(l, U[j, j + 1:]) >> F

    def substitute(rhs):
        v = [mpmath.ldexp(x, s) for x, s in zip(rhs, shifts)]
        scale = shift(v)
        c = _fixed(np.array(v, dtype=object), scale)[perm]
        for j in range(n - 1):
            c[j + 1:] -= (U[j + 1:, j] * c[j]) >> F
        z = np.zeros(n, dtype=object)
        for k in range(n - 1, -1, -1):
            z[k] = ((c[k] << F) - U[k, k + 1:].dot(z[k + 1:])) // U[k, k]
        return [mpmath.ldexp(z_k, -F - scale) for z_k in z]

    w = substitute(b)
    with mp.workprec(F):
        r = b - A.dot(w)
    return [w_k + d_k for w_k, d_k in zip(w, substitute(r))]


def solve_interpolant(
    problem: DaeProblem,
    config: Optional[SolverConfig] = None,
    digits: int = 40,
) -> InterpolantModel:
    """Solve the square collocation system exactly to working precision.

    Basis counts follow the same rule as the regular solver, which makes
    the linear system square; it is then solved directly rather than through
    the regularized dual, giving the gamma -> infinity limit.
    """
    if digits < 15:
        raise ValidationError(f"digits must be at least 15, got {digits}")
    config = config or SolverConfig()
    problem.validate()
    _reject_unsupported(problem)
    k = problem.unknowns
    d_x, d_t = basis_counts(problem, config)
    m = config.m

    with workdps(digits):
        canonical = _gauss_nodes(m)
        if problem.is_2d:
            (xlo, xhi), (tlo, thi) = problem.domain
            ax_x = _Axis(xlo, xhi, d_x, _max_order(problem, "x"))
            ax_t = _Axis(tlo, thi, d_t, _max_order(problem, "t"))
            axes = (ax_x, ax_t)
            xs = [ax_x.lo + (s + 1) * (ax_x.hi - ax_x.lo) / 2 for s in canonical]
            ts = [ax_t.lo + (s + 1) * (ax_t.hi - ax_t.lo) / 2 for s in canonical]
            points = [(x, t) for x in xs for t in ts]
            block = d_x * d_t
            nvars = ("x", "t")
        else:
            lo, hi = problem.domain
            ax_t = _Axis(lo, hi, d_t, _max_order(problem, "t"))
            axes = (ax_t,)
            ts = [ax_t.lo + (s + 1) * (ax_t.hi - ax_t.lo) / 2 for s in canonical]
            points = list(ts)
            block = d_t
            nvars = ("t",)

        def op_entries(op, point):
            """Basis values of one operator applied at one point."""
            if problem.is_2d:
                x, t = point
                tab_x = ax_x.tables(x)
                tab_t = ax_t.tables(t)
                if isinstance(op, Identity):
                    ox, ot = 0, 0
                elif op.var == "t":
                    ox, ot = 0, op.order
                else:
                    ox, ot = op.order, 0
                cx = ax_x.chain ** ox
                ct = ax_t.chain ** ot
                return [
                    tab_x[ox][p] * cx * tab_t[ot][q] * ct
                    for p in range(d_x)
                    for q in range(d_t)
                ]
            tab = ax_t.tables(point)
            order = 0 if isinstance(op, Identity) else op.order
            return [tab[order][j] * ax_t.chain ** order for j in range(d_t)]

        n_colloc = len(points) * len(problem.equations)
        sides = list(problem.side_conditions)
        if problem.is_2d:
            n_side = sum(len(xs) if sc.point[0] is None else 1 for sc in sides)
        else:
            n_side = len(sides)
        n = n_colloc + n_side
        if n != k * block:
            raise ValidationError(
                f"collocation system is not square ({n} constraints, {k * block} "
                "coefficients); adjust degree so counts balance"
            )

        A = np.full((n, n), mpf(0), dtype=object)
        y = np.empty(n, dtype=object)
        row = 0
        for eq in problem.equations:
            rhs_fn = _mp_field(eq.rhs, nvars)
            term_fns = [(_mp_field(t.coeff, nvars), t.op, t.target) for t in eq.terms]
            for point in points:
                args = point if problem.is_2d else (point,)
                for coeff_fn, op, target in term_fns:
                    coeff = coeff_fn(*args)
                    entries = op_entries(op, point)
                    base = target * block
                    for j in range(block):
                        A[row, base + j] += coeff * entries[j]
                y[row] = rhs_fn(*args)
                row += 1
        for side in sides:
            if problem.is_2d:
                value_fn = _mp_field(side.value, ("x",))
                x0, t0 = side.point
                t0 = mpf(t0)
                tab_t = ax_t.tables(t0)
                ct = ax_t.chain ** side.order
                slice_xs = xs if x0 is None else [mpf(x0)]
                for x in slice_xs:
                    tab_x = ax_x.tables(x)
                    base = side.target * block
                    j = 0
                    for p in range(d_x):
                        vx = tab_x[0][p]
                        for q in range(d_t):
                            A[row, base + j] = vx * tab_t[side.order][q] * ct
                            j += 1
                    y[row] = value_fn(x)
                    row += 1
            else:
                point = mpf(side.point)
                tab = ax_t.tables(point)
                ct = ax_t.chain ** side.order
                base = side.target * block
                for j in range(d_t):
                    A[row, base + j] = tab[side.order][j] * ct
                value = side.value
                y[row] = _mp_field(value, ("t",))(point) if isinstance(value, Field) else mpf(value)
                row += 1

        w = solve_square(A, y)
        resid = mpf(0)
        for i in range(n):
            acc = mpmath.fsum(A[i, j] * w[j] for j in range(n)) - y[i]
            resid = max(resid, abs(acc))
        return InterpolantModel(
            problem=problem,
            digits=digits,
            d_x=d_x if problem.is_2d else None,
            d_t=d_t,
            residual_inf=float(resid),
            _axes=axes,
            _weights=w,
        )
