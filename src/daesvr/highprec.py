"""Extended-precision interpolation-limit solver for linear problems.

Double precision puts a hard ceiling on the dual solve once the collocation
system's conditioning approaches 1/eps.  Coupled partial systems hit that
ceiling quickly: when the continuous operator admits modes the constraints
barely see, the discrete system inherits near-null directions whose singular
values sink exponentially as the basis grows, and past m ~ 8 no double
precision algorithm can recover the accuracy the basis offers.

This module sidesteps the ceiling for linear problems by solving the square
collocation system (basis counts chosen so coefficients and constraints
balance, the same rule the regular solver uses) in software floats.  That is
the limit of the regularized estimator as gamma grows without bound, so the
result is the interpolant the dual solve approaches but cannot reach in
double precision.  Only identity and derivative operators are supported;
fractional and integral terms stay on the double precision path, and there
are no bias terms.

The system is the regular solver's own: `schema` builds the problem from
its source description with the `MPF` vocabulary, so the domain, side
points and values, constant fields and every expression (exact solutions
included) are `mpf`; the Gauss nodes are refined to working precision, and
the solver's grid, Legendre tables and constraint builder run unchanged on
numpy object arrays of `mpf`.  The square matrix is then Z^T.

The result is the regular solver's `TrainedModel` with `mpf` weights, an
object array of shape (k, D); `InterpolantModel` adds only the working
precision `digits`.  Evaluation and `solver.report` then run in `mpf` at
those digits: one operator table per batch of points, taken at `mpf`
coordinates, and the exact solutions in `mpf` too, so the reported errors
carry no double-precision rounding.  `errors` holds the collocation
residual A w - y.

The direct solve (`solve_square`) is Gaussian elimination with partial
pivoting on Python integers: each row is scaled by a power of two and held
in fixed point with 128 bits beyond working precision, and one residual at
that precision drives one correction solve through the same factors.  On
the rectangle benchmark at 40 digits (n = 144, 240, 360 for m = 6, 8, 10)
it takes about 0.3, 1 and 3 s on one core of a 2 vCPU VM, against about 8 s
for mpmath's LU solve at m = 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps
import mpmath

from .errors import SingularSystem, ValidationError
from .expressions import MPF
from .legendre import gauss_quadrature, legendre_table
from .model import Caputo, DaeProblem, VolterraIntegral, is_linear
from .schema import _build
from .solver import SolverConfig, TrainedModel, _Context, _grid_from_roots

__all__ = ["InterpolantModel", "solve_interpolant", "solve_square"]


def _gauss_nodes(m: int) -> np.ndarray:
    """Roots of P_m refined from double precision to working precision."""
    s = np.array([mpf(r) for r in gauss_quadrature(m).nodes], dtype=object)
    tol = mpf(10) ** (-mp.dps)
    for _ in range(8):
        tab = legendre_table(m + 1, s, 1)
        step = tab[0][m] / tab[1][m]
        s = s - step
        if max(abs(step)) < tol:
            break
    return s


@dataclass
class InterpolantModel(TrainedModel):
    """A TrainedModel with mpf weights, evaluated at `digits` digits."""

    digits: int = field(kw_only=True)

    def _arithmetic(self):
        return workdps(self.digits)


def _unsupported(problem: DaeProblem) -> Optional[str]:
    """Why extended precision cannot solve the problem, or None if it can."""
    if not is_linear(problem):
        return "extended-precision solve handles linear problems only"
    for eq in problem.equations:
        for term in eq.terms:
            if isinstance(term.op, (Caputo, VolterraIntegral)):
                return (
                    "extended-precision solve supports identity and derivative "
                    "terms only; fractional and integral operators stay on the "
                    "double precision path"
                )
    return None


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

    The problem solved is the one its `source` describes (what
    `serialize_problem` writes), rebuilt in `mpf` at `digits` digits, so
    `problem` must come from `load_problem`.  Basis counts follow the same
    rule as the regular solver, which makes the linear system square; it is
    then solved directly rather than through the regularized dual, giving
    the gamma -> infinity limit.
    """
    if digits < 15:
        raise ValidationError(f"digits must be at least 15, got {digits}")
    config = config or SolverConfig()
    problem.validate()
    if problem.source is None:
        raise ValidationError(
            "extended-precision solve rebuilds the problem from its source "
            "description; build the problem with load_problem"
        )
    if config.include_bias:
        raise ValidationError("extended-precision solve has no bias terms")
    reason = _unsupported(problem)
    if reason is not None:
        raise ValidationError(reason)

    with workdps(digits):
        mp_problem = _build(problem.source, problem.name, MPF)
        ctx = _Context(mp_problem, _grid_from_roots(mp_problem, _gauss_nodes(config.m)), config)
        n = ctx.n_constraints
        if n != ctx.k * ctx.D:
            raise ValidationError(
                f"collocation system is not square ({n} constraints, {ctx.k * ctx.D} "
                "coefficients); adjust degree so counts balance"
            )
        Z, y = ctx.constraints()
        A = Z.T
        w = np.array(solve_square(A, y), dtype=object)
        errors = np.array([mpmath.fdot(row, w) - y_i for row, y_i in zip(A, y)], dtype=object)
    return InterpolantModel(
        weights=w.reshape(ctx.k, ctx.D),
        biases=None,
        alpha=None,
        errors=errors,
        problem=problem,
        grid=ctx.grid,
        config=config,
        _ctx=ctx,
        digits=digits,
    )
