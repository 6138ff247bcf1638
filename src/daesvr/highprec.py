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
fractional and integral terms stay on the double precision path.

The pipeline is the regular solver's own, `build_grid` -> `assemble` -> a
kernel, with `solve_square` as the kernel: `schema` builds the problem from
its source description with the `MPF` vocabulary, so the domain, side
points and values, constant fields and every expression (exact solutions
included) are `mpf`; `build_grid` refines the Gauss nodes of that mpf
domain to working precision, and `assemble` runs unchanged on numpy object
arrays of `mpf`.  The square matrix is then Z^T.

The result is the regular solver's `TrainedModel` with `mpf` weights, an
object array of shape (k, D), and the mpf problem it solved as `problem`;
`InterpolantModel` adds only the working precision `digits`.  Evaluation
and `solver.report` then run in `mpf` at those digits: one operator table
per batch of points, taken at `mpf` coordinates, and the exact solutions in
`mpf` too, so the reported errors carry no double-precision rounding.
`errors` holds the collocation residual A w - y.

The direct solve (`solve_square`) runs on Python integers only: each row
is scaled by a power of two and read once from the entries' mpf mantissas
into fixed point with 128 bits beyond working precision; Gaussian
elimination with partial pivoting updates only the rows whose multiplier is
nonzero (about a quarter on the rectangle, where Z is sparse); and the
residual, an exact integer product of those row-scaled integers with the
weights, drives one correction solve through the same factors and is
returned as `errors`.  On the rectangle benchmark at 40 digits (n = 144,
240, 360 for m = 6, 8, 10) the solve takes about 0.1, 0.4 and 1.3 s on one
core of a 2 vCPU VM, and a whole `solve_interpolant` about 0.2, 0.6 and
1.9 s; mpmath's LU solve took about 8 s at m = 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import fzero
import mpmath

from .errors import SingularSystem, ValidationError
from .expressions import MPF
from .model import Caputo, DaeProblem, VolterraIntegral, is_linear
from .schema import _build
from .solver import SolverConfig, TrainedModel, assemble, build_grid

__all__ = ["InterpolantModel", "solve_interpolant", "solve_square"]


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


def _parts(x) -> tuple:
    """The (sign, mantissa, exponent, bit count) of an entry: an mpf, or an
    exact number such as the int zeros that fill Z."""
    if isinstance(x, mpf):
        return x._mpf_
    return mpf(x)._mpf_ if x else fzero


def _scaled(sign, man, shift) -> np.ndarray:
    """The integers (-1)**sign * man * 2**shift, truncated toward zero."""
    shift = np.asarray(shift, dtype=np.int64)
    v = (man << np.maximum(shift, 0).astype(object)) >> np.maximum(-shift, 0).astype(object)
    return np.where(np.asarray(sign, dtype=bool), -v, v)


def _mantissas(x):
    """`x` split into signs, mantissas (object arrays), exponents and bit
    counts (int64).  Raises ValidationError on an infinity or a NaN, which
    mpmath marks with a negative bit count."""
    sign, man, exp, bc = np.frompyfunc(_parts, 1, 4)(np.asarray(x, dtype=object))
    bc = bc.astype(np.int64)
    if (bc < 0).any():
        raise ValidationError("the square solve needs finite entries")
    return sign, man, exp.astype(np.int64), bc


def _mag(exp, bc, default, axis=None):
    """mpmath's `mag`, exp + bc, maximised over the nonzero entries; `default`
    where every entry is zero."""
    low = np.iinfo(np.int64).min
    mag = np.where(bc > 0, exp + bc, low).max(axis=axis)
    return np.where(mag == low, default, mag)


def solve_square(A, b) -> tuple:
    """Solve the square system A w = b to working precision.

    Returns the solution w and its residual A w - b, both as mpf.  Each row
    of A is scaled by a power of two so its largest entry sits near 2**F,
    F = mp.prec + 128, and read from its mpf mantissas into Python integers
    once; elimination runs in fixed point with F fractional bits, touching
    only the rows with a nonzero multiplier.  Residuals are exact integer
    products of those row-scaled integers with w put on a common exponent,
    so one correction solve through the same factors leaves the collocation
    residual accurate to about 2**-F of |A| |w|.  Raises SingularSystem on a
    zero pivot.
    """
    n = len(b)
    F = mp.prec + _GUARD_BITS
    sign, man, exp, bc = _mantissas(A)
    row = F - _mag(exp, bc, F, axis=1)
    A_int = _scaled(sign, man, exp + row[:, None])
    b_sign, b_man, b_exp, _ = _mantissas(b)
    U = A_int.copy()
    perm = np.arange(n)
    for j in range(n):
        p = j + int(np.argmax(np.abs(U[j:, j])))
        if not U[p, j]:
            raise SingularSystem(f"zero pivot in column {j} after row equilibration")
        U[[j, p]] = U[[p, j]]
        perm[[j, p]] = perm[[p, j]]
        l = (U[j + 1:, j] << F) // U[j, j]
        U[j + 1:, j] = l  # the multipliers, reused by substitute
        nz = np.flatnonzero(l)
        U[nz + j + 1, j + 1:] -= np.outer(l[nz], U[j, j + 1:]) >> F

    def substitute(sign, man, e):
        """The solution for the row-scaled right-hand side (-1)**sign * man * 2**e."""
        scale = F - max((int(k) + v.bit_length() for v, k in zip(man, e) if v), default=F)
        c = _scaled(sign, man, e + scale)[perm]
        for j in range(n - 1):
            c[j + 1:] -= (U[j + 1:, j] * c[j]) >> F
        z = np.zeros(n, dtype=object)
        for k in range(n - 1, -1, -1):
            z[k] = ((c[k] << F) - U[k, k + 1:].dot(z[k + 1:])) // U[k, k]
        return [mpmath.ldexp(z_k, -F - scale) for z_k in z]

    def residual(w):
        """b - A w, row-scaled and split like a right-hand side of substitute."""
        w_sign, w_man, w_exp, w_bc = _mantissas(w)
        E = F - int(_mag(w_exp, w_bc, F))  # w * 2**E: integers of F bits
        r = _scaled(b_sign, b_man, b_exp + row + E) - A_int.dot(_scaled(w_sign, w_man, w_exp + E))
        return r < 0, np.abs(r), np.full(n, -E)

    w = substitute(b_sign, b_man, b_exp + row)
    w = [w_k + d_k for w_k, d_k in zip(w, substitute(*residual(w)))]
    sign, man, e = residual(w)
    errors = [mpmath.ldexp(m if s else -m, k) for s, m, k in zip(sign, man, (e - row).tolist())]
    return w, np.array(errors, dtype=object)


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
    the gamma -> infinity limit.  The model's `problem` is the mpf rebuild.
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
    reason = _unsupported(problem)
    if reason is not None:
        raise ValidationError(reason)

    with workdps(digits):
        mp_problem = _build(problem.source, problem.name, MPF)
        grid = build_grid(mp_problem, config)
        Z, y = assemble(mp_problem, grid, config)
        if Z.shape[0] != Z.shape[1]:
            raise ValidationError(
                f"collocation system is not square ({Z.shape[1]} constraints, {Z.shape[0]} "
                "coefficients); adjust degree so counts balance"
            )
        w, errors = solve_square(Z.T, y)
    return InterpolantModel(
        weights=np.array(w, dtype=object).reshape(mp_problem.unknowns, -1),
        alpha=None,
        errors=errors,
        problem=mp_problem,
        grid=grid,
        config=config,
        digits=digits,
    )
