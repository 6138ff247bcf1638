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

The pipeline is the regular solver's own, `build_grid(problem, config)` ->
`assemble(grid)` -> a kernel, with `solve_square` as the kernel: `schema`
builds the problem from its source description with the `MPF` vocabulary,
so the domain, side points and values, constant fields and every expression
(exact solutions included) are `mpf`; `build_grid` refines the Gauss nodes
of that mpf domain to working precision, and `assemble` runs unchanged on
numpy object arrays of `mpf`.  The square matrix is then Z^T.

Some rectangles skip `assemble`: those whose term coefficients are equal
along x at each t-node, whose side conditions span every x-node, and whose
x-basis count is the number of x-nodes (the default counts).  Their rows
are projected onto the x-Legendre modes P_0 .. P_{m-1} by the m-point Gauss
rule, which is exact at these degrees and so leaves the solution as it is
(`_mode_system`).  In modes the identity in x is I and an x-derivative is
the integer Legendre differentiation matrix, strictly upper triangular, so
the system is I (x) A0 + sum_o N_o (x) B_o with one k*d_t block A0 on the
diagonal: `_solve_modes` factors A0 once and back-substitutes the modes
from the highest down.  The blocks come from 1-D t-tables; only the
right-hand sides and side values pass through the Gauss rule.

The result is the regular solver's `TrainedModel` with `mpf` weights, an
object array of shape (k, D), and the mpf grid it was solved on as `grid`
(so `problem` is the mpf problem); `InterpolantModel` adds only the working
precision `digits`.  Evaluation and `solver.report` then run in `mpf` at
those digits: one operator table per batch of points, taken at `mpf`
coordinates, and the exact solutions in `mpf` too, so the reported errors
carry no double-precision rounding.
`errors` holds the residual A w - y of the system the kernel solved: the
collocation system, or its projection onto the x-modes, mode-major.

Both kernels run on Python integers only: each row is scaled by a power of
two and read once from the entries' mpf mantissas into fixed point with 128
bits beyond working precision (`_row_scaled`); Gaussian elimination with
partial pivoting updates only the rows whose multiplier is nonzero (about a
quarter on the dense rectangle, where Z is sparse; `_factor`); and the
residual, an exact integer product of those row-scaled integers with the
weights, drives one correction solve through the same factors and is
returned as `errors` (`_refined`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from numbers import Integral
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import fzero
import mpmath

from .errors import SingularSystem, ValidationError
from .expressions import MPF
from .legendre import legendre_table, shift_to_canonical
from .model import Caputo, DaeProblem, Derivative, VolterraIntegral, is_linear
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


def _row_scaled(A, row=None) -> tuple:
    """The row exponents of A and its rows as integers, (-1)**sign * man *
    2**(exp + row), truncated toward zero.  Left unset, `row` puts each
    row's largest entry near 2**F, F = mp.prec + 128."""
    sign, man, exp, bc = _mantissas(A)
    if row is None:
        F = mp.prec + _GUARD_BITS
        row = F - _mag(exp, bc, F, axis=1)
    return row, _scaled(sign, man, exp + row[:, None])


def _factor(A_int) -> tuple:
    """Gaussian elimination with partial pivoting of the row-scaled integers
    in fixed point with F fractional bits, touching only the rows with a
    nonzero multiplier: (U, perm), U holding the multipliers below its
    diagonal.  Raises SingularSystem on a zero pivot."""
    F = mp.prec + _GUARD_BITS
    n = len(A_int)
    U = A_int.copy()
    perm = np.arange(n)
    for j in range(n):
        p = j + int(np.argmax(np.abs(U[j:, j])))
        if not U[p, j]:
            raise SingularSystem(f"zero pivot in column {j} after row equilibration")
        U[[j, p]] = U[[p, j]]
        perm[[j, p]] = perm[[p, j]]
        l = (U[j + 1:, j] << F) // U[j, j]
        U[j + 1:, j] = l  # the multipliers, reused by _substitute
        nz = np.flatnonzero(l)
        U[nz + j + 1, j + 1:] -= np.outer(l[nz], U[j, j + 1:]) >> F
    return U, perm


def _substitute(U, perm, c) -> np.ndarray:
    """Integers z with A_int z = c * 2**F, through the factors of `_factor`."""
    F = mp.prec + _GUARD_BITS
    n = len(c)
    c = c[perm]
    for j in range(n - 1):
        c[j + 1:] -= (U[j + 1:, j] * c[j]) >> F
    z = np.zeros(n, dtype=object)
    for k in range(n - 1, -1, -1):
        z[k] = ((c[k] << F) - U[k, k + 1:].dot(z[k + 1:])) // U[k, k]
    return z


def _refined(b, row, apply, solve) -> tuple:
    """The solution w of A w = b and its residual A w - b, both as mpf, from
    one solve and one correction by the exact integer residual.

    `row` holds A's row exponents (`_row_scaled`), `apply(v)` is the exact
    integer product of the row-scaled A with v, and `solve(c)` gives
    integers z with (row-scaled A) z = c * 2**F.
    """
    F = mp.prec + _GUARD_BITS
    b_sign, b_man, b_exp, _ = _mantissas(b)

    def solution(sign, man, e):
        """The solution for the row-scaled right-hand side (-1)**sign * man * 2**e."""
        scale = F - max((int(k) + v.bit_length() for v, k in zip(man, e) if v), default=F)
        z = solve(_scaled(sign, man, e + scale))
        return [mpmath.ldexp(z_k, -F - scale) for z_k in z]

    def residual(w):
        """b - A w, row-scaled and split like a right-hand side of solution."""
        w_sign, w_man, w_exp, w_bc = _mantissas(w)
        E = F - int(_mag(w_exp, w_bc, F))  # w * 2**E: integers of F bits
        r = _scaled(b_sign, b_man, b_exp + row + E) - apply(_scaled(w_sign, w_man, w_exp + E))
        return r < 0, np.abs(r), np.full(len(r), -E)

    w = solution(b_sign, b_man, b_exp + row)
    w = [w_k + d_k for w_k, d_k in zip(w, solution(*residual(w)))]
    sign, man, e = residual(w)
    errors = [mpmath.ldexp(m if s else -m, k) for s, m, k in zip(sign, man, (e - row).tolist())]
    return w, np.array(errors, dtype=object)


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
    row, A_int = _row_scaled(A)
    U, perm = _factor(A_int)
    return _refined(b, row, A_int.dot, lambda c: _substitute(U, perm, c))


def _solve_modes(A0, blocks, b) -> tuple:
    """Solve sum_p (I[j, p] A0 + sum_(N, B) N[j, p] B) X_p = b_j for every
    mode j < m, where each N is a strictly upper triangular (m, m) integer
    matrix and A0 and each B are (n, n).

    Returns X and the residual, both (m, n) mpf.  This is `solve_square` on
    the block upper-triangular system of order m*n: A0 is row-scaled and
    factored once; the rows of each B take A0's row exponents; a solve runs
    the modes from m-1 down to 0, each through A0's factors, after taking
    the higher modes' B terms from its right-hand side; the residual is the
    exact integer product of the same blocks.
    """
    F = mp.prec + _GUARD_BITS
    m, n = b.shape
    row, A_int = _row_scaled(A0)
    U, perm = _factor(A_int)
    blocks = [(N, _row_scaled(B, row)[1]) for N, B in blocks]

    def apply(v):
        V = v.reshape(m, n)
        out = V.dot(A_int.T)
        for N, B in blocks:
            out += N.dot(V.dot(B.T))
        return out.ravel()

    def solve(c):
        c = c.reshape(m, n).copy()
        z = np.empty_like(c)
        for j in range(m - 1, -1, -1):
            z[j] = _substitute(U, perm, c[j])
            for N, B in blocks:
                c[:j] -= np.outer(N[:j, j], B.dot(z[j])) >> F
        return z.ravel()

    X, errors = _refined(b.ravel(), np.tile(row, m), apply, solve)
    return np.array(X, dtype=object).reshape(m, n), errors.reshape(m, n)


def _legendre_derivative(m: int) -> np.ndarray:
    """(m, m) integers D with P_p' = sum_j D[j, p] P_j: 2j + 1 where p - j
    is odd and positive, zero elsewhere (strictly upper triangular)."""
    j, p = np.indices((m, m))
    return np.where((p > j) & ((p - j) % 2 == 1), 2 * j + 1, 0).astype(object)


def _mode_system(grid) -> Optional[tuple]:
    """The rectangle's collocation system in x-Legendre modes, the arguments
    of `_solve_modes`; None unless every term coefficient is equal along x
    at each t-node, every side condition spans the x-nodes ("x": "*"), and
    the x-basis count is the number of x-nodes.

    Each (equation, t-node) group of rows and each side condition's rows
    are projected onto P_0 .. P_{m-1} by the m-point Gauss rule on the
    x-nodes, exact at these degrees, so the solution is unchanged.  In mode
    coordinates the identity in x acts as I and an x-derivative of order o
    as D**o (2/width)**o, D the Legendre differentiation matrix.  A0 holds
    the terms without an x-derivative and the side rows, B_o the terms of
    x-order o; both come from 1-D t-tables (`BasisSpec.values`), and only
    the right-hand sides and the side values pass through the rule.
    """
    if len(grid.specs) != 2:
        return None
    (spec_x, spec_t), (x_nodes, t_nodes) = grid.specs, grid.nodes
    m, n_t, d_t, k = len(x_nodes), len(t_nodes), spec_t.degree_count, grid.k
    problem = grid.problem
    if spec_x.degree_count != m or any(sc.coords[0] is not None for sc in problem.side_conditions):
        return None
    x, t = grid.points.T
    blocks = {0: np.zeros((k * d_t, k * d_t), dtype=object)}  # x-order -> block
    tables = {}  # (x-order, t-order) -> (n_t, d_t) t-table times (2/width)**(x-order)
    for i, eq in enumerate(problem.equations):
        for term in eq.terms:
            coeffs = term.coeff(x, t).reshape(m, n_t)
            if not (coeffs == coeffs[0]).all():
                return None
            op = term.op
            o_x = op.order if isinstance(op, Derivative) and op.var == "x" else 0
            o_t = op.order if isinstance(op, Derivative) and op.var == "t" else 0
            if (o_x, o_t) not in tables:
                tables[o_x, o_t] = spec_t.values(t_nodes, o_t).T * (2 / spec_x.width) ** o_x
            block = blocks.setdefault(o_x, np.zeros_like(blocks[0]))
            col = term.target * d_t
            block[i * n_t:(i + 1) * n_t, col:col + d_t] += coeffs[0][:, None] * tables[o_x, o_t]
    A0 = blocks.pop(0)
    for s, sc in enumerate(problem.side_conditions):
        col = sc.target * d_t
        A0[k * n_t + s, col:col + d_t] = spec_t.values(np.array([sc.coords[1]]), sc.order)[:, 0]
    D = _legendre_derivative(m)
    pairs = [(reduce(np.dot, [D] * o), B) for o, B in blocks.items()]

    # Q[j, g] = (2j + 1)/2 w_g P_j(xi_g), w_g = 2 / ((1 - xi_g^2) P_m'(xi_g)^2)
    # the Gauss weights: the projection onto P_j
    xi = shift_to_canonical(x_nodes, spec_x)
    P = legendre_table(m + 1, xi, 1)
    Q = P[0][:m] * np.arange(1, 2 * m, 2)[:, None] / ((1 - xi * xi) * P[1][m] ** 2)
    rhs = np.array([eq.rhs(x, t) for eq in problem.equations]).reshape(k, m, n_t)
    values = np.array([side.value for side in grid.sides], dtype=object).reshape(-1, m)
    b = np.concatenate([np.matmul(Q, rhs).swapaxes(0, 1).reshape(m, k * n_t), Q.dot(values.T)], axis=1)
    return A0, pairs, b


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
    the gamma -> infinity limit: in x-Legendre modes on a rectangle that
    allows it (`_mode_system`), by `solve_square` on Z^T otherwise.  The
    model's `problem` is the mpf rebuild.
    """
    if isinstance(digits, bool) or not isinstance(digits, Integral) or digits < 15:
        raise ValidationError(f"digits must be an integer at least 15, got {digits!r}")
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
        grid = build_grid(mp_problem, config or SolverConfig())
        if grid.k * grid.D != grid.n_constraints:
            raise ValidationError(
                f"collocation system is not square ({grid.n_constraints} constraints, "
                f"{grid.k * grid.D} coefficients); adjust degree so counts balance"
            )
        system = _mode_system(grid)
        if system is None:
            Z, y = assemble(grid)
            w, errors = solve_square(Z.T, y)
            weights = np.array(w, dtype=object).reshape(grid.k, -1)
        else:
            X, errors = _solve_modes(*system)  # X[p, u * d_t + q]: weight of P_p(x) phi_q(t) in u
            weights = X.reshape(len(X), grid.k, -1).swapaxes(0, 1).reshape(grid.k, -1)
            errors = errors.ravel()
    return InterpolantModel(weights=weights, errors=errors, grid=grid, digits=digits)
