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
fractional and integral terms stay on the double precision path.  Working
precision has a ceiling of its own, which no error reports yet: at the
default 40 digits the rectangle benchmark's error stops falling near
m = 12-16 and is wrong beyond m ~ 24, where 80 digits keep it falling.

The pipeline is the regular solver's own, `build_grid(problem, config)` ->
`assemble(grid)` -> a kernel, and the mpf path has one kernel,
`_solve_modes`: `schema` builds the problem from its source description
with the `MPF` vocabulary, so the domain, side points and values, constant
fields and every expression (exact solutions included) are `mpf`;
`build_grid` takes the Gauss nodes at working precision, refined once per
(m, precision), and `assemble` runs unchanged on numpy object arrays of
`mpf`.  The square system Z^T w = y is the kernel's one mode with no
blocks, (Z^T, [], [y]).

Some rectangles skip `assemble`: those whose term coefficients are equal
along x at each t-node, whose side conditions span every x-node, and whose
x-basis count is the number of x-nodes (the default counts).  Their rows
are projected onto the x-Legendre modes P_0 .. P_{m-1} by the m-point Gauss
rule, which is exact at these degrees and so leaves the solution as it is
(`_mode_system`).  In modes the identity in x is I and an x-derivative is
the integer Legendre differentiation matrix, strictly upper triangular, so
the system is I (x) A0 + sum_o N_o (x) B_o with one k*d_t block A0 on the
diagonal: the kernel factors A0 once and back-substitutes the modes from
the highest down.  The blocks come from one t-table; only the right-hand
sides and side values pass through the Gauss rule.

The result is the regular solver's `TrainedModel` with `mpf` weights, an
object array of shape (k, D), and the mpf grid it was solved on as `grid`
(so `problem` is the mpf problem); `InterpolantModel` adds only the working
precision `digits`.  Evaluation and `solver.report` then run in `mpf` at
those digits, at `mpf` coordinates and with the exact solutions in `mpf`,
so the reported errors carry no double-precision rounding.  `errors` holds
the residual A w - y of the system the kernel solved: the collocation
system, or its projection onto the x-modes, mode-major.

The kernel runs on Python integers: each row is scaled by a power of two
and read once from the entries' mpf mantissas into fixed point with 128
bits beyond working precision (`_row_scaled`); Gaussian elimination with
partial pivoting updates only the rows whose multiplier is nonzero (about a
quarter on the dense rectangle, where Z is sparse; `_factor`); the
residual, an exact integer product of those row-scaled integers with the
weights, drives one correction solve through the same factors and is
returned as `errors`; and the mode projection and every evaluation are
exact integer products rounded once per entry (`_dot`).
Elimination, substitution and the modes' block updates run on lists of
Python ints, the factors kept as the nonzero multipliers, the pivots and
the rows right of them: numpy object arrays would run the same integer
operations one at a time, plus a dispatch per call.  Each solution and
residual entry becomes an mpf by one exact conversion of its integer and
exponent (`_mpf`, with no rounding); `_dot` rounds its entries the same
way at working precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from numbers import Integral
from operator import mul
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import from_man_exp, fzero

from .errors import SingularSystem, ValidationError
from .expressions import MPF
from .legendre import _mp_gauss_quadrature, legendre_table, shift_to_canonical
from .model import Caputo, DaeProblem, Derivative, VolterraIntegral, is_linear
from .schema import _build
from .solver import SolverConfig, TrainedModel, assemble, build_grid

__all__ = ["InterpolantModel", "solve_interpolant"]


@dataclass
class InterpolantModel(TrainedModel):
    """A TrainedModel with mpf weights, evaluated at `digits` digits."""

    digits: int = field(kw_only=True)

    def _arithmetic(self):
        return workdps(self.digits)

    def _values_at(self, op, pts: np.ndarray) -> np.ndarray:
        """`values` contracted in exact integers (`_dot`), row by row."""
        with self._arithmetic():
            return _dot(self.weights, self.grid.operator_matrix(op, pts).T)


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
        raise ValidationError("extended-precision arithmetic needs finite entries")
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


def _dot(A, B) -> np.ndarray:
    """The product of the mpf matrices A and B, each entry rounded to mpf
    once from the exact product of A's rows and B's columns scaled into
    integers (`_row_scaled`): an entry depends only on its row and column."""
    (row, A_int), (col, B_int) = _row_scaled(A), _row_scaled(np.transpose(B))
    rounding = mp._prec_rounding
    rounded = np.frompyfunc(lambda man, e: _mpf(man, e, *rounding), 2, 1)
    return rounded(A_int.dot(B_int.T), -(row[:, None] + col).astype(object))


def _factor(A_int) -> tuple:
    """Gaussian elimination with partial pivoting of the row-scaled integers
    in fixed point with F fractional bits, touching only the rows with a
    nonzero multiplier.  Returns the factors as Python int lists: the row
    permutation, each row's nonzero multipliers as (column, multiplier)
    pairs, the pivots and each row's entries right of its pivot.  Raises
    SingularSystem on a zero pivot."""
    F = mp.prec + _GUARD_BITS
    U = A_int.tolist()
    n = len(U)
    perm = list(range(n))
    lower = [[] for _ in range(n)]
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(U[i][j]))  # the first largest, as argmax
        if not U[p][j]:
            raise SingularSystem(f"zero pivot in column {j} after row equilibration")
        U[j], U[p], lower[j], lower[p] = U[p], U[j], lower[p], lower[j]
        perm[j], perm[p] = perm[p], perm[j]
        pivot, tail = U[j][j], U[j][j + 1:]
        for i in range(j + 1, n):
            l = (U[i][j] << F) // pivot
            if l:
                lower[i].append((j, l))
                U[i][j + 1:] = [a - ((l * b) >> F) for a, b in zip(U[i][j + 1:], tail)]
    return perm, lower, [U[k][k] for k in range(n)], [U[k][k + 1:] for k in range(n)]


def _substitute(factors, c) -> list:
    """Integers z with A_int z = c * 2**F, through the factors of `_factor`:
    c[i] loses the truncated terms (l c[j]) >> F of its multipliers, then
    each z[k] is its row's exact sum divided by the pivot, from the last
    row up."""
    F = mp.prec + _GUARD_BITS
    perm, lower, pivots, upper = factors
    c = [c[i] for i in perm]
    for i, pairs in enumerate(lower):
        if pairs:
            c[i] -= sum([(l * c[j]) >> F for j, l in pairs])
    z = [0] * len(c)
    for k in range(len(c) - 1, -1, -1):
        z[k] = ((c[k] << F) - sum(map(mul, upper[k], z[k + 1:]))) // pivots[k]
    return z


def _mpf(man, exp, *rounding) -> mpf:
    """The mpf man * 2**exp: exact, or rounded as `rounding` = (prec, rnd) says."""
    return mp.make_mpf(from_man_exp(int(man), int(exp), *rounding))


def _solve_modes(A0, blocks, b) -> tuple:
    """Solve sum_p (I[j, p] A0 + sum_(N, B) N[j, p] B) X_p = b_j for every
    mode j < m to working precision, where each N is a strictly upper
    triangular (m, m) integer matrix and A0 and each B are (n, n).  A dense
    square system A w = b is the one mode with no blocks, (A, [], [b]).

    Returns X and its residual A X - b, both (m, n) mpf.  A0's rows are
    scaled by powers of two (`_row_scaled`) and factored once; the rows of
    each B take A0's row exponents.  A solve runs the modes from m-1 down
    to 0, each through A0's factors, after taking the higher modes' B terms
    from its right-hand side.  The residual is the exact integer product of
    the same row-scaled blocks with X put on a common exponent, so one
    correction solve by it leaves the residual accurate to about 2**-F of
    |A| |X|, F = mp.prec + 128.  Raises SingularSystem on a zero pivot.
    """
    F = mp.prec + _GUARD_BITS
    row, A_int = _row_scaled(A0)
    factors = _factor(A_int)
    blocks = [(N, _row_scaled(B, row)[1]) for N, B in blocks]
    b_sign, b_man, b_exp, _ = _mantissas(b)
    m = len(b_man)
    # each B's rows as (column, entry) pairs, and the nonzero N[p, j] per j
    sparse = [([[(q, v) for q, v in enumerate(r) if v] for r in B.tolist()],
               [[(p, N[p, j]) for p in range(j) if N[p, j]] for j in range(m)]) for N, B in blocks]

    def solution(sign, man, e):
        """X for the row-scaled right-hand side (-1)**sign * man * 2**e."""
        scale = F - max((int(k) + v.bit_length() for v, k in zip(man.flat, e.flat) if v), default=F)
        c = _scaled(sign, man, e + scale).tolist()
        for j in range(m - 1, -1, -1):
            c[j] = z = _substitute(factors, c[j])
            for B, higher in sparse:
                if higher[j]:
                    Bz = [sum([v * z[q] for q, v in r]) for r in B]
                    for p, N_pj in higher[j]:
                        c[p] = [a - ((N_pj * y) >> F) for a, y in zip(c[p], Bz)]
        return np.array([[_mpf(z_k, -F - scale) for z_k in z] for z in c], dtype=object)

    def residual(X):
        """b - A X, row-scaled and split like a right-hand side of `solution`."""
        x_sign, x_man, x_exp, x_bc = _mantissas(X)
        E = F - int(_mag(x_exp, x_bc, F))  # X * 2**E: integers of F bits
        V = _scaled(x_sign, x_man, x_exp + E)
        AV = V.dot(A_int.T)
        for N, B in blocks:
            AV += N.dot(V.dot(B.T))
        r = _scaled(b_sign, b_man, b_exp + row + E) - AV
        return r < 0, np.abs(r), np.full(r.shape, -E)

    X = solution(b_sign, b_man, b_exp + row)
    X = X + solution(*residual(X))
    sign, man, e = residual(X)
    errors = [_mpf(v if s else -v, k) for s, v, k in zip(sign.flat, man.flat, (e - row).ravel().tolist())]
    return X, np.array(errors, dtype=object).reshape(X.shape)


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
    x-order o; both come from one t-table.  Only the right-hand sides, on
    the open mesh of x-nodes by t-nodes, and the side values pass the rule.
    """
    if len(grid.specs) != 2:
        return None
    (spec_x, spec_t), (x_nodes, t_nodes) = grid.specs, grid.nodes
    m, n_t, d_t, k = len(x_nodes), len(t_nodes), spec_t.degree_count, grid.k
    problem, sides = grid.problem, grid.problem.side_conditions
    if spec_x.degree_count != m or any(sc.coords[0] is not None for sc in sides):
        return None
    x, t = x_nodes[:, None], t_nodes[None, :]
    terms = [(i, term, *(op.order if isinstance(op, Derivative) and op.var == v else 0 for v in "xt"))
             for i, eq in enumerate(problem.equations) for term in eq.terms for op in [term.op]]
    # one table to the highest t-order: the Gauss nodes (canonical t and x), then the sides' t
    rule = _mp_gauss_quadrature(m, mp.prec)
    side_t, at = np.unique(np.array([sc.coords[1] for sc in sides], dtype=object), return_inverse=True)
    top = max([o for *_, o in terms] + [sc.order for sc in sides])
    T = legendre_table(d_t, np.concatenate([rule.nodes, shift_to_canonical(side_t, spec_t)]), top)
    # Q[j, g] = (2j + 1)/2 w_g P_j(xi_g): the projection onto P_j
    Q = T[0][:m, :m] * (np.arange(1, 2 * m, 2)[:, None] * rule.weights / 2)
    T = [T_o * (2.0 / spec_t.width) ** o for o, T_o in enumerate(T)]  # as BasisSpec.values
    blocks = {0: np.zeros((k * d_t, k * d_t), dtype=object)}  # x-order -> block
    for i, term, o_x, o_t in terms:
        coeffs = term.coeff(x, t)
        if not (coeffs == coeffs[0]).all():
            return None
        part = T[o_t][:, :n_t].T * (2 / spec_x.width) ** o_x if o_x else T[o_t][:, :n_t].T
        c = coeffs[0][:, None]  # 1 and -1 taken exactly, as in `assemble`
        part = part if (c == 1).all() else -part if (c == -1).all() else c * part
        col = term.target * d_t
        cell = blocks.setdefault(o_x, np.zeros_like(blocks[0]))[i * n_t:(i + 1) * n_t, col:col + d_t]
        cell[...] = cell + part if cell.any() else part
    A0 = blocks.pop(0)
    for s, sc in enumerate(sides):
        A0[k * n_t + s, sc.target * d_t:(sc.target + 1) * d_t] = T[sc.order][:, n_t + at[s]]
    pairs = [(reduce(np.dot, [_legendre_derivative(m)] * o), B) for o, B in blocks.items()]
    rhs = np.stack([eq.rhs(x, t) for eq in problem.equations], axis=1).reshape(m, k * n_t)
    values = np.array([side.value for side in grid.sides], dtype=object).reshape(-1, m)
    return A0, pairs, _dot(Q, np.concatenate([rhs, values.T], axis=1))


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
    the gamma -> infinity limit, by one call of the kernel `_solve_modes`:
    in x-Legendre modes on a rectangle that allows it (`_mode_system`), and
    otherwise on Z^T as one mode with no blocks.  The model's `problem` is
    the mpf rebuild.
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
            system = Z.T, [], [y]
        X, errors = _solve_modes(*system)  # X[p, u * d + q]: weight of P_p(x) phi_q in u
        weights = X.reshape(len(X), grid.k, -1).swapaxes(0, 1).reshape(grid.k, -1)
    return InterpolantModel(weights=weights, errors=errors.ravel(), grid=grid, digits=digits)
