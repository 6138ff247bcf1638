"""Legendre polynomial machinery: evaluation, roots, quadrature, shifted bases.

Everything is built on the three-term recurrence

    (n + 1) P_{n+1}(x) = (2n + 1) x P_n(x) - n P_{n-1}(x),

which is numerically stable on [-1, 1] for every degree used here.
`legendre_table` carries the recurrence and its derivatives for a whole
basis at once, in double precision or on numpy object arrays of mpmath
`mpf`.  `BasisSpec.values` composes it with the map onto [-1, 1] and the
chain-rule factor; every operator table of the solver is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "BasisSpec",
    "QuadratureRule",
    "legendre_eval",
    "legendre_table",
    "legendre_roots",
    "gauss_quadrature",
    "shift_to_canonical",
    "shift_from_canonical",
]

_ROOT_TOL = 1e-14
_ROOT_MAX_ITERS = 100
_SHIFT_SLACK = 1e-12


@dataclass(frozen=True)
class BasisSpec:
    """A shifted Legendre basis: P_0 .. P_{degree_count-1} composed with the
    affine map taking [lo, hi] onto [-1, 1]."""

    degree_count: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.degree_count < 1:
            raise DomainError("basis needs at least one function")
        if not self.hi > self.lo:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def checked(self, x) -> np.ndarray:
        """x as numbers (float, or mpf); DomainError naming the points that
        lie outside [lo, hi] by more than 1e-12."""
        arr = _as_numbers(x)
        outside = (arr < self.lo - _SHIFT_SLACK) | (arr > self.hi + _SHIFT_SLACK)
        if np.any(outside):
            raise DomainError(f"point {arr[outside]} outside [{self.lo}, {self.hi}]")
        return arr

    def values(self, x, order: int = 0) -> np.ndarray:
        """(degree_count,) + shape(x) array of the order-th derivative of
        every basis function at the points x of [lo, hi]: the Legendre table
        at the mapped points times the chain-rule factor (2 / width)^order."""
        table = legendre_table(self.degree_count, shift_to_canonical(x, self), order)
        return table[order] * (2.0 / self.width) ** order


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on the canonical interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def mapped(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Affinely map the rule onto [lo, hi]."""
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        return mid + half * self.nodes, half * self.weights


def legendre_eval(n: int, x):
    """Evaluate P_n(x) by the three-term recurrence.

    `x` may be a scalar or an ndarray; the result has the same shape.
    """
    if n < 0:
        raise DomainError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def legendre_table(count: int, x, order: int = 0) -> list[np.ndarray]:
    """Values of P_j^(r) for j < count and r <= order.

    Returns a list indexed by derivative order; each entry is an ndarray of
    shape (count,) + shape(x).  This is the workhorse used by the collocation
    assembly, which needs whole columns of basis values at once.  An object
    array of mpmath `mpf` values is evaluated in their arithmetic and yields
    object arrays of `mpf`; any other input is evaluated in double precision.
    """
    x = np.atleast_1d(_as_numbers(x))
    zero = x - x  # zeros of the input's number type, broadcast to each degree
    table = [np.repeat(zero[None], count, axis=0) for _ in range(order + 1)]
    table[0][0] = zero + 1
    if count == 1:
        return table
    table[0][1] = x
    if order >= 1:
        table[1][1] = zero + 1
    for k in range(1, count - 1):
        for r in range(order + 1):
            lower = r * table[r - 1][k] if r else 0.0
            table[r][k + 1] = (
                (2 * k + 1) * (x * table[r][k] + lower) - k * table[r][k - 1]
            ) / (k + 1)
    return table


def _as_numbers(x) -> np.ndarray:
    """x as an array: object arrays (of mpf) pass through, anything else is float."""
    x = np.asarray(x)
    return x if x.dtype == object else x.astype(float)


def legendre_roots(m: int) -> np.ndarray:
    """The m roots of P_m, ascending, by Newton iteration.

    Initial guesses are the Chebyshev-like estimates
    cos(pi (4k - 1) / (4m + 2)), k = 1..m.  Iteration stops when the update
    falls below 1e-14 in absolute value; exceeding 100 iterations raises
    NonConvergence.  Symmetry about the origin is enforced exactly by
    averaging mirrored pairs.  The result must pass |P_m / P_m'| <= 1e-13,
    the Newton step left (|P_m| alone scales with |P_m'|, which grows like m^2).
    """
    if m < 1:
        raise DomainError("need at least one root")
    k = np.arange(1, m + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * m + 2))
    for _ in range(_ROOT_MAX_ITERS):
        step = legendre_eval(m, x) / legendre_table(m + 1, x, 1)[1][m]
        x = x - step
        if np.max(np.abs(step)) <= _ROOT_TOL:
            break
    else:
        raise NonConvergence(f"Newton iteration for P_{m} roots stalled")
    x = 0.5 * (x - x[::-1])
    x = np.sort(x)
    resid = np.max(np.abs(legendre_eval(m, x) / legendre_table(m + 1, x, 1)[1][m]))
    if resid > 1e-13:
        raise NonConvergence(f"P_{m} root residual |P_m/P_m'| {resid:.3e} exceeds 1e-13")
    return x


@lru_cache(maxsize=64)
def gauss_quadrature(m: int) -> QuadratureRule:
    """m-point Gauss-Legendre rule on [-1, 1].

    Weights  w_k = 2 / ((1 - x_k^2) P_m'(x_k)^2);  exact for polynomials of
    degree <= 2m - 1.  The rule is shared between callers and its arrays
    are read-only.
    """
    x = legendre_roots(m)
    dp = legendre_table(m + 1, x, 1)[1][m]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(nodes=x, weights=w)


def shift_to_canonical(x, spec: BasisSpec):
    """Map physical coordinates in [spec.lo, spec.hi] to [-1, 1].

    Points outside the interval by more than 1e-12 raise DomainError.
    """
    arr = spec.checked(x)
    out = (2.0 * arr - spec.lo - spec.hi) / spec.width
    return out if out.ndim else out.item()


def shift_from_canonical(s, spec: BasisSpec):
    """Inverse of `shift_to_canonical`: [-1, 1] back to [spec.lo, spec.hi]."""
    arr = _as_numbers(s)
    if np.any(arr < -1.0 - _SHIFT_SLACK) or np.any(arr > 1.0 + _SHIFT_SLACK):
        raise DomainError(f"canonical point {s} outside [-1, 1]")
    out = 0.5 * (spec.width * arr + spec.lo + spec.hi)
    return out if out.ndim else out.item()
