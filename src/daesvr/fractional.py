"""Caputo fractional derivatives of the shifted Legendre basis: a
Gauss-Jacobi rule and the L1 finite-difference scheme.

For 0 < a < 1 and base point lo, substituting s = lo + tau (1 + z) / 2,
tau = x - lo, in the Caputo integral gives

    D^a u(x) = (tau/2)^(1-a) / Gamma(1-a) * int_{-1}^{1} (1 - z)^(-a) u'(s(z)) dz,

a Jacobi-weighted integral of u'.  An n-node Gauss-Jacobi rule for the
weight (1 - z)^(-a) is exact when u' is a polynomial of degree below 2n, so
with n = d//2 + 2 nodes it is exact on every basis function P_j, j < d, at
any degree.  `caputo_table` evaluates the whole basis at every point with one
Legendre table over all quadrature nodes.

`caputo_rule` builds the rule in numpy (Golub-Welsch, then Newton): the
nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
P_n^(-a,0), refined by Newton steps on its three-term recurrence, and the
weights are the Christoffel numbers, taken from the same recurrence at the
refined nodes.  Against mpmath's 50-digit rule for a in {0.25, 0.5, 0.75,
0.9} and n <= 40 the nodes are within 2.4e-16 and the weights within
5e-14 relative; the tests hold them to 4.4e-16 and 1e-12.

The L1 scheme is a piecewise-linear quadrature of the Caputo integral on a
uniform grid of [lo, x]; its truncation order is 2 - a.  `caputo_l1_table`
samples the basis on the grids of all points with one Legendre table, and
one `caputo_l1` call contracts the samples of every point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import DomainError
from .legendre import BasisSpec

__all__ = [
    "caputo_rule",
    "caputo_table",
    "caputo_l1",
    "caputo_l1_table",
]

NEWTON_STEPS = 2  # refinements of the eigenvalue nodes of caputo_rule


def _jacobi_recurrence(alpha: float, n: int):
    """(A, B, C) with P_{k+1} = (A[k] z + B[k]) P_k - C[k] P_{k-1}, k < n,
    for the Jacobi polynomials P_k = P_k^(-alpha, 0), P_0 = 1."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k - alpha
    den = 2.0 * (k + 1.0) * (k + 1.0 - alpha)
    return ((s + 1.0) * (s + 2.0) / den,
            (s + 1.0) * alpha * alpha / (den * s),
            2.0 * (k - alpha) * k * (s + 2.0) / (den * s))


def _jacobi_values(z: np.ndarray, alpha: float, recurrence):
    """P_n(z), P_n'(z) and sum_{k<n} (2k + 1 - alpha) P_k(z)^2 for the n
    steps of `_jacobi_recurrence(alpha, n)`."""
    p_prev, p = np.zeros_like(z), np.ones_like(z)
    dp_prev, dp = np.zeros_like(z), np.zeros_like(z)
    total = np.zeros_like(z)
    for k, (a, b, c) in enumerate(zip(*recurrence)):
        total += (2 * k + 1 - alpha) * p * p
        p_prev, p, dp_prev, dp = (p, (a * z + b) * p - c * p_prev,
                                  dp, (a * z + b) * dp + a * p - c * dp_prev)
    return p, dp, total


@lru_cache(maxsize=64, typed=True)  # typed: True and 2.0 hash like 1 and 2 but are refused
def caputo_rule(alpha: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule (fractions, weights) for the Caputo integral, 0 < alpha < 1:

        D^a u(x) ~ tau^(1-a) * sum_k weights[k] u'(lo + tau * fractions[k]),

    tau = x - lo, exact when u' is a polynomial of degree below 2 * nodes.
    The nodes z on [-1, 1] are the eigenvalues of the symmetric Jacobi
    matrix of P_n^(-a,0), refined by NEWTON_STEPS Newton steps on its
    recurrence.  The weights are the Christoffel numbers
    1 / sum_{k<n} P_k(z)^2 / h_k, h_k = 2^(1-a) / (2k + 1 - a) the norms
    for the weight (1 - z)^(-a), times the substitution's 2^(a-1)/Gamma(1-a):
    1 / (Gamma(1-a) sum_{k<n} (2k + 1 - a) P_k(z)^2).  Against a 50-digit
    rule, for a in [0.25, 0.9] and n <= 40, the nodes z are within 2.4e-16
    and the weights within 5e-14 relative.  The arrays are shared between
    callers and read-only.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"Gauss-Jacobi Caputo rule requires 0 < alpha < 1, got {alpha}")
    if isinstance(nodes, bool) or not isinstance(nodes, Integral) or nodes < 1:
        raise DomainError(f"Gauss-Jacobi Caputo rule needs an integer number of nodes >= 1, got {nodes!r}")
    recurrence = A, B, C = _jacobi_recurrence(alpha, nodes)
    off = np.sqrt(C[1:] / (A[:-1] * A[1:]))
    z = np.linalg.eigvalsh(np.diag(-B / A) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(NEWTON_STEPS):
        p, dp, _ = _jacobi_values(z, alpha, recurrence)
        z = z - p / dp
    total = _jacobi_values(z, alpha, recurrence)[2]
    fractions = 0.5 * (z + 1.0)
    weights = 1.0 / (math.gamma(1.0 - alpha) * total)
    fractions.setflags(write=False)
    weights.setflags(write=False)
    return fractions, weights


def _offsets(spec: BasisSpec, points) -> np.ndarray:
    """tau = point - spec.lo, clipped at 0; points outside [spec.lo, spec.hi] raise."""
    return np.maximum(spec.checked(np.asarray(points, dtype=float)) - spec.lo, 0.0)


def caputo_table(spec: BasisSpec, alpha: float, points) -> np.ndarray:
    """(n_points, degree_count) matrix of D^alpha phi_j(point), base point spec.lo.

    Exact up to rounding on the shifted Legendre basis: the rule has
    degree_count//2 + 2 nodes, and phi_j' has degree below degree_count.
    """
    tau = _offsets(spec, points)
    fractions, weights = caputo_rule(alpha, spec.degree_count // 2 + 2)
    dphi = spec.values(spec.lo + np.outer(tau, fractions), 1)
    return tau[:, None] ** (1.0 - alpha) * (dphi @ weights).T


def caputo_l1(samples, lo: float, x: float, alpha: float):
    """L1 approximation of the Caputo derivative of order alpha at x.

    The samples h_k are taken on the uniform grid lo = x_0 < ... < x_n = x
    that their count implies, with spacing dx = x_1 - x_0.  With

        g_k = ((x - x_k)^(1-a) - (x - x_{k+1})^(1-a)) / (Gamma(2-a) dx),

    the telescoped sum over sample values reduces to

        sum_{k=0}^{n-1} g_k (h_{k+1} - h_k),

    i.e. the standard L1 quadrature of the fractional integral of the
    piecewise-linear interpolant.  Truncation error is O(dx^(2-a)).  Samples
    of several functions may be stacked along the leading axes (the last
    axis runs over the grid); the result then has the leading shape.  An x
    of shape (n,) gives samples (n, d, n_grid) one upper limit per matrix.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"L1 scheme requires 0 < alpha < 1, got {alpha}")
    h = np.asarray(samples, dtype=float)
    x = np.asarray(x, dtype=float)
    if h.ndim < 1 or h.shape[-1] < 2 or not np.all(x > lo):
        raise DomainError(f"L1 scheme needs two or more samples on [{lo}, {x}], got {h.shape}")
    grid = np.linspace(lo, x, h.shape[-1], axis=-1)
    x, beta = x[..., None], 1.0 - alpha
    g = ((x - grid[..., :-1]) ** beta - (x - grid[..., 1:]) ** beta) / (
        math.gamma(2.0 - alpha) * (grid[..., 1:2] - grid[..., :1])
    )
    out = (np.diff(h) @ g[..., None])[..., 0]
    return out if out.ndim else float(out)


def caputo_l1_table(spec: BasisSpec, alpha: float, points, intervals: int) -> np.ndarray:
    """(n_points, degree_count) matrix of the L1 approximation of D^alpha phi_j.

    Each point gets its own uniform grid of `intervals` steps on [spec.lo, point];
    one Legendre table covers the grids of all points.
    """
    points = np.asarray(points, dtype=float)
    out = np.zeros((points.size, spec.degree_count))
    live = _offsets(spec, points) > 0.0
    grids = np.linspace(spec.lo, points[live], intervals + 1, axis=1)
    samples = np.moveaxis(spec.values(grids), 1, 0)  # (live point, basis function, grid)
    out[live] = caputo_l1(samples, spec.lo, points[live], alpha)
    return out
