"""Closed-form Caputo derivatives of monomials: the reference that the
fractional tables, the model's Caputo evaluation and the L1 scheme are
checked against."""

import math

from daesvr.errors import DomainError


def caputo_monomial(k: int, alpha: float, x: float) -> float:
    """Caputo derivative of order alpha of t^k, base point 0, evaluated at x.

    Powers below ceil(alpha) are annihilated.
    """
    if not alpha > 0.0 or float(alpha).is_integer():
        raise DomainError(f"fractional order must be positive and non-integer, got {alpha}")
    if k < 0:
        raise DomainError("monomial power must be non-negative")
    if x < 0.0:
        raise DomainError(f"evaluation point must be >= 0, got {x}")
    if k < math.ceil(alpha):
        return 0.0
    return math.gamma(k + 1) / math.gamma(k + 1 - alpha) * x ** (k - alpha)
