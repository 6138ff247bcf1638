import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath import mpf, workdps
from numpy.testing import assert_allclose

import daesvr.fractional
import daesvr.legendre
from daesvr.errors import DomainError
from daesvr.fractional import caputo_l1, caputo_l1_table, caputo_rule, caputo_table
from daesvr.legendre import (
    BasisSpec,
    legendre_eval,
    legendre_roots,
    shift_from_canonical,
    shift_to_canonical,
)

from caputo_reference import caputo_monomial

UNIT = BasisSpec(8, 0.0, 1.0)


class TestCaputoMonomial:
    def test_annihilates_constants(self):
        assert caputo_monomial(0, 0.5, 1.0) == 0.0
        assert caputo_monomial(0, 0.25, 0.3) == 0.0

    def test_linear_half_order(self):
        # Gamma(2)/Gamma(1.5) * 1 = 2/sqrt(pi)
        assert_allclose(caputo_monomial(1, 0.5, 1.0), 1.1283791670955126, rtol=1e-13)

    def test_quadratic_half_order(self):
        # Gamma(3)/Gamma(2.5) * 0.25^1.5
        assert_allclose(caputo_monomial(2, 0.5, 0.25), 0.18806319451591874, rtol=1e-13)

    def test_low_powers_vanish(self):
        assert caputo_monomial(1, 1.5, 0.7) == 0.0

    def test_guards(self):
        with pytest.raises(DomainError):
            caputo_monomial(2, 0.5, -0.1)
        with pytest.raises(DomainError):
            caputo_monomial(2, 1.0, 0.5)
        with pytest.raises(DomainError):
            caputo_monomial(2, -0.5, 0.5)


def caputo_of_series(coeffs, alpha, spec, x):
    """D^alpha of the polynomial sum_j coeffs[j] phi_j at x, through the table."""
    row = caputo_table(spec, alpha, [x])[0]
    return float(row[: len(coeffs)] @ np.asarray(coeffs, dtype=float))


def caputo_half_reference(j, x):
    """D^(1/2) of the shifted Legendre P_j on [0, 1] at x, to 30 digits.

    P_j(2t - 1) = sum_k (-1)^(j+k) C(j,k) C(j+k,k) t^k, and for k >= 1
    D^(1/2) t^k = 4^k k!^2 / ((2k)! sqrt(pi)) t^(k - 1/2); the sum over k is
    taken exactly in rationals, so no cancellation is left.
    """
    t = Fraction(x)
    total = sum(
        (-1) ** (j + k) * math.comb(j, k) * math.comb(j + k, k)
        * Fraction(4**k * math.factorial(k) ** 2, math.factorial(2 * k)) * t**k
        for k in range(1, j + 1)
    )
    with workdps(30):
        return mpf(total.numerator) / total.denominator / mpmath.sqrt(mpmath.pi * mpf(x))


class TestCaputoPoly:
    """Caputo derivatives of Legendre-series polynomials through `caputo_table`."""

    def test_constant_vanishes(self):
        assert caputo_of_series([1.0], 0.5, UNIT, 0.8) == 0.0
        assert np.all(caputo_table(UNIT, 0.5, [0.1, 0.8])[:, 0] == 0.0)

    def test_identity_function(self):
        # t on [0,1] is (s+1)/2 in the canonical variable: P_0/2 + P_1/2
        got = caputo_of_series([0.5, 0.5], 0.5, UNIT, 1.0)
        assert_allclose(got, 2.0 / math.sqrt(math.pi), rtol=1e-13)

    def test_square_function(self):
        # t^2 on [0,1] is ((s+1)/2)^2; Gamma(3)/Gamma(2.5) * 0.64^1.5
        coeffs = np.polynomial.legendre.poly2leg([0.25, 0.5, 0.25])
        got = caputo_of_series(coeffs, 0.5, UNIT, 0.64)
        assert_allclose(got, 0.7703068447372032, rtol=1e-13)

    def test_matches_monomial_rule_termwise(self):
        # expand the series in powers of t by hand and apply the monomial rule
        rng = np.random.default_rng(3)
        c = rng.uniform(-1.0, 1.0, 6)
        in_s = np.polynomial.legendre.leg2poly(c)
        in_t = np.zeros(6)
        for k, ck in enumerate(in_s):
            for r in range(k + 1):
                in_t[r] += ck * math.comb(k, r) * 2.0**r * (-1.0) ** (k - r)
        alpha = 0.5
        for x in (0.2, 0.7, 1.0):
            want = math.fsum(qk * caputo_monomial(k, alpha, x) for k, qk in enumerate(in_t))
            assert_allclose(caputo_of_series(c, alpha, UNIT, x), want, rtol=1e-11, atol=1e-13)

    def test_offset_interval_base_point(self):
        # on [1, 3], tau = t - 1: the canonical s equals tau - 1, so
        # p(s) = s + 1 is exactly tau and D^0.5 tau = 2 sqrt(tau/pi)
        spec = BasisSpec(4, 1.0, 3.0)
        got = caputo_of_series([1.0, 1.0], 0.5, spec, 2.0)
        assert_allclose(got, 2.0 / math.sqrt(math.pi), rtol=1e-13)

    def test_below_base_point(self):
        with pytest.raises(DomainError):
            caputo_table(UNIT, 0.5, [0.5, -0.2])

    def test_base_point_row_vanishes(self):
        assert np.all(caputo_table(UNIT, 0.5, [0.0]) == 0.0)

    @pytest.mark.parametrize("m, bound", [(14, 1e-12), (30, 1e-12), (40, 5e-14)], ids=["14", "30", "40"])
    def test_matches_high_precision_reference(self, m, bound):
        spec = BasisSpec(m + 2, 0.0, 1.0)
        pts = shift_from_canonical(legendre_roots(m), spec)
        want = np.array([[float(caputo_half_reference(j, x)) for j in range(m + 2)] for x in pts])
        got = caputo_table(spec, 0.5, pts)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


class TestCaputoRule:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_exact_on_monomials(self, alpha):
        # u = t^k, u' = k t^(k-1): exact while k - 1 < 2 * nodes
        fractions, weights = caputo_rule(alpha, 4)
        tau = 0.7
        for k in range(1, 9):
            got = tau ** (1.0 - alpha) * (weights @ (k * (tau * fractions) ** (k - 1)))
            assert_allclose(got, caputo_monomial(k, alpha, tau), rtol=1e-13)

    def test_shared_arrays_are_read_only(self):
        fractions, weights = caputo_rule(0.5, 4)
        with pytest.raises(ValueError):
            weights[0] = 0.0
        assert 0.0 < fractions.min() and fractions.max() < 1.0

    def test_order_guard(self):
        with pytest.raises(DomainError):
            caputo_rule(1.5, 4)

    @pytest.mark.parametrize("nodes", [0, -1, 2.5, 2.0, True, "3"])
    def test_node_count_guard(self, nodes):
        # an empty rule would make every Caputo term read 0; 1 == True and
        # 2 == 2.0 share a hash, so the cached rules must not answer for them
        caputo_rule(0.5, 1)
        caputo_rule(0.5, 2)
        with pytest.raises(DomainError, match="integer number of nodes"):
            caputo_rule(0.5, nodes)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
    def test_matches_high_precision_rule(self, alpha):
        # mpmath's 50-digit Gauss-Jacobi rule for the weight (1 - z)^(-alpha),
        # carried to fractions (z + 1)/2 and Caputo weights w 2^(a-1)/Gamma(1-a)
        with workdps(50):
            a = mpf(alpha)
            scale = mpf(2) ** (a - 1) / mpmath.gamma(1 - a)
            for n in (1, 4, 16, 32, 40):
                z, w = mpmath.mp.gauss_quadrature(n, "jacobi", -a, 0)
                want = sorted(zip(z, w))
                fractions, weights = caputo_rule(alpha, n)
                for f, wt, (zk, wk) in zip(fractions, weights, want):
                    assert abs(2 * mpf(f) - 1 - zk) <= 4.4e-16, (n, zk)
                    assert abs(mpf(wt) / (wk * scale) - 1) <= 1e-12, (n, zk)


def test_caputo_solves_leave_scipy_special_out():
    # the Gauss-Jacobi rule is built in numpy, so self-checks and Caputo
    # solves never load scipy.special
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, daesvr\n"
        "for name, case in daesvr.CASES.items():\n"
        "    daesvr.self_check(name, daesvr.load_problem(name), case.probes)\n"
        "case = daesvr.CASES['example3']\n"
        "daesvr.report(daesvr.solve(daesvr.load_problem('example3'), case.config), case.probes)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"


class TestCaputoL1:
    def test_linear_function(self):
        t = np.linspace(0.0, 1.0, 1001)
        got = caputo_l1(t, 0.0, 1.0, 0.5)
        assert_allclose(got, 2.0 / math.sqrt(math.pi), atol=2e-3)

    def test_constant_annihilated(self):
        assert abs(caputo_l1(np.full(51, 3.7), 0.0, 1.0, 0.3)) <= 1e-12

    def test_linearity(self):
        t = np.linspace(0.0, 1.0, 65)
        h1, h2 = t**2, np.sin(t)
        lhs = caputo_l1(2.0 * h1 - 0.5 * h2, 0.0, 1.0, 0.4)
        rhs = 2.0 * caputo_l1(h1, 0.0, 1.0, 0.4) - 0.5 * caputo_l1(h2, 0.0, 1.0, 0.4)
        assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_convergence_order(self, alpha):
        # Richardson slope on t^2 should sit at 2 - alpha
        errs = []
        for m in (100, 200, 400, 800):
            t = np.linspace(0.0, 1.0, m + 1)
            got = caputo_l1(t**2, 0.0, 1.0, alpha)
            errs.append(abs(got - caputo_monomial(2, alpha, 1.0)))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        mean_slope = float(np.mean(slopes))
        assert abs(mean_slope - (2.0 - alpha)) <= 0.15

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_agreement_with_analytic(self, alpha):
        t = np.linspace(0.0, 1.0, 2001)
        got = caputo_l1(t**3, 0.0, 1.0, alpha)
        assert abs(got - caputo_monomial(3, alpha, 1.0)) <= 5e-3

    def test_stacked_samples(self):
        t = np.linspace(0.0, 1.0, 65)
        rows = np.stack([t, t**2, np.sin(t)])
        got = caputo_l1(rows, 0.0, 1.0, 0.4)
        assert got.shape == (3,)
        assert_allclose(got, [caputo_l1(r, 0.0, 1.0, 0.4) for r in rows], rtol=1e-14)

    def test_table_matches_per_function_loop(self):
        # the loop over basis functions the table replaced, kept as reference
        spec, alpha, intervals = BasisSpec(7, 0.5, 2.0), 0.3, 50
        pts = [0.5, 0.9, 1.6, 2.0]
        got = caputo_l1_table(spec, alpha, pts, intervals)
        want = np.zeros((len(pts), spec.degree_count))
        for g, p in enumerate(pts[1:], start=1):
            s = shift_to_canonical(np.linspace(spec.lo, p, intervals + 1), spec)
            for j in range(spec.degree_count):
                want[g, j] = caputo_l1(legendre_eval(j, s), spec.lo, p, alpha)
        assert np.all(got[0] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_table_makes_one_legendre_table_call(self, monkeypatch):
        # the grids of all points share one table, not one table per point
        calls = []
        table = daesvr.legendre.legendre_table

        def counted_table(*args, **kwargs):
            calls.append(args[0])
            return table(*args, **kwargs)

        spec = BasisSpec(11, 0.0, 1.0)
        pts = shift_from_canonical(legendre_roots(10), spec)
        monkeypatch.setattr(daesvr.legendre, "legendre_table", counted_table)
        got = caputo_l1_table(spec, 0.5, pts, 400)
        assert calls == [11]
        assert got.shape == (10, 11) and np.all(got[:, 1:] != 0.0)

    def test_table_makes_one_l1_call(self, monkeypatch):
        # the samples of every point are contracted in one call, with one
        # upper limit per point, and match the per-point calls bit for bit
        spec, alpha, intervals = BasisSpec(9, 0.0, 1.0), 0.4, 200
        pts = np.concatenate([[0.0], shift_from_canonical(legendre_roots(8), spec), [1.0]])
        grids = np.linspace(spec.lo, pts[1:], intervals + 1, axis=1)
        want = np.zeros((pts.size, spec.degree_count))
        for g, p in enumerate(pts[1:], start=1):
            want[g] = caputo_l1(spec.values(grids[g - 1]), spec.lo, p, alpha)
        calls = []
        l1 = daesvr.fractional.caputo_l1
        monkeypatch.setattr(daesvr.fractional, "caputo_l1", lambda *a: calls.append(a[2]) or l1(*a))
        got = caputo_l1_table(spec, alpha, pts, intervals)
        assert len(calls) == 1 and calls[0].shape == (pts.size - 1,)
        np.testing.assert_array_equal(got, want)

    def test_stacked_upper_limits(self):
        t = np.linspace(0.0, 1.0, 33)
        x = np.array([0.5, 1.0, 2.0])
        h = np.stack([np.stack([s, s**2]) for s in np.outer(x, t)])  # (3, 2, 33)
        got = caputo_l1(h, 0.0, x, 0.6)
        assert got.shape == (3, 2)
        np.testing.assert_array_equal(got, [caputo_l1(h[i], 0.0, x[i], 0.6) for i in range(3)])

    def test_sample_count_guard(self):
        with pytest.raises(DomainError):
            caputo_l1(np.zeros(1), 0.0, 1.0, 0.5)

    def test_empty_interval_guard(self):
        with pytest.raises(DomainError):
            caputo_l1(np.zeros(11), 1.0, 1.0, 0.5)

    def test_order_guard(self):
        with pytest.raises(DomainError):
            caputo_l1(np.zeros(11), 0.0, 1.0, 1.5)
