import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf, workdps, workprec
from numpy.testing import assert_allclose

import daesvr.legendre
from daesvr.errors import DomainError, NonConvergence
from daesvr.expressions import MPF
from daesvr.legendre import (
    BasisSpec,
    _mp_gauss_quadrature,
    gauss_quadrature,
    legendre_eval,
    legendre_roots,
    legendre_table,
    shift_from_canonical,
    shift_to_canonical,
)
from daesvr.schema import _build
from daesvr.solver import SolverConfig, build_grid


def legendre_sum(n, x):
    """Independent oracle: the explicit factorial form of P_n."""
    f = math.factorial
    terms = [
        (-1) ** v * f(2 * n - 2 * v) / (2**n * f(n - v) * f(n - 2 * v) * f(v)) * x ** (n - 2 * v)
        for v in range(n // 2 + 1)
    ]
    return math.fsum(terms)


class TestEval:
    def test_constant(self):
        assert legendre_eval(0, 0.3) == 1.0

    def test_linear(self):
        assert legendre_eval(1, 0.3) == 0.3

    def test_degree_five(self):
        # explicit-sum oracle: P_5(0.3) = 0.34538625
        assert_allclose(legendre_eval(5, 0.3), 0.34538625, rtol=1e-14)

    def test_against_explicit_sum(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1.0, 1.0, 100)
        for n in range(21):
            want = np.array([legendre_sum(n, x) for x in pts])
            assert_allclose(legendre_eval(n, pts), want, atol=1e-10)

    @pytest.mark.parametrize("n", range(31))
    def test_endpoints(self, n):
        assert_allclose(legendre_eval(n, 1.0), 1.0, rtol=1e-13)
        assert_allclose(legendre_eval(n, -1.0), (-1.0) ** n, rtol=1e-13)

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            legendre_eval(-1, 0.0)


class TestDeriv:
    """Derivative rows of `legendre_table`: P_n^(r) is table[r][n]."""

    def test_first_derivative(self):
        # P_5'(x) = (315 x^4 - 210 x^2 + 15) / 8
        x = 0.3
        want = (315 * x**4 - 210 * x**2 + 15) / 8
        assert_allclose(legendre_table(6, x, 1)[1][5], [want], rtol=1e-13)

    def test_second_derivative_quadratic(self):
        # P_2 = (3x^2 - 1)/2, so P_2'' = 3 everywhere
        assert_allclose(legendre_table(3, 0.7, order=2)[2][2], [3.0], rtol=1e-14)

    def test_order_above_degree_vanishes(self):
        assert np.all(legendre_table(4, 0.2, order=4)[4][3] == 0.0)

    def test_matches_expansion_derivative(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, 20)
        table = legendre_table(13, pts, 1)[1]
        for n in range(2, 13):
            dc = np.polynomial.legendre.legder(np.eye(n + 1)[n])
            want = np.polynomial.legendre.legval(pts, dc)
            assert_allclose(table[n], want, atol=1e-10)

    def test_scalar_gives_one_column(self):
        got = legendre_table(6, 0.3, 1)
        assert [rows.shape for rows in got] == [(6, 1), (6, 1)]
        assert_allclose(got[1][5], [-0.1685625], rtol=1e-14)

    def test_array_keeps_shape(self):
        x = np.array([[0.1, -0.5, 0.3], [0.9, 0.0, -1.0]])
        got = legendre_table(5, x, order=2)[2][4]
        assert got.shape == (2, 3)
        assert_allclose(got[0, 2], legendre_table(5, 0.3, order=2)[2][4][0], rtol=1e-14)

    def test_table_layout(self):
        t = legendre_table(4, np.array([0.1, -0.5]), order=1)
        assert t[0].shape == (4, 2)
        assert_allclose(t[0][2], legendre_eval(2, np.array([0.1, -0.5])))
        # P_3' = (15 x^2 - 3) / 2
        assert_allclose(t[1][3], [(15 * 0.01 - 3) / 2, (15 * 0.25 - 3) / 2], rtol=1e-14)


class TestExtendedPrecision:
    def test_table_stays_mpf(self):
        with workdps(40):
            x = np.array([mpf(1) / 3, mpf(-5) / 7], dtype=object)
            table = legendre_table(6, x, order=2)
            for rows in table:
                assert rows.dtype == object
                assert all(isinstance(v, mpf) for v in rows.flat)
            # P_2 = (3x^2 - 1)/2 and P_2'' = 3, exact at working precision
            assert abs(table[0][2][0] - (3 * x[0] ** 2 - 1) / 2) <= mpf(10) ** -39
            assert table[2][2][1] == 3

    @pytest.mark.parametrize("m", [6, 10])
    def test_refined_gauss_nodes(self, m):
        # build_grid refines the roots of P_m to working precision on an mpf
        # domain; on [-1, 1] the grid points are the roots themselves
        source = {"unknowns": 1, "domain": {"lo": -1, "hi": 1},
                  "equations": [{"terms": [{"coeff": 1, "op": "identity", "target": 0}], "rhs": "t"}]}
        with workdps(40):
            nodes = build_grid(_build(source, "line", MPF), SolverConfig(m=m)).points[:, 0]
            assert all(isinstance(v, mpf) for v in nodes)
            assert max(abs(v) for v in legendre_table(m + 1, nodes)[0][m]) <= mpf(10) ** -38
        assert_allclose(nodes.astype(float), legendre_roots(m), rtol=0, atol=1e-14)


class TestWorkingPrecisionRule:
    """The m-point Gauss rule in mpf, cached per (m, precision)."""

    @pytest.mark.parametrize("digits", [40, 80])
    @pytest.mark.parametrize("m", [1, 2, 6, 11, 16, 40])
    def test_nodes_are_roots_and_weights_sum_to_two(self, m, digits):
        # checked 200 bits beyond the rule's precision: each node is within
        # one unit of 2**-prec of a root, and the weights sum to 2 within a
        # few units (they are rounded once, from 32 bits more)
        with workdps(digits):
            prec = mp.prec
        rule = _mp_gauss_quadrature(m, prec)
        assert all(type(v) is mpf for v in (*rule.nodes, *rule.weights))
        with workprec(prec + 200):
            P = legendre_table(m + 1, rule.nodes, 1)
            assert max(abs(P[0][m] / P[1][m])) <= mpf(2) ** -prec
            assert abs(mpmath.fsum(rule.weights) - 2) <= 8 * mpf(2) ** -prec
        assert_allclose(rule.nodes.astype(float), gauss_quadrature(m).nodes, rtol=0, atol=1e-14)

    def test_rule_is_cached_per_precision_and_read_only(self):
        rule = _mp_gauss_quadrature(6, 136)
        assert _mp_gauss_quadrature(6, 136) is rule
        assert not rule.nodes.flags.writeable
        assert not rule.weights.flags.writeable
        finer = _mp_gauss_quadrature(6, 269)
        assert finer is not rule
        assert max(abs(a - b) for a, b in zip(finer.nodes, rule.nodes)) > 0

    def test_second_grid_refines_no_roots(self, monkeypatch):
        # the Newton passes run on the first grid at an (m, digits) only
        source = {"unknowns": 1, "domain": {"lo": 0, "hi": 0.7},
                  "equations": [{"terms": [{"coeff": 1, "op": "identity", "target": 0}], "rhs": "t"}]}
        calls = []

        def counting(*args):
            calls.append(args)
            return legendre_table(*args)

        _mp_gauss_quadrature.cache_clear()
        monkeypatch.setattr(daesvr.legendre, "legendre_table", counting)
        with workdps(37):
            problem = _build(source, "line", MPF)
            first = build_grid(problem, SolverConfig(m=7))
            assert len(calls) >= 2
            calls.clear()
            second = build_grid(problem, SolverConfig(m=7))
        assert calls == []
        assert list(second.points[:, 0]) == list(first.points[:, 0])

    def test_stalled_refinement_is_refused(self, monkeypatch):
        # a doubled derivative halves every Newton step, so the error only
        # halves per pass and no step falls below 10**-dps
        def doubled(count, x, order=0):
            table = legendre_table(count, x, order)
            return table[:1] + [2 * rows for rows in table[1:]]

        gauss_quadrature(5)  # the double-precision start, cached unpatched
        monkeypatch.setattr(daesvr.legendre, "legendre_table", doubled)
        with pytest.raises(NonConvergence, match="P_5 roots stalled at 401 bits"):
            _mp_gauss_quadrature(5, 401)


class TestRoots:
    def test_single(self):
        assert_allclose(legendre_roots(1), [0.0], atol=1e-15)

    def test_needs_one_root(self):
        with pytest.raises(DomainError, match="at least one root"):
            legendre_roots(0)

    def test_pair(self):
        # roots of P_2 = (3x^2-1)/2 are +-1/sqrt(3)
        r = 0.5773502691896258
        assert_allclose(legendre_roots(2), [-r, r], rtol=1e-14)

    @pytest.mark.parametrize("m", [2, 5, 10, 14, 20, 30])
    def test_residual_and_order(self, m):
        x = legendre_roots(m)
        assert np.all(np.diff(x) > 0)
        assert np.max(np.abs(legendre_eval(m, x))) <= 1e-13

    def test_stalled_newton_iteration_is_refused(self, monkeypatch):
        # one Newton step from the cosine guesses leaves a step above 1e-14
        monkeypatch.setattr(daesvr.legendre, "_ROOT_MAX_ITERS", 1)
        with pytest.raises(NonConvergence, match="Newton iteration for P_10 roots stalled"):
            legendre_roots(10)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_interlacing(self, m):
        inner = legendre_roots(m)
        outer = legendre_roots(m + 1)
        assert np.all(outer[:-1] < inner)
        assert np.all(inner < outer[1:])


class TestQuadrature:
    def test_weights_sum_to_two(self):
        for m in (1, 2, 8, 32):
            rule = gauss_quadrature(m)
            assert_allclose(rule.weights.sum(), 2.0, atol=1e-12)

    def test_polynomial_exactness(self):
        # 5 nodes integrate degree <= 9; int_{-1}^{1} x^8 dx = 2/9
        rule = gauss_quadrature(5)
        got = rule.weights @ rule.nodes**8
        assert_allclose(got, 2.0 / 9.0, atol=1e-14)

    def test_orthogonality(self):
        rule = gauss_quadrature(32)
        vals = np.array([legendre_eval(n, rule.nodes) for n in range(13)])
        gram = (vals * rule.weights) @ vals.T
        want = np.diag([2.0 / (2 * n + 1) for n in range(13)])
        assert_allclose(gram, want, atol=1e-12)

    def test_mapped_interval(self):
        rule = gauss_quadrature(6)
        pts, w = rule.mapped(0.0, 2.0)
        assert_allclose(w @ pts**3, 4.0, atol=1e-12)

    @pytest.mark.parametrize("m", [86, 104, 200])
    def test_large_rules_build_and_are_exact(self, m):
        # |P_m'| at the roots grows like m^2, so the roots are accepted by the
        # Newton step |P_m/P_m'| they would still take, not by |P_m|
        rule = gauss_quadrature(m)
        assert len(rule.nodes) == m
        got = rule.weights @ rule.nodes ** (2 * m - 2)
        assert_allclose(got, 2.0 / (2 * m - 1), rtol=1e-12)

    def test_rule_is_cached_and_read_only(self):
        rule = gauss_quadrature(64)
        assert gauss_quadrature(64) is rule
        assert not rule.nodes.flags.writeable
        assert not rule.weights.flags.writeable


class TestBasisSpec:
    """`values` maps to [-1, 1], runs the recurrence and applies the chain rule."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_values_are_derivatives_in_physical_coordinates(self, order):
        # on [0, 0.5] the map is s = 4t - 1, so phi_2 = (3 s^2 - 1) / 2,
        # phi_2' = 12 s and phi_2'' = 48
        spec = BasisSpec(3, 0.0, 0.5)
        t = np.array([0.05, 0.25, 0.4])
        s = 4.0 * t - 1.0
        want = [(3.0 * s * s - 1.0) / 2.0, 12.0 * s, np.full_like(s, 48.0)][order]
        assert_allclose(spec.values(t, order)[2], want, rtol=1e-13)

    def test_checked_names_the_point(self):
        with pytest.raises(DomainError, match=r"point \[1\.5\] outside \[0\.0, 1\.0\]"):
            BasisSpec(4, 0.0, 1.0).checked([1.5])

    def test_needs_one_function(self):
        with pytest.raises(DomainError, match="at least one function"):
            BasisSpec(0, 0.0, 1.0)


class TestShift:
    def test_forward(self):
        spec = BasisSpec(4, 0.0, 1.0)
        assert shift_to_canonical(0.0, spec) == -1.0
        assert shift_to_canonical(1.0, spec) == 1.0
        assert shift_to_canonical(0.5, spec) == 0.0

    def test_roundtrip(self):
        spec = BasisSpec(4, -0.5, 0.5)
        pts = np.linspace(-0.5, 0.5, 23)
        back = shift_from_canonical(shift_to_canonical(pts, spec), spec)
        assert_allclose(back, pts, atol=1e-14)

    def test_out_of_interval(self):
        spec = BasisSpec(4, 0.0, 1.0)
        with pytest.raises(DomainError):
            shift_to_canonical(1.0 + 1e-9, spec)
        with pytest.raises(DomainError):
            shift_from_canonical(-1.1, spec)

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            BasisSpec(4, 1.0, 1.0)
