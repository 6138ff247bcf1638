"""Release gate: every packaged benchmark at its stated accuracy bound.

Each test covers one criterion and prints a single PASS line; run with -v
to get one verdict line per criterion.  The reference tables are frozen
relative errors for the shipped configurations of the five systems.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from daesvr.benchmarks import case_names, run_case, self_check, sweep
from daesvr.cli import main as cli_main
from daesvr.fractional import L1Grid, caputo_l1
from daesvr.legendre import gauss_quadrature, legendre_eval
from daesvr.schema import load_problem
from daesvr.solver import assemble, build_grid, gauss_newton, solve_linear

from caputo_reference import caputo_monomial

# relative errors at probes t = 0.2, 0.4, 0.6, 0.8, 1.0 (per unknown)
REF_NONLINEAR_DAE = (
    (1.8e-6, 1.6e-7, 1.2e-7, 1.7e-7, 1.6e-8),
    (3.5e-7, 1.6e-6, 1.5e-6, 3.6e-8, 8.9e-8),
    (2.3e-5, 1.2e-7, 9.8e-6, 1.2e-5, 1.7e-5),
)
REF_INTEGRO_DAE = (
    (1.1e-4, 2.8e-5, 5.5e-6, 1.5e-6, 7.3e-7),
    (2.7e-3, 8.0e-4, 7.3e-4, 5.5e-4, 1.3e-2),
)
# l2 norms over the five probes (per unknown)
REF_LINEAR_FRACTIONAL_L2 = (2.2e-6, 5.3e-7, 7.4e-6)
# relative errors at probes (x, t) = (0.02, 0.02) ... (0.1, 0.1), keyed by m
REF_RECTANGLE = {
    6: (
        (3.2e-7, 2.9e-7, 2.5e-7, 2.1e-7, 1.8e-7),
        (7.8e-6, 6.8e-6, 5.8e-6, 4.9e-6, 4.2e-6),
        (3.9e-4, 1.6e-4, 9.5e-5, 6.0e-5, 4.0e-5),
    ),
    8: (
        (2.9e-9, 2.1e-9, 1.4e-9, 8.7e-10, 4.0e-10),
        (3.9e-8, 1.9e-8, 5.1e-9, 5.2e-9, 1.2e-8),
        (1.9e-6, 4.8e-7, 8.3e-8, 6.3e-8, 1.1e-7),
    ),
    10: (
        (5.2e-13, 3.6e-13, 2.5e-13, 1.7e-13, 1.1e-13),
        (2.8e-11, 1.7e-11, 9.5e-12, 4.6e-12, 1.5e-12),
        (1.3e-9, 4.2e-10, 1.5e-10, 5.5e-11, 1.5e-11),
    ),
}


@pytest.fixture(scope="module")
def results():
    """Each packaged system solved once at its shipped configuration."""
    return {name: run_case(name) for name in case_names()}


def rel_errors(result, unknown):
    return [row.rel_err for row in result.report.rows[unknown]]


def worst_ratio(result, tables):
    worst = 0.0
    for u, table in enumerate(tables):
        for rel, bound in zip(rel_errors(result, u), table):
            worst = max(worst, rel / bound)
    return worst


def test_criterion_1_nonlinear_dae_probes(results):
    res = results["example1"]
    ratio = worst_ratio(res, REF_NONLINEAR_DAE)
    assert ratio <= 100.0, f"worst rel-error ratio {ratio:.3g} exceeds 100x"
    print(f"criterion 1 nonlinear DAE probes within 100x (worst ratio {ratio:.3g}): PASS")


def test_criterion_2_fractional_integro_dae_probes(results):
    res = results["example2"]
    ratio_u1 = max(r / b for r, b in zip(rel_errors(res, 0), REF_INTEGRO_DAE[0]))
    ratio_u2 = max(r / b for r, b in zip(rel_errors(res, 1), REF_INTEGRO_DAE[1]))
    assert ratio_u1 <= 100.0, f"u1 ratio {ratio_u1:.3g} exceeds 100x"
    assert ratio_u2 <= 10.0, f"u2 ratio {ratio_u2:.3g} exceeds 10x"
    print(
        "criterion 2 fractional integro-DAE probes within 100x/10x "
        f"(u1 {ratio_u1:.3g}, u2 {ratio_u2:.3g}): PASS"
    )


def test_criterion_3_linear_fractional_l2(results):
    res = results["example3"]
    ratios = [
        float(res.report.l2[u]) / bound
        for u, bound in enumerate(REF_LINEAR_FRACTIONAL_L2)
    ]
    assert max(ratios) <= 100.0, f"l2 ratios {ratios} exceed 100x"
    print(f"criterion 3 linear fractional DAE l2 within 100x (worst {max(ratios):.3g}): PASS")


def test_criterion_4_nonlinear_fractional_l2(results):
    res = results["example4"]
    l2 = [float(v) for v in res.report.l2]
    assert max(l2) <= 1e-8, f"l2 errors {l2} exceed 1e-8"
    print(f"criterion 4 nonlinear fractional DAE l2 <= 1e-8 (worst {max(l2):.3g}): PASS")


def test_criterion_5_rectangle_probes_and_resolution_sweep(results):
    res = results["example5"]
    ratio = worst_ratio(res, REF_RECTANGLE[6])
    assert ratio <= 100.0, f"m=6 worst ratio {ratio:.3g} exceeds 100x"

    # refining the basis must shrink the error at every probe; the sweep
    # runs the exact interpolation limit, which this linear constant
    # coefficient system supports
    sr = sweep("example5", [6, 8, 10])
    by_m = {cell.config.m: cell for cell in sr.cells}
    for m, cell in by_m.items():
        assert cell.error is None, f"m={m} failed: {cell.error}"
        assert worst_ratio(cell, REF_RECTANGLE[m]) <= 100.0
    for u in range(3):
        for i in range(5):
            e6 = by_m[6].report.rows[u][i].abs_err
            e8 = by_m[8].report.rows[u][i].abs_err
            e10 = by_m[10].report.rows[u][i].abs_err
            assert e6 > e8 > e10, (
                f"u{u + 1} probe {i}: errors {e6:.3g} -> {e8:.3g} -> {e10:.3g} "
                "not strictly decreasing"
            )
    print(
        "criterion 5 rectangle probes within 100x and m=6->8->10 errors "
        f"strictly decreasing at every probe (m=6 worst ratio {ratio:.3g}): PASS"
    )


def test_criterion_6_solver_property_bundle(results):
    # basis orthogonality at quadrature accuracy
    rule = gauss_quadrature(32)
    vals = np.array([legendre_eval(n, rule.nodes) for n in range(13)])
    gram = (vals * rule.weights) @ vals.T
    want = np.diag([2.0 / (2 * n + 1) for n in range(13)])
    assert np.max(np.abs(gram - want)) <= 1e-12

    # every packaged system trains through the factorized dual (or its
    # Gauss-Newton outer loop) without a factorization failure
    for name, res in results.items():
        assert res.error is None and res.report is not None, name

    # on the linear systems the primal weights are the dual image w = Z alpha
    for name in ("example2", "example3", "example5"):
        res = results[name]
        model = res.model
        Z, _ = assemble(res.problem, model.grid, res.config)
        gap = np.max(np.abs(model.weights.ravel() - Z @ model.alpha))
        assert gap <= 1e-12 * max(1.0, np.abs(model.weights).max()), name

    # the uniform-grid fractional scheme converges at order 2 - alpha
    for alpha in (0.25, 0.5, 0.75):
        errs = []
        for n in (100, 200, 400, 800):
            grid = L1Grid.uniform(0.0, 1.0, n)
            got = caputo_l1(grid.points**2, grid, alpha)
            errs.append(abs(got - caputo_monomial(2, alpha, 1.0)))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert abs(float(np.mean(slopes)) - (2.0 - alpha)) <= 0.15, alpha

    # the nonlinear iteration reproduces the direct solve on a linear system
    p3 = results["example3"].problem
    c3 = results["example3"].config
    g3 = build_grid(p3, c3)
    iterated = gauss_newton(p3, g3, c3)
    Z, y = assemble(p3, g3, c3)
    direct = solve_linear(Z, y, p3, g3, c3)
    gn_gap = np.max(np.abs(iterated.weights - direct.weights))
    assert gn_gap <= 1e-9

    # every encoded system is satisfied by its own stated solution
    for name in case_names():
        worst = self_check(name, load_problem(name), results[name].report.probes)
        assert worst <= 1e-10, f"{name}: exact-solution residual {worst:.3g}"

    print(
        "criterion 6 property bundle (orthogonality 1e-12, factorization, "
        f"w=Z*alpha, L1 order, GN gap {gn_gap:.3g}, "
        "exact-solution residuals 1e-10): PASS"
    )


def test_criterion_7_deterministic_benchmark_output(tmp_path):
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["bench"])
        assert code == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1], "rendered benchmark output differs between runs"

    csvs = []
    for k in range(2):
        path = tmp_path / f"run{k}" / "bench.csv"
        path.parent.mkdir()
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["bench", "--out", str(path)]) == 0
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1], "benchmark CSV artifact differs between runs"
    print("criterion 7 repeated benchmark runs byte-identical: PASS")
