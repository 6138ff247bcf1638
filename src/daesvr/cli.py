"""Command-line front end.

Subcommands:
    solve  NAME | --file PATH   train a model on one problem
    bench  [NAME ...]           run reference cases and grade them
    sweep  NAME                 grid of runs over m (and gamma) values
    list                        show built-in problem names

Exit codes: 0 success, 1 solver failure, 2 usage error, bad option value
or problem-parse error.  At a fixed BLAS thread count, identical
invocations produce identical output bytes; there is no seed anywhere in
the pipeline.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional

from . import benchmarks
from .errors import DaeSvrError, ParseError, ValidationError
from .model import DaeProblem, Identity
from .schema import builtin_names, load_problem
from .solver import SolverConfig, report, solve

USAGE_ERROR = 2
RUN_ERROR = 1


def _parse_fractional(text: str):
    """--fractional-scheme value: 'analytic' or 'l1:<gridsize>'."""
    if text == "analytic":
        return ("analytic", None)
    if text.startswith("l1:"):
        try:
            grid = int(text[3:])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad l1 grid size in {text!r}; expected l1:<gridsize>"
            )
        return ("l1", grid)
    raise argparse.ArgumentTypeError(
        f"unknown fractional scheme {text!r}; expected 'analytic' or 'l1:<gridsize>'"
    )


def _parse_int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=None, help="basis resolution (collocation points per axis)")
    p.add_argument("--gamma", type=float, default=None, help="regularization weight (> 0)")
    p.add_argument("--degree", type=int, default=None, help="override basis-function count per unknown")
    p.add_argument(
        "--fractional-scheme",
        type=_parse_fractional,
        default=None,
        metavar="analytic|l1:<gridsize>",
        help="how Caputo terms are discretized (default analytic)",
    )
    p.add_argument("--out", default=None, metavar="PATH", help="write the error table as CSV")
    p.add_argument("--plot-data", default=None, metavar="PATH", help="write dense absolute-error series as CSV")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daesvr",
        description="Collocation least-squares SVR solver for differential-algebraic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem")
    p_solve.add_argument("name", nargs="?", default=None, help="built-in problem name")
    p_solve.add_argument("--file", default=None, metavar="PATH", help="problem description file (JSON)")
    _add_solver_flags(p_solve)

    p_bench = sub.add_parser("bench", help="run reference cases")
    p_bench.add_argument("names", nargs="*", default=[], help="cases to run (default: all)")
    _add_solver_flags(p_bench)

    p_sweep = sub.add_parser("sweep", help="run a case over a grid of m and gamma values")
    p_sweep.add_argument("name", help="case name")
    p_sweep.add_argument("--m", type=_parse_int_list, default=None, metavar="M1,M2,...",
                         help="basis resolutions to sweep")
    p_sweep.add_argument("--gamma", type=_parse_float_list, default=None, metavar="G1,G2,...",
                         help="regularization weights to sweep (omit for the exact interpolation limit where supported)")
    p_sweep.add_argument("--out", default=None, metavar="PATH", help="write all cells as CSV")

    sub.add_parser("list", help="show built-in problem names")
    return parser


def _config_overrides(args) -> dict:
    over = {}
    if args.m is not None:
        over["m"] = args.m
    if args.gamma is not None:
        over["gamma"] = args.gamma
    if args.degree is not None:
        over["degree"] = args.degree
    if args.fractional_scheme is not None:
        scheme, grid = args.fractional_scheme
        over["fractional_scheme"] = scheme
        if grid is not None:
            over["l1_grid"] = grid
    return over


def _default_probes(problem: DaeProblem):
    """The case's probes, or five points on the diagonal of the domain:
    numbers on an interval, (x, t) pairs on a rectangle."""
    if problem.name in benchmarks.CASES:
        return benchmarks.CASES[problem.name].probes
    axes = [[lo + k * (hi - lo) / 5.0 for k in range(1, 6)] for _, lo, hi in problem.axes]
    return tuple(zip(*axes)) if len(axes) > 1 else tuple(axes[0])


def _cmd_solve(args) -> int:
    if (args.name is None) == (args.file is None):
        print("solve: give exactly one problem source (a built-in name or --file PATH)", file=sys.stderr)
        return USAGE_ERROR
    case = benchmarks.CASES.get(args.name)
    try:
        config = replace(case.config if case else SolverConfig(), **_config_overrides(args))
        if args.file is not None:
            with open(args.file, "r", encoding="utf-8") as fh:
                problem = load_problem(fh.read())
        else:
            problem = load_problem(args.name)
    except (FileNotFoundError, ParseError, ValidationError) as err:
        print(f"solve: {err}", file=sys.stderr)
        return USAGE_ERROR

    try:
        model = solve(problem, config)
        name = problem.name or (args.file or "problem")
        if problem.exact is not None:
            probes = _default_probes(problem)
            rep = report(model, probes)
            result = benchmarks.BenchmarkResult(
                name=name, config=config, mode="dual", report=rep,
                passed=None, model=model, problem=problem,
            )
            sys.stdout.write(benchmarks.render_result(result))
            if args.out:
                benchmarks.write_csv(result, args.out)
                print(f"wrote {args.out}")
            if args.plot_data:
                benchmarks.write_plot_data(result, args.plot_data)
                print(f"wrote {args.plot_data}")
        else:
            if args.out or args.plot_data:
                print(
                    "solve: problem has no exact solutions; error tables are "
                    "not available (drop --out/--plot-data)",
                    file=sys.stderr,
                )
                return RUN_ERROR
            print(f"{name}: trained (m={config.m}, gamma={config.gamma:g}, "
                  f"iterations={model.iterations})")
            print(f"  sum of squared collocation errors: {model.squared_error_sum:.3e}")
            probes = _default_probes(problem)
            values = model.values(Identity(), probes)
            for pt, column in zip(probes, values.T):
                vals = " ".join(f"u{u + 1}={v:.9g}" for u, v in enumerate(column))
                print(f"  at {pt}: {vals}")
        return 0
    except DaeSvrError as err:
        print(f"solve: {err}", file=sys.stderr)
        return RUN_ERROR


def _cmd_bench(args) -> int:
    names = args.names or benchmarks.case_names()
    for n in names:
        if n not in benchmarks.CASES:
            print(f"bench: unknown case {n!r}; choose from {benchmarks.case_names()}", file=sys.stderr)
            return USAGE_ERROR
    over = _config_overrides(args)
    try:
        SolverConfig(**over)  # refuse a bad value once, before any case runs
    except ValidationError as err:
        print(f"bench: {err}", file=sys.stderr)
        return USAGE_ERROR
    results = []
    failed_runs = 0
    for n in names:
        try:
            res = benchmarks.run_case(n, **over)
        except DaeSvrError as err:
            print(f"bench: {n}: {err}", file=sys.stderr)
            failed_runs += 1
            continue
        results.append(res)
        sys.stdout.write(benchmarks.render_result(res))
        sys.stdout.write("\n")
    graded = [r for r in results if r.passed is not None]
    n_fail = sum(1 for r in graded if not r.passed)
    print(f"bench: {len(results)} case(s) run, {len(graded)} graded, {n_fail} failed bounds")
    if args.out and results:
        benchmarks.write_csv(results, args.out)
        print(f"wrote {args.out}")
    if args.plot_data and results:
        benchmarks.write_plot_data(results, args.plot_data)
        print(f"wrote {args.plot_data}")
    if failed_runs or n_fail:
        return RUN_ERROR
    return 0


def _cmd_sweep(args) -> int:
    if args.name not in benchmarks.CASES:
        print(f"sweep: unknown case {args.name!r}; choose from {benchmarks.case_names()}", file=sys.stderr)
        return USAGE_ERROR
    for flag, values in (("--m", args.m), ("--gamma", args.gamma)):
        if values == []:
            print(f"sweep: {flag} needs at least one value", file=sys.stderr)
            return USAGE_ERROR
    m_values = args.m if args.m is not None else [benchmarks.CASES[args.name].config.m]
    try:
        result = benchmarks.sweep(args.name, m_values, gamma_values=args.gamma)
    except ValidationError as err:
        print(f"sweep: {err}", file=sys.stderr)
        return USAGE_ERROR
    except DaeSvrError as err:
        print(f"sweep: {err}", file=sys.stderr)
        return RUN_ERROR
    errored = 0
    for cell in result:
        sys.stdout.write(benchmarks.render_result(cell))
        sys.stdout.write("\n")
        if cell.error is not None:
            errored += 1
    print(f"sweep: {len(result)} cell(s), {errored} errored")
    if args.out:
        benchmarks.write_csv(result, args.out, label_with_config=True)
        print(f"wrote {args.out}")
    return RUN_ERROR if errored else 0


def _cmd_list() -> int:
    for name in builtin_names():
        problem = load_problem(name)
        kind = "rectangle" if len(problem.axes) > 1 else "interval"
        case = benchmarks.CASES.get(name)
        extra = ""
        if case is not None:
            extra = f", default m={case.config.m}, gamma={case.config.gamma:g}"
        print(f"{name}: {problem.unknowns} unknowns, {kind}{extra}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_list()


if __name__ == "__main__":
    sys.exit(main())
