"""Closed-loop benchmark of the daesvr solver through its public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller sends the next op only after the previous one returned.  An op is
one user-level solve: `solve` (or `solve_interpolant`), then `report` at the
case probes, then grading against the case's `CASES` bounds, then
`render_result`.  The problems are loaded and self-checked during set-up.
Ops run in rounds; a round is one pass over the workload's fixed op set, in
an order shuffled by the seed.  One untimed round warms the caches first,
except on the workloads in NO_WARMUP.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, taken from rounds run with timing
wrappers installed (see tracer.py), alternating with plain rounds that give
the trace overhead.  The line before it holds the environment and the
figures that are not end-to-end metrics in BENCHMARK.json (fail_ratio, latency
p90, per-op medians).  The metric definitions are in perfbench/README.md.
"""

import os

# BLAS and OpenMP threads are pinned before numpy is imported: the thread
# count changes the timings, so it is part of every measurement.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


@dataclass(frozen=True)
class Op:
    """One graded solve of a `CASES` entry with SolverConfig overrides."""

    case: str
    overrides: tuple = ()
    digits: int = 0  # > 0: solve_interpolant at this many digits
    known_failure: str = ""  # why it fails at the commit that added it

    @property
    def label(self):
        opts = [f"{k}={v}" for k, v in self.overrides]
        if self.digits:
            opts.append(f"interpolant digits={self.digits}")
        return f"{self.case}[{', '.join(opts)}]" if opts else self.case


_NPD = "NotPositiveDefinite at the default gamma=1e11 (ROADMAP item 3)"

# Each workload's fixed op set.  Why each was chosen and which layers it
# loads is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "linear-dual": (
        Op("example2"),
        Op("example3"),
        Op("example3", (("fractional_scheme", "l1"),)),
        Op("example5", (("m", 6),)),
        Op("example5", (("m", 8),), known_failure=_NPD),
        Op("example5", (("m", 10),), known_failure=_NPD),
    ),
    "nonlinear-gn": (
        Op("example1"),
        Op("example4"),
        Op("example4", (("m", 16),)),
    ),
    "interpolant": (Op("example5", (("m", 6),), digits=40),),
}

# Workloads that skip the untimed warm-up round.  `solve_interpolant` builds
# everything afresh on each call, so its first op is no slower than the
# others, and a warm-up op would add about 7 s to every run.
NO_WARMUP = {"interpolant"}


# ---------------------------------------------------------------------------
# Grading.

def error_ratios(case, rep, m):
    """Error/bound ratio of every graded row, by the rules of `CASES`.

    The rows are those of the reference table for this m (relative error, or
    absolute error with the case's floor) and the per-unknown l2 bounds.
    """
    ratios = []
    table = case.reference.get(m)
    if table is not None:
        for u, published in table.items():
            mult = case.bound_multiplier(u)
            for i, row in enumerate(rep.rows[u]):
                if case.abs_floor is not None:
                    bound = max(mult * published[i] * abs(row.exact), case.abs_floor)
                    ratios.append(row.abs_err / bound)
                else:
                    ratios.append(row.rel_err / (mult * published[i]))
    if case.l2_bounds is not None:
        ratios.extend(float(rep.l2[u]) / bound for u, bound in enumerate(case.l2_bounds))
    return ratios


def passes(ratios):
    """True when every row is within its bound; NaN counts as a miss."""
    return bool(ratios) and all(r <= 1.0 for r in ratios)


def worst_ratio(ratios):
    """Largest error/bound ratio; NaN, inf or no graded row reads as the
    largest finite float, so the figure stays valid JSON."""
    worst = max(ratios, key=lambda x: math.inf if math.isnan(x) else x, default=math.inf)
    return worst if math.isfinite(worst) else sys.float_info.max


@dataclass
class OpResult:
    op: Op
    seconds: float
    passed: bool
    ratios: list
    error: str = ""
    rendered: bool = True  # render_result showed the verdict it was given


def run_op(api, problems, op):
    case = api.CASES[op.case]
    config = replace(case.config, **dict(op.overrides))
    problem = problems[op.case]
    mode = "interpolant" if op.digits else "dual"
    t0 = perf_counter()
    try:
        if op.digits:
            model = api.solve_interpolant(problem, config, digits=op.digits)
        else:
            model = api.solve(problem, config)
        rep = api.report(model, case.probes)
    except api.DaeSvrError as err:
        error = f"{type(err).__name__}: {err}"
        result = api.BenchmarkResult(
            name=op.case, config=config, mode=mode, report=None, passed=None,
            error=error, problem=problem,
        )
        text = api.render_result(result)
        seconds = perf_counter() - t0
        return OpResult(op, seconds, False, [], error, "failed:" in text)
    ratios = error_ratios(case, rep, config.m)
    passed = passes(ratios)
    result = api.BenchmarkResult(
        name=op.case, config=config, mode=mode, report=rep, passed=passed,
        model=model, problem=problem,
    )
    text = api.render_result(result)
    seconds = perf_counter() - t0
    verdict = f"verdict: {'PASS' if passed else 'FAIL'}"
    return OpResult(op, seconds, passed, ratios, rendered=verdict in text)


# ---------------------------------------------------------------------------
# Tracing: the layers, the wrappers' targets and the per-layer metrics.

def _observe_assemble(tracer, args, result, error):
    if result is not None:
        Z = result[0]
        tracer.note("solver.n_coeffs", Z.shape[0])
        tracer.note("solver.n_constraints", Z.shape[1])


def _observe_gauss_newton(tracer, args, result, error):
    model = result if result is not None else getattr(error, "best", None)
    if model is not None:
        tracer.note("solver.gn_iters", model.iterations)
        tracer.note("solver.gn_budget_used", model.iterations / model.config.max_iters)


def _observe_interpolant(tracer, args, result, error):
    if result is not None:
        tracer.note("highprec.n", result.problem.unknowns * result.block)
        tracer.note("highprec.residual_inf", result.residual_inf)


TRACE_TARGETS = {
    "expressions": ("daesvr.model", "Field.__call__", None),
    "legendre.table": ("daesvr.legendre", "legendre_table", None),
    "legendre.roots": ("daesvr.legendre", "legendre_roots", None),
    "fractional.poly": ("daesvr.fractional", "caputo_poly", None),
    "fractional.l1": ("daesvr.fractional", "caputo_l1", None),
    "solver.grid": ("daesvr.solver", "build_grid", None),
    "solver.assemble": ("daesvr.solver", "assemble", _observe_assemble),
    "solver.dual": ("daesvr.solver", "solve_linear", None),
    "solver.gn": ("daesvr.solver", "gauss_newton", _observe_gauss_newton),
    "solver.report": ("daesvr.solver", "report", None),
    "highprec.solve": ("daesvr.highprec", "solve_interpolant", _observe_interpolant),
    "highprec.lu": ("mpmath", "mp.lu_solve", None),
    "highprec.evaluate": ("daesvr.highprec", "InterpolantModel.evaluate", None),
    "benchmarks.render": ("daesvr.benchmarks", "render_result", None),
}

# name -> (unit, statistic, source).  Statistics:
#   setup   median over the set-up children of one stage (source: its key)
#   calls   calls per op, over the traced rounds (source: tracer keys)
#   errors  failed calls per op, over the traced rounds
#   ms      time per op: median over traced rounds of the round's time / ops
#   max     largest value noted by an observer (source: (tracer key, note))
#   overhead  traced p50 latency / untraced p50 latency
LAYER_METRICS = {
    "schema.load_ms": ("ms", "setup", "load_s"),
    "model.self_check_ms": ("ms", "setup", "self_check_s"),
    "cli.import_ms": ("ms", "setup", "import_s"),
    "expressions.calls": ("count", "calls", ("expressions",)),
    "expressions.ms": ("ms", "ms", ("expressions",)),
    "legendre.table_calls": ("count", "calls", ("legendre.table",)),
    "legendre.table_ms": ("ms", "ms", ("legendre.table",)),
    "legendre.roots_ms": ("ms", "ms", ("legendre.roots",)),
    "fractional.calls": ("count", "calls", ("fractional.poly", "fractional.l1")),
    "fractional.ms": ("ms", "ms", ("fractional.poly", "fractional.l1")),
    "solver.grid_ms": ("ms", "ms", ("solver.grid",)),
    "solver.assemble_ms": ("ms", "ms", ("solver.assemble",)),
    "solver.n_constraints": ("count", "max", ("solver.assemble", "solver.n_constraints")),
    "solver.n_coeffs": ("count", "max", ("solver.assemble", "solver.n_coeffs")),
    "solver.dual_ms": ("ms", "ms", ("solver.dual",)),
    "solver.dual_failures": ("count", "errors", ("solver.dual",)),
    "solver.gn_ms": ("ms", "ms", ("solver.gn",)),
    "solver.gn_iters": ("count", "max", ("solver.gn", "solver.gn_iters")),
    "solver.gn_budget_used": ("ratio", "max", ("solver.gn", "solver.gn_budget_used")),
    "solver.gn_failures": ("count", "errors", ("solver.gn",)),
    "solver.report_ms": ("ms", "ms", ("solver.report",)),
    "highprec.solve_ms": ("ms", "ms", ("highprec.solve",)),
    "highprec.lu_ms": ("ms", "ms", ("highprec.lu",)),
    "highprec.n": ("count", "max", ("highprec.solve", "highprec.n")),
    "highprec.residual_inf": ("1", "max", ("highprec.solve", "highprec.residual_inf")),
    "highprec.report_ms": ("ms", "ms", ("highprec.evaluate",)),
    "benchmarks.render_ms": ("ms", "ms", ("benchmarks.render",)),
    "trace.overhead_ratio": ("ratio", "overhead", None),
}


def layer_metrics(setup, traced, plain, missing):
    """Per-layer metrics; a metric whose functions are all gone is left out."""
    n_ops = sum(len(r.results) for r in traced)
    out = {}
    for name, (unit, stat, source) in LAYER_METRICS.items():
        if stat == "setup":
            value = 1e3 * statistics.median(s[source] for s in setup)
        elif stat == "overhead":
            value = round_p50(traced, math.inf) / round_p50(plain, math.inf)
        elif stat == "max":
            key, note = source
            if key in missing:
                continue
            value = max((v for r in traced for v in r.layers["notes"].get(note, ())), default=0)
        else:
            if all(k in missing for k in source):
                continue
            if stat == "ms":
                value = 1e3 * statistics.median(
                    sum(r.layers["seconds"].get(k, 0.0) for k in source) / len(r.results)
                    for r in traced
                )
            else:
                field = "calls" if stat == "calls" else "errors"
                value = sum(r.layers[field].get(k, 0) for r in traced for k in source) / n_ops
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# Measurement.

@dataclass
class Round:
    results: list
    layers: dict = None  # tracer counters when the round was traced


def run_round(api, problems, ops, rng, tracer=None):
    order = list(ops)
    rng.shuffle(order)
    if tracer is None:
        return Round([run_op(api, problems, op) for op in order])
    tracer.install()
    try:
        results = [run_op(api, problems, op) for op in order]
    finally:
        tracer.remove()
    return Round(results, tracer.take())


def round_p50(rounds, failed_value):
    """Median over rounds of each round's median op time, in ms.

    A failed op ranks as slower than every completed op.  Taking the median
    per round first keeps the figure steady when the middle of the pooled
    times falls between two ops of very different cost.  When the middle
    falls on failed ops the result is `failed_value`.
    """
    def per_round(r):
        times = sorted(o.seconds if o.passed else math.inf for o in r.results)
        return statistics.median(times)

    value = statistics.median(per_round(r) for r in rounds)
    return failed_value if math.isinf(value) else 1e3 * value


def pooled_p90(rounds):
    """Nearest-rank p90 of all op times, and how many samples lie beyond it."""
    times = sorted(o.seconds if o.passed else math.inf for r in rounds for o in r.results)
    rank = math.ceil(0.9 * len(times))
    beyond = len(times) - rank
    value = times[rank - 1]
    return (None if math.isinf(value) else 1e3 * value), beyond, len(times)


def measure_setup(names):
    """Set-up stage times of SETUP_REPEATS fresh interpreters."""
    out = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *names]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn_name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(api):
    import mpmath
    import numpy
    import scipy

    return {
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "daesvr": api.__version__,
    }


def import_daesvr():
    if not (SRC / "daesvr" / "__init__.py").is_file():
        raise RuntimeError(f"no daesvr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import daesvr

    if not Path(daesvr.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"daesvr was imported from {daesvr.__file__}, not from {SRC}")
    return daesvr


def run(workload_name, seed, seconds, trace):
    ops = WORKLOADS[workload_name]
    names = sorted({op.case for op in ops})
    api = import_daesvr()
    setup = measure_setup(names)
    problems = {}
    for name in names:
        problems[name] = api.load_problem(name)
        api.self_check(name, problems[name], api.CASES[name].probes)
    env = environment(api)
    if any(n != BLAS_THREADS for n in env["blas_threads_seen"].values()):
        raise RuntimeError(f"BLAS threads not pinned: {env['blas_threads_seen']}")

    rng = random.Random(seed)
    tracer = Tracer(TRACE_TARGETS) if trace else None
    warmup = Round([]) if workload_name in NO_WARMUP else run_round(api, problems, ops, rng)
    rounds = []
    t0 = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(api, problems, ops, rng, tracer if traced else None))
        if perf_counter() - t0 >= seconds and (tracer is None or len(rounds) >= 2):
            break
    wall = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = [o for r in rounds for o in r.results]
    attempted = len(results)
    passed = sum(o.passed for o in results)
    checked = warmup.results + results
    correct = all((o.passed or o.op.known_failure) and o.rendered for o in checked)
    plain = [r for r in rounds if r.layers is None]
    traced_rounds = [r for r in rounds if r.layers is not None]
    ratios = [x for o in checked for x in o.ratios]

    if trace:
        metrics = layer_metrics(setup, traced_rounds, plain, tracer.missing)
    else:
        metrics = {
            "latency_ms.p50": {"value": round_p50(plain, 1e3 * wall), "unit": "ms"},
            "ops_per_s": {"value": passed / wall, "unit": "1/s"},
            "pass_ratio": {"value": passed / attempted, "unit": "ratio"},
            "err_ratio.max": {"value": worst_ratio(ratios), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {
                "value": statistics.median(sum(s.values()) for s in setup),
                "unit": "s",
            },
        }

    p90, beyond, n_samples = pooled_p90(plain)
    per_op = {}
    for op in ops:
        mine = [o for r in plain for o in r.results if o.op == op]
        per_op[op.label] = {
            "n": len(mine),
            "failed": sum(not o.passed for o in mine),
            "p50_ms": 1e3 * statistics.median(o.seconds for o in mine),
            "known_failure": op.known_failure or None,
            "first_error": next((o.error for o in mine if o.error), None),
        }
    detail = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "closed_loop_clients": 1,
        "rounds": len(rounds),
        "environment": env,
        "fail_ratio": {"value": (attempted - passed) / attempted, "unit": "ratio"},
        "latency_ms.p90": {
            "value": p90 if beyond >= 10 else None,
            "unit": "ms",
            "samples": n_samples,
            "beyond": beyond,
            "note": None if beyond >= 10 else "fewer than 10 samples beyond p90",
        },
        "ops": per_op,
        "absent_metrics": sorted(
            name for name in LAYER_METRICS if trace and name not in metrics
        ),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
