"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
- a short run of every workload, untraced and traced, prints every metric
  named in BENCHMARK.json with its unit, and passes its correctness gate;
- the grader fails a deliberately wrong result, and agrees with the
  package's own verdict (`run_case`, `sweep`) on every op of every workload;
- the traced run reports a metric as absent, without crashing, when the
  function it wraps no longer exists, and puts every wrapped function back.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import random
import subprocess
import sys
from dataclasses import replace

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def check_outputs():
    expected = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        for trace, specs in expected.items():
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                                  cwd=run.ROOT)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{where}: correctness gate passes")
            metrics = result["metrics"]
            for spec in specs:
                got = metrics.get(spec["name"])
                check(got is not None and got["unit"] == spec["unit"]
                      and isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]),
                      f"{where}: {spec['name']} printed in {spec['unit']}")


def check_grading(api, problems):
    case = api.CASES["example3"]
    rep = api.report(api.solve(problems["example3"], case.config), case.probes)
    ratios = run.error_ratios(case, rep, case.config.m)
    check(run.passes(ratios), "grader passes the default example3 solve")
    wrong_rows = tuple(
        tuple(replace(row, approx=row.approx * 1.01, abs_err=abs(row.exact) * 0.01,
                      rel_err=0.01) for row in rows)
        for rows in rep.rows
    )
    wrong = replace(rep, rows=wrong_rows, l2=rep.l2 * 1e3)
    check(not run.passes(run.error_ratios(case, wrong, case.config.m)),
          "grader fails a result 1% off the exact solution")
    check(not run.passes([0.5, math.nan]), "grader fails a NaN error")

    bad = run.Op("example3", (("gamma", 1.0),))
    result = run.run_op(api, problems, bad)
    check(not result.passed and result.rendered,
          "an op solved at gamma=1 counts as failed")
    for op in [op for ops in run.WORKLOADS.values() for op in ops] + [bad]:
        mine = run.run_op(api, problems, op)
        overrides = dict(op.overrides)
        if op.digits:
            theirs = api.sweep(op.case, [overrides["m"]], digits=op.digits).cells[0]
        else:
            try:
                theirs = api.run_case(op.case, **overrides)
            except api.DaeSvrError:
                theirs = None
        check(mine.passed == bool(theirs is not None and theirs.passed),
              f"grader agrees with the package on {op.label}")
        check(bool(mine.passed or op.known_failure) == (op is not bad),
              f"{op.label} passes unless it is a known failure")


def check_tracer(api, problems):
    targets = dict(run.TRACE_TARGETS)
    targets["fractional.poly"] = ("daesvr.fractional", "caputo_poly_removed", None)
    targets["fractional.l1"] = ("daesvr.fractional", "caputo_l1_removed", None)
    before = (api.solver.assemble, api.model.Field.__call__)
    tracer = run.Tracer(targets)
    ops = (run.Op("example3"),)
    rng = random.Random(0)
    plain = [run.run_round(api, problems, ops, rng)]
    traced = [run.run_round(api, problems, ops, rng, tracer)]
    metrics = run.layer_metrics([{"import_s": 1.0, "load_s": 1.0, "self_check_s": 1.0}],
                                traced, plain, tracer.missing)
    check("fractional.calls" not in metrics and "fractional.ms" not in metrics,
          "metrics of removed functions are absent")
    check(metrics["expressions.calls"]["value"] > 0 and metrics["solver.n_constraints"]["value"] > 0,
          "metrics of present functions are reported")
    check((api.solver.assemble, api.model.Field.__call__) == before,
          "the tracer puts the wrapped functions back")


def main():
    api = run.import_daesvr()
    problems = {name: api.load_problem(name) for name in api.CASES}
    check_grading(api, problems)
    check_tracer(api, problems)
    check_outputs()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
