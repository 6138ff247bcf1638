"""Watch the error fall as the basis grows on the rectangle benchmark.

The packaged rectangle system (one partial differential equation, one
ordinary rate equation, one algebraic constraint) is solved at increasing
basis resolution.  Because the system is linear with identity and
derivative terms only, the sweep can use the exact interpolation limit,
which runs in extended precision and sidesteps the double-precision
conditioning ceiling of the collocation matrix.

Run:  python3 demos/resolution_sweep.py        (under half a second)

Larger resolutions continue the decay; the sweep through m=12 takes under
a second:  daesvr sweep example5 --m 6,8,10,12
"""

from daesvr import sweep

result = sweep("example5", [4, 6])

probes = result.cells[0].report.probes
print("absolute error of u1 along the diagonal probes:")
print(f"{'probe':>14}", *(f"m={cell.config.m:<10}" for cell in result.cells))
for i, (x, t) in enumerate(probes):
    errs = [cell.report.rows[0][i].abs_err for cell in result.cells]
    print(f"({x:.2f},{t:.2f})".rjust(14), *(f"{e:<12.2e}" for e in errs))

for cell in result.cells:
    worst = max(row.rel_err for rows in cell.report.rows for row in rows)
    print(f"m={cell.config.m}: worst relative error over all unknowns {worst:.2e}")
