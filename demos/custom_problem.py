"""Define a problem from scratch with the JSON schema and solve it.

A minimal differential-algebraic pair from first-order kinetics: species A
decays at unit rate while total mass is conserved, so the amount of B is
pinned algebraically rather than by its own rate law.

    A'(t) + A(t) = 0          (rate equation)
    A(t) + B(t) = 1           (conservation, no derivative of B anywhere)
    A(0) = 1

Run:  python3 demos/custom_problem.py
"""

import json

import numpy as np

from daesvr import Identity, SolverConfig, load_problem, solve

KINETICS = {
    "unknowns": 2,
    "domain": {"lo": 0.0, "hi": 1.0},
    "equations": [
        {
            "terms": [
                {"coeff": 1, "op": "deriv", "order": 1, "target": 0},
                {"coeff": 1, "op": "identity", "target": 0},
            ],
            "rhs": 0,
        },
        {
            "terms": [
                {"coeff": 1, "op": "identity", "target": 0},
                {"coeff": 1, "op": "identity", "target": 1},
            ],
            "rhs": 1,
        },
    ],
    "side_conditions": [{"target": 0, "point": 0.0, "value": 1.0}],
    "exact": ["exp(-t)", "1 - exp(-t)"],
}

problem = load_problem(json.dumps(KINETICS))
model = solve(problem, SolverConfig(m=8, gamma=1e8))

# values(op, points) gives op applied to every unknown: one row per unknown
ts = np.linspace(0.0, 1.0, 5)
A, B = model.values(Identity(), ts)
print("t      A (exact)     A (model)     B (exact)     B (model)")
for t, a, b in zip(ts, A, B):
    print(f"{t:4.2f}  {np.exp(-t):12.9f}  {a:12.9f}  {1.0 - np.exp(-t):12.9f}  {b:12.9f}")

interior = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
worst = np.max(np.abs(model.values(Identity(), interior)[0] - np.exp(-interior)))
print(f"\nworst absolute error for A on interior probes: {worst:.2e}")

# To run the same problem through the command line, save KINETICS to a file
# and point the solver at it:
#   daesvr solve --file kinetics.json --m 8 --gamma 1e8
