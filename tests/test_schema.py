import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from daesvr.errors import ParseError, ValidationError
from daesvr.model import ExactCandidate, residuals
from daesvr.schema import (
    BUILTIN_PROBLEMS,
    builtin_names,
    load_problem,
    serialize_problem,
)

OSCILLATOR = json.dumps(
    {
        "unknowns": 2,
        "domain": {"lo": 0.0, "hi": 1.0},
        "equations": [
            {
                "terms": [
                    {"coeff": 1, "op": "deriv", "order": 1, "target": 0},
                    {"coeff": -1, "op": "identity", "target": 1},
                ],
                "rhs": 0,
            },
            {
                "terms": [
                    {"coeff": 1, "op": "identity", "target": 0},
                    {"coeff": 1, "op": "deriv", "order": 1, "target": 1},
                ],
                "rhs": 0,
            },
        ],
        "side_conditions": [
            {"target": 0, "point": 0.0, "value": 0.0},
            {"target": 1, "point": 0.0, "value": 1.0},
        ],
        "exact": ["sin(t)", "cos(t)"],
    }
)


class TestBuiltins:
    def test_names_are_sorted(self):
        names = builtin_names()
        assert names == sorted(BUILTIN_PROBLEMS)
        assert len(names) == 5

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_load_and_validate(self, name):
        p = load_problem(name)
        p.validate()
        assert p.name == name
        assert p.exact is not None
        assert len(p.exact) == p.unknowns

    def test_rectangle_case_is_2d(self):
        p = load_problem("example5")
        assert p.axes == (("x", -0.5, 0.5), ("t", 0.0, 1.0))
        assert p.domain[0] == (-0.5, 0.5)

    def test_loads_are_independent(self):
        # two loads must not share mutable source state
        a = load_problem("example1")
        b = load_problem("example1")
        assert a.source is not b.source
        a.source["unknowns"] = 99
        assert b.source["unknowns"] == 3


class TestLoadFromText:
    def test_oscillator_structure(self):
        p = load_problem(OSCILLATOR)
        assert p.unknowns == 2
        assert p.axes == (("t", 0.0, 1.0),)
        assert len(p.side_conditions) == 2
        assert p.side_conditions[1].value == 1.0
        assert p.exact[0](0.5) == pytest.approx(np.sin(0.5))

    def test_numeric_and_text_coefficients_agree(self):
        lines = json.loads(OSCILLATOR)
        lines["equations"][0]["terms"][0]["coeff"] = "1.0"
        p = load_problem(json.dumps(lines))
        q = load_problem(OSCILLATOR)
        t = 0.37
        assert p.equations[0].terms[0].coeff(t) == q.equations[0].terms[0].coeff(t)

    def test_volterra_kernel_text(self):
        data = {
            "unknowns": 1,
            "domain": {"lo": 0.0, "hi": 1.0},
            "equations": [
                {
                    "terms": [
                        {"coeff": 1, "op": "volterra", "kernel": "1+s", "target": 0}
                    ],
                    "rhs": "t*t/2 + t",
                }
            ],
        }
        p = load_problem(json.dumps(data))
        kernel = p.equations[0].terms[0].op.kernel
        assert kernel(0.5, 0.25) == 1.25

    def test_rectangle_slice_conditions(self):
        data = {
            "unknowns": 1,
            "domain2": {"x_lo": 0.0, "x_hi": 1.0, "t_lo": 0.0, "t_hi": 1.0},
            "equations": [
                {
                    "terms": [{"coeff": 1, "op": "deriv", "order": 1, "var": "t", "target": 0}],
                    "rhs": "0",
                }
            ],
            "side_conditions": [
                {"target": 0, "x": "*", "t": 0.0, "value": "x*x"},
                {"target": 0, "x": 0.5, "t": 0.0, "value": 0.25},
            ],
        }
        p = load_problem(json.dumps(data))
        whole_slice, single = p.side_conditions
        assert whole_slice.point == (None, 0.0)
        assert whole_slice.value(0.3) == pytest.approx(0.09)
        assert single.point == (0.5, 0.0)
        assert single.value == 0.25

    def test_closure_on_rectangle_reads_axis_variables(self):
        # a closure is compiled over the axis variables, then u1..uk
        data = {
            "unknowns": 1,
            "domain2": {"x_lo": -0.5, "x_hi": 0.5, "t_lo": 0.0, "t_hi": 1.0},
            "equations": [
                {
                    "terms": [{"coeff": 1, "op": "deriv", "order": 1, "target": 0}],
                    "nonlinear": "x*pow(u1,2)",
                    "rhs": "(1+x)*cos(t) + x*pow((1+x)*sin(t),2)",
                }
            ],
            "side_conditions": [{"target": 0, "x": "*", "t": 0.0, "value": 0.0}],
            "exact": ["(1+x)*sin(t)"],
        }
        p = load_problem(json.dumps(data))
        assert p.equations[0].nonlinear(0.5, 0.2, 3.0) == 4.5
        assert_allclose(residuals(p, ExactCandidate(p), [(0.3, 0.4), (-0.2, 0.9)]), [[0.0, 0.0]],
                        atol=1e-15)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_serialize_reload(self, name):
        p = load_problem(name)
        q = load_problem(serialize_problem(p))
        assert q.unknowns == p.unknowns
        assert q.domain == p.domain
        assert len(q.side_conditions) == len(p.side_conditions)

    @pytest.mark.parametrize("name", ["example1", "example5"])
    def test_residuals_survive_round_trip(self, name):
        # same smooth candidate, same points: the reloaded problem must
        # produce identical residuals
        p = load_problem(name)
        q = load_problem(serialize_problem(p))
        rng = np.random.default_rng(5)
        if len(p.axes) > 1:
            pts = [(rng.uniform(-0.4, 0.4), rng.uniform(0.1, 0.9)) for _ in range(3)]
        else:
            pts = [rng.uniform(0.1, 0.9) for _ in range(3)]
        a = residuals(p, ExactCandidate(p), pts)
        b = residuals(q, ExactCandidate(q), pts)
        assert a.shape == (p.unknowns, 3)
        assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_requires_source(self):
        p = load_problem("example1")
        bare = type(p)(
            unknowns=p.unknowns, domain=p.domain, equations=p.equations
        )
        with pytest.raises(ValidationError, match="source"):
            serialize_problem(bare)


class TestRejections:
    def test_non_string(self):
        with pytest.raises(ParseError):
            load_problem(123)

    def test_not_json_not_builtin(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            load_problem("example9")

    def test_missing_domain(self):
        with pytest.raises(ValidationError, match="domain"):
            load_problem(json.dumps({"unknowns": 1}))

    def test_missing_required_field(self):
        bad = {"unknowns": 1, "domain": {"lo": 0.0, "hi": 1.0}}
        with pytest.raises(ValidationError, match="missing required field"):
            load_problem(json.dumps(bad))

    def test_unknowns_must_be_positive_int(self):
        bad = {"unknowns": 0, "domain": {"lo": 0, "hi": 1}, "equations": []}
        with pytest.raises(ValidationError):
            load_problem(json.dumps(bad))

    def test_unknown_operator_kind(self):
        data = json.loads(OSCILLATOR)
        data["equations"][0]["terms"][0]["op"] = "laplace"
        with pytest.raises(ValidationError, match="operator kind"):
            load_problem(json.dumps(data))

    def test_derivative_by_x_on_an_interval(self):
        # u' = cos t written with "var": "x" is refused, not solved as d/dt
        data = {
            "unknowns": 1,
            "domain": {"lo": 0.0, "hi": 1.0},
            "equations": [{"terms": [{"op": "deriv", "order": 1, "var": "x", "coeff": 1, "target": 0}],
                           "rhs": "cos(t)"}],
            "side_conditions": [{"target": 0, "point": 0.0, "value": 0.0}],
            "exact": ["sin(t)"],
        }
        with pytest.raises(ValidationError, match=r"equations\[0\]\.terms\[0\].*not an axis"):
            load_problem(json.dumps(data))

    def test_caputo_order_checked(self):
        data = json.loads(OSCILLATOR)
        data["equations"][0]["terms"][0] = {
            "coeff": 1,
            "op": "caputo",
            "alpha": 1.5,
            "target": 0,
        }
        with pytest.raises(ValidationError):
            load_problem(json.dumps(data))

    def test_interval_side_value_must_be_number(self):
        data = json.loads(OSCILLATOR)
        data["side_conditions"][0]["value"] = "sin(t)"
        with pytest.raises(ValidationError, match="number"):
            load_problem(json.dumps(data))

    @pytest.mark.parametrize(
        "path, value",
        [
            (("domain", "lo"), "zero"),
            (("domain", "lo"), None),
            (("domain", "lo"), "0.0"),
            (("domain", "hi"), True),
            (("side_conditions", 0, "point"), "0"),
            (("side_conditions", 1, "value"), None),
            (("side_conditions", 0, "target"), "0"),
            (("side_conditions", 0, "target"), 0.0),
            (("side_conditions", 1, "order"), None),
            (("equations", 0, "terms", 0, "order"), "1"),
            (("equations", 0, "terms", 0, "order"), 1.0),
            (("equations", 0, "terms", 1, "target"), True),
            (("equations", 1, "terms", 0, "coeff"), None),
            (("equations", 1, "rhs"), False),
            (("exact", 0), [1]),
            (("equations",), 7),
            (("equations",), {"terms": []}),
            (("equations", 0, "terms"), 3),
            (("side_conditions",), 5),
            (("side_conditions",), None),
            (("exact",), 7),
            (("exact",), "t"),
            (("exact",), "sin(t)"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v),
    )
    def test_malformed_number_is_named(self, path, value):
        data = json.loads(OSCILLATOR)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        where = path[0] + "".join(
            f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:]
        )
        with pytest.raises(ValidationError, match=re.escape(f"{where}: expected")):
            load_problem(json.dumps(data))

    @pytest.mark.parametrize(
        "key, value",
        [("x_lo", "a"), ("t_hi", None), ("x", "mid"), ("t", None), ("value", [0])],
    )
    def test_malformed_rectangle_number_is_named(self, key, value):
        data = json.loads(json.dumps(BUILTIN_PROBLEMS["example5"]))
        if key in data["domain2"]:
            data["domain2"][key] = value
            where = f"domain2.{key}"
        else:
            data["side_conditions"][2][key] = value
            where = f"side_conditions[2].{key}"
        with pytest.raises(ValidationError, match=re.escape(f"{where}: expected")):
            load_problem(json.dumps(data))

    def test_bad_expression_text(self):
        data = json.loads(OSCILLATOR)
        data["exact"] = ["sin(t)", "import os"]
        with pytest.raises(ParseError):
            load_problem(json.dumps(data))
