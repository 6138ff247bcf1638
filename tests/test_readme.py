"""The code blocks of README.md run as written.

The ```python blocks run in order in one namespace.  Each ```json block is
a problem description: it must load, and its exact solution must satisfy
its equations at interior probes.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from daesvr import load_problem, self_check

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_blocks_run_in_order():
    sources = blocks("python")
    assert sources
    namespace = {}
    for source in sources:
        exec(compile(source, str(README), "exec"), namespace)


@pytest.mark.parametrize("index", range(len(blocks("json"))))
def test_json_blocks_load_and_self_check(index):
    problem = load_problem(blocks("json")[index])
    if len(problem.axes) > 1:
        (xlo, xhi), (tlo, thi) = problem.domain
        probes = [(xlo + f * (xhi - xlo), tlo + f * (thi - tlo)) for f in np.linspace(0.1, 0.9, 5)]
    else:
        lo, hi = problem.domain
        probes = list(lo + np.linspace(0.1, 0.9, 5) * (hi - lo))
    assert self_check("README.md", problem, probes) <= 1e-10
