"""Byte-for-byte checks of the CLI's CSV output against stored files.

A change that alters any of these bytes must replace the file under
tests/data and say why in CHANGES.md.

The double-precision results depend on the BLAS library and its thread
count (example5 at its default gamma is ill-conditioned, so a threaded
BLAS sums in another order and moves the last digits).  The CLI therefore
runs in a child process with one BLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def cli_csv(tmp_path, *args) -> bytes:
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run(
        [sys.executable, "-m", "daesvr.cli", *args, "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, timeout=300, check=False,
    )
    return out.read_bytes()


@pytest.mark.parametrize(
    "args, stored",
    [
        (("bench",), "bench_all.csv"),
        (("sweep", "example5", "--m", "6"), "sweep_example5_m6.csv"),
    ],
    ids=["bench", "sweep-example5-m6"],
)
def test_csv_bytes(tmp_path, args, stored):
    assert cli_csv(tmp_path, *args) == (DATA / stored).read_bytes()
