"""Byte-for-byte checks of the CLI's output against stored files.

A change that alters any of these bytes must replace the file under
tests/data (or the digest below) and say why in CHANGES.md.

The double-precision results depend on the BLAS library and its thread
count (example5 at its default gamma is ill-conditioned, so a threaded
BLAS sums in another order and moves the last digits).  The CLI therefore
runs in a child process with one BLAS thread.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


# sha256 of the --plot-data file of `bench example1 example5` (100 KB)
PLOT_DATA_EXAMPLE1_EXAMPLE5 = "a7bcb94b7ee5d46fee5774e77c979b464c85da8143ec3d4d2c4c9c757126947e"


def run_cli(tmp_path, *args) -> bytes:
    """The CLI's stdout bytes, run with one BLAS thread in `tmp_path`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "daesvr.cli", *args],
        env=env, cwd=tmp_path, capture_output=True, timeout=300, check=False,
    )
    return done.stdout


def cli_csv(tmp_path, *args) -> bytes:
    out = tmp_path / "out.csv"
    run_cli(tmp_path, *args, "--out", str(out))
    return out.read_bytes()


@pytest.mark.parametrize(
    "args, stored",
    [
        (("bench",), "bench_all.csv"),
        (("sweep", "example5", "--m", "6"), "sweep_example5_m6.csv"),
        (("bench", "example3", "--fractional-scheme", "l1:400"), "bench_example3_l1_400.csv"),
    ],
    ids=["bench", "sweep-example5-m6", "bench-example3-l1"],
)
def test_csv_bytes(tmp_path, args, stored):
    assert cli_csv(tmp_path, *args) == (DATA / stored).read_bytes()


def test_bench_stdout_bytes(tmp_path):
    assert run_cli(tmp_path, "bench") == (DATA / "bench_stdout.txt").read_bytes()


def test_plot_data_digest(tmp_path):
    run_cli(tmp_path, "bench", "example1", "example5", "--plot-data", "plot.csv")
    digest = hashlib.sha256((tmp_path / "plot.csv").read_bytes()).hexdigest()
    assert digest == PLOT_DATA_EXAMPLE1_EXAMPLE5
