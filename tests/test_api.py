"""Every exported name resolves: the package's and each submodule's __all__.

The package's `__all__` is the concatenation of the `__all__` of the
modules it re-exports, so each public name is listed once, in its module.
"""

import importlib
import pkgutil

import pytest

import daesvr

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(daesvr.__path__))


def test_package_exports_resolve():
    missing = [name for name in daesvr.__all__ if not hasattr(daesvr, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"daesvr.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


REEXPORTED = ["benchmarks", "errors", "fractional", "highprec", "legendre", "model", "schema", "solver"]


def test_package_exports_are_the_modules_exports():
    modules = [importlib.import_module(f"daesvr.{name}") for name in REEXPORTED]
    assert daesvr.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(daesvr.__all__)) == len(daesvr.__all__)


def test_names_once_missing_from_the_package():
    # README documents write_plot_data; solve_interpolant raises SingularSystem
    from daesvr import SingularSystem, case_names, write_plot_data

    assert issubclass(SingularSystem, daesvr.DaeSvrError)
    assert write_plot_data is daesvr.benchmarks.write_plot_data
    assert case_names is daesvr.benchmarks.case_names
