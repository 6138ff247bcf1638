"""Every exported name resolves: the package's and each submodule's __all__."""

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

