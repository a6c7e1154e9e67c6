"""Every name a gaplab module exports resolves, so a deleted function
cannot leave a dangling entry in an ``__all__``."""
import importlib
import pkgutil

import pytest

import gaplab

MODULES = ["gaplab"] + [f"gaplab.{info.name}"
                        for info in pkgutil.iter_modules(gaplab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_something():
    assert len(gaplab.__all__) > 0
