"""Every name a qcw module lists in ``__all__`` is defined there."""

import importlib
import pkgutil

import pytest

import qcw

MODULES = sorted(m.name for m in pkgutil.iter_modules(qcw.__path__, "qcw."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
