"""Every exported name resolves, so a deleted definition cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import qcl

MODULES = ["qcl", *(f"qcl.{m.name}" for m in pkgutil.iter_modules(qcl.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
