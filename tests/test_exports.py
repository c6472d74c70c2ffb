"""Every exported name of the package and of its modules resolves."""

import importlib
import pkgutil

import pytest

import polyvem

MODULES = sorted(m.name for m in pkgutil.iter_modules(polyvem.__path__))


@pytest.mark.parametrize("name", ["polyvem"] + [f"polyvem.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
