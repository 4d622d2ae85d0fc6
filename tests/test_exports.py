"""Every name a heisenkern module lists in ``__all__`` resolves in it."""

import importlib
import pkgutil

import pytest

import heisenkern

MODULES = sorted(m.name for m in pkgutil.iter_modules(heisenkern.__path__))


def test_modules_found():
    assert "harness" in MODULES and len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"heisenkern.{name}")
    assert mod.__all__, name
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, (name, missing)
