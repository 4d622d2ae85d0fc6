"""Every name a heisenkern module lists in ``__all__`` resolves in it, and
importing the package loads no scipy: each scipy piece loads at its first
use, so a fresh process that runs no scipy code never pays for it."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

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


def _scipy_modules_after(code: str) -> list:
    """Top-level scipy modules in sys.modules after ``code`` runs in a fresh interpreter."""
    pkg_root = os.path.dirname(os.path.dirname(heisenkern.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    probe = code + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_import_loads_no_scipy():
    code = "import importlib\n" + "".join(
        f"importlib.import_module('heisenkern.{name}')\n" for name in MODULES)
    assert _scipy_modules_after(code) == []


def test_nested_path_loads_no_scipy():
    code = (
        "from heisenkern.group import poly_field\n"
        "from heisenkern.numerics import QuadratureSpec\n"
        "from heisenkern import semigroup as S\n"
        "cfg = S.HeatOpConfig(t=1.0, quad=QuadratureSpec(abs_tol=1e-4))\n"
        "f = poly_field({(1, 0, 1): 1.0})\n"
        "S.variance(f, cfg)\n"
        "S.interpolation_variance(f, cfg)\n"
    )
    assert _scipy_modules_after(code) == []
