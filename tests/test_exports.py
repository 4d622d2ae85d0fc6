"""Every name a heisenkern module lists in ``__all__`` resolves in it and
is used by the library itself, unless it is one of the few entry points
below; and the library needs numpy alone at run time: no module names
scipy, importing the package or running the nested path or the kernel
tables loads none of it, and the checks and the Monte Carlo p-value run
with scipy made unimportable.  The tests take scipy as an oracle only.
Code that only the tests call lives in tests/oracles.py."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import heisenkern

MODULES = sorted(m.name for m in pkgutil.iter_modules(heisenkern.__path__))

# the public names no heisenkern code calls, each group with its reason
ENTRY_POINTS = (
    (("harness.check_kernel_identities", "harness.check_driver_melcher",
      "harness.check_reverse_poincare", "harness.check_ray_inequality",
      "harness.check_local_11_poincare", "harness.check_commutation",
      "harness.demonstrate_gamma2_unbounded", "harness.check_kolmogorov_counterexample",
      "harness.run_inequality_suite"), "the paper's checks, the harness's API for its callers"),
    (("semigroup.variance", "semigroup.interpolation_variance"),
     "the two sides of the variance identity, the nested workload"),
    (("semigroup.grad_Pt_origin",), "P_t's gradient at the origin by the ibp route, which "
                                    "the benchmark's test_trace.mini_pass runs"),
    (("mc.sample_batch", "mc.chi2_against_kernel"), "the Monte Carlo check against the kernel"),
    (("kernel.p1",), "the one-point kernel, the benchmark's yardstick for p1_many in "
                     "workloads.scalar_p1_error"),
    (("kernel.radial_row",), "the kernel with its five derivatives, a traced site in the "
                             "benchmark's tracer.library_sites"),
)


def test_modules_found():
    assert "harness" in MODULES and len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"heisenkern.{name}")
    assert mod.__all__, name
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, (name, missing)


def _trees(names) -> dict:
    """Module name -> parsed source, for the named heisenkern modules."""
    src = os.path.dirname(heisenkern.__file__)
    trees = {}
    for name in names:
        with open(os.path.join(src, f"{name}.py")) as fh:
            trees[name] = ast.parse(fh.read())
    return trees


def _unused_exports() -> set:
    """Names in a module's ``__all__`` that no heisenkern module uses.

    A name is used when its own module loads it outside its definition,
    or another module imports it with ``from .module import name``.
    """
    trees = _trees(MODULES)
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    unused = set()
    for name, tree in trees.items():
        bodies = {node.name: set(ast.walk(node)) for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for export in importlib.import_module(f"heisenkern.{name}").__all__:
            own = bodies.get(export, set())
            loaded = any(isinstance(node, ast.Name) and node.id == export
                         and isinstance(node.ctx, ast.Load) and node not in own
                         for node in ast.walk(tree))
            if not (loaded or (name, export) in imported):
                unused.add(f"{name}.{export}")
    return unused


def test_every_export_is_used_or_an_entry_point():
    """No library code that only the tests call: an exported name either
    has a caller in heisenkern or is a listed entry point (and a listed
    entry point that gains a library caller leaves the list)."""
    entry = {n for names, _ in ENTRY_POINTS for n in names}
    unused = _unused_exports()
    assert not unused - entry, f"exported, unused by heisenkern: {sorted(unused - entry)}"
    assert not entry - unused, f"entry points the library itself calls: {sorted(entry - unused)}"


def _last_line(code: str) -> str:
    """The last line ``code`` prints when run in a fresh interpreter."""
    pkg_root = os.path.dirname(os.path.dirname(heisenkern.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def _scipy_modules_after(code: str) -> list:
    """Top-level scipy modules in sys.modules after ``code`` runs in a fresh interpreter."""
    return ast.literal_eval(_last_line(code + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )))


def test_no_module_names_scipy():
    """No import, name or module-name string in the package is scipy's."""
    for module, tree in _trees(MODULES + ["__init__"]).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            assert all(n.split(".")[0] != "scipy" for n in names), (module, node.lineno)


def test_checks_run_with_scipy_blocked():
    """With scipy unimportable, the suite on the 12-member family (the
    Bobkov rows' Gaussian quantile and tensorized root included), the
    commutation and Kolmogorov checks and a small Monte Carlo batch with
    its chi-squared p-value all run."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from heisenkern import family, harness, mc\n"
        "harness.run_inequality_suite(family.build_family(12))\n"
        "harness.check_commutation(harness.commutation_default_bumps()[0])\n"
        "harness.check_kolmogorov_counterexample()\n"
        "stats = mc.sample_batch(20_000, mc.PathConfig(1.0, 100, 7))\n"
        "print(mc.chi2_against_kernel(stats).p_value)\n"
    )
    assert 0.0 < float(_last_line(code)) <= 1.0


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


def test_kernel_tables_load_no_scipy_interpolate():
    """Both bicubic tables, the spline bundle's and the p1 window table,
    are filled, fitted and read with numpy alone: no scipy module loads."""
    code = (
        "import numpy as np\n"
        "from heisenkern import kernel\n"
        "kernel.get_spline_tables().bundle(np.array([0.5, 3.0]), np.array([-1.0, 2.0]))\n"
        "kernel._pt_density(np.array([0.5, 3.0]), 0.0, np.array([-1.0, 2.0]))\n"
    )
    assert _scipy_modules_after(code) == []


def test_console_scripts_import():
    """Every console script pyproject declares names a callable that
    imports, so an installed script never fails on its first call."""
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for script, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), script
