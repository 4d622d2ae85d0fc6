"""Tests of the benchmark's tracer (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_trace.py

Tracing must not change a single bit of any result, must put every
wrapped name back when it is removed, and must refuse to run when a site
it expects has gone.
"""

import types

import numpy as np
import pytest

import tracer as tr
import workloads as W
from heisenkern import family, geometry, group, harness, kernel, mc, numerics, semigroup

HK = types.SimpleNamespace(np=np, family=family, geometry=geometry, group=group, harness=harness,
                           kernel=kernel, mc=mc, numerics=numerics, semigroup=semigroup)


def mini_pass(field):
    """A cheap pass through every traced layer; returns its outputs as float hex."""
    res = W.PassResult()
    W.kernel_grid(HK, res)
    cfg = semigroup.HeatOpConfig(t=1.0, quad=numerics.QuadratureSpec(abs_tol=W.NESTED_ABS_TOL))
    for name, f, _, _ in W.nested_fields(HK, field):
        res.value(name, semigroup.variance(f, cfg))
    m = semigroup.heat_measure(cfg)
    for g in semigroup.grad_Pt_origin(field(group.poly_field({(1, 0, 1): 1.0})), cfg, route="ibp"):
        res.value("ibp", g)
    r = np.hypot(m.x[:64], m.y[:64])
    for v in kernel.get_spline_tables().bundle(r, m.z[:64]):
        res.values += [("bundle", float(x).hex()) for x in v]
    res.value("p1*", kernel.p1_star_shifted(1.5, 0.5).re)
    stats = mc.sample_batch(2000, mc.PathConfig(1.0, 20, 3))
    res.value("chi2", mc.chi2_against_kernel(stats).statistic)
    return res.values


def test_traced_results_are_bit_identical():
    t = tr.Tracer()
    sites = tr.library_sites(t, HK)
    t.install(sites)  # traced first, so the cold builds are traced too
    try:
        traced = mini_pass(lambda f: tr.wrap_field(t, f, group.ScalarField))
    finally:
        t.uninstall()
    assert traced == mini_pass(lambda f: f)
    names = {s.name for s in t.spans}
    for want in ("kernel.p1_many", "kernel.log_grad_many", "semigroup.heat_measure",
                 "kernel.spline_bundle", "numerics.integrate_decaying", "group.field.eval",
                 "mc.sample_batch", "mc.kernel_cell_masses"):
        assert want in names


def test_uninstall_restores_every_site():
    t = tr.Tracer()
    sites = tr.library_sites(t, HK)
    before = [vars(owner)[attr] for owner, attr, _, _ in sites]
    t.install(sites)
    assert all(vars(owner)[attr] is not b for (owner, attr, _, _), b in zip(sites, before))
    t.uninstall()
    assert all(vars(owner)[attr] is b for (owner, attr, _, _), b in zip(sites, before))


def test_missing_site_fails_loudly():
    t = tr.Tracer()
    fake = types.ModuleType("fake")
    fake.p1_many = kernel.p1_many
    sites = [(fake, "p1_many", "kernel.p1_many", None), (fake, "gone", "kernel.gone", None)]
    with pytest.raises(tr.MissingSiteError):
        t.install(sites)
    assert fake.p1_many is kernel.p1_many


def test_pair_counts_and_self_time():
    t = tr.Tracer()

    def inner(r, z):
        return np.asarray(r) + np.asarray(z)

    wrapped_inner = t.wrap("kernel.p1_many", inner, tr.count_pairs)
    outer = t.wrap("harness.check_phi_suite",
                   lambda: wrapped_inner([1.0, 1.0, 2.0], [3.0, -3.0, 3.0]))
    outer()
    t.phase = "warm-1"
    outer()
    p1, parent = t.spans[1], t.spans[0]
    assert (p1.points, p1.unique, p1.parent) == (3, 2, 0)
    assert parent.parent == -1
    got = tr.layer_metrics(t.spans, n_warm=1)
    assert got["kernel.p1_many.points"] == 3          # cold pass only
    assert got["kernel.p1_many.unique_frac"] == pytest.approx(2 / 3)
    assert got["harness.check_phi_suite.s"] == pytest.approx(t.spans[2].duration)
