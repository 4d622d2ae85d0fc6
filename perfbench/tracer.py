"""Span tracing of heisenkern from outside the library.

The tracer replaces public names at the sites where the library itself
looks them up (a module attribute, or a class attribute for methods), so
calls between modules are seen as well as calls from the benchmark.
Each call becomes a span (name, start, end, parent, phase) with the work
it was handed (points, distinct (r, |z|) pairs, nodes built).  Spans stay
in memory and are written out once, when the run ends.

A site that no longer exists raises :class:`MissingSiteError` at install
time: a renamed or removed entry point must fail the traced run, never
read as a layer that did no work.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


class MissingSiteError(RuntimeError):
    """A traced name is not where the benchmark expects it."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "points", "unique", "built")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.points = 0
        self.unique = 0
        self.built = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def count_points(*positions):
    """Counter: points = broadcast size of the positional arguments given."""

    def counter(span, args, out):
        span.points = _size(*(args[i] for i in positions))

    return counter


def count_pairs(span, args, out):
    """Counter for (r, z) kernel batches: points and distinct (r, |z|) pairs."""
    r, z = np.broadcast_arrays(np.asarray(args[0], float), np.asarray(args[1], float))
    span.points = int(r.size)
    span.unique = int(np.unique(np.abs(r).ravel() + 1j * np.abs(z).ravel()).size)


def count_rows(span, args, out):
    """Counter for radial_row(rs, z): one point per radius."""
    span.points = int(np.asarray(args[0]).size)


def count_paths(span, args, out):
    """Counter for sample_batch(n, cfg): path steps simulated."""
    span.points = int(args[0]) * int(args[1].n_steps)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "cold"
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._measures: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _call(self, name, counter, fn, args, kwargs):
        span = Span(name, 0.0, self._stack[-1] if self._stack else -1, self.phase)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            counter(span, args, out)
        return out

    def count_measure(self, span, args, out):
        """Counter for heat_measure: a measure object not seen before was built."""
        span.points = int(out.x.size)
        if id(out) not in self._measures:
            self._measures.add(id(out))
            span.built = True

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, counter, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, sites):
        """Replace each (owner, attribute, span name, counter) site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in sites:
            if attr not in vars(owner):
                self.uninstall()
                raise MissingSiteError(f"{getattr(owner, '__name__', owner)}.{attr} is gone; "
                                       "update the benchmark's trace sites")
            orig = vars(owner)[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, counter))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def library_sites(tracer: Tracer, hk) -> list:
    """Every traced site, as (owner, attribute, span name, counter).

    ``hk`` is a namespace holding the imported heisenkern modules.  Kernel
    entry points are wrapped at each module that imported them, because
    that module's attribute is what its code calls.
    """
    K, S, H, M, F = hk.kernel, hk.semigroup, hk.harness, hk.mc, hk.family
    pts = count_points
    sites = []
    for mod in (K, S, H, M):
        sites.append((mod, "p1_many", "kernel.p1_many", count_pairs))
    for mod in (S, H):
        sites.append((mod, "log_grad_many", "kernel.log_grad_many", count_pairs))
        sites.append((mod, "heat_measure", "semigroup.heat_measure", tracer.count_measure))
        sites.append((mod, "chart_ball_nodes", "geometry.chart_ball_nodes", None))
    for mod in (K, H, F):
        sites.append((mod, "cc_distance_many", "geometry.cc_distance_many", pts(0, 1, 2)))
    sites += [
        (K, "integrate_decaying", "numerics.integrate_decaying", None),
        (K, "radial_row", "kernel.radial_row", count_rows),
        (K, "get_spline_tables", "kernel.get_spline_tables", None),
        (K.LogHSplineTables, "bundle", "kernel.spline_bundle", pts(1, 2)),
        (S, "interpolation_variance", "semigroup.interpolation_variance", None),
        (S, "variance", "semigroup.variance", None),
        (H, "p1_star_shifted", "kernel.p1_star_shifted", None),
        (H, "estimate_A", "harness.estimate_A", None),
        (H, "check_kernel_identities", "harness.check_kernel_identities", None),
        (H, "constants_estimate", "harness.constants_estimate", None),
        (H, "run_inequality_suite", "harness.run_inequality_suite", None),
        (H, "check_phi_suite", "harness.check_phi_suite", None),
        (H, "check_cheeger_bobkov", "harness.check_cheeger_bobkov", None),
        (H, "check_ray_inequality", "harness.check_ray_inequality", None),
        (H, "check_commutation", "harness.check_commutation", None),
        (H, "demonstrate_gamma2_unbounded", "harness.demonstrate_gamma2_unbounded", None),
        (H, "check_kolmogorov_counterexample", "harness.check_kolmogorov_counterexample", None),
        (H, "build_family", "family.build_family", None),
        (F, "build_family", "family.build_family", None),
        (M, "sample_batch", "mc.sample_batch", count_paths),
        (M, "kernel_cell_masses", "mc.kernel_cell_masses", None),
        (M, "chi2_against_kernel", "mc.chi2_against_kernel", None),
    ]
    return sites


def wrap_field(tracer: Tracer, f, field_type):
    """A copy of ScalarField ``f`` whose eval and gradient record spans."""
    grad = f.analytic_gradient
    return field_type(
        eval=tracer.wrap("group.field.eval", f.eval, count_points(0, 1, 2)),
        analytic_gradient=None if grad is None else
        tracer.wrap("group.field.gradient", grad, count_points(0, 1, 2)),
        fd_step=f.fd_step,
        name=f.name,
    )


# ---------------------------------------------------------------------------
# per-layer metrics

# metrics of set-up work are read from the traced cold pass (the first pass
# of a fresh process); the rest are means per traced warm pass
COLD_LAYERS = ("kernel.p1_many", "semigroup.heat_measure", "kernel.get_spline_tables",
               "kernel.radial_row", "geometry.chart_ball_nodes", "geometry.cc_distance_many",
               "family.build_family")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans, n_warm: int) -> dict:
    """Per-layer metrics from the spans of one traced process."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration

    def under(i, name):
        while i >= 0:
            if spans[i].name == name:
                return True
            i = spans[i].parent
        return False

    def agg(name):
        phase_cold = name in COLD_LAYERS
        sel = [(i, s) for i, s in enumerate(spans)
               if s.name == name and (s.phase == "cold") == phase_cold]
        n = 1 if phase_cold else max(n_warm, 1)
        return {
            "calls": len(sel) / n,
            "s": sum(s.duration for _, s in sel) / n,
            "self_s": sum(s.duration - child[i] for i, s in sel) / n,
            "points": sum(s.points for _, s in sel) / n,
            "unique": sum(s.unique for _, s in sel) / n,
            "builds": sum(s.built for _, s in sel) / n,
            "build_s": sum(s.duration for _, s in sel if s.built) / n,
            "nodes_built": sum(s.points for _, s in sel if s.built) / n,
        }

    p1m, hm, lg = agg("kernel.p1_many"), agg("semigroup.heat_measure"), agg("kernel.log_grad_many")
    iv = agg("semigroup.interpolation_variance")
    fe, fg = agg("group.field.eval"), agg("group.field.gradient")
    field_points = fe["points"] + fg["points"]
    product = sum(s.points for i, s in enumerate(spans)
                  if s.name == "group.field.gradient" and s.phase != "cold"
                  and under(s.parent, "semigroup.interpolation_variance")) / max(n_warm, 1)
    bundle, ide = agg("kernel.spline_bundle"), agg("numerics.integrate_decaying")
    psh = agg("kernel.p1_star_shifted")
    sb, rr, cc = agg("mc.sample_batch"), agg("kernel.radial_row"), agg("geometry.cc_distance_many")
    return {
        "kernel.p1_many.points": p1m["points"],
        "kernel.p1_many.s": p1m["s"],
        "kernel.p1_many.us_per_point": _ratio(p1m["s"], p1m["points"], 1e6),
        "kernel.p1_many.unique_frac": _ratio(p1m["unique"], p1m["points"]),
        "semigroup.heat_measure.calls": hm["calls"],
        "semigroup.heat_measure.builds": hm["builds"],
        "semigroup.heat_measure.build_s": hm["build_s"],
        "semigroup.heat_measure.nodes_built": hm["nodes_built"],
        "kernel.log_grad_many.points": lg["points"],
        "kernel.log_grad_many.s": lg["s"],
        "kernel.log_grad_many.unique_frac": _ratio(lg["unique"], lg["points"]),
        "semigroup.interpolation_variance.self_s": iv["self_s"],
        "semigroup.product_points": product,
        "semigroup.ns_per_product_point": _ratio(iv["s"], product, 1e9),
        "group.field.points": field_points,
        "group.field.ns_per_point": _ratio(fe["s"] + fg["s"], field_points, 1e9),
        "kernel.get_spline_tables.build_s": agg("kernel.get_spline_tables")["s"],
        "kernel.radial_row.points": rr["points"],
        "kernel.radial_row.s": rr["s"],
        "kernel.spline_bundle.points": bundle["points"],
        "kernel.spline_bundle.ns_per_point": _ratio(bundle["s"], bundle["points"], 1e9),
        "harness.check_cheeger_bobkov.self_s": agg("harness.check_cheeger_bobkov")["self_s"],
        "harness.check_phi_suite.s": agg("harness.check_phi_suite")["s"],
        "harness.constants_estimate.s": agg("harness.constants_estimate")["s"],
        "harness.estimate_A.s": agg("harness.estimate_A")["s"],
        "harness.check_kernel_identities.s": agg("harness.check_kernel_identities")["s"],
        "numerics.integrate_decaying.calls": ide["calls"],
        "numerics.integrate_decaying.s": ide["s"],
        "kernel.p1_star_shifted.calls": psh["calls"],
        "kernel.p1_star_shifted.us_per_call": _ratio(psh["s"], psh["calls"], 1e6),
        "harness.check_commutation.s": agg("harness.check_commutation")["s"],
        "harness.check_ray_inequality.s": agg("harness.check_ray_inequality")["s"],
        "mc.sample_batch.s": sb["s"],
        "mc.path_steps_per_s": _ratio(sb["points"], sb["s"]),
        "mc.kernel_cell_masses.s": agg("mc.kernel_cell_masses")["s"],
        "geometry.chart_ball_nodes.s": agg("geometry.chart_ball_nodes")["s"],
        "geometry.cc_distance_many.points": cc["points"],
        "geometry.cc_distance_many.s": cc["s"],
        "family.build_family.s": agg("family.build_family")["s"],
    }
