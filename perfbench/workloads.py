"""The benchmark's workloads: what one pass runs and how its outputs are checked.

Each pass function takes the imported library (``hk``) and a ``field`` hook (identity, or the tracer's field wrapper) and returns
a :class:`PassResult`.  Every checked output is one operation; an
exception raised by a library call fails that call's operation.  The
tolerances are the repository's own: the row pass rule of
``harness._report``, the 5e-3 identity rule, the closed-form and
cross-route rules of the semigroup tests, the chi-squared level of the mc
tests, and the kernel's stated float64 accuracy model.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dataclass_field

# suite: per-member harness work at a family size one run can afford
# (the library default is 200; see README.md)
SUITE_FAMILY_SIZE = 24
# checks: the chi-squared check of tests/test_mc.py, pinned seed included
MC_PATHS = 200_000
MC_STEPS = 600
MC_SEED = 4242
NESTED_T = 1.0
NESTED_ABS_TOL = 1e-4

CLOSED_FORM_RTOL = 1e-5
IV_VS_VARIANCE_RTOL = 1e-3
CHI2_P_MIN = 0.01
# p1_many against the reference: the kernel tests' 1e-6, widened where
# float64 cancellation makes the kernel module promise less,
# ~1e-12 exp((d^2 - r^2)/4) relative
KERNEL_RTOL = 1e-6
KERNEL_NOISE = 1e-12

# failures present at the commit that defined this benchmark; they are
# reported in ``failed`` and do not make the run incorrect
KNOWN_FAILURES = frozenset({
    "commutation/bump-offaxis",
    "commutation/bump-offaxis-2",
    "gamma2-unbounded/gamma2-witness",
})
EXPECTED_VIOLATIONS = frozenset({"kolmogorov-forward-poincare"})

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "p1_reference.json")


@dataclass
class PassResult:
    ops: list = dataclass_field(default_factory=list)      # (name, ok, detail)
    values: list = dataclass_field(default_factory=list)   # (name, float), compared bit for bit
    extra: dict = dataclass_field(default_factory=dict)    # outputs reported as metrics

    def check(self, name: str, ok: bool, detail: str = ""):
        self.ops.append((name, bool(ok), detail))

    def value(self, name: str, v):
        self.values.append((name, float(v).hex()))

    def attempt(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; an exception fails operation ``name`` and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising library call is a failed operation
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None

    def row(self, rep):
        """One harness InequalityReport: its own pass rule decides."""
        name = f"{rep.check}/{rep.function}"
        ok = (not rep.passed) if rep.check in EXPECTED_VIOLATIONS else rep.passed
        self.check(name, ok, f"lhs {rep.lhs:.6g} rhs {rep.rhs:.6g} {rep.note}".strip())
        self.value(name + ".lhs", rep.lhs)
        self.value(name + ".rhs", rep.rhs)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        pts = json.load(fh)["points"]
    return [p["r"] for p in pts], [p["z"] for p in pts], [float(p["p1"]) for p in pts]


def kernel_grid(hk, res: PassResult) -> float:
    """p1_many on the stored mpmath grid in one batch; returns the max rel. error."""
    np = hk.np
    r, z, ref = (np.asarray(a, dtype=float) for a in load_reference())
    got = res.attempt("kernel-grid/p1_many", hk.kernel.p1_many, r, z)
    if got is None:
        return math.inf
    rel = np.abs(got - ref) / ref
    d = hk.geometry.cc_distance_many(r, np.zeros_like(r), z)
    tol = np.maximum(KERNEL_RTOL, KERNEL_NOISE * np.exp(0.25 * (d * d - r * r)))
    for ri, zi, e, tl, v in zip(r, z, rel, tol, got):
        res.check(f"kernel-grid/p1_many({ri:g},{zi:g})", e <= tl, f"rel err {e:.3g} tol {tl:.3g}")
        res.value(f"kernel-grid/p1_many({ri:g},{zi:g})", v)
    return float(np.max(rel))


def scalar_p1_error(hk) -> float:
    """Largest relative error of the adaptive scalar p1 on the reference grid."""
    r, z, ref = load_reference()
    return max(abs(hk.kernel.p1(ri, zi) - v) / v for ri, zi, v in zip(r, z, ref))


def identity_error(hk, res: PassResult) -> float:
    """The three section-3 kernel identities; returns max |measured - target|."""
    rows = res.attempt("identities/check_kernel_identities", hk.harness.check_kernel_identities)
    if rows is None:
        return math.inf
    for rep in rows:
        res.row(rep)
    return max(rep.lhs for rep in rows)


# ---------------------------------------------------------------------------
# passes


def suite_pass(hk, field) -> PassResult:
    """Identities, constants and the inequality suite on the default family.

    The family seed stays at the library default whatever --seed is: the
    C_1 search's Nelder-Mead restarts take seed-dependent work (about 8%
    of a pass between seeds 1 and 5), which would add to run-to-run spread.
    """
    H = hk.harness
    res = PassResult()
    res.extra["identity_err"] = identity_error(hk, res)
    fam = res.attempt("family/build_family", hk.family.build_family, SUITE_FAMILY_SIZE,
                      hk.family.DEFAULT_FAMILY_SEED)
    if fam is None:
        return res
    ce = res.attempt("constants/constants_estimate", H.constants_estimate, fam)
    if ce is None:
        return res
    for name in ("A", "C1_lower", "C2_lower", "C1_working"):
        res.value("constants/" + name, getattr(ce, name))
    out = res.attempt("suite/run_inequality_suite", H.run_inequality_suite, fam, constants=ce)
    if out is None:
        return res
    for rep in out.reports:
        res.row(rep)
    res.value("suite/C1_working", out.constants.C1_working)
    res.extra["harness.rows"] = len(out.reports)
    res.extra["harness.update_passes"] = out.update_passes
    return res


def nested_fields(hk, field):
    """(name, field, closed-form variance at NESTED_T, run interpolation_variance).

    Var(x^2 + y^2) = 16 t^2 and Var(xz) = 10 t^3 / 3 under P_t, both from
    the generator (planar coordinates have variance 2t each).  Only xz goes
    through interpolation_variance: its Zf != 0 drives every term of the
    product loop, while x^2 + y^2 (Zf = 0) would repeat a subset of it.
    """
    G, t = hk.group, NESTED_T
    return (
        ("x2+y2", field(G.poly_field({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, name="x2+y2")),
         16.0 * t * t, False),
        ("xz", field(G.poly_field({(1, 0, 1): 1.0}, name="xz")), 10.0 * t ** 3 / 3.0, True),
    )


def nested_pass(hk, field) -> PassResult:
    """interpolation_variance and variance of polynomials at the nested tier."""
    S = hk.semigroup
    res = PassResult()
    cfg = S.HeatOpConfig(t=NESTED_T, quad=hk.numerics.QuadratureSpec(abs_tol=NESTED_ABS_TOL))
    worst = 0.0
    for name, f, closed, nested in nested_fields(hk, field):
        var = res.attempt(f"nested/{name}/variance", S.variance, f, cfg)
        if var is not None:
            e = abs(var - closed) / closed
            res.check(f"nested/{name}/variance-closed-form", e <= CLOSED_FORM_RTOL,
                      f"var {var:.12g} closed {closed:.12g} rel {e:.3g}")
            res.value(f"nested/{name}/variance", var)
        if not nested:
            continue
        iv = res.attempt(f"nested/{name}/interpolation_variance", S.interpolation_variance, f, cfg)
        if iv is None:
            continue
        e = abs(iv - closed) / closed
        worst = max(worst, e)
        res.check(f"nested/{name}/iv-closed-form", e <= CLOSED_FORM_RTOL,
                  f"iv {iv:.12g} closed {closed:.12g} rel {e:.3g}")
        res.value(f"nested/{name}/iv", iv)
        if var is not None:
            e = abs(iv - var) / var
            res.check(f"nested/{name}/iv-vs-variance", e <= IV_VS_VARIANCE_RTOL, f"rel {e:.3g}")
    res.extra["iv_rel_err"] = worst
    return res


def checks_pass(hk, field) -> PassResult:
    """Ray survey, commutation, Gamma_2, Kolmogorov, Monte Carlo and the kernel grid."""
    H, M = hk.harness, hk.mc
    res = PassResult()
    ray = res.attempt("ray-inequality/check_ray_inequality", H.check_ray_inequality)
    if ray is not None:
        res.row(ray[1])
        res.value("ray/constant", ray[0].constant)
    for f in H.commutation_default_bumps():
        rep = res.attempt(f"commutation/{f.name}", H.check_commutation, f)
        if rep is not None:
            res.row(rep)
    rep = res.attempt("gamma2-unbounded/search", H.demonstrate_gamma2_unbounded)
    if rep is not None:
        res.row(rep)
    rows = res.attempt("kolmogorov/check_kolmogorov_counterexample",
                       H.check_kolmogorov_counterexample)
    for rep in rows or ():
        res.row(rep)
    stats = res.attempt("mc/sample_batch", M.sample_batch, MC_PATHS,
                        M.PathConfig(1.0, MC_STEPS, MC_SEED))
    if stats is not None:
        chi = res.attempt("mc/chi2_against_kernel", M.chi2_against_kernel, stats)
        if chi is not None:
            res.check("mc/chi2", chi.p_value > CHI2_P_MIN,
                      f"chi2 {chi.statistic:.4g} dof {chi.dof} p {chi.p_value:.4g}")
            res.value("mc/chi2", chi.statistic)
            res.extra["mc.chi2_p_value"] = chi.p_value
    res.extra["kernel_rel_err"] = kernel_grid(hk, res)
    return res


@dataclass(frozen=True)
class Workload:
    run: object          # pass function (hk, field) -> PassResult
    seeds: dict          # every seed the inputs come from; none is --seed


# No workload draws its inputs from --seed: each one's seeds are pinned
# for the reasons given in README.md, so the same inputs run every time.
WORKLOADS = {
    "suite": Workload(suite_pass, {"family": "library default"}),
    "nested": Workload(nested_pass, {}),
    "checks": Workload(checks_pass, {"mc_paths": MC_SEED, "kolmogorov": "library default",
                                     "gamma2": "library default"}),
}
