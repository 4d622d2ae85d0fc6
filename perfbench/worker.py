"""One fresh benchmark process: import heisenkern, run passes, report as JSON.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --role R

Both roles import, run the first (cold) pass and then warm passes until
``seconds`` have passed (at least one).  Role "primary" also checks every
output and measures the yardsticks; role "setup" reports only its timings,
its cold-pass outputs and its determinism checks.  With --trace 1 (primary
only) the cold pass is traced and warm passes alternate untraced and
traced.  The last line of
stdout is one JSON record.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before heisenkern (and numpy) are imported

import argparse
import json
import os
import resource
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402  (imports nothing from numpy or heisenkern)


def import_library():
    import numpy as np

    import heisenkern
    from heisenkern import family, geometry, group, harness, kernel, mc, numerics, semigroup

    return types.SimpleNamespace(np=np, heisenkern=heisenkern, family=family, geometry=geometry,
                                 group=group, harness=harness, kernel=kernel, mc=mc,
                                 numerics=numerics, semigroup=semigroup)


def versions(hk) -> dict:
    import scipy

    blas = hk.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": hk.np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "heisenkern": hk.heisenkern.__version__, "python": sys.version.split()[0]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="recorded only; every workload pins its own seeds")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("primary", "setup"), required=True)
    ap.add_argument("--spans", default="", help="file for the raw spans of a traced run")
    args = ap.parse_args()
    wl = W.WORKLOADS[args.workload]

    hk = import_library()
    import_s = time.perf_counter() - T_START

    tracer = None
    field = lambda f: f  # noqa: E731
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        sites = tr.library_sites(tracer, hk)

        def field(f):
            return tr.wrap_field(tracer, f, hk.group.ScalarField)

    def run_pass(traced: bool):
        if traced:
            tracer.install(sites)
        try:
            t0 = time.perf_counter()
            res = wl.run(hk, field if traced else (lambda f: f))
            return res, time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()

    cold, cold_s = run_pass(bool(tracer))
    first_s = time.perf_counter() - T_START

    checks = []
    pass_s, traced_s = [], []
    t_warm = time.perf_counter()
    k = 0
    while True:
        traced = bool(tracer) and k % 2 == 1
        if tracer:
            tracer.phase = f"warm-{k}"
        res, dt = run_pass(traced)
        (traced_s if traced else pass_s).append(dt)
        label = "traced" if traced else "warm"
        checks.append((f"determinism/{args.role}/{label}-pass-{k}", res.values == cold.values,
                       "outputs bit-identical to the cold pass"))
        k += 1
        done = time.perf_counter() - t_warm >= args.seconds
        if done and pass_s and (traced_s or not tracer):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"role": args.role, "import_s": import_s, "first_s": first_s, "cold_s": cold_s,
              "pass_s": pass_s, "digest": cold.values}
    if args.role == "setup":
        record["ops"] = checks
        print(json.dumps(record))
        return
    ops = cold.ops + checks

    # yardsticks: the accuracy metrics a pass of this workload does not compute
    yard = W.PassResult()
    outputs = dict(cold.extra)
    if "kernel_rel_err" not in outputs:
        outputs["kernel_rel_err"] = W.kernel_grid(hk, yard)
    if tracer:
        outputs["kernel.p1.max_rel_err"] = W.scalar_p1_error(hk)
    ops += [(f"yardstick/{n}", ok, d) for n, ok, d in yard.ops]

    record.update({
        "traced_pass_s": traced_s, "peak_rss_mb": peak_rss_mb,
        "ops": ops, "outputs": outputs, "versions": versions(hk),
        "known_failures": sorted(W.KNOWN_FAILURES), "seed": args.seed, "seeds": wl.seeds,
    })
    if tracer:
        record["layers"] = tr.layer_metrics(tracer.spans, len(traced_s))
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
