"""heisenkern benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload suite|nested|checks --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The
workloads, metrics and the correctness gate are described in
perfbench/README.md.  Every process runs with BLAS capped at one thread.

--trace 0: two fresh processes run the workload side by side, one per
core.  Each imports the library, runs a cold pass and then warm passes
for --seconds.  Each gives one set-up sample, the wall time from before
``import heisenkern`` to the end of its cold pass; setup_s is their
median.  pass_s is the median over both processes' warm passes.
--trace 1: one process; its cold pass and every second warm pass are traced.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
BLAS_THREADS = 1

# outputs of a pass that are reported as per-layer metrics (0 where not computed)
LAYER_OUTPUTS = ("harness.rows", "harness.update_passes", "mc.chi2_p_value",
                 "kernel.p1.max_rel_err", "identity_err", "iv_rel_err")


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment(workload: str, record: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS, "cpu": cpu,
            **record["versions"], "workload": workload, "seed": record["seed"],
            "seeds": record["seeds"]}


def start_worker(args, role: str, spans: str = ""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if spans:
        cmd += ["--spans", spans]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)


def finish(proc, deadline: float) -> dict:
    out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workers(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    procs = []
    try:
        if args.trace:
            seed = "default" if args.seed is None else args.seed
            spans = os.path.join(ROOT, ".bench_build", "perfbench",
                                 f"spans-{args.workload}-seed{seed}.json")
            procs.append(start_worker(args, "primary", spans))
            return finish(procs[0], deadline), []
        procs += [start_worker(args, "primary"), start_worker(args, "setup")]
        return finish(procs[0], deadline), [finish(procs[1], deadline)]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def main():
    ap = argparse.ArgumentParser(description="heisenkern benchmark")
    ap.add_argument("--workload", required=True, choices=("suite", "nested", "checks"))
    ap.add_argument("--seed", type=int, default=None,
                    help="recorded in the result; every workload pins its own seeds")
    ap.add_argument("--seconds", type=float, default=10.0, help="warm-pass measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "heisenkern", "__init__.py")):
        sys.exit(f"heisenkern sources not found under {os.path.join(ROOT, 'src')}")

    try:
        primary, others = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        sys.exit(f"benchmark run failed: {exc}")

    ops = [tuple(op) for rec in [primary] + others for op in rec["ops"]]
    for k, rec in enumerate(others):
        ops.append((f"determinism/setup-process-{k}", rec["digest"] == primary["digest"],
                    "cold-pass outputs bit-identical across processes"))
    known = set(primary["known_failures"])
    failed = [op for op in ops if not op[1]]
    unexpected = [op for op in failed if op[0] not in known]

    samples = [t for rec in [primary] + others for t in rec["pass_s"]]
    pass_s = statistics.median(samples)
    out = primary["outputs"]
    if args.trace:
        values = dict(primary["layers"])
        values.update({k: float(out.get(k, 0.0)) for k in LAYER_OUTPUTS})
        values["trace.overhead_frac"] = statistics.median(primary["traced_pass_s"]) / pass_s - 1.0
        units = declared_units("per_layer")
    else:
        setups = sorted(rec["first_s"] for rec in [primary] + others)
        # the one-time share of set-up; printed only, as it is the difference of two passes
        one_time = sorted(rec["first_s"] - rec["pass_s"][0] for rec in [primary] + others)
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "peak_rss_mb": primary["peak_rss_mb"],
            "kernel_rel_err": out["kernel_rel_err"],
        }
        units = declared_units("end_to_end")
    if set(values) != set(units):
        sys.exit(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: (values[k], units[k]) for k in units}

    print("env " + json.dumps(environment(args.workload, primary)))
    print(f"samples: pass_s n={len(samples)} {[round(v, 4) for v in samples]}"
          + (f"; traced n={len(primary['traced_pass_s'])} "
             f"{[round(v, 4) for v in primary['traced_pass_s']]}" if args.trace else
             f"; setup_s n={len(setups)} {[round(v, 4) for v in setups]}"
             f"; one-time (setup - first warm pass) {[round(v, 4) for v in one_time]}"))
    for name, ok, detail in failed:
        tag = "known failure" if name in known else "FAILED"
        print(f"{tag}: {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
