"""Write the 40-digit mpmath reference grid for the unit-time heat kernel.

    python3 perfbench/make_reference.py [--out perfbench/p1_reference.json]

p1(r, z) = (1/4 pi^2) int_0^inf cos(lam z) (lam/sinh lam)
           exp(-(r^2/4) lam coth lam) dlam

is integrated on the real line at 50 working digits, panel by panel,
and every value is recomputed at 60 digits; a point is stored only when
the two agree to 40 significant digits.  The grid covers the working
window r <= 8, |z| <= 9 (the harness kernel table and the chart
measures at R = 10 live there) and the cut-locus region near the axis
at large |z|, where float64 quadrature loses exp((d^2 - r^2)/4) to
cancellation.  One point takes a few seconds, which is why the values
are stored instead of recomputed by the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import mpmath as mp

DIGITS = 40

# working window, then the cut-locus region beyond it
WINDOW_R = (0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0)
WINDOW_Z = (0.0, 1.0, 3.0, 6.0, 9.0)
CUT_LOCUS = ((0.5, 10.0), (1.0, 10.0), (0.5, 12.0), (1.0, 12.0), (2.0, 12.0), (3.0, 12.0))


def grid():
    pts = [(r, z) for z in WINDOW_Z for r in WINDOW_R]
    return pts + [p for p in CUT_LOCUS if p not in pts]


def p1_mp(r: float, z: float, dps: int):
    with mp.workdps(dps):
        r = mp.mpf(r)
        z = mp.mpf(z)
        q = r * r / 4

        def f(lam):
            if lam == 0:
                return mp.exp(-q)
            return mp.cos(lam * z) * lam / mp.sinh(lam) * mp.exp(-q * lam * mp.coth(lam))

        # |integrand| <= 2 lam exp(-(1 + q) lam): cut where that is below
        # 1e-60 of the smallest value on the grid, panels short enough to
        # hold at most half an oscillation of cos(lam z)
        cut = mp.mpf(140) / (1 + q) + 10
        width = min(mp.mpf(1), mp.pi / max(z, mp.mpf(1)))
        n = int(mp.ceil(cut / width))
        return mp.quad(f, [width * k for k in range(n + 1)]) / (4 * mp.pi ** 2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "p1_reference.json"))
    args = ap.parse_args()
    rows = []
    for r, z in grid():
        t0 = time.perf_counter()
        v = p1_mp(r, z, 50)
        check = p1_mp(r, z, 60)
        rel = abs(v - check) / abs(check)
        if not rel < mp.mpf(10) ** (-DIGITS):
            raise SystemExit(f"p1({r}, {z}) not converged to {DIGITS} digits: {mp.nstr(rel, 3)}")
        rows.append({"r": r, "z": z, "p1": mp.nstr(check, DIGITS, min_fixed=1, max_fixed=0)})
        dt = time.perf_counter() - t0
        print(f"r={r:<4} z={z:<5} p1={rows[-1]['p1']}  {dt:.1f} s", flush=True)
    with open(args.out, "w") as fh:
        json.dump({"digits": DIGITS, "mpmath": mp.__version__, "points": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
