"""Measure the homotopy burn-in of one source tree.

    python3 scripts/burnin_profile.py SRC timing [SOLVES]
    python3 scripts/burnin_profile.py SRC complex-levels [TRIALS]

SRC is a ``src`` directory holding an ``affinepr`` package; the package is
imported from there only.  Set ``OPENBLAS_NUM_THREADS`` in the environment to
measure a BLAS thread count.  Each mode prints one JSON object.

``timing`` solves SOLVES (default 12) real instances per m in 40, 100 and
160 (n=64, k=3, constant bias c=1, ``restarts=2``, seeds ``("burnin", m, t)``)
after one warm-up solve, and reports the median ms per solve spent inside
``solver._homotopy_burn_in`` and in the whole solve.

``complex-levels`` replays the burn-in of both anchor chains for TRIALS
(default 100) instances of acceptance criterion 3's cell, read from
``tests/fixtures/calibration.json``, with the early-exit test switched on
(the complex solver never runs it) and every level's direct solve of
A x = u*y - b recorded.  For each residual tolerance it reports how many
trials reach it at some level, the first such level, and in how many of
them that level's direct solve already recovers x0 (the harness's
global-phase success test).  Needs a tree whose burn-in takes the
``certify`` argument and calls ``solver._direct``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Relative residuals ||A x - c|| / (1 + ||c||) of the direct solve; 1e-9 is
# the direct path's own feasibility test.
RESIDUAL_TOLS = (1e-9, 1e-6, 1e-3, 1e-2)


def timing(solves: int) -> dict:
    from affinepr import SeedSpec, SolverOptions, make_instance, solve_affine_pr_real
    from affinepr import solver

    inner = solver._homotopy_burn_in
    spent = []

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return inner(*args)
        finally:
            spent.append(time.perf_counter() - t0)

    solver._homotopy_burn_in = timed
    opts = SolverOptions(restarts=2, restart_seed=1)
    warm = make_instance("real", 64, 3, 100, SeedSpec(0, ("burnin", "warm")), bias=1.0)
    solve_affine_pr_real(warm.ensemble, warm.y, 0.0, opts)
    out = {}
    for m in (40, 100, 160):
        solve_ms, burn_ms = [], []
        for t in range(solves):
            inst = make_instance("real", 64, 3, m, SeedSpec(0, ("burnin", m, t)), bias=1.0)
            spent.clear()
            t0 = time.perf_counter()
            solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
            solve_ms.append(1e3 * (time.perf_counter() - t0))
            burn_ms.append(1e3 * sum(spent))
        out[f"m={m}"] = {
            "solves": solves,
            "solve_ms_p50": statistics.median(solve_ms),
            "burn_in_ms_p50": statistics.median(burn_ms),
        }
    return out


def complex_levels(trials: int) -> dict:
    import numpy as np

    from affinepr import SeedSpec, global_phase_error, make_instance
    from affinepr import solver

    with open(os.path.join(ROOT, "tests", "fixtures", "calibration.json"), encoding="utf-8") as fh:
        fx = json.load(fh)["complex_exact"]
    direct = solver._direct
    calls = []  # (relative residual, x) of each level's direct solve

    def recording(D, c, svd):
        res = direct(D, c, svd)
        residual = float(np.linalg.norm(D @ res.x - c))
        calls.append((residual / (1.0 + float(np.linalg.norm(c))), res.x))
        return res

    solver._direct = recording
    out = {}
    for name, schedule in (("fast", solver._FAST), ("slow", solver._SLOW)):
        first = {tol: [] for tol in RESIDUAL_TOLS}  # (level, recovers x0) per trial that passes
        for t in range(trials):
            seed = SeedSpec(fx["master_seed"], ("phase_grid", fx["m"], fx["k"], repr(0.0), t))
            inst = make_instance("complex", fx["n"], fx["k"], fx["m"], seed)
            A, b = inst.ensemble.A, inst.ensemble.b
            calls.clear()
            u0, svd = solver._unit_pattern(b), solver._thin_svd(A)
            full = solver._homotopy_burn_in(A, b, inst.y, u0, 0, schedule, svd, True)[2]
            tol_x0 = 1e-5 * (1.0 + float(np.linalg.norm(inst.x0)))
            for tol in RESIDUAL_TOLS:
                for level, (rel, x) in enumerate(calls, start=1):
                    if rel <= tol:
                        first[tol].append((level, global_phase_error(x, inst.x0) <= tol_x0))
                        break
        out[name] = {"trials": trials, "full_levels": full}
        for tol, hits in first.items():
            levels = [lv for lv, _ in hits]
            out[name][f"residual<={tol:g}"] = {
                "passed": len(hits),
                "direct_solve_recovers_x0": sum(ok for _, ok in hits),
                "first_level_min_q1_median_q3_max": [
                    float(q) for q in np.percentile(levels, [0, 25, 50, 75, 100])
                ]
                if levels
                else None,
            }
    return out


def main(argv: list) -> int:
    if len(argv) not in (2, 3) or argv[1] not in ("timing", "complex-levels"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    count = int(argv[2]) if len(argv) == 3 else None
    if argv[1] == "timing":
        result = timing(count or 12)
    else:
        result = complex_levels(count or 100)
    result["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
