"""Measure the homotopy burn-in of one source tree.

    python3 scripts/burnin_profile.py SRC timing [CELL]
    python3 scripts/burnin_profile.py SRC complex-levels [TRIALS]
    python3 scripts/burnin_profile.py SRC settle-levels [TRIALS [M]]

SRC is a ``src`` directory holding an ``affinepr`` package; the package is
imported from there only.  Set ``OPENBLAS_NUM_THREADS`` in the environment to
measure a BLAS thread count.  Each mode prints one JSON object.

``timing`` runs one real grid cell per m in 40, 100 and 160 (n=64, k=3,
constant bias c=1, ``restarts=2``, ``restart_seed=1``, CELL trials, default
24, master seed 0) through ``harness.run_cell`` after one warm-up cell.  Per
cell it reports the ms spent in ``solver._homotopy_burn_in`` inside
``solver.burn_in_block`` (the lockstep blocks) and outside it (the stacks of
one a solve runs for a chain that had no burn-in handed over), the cell's
ms, the median and total burn-in levels per chain that ran, and the same
cell solved trial by trial without ``burn_in=`` (every burn-in a stack of
one).  A second run of the cell under ``tracemalloc`` gives the peak of
Python allocations inside ``run_cell``, to recheck the block size
(``harness._BLOCK_ENTRIES``) against the memory it holds.

``complex-levels`` replays the burn-in of both anchor chains for TRIALS
(default 100) instances of acceptance criterion 3's cell, read from
``tests/fixtures/calibration.json``, with the early-exit test switched on
(the complex solver never runs it) and every level's direct solve of
A x = u*y - b recorded.  For each residual tolerance it reports how many
trials reach it at some level, the first such level, and in how many of
them that level's direct solve already recovers x0 (the harness's
global-phase success test).  Needs a tree whose burn-in runs on stacks
(A of shape (T, m, n)), takes the ``certify`` and ``floor`` arguments,
calls ``solver._direct`` and returns one (u, levels) per trial.

``settle-levels`` replays the burn-in of both anchor chains for TRIALS
(default 100) instances of acceptance criterion 2's cell at M measurements
(default 40), on criterion 2's master seed (also the benchmark's
``default``) and on the benchmark's ``heldout`` seed.  Each chain runs to
``solver._FLOOR`` with the sign pattern recorded after every level, and
again to ``solver._SETTLED_FLOOR``.  Per seed and schedule it reports the
distribution of the level at which the pattern last changed, and in how
many chains the run to the settled floor ends on the full run's pattern.
Needs a tree whose burn-in runs on stacks, takes the ``floor`` argument and
returns one (u, levels) per trial.
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
# Criterion 2's master seed (the benchmark's "default") and the benchmark's
# "heldout" seed.
SETTLE_SEEDS = (20240817, 20261017)


def fixture(name: str) -> dict:
    with open(os.path.join(ROOT, "tests", "fixtures", "calibration.json"), encoding="utf-8") as fh:
        return json.load(fh)[name]


def quartiles(values) -> list:
    import numpy as np

    return [float(q) for q in np.percentile(values, [0, 25, 50, 75, 100])] if values else None


def timing(trials: int) -> dict:
    import tracemalloc

    from affinepr import SeedSpec, harness, solver

    inner, block = solver._homotopy_burn_in, solver.burn_in_block
    spent = {"lockstep": 0.0, "stack_of_one": 0.0}
    where = ["stack_of_one"]

    def timed_burn_in(*args):
        t0 = time.perf_counter()
        try:
            return inner(*args)
        finally:
            spent[where[0]] += time.perf_counter() - t0

    def timed_block(*args, **kwargs):
        where[0] = "lockstep"
        try:
            return block(*args, **kwargs)
        finally:
            where[0] = "stack_of_one"

    solver._homotopy_burn_in = timed_burn_in
    harness.burn_in_block = timed_block
    levels = []
    real_solve = harness.solve_affine_pr_real

    def solve(*args, **kwargs):
        rep = real_solve(*args, **kwargs)
        levels.extend(rep.burn_in_levels)
        return rep

    harness.solve_affine_pr_real = solve

    def config(m):
        return harness.ExperimentConfig.from_dict(
            {
                "experiment": "phase_grid",
                "n": 64,
                "k_list": [3],
                "m_list": [m],
                "trials_per_cell": trials,
                "bias": {"kind": "constant", "c": 1.0},
                "master_seed": 0,
                "solver": {"restarts": 2, "restart_seed": 1},
            }
        )

    harness.run_cell(config(100), 100, 3, 0.0)  # warm-up
    out = {}
    for m in (40, 100, 160):
        cfg = config(m)
        for key in spent:
            spent[key] = 0.0
        levels.clear()
        t0 = time.perf_counter()
        harness.run_cell(cfg, m, 3, 0.0)
        cell_ms = 1e3 * (time.perf_counter() - t0)
        row = {
            "trials": trials,
            "block": max(1, harness._BLOCK_ENTRIES // (m * cfg.n)),
            "cell_ms": cell_ms,
            "burn_in_ms_lockstep": 1e3 * spent["lockstep"],
            "burn_in_ms_stacks_of_one": 1e3 * spent["stack_of_one"],
            "chains": len(levels),
            "levels_per_chain_p50": statistics.median(levels),
            "levels_total": sum(levels),
        }
        spent["stack_of_one"] = 0.0
        t0 = time.perf_counter()
        for t in range(trials):
            seed = SeedSpec(cfg.master_seed, ("phase_grid", m, 3, repr(0.0), t))
            harness.solve_instance(harness._instance(cfg, 3, m, seed), 0.0, cfg.solver)
        row["alone_cell_ms"] = 1e3 * (time.perf_counter() - t0)
        row["alone_burn_in_ms"] = 1e3 * spent["stack_of_one"]
        tracemalloc.start()
        harness.run_cell(cfg, m, 3, 0.0)
        row["run_cell_tracemalloc_peak_kb"] = tracemalloc.get_traced_memory()[1] / 1024
        tracemalloc.stop()
        out[f"m={m}"] = row
    return out


def complex_levels(trials: int) -> dict:
    import numpy as np

    from affinepr import SeedSpec, global_phase_error, make_instance
    from affinepr import solver

    fx = fixture("complex_exact")
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
            stack = (a[None] for a in (A, b, inst.y, u0))
            full = solver._homotopy_burn_in(*stack, 0, schedule, [svd], True, solver._FLOOR)[0][1]
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
                "first_level_min_q1_median_q3_max": quartiles(levels),
            }
    return out


def settle_levels(trials: int, m: int) -> dict:
    import numpy as np

    from affinepr import SeedSpec, make_instance
    from affinepr import solver

    fx = fixture("real_exact")
    unit_pattern = solver._unit_pattern
    patterns = []  # every pattern the burn-in computes, in order

    def recording(v):
        u = unit_pattern(v)
        patterns.append(u[0])  # the burn-in runs each trial as a stack of one
        return u

    solver._unit_pattern = recording
    out = {"n": fx["n"], "k": fx["k"], "m": m, "trials": trials}
    for master in SETTLE_SEEDS:
        for name, schedule in (("fast", solver._FAST), ("slow", solver._SLOW)):
            settle, same = [], 0
            for t in range(trials):
                seed = SeedSpec(master, ("phase_grid", m, fx["k"], repr(0.0), t))
                inst = make_instance("real", fx["n"], fx["k"], m, seed, bias=fx["bias_c"])
                A, b, y = inst.ensemble.A, inst.ensemble.b, inst.y
                u0, svd = unit_pattern(b), solver._thin_svd(A)
                patterns.clear()
                stack = [a[None] for a in (A, b, y, u0)]
                full_u, full = solver._homotopy_burn_in(
                    *stack, 0, schedule, [svd], False, solver._FLOOR
                )[0]
                # An unfrozen burn-in computes the pattern before each of its
                # ISTA steps and once at the end, so after level L it is
                # patterns[L * steps].
                if len(patterns) != full * schedule.steps + 1:
                    raise SystemExit("the burn-in no longer computes one pattern per ISTA step")
                after = patterns[:: schedule.steps]
                last = full
                while last > 0 and np.array_equal(after[last - 1], full_u):
                    last -= 1
                settle.append(last)
                settled_u, short = solver._homotopy_burn_in(
                    *stack, 0, schedule, [svd], False, solver._SETTLED_FLOOR
                )[0]
                same += bool(np.array_equal(settled_u, full_u))
            out[f"seed={master} {name}"] = {
                "chains": trials,
                "levels": {"full": full, "settled_floor": short},
                "last_change_level_min_q1_median_q3_max": quartiles(settle),
                "last_change_after_settled_floor": sum(lv > short for lv in settle),
                "settled_floor_ends_on_full_pattern": same,
            }
    return out


def main(argv: list) -> int:
    modes = ("timing", "complex-levels", "settle-levels")
    most = 4 if argv[1:2] == ["settle-levels"] else 3
    if not 2 <= len(argv) <= most or argv[1] not in modes:
        print("\n".join(__doc__.strip().splitlines()[2:5]), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    count = int(argv[2]) if len(argv) >= 3 else None
    if argv[1] == "timing":
        result = timing(count or 24)
    elif argv[1] == "complex-levels":
        result = complex_levels(count or 100)
    else:
        result = settle_levels(count or 100, int(argv[3]) if len(argv) == 4 else 40)
    result["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
