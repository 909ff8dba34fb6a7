#!/usr/bin/env python3
"""One-time calibration run producing tests/fixtures/calibration.json.

Empirical recovery thresholds, noise-curve fits, and ratio bands depend on
universal constants that are existential in theory; this script measures
them once on seeded configurations and freezes the observed values (with
margins) for the acceptance suite.  Rerun only to regenerate fixtures after
an intentional solver change, then commit the updated JSON.

Usage: python scripts/calibrate.py [--quick]
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from affinepr import (
    ExperimentConfig,
    SeedSpec,
    SolverOptions,
    make_instance,
    rip_ratio_sample,
    run_impossibility_demo,
    run_noise_curve,
    run_phase_grid,
    srip_profile,
)
from affinepr.harness import run_cell

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "calibration.json")

MASTER_SEED = 20240817


def calibrate_real(trials: int) -> dict:
    solver = {"restarts": 2, "restart_seed": 1}
    m_grid = [40, 100, 160]
    config = ExperimentConfig.from_dict(
        {
            "experiment": "phase_grid",
            "field": "real",
            "n": 64,
            "k_list": [3],
            "m_list": m_grid,
            "trials_per_cell": trials,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": MASTER_SEED,
            "solver": solver,
        }
    )
    t0 = time.time()
    cells = run_phase_grid(config)
    rates = {c.m: c.success_count / c.trial_count for c in cells}
    print(f"real grid rates: {rates}  ({time.time()-t0:.0f}s)")
    m_star = m_grid[-1]
    return {
        "n": 64,
        "k": 3,
        "m_star": m_star,
        "m_grid": m_grid,
        "trials": trials,
        "bias_c": 1.0,
        "master_seed": MASTER_SEED,
        "solver": solver,
        "observed_rates": {str(m): rates[m] for m in m_grid},
    }


def calibrate_complex(trials: int) -> dict:
    solver = {"restarts": 2, "restart_seed": 1}
    config = ExperimentConfig.from_dict(
        {
            "experiment": "phase_grid",
            "field": "complex",
            "n": 32,
            "k_list": [2],
            "m_list": [112],
            "trials_per_cell": trials,
            "bias": {"kind": "complex_gaussian"},
            "master_seed": MASTER_SEED,
            "solver": solver,
        }
    )
    t0 = time.time()
    cell, trial_results = run_cell(config, 112, 2, 0.0)
    hits = sum(1 for t in trial_results if t.global_phase <= 1e-4)
    print(f"complex m=112: {hits}/{trials} at 1e-4  ({time.time()-t0:.0f}s)")
    return {
        "n": 32,
        "k": 2,
        "m": 112,
        "trials": trials,
        "master_seed": MASTER_SEED,
        "solver": solver,
        "observed_hits": hits,
        "global_phase_tol": 1e-4,
    }


def calibrate_noise(trials: int, m_star: int) -> dict:
    # flip descent contributes nothing at noise scale; drop it for speed
    solver = {"restarts": 1, "restart_seed": 1, "flip_candidates": 0}
    eps_list = [0.0, 0.01, 0.02, 0.04, 0.08]
    config = ExperimentConfig.from_dict(
        {
            "experiment": "noise_curve",
            "field": "real",
            "n": 64,
            "k_list": [3],
            "m_list": [m_star],
            "trials_per_cell": trials,
            "epsilon_list": eps_list,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": MASTER_SEED,
            "solver": solver,
        }
    )
    t0 = time.time()
    result = run_noise_curve(config)
    medians = [c.median_plain_error for c in result.cells]
    print(
        f"noise curve medians: {medians} slope={result.slope:.3f} "
        f"R2={result.r_squared:.4f}  ({time.time()-t0:.0f}s)"
    )
    return {
        "n": 64,
        "k": 3,
        "m": m_star,
        "trials": trials,
        "epsilon_list": eps_list,
        "master_seed": MASTER_SEED,
        "solver": solver,
        "observed_slope": result.slope,
        "observed_r_squared": result.r_squared,
    }


def calibrate_ripmap(samples: int) -> dict:
    n, k = 64, 3
    m = int(round(40 * k * math.log(math.e * n / k)))
    seed = SeedSpec(MASTER_SEED, ("ripmap-cal",))
    inst = make_instance("complex", n, k, m, seed, bias={"kind": "complex_gaussian"})
    t0 = time.time()
    est = rip_ratio_sample(inst.ensemble.A, inst.ensemble.b, k, samples, seed)
    spread = est.upper_hat / est.lower_hat
    print(
        f"ripmap m={m}: min={est.lower_hat:.4f} max={est.upper_hat:.4f} "
        f"spread={spread:.2f}  ({time.time()-t0:.0f}s)"
    )
    return {
        "n": n,
        "k": k,
        "m": m,
        "samples": samples,
        "master_seed": MASTER_SEED,
        "observed_min": est.lower_hat,
        "observed_max": est.upper_hat,
        "max_spread": 30.0,
    }


def calibrate_srip(trials: int) -> dict:
    n, k, m = 128, 4, 120
    seed = SeedSpec(MASTER_SEED, ("srip-cal",))
    inst = make_instance("real", n, k, m, seed, bias=1.0)
    t0 = time.time()
    est = srip_profile(inst.ensemble.A, k, trials, seed)
    print(
        f"srip n={n} k={k} m={m}: lower={est.lower_hat:.4f} upper={est.upper_hat:.4f}"
        f"  ({time.time()-t0:.0f}s)"
    )
    return {
        "n": n,
        "k": k,
        "m": m,
        "trials": trials,
        "master_seed": MASTER_SEED,
        "observed_lower": est.lower_hat,
        "observed_upper": est.upper_hat,
        # floor frozen at half the observed refined minimum; the upper bound
        # is the structural < 2 band checked by the acceptance suite
        "lower_min": est.lower_hat * 0.5,
        "upper_max": 2.0,
    }


def calibrate_impossibility() -> dict:
    solver = {"restarts": 2, "restart_seed": 1}
    config = ExperimentConfig.from_dict(
        {
            "experiment": "impossibility",
            "field": "real",
            "n": 64,
            "k_list": [2],
            "m_list": [48],
            "trials_per_cell": 1,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": MASTER_SEED,
            "solver": solver,
        }
    )
    t0 = time.time()
    rep = run_impossibility_demo(config)
    print(
        f"impossibility: alias={['%.3g' % a for a in rep.alias_errors]} "
        f"sparse={['%.3g' % s for s in rep.sparse_errors]}  ({time.time()-t0:.0f}s)"
    )
    return {
        "n": 64,
        "k": 2,
        "m": 48,
        "master_seed": MASTER_SEED,
        "solver": solver,
        "observed_alias": rep.alias_errors,
        "observed_sparse": rep.sparse_errors,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="reduced trial counts (sanity only)")
    args = parser.parse_args()
    trials = 20 if args.quick else 100
    samples = 2000 if args.quick else 10_000

    fixtures = {
        "real_exact": calibrate_real(trials),
        "complex_exact": calibrate_complex(trials),
        "noise_curve": calibrate_noise(trials, 160),
        "rip_band": calibrate_ripmap(samples),
        "srip_profile": calibrate_srip(samples),
        "impossibility": calibrate_impossibility(),
    }
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(fixtures, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
