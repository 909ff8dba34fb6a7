"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Calibrated expectations (recovery thresholds, ratio bands,
noise-curve fits) come from tests/fixtures/calibration.json, produced once
by scripts/calibrate.py and committed.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import os
import time
from itertools import combinations

import numpy as np
import pytest

from affinepr import (
    ExperimentConfig,
    SeedSpec,
    SolverOptions,
    bpdn,
    brute_force_bp_oracle,
    crossterm_sup,
    make_instance,
    rip_ratio_sample,
    run_impossibility_demo,
    run_lemma_suite,
    run_noise_curve,
    run_phase_grid,
    run_ripmap,
    run_srip,
    sparse_convex_decompose,
    check_decomposition,
    srip_extremes_for_x,
    srip_profile,
    moment_bound_check,
)
from affinepr.harness import run_cell
from affinepr.lemmas import batch_lifted_distance_check

_FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "calibration.json")
_FIXTURES = None


def fixtures(name):
    global _FIXTURES
    if _FIXTURES is None:
        if not os.path.exists(_FIXTURE_PATH):
            pytest.fail(
                "tests/fixtures/calibration.json missing; run scripts/calibrate.py"
            )
        with open(_FIXTURE_PATH, "r", encoding="utf-8") as fh:
            _FIXTURES = json.load(fh)
    return _FIXTURES[name]


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_bpdn_oracle_equivalence():
    """200 random real noiseless instances, objective within 1e-4 of oracle."""
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    opts = SolverOptions(inner_max=30000, restarts=1)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        D = rng.standard_normal((m, n))
        x_true = np.zeros(n)
        supp = rng.choice(n, size=min(m, 2), replace=False)
        x_true[supp] = rng.standard_normal(len(supp))
        c = D @ x_true
        oracle_obj, _ = brute_force_bp_oracle(D, c)
        got = bpdn(D, c, 0.0, opts).objective
        worst = max(worst, abs(got - oracle_obj))
    elapsed = time.time() - t0
    report(
        "criterion 1: BPDN/oracle equivalence",
        worst <= 1e-4 and elapsed < 60,
        f"worst gap {worst:.2e} over 200 instances in {elapsed:.1f}s (limits 1e-4, 60s)",
    )


def test_criterion_02_real_exact_recovery():
    """Success >= 0.95 at m*, nondecreasing in m with one 0.05 inversion allowed."""
    fx = fixtures("real_exact")
    t0 = time.time()
    config = ExperimentConfig.from_dict(
        {
            "experiment": "phase_grid",
            "field": "real",
            "n": fx["n"],
            "k_list": [fx["k"]],
            "m_list": fx["m_grid"],
            "trials_per_cell": fx["trials"],
            "bias": {"kind": "constant", "c": fx["bias_c"]},
            "master_seed": fx["master_seed"],
            "solver": fx["solver"],
        }
    )
    cells = run_phase_grid(config)
    rates = {c.m: c.success_count / c.trial_count for c in cells}
    star_rate = rates[fx["m_star"]]
    ordered = [rates[m] for m in fx["m_grid"]]
    inversions = [max(a - b, 0.0) for a, b in zip(ordered, ordered[1:])]
    monotone_ok = sum(1 for v in inversions if v > 1e-12) <= 1 and all(
        v <= 0.05 + 1e-12 for v in inversions
    )
    elapsed = time.time() - t0
    report(
        "criterion 2: real exact recovery",
        star_rate >= 0.95 and monotone_ok and elapsed < 600,
        f"rate(m*={fx['m_star']})={star_rate:.2f}, grid rates {ordered}, {elapsed:.0f}s "
        f"(limits 0.95, one 0.05 inversion, 600s)",
    )


def test_criterion_03_complex_exact_recovery():
    """global_phase <= 1e-4 in >= 90/100 complex trials."""
    fx = fixtures("complex_exact")
    t0 = time.time()
    config = ExperimentConfig.from_dict(
        {
            "experiment": "phase_grid",
            "field": "complex",
            "n": fx["n"],
            "k_list": [fx["k"]],
            "m_list": [fx["m"]],
            "trials_per_cell": fx["trials"],
            "bias": {"kind": "complex_gaussian"},
            "master_seed": fx["master_seed"],
            "solver": fx["solver"],
        }
    )
    _, trials = run_cell(config, fx["m"], fx["k"], 0.0)
    hits = sum(1 for t in trials if t.global_phase <= fx["global_phase_tol"])
    elapsed = time.time() - t0
    report(
        "criterion 3: complex exact recovery",
        hits >= 0.90 * fx["trials"] and elapsed < 900,
        f"{hits}/{fx['trials']} trials with global-phase error <= {fx['global_phase_tol']} "
        f"in {elapsed:.0f}s (limits 90%, 900s)",
    )


def test_criterion_04_noise_stability_shape():
    """Median error vs epsilon fits a line through the origin, R^2 >= 0.9."""
    fx = fixtures("noise_curve")
    t0 = time.time()
    config = ExperimentConfig.from_dict(
        {
            "experiment": "noise_curve",
            "field": "real",
            "n": fx["n"],
            "k_list": [fx["k"]],
            "m_list": [fx["m"]],
            "trials_per_cell": fx["trials"],
            "epsilon_list": fx["epsilon_list"],
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": fx["master_seed"],
            "solver": fx["solver"],
        }
    )
    result = run_noise_curve(config)
    zero_cell = result.cells[0]
    medians = [c.median_plain_error for c in result.cells]
    nondecreasing_violations = sum(
        1 for a, b in zip(medians, medians[1:]) if a > b + 1e-12
    )
    elapsed = time.time() - t0
    report(
        "criterion 4: noise stability shape",
        result.r_squared >= 0.9
        and zero_cell.median_plain_error <= 1e-5
        and nondecreasing_violations <= 1
        and elapsed < 600,
        f"R^2={result.r_squared:.4f}, slope={result.slope:.3f}, eps=0 median "
        f"{zero_cell.median_plain_error:.1e}, {elapsed:.0f}s (limits 0.9, 1e-5, 600s)",
    )


def test_criterion_05_srip_exactness_and_band():
    """Exact subset extremes on small matrices; profiled upper bound < 2."""
    t0 = time.time()
    rng = np.random.default_rng(20240805)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        if np.linalg.norm(x) == 0:
            x[0] = 1.0
        lo, hi = srip_extremes_for_x(A, x)
        need = math.ceil(m / 2)
        sq = (A @ x) ** 2
        blo, bhi = np.inf, 0.0
        for size in range(need, m + 1):
            for idx in combinations(range(m), size):
                val = float(np.sum(sq[list(idx)]))
                blo, bhi = min(blo, val), max(bhi, val)
        nx2 = float(np.dot(x, x))
        worst = max(worst, abs(lo - blo / nx2), abs(hi - bhi / nx2))

    fx = fixtures("srip_profile")
    inst = make_instance(
        "real", fx["n"], fx["k"], fx["m"], SeedSpec(fx["master_seed"], ("srip-cal",)), bias=1.0
    )
    est = srip_profile(
        inst.ensemble.A, fx["k"], fx["trials"], SeedSpec(fx["master_seed"], ("srip-cal",))
    )
    elapsed = time.time() - t0
    report(
        "criterion 5: SRIP exactness and band",
        worst <= 1e-10 and est.upper_hat < 2.0 and est.lower_hat > fx["lower_min"] and elapsed < 120,
        f"worst exactness gap {worst:.1e}, profile ({est.lower_hat:.3f}, {est.upper_hat:.3f}) "
        f"vs (>{fx['lower_min']}, <2), {elapsed:.0f}s (limit 120s)",
    )


def test_criterion_06_lifted_rip_band():
    """10^4 structured ratios strictly positive with max/min <= 30."""
    fx = fixtures("rip_band")
    t0 = time.time()
    seed = SeedSpec(fx["master_seed"], ("ripmap-cal",))
    inst = make_instance(
        "complex", fx["n"], fx["k"], fx["m"], seed, bias={"kind": "complex_gaussian"}
    )
    est = rip_ratio_sample(inst.ensemble.A, inst.ensemble.b, fx["k"], fx["samples"], seed)
    spread = est.upper_hat / est.lower_hat
    elapsed = time.time() - t0
    report(
        "criterion 6: lifted RIP ratio band",
        est.lower_hat > 0 and spread <= fx["max_spread"] and elapsed < 300,
        f"ratios in [{est.lower_hat:.4f}, {est.upper_hat:.4f}], spread {spread:.2f} "
        f"over {est.samples} samples, {elapsed:.0f}s (limits >0, <=30, 300s)",
    )


def test_criterion_07_lifted_distance_inequality():
    """Zero violations of the rank-one lifting inequality over 1e6 pairs."""
    t0 = time.time()
    rng = np.random.default_rng(20240807)
    total = 1_000_000
    violations = 0
    chunk = 100_000
    for start in range(0, total, chunk):
        cnt = min(chunk, total - start)
        n = 8
        U = rng.standard_normal((cnt, n)) + 1j * rng.standard_normal((cnt, n))
        V = rng.standard_normal((cnt, n)) + 1j * rng.standard_normal((cnt, n))
        inner = np.sum(np.conj(U) * V, axis=1)
        V = V * np.where(np.abs(inner) > 0, np.exp(-1j * np.angle(inner)), 1.0)[:, None]
        _, _, holds = batch_lifted_distance_check(U, V)
        violations += int(np.sum(~holds))
    elapsed = time.time() - t0
    report(
        "criterion 7: lifting distance inequality",
        violations == 0 and elapsed < 60,
        f"{violations} violations over {total} phase-aligned pairs in {elapsed:.1f}s "
        f"(limits 0, 60s)",
    )


def test_criterion_08_moment_bounds():
    """holds_ci for 50 random admissible (H, h, b) plus the closed-form case."""
    t0 = time.time()
    rng = np.random.default_rng(20240808)
    failures = 0
    for i in range(50):
        n = int(rng.integers(2, 13))
        q, _ = np.linalg.qr(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
        lam = rng.standard_normal(2) * 1.5
        H = lam[0] * np.outer(q[:, 0], q[:, 0].conj()) + lam[1] * np.outer(q[:, 1], q[:, 1].conj())
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        _, _, _, ok = moment_bound_check(H, h, b, 100_000, SeedSpec(20240808, ("mc", i)))
        failures += not ok
    u = np.zeros(4, dtype=complex)
    u[0] = 1.0
    mean, lo, hi, ok = moment_bound_check(
        np.outer(u, u.conj()), np.zeros(4, dtype=complex), 0.0, 100_000, SeedSpec(20240808, ("cf",))
    )
    closed_ok = ok and abs(mean - 1.0) <= 5.0 / math.sqrt(100_000) * 1.5
    elapsed = time.time() - t0
    report(
        "criterion 8: moment bounds",
        failures == 0 and closed_ok and elapsed < 300,
        f"{failures} CI failures over 50 cases; closed-form mean {mean:.4f} vs 1.0 "
        f"in {elapsed:.0f}s (limits 0 failures, 300s)",
    )


def test_criterion_09_sparse_decomposition():
    """1e4 admissible inputs all produce invariant-satisfying decompositions."""
    t0 = time.time()
    rng = np.random.default_rng(20240809)
    failures = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 33))
        k = int(rng.integers(1, n + 1))
        theta = float(rng.uniform(0.1, 2.0))
        v = np.clip(rng.standard_normal(n) * theta, -theta, theta)
        l1 = float(np.sum(np.abs(v)))
        if l1 > k * theta:
            v *= (k * theta / l1) * (1 - 1e-9)
        try:
            dec = sparse_convex_decompose(v, k, theta)
            check_decomposition(dec, v, k, theta)
        except (AssertionError, RuntimeError):
            failures += 1
    elapsed = time.time() - t0
    report(
        "criterion 9: sparse convex decomposition",
        failures == 0 and elapsed < 120,
        f"{failures} failures over 10000 admissible inputs in {elapsed:.0f}s (limits 0, 120s)",
    )


def test_criterion_10_impossibility_demo():
    """Collision identity to 1e-10; alias error grows >= 10x from r=1 to r=1000."""
    fx = fixtures("impossibility")
    t0 = time.time()
    config = ExperimentConfig.from_dict(
        {
            "experiment": "impossibility",
            "field": "real",
            "n": fx["n"],
            "k_list": [fx["k"]],
            "m_list": [fx["m"]],
            "trials_per_cell": 1,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": fx["master_seed"],
            "solver": fx["solver"],
        }
    )
    rep = run_impossibility_demo(config)
    growth = rep.alias_errors[-1] / rep.alias_errors[0]
    elapsed = time.time() - t0
    report(
        "criterion 10: impossibility demonstration",
        max(rep.collision_residuals) <= 1e-10 and growth >= 10 and elapsed < 120,
        f"max collision residual {max(rep.collision_residuals):.1e}, alias growth "
        f"{growth:.0f}x, {elapsed:.0f}s (limits 1e-10, 10x, 120s)",
    )


def test_criterion_11_crossterm_exactness():
    """crossterm_sup equals exhaustive support enumeration on 100 instances."""
    t0 = time.time()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, n + 1))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        exact = 0.0
        corr = A.T @ b
        for idx in combinations(range(n), k):
            exact = max(exact, float(np.linalg.norm(corr[list(idx)])))
        worst = max(worst, abs(crossterm_sup(A, b, k) - exact))
    elapsed = time.time() - t0
    report(
        "criterion 11: cross-term supremum exactness",
        worst <= 1e-12 and elapsed < 60,
        f"worst gap {worst:.1e} over 100 instances in {elapsed:.1f}s (limits 1e-12, 60s)",
    )


def test_criterion_12_reproducibility(tmp_path):
    """Rerunning every experiment with a fixed config is byte-identical."""
    t0 = time.time()
    all_same = True
    details = []

    def twice(runner, config_dict, suffix):
        nonlocal all_same
        paths = []
        for tag in ("x", "y"):
            out = tmp_path / f"{suffix}.{tag}"
            cfg = ExperimentConfig.from_dict({**config_dict, "output_path": str(out)})
            runner(cfg)
            paths.append(out.read_bytes())
        same = paths[0] == paths[1]
        all_same = all_same and same
        details.append(f"{suffix}:{'ok' if same else 'DIFFER'}")

    small_solver = {"restarts": 1, "restart_seed": 2}
    twice(
        run_phase_grid,
        {
            "experiment": "phase_grid",
            "field": "real",
            "n": 16,
            "k_list": [2],
            "m_list": [24, 32],
            "trials_per_cell": 3,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": 31,
            "solver": small_solver,
        },
        "grid.csv",
    )
    twice(
        run_noise_curve,
        {
            "experiment": "noise_curve",
            "field": "real",
            "n": 16,
            "k_list": [2],
            "m_list": [32],
            "trials_per_cell": 3,
            "epsilon_list": [0.0, 0.05],
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": 32,
            "solver": small_solver,
        },
        "curve.csv",
    )
    twice(
        run_impossibility_demo,
        {
            "experiment": "impossibility",
            "field": "real",
            "n": 24,
            "k_list": [2],
            "m_list": [20],
            "trials_per_cell": 1,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": 33,
            "solver": small_solver,
        },
        "impos.csv",
    )
    twice(
        run_srip,
        {
            "experiment": "srip",
            "field": "real",
            "n": 20,
            "k_list": [2],
            "m_list": [16],
            "trials_per_cell": 60,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": 34,
        },
        "srip.csv",
    )
    twice(
        run_ripmap,
        {
            "experiment": "ripmap",
            "field": "complex",
            "n": 12,
            "k_list": [2],
            "m_list": [40],
            "trials_per_cell": 150,
            "bias": {"kind": "complex_gaussian"},
            "master_seed": 35,
        },
        "ripmap.csv",
    )
    twice(
        run_lemma_suite,
        {
            "experiment": "lemma_suite",
            "field": "real",
            "n": 8,
            "k_list": [2],
            "m_list": [8],
            "trials_per_cell": 300,
            "master_seed": 36,
        },
        "lemma.json",
    )
    elapsed = time.time() - t0
    report(
        "criterion 12: reproducibility",
        all_same and elapsed < 300,
        f"{' '.join(details)} in {elapsed:.0f}s (limit 300s)",
    )
