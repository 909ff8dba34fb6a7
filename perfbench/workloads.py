"""The benchmark's workloads: what one pass runs and how its outputs are checked.

A pass is the workload's fixed work for one seed.  Each pass calls the
public experiment functions of ``affinepr.harness`` one after another from
this process (a closed loop with one caller), with the program's defaults:
no ``threads`` argument and no BLAS thread settings.  Sizes are those of
the calibrated acceptance configs; only the trial counts are the
benchmark's.  On a 2-core x86 virtual machine whose speed drifts by up to
1.7x from one half-minute to the next, a real-grid or isometry pass takes
25-45 s, so a 50-second run holds one or two passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

REAL_GRID_TRIALS = 24  # per cell, 3 cells
ISOMETRY_ROUNDS = 33  # each round: run_srip, run_ripmap, run_lemma_suite
SRIP_TRIALS = 50
RIPMAP_SAMPLES = 2000
LEMMA_CASES = 400

_CALIBRATED_SOLVER = {"restarts": 2, "restart_seed": 1}


@dataclass
class Op:
    """One user-visible operation: a solver trial or an isometry experiment."""

    latency_s: float
    ok: bool  # finished, finite, and its outputs passed the checks


@dataclass
class PassResult:
    start: float
    end: float
    ops: list
    successes: int  # recovered trials, or isometry experiments whose checks passed
    record: dict  # deterministic outcome: identical on every pass of one seed
    problems: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def real_grid_configs(seed: int) -> list[dict]:
    return [
        {
            "experiment": "phase_grid",
            "field": "real",
            "n": 64,
            "k_list": [3],
            "m_list": [40, 100, 160],
            "trials_per_cell": REAL_GRID_TRIALS,
            "epsilon_list": [0.0],
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": seed,
            "solver": dict(_CALIBRATED_SOLVER),
        }
    ]


def isometry_configs(seed: int) -> list[dict]:
    """Three experiments per round; round r draws from its own master seed
    derived from the benchmark seed, so the rounds are distinct samples."""
    from affinepr.rng import SeedSpec

    out = []
    for r in range(ISOMETRY_ROUNDS):
        master = SeedSpec(seed, ("perfbench", "isometry", r)).derive()
        out += [
            {
                "experiment": "srip",
                "field": "real",
                "n": 128,
                "k_list": [4],
                "m_list": [120],
                "trials_per_cell": SRIP_TRIALS,
                "bias": {"kind": "constant", "c": 1.0},
                "master_seed": master,
            },
            {
                "experiment": "ripmap",
                "field": "complex",
                "n": 64,
                "k_list": [3],
                "m_list": [487],
                "trials_per_cell": RIPMAP_SAMPLES,
                "bias": {"kind": "complex_gaussian"},
                "master_seed": master,
            },
            {"experiment": "lemma_suite", "trials_per_cell": LEMMA_CASES, "master_seed": master},
        ]
    return out


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(text: str, columns: tuple) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for col in columns:
            if col not in row or not math.isfinite(float(row[col])):
                raise ValueError(f"column {col!r} missing or not finite")
    return rows


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _check_cells(cells, rows, keys, trials) -> list:
    """One CSV row per cell, agreeing with the returned cells."""
    problems = []
    if len(rows) != len(keys) or len(cells) != len(keys):
        return [f"expected {len(keys)} cells, got {len(cells)} results and {len(rows)} CSV rows"]
    for cell, row, key in zip(cells, rows, keys):
        if int(row["trials"]) != trials or cell.trial_count != trials:
            problems.append(f"cell {key}: trial count {row['trials']} != {trials}")
        if int(row["successes"]) != cell.success_count:
            problems.append(f"cell {key}: CSV successes {row['successes']} != {cell.success_count}")
        if not _finite(cell.median_plain_error, cell.median_global_phase_error):
            problems.append(f"cell {key}: non-finite median error")
    return problems


def _solver_pass(harness, config_dict: dict, out_path: str, trial_log: list) -> PassResult:
    """Runs one phase grid; every trial is one operation."""
    config = harness.ExperimentConfig.from_dict(dict(config_dict, output_path=out_path))
    del trial_log[:]
    start = time.perf_counter()
    cells = harness.run_phase_grid(config)
    end = time.perf_counter()

    trials = config.trials_per_cell
    keys = [(m, k) for m in config.m_list for k in config.k_list]
    text = _read(out_path)
    rows = _csv_rows(text, ("m", "k", "trials", "successes"))
    problems = _check_cells(cells, rows, keys, trials)
    for row, key in zip(rows, keys):
        if (int(row["m"]), int(row["k"])) != key:
            problems.append(f"CSV row {row} does not match cell {key}")
    expected = len(keys) * trials
    if len(trial_log) != expected:
        problems.append(
            f"timed {len(trial_log)} solver calls, expected {expected}: trials must run "
            "in this process for the benchmark to time them"
        )
    bad = sum(1 for t in trial_log if not t.finite)
    if bad:
        problems.append(f"{bad} solver calls returned non-finite values")

    ops = [Op(t.latency_s, t.finite and not problems) for t in trial_log]
    terminations: dict = {}
    for t in trial_log:
        terminations[t.termination] = terminations.get(t.termination, 0) + 1
    record = {
        "csv_sha256": _sha(text),
        "cells": [[*key, c.success_count, c.trial_count] for key, c in zip(keys, cells)],
        "inner_iters": [t.inner_iters for t in trial_log],
        "outer_iters": [t.outer_iters for t in trial_log],
        "terminations": dict(sorted(terminations.items())),
    }
    successes = sum(c.success_count for c in cells)
    return PassResult(start, end, ops, successes, record, problems)


def _check_srip(config, text, result) -> tuple:
    est_a, est_ab = result
    rows = _csv_rows(text, ("trials", "lower_hat", "upper_hat"))
    problems = []
    if [r["target"] for r in rows] != ["A", "Ab"]:
        problems.append(f"srip CSV targets {[r['target'] for r in rows]}")
    for est, row in zip((est_a, est_ab), rows):
        if est.samples != config.trials_per_cell or int(row["trials"]) != est.samples:
            problems.append(f"srip samples {est.samples} != {config.trials_per_cell}")
        if not (0.0 < est.lower_hat <= est.upper_hat and _finite(est.upper_hat)):
            problems.append(f"srip bounds ({est.lower_hat}, {est.upper_hat})")
    return [est_a.samples, est_ab.samples], problems


def _check_ripmap(config, text, est) -> tuple:
    rows = _csv_rows(text, ("samples", "ratio_min", "ratio_max"))
    problems = []
    if len(rows) != 1 or int(rows[0]["samples"]) != est.samples:
        problems.append(f"ripmap CSV rows {rows} do not match {est.samples} samples")
    if not (0.0 < est.lower_hat <= est.upper_hat and _finite(est.upper_hat)):
        problems.append(f"ripmap ratio bounds ({est.lower_hat}, {est.upper_hat})")
    return [est.samples], problems


def _check_lemmas(config, text, summary) -> tuple:
    problems = []
    if json.loads(text) != summary:
        problems.append("lemma JSON output differs from the returned summary")
    failed = {k: v for k, v in summary.items() if k.endswith(("failures", "violations")) and v}
    if failed:
        problems.append(f"lemma checks failed: {failed}")
    return [summary[k] for k in sorted(summary)], problems


_ISOMETRY = {
    "srip": ("run_srip", _check_srip),
    "ripmap": ("run_ripmap", _check_ripmap),
    "lemma_suite": ("run_lemma_suite", _check_lemmas),
}


def _isometry_pass(harness, configs: list, out_dir: str) -> PassResult:
    """Runs every isometry experiment; each call is one operation.  Outputs
    are checked after the timed loop."""
    done = []
    start = time.perf_counter()
    for i, cfg in enumerate(configs):
        out_path = os.path.join(out_dir, f"isometry-{i}.out")
        config = harness.ExperimentConfig.from_dict(dict(cfg, output_path=out_path))
        fn_name, _ = _ISOMETRY[config.experiment]
        t0 = time.perf_counter()
        result = getattr(harness, fn_name)(config)
        done.append((time.perf_counter() - t0, config, out_path, result))
    end = time.perf_counter()
    ops, records, problems = [], [], []
    for latency, config, out_path, result in done:
        text = _read(out_path)
        counts, bad = _ISOMETRY[config.experiment][1](config, text, result)
        ops.append(Op(latency, not bad))
        records.append([_sha(text), *counts])
        problems += bad
    return PassResult(start, end, ops, sum(op.ok for op in ops), {"outputs": records}, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list]  # seed -> ExperimentConfig dicts
    solver: bool

    def expected_ops(self, configs: list) -> int:
        if not self.solver:
            return len(configs)
        cfg = configs[0]
        return len(cfg["m_list"]) * len(cfg["k_list"]) * cfg["trials_per_cell"]

    def run_pass(self, harness, configs: list, out_dir: str, trial_log: list) -> PassResult:
        if self.solver:
            return _solver_pass(harness, configs[0], os.path.join(out_dir, f"{self.name}.csv"), trial_log)
        return _isometry_pass(harness, configs, out_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("real-grid", real_grid_configs, True),
        Workload("isometry", isometry_configs, False),
    )
}
