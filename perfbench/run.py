"""affinepr benchmark: end-to-end figures per workload, per-layer figures
from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload real-grid --seed default --seconds 50 --trace 0
    python3 perfbench/run.py --workload real-grid --seed heldout --trace 1

``--seed`` takes an integer, ``default`` or ``heldout``.  Develop a change
against the default seed and check the claim again on the held-out seed.

The process imports the package from ``src/`` of the checkout it runs in,
so every run is a fresh interpreter that uses the program's defaults: no
``threads`` argument and no BLAS thread variables are set here; the
environment record says what BLAS and thread settings were in effect.

With ``--trace 0`` it measures set-up in fresh child interpreters, then
repeats the workload's fixed pass while another pass fits in ``--seconds``
(at least once), and reports the end-to-end metrics.  Per-trial latency is
timed around each solver call at the harness's lookup site (one clock pair
per trial, no spans), so the per-trial samples are the pass's trials.

With ``--trace 1`` it runs exactly one untraced pass and then the same
pass with a span at every layer's public entry points, and reports the
per-layer metrics; the spans go to ``.perfbench_out/`` once the run ends.

Every pass of one seed must give the same deterministic outcome (CSV bytes,
success counts, inner and outer iterations, termination labels, sample
counts).  The outcome is also kept in ``.perfbench_out/records/`` keyed by a
digest of the program sources, the benchmark sources and the workload's
configs (which hold the seed), and a later run with the same key that
differs fails.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SEEDS = {"default": 20240817, "heldout": 20261017}
SETUP_RUNS = 5
TAIL_LADDER = (99, 95, 90, 75, 50)

# Runs in a fresh interpreter: import the whole CLI (which imports every
# module) and build and validate the workload's configs.  No trial runs.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import affinepr.cli
from affinepr.harness import ExperimentConfig
for d in json.loads(sys.argv[1]):
    ExperimentConfig.from_dict(d).validate()
print(json.dumps({"setup_s": time.perf_counter() - t0}))
"""


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _die(f"cannot read {path}: {exc}")


def _import_harness():
    """The package under test, from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "affinepr", "__init__.py")):
        _die(f"no affinepr package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import affinepr.harness as harness

    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        _die(f"imported affinepr from {harness.__file__}, not from {SRC}")
    return harness


def _seed(text: str) -> int:
    if text in SEEDS:
        return SEEDS[text]
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return seed


def measure_setup(configs: list, runs: int) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, json.dumps(configs)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def _record_key(env: dict, configs: list) -> str:
    """Same program sources, benchmark sources and configs: same outcome."""
    h = hashlib.sha256(env["src_sha256"].encode("utf-8"))
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), "rb") as fh:
                h.update(fh.read())
    h.update(json.dumps(configs, sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:24]


def _check_record(path: str, record: dict) -> list:
    """Deterministic outcome must match earlier runs of this seed and source."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            if json.load(fh) != record:
                return [f"deterministic outcome differs from the one recorded in {path}"]
        return []
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    os.replace(tmp, path)
    return []


class Run:
    """One benchmark invocation: passes, their checks, and the tallies."""

    def __init__(self, harness, workload, configs, work_dir, trial_log):
        self.harness = harness
        self.workload = workload
        self.configs = configs
        self.work_dir = work_dir
        self.trial_log = trial_log
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self):
        try:
            result = self.workload.run_pass(self.harness, self.configs, self.work_dir, self.trial_log)
        except Exception as exc:  # the program or an output check raised: the pass failed
            expected = self.workload.expected_ops(self.configs)
            self.attempted += expected
            self.failed += expected
            self.problems.append(f"pass raised {type(exc).__name__}: {exc}")
            return None
        self.attempted += len(result.ops)
        self.failed += sum(1 for op in result.ops if not op.ok)
        self.problems += result.problems
        if self.passes and result.record != self.passes[0].record:
            self.problems.append("deterministic outcome differs between passes of one seed")
        self.passes.append(result)
        return result

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed == 0


def end_to_end(run: Run, setup_times: list) -> tuple[dict, dict]:
    """Metric values and, for the report, their sample counts and notes."""
    passes = run.passes
    walls = [p.wall_s for p in passes]
    n_ops = len(passes[0].ops)
    latencies = [statistics.median(p.ops[i].latency_s for p in passes) for i in range(n_ops)]
    pct = tail_percentile(n_ops)
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "trials_per_s": n_ops / wall,
        "trial_p50_ms": 1e3 * statistics.median(latencies),
        "trial_tail_ms": 1e3 * nearest_rank(latencies, pct),
        "success_rate": passes[0].successes / n_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": run.failed / run.attempted,
    }
    notes = {
        "setup_s": f"n={len(setup_times)} fresh interpreters, median",
        "wall_s": f"n={len(walls)} passes, median",
        "trials_per_s": f"n={len(walls)} passes, {n_ops} per pass",
        "trial_p50_ms": f"n={n_ops} per-trial samples",
        "trial_tail_ms": f"p{pct} of n={n_ops} per-trial samples",
        "success_rate": f"n={n_ops}",
        "peak_rss_mb": "n=1",
        "failed_share": f"n={run.attempted} attempted",
    }
    return values, notes


def _emit(spec_metrics: list, values: dict, notes: dict) -> dict:
    """Prints every computed metric; returns the ones BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in spec_metrics}
    for name in sorted(set(values) | set(declared)):
        unit = declared.get(name, "")
        note = notes.get(name, "" if name in declared else "(not declared in BENCHMARK.json)")
        value = values.get(name, 0)
        print(f"  {name:<46} {value:>16.6g} {unit:<6} {note}")
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    harness = _import_harness()

    from envinfo import environment
    from layers import install_trial_log, install_tracing, layer_metrics, per_cell_rows
    from spans import Patches, SpanRecorder

    workload = WORKLOADS[args.workload]
    env = environment(ROOT)
    configs = workload.configs(args.seed)
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    trial_log: list = []
    patches = Patches()
    install_trial_log(harness, patches, trial_log)
    run = Run(harness, workload, configs, work_dir, trial_log)
    try:
        if args.trace == 0:
            setup_times = measure_setup(configs, SETUP_RUNS)
            t0 = time.perf_counter()
            last = run.one_pass()
            while last is not None and run.ok and time.perf_counter() - t0 + last.wall_s <= seconds:
                last = run.one_pass()
        elif run.one_pass() is not None:
            recorder = SpanRecorder()
            tracing = Patches()
            install_tracing(recorder, tracing)
            try:
                run.one_pass()
            finally:
                tracing.restore()
    finally:
        patches.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    if run.passes:
        record_path = os.path.join(OUT_DIR, "records", f"{_record_key(env, configs)}.json")
        run.problems += _check_record(record_path, run.passes[0].record)

    metrics = {}
    if run.ok and args.trace == 0:
        values, notes = end_to_end(run, setup_times)
        print("end-to-end metrics")
        metrics = _emit(spec["end_to_end"], values, notes)
    elif run.ok:
        untraced, traced = run.passes
        values = layer_metrics(recorder.spans, traced.start, traced.end, untraced.wall_s)
        print("per-layer metrics (traced pass)")
        metrics = _emit(spec["per_layer"], values, {})
        rows = per_cell_rows(recorder.spans)
        if rows:
            print("per cell, medians over solves")
            for row in rows:
                print("  " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
        spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.json")
        doc = {
            "env": env,
            "workload": workload.name,
            "seed": args.seed,
            "metrics": values,
            "per_cell": rows,
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in recorder.spans],
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    for problem in run.problems:
        print(f"PROBLEM: {problem}")
    correct = bool(metrics)
    print(
        json.dumps(
            {"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
