"""Lookup-site wrappers on the affinepr modules and the per-layer metrics
computed from their spans.

Layers are the package's modules.  Every wrapper sits on the attribute
the caller looks up at call time: the harness looks up ``make_instance``,
the solvers, ``error_metrics``, ``run_cell`` and the ripcheck samplers in
its own namespace; the solver looks up ``bpdn`` in its namespace; and
``run_lemma_suite`` imports the lemma checkers from ``affinepr.lemmas``
on each call.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from spans import Patches, SpanRecorder, covered, self_times, span_wrapper

EXPERIMENTS = ("run_phase_grid", "run_noise_curve", "run_srip", "run_ripmap", "run_lemma_suite")
SOLVERS = ("solve_affine_pr_real", "solve_affine_pr_complex")
LEMMA_METRICS = ("sparse_convex_decompose", "batch_lifted_distance_check", "moment_bound_check")

# The solver's inner-iteration caps: outer steps run with min(600, inner_max),
# flip-descent probes with min(300, inner_max), and fixed-point confirmations
# and probe re-solves with the full inner_max.
BPDN_CLASSES = {600: "outer", 300: "probe"}
BPDN_CLASS_NAMES = ("outer", "probe", "confirm")


def bpdn_cap(args, kwargs, default_cap: int) -> int:
    """The ``inner_max`` of the options object passed to a bpdn call."""
    for value in list(args) + list(kwargs.values()):
        cap = getattr(value, "inner_max", None)
        if isinstance(cap, int):
            return cap
    return default_cap


def bpdn_class(cap: int) -> str:
    return BPDN_CLASSES.get(cap, "confirm")


@dataclass
class TrialRecord:
    """One solver call as the harness made it."""

    latency_s: float
    finite: bool
    inner_iters: int
    outer_iters: int
    termination: str


def _report_finite(report) -> bool:
    return bool(np.all(np.isfinite(report.xhat))) and math.isfinite(report.objective)


def install_trial_log(harness, patches: Patches, log: list) -> None:
    """Times each solver call the harness makes: one clock pair per trial."""

    def make(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            report = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            log.append(
                TrialRecord(
                    elapsed,
                    _report_finite(report),
                    int(report.inner_iters_total),
                    int(report.outer_iters),
                    str(report.termination),
                )
            )
            return report

        return wrapper

    for name in SOLVERS:
        patches.replace(harness, name, make)


def install_tracing(recorder: SpanRecorder, patches: Patches) -> None:
    """Wraps every public entry point of each layer at its lookup site."""
    import affinepr.harness as harness
    import affinepr.lemmas as lemmas
    import affinepr.solver as solver

    default_cap = solver.SolverOptions().inner_max

    def on_bpdn(span, args, kwargs, result):
        cap = bpdn_cap(args, kwargs, default_cap)
        iters = int(result.iterations)
        converged = bool(result.converged)
        span.attrs.update(
            cls=bpdn_class(cap),
            cap=cap,
            iters=iters,
            converged=converged,
            capped=not converged and iters >= cap,
        )

    def on_solve(span, args, kwargs, report):
        span.attrs.update(
            inner=int(report.inner_iters_total),
            outer=int(report.outer_iters),
            term=str(report.termination),
        )

    def on_cell(span, args, kwargs, result):
        span.attrs.update(m=int(args[1]), k=int(args[2]), eps=float(args[3]))

    def on_srip(span, args, kwargs, est):
        span.attrs.update(trials=int(kwargs.get("trials", args[2] if len(args) > 2 else 0)))

    def on_ratio(span, args, kwargs, est):
        span.attrs.update(samples=int(est.samples))

    def wrap(module, attr, name, annotate=None):
        patches.replace(module, attr, span_wrapper(recorder, name, annotate))

    for name in EXPERIMENTS:
        wrap(harness, name, f"harness.{name}")
    wrap(harness, "run_cell", "harness.run_cell", on_cell)
    wrap(harness, "make_instance", "rng.make_instance")
    for name in SOLVERS:
        wrap(harness, name, "solver.solve", on_solve)
    wrap(harness, "error_metrics", "model.error_metrics")
    wrap(harness, "srip_profile", "ripcheck.srip_profile", on_srip)
    wrap(harness, "rip_ratio_sample", "ripcheck.rip_ratio_sample", on_ratio)
    wrap(solver, "bpdn", "solver.bpdn", on_bpdn)
    for name, fn in inspect.getmembers(lemmas, inspect.isfunction):
        if fn.__module__ == lemmas.__name__ and not name.startswith("_"):
            wrap(lemmas, name, f"lemmas.{name}")


def layer_metrics(spans, pass_start: float, pass_end: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ()))

    out: dict = {}
    bpdn = by_name.get("solver.bpdn", [])
    all_iters = sum(s.attrs["iters"] for s in bpdn)
    for cls in BPDN_CLASS_NAMES:
        calls = [s for s in bpdn if s.attrs["cls"] == cls]
        out[f"solver.bpdn.{cls}.calls"] = len(calls)
        out[f"solver.bpdn.{cls}.iters"] = sum(s.attrs["iters"] for s in calls)
        out[f"solver.bpdn.{cls}.s"] = sum(s.duration for s in calls)
        out[f"solver.bpdn.{cls}.capped"] = sum(1 for s in calls if s.attrs["capped"])
    out["solver.bpdn.us_per_iter"] = 1e6 * total("solver.bpdn") / all_iters if all_iters else 0.0
    useful = sum(s.attrs["iters"] for s in bpdn if s.attrs["converged"])
    out["solver.bpdn.useful_iter_ratio"] = useful / all_iters if all_iters else 0.0

    solves = by_name.get("solver.solve", [])
    out["solver.solve_s"] = total("solver.solve")
    out["solver.solve_self_s"] = self_total(["solver.solve"])
    out["solver.inner_iters_per_trial"] = (
        sum(s.attrs["inner"] for s in solves) / len(solves) if solves else 0.0
    )
    out["solver.outer_iters_per_trial"] = (
        sum(s.attrs["outer"] for s in solves) / len(solves) if solves else 0.0
    )
    for s in solves:
        key = f"solver.termination.{s.attrs['term']}"
        out[key] = out.get(key, 0) + 1

    out["harness.cell_s"] = total("harness.run_cell")
    out["harness.cell_self_s"] = self_total(["harness.run_cell"])
    out["harness.self_s"] = self_total([f"harness.{n}" for n in EXPERIMENTS])

    for name in ("rng.make_instance", "model.error_metrics"):
        out[f"{name}.calls"] = len(by_name.get(name, ()))
        out[f"{name}.s"] = total(name)

    srip = by_name.get("ripcheck.srip_profile", [])
    trials = sum(s.attrs["trials"] for s in srip)
    out["ripcheck.srip_profile.trials"] = trials
    out["ripcheck.srip_profile.s"] = total("ripcheck.srip_profile")
    out["ripcheck.srip_profile.us_per_trial"] = (
        1e6 * out["ripcheck.srip_profile.s"] / trials if trials else 0.0
    )
    ratio = by_name.get("ripcheck.rip_ratio_sample", [])
    samples = sum(s.attrs["samples"] for s in ratio)
    out["ripcheck.rip_ratio_sample.samples"] = samples
    out["ripcheck.rip_ratio_sample.s"] = total("ripcheck.rip_ratio_sample")
    out["ripcheck.rip_ratio_sample.us_per_sample"] = (
        1e6 * out["ripcheck.rip_ratio_sample.s"] / samples if samples else 0.0
    )

    for name in LEMMA_METRICS:
        out[f"lemmas.{name}.calls"] = len(by_name.get(f"lemmas.{name}", ()))
        out[f"lemmas.{name}.s"] = total(f"lemmas.{name}")

    wall = pass_end - pass_start
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.unattributed_share"] = (wall - covered(roots, pass_start, pass_end)) / wall
    return out


def owners(spans, name: str) -> dict:
    """Span id -> the nearest enclosing span (or itself) called ``name``."""
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        p = s
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        out[s.id] = p
    return out


def per_cell_rows(spans) -> list[dict]:
    """Per-cell medians over solves of what one solve costs and where its
    inner iterations go, for comparison with the single-solve baseline in
    ROADMAP.md; ``all_capped_share`` is the share of solves whose every
    BPDN call hit its cap."""
    cell_of = owners(spans, "harness.run_cell")
    solve_of = owners(spans, "solver.solve")
    per_solve: dict = {}
    for s in spans:
        if s.name == "solver.bpdn" and solve_of[s.id] is not None:
            per_solve.setdefault(solve_of[s.id].id, []).append(s)
    rows = []
    for cell in (s for s in spans if s.name == "harness.run_cell"):
        figures = []
        for solve in (s for s in spans if s.name == "solver.solve" and cell_of[s.id] is cell):
            bpdn = per_solve.get(solve.id, [])
            probes = [b for b in bpdn if b.attrs["cls"] == "probe"]
            iters = sum(b.attrs["iters"] for b in bpdn)
            capped = sum(1 for b in bpdn if b.attrs["capped"])
            figures.append(
                {
                    "ms": 1e3 * solve.duration,
                    "bpdn_calls": len(bpdn),
                    "bpdn_capped": capped,
                    "probes": len(probes),
                    "probes_capped": sum(1 for b in probes if b.attrs["capped"]),
                    "probe_iters": sum(b.attrs["iters"] for b in probes),
                    "inner_iters": iters,
                    "us_per_iter": 1e6 * sum(b.duration for b in bpdn) / iters if iters else 0.0,
                    "all_capped": float(bool(bpdn) and capped == len(bpdn)),
                }
            )
        if not figures:
            continue
        row = {"m": cell.attrs["m"], "eps": cell.attrs["eps"], "solves": len(figures)}
        for key in figures[0]:
            if key != "all_capped":
                row[f"{key}_p50"] = statistics.median(f[key] for f in figures)
        row["all_capped_share"] = sum(f["all_capped"] for f in figures) / len(figures)
        rows.append(row)
    return rows
