"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import affinepr.harness as harness  # noqa: E402
import affinepr.solver as solver  # noqa: E402
from affinepr import SeedSpec, SolverOptions, make_instance  # noqa: E402

import run  # noqa: E402
from layers import (  # noqa: E402
    bpdn_cap,
    bpdn_class,
    install_trial_log,
    install_tracing,
    layer_metrics,
    per_cell_rows,
)
from spans import Patches, Span, SpanRecorder, covered, self_times  # noqa: E402
from workloads import _solver_pass  # noqa: E402


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(8.0, 12.0), (-1.0, 1.0)], 0.0, 10.0) == 3.0
    assert covered([(4.0, 4.0), (6.0, 5.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "child", 1.0, 4.0),
        Span(2, 1, "grandchild", 2.0, 3.5),
        Span(3, 0, "child", 6.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 6.0, 1: 1.5, 2: 1.5, 3: 1.0}
    assert sum(selfs.values()) == spans[0].duration


def test_recorder_nests_and_rejects_out_of_order_close():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.start("outer")
    inner = rec.start("inner")
    rec.finish(inner)
    rec.finish(outer)
    assert [(s.name, s.parent, s.duration) for s in rec.spans] == [
        ("outer", None, 3.0),
        ("inner", 0, 1.0),
    ]
    a = rec.start("a")
    rec.start("b")
    with pytest.raises(RuntimeError):
        rec.finish(a)


def test_bpdn_classification_by_cap():
    opts = SolverOptions()
    assert bpdn_cap((None, None, 0.0, SolverOptions(inner_max=600)), {}, 2000) == 600
    assert bpdn_cap((None, None, 0.0), {"opts": SolverOptions(inner_max=300)}, 2000) == 300
    assert bpdn_cap((None, None, 0.0), {}, opts.inner_max) == opts.inner_max
    assert [bpdn_class(c) for c in (600, 300, 2000, 150)] == ["outer", "probe", "confirm", "confirm"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(57) == 75
    assert run.tail_percentile(130) == 90
    assert run.tail_percentile(1000) == 99
    assert run.nearest_rank(list(range(1, 101)), 75) == 75


def test_tracing_sees_every_inner_iteration_and_restores():
    originals = (solver.bpdn, harness.run_cell, harness.solve_affine_pr_real)
    rec = SpanRecorder()
    patches = Patches()
    install_tracing(rec, patches)
    try:
        inst = make_instance("real", 8, 1, 12, SeedSpec(5), bias=1.0)
        report = harness.solve_affine_pr_real(
            inst.ensemble, inst.y, 0.0, SolverOptions(restarts=2, flip_candidates=2)
        )
    finally:
        patches.restore()
    assert (solver.bpdn, harness.run_cell, harness.solve_affine_pr_real) == originals
    bpdn = [s for s in rec.spans if s.name == "solver.bpdn"]
    assert bpdn and sum(s.attrs["iters"] for s in bpdn) == report.inner_iters_total
    caps = {s.attrs["cls"]: s.attrs["cap"] for s in bpdn}
    assert caps.get("outer", 600) == 600 and caps.get("probe", 300) == 300
    assert "probe" in caps


def test_traced_tiny_grid_pass_metrics(tmp_path):
    config = {
        "experiment": "phase_grid",
        "field": "real",
        "n": 8,
        "k_list": [1],
        "m_list": [12, 16],
        "trials_per_cell": 2,
        "master_seed": 3,
        "solver": {"restarts": 2, "restart_seed": 1},
    }
    log = []
    patches = Patches()
    install_trial_log(harness, patches, log)
    try:
        plain = _solver_pass(harness, config, str(tmp_path / "plain.csv"), log)
        rec = SpanRecorder()
        tracing = Patches()
        install_tracing(rec, tracing)
        try:
            traced = _solver_pass(harness, config, str(tmp_path / "traced.csv"), log)
        finally:
            tracing.restore()
    finally:
        patches.restore()
    assert not plain.problems and not traced.problems
    assert plain.record == traced.record
    assert len(plain.ops) == 4 and all(op.ok for op in plain.ops)

    m = layer_metrics(rec.spans, traced.start, traced.end, plain.wall_s)
    iters = sum(m[f"solver.bpdn.{c}.iters"] for c in ("outer", "probe", "confirm"))
    assert iters == sum(traced.record["inner_iters"])
    assert m["solver.inner_iters_per_trial"] == iters / 4
    assert m["rng.make_instance.calls"] == 4 and m["model.error_metrics.calls"] == 4
    assert sum(v for k, v in m.items() if k.startswith("solver.termination.")) == 4
    assert 0.0 <= m["solver.solve_self_s"] <= m["solver.solve_s"] <= m["harness.cell_s"]
    assert 0.0 <= m["trace.unattributed_share"] < 1.0
    assert [r["m"] for r in per_cell_rows(rec.spans)] == [12, 16]
