import dataclasses
import json
import os

import numpy as np
import pytest

from affinepr import (
    ExperimentConfig,
    SeedSpec,
    SolverOptions,
    gen_bias_complex,
    load_instance,
    make_instance,
    regenerate_instance,
    run_impossibility_demo,
    run_lemma_suite,
    run_noise_curve,
    run_phase_grid,
    run_ripmap,
    run_srip,
    save_instance,
    wilson_interval,
)
from affinepr import harness
from affinepr.harness import InstanceFormatError, generate_instance, run_cell
from affinepr.rng import normalize_bias
from affinepr.ripcheck import rip_ratio_sample, srip_profile

SMALL_GRID = {
    "experiment": "phase_grid",
    "field": "real",
    "n": 16,
    "k_list": [2],
    "m_list": [24, 32],
    "trials_per_cell": 4,
    "bias": {"kind": "constant", "c": 1.0},
    "master_seed": 99,
    "solver": {"restarts": 1, "restart_seed": 2},
}


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "bogus": 1})
    with pytest.raises(ValueError, match="unknown solver option"):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "solver": {"nope": 2}})


@pytest.mark.parametrize(
    "key, value",
    [
        ("penalty", 3.0),
        ("success_tol", 0.5),
        ("homotopy_shrink", 0.95),
        ("homotopy_steps", 10),
        ("trust_ratio", 0.5),
        ("outer_max", 3),
    ],
)
def test_config_rejects_removed_solver_keys(key, value):
    # These are fixed constants of the solver and the harness, not options.
    with pytest.raises(ValueError, match="unknown solver option keys"):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "solver": {key: value}})
    with pytest.raises(TypeError):
        SolverOptions(**{key: value})


def test_solver_options_fields_are_pinned():
    # Each field is a JSON ``solver`` key that every test and user can set; a
    # new one has to be added here on purpose.
    names = [f.name for f in dataclasses.fields(SolverOptions)]
    assert names == ["inner_max", "inner_tol", "restarts", "mode", "restart_seed", "flip_candidates"]


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"experiment": "warp_drive"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "n": 4, "k_list": [9]})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "epsilon_list": [0.2, 0.1]})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "trials_per_cell": 0})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "bias": {"kind": "prime"}})
    with pytest.raises(ValueError, match="'c'"):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "bias": {"kind": "constant"}})
    with pytest.raises(ValueError, match="'c'"):
        ExperimentConfig.from_dict(
            {"experiment": "phase_grid", "bias": {"kind": "constant", "c": float("nan")}}
        )
    with pytest.raises(ValueError, match="'path'"):
        ExperimentConfig.from_dict({"experiment": "phase_grid", "bias": {"kind": "file"}})


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", 16.0),
        ("m_list", [24.0]),
        ("trials_per_cell", 1.5),
        ("k_list", 2),
        ("master_seed", -3),
        ("master_seed", 1.5),
        ("epsilon_list", [0.0, float("nan")]),
        ("epsilon_list", [0.0, float("inf")]),
        ("bias", True),
        ("bias", {"kind": "constant", "c": True}),
    ],
    ids=[
        "float-n",
        "float-m",
        "fractional-trials",
        "scalar-k_list",
        "negative-seed",
        "fractional-seed",
        "nan-epsilon",
        "inf-epsilon",
        "bool-bias",
        "bool-c",
    ],
)
def test_config_rejects_bad_grid_values_at_load(tmp_path, key, value):
    # Each used to load: the float counts and the negative seed then failed
    # with a TypeError (or a seed error) in the first trial, a fractional seed
    # ran on the truncated seed's streams, and a non-finite epsilon failed at
    # its cell, after the earlier cells had run.  A bool bias, or a bool c,
    # ran as the constant c = 1.
    grid = {**SMALL_GRID, key: value, "output_path": str(tmp_path / "grid.csv")}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(grid)
    assert os.listdir(tmp_path) == []


def test_config_solver_must_be_checked_options():
    with pytest.raises(ValueError, match="restarts"):
        ExperimentConfig.from_dict({**SMALL_GRID, "solver": {"restarts": 2.0}})
    with pytest.raises(ValueError, match="solver must be a SolverOptions"):
        ExperimentConfig("phase_grid", solver={"restarts": 2})


def test_config_is_frozen_and_checked_on_replace():
    cfg = ExperimentConfig.from_dict(SMALL_GRID)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.master_seed = 5
    with pytest.raises(ValueError, match="master_seed"):
        dataclasses.replace(cfg, master_seed=-1)
    with pytest.raises(ValueError, match="k_list"):
        dataclasses.replace(cfg, n=1)
    # validate is idempotent: a checked config stays as it is.
    assert cfg.validate() is cfg and cfg == ExperimentConfig.from_dict(SMALL_GRID)
    assert cfg.m_list == (24, 32) and cfg.epsilon_list == (0.0,)


@pytest.mark.parametrize(
    "bias",
    [
        {"kind": "complex_gaussian"},
        {"kind": "constant", "c": 0.0},
        {"kind": "constant", "c": -1.0},
        {"kind": "file", "path": "bias24.json"},
        {"kind": "file", "path": "complex24.json"},
    ],
    ids=["complex-on-real", "zero-c", "negative-c", "file-length", "complex-file-on-real"],
)
def test_config_rejects_bias_before_any_trial(tmp_path, monkeypatch, bias):
    # These used to pass validate and fail inside the first trial (or, for the
    # short file, the m=32 cell), after the grid had written its sidecar.  The
    # complex file's imaginary parts were dropped with only a warning.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bias24.json").write_text(json.dumps([0.5] * 24))
    (tmp_path / "complex24.json").write_text(json.dumps({"re": [0.5] * 24, "im": [0.1] * 24}))
    grid = {**SMALL_GRID, "bias": bias, "output_path": str(tmp_path / "grid.csv")}
    with pytest.raises(ValueError, match="bias"):
        ExperimentConfig.from_dict(grid)
    # The constructor runs the same checks, so no unchecked config reaches a run.
    with pytest.raises(ValueError, match="bias"):
        run_phase_grid(ExperimentConfig(**{**grid, "solver": SolverOptions(**grid["solver"])}))
    assert sorted(os.listdir(tmp_path)) == ["bias24.json", "complex24.json"]


@pytest.mark.parametrize(
    "field, values",
    [
        ("real", [0.5] * 23 + [float("nan")]),
        ("real", [0.5] * 23 + [float("inf")]),
        ("complex", {"re": [0.5] * 23 + [float("-inf")], "im": [0.1] * 24}),
    ],
    ids=["nan", "inf", "complex-inf"],
)
def test_config_rejects_non_finite_bias_vector(tmp_path, field, values):
    # A non-finite entry used to pass validate: a grid failed at its first
    # solve after writing its sidecar, and gen wrote it into the instance.
    grid = {
        **SMALL_GRID,
        "field": field,
        "m_list": [24],
        "bias": {"kind": "vector", "values": values},
        "output_path": str(tmp_path / "grid.csv"),
    }
    with pytest.raises(ValueError, match="bias vector has non-finite entries"):
        ExperimentConfig.from_dict(grid)
    with pytest.raises(ValueError, match="bias vector"):
        run_phase_grid(ExperimentConfig(**{**grid, "solver": SolverOptions(**grid["solver"])}))
    assert os.listdir(tmp_path) == []


_CANONICAL_ONE = {"kind": "constant", "c": 1.0}


@pytest.mark.parametrize(
    "field, bias, canonical",
    [
        ("real", None, _CANONICAL_ONE),
        ("real", 1, _CANONICAL_ONE),
        ("real", {"kind": "constant", "c": 1}, _CANONICAL_ONE),
        ("real", 2.5, {"kind": "constant", "c": 2.5}),
        ("complex", None, {"kind": "complex_gaussian"}),
        ("complex", 1, _CANONICAL_ONE),
    ],
    ids=["real-default", "real-int", "real-int-c", "real-float", "complex-default", "complex-int"],
)
def test_config_holds_the_canonical_bias(field, bias, canonical):
    # A bias spelled 1 or with an int c used to load as spelled, under a digest
    # of its own; a complex config without one held the real default.
    data = {key: value for key, value in SMALL_GRID.items() if key != "bias"}
    data["field"] = field
    if bias is not None:
        data["bias"] = bias
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.bias == canonical == normalize_bias(field, bias, 24)
    assert cfg.digest() == ExperimentConfig.from_dict({**data, "bias": canonical}).digest()


def test_complex_config_without_bias_draws_the_complex_gaussian_bias():
    # It used to draw the real default, the constant c / sqrt(m).
    cfg = ExperimentConfig.from_dict(
        {"experiment": "phase_grid", "field": "complex", "n": 8, "k_list": [1], "m_list": [6]}
    )
    b = generate_instance(cfg).ensemble.b
    assert np.array_equal(b, gen_bias_complex(6, SeedSpec(0, ("gen", "bias"))))


@pytest.mark.parametrize(
    "changes, name",
    [
        ({"output_path": 5}, "output_path"),
        ({"output_path": "no-such-dir/out.csv"}, "output_path"),
        ({"experiment": "noise_curve"}, "m_list"),
        ({"experiment": "impossibility"}, "m_list"),
        ({"experiment": "srip"}, "m_list"),
        ({"experiment": "ripmap", "m_list": [24], "k_list": [2, 3]}, "k_list"),
        ({"experiment": "impossibility", "m_list": [12], "epsilon_list": [0.05]}, "epsilon_list"),
        ({"experiment": "srip", "m_list": [24], "epsilon_list": [0.0, 0.1]}, "epsilon_list"),
        ({"experiment": "ripmap", "m_list": [24], "epsilon_list": [0.1, 0.2]}, "epsilon_list"),
        ({"experiment": "lemma_suite", "epsilon_list": [0.0, 0.5]}, "epsilon_list"),
    ],
    ids=[
        "int-output_path",
        "missing-output_dir",
        "curve-m",
        "impossibility-m",
        "srip-m",
        "ripmap-k",
        "impossibility-eps",
        "srip-eps",
        "ripmap-eps",
        "lemma_suite-eps",
    ],
)
def test_config_rejects_bad_output_path_and_second_cell(tmp_path, monkeypatch, changes, name):
    # Each used to load: an int output path failed with a TypeError before
    # the first cell, an output path in a missing directory failed only after
    # the experiment's work, a single-cell experiment ran on the first m and
    # k of longer lists without notice, and an experiment that reads no
    # noise level ignored its epsilon_list.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=name):
        ExperimentConfig.from_dict({**SMALL_GRID, **changes})
    assert os.listdir(tmp_path) == []


def test_wilson_interval_reference():
    # independent reference implementation of the Wilson score interval
    def reference(s, n, z=1.959963984540054):
        p = s / n
        lo = (p + z * z / (2 * n) - z * ((p * (1 - p) + z * z / (4 * n)) / n) ** 0.5) / (
            1 + z * z / n
        )
        hi = (p + z * z / (2 * n) + z * ((p * (1 - p) + z * z / (4 * n)) / n) ** 0.5) / (
            1 + z * z / n
        )
        return max(lo, 0.0), min(hi, 1.0)

    for s, n in ((0, 10), (5, 10), (10, 10), (95, 100), (1, 400)):
        assert wilson_interval(s, n) == pytest.approx(reference(s, n), abs=1e-14)


def test_phase_grid_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg1 = ExperimentConfig.from_dict({**SMALL_GRID, "output_path": str(out1)})
    cfg2 = ExperimentConfig.from_dict({**SMALL_GRID, "output_path": str(out2)})
    run_phase_grid(cfg1)
    run_phase_grid(cfg2)
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "m,k,trials,successes,wilson_lo,wilson_hi,median_err,median_phase_err"


def test_phase_grid_resumes_after_interrupt(tmp_path, monkeypatch):
    import affinepr.harness as hmod

    grid = {**SMALL_GRID, "m_list": [24, 32, 40], "trials_per_cell": 2}
    out_full = tmp_path / "full.csv"
    run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(out_full)}))

    original = hmod.run_cell
    calls = []

    def interrupted_after_two(config, m, k, eps):
        calls.append(m)
        if len(calls) > 2:
            raise KeyboardInterrupt
        return original(config, m, k, eps)

    out_resume = tmp_path / "resume.csv"
    cfg = ExperimentConfig.from_dict({**grid, "output_path": str(out_resume)})
    monkeypatch.setattr(hmod, "run_cell", interrupted_after_two)
    with pytest.raises(KeyboardInterrupt):
        run_phase_grid(cfg)

    sidecar = str(out_resume) + ".partial.jsonl"
    with open(sidecar, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh][1:]
    assert [rec["key"][0] for rec in records] == [24, 32]
    assert not out_resume.exists()

    resumed = []

    def counting(config, m, k, eps):
        resumed.append(m)
        return original(config, m, k, eps)

    monkeypatch.setattr(hmod, "run_cell", counting)
    run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(out_resume)}))
    assert resumed == [40]  # the finished cells were loaded from the sidecar
    assert out_resume.read_bytes() == out_full.read_bytes()
    assert not os.path.exists(sidecar)


def test_resume_reruns_every_cell_when_the_bias_file_changes(tmp_path, monkeypatch):
    import affinepr.harness as hmod

    bias_path = tmp_path / "bias.json"
    grid = {
        **SMALL_GRID,
        "k_list": [1, 2],
        "m_list": [24],
        "trials_per_cell": 2,
        "bias": {"kind": "file", "path": str(bias_path)},
    }
    out = tmp_path / "grid.csv"
    original = hmod.run_cell
    calls = []

    def interrupted_after_one(config, m, k, eps):
        calls.append(k)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return original(config, m, k, eps)

    bias_path.write_text(json.dumps([0.5] * 24))
    monkeypatch.setattr(hmod, "run_cell", interrupted_after_one)
    with pytest.raises(KeyboardInterrupt):
        run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(out)}))

    bias_path.write_text(json.dumps([0.25, 0.75] * 12))
    resumed = []

    def counting(config, m, k, eps):
        resumed.append(k)
        return original(config, m, k, eps)

    monkeypatch.setattr(hmod, "run_cell", counting)
    run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(out)}))
    assert resumed == [1, 2]  # the recorded cell was drawn with the old bias
    fresh = tmp_path / "fresh.csv"
    run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(fresh)}))
    assert out.read_bytes() == fresh.read_bytes()


def test_file_bias_is_read_once_per_run(tmp_path, monkeypatch):
    import builtins

    import affinepr.harness as hmod

    bias_path = tmp_path / "bias.json"
    grid = {
        **SMALL_GRID,
        "k_list": [1, 2],
        "m_list": [24],
        "trials_per_cell": 2,
        "bias": {"kind": "file", "path": str(bias_path)},
    }
    bias_path.write_text(json.dumps([0.5] * 24))
    fresh = tmp_path / "fresh.csv"
    run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(fresh)}))

    real_open = builtins.open
    reads = []

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(bias_path) and "r" in mode:
            reads.append(file)
        return real_open(file, mode, *args, **kwargs)

    original = hmod.run_cell

    def rewriting(config, m, k, eps):
        out = original(config, m, k, eps)
        bias_path.write_text(json.dumps([0.25, 0.75] * 12))
        return out

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(hmod, "run_cell", rewriting)
    out = tmp_path / "grid.csv"
    run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(out)}))
    assert len(reads) == 1  # when the config was loaded
    assert out.read_bytes() == fresh.read_bytes()  # the rewrite reached no trial


def test_phase_grid_resumes_past_torn_last_line(tmp_path, monkeypatch):
    import affinepr.harness as hmod

    grid = {**SMALL_GRID, "m_list": [24, 32, 40], "trials_per_cell": 2}
    out_full = tmp_path / "full.csv"
    run_phase_grid(ExperimentConfig.from_dict({**grid, "output_path": str(out_full)}))

    cfg = ExperimentConfig.from_dict({**grid, "output_path": str(tmp_path / "torn.csv")})
    header = json.dumps({"config_digest": cfg.digest()})
    records = [
        json.dumps({"key": [m, 2, 0.0], "cell": dataclasses.asdict(run_cell(cfg, m, 2, 0.0)[0])})
        for m in (24, 32)
    ]
    torn = json.dumps({"key": [40, 2, 0.0], "cell": {"m": 40}})[:20]  # a write cut short
    sidecar = tmp_path / "torn.csv.partial.jsonl"
    sidecar.write_text("\n".join([header, *records, torn]), encoding="utf-8")

    original = hmod.run_cell
    resumed = []

    def counting(config, m, k, eps):
        resumed.append(m)
        if m == 40:  # the cell's own record must land on a fresh line
            assert sidecar.read_text(encoding="utf-8") == "\n".join([header, *records]) + "\n"
        return original(config, m, k, eps)

    monkeypatch.setattr(hmod, "run_cell", counting)
    run_phase_grid(cfg)
    assert resumed == [40]
    assert (tmp_path / "torn.csv").read_bytes() == out_full.read_bytes()
    assert not sidecar.exists()


def test_write_text_failure_keeps_previous_file(tmp_path):
    from affinepr.harness import _write_text

    path = tmp_path / "out.csv"
    _write_text(str(path), "old\n")
    with pytest.raises(UnicodeEncodeError):
        _write_text(str(path), "new,row\n" * 1000 + "\ud800\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_noise_curve_runs_and_fits(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "noise_curve",
            "field": "real",
            "n": 16,
            "k_list": [2],
            "m_list": [32],
            "trials_per_cell": 6,
            "epsilon_list": [0.0, 0.05, 0.1],
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": 7,
            "solver": {"restarts": 1, "restart_seed": 2},
            "output_path": str(tmp_path / "curve.csv"),
        }
    )
    result = run_noise_curve(cfg)
    assert len(result.cells) == 3
    assert result.cells[0].median_plain_error <= 1e-5
    assert np.isfinite(result.slope)
    text = (tmp_path / "curve.csv").read_text()
    assert text.startswith("epsilon,trials,successes")


def test_impossibility_demo_identity_and_growth():
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "impossibility",
            "field": "real",
            "n": 32,
            "k_list": [2],
            "m_list": [24],
            "trials_per_cell": 1,
            "bias": {"kind": "constant", "c": 1.0},
            "master_seed": 11,
            "solver": {"restarts": 1, "restart_seed": 2},
        }
    )
    rep = run_impossibility_demo(cfg)
    assert max(rep.collision_residuals) <= 1e-10
    assert rep.alias_errors[-1] >= 10 * rep.alias_errors[0]
    # at r=1 the instance is inside the affine recovery regime
    assert rep.sparse_errors[0] <= 1e-4


def test_impossibility_requires_m_le_n():
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "impossibility",
            "field": "real",
            "n": 8,
            "k_list": [1],
            "m_list": [12],
            "trials_per_cell": 1,
            "master_seed": 1,
        }
    )
    with pytest.raises(ValueError):
        run_impossibility_demo(cfg)


def test_run_srip_and_ripmap_smoke():
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "srip",
            "field": "real",
            "n": 24,
            "k_list": [2],
            "m_list": [20],
            "trials_per_cell": 50,
            "master_seed": 5,
        }
    )
    est_a, est_ab = run_srip(cfg)
    assert 0 <= est_a.lower_hat <= est_a.upper_hat
    assert est_ab.config["last_coord_free"]

    cfg2 = ExperimentConfig.from_dict(
        {
            "experiment": "ripmap",
            "field": "complex",
            "n": 16,
            "k_list": [2],
            "m_list": [60],
            "trials_per_cell": 100,
            "bias": {"kind": "complex_gaussian"},
            "master_seed": 6,
        }
    )
    est = run_ripmap(cfg2)
    assert 0 < est.lower_hat <= est.upper_hat


@pytest.mark.parametrize("experiment", ["srip", "ripmap"])
def test_isometry_experiments_draw_only_the_ensemble(monkeypatch, experiment):
    # They used to draw a whole instance (x0, w, y) to read its A and b.
    cfg = ExperimentConfig.from_dict(
        {"experiment": experiment, "n": 12, "k_list": [2], "m_list": [10], "trials_per_cell": 5}
    )
    seed = SeedSpec(0, (experiment, 10, 2))
    ens = make_instance("real", 12, 2, 10, seed).ensemble
    monkeypatch.setattr(harness, "make_instance", None)
    monkeypatch.setattr(harness, "_instance", None)
    if experiment == "srip":
        want = srip_profile(ens.A, 2, 5, seed.child("profileA"))
        got = run_srip(cfg)[0]
    else:
        want = rip_ratio_sample(ens.A, ens.b, 2, 5, seed)
        got = run_ripmap(cfg)
    assert (got.lower_hat, got.upper_hat, got.samples) == (want.lower_hat, want.upper_hat, want.samples)


def test_run_lemma_suite_clean():
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "lemma_suite",
            "field": "real",
            "n": 8,
            "k_list": [2],
            "m_list": [8],
            "trials_per_cell": 400,
            "master_seed": 13,
        }
    )
    summary = run_lemma_suite(cfg)
    assert summary["decompose_failures"] == 0
    assert summary["lifted_violations"] == 0
    assert summary["moment_failures"] == 0


def test_save_load_roundtrip(tmp_path):
    inst = make_instance("complex", 10, 2, 8, SeedSpec(21, ("io",)), with_intensity=True)
    path = tmp_path / "inst.json"
    save_instance(str(path), inst)
    loaded = load_instance(str(path))
    assert loaded.ensemble.field == "complex"
    assert np.array_equal(loaded.ensemble.A, inst.ensemble.A)
    assert np.array_equal(loaded.ensemble.b, inst.ensemble.b)
    assert np.array_equal(loaded.x0, inst.x0)
    assert np.array_equal(loaded.w, inst.w)
    assert np.array_equal(loaded.y, inst.y)
    assert np.array_equal(loaded.ytilde, inst.ytilde)
    assert loaded.k == inst.k
    regen = regenerate_instance(loaded.ensemble.seed_meta)
    assert np.array_equal(regen.ensemble.A, inst.ensemble.A)
    assert np.array_equal(regen.y, inst.y)


def test_load_rejects_truncation_and_tampering(tmp_path):
    inst = make_instance("real", 6, 1, 5, SeedSpec(22))
    path = tmp_path / "inst.json"
    save_instance(str(path), inst)
    raw = path.read_text()

    truncated = tmp_path / "trunc.json"
    truncated.write_text(raw[: len(raw) // 2])
    with pytest.raises(InstanceFormatError):
        load_instance(str(truncated))

    doc = json.loads(raw)
    doc["payload"]["k"] = 3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="checksum"):
        load_instance(str(tampered))

    doc2 = json.loads(raw)
    doc2["version"] = 99
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(doc2))
    with pytest.raises(InstanceFormatError, match="version"):
        load_instance(str(wrong))


def test_csv_number_format(tmp_path):
    path = tmp_path / "fmt.csv"
    grid = {**SMALL_GRID, "m_list": [24], "output_path": str(path)}
    run_phase_grid(ExperimentConfig.from_dict(grid))
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF
    row = lines[1].split(",")
    assert row[0] == "24" and row[1] == "2"
    assert len(row) == 8  # no wall-clock column


def test_run_cell_trial_metrics():
    cfg = ExperimentConfig.from_dict(SMALL_GRID)
    cell, trials = run_cell(cfg, 24, 2, 0.0)
    assert cell.trial_count == len(trials) == 4
    assert all(t.plain >= 0 for t in trials)


@pytest.mark.parametrize("mode", ["magnitude", "intensity"])
def test_run_cell_hands_intensity_mode_its_data(mode):
    # Intensity mode used to be handed the magnitudes and recovered 0 of 4.
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "phase_grid",
            "field": "complex",
            "n": 16,
            "k_list": [2],
            "m_list": [64],
            "trials_per_cell": 4,
            "bias": {"kind": "complex_gaussian"},
            "master_seed": 7,
            "solver": {"restarts": 2, "mode": mode},
        }
    )
    cell, _ = run_cell(cfg, 64, 2, 0.0)
    assert cell.success_count == 4


def _report_bytes(rep):
    return (
        rep.xhat.tobytes(),
        rep.trace,
        rep.termination,
        rep.restart_index_of_best,
        rep.outer_iters,
        rep.inner_iters_total,
        rep.burn_in_levels,
        rep.clipped_intensities,
    )


@pytest.mark.parametrize(
    "field, n, k, m, epsilon, solver, block",
    [
        ("real", 24, 2, 16, 0.0, {}, None),  # m < n: both chains run stacked
        ("real", 24, 2, 32, 0.0, {}, None),  # m > n: distinct exit levels, a chain-1 fallback
        ("real", 24, 2, 32, 0.0, {}, 2),  # the same cell in blocks of 2, 2 and 1
        ("real", 24, 2, 32, 0.05, {}, None),  # eps > 0
        ("real", 24, 2, 16, 0.0, {"restarts": 3}, None),  # a random chain
        ("complex", 12, 1, 30, 0.0, {}, None),
        ("complex", 12, 1, 30, 0.0, {"mode": "intensity"}, None),
    ],
    ids=["real-m<n", "real-m>n", "real-m>n-blocks", "real-noisy", "real-restarts3", "complex",
         "complex-intensity"],
)
def test_run_cell_matches_one_solve_per_trial(monkeypatch, field, n, k, m, epsilon, solver, block):
    # A cell runs its burn-ins in lockstep blocks, then solves each trial once
    # with its burn-in handed over; every report is that of a solve without it.
    bias = {"kind": "constant", "c": 1.0} if field == "real" else {"kind": "complex_gaussian"}
    config = ExperimentConfig.from_dict(
        {
            "experiment": "phase_grid",
            "field": field,
            "n": n,
            "k_list": [k],
            "m_list": [m],
            "trials_per_cell": 5,
            "bias": bias,
            "master_seed": 5,
            "solver": {"restarts": 2, "restart_seed": 1, **solver},
        }
    )
    if block is not None:
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", block * m * n)
    calls = []  # (report, chains handed over) of each solver call run_cell makes

    def recording(solve):
        def wrapped(*args, burn_in=None, **kwargs):
            rep = solve(*args, burn_in=burn_in, **kwargs)
            calls.append((rep, len(burn_in.chains)))
            return rep

        return wrapped

    for name in ("solve_affine_pr_real", "solve_affine_pr_complex"):
        monkeypatch.setattr(harness, name, recording(getattr(harness, name)))
    cell, trials = run_cell(config, m, k, epsilon)
    monkeypatch.undo()
    assert len(calls) == len(trials) == 5
    for t, (rep, handed) in enumerate(calls):
        seed = SeedSpec(config.master_seed, ("phase_grid", m, k, repr(float(epsilon)), t))
        inst = harness._instance(config, k, m, seed, epsilon)
        ref = harness.solve_instance(inst, epsilon, config.solver)
        assert _report_bytes(rep) == _report_bytes(ref)
        unique = field == "real" and epsilon == 0.0 and m > n
        assert handed == (1 if unique else config.solver.restarts)
    if field == "real" and epsilon == 0.0 and m > n:
        # Certified exits at distinct levels, and a chain-0 miss whose chain 1
        # ran as a stack of one.
        assert len({rep.burn_in_levels[0] for rep, _ in calls}) > 2
        assert any(len(rep.burn_in_levels) == 2 for rep, _ in calls)
