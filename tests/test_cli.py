import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from affinepr import error_metrics, load_instance
from affinepr.cli import main
from affinepr.model import array_from_json


def run_cli(args):
    return main(args)


def test_gen_solve_roundtrip(tmp_path, capsys):
    cfg = {
        "experiment": "phase_grid",
        "field": "real",
        "n": 16,
        "k_list": [2],
        "m_list": [24],
        "trials_per_cell": 1,
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 3,
        "solver": {"restarts": 1, "restart_seed": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    inst_path = tmp_path / "inst.json"
    assert run_cli(["--config", str(cfg_path), "--out", str(inst_path), "gen"]) == 0
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    assert (
        run_cli(["--config", str(cfg_path), "--out", str(report_path), "solve", str(inst_path)])
        == 0
    )
    report = json.loads(report_path.read_text())
    assert set(report) >= {
        "xhat",
        "objective",
        "feasibility",
        "outer_iters",
        "inner_iters_total",
        "restart_index_of_best",
        "termination",
        "trace",
        "burn_in_levels",
        "seed_meta",
    }
    assert len(report["burn_in_levels"]) == cfg["solver"]["restarts"]
    assert report["seed_meta"]["generator"] == "affinepr.instance.v1"


def test_solve_report_deterministic(tmp_path):
    cfg = {
        "experiment": "phase_grid",
        "field": "complex",
        "n": 12,
        "k_list": [2],
        "m_list": [30],
        "trials_per_cell": 1,
        "bias": {"kind": "complex_gaussian"},
        "master_seed": 5,
        "solver": {"restarts": 1, "restart_seed": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    inst_path = tmp_path / "inst.json"
    run_cli(["--config", str(cfg_path), "--out", str(inst_path), "gen"])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli(["--config", str(cfg_path), "--out", str(r1), "solve", str(inst_path)])
    run_cli(["--config", str(cfg_path), "--out", str(r2), "solve", str(inst_path)])
    assert r1.read_bytes() == r2.read_bytes()


def test_gen_solve_intensity_mode(tmp_path):
    # gen used to save no intensities, so solve read magnitudes as intensities
    # (global-phase error 1.68 on this instance).
    cfg = {
        "experiment": "phase_grid",
        "field": "complex",
        "n": 16,
        "k_list": [2],
        "m_list": [64],
        "bias": {"kind": "complex_gaussian"},
        "master_seed": 7,
        "solver": {"restarts": 2, "mode": "intensity"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run_cli(["--config", str(cfg_path), "--out", str(inst_path), "gen"])
    run_cli(["--config", str(cfg_path), "--out", str(report_path), "solve", str(inst_path)])
    inst = load_instance(str(inst_path))
    xhat = array_from_json(json.loads(report_path.read_text())["xhat"])
    err = error_metrics(xhat, inst.x0).global_phase
    assert err <= 1e-5 * (1.0 + np.linalg.norm(inst.x0))

    magnitude_cfg = tmp_path / "magnitude.json"
    magnitude_cfg.write_text(json.dumps({**cfg, "solver": {"restarts": 2}}))
    run_cli(["--config", str(magnitude_cfg), "--out", str(inst_path), "gen"])
    with pytest.raises(ValueError, match="ytilde"):
        run_cli(["--config", str(cfg_path), "--out", str(report_path), "solve", str(inst_path)])


def test_phase_grid_cli_csv(tmp_path, capsys):
    cfg = {
        "experiment": "phase_grid",
        "field": "real",
        "n": 12,
        "k_list": [1],
        "m_list": [16],
        "trials_per_cell": 2,
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 8,
        "solver": {"restarts": 1, "restart_seed": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "grid.csv"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "phase-grid"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("m,k,trials")
    assert len(lines) == 2
    capsys.readouterr()
    assert run_cli(["--config", str(cfg_path), "phase-grid"]) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_phase_grid_cli_resumes_after_interrupt(tmp_path, monkeypatch, fmt):
    import affinepr.harness as hmod

    cfg = _cli_config("phase_grid", m_list=[12, 16, 20], trials_per_cell=1, solver=_ONE_RESTART)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    full, resumed = tmp_path / "full.out", tmp_path / "resumed.out"
    args = ["--config", str(cfg_path), "--format", fmt, "--out"]
    assert run_cli([*args, str(full), "phase-grid"]) == 0

    original = hmod.run_cell
    ran = []

    def interrupted_after_one(config, m, k, eps):
        ran.append(m)
        if len(ran) > 1:
            raise KeyboardInterrupt
        return original(config, m, k, eps)

    monkeypatch.setattr(hmod, "run_cell", interrupted_after_one)
    with pytest.raises(KeyboardInterrupt):
        run_cli([*args, str(resumed), "phase-grid"])
    assert os.path.exists(str(resumed) + ".partial.jsonl")

    def counting(config, m, k, eps):
        ran.append(m)
        return original(config, m, k, eps)

    ran.clear()
    monkeypatch.setattr(hmod, "run_cell", counting)
    assert run_cli([*args, str(resumed), "phase-grid"]) == 0
    assert ran == [16, 20]  # the finished cell came from the sidecar
    assert resumed.read_bytes() == full.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "full.out", "resumed.out"]


def test_lemma_cli_exit_code(tmp_path, capsys):
    cfg = {
        "experiment": "lemma_suite",
        "field": "real",
        "n": 8,
        "k_list": [2],
        "m_list": [8],
        "trials_per_cell": 200,
        "master_seed": 9,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["--config", str(cfg_path), "lemma"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lifted_violations"] == 0


def test_console_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "affinepr.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "phase-grid" in proc.stdout


def _cli_config(experiment, **overrides):
    base = {"experiment": experiment, "field": "real", "n": 16, "k_list": [2], "master_seed": 4}
    return {**base, **overrides}


_ONE_RESTART = {"restarts": 1}
_CLI_CONFIGS = {
    "phase-grid": _cli_config(
        "phase_grid", m_list=[24], trials_per_cell=2, solver=_ONE_RESTART
    ),
    "noise-curve": _cli_config(
        "noise_curve",
        m_list=[32],
        trials_per_cell=2,
        epsilon_list=[0.0, 0.05],
        solver=_ONE_RESTART,
    ),
    "impossibility": _cli_config(
        "impossibility", n=24, m_list=[20], trials_per_cell=1, solver=_ONE_RESTART
    ),
    "srip": _cli_config("srip", m_list=[16], trials_per_cell=20),
    "ripmap": _cli_config("ripmap", m_list=[24], trials_per_cell=20),
    "lemma": _cli_config("lemma_suite", n=8, m_list=[8], trials_per_cell=200),
}
_GRID_COLS = ["m", "k", "trials", "successes", "wilson_lo", "wilson_hi", "median_err"]
_CURVE_COLS = ["epsilon", *_GRID_COLS[2:]]
_CELL_KEYS = {
    "m",
    "k",
    "epsilon",
    "trials",
    "successes",
    "wilson_lo",
    "wilson_hi",
    "median_err",
    "median_phase_err",
    "median_objective_gap",
}
_LEMMA_KEYS = {
    "decompose_checked",
    "decompose_failures",
    "lifted_checked",
    "lifted_violations",
    "moment_checked",
    "moment_failures",
}
_SRIP_KEYS = {"A", "Ab"}
_RIPMAP_KEYS = {"ratio_min", "ratio_max", "samples", "spread"}
_IMPOS_KEYS = {"r_values", "collision_residuals", "alias_errors", "sparse_errors", "z0_norm"}
_IMPOS_COLS = ["r", "collision_residual", "alias_error", "sparse_error"]


def _cli_expected(command, out, fmt):
    """(stdout, file) of one invocation: None for no output, else ("csv", leading
    header columns), ("json", keys of the object or of each list item) or
    ("line", regex of the whole text)."""
    json_out = fmt == "json"
    if command == "phase-grid":
        result = ("json", _CELL_KEYS) if json_out else ("csv", _GRID_COLS)
        return (None, result) if out else (result, None)
    if command == "noise-curve":
        if json_out:
            shown = ("json", {"slope", "r_squared", "cells"})
        else:
            shown = ("line", r"slope=\S+ r_squared=\S+\n")
        return shown, ("csv", _CURVE_COLS) if out else None
    if command == "impossibility":
        if out:
            return ("line", r"wrote report to .*out\.dat\n"), ("csv", _IMPOS_COLS)
        return ("json", _IMPOS_KEYS), None
    if command in ("srip", "ripmap"):
        keys = _SRIP_KEYS if command == "srip" else _RIPMAP_KEYS
        cols = ["target", "k", "trials"] if command == "srip" else ["k", "samples", "ratio_min"]
        if out:
            return ("json", keys) if json_out else None, ("csv", cols)
        return ("json", keys), None
    return (None, ("json", _LEMMA_KEYS)) if out else (("json", _LEMMA_KEYS), None)


def _check_output(text, expected):
    if expected is None:
        assert text == ""
        return
    kind, want = expected
    if kind == "line":
        assert re.fullmatch(want, text)
    elif kind == "csv":
        header, *rows = list(csv.reader(io.StringIO(text)))
        assert header[: len(want)] == want and rows
        assert all(len(row) == len(header) for row in rows)
    else:
        doc = json.loads(text)
        for item in doc if isinstance(doc, list) else [doc]:
            assert set(item) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", list(_CLI_CONFIGS))
def test_cli_output_routing(tmp_path, capsys, command, out, fmt):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_CLI_CONFIGS[command]))
    out_path = tmp_path / "out.dat"
    args = ["--config", str(cfg_path), "--format", fmt]
    if out:
        args += ["--out", str(out_path)]
    assert run_cli([*args, command]) == 0
    want_stdout, want_file = _cli_expected(command, out, fmt)
    _check_output(capsys.readouterr().out, want_stdout)
    if want_file is None:
        assert not out_path.exists()
    else:
        _check_output(out_path.read_text(), want_file)
    written = ["cfg.json", "out.dat"] if want_file else ["cfg.json"]
    assert sorted(os.listdir(tmp_path)) == written  # no sidecar or temporary file is left


def test_cli_checks_overrides_before_writing(tmp_path):
    # --seed replaces the loaded config's seed through the same checks.
    out = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match="master_seed"):
        run_cli(["--seed", "-1", "--out", str(out), "phase-grid"])
    assert os.listdir(tmp_path) == []
