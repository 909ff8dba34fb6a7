import json
import subprocess
import sys

import pytest

from affinepr.cli import main


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
