"""Command-line interface for generation, solving, and batch experiments.

Every subcommand is driven by a JSON config (``--config``) mirroring
ExperimentConfig, with ``--seed``, ``--out`` and ``--format`` overrides.
Outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ExperimentConfig,
    ImpossibilityReport,
    _bias_for,
    _cell_to_json,
    _write_text,
    load_instance,
    phase_grid_csv,
    run_impossibility_demo,
    run_lemma_suite,
    run_noise_curve,
    run_phase_grid,
    run_ripmap,
    run_srip,
    save_instance,
)
from .model import REAL
from .rng import SeedSpec, make_instance
from .solver import solve_affine_pr_complex, solve_affine_pr_real


def _dump_json(obj, path: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig(experiment=args.experiment_default)
    if args.seed is not None:
        config.master_seed = args.seed
    if args.out is not None:
        config.output_path = args.out
    config.experiment = args.experiment_default
    return config.validate()


def _cmd_gen(args) -> int:
    config = _load_config(args)
    inst = make_instance(
        config.field,
        config.n,
        config.k_list[0],
        config.m_list[0],
        SeedSpec(config.master_seed, ("gen",)),
        amplitude_model="gaussian",
        bias=_bias_for(config),
        epsilon=config.epsilon_list[0],
        noise_model="sphere",
    )
    if not config.output_path:
        raise SystemExit("gen requires --out")
    save_instance(config.output_path, inst)
    print(f"wrote instance to {config.output_path}")
    return 0


def _cmd_solve(args) -> int:
    config = _load_config(args)
    inst = load_instance(args.instance)
    eps = config.epsilon_list[0]
    if inst.ensemble.field == REAL:
        report = solve_affine_pr_real(inst.ensemble, inst.y, eps, config.solver)
    else:
        data = inst.ytilde if (config.solver.mode == "intensity" and inst.ytilde is not None) else inst.y
        report = solve_affine_pr_complex(inst.ensemble, data, eps, config.solver)
    doc = {
        "xhat": report.xhat.real.tolist()
        if inst.ensemble.field == REAL
        else {"re": report.xhat.real.tolist(), "im": report.xhat.imag.tolist()},
        "objective": report.objective,
        "feasibility": report.feasibility,
        "outer_iters": report.outer_iters,
        "inner_iters_total": report.inner_iters_total,
        "restart_index_of_best": report.restart_index_of_best,
        "termination": report.termination,
        "trace": report.trace,
        "clipped_intensities": report.clipped_intensities,
        "burn_in_levels": report.burn_in_levels,
        "seed_meta": inst.ensemble.seed_meta,
    }
    _dump_json(doc, config.output_path or None)
    return 0


def _cmd_phase_grid(args) -> int:
    config = _load_config(args)
    out = config.output_path
    if args.format == "json":
        config.output_path = ""
    cells = run_phase_grid(config)
    if args.format == "json":
        _dump_json([_cell_to_json(c) for c in cells], out or None)
    elif not out:
        sys.stdout.write(phase_grid_csv(cells))
    return 0


def _cmd_noise_curve(args) -> int:
    config = _load_config(args)
    result = run_noise_curve(config)
    summary = {
        "slope": result.slope,
        "r_squared": result.r_squared,
        "cells": [_cell_to_json(c) for c in result.cells],
    }
    if args.format == "json":
        _dump_json(summary, None)
    else:
        print(f"slope={result.slope:.6g} r_squared={result.r_squared:.6g}")
    return 0


def _cmd_impossibility(args) -> int:
    config = _load_config(args)
    rep: ImpossibilityReport = run_impossibility_demo(config)
    if config.output_path:
        print(f"wrote report to {config.output_path}")
    else:
        _dump_json(
            {
                "r_values": rep.r_values,
                "collision_residuals": rep.collision_residuals,
                "alias_errors": rep.alias_errors,
                "sparse_errors": rep.sparse_errors,
                "z0_norm": rep.z0_norm,
            },
            None,
        )
    return 0


def _cmd_srip(args) -> int:
    config = _load_config(args)
    est_a, est_ab = run_srip(config)
    doc = {
        "A": {"lower_hat": est_a.lower_hat, "upper_hat": est_a.upper_hat, "samples": est_a.samples},
        "Ab": {"lower_hat": est_ab.lower_hat, "upper_hat": est_ab.upper_hat, "samples": est_ab.samples},
    }
    if args.format == "json" or not config.output_path:
        _dump_json(doc, None)
    return 0


def _cmd_ripmap(args) -> int:
    config = _load_config(args)
    est = run_ripmap(config)
    doc = {
        "ratio_min": est.lower_hat,
        "ratio_max": est.upper_hat,
        "samples": est.samples,
        "spread": est.upper_hat / est.lower_hat if est.lower_hat > 0 else float("inf"),
    }
    if args.format == "json" or not config.output_path:
        _dump_json(doc, None)
    return 0


def _cmd_lemma(args) -> int:
    config = _load_config(args)
    summary = run_lemma_suite(config)
    if not config.output_path:
        _dump_json(summary, None)
    ok = (
        summary["decompose_failures"] == 0
        and summary["lifted_violations"] == 0
        and summary["moment_failures"] == 0
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="affinepr", description=__doc__)
    parser.add_argument("--config", help="JSON config mirroring ExperimentConfig")
    parser.add_argument("--seed", type=int, help="override master seed")
    parser.add_argument("--out", help="override output path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("gen", _cmd_gen, "phase_grid", "generate and save a problem instance"),
        ("solve", _cmd_solve, "phase_grid", "solve a saved instance, emit a JSON report"),
        ("srip", _cmd_srip, "srip", "empirical strong-RIP profile for A and [A b]"),
        ("ripmap", _cmd_ripmap, "ripmap", "lifted-map l1/Frobenius ratio band"),
        ("lemma", _cmd_lemma, "lemma_suite", "randomized lemma suite"),
        ("phase-grid", _cmd_phase_grid, "phase_grid", "noiseless success grid over (m, k)"),
        ("noise-curve", _cmd_noise_curve, "noise_curve", "median error vs epsilon"),
        ("impossibility", _cmd_impossibility, "impossibility", "bias-in-range impossibility demo"),
    ]
    for name, fn, experiment, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, experiment_default=experiment)
        if name == "solve":
            p.add_argument("instance", help="path to a saved instance file")

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
