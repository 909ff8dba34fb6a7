"""Command-line interface for generation, solving, and batch experiments.

Every subcommand is driven by a JSON config (``--config``) mirroring
ExperimentConfig, with ``--seed``, ``--out`` and ``--format`` overrides.
Outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

from .harness import (
    ExperimentConfig,
    cell_to_json,
    generate_instance,
    load_instance,
    phase_grid_csv,
    phase_grid_json,
    run_impossibility_demo,
    run_lemma_suite,
    run_noise_curve,
    run_phase_grid,
    run_ripmap,
    run_srip,
    save_instance,
    solve_instance,
    write_json,
)
from .model import array_to_json


def _load_config(args) -> ExperimentConfig:
    """The ``--config`` file's config (the defaults without one) for this
    subcommand's experiment, with the ``--seed`` and ``--out`` overrides."""
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig(args.experiment_default)
    overrides = {"master_seed": args.seed, "output_path": args.out}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    return replace(config, experiment=args.experiment_default, **overrides)


def _cmd_gen(args, config: ExperimentConfig) -> int:
    if not config.output_path:
        raise SystemExit("gen requires --out")
    save_instance(config.output_path, generate_instance(config))
    print(f"wrote instance to {config.output_path}")
    return 0


def _cmd_solve(args, config: ExperimentConfig) -> int:
    inst = load_instance(args.instance)
    report = solve_instance(inst, config.epsilon_list[0], config.solver)
    doc = asdict(report)
    doc.update(xhat=array_to_json(report.xhat), seed_meta=inst.ensemble.seed_meta)
    write_json(doc, config.output_path)
    return 0


def _cmd_phase_grid(args, config: ExperimentConfig) -> int:
    render = phase_grid_json if args.format == "json" else phase_grid_csv
    cells = run_phase_grid(config, render)
    if not config.output_path:
        sys.stdout.write(render(cells))
    return 0


def _cmd_noise_curve(args, config: ExperimentConfig) -> int:
    result = run_noise_curve(config)
    summary = {
        "slope": result.slope,
        "r_squared": result.r_squared,
        "cells": [cell_to_json(c) for c in result.cells],
    }
    if args.format == "json":
        write_json(summary)
    else:
        print(f"slope={result.slope:.6g} r_squared={result.r_squared:.6g}")
    return 0


def _cmd_impossibility(args, config: ExperimentConfig) -> int:
    rep = run_impossibility_demo(config)
    if config.output_path:
        print(f"wrote report to {config.output_path}")
    else:
        write_json(asdict(rep))
    return 0


def _cmd_srip(args, config: ExperimentConfig) -> int:
    est_a, est_ab = run_srip(config)
    doc = {
        "A": {"lower_hat": est_a.lower_hat, "upper_hat": est_a.upper_hat, "samples": est_a.samples},
        "Ab": {"lower_hat": est_ab.lower_hat, "upper_hat": est_ab.upper_hat, "samples": est_ab.samples},
    }
    if args.format == "json" or not config.output_path:
        write_json(doc)
    return 0


def _cmd_ripmap(args, config: ExperimentConfig) -> int:
    est = run_ripmap(config)
    doc = {
        "ratio_min": est.lower_hat,
        "ratio_max": est.upper_hat,
        "samples": est.samples,
        "spread": est.spread,
    }
    if args.format == "json" or not config.output_path:
        write_json(doc)
    return 0


def _cmd_lemma(args, config: ExperimentConfig) -> int:
    summary = run_lemma_suite(config)
    if not config.output_path:
        write_json(summary)
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
    return args.fn(args, _load_config(args))


if __name__ == "__main__":
    raise SystemExit(main())
