"""Check that two source trees write byte-identical experiment outputs and
recover the same trials.

    python3 scripts/same_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding an ``affinepr`` package,
for example the ``src`` of a checkout of the parent commit and ``src`` of the
working tree.  Each tree runs in its own fresh interpreter, which imports
``affinepr`` from that directory only and runs:

* the six experiment configs of acceptance criterion 12 (phase grid, noise
  curve, impossibility demo, srip, ripmap, lemma suite);
* every config of the benchmark's ``isometry`` and ``real-grid`` workloads,
  read from ``perfbench/workloads.py``, for the benchmark's ``default`` and
  ``heldout`` seeds (100 outputs per seed);
* a real phase grid with ``restarts=4`` (n=32, k=2, m=40 and 72) and a
  complex phase grid (n=32, k=2, m=112) with ``restarts=3``, which run the
  random-pattern restart chains and the phase loop;
* a real phase grid with ``restarts=4`` and fewer measurements than unknowns
  (n=64, k=3, m=30 and 40), whose random chains run the burn-in that ends
  at the settled floor (``solver._SETTLED_FLOOR``);
* a complex phase grid with fewer measurements than unknowns (n=32, k=2,
  m=20 and 28) and a short complex noise curve (n=32, k=2, m=112,
  epsilon 0.02 and 0.08), the only configs here whose solves run complex
  ADMM;
* the m=40 cell of acceptance criterion 2 (100 trials) and the noise curve
  of acceptance criterion 4 (100 trials at each of five epsilons), read
  from ``tests/fixtures/calibration.json``;
* the instance files that ``affinepr gen`` saves (``generate_instance``)
  for a real constant-bias config and a complex intensity-mode config, each
  with a ``<name> regenerated`` digest of the arrays (A, b, x0, w, y and
  ytilde) that ``regenerate_instance`` rebuilds from the file's seed
  metadata.

Every experiment that solves also gets two digests per number of
measurements m over the reports of its solves: ``<name> solves m=<m>`` over
the result (``xhat`` bytes, objective, feasibility, winning restart,
termination, trace and clipped count), so a change below the CSV's 12
printed digits still shows, and a change confined to some m shows which;
and ``<name> iters m=<m>`` over the work (outer steps, inner iterations and
burn-in levels), so a change that moves only iteration counts shows as
such.  Every srip and ripmap experiment also gets a ``<name> estimates``
digest over its estimates (the repr of ``lower_hat``, ``upper_hat`` and
``samples``, and the witness bytes), so a change below the CSV's digits
shows there too.  Every lemma suite also gets a ``<name> moments`` digest
over the repr of each ``moment_bound_check`` result (Monte Carlo mean,
bounds and verdict), since its JSON output holds only counts.  It prints the SHA-256 of every output for both trees side
by side.
It also records every trial's success flag in each grid cell and lists each
trial whose flag differs between the trees.  It exits with status 1 if any
output or flag differs, 0 if all are identical.  A run over two trees
takes about 70 s (35 s per tree) on a 2-core machine.  It writes nothing
under ``perfbench/``; outputs go to a temporary directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The configs of tests/test_acceptance.py::test_criterion_12_reproducibility.
_SMALL_SOLVER = {"restarts": 1, "restart_seed": 2}
CRITERION_12 = {
    "grid.csv": {
        "experiment": "phase_grid",
        "field": "real",
        "n": 16,
        "k_list": [2],
        "m_list": [24, 32],
        "trials_per_cell": 3,
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 31,
        "solver": _SMALL_SOLVER,
    },
    "curve.csv": {
        "experiment": "noise_curve",
        "field": "real",
        "n": 16,
        "k_list": [2],
        "m_list": [32],
        "trials_per_cell": 3,
        "epsilon_list": [0.0, 0.05],
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 32,
        "solver": _SMALL_SOLVER,
    },
    "impos.csv": {
        "experiment": "impossibility",
        "field": "real",
        "n": 24,
        "k_list": [2],
        "m_list": [20],
        "trials_per_cell": 1,
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 33,
        "solver": _SMALL_SOLVER,
    },
    "srip.csv": {
        "experiment": "srip",
        "field": "real",
        "n": 20,
        "k_list": [2],
        "m_list": [16],
        "trials_per_cell": 60,
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 34,
    },
    "ripmap.csv": {
        "experiment": "ripmap",
        "field": "complex",
        "n": 12,
        "k_list": [2],
        "m_list": [40],
        "trials_per_cell": 150,
        "bias": {"kind": "complex_gaussian"},
        "master_seed": 35,
    },
    "lemma.json": {
        "experiment": "lemma_suite",
        "field": "real",
        "n": 8,
        "k_list": [2],
        "m_list": [8],
        "trials_per_cell": 300,
        "master_seed": 36,
    },
}

# Grids that reach the random restart chains (restarts > 2), at real m < n
# too, and the complex phase loop, and the complex configs whose inner calls
# run ADMM (m < n, or epsilon > 0); no other config here does.
SOLVER_GRIDS = {
    "real-restarts4.csv": {
        "experiment": "phase_grid",
        "field": "real",
        "n": 32,
        "k_list": [2],
        "m_list": [40, 72],
        "trials_per_cell": 6,
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 41,
        "solver": {"restarts": 4, "restart_seed": 5},
    },
    "real-underdetermined.csv": {
        "experiment": "phase_grid",
        "field": "real",
        "n": 64,
        "k_list": [3],
        "m_list": [30, 40],
        "trials_per_cell": 12,
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 47,
        "solver": {"restarts": 4, "restart_seed": 9},
    },
    "complex-restarts3.csv": {
        "experiment": "phase_grid",
        "field": "complex",
        "n": 32,
        "k_list": [2],
        "m_list": [112],
        "trials_per_cell": 10,
        "bias": {"kind": "complex_gaussian"},
        "master_seed": 42,
        "solver": {"restarts": 3, "restart_seed": 6},
    },
    "complex-underdetermined.csv": {
        "experiment": "phase_grid",
        "field": "complex",
        "n": 32,
        "k_list": [2],
        "m_list": [20, 28],
        "trials_per_cell": 4,
        "bias": {"kind": "complex_gaussian"},
        "master_seed": 45,
        "solver": {"restarts": 2, "restart_seed": 7},
    },
    "complex-curve.csv": {
        "experiment": "noise_curve",
        "field": "complex",
        "n": 32,
        "k_list": [2],
        "m_list": [112],
        "trials_per_cell": 4,
        "epsilon_list": [0.02, 0.08],
        "bias": {"kind": "complex_gaussian"},
        "master_seed": 46,
        "solver": {"restarts": 2, "restart_seed": 8},
    },
}


# Instance files: their bytes hold the seed metadata, and regenerating from
# that metadata reruns the signal, noise and measurement draws.
INSTANCES = {
    "instance-real.json": {
        "experiment": "phase_grid",
        "field": "real",
        "n": 16,
        "k_list": [2],
        "m_list": [24],
        "epsilon_list": [0.05],
        "bias": {"kind": "constant", "c": 1.0},
        "master_seed": 43,
    },
    "instance-complex-intensity.json": {
        "experiment": "phase_grid",
        "field": "complex",
        "n": 16,
        "k_list": [2],
        "m_list": [64],
        "epsilon_list": [0.02],
        "bias": {"kind": "complex_gaussian"},
        "master_seed": 44,
        "solver": {"mode": "intensity"},
    },
}


def fixture(name: str) -> dict:
    with open(os.path.join(ROOT, "tests", "fixtures", "calibration.json"), encoding="utf-8") as fh:
        return json.load(fh)[name]


def criterion_2_cell() -> dict:
    """The m=40 cell of tests/test_acceptance.py::test_criterion_02_real_exact_recovery."""
    fx = fixture("real_exact")
    return {
        "experiment": "phase_grid",
        "field": "real",
        "n": fx["n"],
        "k_list": [fx["k"]],
        "m_list": [40],
        "trials_per_cell": fx["trials"],
        "bias": {"kind": "constant", "c": fx["bias_c"]},
        "master_seed": fx["master_seed"],
        "solver": fx["solver"],
    }


def criterion_4_curve() -> dict:
    """The noise curve of tests/test_acceptance.py::test_criterion_04_noise_stability_shape."""
    fx = fixture("noise_curve")
    return {
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


# Runs in a fresh interpreter with PYTHONPATH set to one tree's src.
# argv: src directory, repository root, output directory, fixed configs,
# instance configs.
# Prints one JSON line: {"digests": {output: sha256}, "flags": {cell: "0110..."}}.
CHILD = r"""
import hashlib, importlib.util, json, os, sys
sys.dont_write_bytecode = True
src, root, out_dir = sys.argv[1], sys.argv[2], sys.argv[3]
jobs, instances = json.loads(sys.argv[4]), json.loads(sys.argv[5])
import affinepr.harness as harness
import affinepr.lemmas as lemmas
from affinepr import regenerate_instance
if not os.path.abspath(harness.__file__).startswith(os.path.abspath(src) + os.sep):
    raise SystemExit(f"imported affinepr from {harness.__file__}, not from {src}")

def load(name):
    path = os.path.join(root, "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

seeds = load("run").SEEDS
workloads = load("workloads")
jobs = list(jobs.items())
for label in ("default", "heldout"):
    configs = workloads.isometry_configs(seeds[label])
    jobs += [(f"isometry-{label}-{i:02d}-{c['experiment']}", c) for i, c in enumerate(configs)]
    configs = workloads.real_grid_configs(seeds[label])
    jobs += [(f"real-grid-{label}-{i}.csv", c) for i, c in enumerate(configs)]

solves = {}  # (kind, m) -> bytes of each solve with m measurements
def recording(solve):
    def wrapped(ensemble, *args, **kwargs):
        rep = solve(ensemble, *args, **kwargs)
        result = (rep.objective, rep.feasibility, rep.restart_index_of_best, rep.termination,
                  rep.trace, rep.clipped_intensities)
        work = (rep.outer_iters, rep.inner_iters_total, rep.burn_in_levels)
        solves.setdefault(("solves", ensemble.m), []).append(
            rep.xhat.tobytes() + repr(result).encode())
        solves.setdefault(("iters", ensemble.m), []).append(repr(work).encode())
        return rep
    return wrapped
estimates = []  # bytes of each srip/ripmap estimate of the current job
def estimating(sample):
    def wrapped(*args, **kwargs):
        est = sample(*args, **kwargs)
        witnesses = [w if isinstance(w, tuple) else (w,) for w in (est.witness_lower, est.witness_upper)]
        estimates.append(repr((est.lower_hat, est.upper_hat, est.samples)).encode()
                         + b"".join(a.tobytes() for pair in witnesses for a in pair))
        return est
    return wrapped
moments = []  # repr of each moment_bound_check result of the current job
def checking(check):
    def wrapped(*args, **kwargs):
        result = check(*args, **kwargs)
        moments.append(repr(result).encode())
        return result
    return wrapped
cells = []  # (m, k, epsilon, flags) of each grid cell the current job runs
def flagging(run_cell):
    def wrapped(config, m, k, epsilon):
        cell, trials = run_cell(config, m, k, epsilon)
        cells.append((m, k, epsilon, "".join("1" if t.success else "0" for t in trials)))
        return cell, trials
    return wrapped
# The harness calls the solvers, the samplers and run_cell through its own
# namespace; the lemma suite imports the lemma checkers on each call.
harness.solve_affine_pr_real = recording(harness.solve_affine_pr_real)
harness.solve_affine_pr_complex = recording(harness.solve_affine_pr_complex)
harness.srip_profile = estimating(harness.srip_profile)
harness.rip_ratio_sample = estimating(harness.rip_ratio_sample)
harness.run_cell = flagging(harness.run_cell)
lemmas.moment_bound_check = checking(lemmas.moment_bound_check)
run = {
    "phase_grid": harness.run_phase_grid,
    "noise_curve": harness.run_noise_curve,
    "impossibility": harness.run_impossibility_demo,
    "srip": harness.run_srip,
    "ripmap": harness.run_ripmap,
    "lemma_suite": harness.run_lemma_suite,
}
digests, flags = {}, {}
for name, cfg in jobs:
    path = os.path.join(out_dir, name)
    config = harness.ExperimentConfig.from_dict(dict(cfg, output_path=path))
    solves.clear()
    estimates.clear()
    moments.clear()
    cells.clear()
    run[config.experiment](config)
    with open(path, "rb") as fh:
        digests[name] = hashlib.sha256(fh.read()).hexdigest()
    if estimates:
        digests[f"{name} estimates"] = hashlib.sha256(b"".join(estimates)).hexdigest()
    if moments:
        digests[f"{name} moments"] = hashlib.sha256(b"\n".join(moments)).hexdigest()
    for kind, m in sorted(solves):
        digests[f"{name} {kind} m={m}"] = hashlib.sha256(b"".join(solves[kind, m])).hexdigest()
    for m, k, epsilon, bits in cells:
        flags[f"{name} m={m} k={k} eps={epsilon!r}"] = bits
for name, cfg in instances.items():
    path = os.path.join(out_dir, name)
    harness.save_instance(path, harness.generate_instance(harness.ExperimentConfig.from_dict(cfg)))
    with open(path, "rb") as fh:
        digests[name] = hashlib.sha256(fh.read()).hexdigest()
    reg = regenerate_instance(harness.load_instance(path).ensemble.seed_meta)
    arrays = (reg.ensemble.A, reg.ensemble.b, reg.x0, reg.w, reg.y, reg.ytilde)
    blob = b"".join(b"-" if a is None else a.tobytes() for a in arrays)
    digests[f"{name} regenerated"] = hashlib.sha256(blob).hexdigest()
print(json.dumps({"digests": digests, "flags": flags}))
"""


def outcomes(src: str) -> dict:
    """Output digests and per-cell success flags of one tree."""
    src = os.path.abspath(src)
    if not os.path.isfile(os.path.join(src, "affinepr", "__init__.py")):
        raise SystemExit(f"no affinepr package under {src}")
    env = dict(os.environ, PYTHONPATH=src)
    jobs = json.dumps(
        CRITERION_12
        | SOLVER_GRIDS
        | {"criterion-2-m40.csv": criterion_2_cell(), "criterion-4-curve.csv": criterion_4_curve()}
    )
    with tempfile.TemporaryDirectory() as out_dir:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, src, ROOT, out_dir, jobs, json.dumps(INSTANCES)],
            cwd=out_dir,
            env=env,
            capture_output=True,
            text=True,
        )
    if proc.returncode != 0:
        raise SystemExit(f"run with {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (outcomes(src) for src in argv)
    differ = 0
    for name in sorted(old["digests"].keys() | new["digests"].keys()):
        a, b = old["digests"].get(name, "-"), new["digests"].get(name, "-")
        same = a == b
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {name:44s} {a}  {b}")
    print(f"{len(old['digests'])} outputs, {differ} differ")
    trials = moved = 0
    for cell in sorted(old["flags"].keys() | new["flags"].keys()):
        a, b = old["flags"].get(cell, ""), new["flags"].get(cell, "")
        trials += max(len(a), len(b))
        if len(a) != len(b):
            moved += max(len(a), len(b))
            print(f"FLAG  {cell}: {len(a)} trials against {len(b)}")
            continue
        for t, (fa, fb) in enumerate(zip(a, b)):
            if fa != fb:
                moved += 1
                print(f"FLAG  {cell} trial {t}: success {fa} -> {fb}")
    print(f"{trials} trial flags, {moved} differ")
    return 1 if differ or moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
