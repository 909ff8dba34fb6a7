"""Experiment orchestration, persistence, and CSV/JSON emission.

All experiments are driven by an ``ExperimentConfig`` (JSON-mirrored,
unknown keys rejected) and a master seed.  Per-trial randomness comes from
streams derived as (master_seed, experiment, cell, trial), so results are
byte-reproducible regardless of execution order, and interrupted grid
runs resume from a sidecar file of completed cells.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .model import (
    COMPLEX,
    REAL,
    MeasurementEnsemble,
    ProblemInstance,
    _integer,
    _real,
    array_from_json,
    array_to_json,
    error_metrics,
)
from .rng import SeedSpec, make_ensemble, make_instance, normalize_bias
from .ripcheck import rip_ratio_sample, srip_profile
from .solver import (
    BurnIn,
    SolveReport,
    SolverOptions,
    burn_in_block,
    solve_affine_pr_complex,
    solve_affine_pr_real,
)

EXPERIMENTS = (
    "phase_grid",
    "noise_curve",
    "impossibility",
    "srip",
    "ripmap",
    "lemma_suite",
)
# The experiments that run one (m, k) cell: they read m_list[0] and k_list[0] only.
_SINGLE_CELL = ("noise_curve", "impossibility", "srip", "ripmap")
# The experiments that read no noise level: their epsilon_list must be [0.0].
_NOISELESS = ("impossibility", "srip", "ripmap", "lemma_suite")

# CSV columns of a grid cell after its (m, k) or epsilon; all are keys of cell_to_json.
_CELL_COLUMNS = ("trials", "successes", "wilson_lo", "wilson_hi", "median_err", "median_phase_err")

_SUCCESS_TOL = 1e-5  # success: relative error, or global-phase error / (1 + ||x0||) if complex

# A cell's trials run in blocks of as many as fit in this many matrix entries
# (m n each): 24 at m = 40, 10 at m = 100 and 6 at m = 160 for n = 64.  Each
# block's burn-ins run in lockstep (solver.burn_in_block); larger blocks hold
# more stacked matrices and SVDs at once.
_BLOCK_ENTRIES = 2**16


class InstanceFormatError(ValueError):
    """Raised when a stored instance fails version or checksum validation."""


def _grid_list(name: str, values, check, *bounds) -> tuple:
    """The nonempty list ``values`` as a tuple of ``check(name + " entry", value, *bounds)``."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name} must be a nonempty list, got {values!r}")
    return tuple(check(f"{name} entry", value, *bounds) for value in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's spec, checked once, when it is built (``validate``).

    ``bias`` defaults to None, the field's default spec (``rng.normalize_bias``);
    a built config holds the canonical spec, so a bias spelled ``1``,
    ``{"kind": "constant", "c": 1}`` or left out on the real field loads as
    ``{"kind": "constant", "c": 1.0}``, with one digest.  A single-cell
    experiment (``_SINGLE_CELL``) takes one m and one k, and one that reads
    no noise level (``_NOISELESS``) takes epsilon_list [0.0].
    """

    experiment: str
    field: str = REAL
    n: int = 64
    k_list: tuple = (3,)
    m_list: tuple = (60,)
    trials_per_cell: int = 20
    epsilon_list: tuple = (0.0,)
    bias: dict | None = None
    master_seed: int = 0
    solver: SolverOptions = dc_field(default_factory=SolverOptions)
    output_path: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Check every field and store it in canonical form (grid lists as tuples,
        the bias as ``normalize_bias`` spells it, a file bias as the vector it
        holds).  Idempotent; returns the config."""
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field {self.field!r}")
        if not isinstance(self.solver, SolverOptions):
            raise ValueError("solver must be a SolverOptions")
        if not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
        if self.output_path and not os.path.isdir(os.path.dirname(self.output_path) or "."):
            raise ValueError(f"output_path {self.output_path!r} is in no existing directory")
        put = lambda name, value: object.__setattr__(self, name, value)
        put("n", _integer("n", self.n, 1))
        put("k_list", _grid_list("k_list", self.k_list, _integer, 1, self.n))
        put("m_list", _grid_list("m_list", self.m_list, _integer, 1))
        put("epsilon_list", _grid_list("epsilon_list", self.epsilon_list, _real))
        put("trials_per_cell", _integer("trials_per_cell", self.trials_per_cell, 1))
        put("master_seed", SeedSpec(self.master_seed).master_seed)
        if list(self.epsilon_list) != sorted(self.epsilon_list):
            raise ValueError("epsilon_list must be sorted ascending")
        for name in ("m_list", "k_list"):
            if self.experiment in _SINGLE_CELL and len(getattr(self, name)) > 1:
                raise ValueError(f"{name} of a {self.experiment} experiment must hold one value")
        if self.experiment in _NOISELESS and self.epsilon_list != (0.0,):
            raise ValueError(f"epsilon_list of a {self.experiment} experiment must be [0.0]")
        if isinstance(self.bias, dict) and self.bias.get("kind") == "file":
            # Read once: every trial, and the resume digest, use these values.
            if not isinstance(self.bias.get("path"), str):
                raise ValueError("file bias needs a string 'path'")
            with open(self.bias["path"], "r", encoding="utf-8") as fh:
                put("bias", {"kind": "vector", "values": json.load(fh)})
        for m in self.m_list:
            put("bias", normalize_bias(self.field, self.bias, m))
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("solver"), dict):
            unknown = set(data["solver"]) - {f.name for f in fields(SolverOptions)}
            if unknown:
                raise ValueError(f"unknown solver option keys: {sorted(unknown)}")
            data["solver"] = SolverOptions(**data["solver"])
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def digest(self) -> str:
        """SHA-256 of the config, whose file bias holds its values, not its path."""
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@dataclass
class CellResult:
    m: int
    k: int
    epsilon: float
    success_count: int
    trial_count: int
    median_plain_error: float
    median_global_phase_error: float
    median_objective_gap: float


@dataclass
class TrialResult:
    plain: float
    relative_plain: float
    global_phase: float
    objective_gap: float
    success: bool


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval of a success rate."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(center - half, 0.0), min(center + half, 1.0)


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _instance(config: ExperimentConfig, k: int, m: int, seed: SeedSpec, epsilon: float = 0.0):
    """The instance that a solving experiment of ``config`` draws from ``seed``."""
    return make_instance(
        config.field,
        config.n,
        k,
        m,
        seed,
        bias=config.bias,
        epsilon=epsilon,
        with_intensity=config.solver.mode == "intensity",
    )


def generate_instance(config: ExperimentConfig) -> ProblemInstance:
    """The instance ``affinepr gen`` saves: the first k, m and epsilon of
    ``config``, drawn from the stream (master_seed, "gen")."""
    seed = SeedSpec(config.master_seed, ("gen",))
    return _instance(config, config.k_list[0], config.m_list[0], seed, config.epsilon_list[0])


def _solve_data(inst: ProblemInstance, opts: SolverOptions):
    """The data a solve of ``inst`` reads: its magnitudes ``y``, or its
    intensities ``ytilde`` when ``opts.mode`` is "intensity"."""
    if opts.mode != "intensity":
        return inst.y
    if inst.ytilde is None:
        raise ValueError("intensity mode needs intensities (ytilde); this instance has none")
    return inst.ytilde


def solve_instance(
    inst: ProblemInstance, epsilon: float, opts: SolverOptions, *, burn_in: BurnIn | None = None
) -> SolveReport:
    """Solve ``inst`` with the solver of its field, from ``_solve_data``;
    ``burn_in`` is its ``BurnIn`` from ``solver.burn_in_block``."""
    data = _solve_data(inst, opts)
    if inst.ensemble.field == REAL:
        return solve_affine_pr_real(inst.ensemble, data, epsilon, opts, burn_in=burn_in)
    return solve_affine_pr_complex(inst.ensemble, data, epsilon, opts, burn_in=burn_in)


def _trial_result(config: ExperimentConfig, inst: ProblemInstance, report: SolveReport):
    met = error_metrics(report.xhat, inst.x0)
    gap = report.objective - float(np.sum(np.abs(inst.x0)))
    if config.field == REAL:
        success = met.relative_plain <= _SUCCESS_TOL
    else:
        success = met.global_phase <= _SUCCESS_TOL * (float(np.linalg.norm(inst.x0)) + 1.0)
    return TrialResult(met.plain_l2, met.relative_plain, met.global_phase, gap, success)


def _run_block(config: ExperimentConfig, m: int, k: int, epsilon: float, trials: range) -> list:
    """Results of a block of a cell's trials: one lockstep ``burn_in_block``,
    then one solve per trial with its burn-in handed over."""
    opts = config.solver
    cell = (config.experiment, m, k, repr(float(epsilon)))
    seeds = [SeedSpec(config.master_seed, cell + (t,)) for t in trials]
    insts = [_instance(config, k, m, seed, epsilon) for seed in seeds]
    datas = [_solve_data(inst, opts) for inst in insts]
    burn_ins = burn_in_block([inst.ensemble for inst in insts], datas, epsilon, opts)
    return [
        _trial_result(config, inst, solve_instance(inst, epsilon, opts, burn_in=burn_in))
        for inst, burn_in in zip(insts, burn_ins)
    ]


def run_cell(config: ExperimentConfig, m: int, k: int, epsilon: float) -> tuple[CellResult, list]:
    """The cell's trials, in blocks of ``_BLOCK_ENTRIES`` matrix entries; a
    block's instances, SVDs and burn-ins are released before the next is built."""
    count = config.trials_per_cell
    block = max(1, _BLOCK_ENTRIES // (m * config.n))
    trials = []
    for start in range(0, count, block):
        trials += _run_block(config, m, k, epsilon, range(start, min(start + block, count)))
    cell = CellResult(
        m=m,
        k=k,
        epsilon=epsilon,
        success_count=sum(t.success for t in trials),
        trial_count=len(trials),
        median_plain_error=statistics.median(t.plain for t in trials),
        median_global_phase_error=statistics.median(t.global_phase for t in trials),
        median_objective_gap=statistics.median(t.objective_gap for t in trials),
    )
    return cell, trials


def cell_to_json(cell: CellResult) -> dict:
    """A grid cell as one JSON record, whose keys also name its CSV columns."""
    lo, hi = wilson_interval(cell.success_count, cell.trial_count)
    return {
        "m": cell.m,
        "k": cell.k,
        "epsilon": cell.epsilon,
        "trials": cell.trial_count,
        "successes": cell.success_count,
        "wilson_lo": lo,
        "wilson_hi": hi,
        "median_err": cell.median_plain_error,
        "median_phase_err": cell.median_global_phase_error,
        "median_objective_gap": cell.median_objective_gap,
    }


def _load_resume(path: str, digest: str) -> dict:
    """Cells recorded in the sidecar ``path``; {} if it is absent, corrupt or
    from another config.  Every record is written with its newline, so a last
    line without one was torn by an interrupted write: it is cut from the file
    so the next record starts on a line of its own."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()
        _write_text(path, "".join(lines))
    done = {}
    try:
        if json.loads(lines[0]).get("config_digest") != digest:
            return {}
        for line in lines[1:]:
            rec = json.loads(line)
            done[tuple(rec["key"])] = CellResult(**rec["cell"])
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return {}
    return done


def _run_cells(config: ExperimentConfig, keys: list) -> list:
    """Run (m, k, eps) cells in key order and return them.  With an output
    path each cell is appended to a sidecar as it finishes, so an interrupted
    run resumes from every finished cell; a complete run deletes the sidecar."""
    if not config.output_path:
        return [run_cell(config, *key)[0] for key in keys]
    path = config.output_path + ".partial.jsonl"
    digest = config.digest()
    done = _load_resume(path, digest)
    with open(path, "a" if done else "w", encoding="utf-8") as fh:
        if not done:
            fh.write(json.dumps({"config_digest": digest}) + "\n")
        for key in keys:
            if key not in done:
                done[key] = run_cell(config, *key)[0]
                fh.write(json.dumps({"key": list(key), "cell": asdict(done[key])}) + "\n")
                fh.flush()
    os.remove(path)
    return [done[key] for key in keys]


def run_phase_grid(config: ExperimentConfig, render=None) -> list[CellResult]:
    """Noiseless success-probability grid over (m, k) cells, written to the
    output path as ``render(cells)`` (``phase_grid_csv`` by default)."""
    keys = [(m, k, 0.0) for m in config.m_list for k in config.k_list]
    cells = _run_cells(config, keys)
    if config.output_path:
        _write_text(config.output_path, (render or phase_grid_csv)(cells))
    return cells


def _cells_csv(lead: tuple, cells: list[CellResult]) -> str:
    columns = lead + _CELL_COLUMNS
    rows = [[_fmt(doc[name]) for name in columns] for doc in map(cell_to_json, cells)]
    return _csv(",".join(columns), rows)


def phase_grid_csv(cells: list[CellResult]) -> str:
    return _cells_csv(("m", "k"), cells)


def phase_grid_json(cells: list[CellResult]) -> str:
    return _json_text([cell_to_json(c) for c in cells])


@dataclass
class NoiseCurveResult:
    cells: list
    slope: float
    r_squared: float


def run_noise_curve(config: ExperimentConfig) -> NoiseCurveResult:
    """Median error vs epsilon at fixed (n, k, m), with a through-origin fit."""
    m = config.m_list[0]
    k = config.k_list[0]
    keys = [(m, k, float(e)) for e in config.epsilon_list]
    cells = _run_cells(config, keys)
    eps = np.array([c.epsilon for c in cells])
    err = np.array(
        [
            c.median_plain_error if config.field == REAL else c.median_global_phase_error
            for c in cells
        ]
    )
    denom = float(np.sum(eps**2))
    slope = float(np.sum(eps * err) / denom) if denom > 0 else 0.0
    ss_res = float(np.sum((err - slope * eps) ** 2))
    ss_tot = float(np.sum((err - float(np.mean(err))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if config.output_path:
        _write_text(config.output_path, _cells_csv(("epsilon",), cells))
    return NoiseCurveResult(cells=cells, slope=slope, r_squared=r2)


@dataclass
class ImpossibilityReport:
    r_values: list
    collision_residuals: list
    alias_errors: list
    sparse_errors: list
    z0_norm: float


def run_impossibility_demo(config: ExperimentConfig) -> ImpossibilityReport:
    """Demonstrate that no decoder recovers sparse signals when b = A z0.

    Uses m <= n so the bias lies in the range of A.  For each scale r the
    observation |A (r x0) + b| admits the non-sparse alias -r x0 - 2 z0
    producing identical measurements; the l1 decoder tracks the sparse
    signal, so its distance to the alias grows linearly in r.
    """
    m = config.m_list[0]
    k = config.k_list[0]
    if m > config.n:
        raise ValueError("impossibility demo requires m <= n")
    if config.field != REAL:
        raise ValueError("impossibility demo is a real-field construction")
    inst = _instance(config, k, m, SeedSpec(config.master_seed, ("impossibility", m, k)))
    A, b, x0 = inst.ensemble.A, inst.ensemble.b, inst.x0
    z0, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < m:
        raise ValueError("A is not full row rank")

    r_values = [1.0, 10.0, 100.0, 1000.0]
    collision = []
    alias_err = []
    sparse_err = []
    for r in r_values:
        lhs = np.abs(A @ (r * x0 + 2.0 * z0) - b)
        rhs = np.abs(A @ (r * x0) + b)
        collision.append(float(np.max(np.abs(lhs - rhs))))
        y_r = rhs
        report = solve_affine_pr_real(inst.ensemble, y_r, 0.0, config.solver)
        alias = -r * x0 - 2.0 * z0
        alias_err.append(float(np.linalg.norm(report.xhat - alias)))
        sparse_err.append(float(np.linalg.norm(report.xhat - r * x0)))
    out = ImpossibilityReport(
        r_values=r_values,
        collision_residuals=collision,
        alias_errors=alias_err,
        sparse_errors=sparse_err,
        z0_norm=float(np.linalg.norm(z0)),
    )
    if config.output_path:
        rows = [list(map(_fmt, row)) for row in zip(r_values, collision, alias_err, sparse_err)]
        _write_rows(config.output_path, "r,collision_residual,alias_error,sparse_error", rows)
    return out


def run_srip(config: ExperimentConfig):
    """SRIP profiles for A and the augmented [A b]."""
    m = config.m_list[0]
    k = config.k_list[0]
    seed = SeedSpec(config.master_seed, ("srip", m, k))
    ens = make_ensemble(config.field, m, config.n, seed, bias=config.bias)
    A, b = ens.A, ens.b
    est_a = srip_profile(A, k, config.trials_per_cell, seed.child("profileA"))
    aug = np.column_stack([A, b])
    est_ab = srip_profile(
        aug, k, config.trials_per_cell, seed.child("profileAb"), last_coord_free=True
    )
    if config.output_path:
        rows = [
            [name, str(k), str(est.samples), _fmt(est.lower_hat), _fmt(est.upper_hat)]
            for name, est in (("A", est_a), ("Ab", est_ab))
        ]
        _write_rows(config.output_path, "target,k,trials,lower_hat,upper_hat", rows)
    return est_a, est_ab


def run_ripmap(config: ExperimentConfig):
    """Ratio band of the lifted map over the structured rank-2 class."""
    m = config.m_list[0]
    k = config.k_list[0]
    seed = SeedSpec(config.master_seed, ("ripmap", m, k))
    ens = make_ensemble(config.field, m, config.n, seed, bias=config.bias)
    est = rip_ratio_sample(ens.A, ens.b, k, config.trials_per_cell, seed)
    if config.output_path:
        row = [str(k), str(est.samples), _fmt(est.lower_hat), _fmt(est.upper_hat), _fmt(est.spread)]
        _write_rows(config.output_path, "k,samples,ratio_min,ratio_max,spread", [row])
    return est


def run_lemma_suite(config: ExperimentConfig) -> dict:
    """Randomized sweeps of the three supporting-lemma checkers."""
    from .lemmas import (
        batch_lifted_distance_check,
        moment_bound_check,
        sparse_convex_decompose,
    )

    n = min(config.n, 16)
    count = config.trials_per_cell
    master = SeedSpec(config.master_seed, ("lemma_suite",))

    # Each case draws a dimension, k, theta and a normal row cut to its
    # dimension; the cases of one dimension are decomposed in one batch.
    rng = master.child("decompose").rng()
    dims = rng.integers(1, 33, count)
    ks = rng.integers(1, dims + 1)
    thetas = rng.uniform(0.1, 2.0, count)
    rows = np.clip(rng.standard_normal((count, 32)), -thetas[:, None], thetas[:, None])
    decompose_failures = 0
    for dim in np.unique(dims):
        pick = dims == dim
        k, theta, v = ks[pick], thetas[pick], rows[pick, :dim]
        l1 = np.abs(v).sum(axis=1)
        over = l1 > k * theta
        v[over] *= ((k * theta / l1) * (1.0 - 1e-9))[over, None]
        decompose_failures += sum(map(bool, sparse_convex_decompose(v, k, theta).flaws))

    rng = master.child("lifted").rng()
    u = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    inner = np.sum(np.conj(u) * v, axis=1)
    phases = np.where(np.abs(inner) > 0, np.exp(-1j * np.angle(inner)), 1.0)
    v = v * phases[:, None]
    _, _, holds = batch_lifted_distance_check(u, v)
    lifted_violations = int(np.sum(~holds))

    rng = master.child("moment").rng()
    moment_failures = 0
    moment_cases = max(1, count // 200)
    for i in range(moment_cases):
        dim = int(rng.integers(2, 13))
        q, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
        lam = rng.standard_normal(2)
        H = lam[0] * np.outer(q[:, 0], q[:, 0].conj()) + lam[1] * np.outer(q[:, 1], q[:, 1].conj())
        h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        bb = complex(rng.standard_normal() + 1j * rng.standard_normal())
        _, _, _, ok = moment_bound_check(H, h, bb, 100_000, master.child("momentmc", i))
        if not ok:
            moment_failures += 1

    summary = {
        "decompose_checked": count,
        "decompose_failures": decompose_failures,
        "lifted_checked": count,
        "lifted_violations": lifted_violations,
        "moment_checked": moment_cases,
        "moment_failures": moment_failures,
    }
    if config.output_path:
        write_json(summary, config.output_path)
    return summary


def _write_text(path: str, text: str) -> None:
    """Replace ``path`` atomically: readers see the old file or the new one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(obj, path: str = "") -> None:
    """Write ``obj`` as sorted, indented JSON to ``path``, or to stdout if it is empty."""
    text = _json_text(obj)
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _csv(header: str, rows: list) -> str:
    return "".join(line + "\n" for line in [header, *map(",".join, rows)])


def _write_rows(path: str, header: str, rows: list) -> None:
    _write_text(path, _csv(header, rows))


FORMAT_NAME = "affinepr-instance"
FORMAT_VERSION = 1


def save_instance(path: str, inst: ProblemInstance) -> None:
    """Write a checksummed, versioned, lossless JSON snapshot of an instance."""
    payload = {
        "field": inst.ensemble.field,
        "A": array_to_json(inst.ensemble.A),
        "b": array_to_json(inst.ensemble.b),
        "seed_meta": inst.ensemble.seed_meta,
        "x0": array_to_json(inst.x0),
        "w": array_to_json(inst.w),
        "y": array_to_json(inst.y),
        "ytilde": None if inst.ytilde is None else array_to_json(inst.ytilde),
        "k": inst.k,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    _write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_instance(path: str) -> ProblemInstance:
    """Load and verify an instance written by ``save_instance``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise InstanceFormatError(f"corrupt instance file: {exc}") from exc
    if doc.get("format") != FORMAT_NAME:
        raise InstanceFormatError("not an instance file")
    if doc.get("version") != FORMAT_VERSION:
        raise InstanceFormatError(f"unsupported version {doc.get('version')!r}")
    payload = doc.get("payload")
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != doc.get("sha256"):
        raise InstanceFormatError("checksum mismatch")
    ens = MeasurementEnsemble(
        field=payload["field"],
        A=array_from_json(payload["A"]),
        b=array_from_json(payload["b"]),
        seed_meta=payload["seed_meta"],
    )
    return ProblemInstance(
        ensemble=ens,
        x0=array_from_json(payload["x0"]),
        w=array_from_json(payload["w"]),
        y=array_from_json(payload["y"]),
        k=payload["k"],
        ytilde=None if payload["ytilde"] is None else array_from_json(payload["ytilde"]),
    )
