"""Domain types, the forward magnitude measurement operator, and error metrics.

The measurement model observed throughout the package is

    y_j = |<a_j, x> + b_j| + w_j,

where ``<a_j, x>`` is conjugate-linear in ``a_j``.  An ensemble stores the
matrix ``A`` whose j-th row applied to ``x`` yields that inner product, so
``y = |A @ x + b| + w`` elementwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

REAL = "real"
COMPLEX = "complex"

_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}

_MASK64 = (1 << 64) - 1  # the largest seed: seeds are unsigned 64-bit integers


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _checked(name: str, arr, shape: tuple) -> np.ndarray:
    """``arr`` as an array of ``shape`` (``None`` matches any length), all finite."""
    arr = np.asarray(arr)
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high]: an integer, numpy's too, but not a bool."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, >= 0 (> 0 if ``positive``): a real number, not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return float(value)


def array_to_json(arr) -> list | dict:
    """JSON form of an array: nested lists, or {"re": ..., "im": ...} if complex."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
    return arr.tolist()


def array_from_json(payload) -> np.ndarray:
    """The array that ``array_to_json`` encoded as ``payload``."""
    if isinstance(payload, dict):
        return np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    return np.asarray(payload)


def _cast(name: str, arr, field: str, shape: tuple) -> np.ndarray:
    """``arr`` in the dtype of ``field`` (complex refused on the real one), as ``_checked``."""
    if field not in _DTYPES:
        raise ValueError(f"unknown field {field!r}")
    arr = np.asarray(arr)
    if field == REAL and np.iscomplexobj(arr):
        raise ValueError(f"{name} is complex, but must be real")
    return _checked(name, np.asarray(arr, dtype=_DTYPES[field]), shape)


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Measurement matrix A (m x n), bias vector b (m), and provenance.

    ``seed_meta`` records the generator name and seed material needed to
    rebuild the ensemble (and, for full instances, the signal and noise).
    """

    field: str
    A: np.ndarray
    b: np.ndarray
    seed_meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        A = _cast("A", self.A, self.field, (None, None))
        b = _cast("b", self.b, self.field, (A.shape[0],))
        if min(A.shape) < 1:
            raise ValueError("m and n must be at least 1")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class ProblemInstance:
    """A generated recovery problem: ensemble, truth, noise, observations."""

    ensemble: MeasurementEnsemble
    x0: np.ndarray
    w: np.ndarray
    y: np.ndarray
    k: int
    ytilde: np.ndarray | None = None

    def __post_init__(self):
        ens = self.ensemble
        arrays = {"x0": (ens.field, ens.n), "w": (REAL, ens.m), "y": (REAL, ens.m)}
        if self.ytilde is not None:
            arrays["ytilde"] = (REAL, ens.m)
        for key, (field, size) in arrays.items():
            object.__setattr__(self, key, _freeze(_cast(key, getattr(self, key), field, (size,))))
        object.__setattr__(self, "k", _integer("k", self.k, 0, ens.n))


@dataclass(frozen=True)
class ErrorMetrics:
    plain_l2: float
    sign_folded: float
    global_phase: float
    relative_plain: float


def forward_model(ensemble: MeasurementEnsemble, x, w=None) -> np.ndarray:
    """Magnitude measurements y_j = |<a_j, x> + b_j| + w_j."""
    mags = np.abs(ensemble.A @ _cast("x", x, ensemble.field, (ensemble.n,)) + ensemble.b)
    return mags if w is None else mags + _cast("w", w, REAL, (ensemble.m,))


def lifted_intensity(ensemble: MeasurementEnsemble, x) -> np.ndarray:
    """Intensity measurements |<a_j, x> + b_j|^2 (the rank-one lifted map)."""
    return forward_model(ensemble, x) ** 2


def bias_band(b, fraction: float = 0.5) -> tuple[float, float]:
    """Exact (min, max) of ||b_I||_2 over index sets with |I| >= fraction*m.

    Terms |b_j|^2 are nonnegative, so the max takes every index and the min
    keeps only the ceil(fraction*m) smallest.
    """
    b = np.asarray(b)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("b must be a nonempty vector")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    sq = np.sort(np.abs(b) ** 2)
    keep = math.ceil(fraction * b.size)
    alpha_hat = math.sqrt(float(np.sum(sq[:keep])))
    beta_hat = math.sqrt(float(np.sum(sq)))
    return alpha_hat, beta_hat


def best_k_term_error(x, k: int, p: int = 1) -> float:
    """l_p norm of x with its k largest-magnitude entries zeroed.

    Magnitude ties are broken by retaining the lowest index.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("x must be 1-d")
    k = _integer("k", k, 0, x.size)
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    order = np.argsort(-np.abs(x), kind="stable")
    tail = np.abs(x[order[k:]])
    if p == 1:
        return float(np.sum(tail))
    return float(np.sqrt(np.sum(tail**2)))


def _phase_objective(theta, nx2, n02, s):
    # f(theta) = ||xhat - e^{i theta} x0|| + |1 - e^{i theta}|
    cross = np.real(np.exp(-1j * theta) * s)
    d2 = np.maximum(nx2 + n02 - 2.0 * cross, 0.0)
    return np.sqrt(d2) + 2.0 * np.abs(np.sin(theta / 2.0))


def _golden_min(f, lo, hi):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def global_phase_error(xhat, x0) -> float:
    """min over theta of ||xhat - e^{i theta} x0||_2 + |1 - e^{i theta}|.

    Coarse grid over [0, 2pi) followed by golden-section refinement around
    the best grid point.  Real inputs restrict theta to {0, pi}.
    """
    xhat = np.asarray(xhat)
    x0 = np.asarray(x0)
    if not (np.iscomplexobj(xhat) or np.iscomplexobj(x0)):
        f0 = float(np.linalg.norm(xhat - x0))
        fpi = float(np.linalg.norm(xhat + x0)) + 2.0
        return min(f0, fpi)
    xhat = xhat.astype(np.complex128, copy=False)
    x0 = x0.astype(np.complex128, copy=False)
    nx2 = float(np.real(np.vdot(xhat, xhat)))
    n02 = float(np.real(np.vdot(x0, x0)))
    s = complex(np.vdot(x0, xhat))
    grid = 2048
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = _phase_objective(thetas, nx2, n02, s)
    i = int(np.argmin(vals))
    step = 2.0 * np.pi / grid
    f = lambda t: float(_phase_objective(np.asarray(t), nx2, n02, s))
    t = _golden_min(f, thetas[i] - step, thetas[i] + step)
    return min(float(vals[i]), f(t))


def error_metrics(xhat, x0) -> ErrorMetrics:
    """All error notions used by the experiments, recomputed from scratch."""
    xhat = np.asarray(xhat)
    x0 = np.asarray(x0)
    if xhat.shape != x0.shape:
        raise ValueError("xhat and x0 must have equal length")
    if np.iscomplexobj(xhat) != np.iscomplexobj(x0):
        raise ValueError("xhat and x0 must live in the same field")
    plain = float(np.linalg.norm(xhat - x0))
    folded = min(plain, float(np.linalg.norm(xhat + x0)))
    gphase = global_phase_error(xhat, x0)
    n0 = float(np.linalg.norm(x0))
    rel = plain / n0 if n0 > 0 else plain
    return ErrorMetrics(
        plain_l2=plain,
        sign_folded=folded,
        global_phase=gphase,
        relative_plain=rel,
    )
