"""Constructive oracles and Monte Carlo checkers for the supporting lemmas.

* ``sparse_convex_decompose`` writes any vector with ||v||_inf <= theta and
  ||v||_1 <= k*theta as a convex combination of k-sparse atoms bounded by
  theta in sup norm and by ||v||_1 in l1 norm (Cai & Zhang's sparse
  representation of a polytope), in closed form by systematic sampling.
  It decomposes a batch of vectors of one length in one pass of array
  operations; a single vector is the batch of its one row.
* ``lifted_distance_check`` evaluates the rank-one lifting inequality
  ||u u^H - v v^H||_F >= ||u|| ||u - v|| / sqrt(2) for phase-aligned pairs.
* ``moment_bound_check`` verifies the two-sided expectation bounds on
  |a^H H a + 2 Re(b a^H h)| for complex Gaussian a by Monte Carlo, drawing
  the real and imaginary parts of a's projections as two real arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import _checked, _integer
from .rng import SeedSpec


def _height_cap(theta: float) -> float:
    """The largest entry a vector or atom may hold under the budget theta.

    The 1e-12 collar absorbs rounding.  The precondition bounds both
    ||v||_inf and ||v||_1 / k by this one float, and the validator bounds
    every atom entry by it, so any admissible v has atoms that pass.
    """
    return theta * (1.0 + 1e-12)


@dataclass
class SparseDecomposition:
    """Convex weights and the atoms (rows of ``atoms``) they combine.  A
    batch has a leading row axis, pads each row with zero weights and zero
    atoms, and gives row i's verdict ('' if it is valid) in ``flaws[i]``."""

    weights: np.ndarray
    atoms: np.ndarray
    k: object
    theta: object
    flaws: list = field(default_factory=list)


def _flaws(weights, atoms, V, k, theta) -> list:
    """Per row, the first invariant that row's decomposition breaks, or ''."""
    mags = np.abs(atoms)
    cap = _height_cap(theta)[:, None]
    l1_cap = (np.abs(V).sum(axis=1) * (1.0 + 1e-12) + 1e-15)[:, None]
    recon = np.matmul(weights[:, None, :], atoms)[:, 0]
    broken = {
        "weights outside [0, 1]": ((weights < -1e-15) | (weights > 1.0 + 1e-12)).any(axis=1),
        "weights do not sum to 1": np.abs(weights.sum(axis=1) - 1.0) > 1e-12,
        "atom not k-sparse": (np.count_nonzero(atoms, axis=2) > k[:, None]).any(axis=1),
        "atom exceeds sup-norm budget": (mags.max(axis=2, initial=0.0) > cap).any(axis=1),
        "atom exceeds l1 budget": (mags.sum(axis=2) > l1_cap).any(axis=1),
        "atoms do not reconstruct v": np.abs(recon - V).max(axis=1, initial=0.0) > 1e-10,
    }
    return [next((flaw for flaw, rows in broken.items() if rows[i]), "") for i in range(len(V))]


def check_decomposition(dec: SparseDecomposition, v, k: int, theta: float) -> None:
    """Independent validator for decomposition invariants; raises on failure."""
    weights = np.array(dec.weights, dtype=np.float64, ndmin=2)
    atoms = np.array(dec.atoms, dtype=np.float64, ndmin=3)
    V = np.array(v, dtype=np.float64, ndmin=2)
    flaw = _flaws(weights, atoms, V, np.array([k]), np.array([theta]))[0]
    if flaw:
        raise AssertionError(flaw)


def _sample_atoms(V, k, theta):
    """Weights (rows, dim) and atoms (rows, dim, dim) of rows with more than k
    nonzeros by ``sparse_convex_decompose``'s closed form, each row's J, b, h
    and ends as arrays; the entries before b have ends 0, and the segments
    of zero width get zero weight and zero atoms."""
    rows, dim = V.shape
    mags = np.abs(V)
    l1 = mags.sum(axis=1)
    order = (-mags).argsort(axis=1, kind="stable")
    w = np.take_along_axis(mags, order, axis=1)
    J = np.minimum(np.ceil(l1 / theta).astype(np.int64), k)
    idx = np.arange(dim)
    tails = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]  # tails[:, i] = sum of w[:, i:]
    b = ((w * (J[:, None] - idx) <= tails) & (idx < J[:, None])).argmax(axis=1)
    # With b = 0 the height is l1 / J, which the precondition bounds by cap
    # (J < k only when l1 / J <= theta); tails[:, 0] may round above l1.
    h = np.where(b == 0, l1, tails[np.arange(rows), b]) / (J - b)
    # Systematic sampling over the entries from b on; the clamps absorb
    # rounding in the cumulative shares.
    sampled = idx >= b[:, None]
    ends = np.minimum(np.cumsum(np.where(sampled, w / h[:, None], 0.0), axis=1), (J - b)[:, None])
    ends[:, -1] = J - b
    starts = np.concatenate([np.zeros((rows, 1)), ends[:, :-1]], axis=1)
    # ends[:, -1] % 1 == 0 is the left end.
    cuts = np.sort(np.concatenate([ends % 1.0, np.ones((rows, 1))], axis=1), axis=1)
    widths = np.diff(cuts, axis=1)
    t = (cuts[:, :-1] + 0.5 * widths)[:, :, None]
    hits = np.minimum(np.ceil(ends[:, None] - t) - np.ceil(starts[:, None] - t), 1.0)
    sized = np.where(sampled[:, None], h[:, None, None] * hits, w[:, None])
    sized = np.where((widths > 0.0)[:, :, None], sized, 0.0)
    atoms = np.take_along_axis(sized, order.argsort(axis=1)[:, None], axis=2)
    return np.where(widths > 0.0, widths, 0.0), atoms * np.where(V < 0, -1.0, 1.0)[:, None]


def sparse_convex_decompose(v, k, theta) -> SparseDecomposition:
    """Decompose v into a convex combination of k-sparse bounded atoms.

    Requires ||v||_inf <= theta and ||v||_1 <= k*theta.  A v with at most k
    nonzeros is its own single atom.  Otherwise, with w = |v| sorted in
    descending order, L = ||v||_1 and J = min(ceil(L/theta), k), let b be the
    least index with w_(b+1) * (J - b) <= sum_{i>b} w_(i) (b = J - 1 always
    qualifies).  Every atom keeps the b largest entries and puts J - b of the
    others at the common height h = sum_{i>b} w_(i) / (J - b); the choice of
    b gives w_(b+1) <= h < w_(b), and h = L/J <= theta when b = 0.  So each
    atom is J-sparse with l1 norm L and the signs of v.  Which J - b
    entries an atom takes is systematic sampling (Madow 1949): the shares
    w_i / h <= 1 lie end to end on [0, J - b), and for t in [0, 1) the atom
    takes the entries whose interval holds a point of t + Z.  The atom
    weights are the lengths of the t-intervals on which that set is
    constant, so there are at most nnz(v) atoms.

    A batch decomposes the rows of a v of shape (rows, dim), with k and
    theta of shape (rows,), and records each row's verdict in ``flaws``; a
    single v is the batch of its one row, returns its atoms only, and
    raises AssertionError if the validator rejects them.
    """
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or (k < 1).any():
        raise ValueError(f"k must be an integer >= 1, got {k.tolist()!r}")
    V = _checked("v", np.asarray(v, dtype=np.float64), k.shape + (None,))
    theta = _checked("theta", np.asarray(theta, dtype=np.float64), k.shape)
    if not (theta > 0.0).all():
        raise ValueError("theta must be positive")
    single = V.ndim == 1
    V, k, theta = np.atleast_2d(V), np.atleast_1d(k), np.atleast_1d(theta)
    mags = np.abs(V)
    cap = _height_cap(theta)
    if (mags.max(axis=1, initial=0.0) > cap).any():
        raise ValueError("precondition ||v||_inf <= theta violated")
    if (mags.sum(axis=1) / k > cap).any():
        raise ValueError("precondition ||v||_1 <= k*theta violated")

    rows, dim = V.shape
    weights = np.zeros((rows, max(dim, 1)))
    atoms = np.zeros((rows, max(dim, 1), dim))
    weights[:, 0], atoms[:, 0] = 1.0, V
    dense = np.count_nonzero(V, axis=1) > k
    if dense.any():
        weights[dense], atoms[dense] = _sample_atoms(V[dense], k[dense], theta[dense])
    if not single:
        return SparseDecomposition(weights, atoms, k, theta, _flaws(weights, atoms, V, k, theta))
    keep = weights[0] > 0.0
    dec = SparseDecomposition(weights[0][keep], atoms[0][keep], int(k[0]), float(theta[0]))
    check_decomposition(dec, V[0], dec.k, dec.theta)
    return dec


def phase_align(u, v) -> np.ndarray:
    """Rotate v by a global phase so that <u, v> is real and nonnegative."""
    u = _checked("u", u, (None,))
    v = _checked("v", v, u.shape)
    inner = complex(np.vdot(u, v))
    if inner == 0:
        return v.copy()
    if not (np.iscomplexobj(u) or np.iscomplexobj(v)):
        return v.copy() if inner.real > 0 else -v
    return v * np.exp(-1j * np.angle(inner))


def lifted_distance_check(u, v) -> tuple[float, float, bool]:
    """Both sides of ||u u^H - v v^H||_F >= ||u|| ||u - v|| / sqrt(2).

    Requires <u, v> real nonnegative (use ``phase_align`` first).  The left
    side uses the closed form ||u||^4 + ||v||^4 - 2|<u,v>|^2, avoiding the
    n x n outer products.
    """
    u = _checked("u", u, (None,))
    v = _checked("v", v, u.shape)
    lhs, rhs, holds = batch_lifted_distance_check(u[None], v[None])
    return float(lhs[0]), float(rhs[0]), bool(holds[0])


def batch_lifted_distance_check(U, V) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized lifted_distance_check over rows of U, V, each pair phase-aligned."""
    U = _checked("U", U, (None, None))
    V = _checked("V", V, U.shape)
    inner = np.sum(np.conj(U) * V, axis=1)
    nu2 = np.sum(np.abs(U) ** 2, axis=1)
    nv2 = np.sum(np.abs(V) ** 2, axis=1)
    collar = 1e-12 * np.maximum(1.0, np.sqrt(nu2 * nv2))
    if ((inner.real < -collar) | (np.abs(inner.imag) > collar)).any():
        raise ValueError("precondition <u, v> >= 0 violated; phase-align first")
    lhs = np.sqrt(np.maximum(nu2**2 + nv2**2 - 2.0 * np.abs(inner) ** 2, 0.0))
    rhs = np.sqrt(nu2) * np.sqrt(np.sum(np.abs(U - V) ** 2, axis=1)) / math.sqrt(2.0)
    holds = lhs >= rhs - 1e-9 * np.maximum.reduce([np.ones_like(nu2), nu2, nv2])
    return lhs, rhs, holds


def moment_bounds(H, h, b) -> tuple[float, float]:
    """Closed-form lower/upper bounds on E|a^H H a + 2 Re(b a^H h)|."""
    h = _checked("h", h, (None,))
    H = _checked("H", H, (h.size, h.size))
    if not math.isfinite(abs(b)):
        raise ValueError("b must be finite")
    frob2 = float(np.real(np.sum(np.abs(H) ** 2)))
    hn2 = float(np.real(np.vdot(h, h)))
    b2 = abs(b) ** 2
    lower = math.sqrt(frob2 + b2 * hn2) / 3.0
    upper = 2.0 * math.sqrt(3.0 * frob2 + b2 * hn2)
    return lower, upper


def _moment_samples(re, im, lam, h_par, h_perp_norm, babs) -> np.ndarray:
    """xi = lam_0 |g_0|^2 + lam_1 |g_1|^2 + 2|b| Re(conj(g) . (h_par, ||h_perp||))
    for g = (re + i im) / sqrt(2), row by row, in real arithmetic:
    |g|^2 = (re^2 + im^2) / 2 and Re(conj(g) c) = (re Re c + im Im c) / sqrt(2)."""
    quad = (re[:, :2] ** 2 + im[:, :2] ** 2) @ np.array(lam) / 2.0
    cross = re @ np.array([h_par[0].real, h_par[1].real, h_perp_norm])
    cross += im[:, :2] @ np.array([h_par[0].imag, h_par[1].imag])
    return quad + (2.0 * babs / math.sqrt(2.0)) * cross


def moment_bound_check(
    H, h, b, samples: int, seed: SeedSpec
) -> tuple[float, float, float, bool]:
    """Monte Carlo estimate of E|a^H H a + 2 Re(b a^H h)| against its bounds.

    ``a`` is a standard complex Gaussian vector (E|a_i|^2 = 1).  Returns
    (mc_mean, lower, upper, holds_ci) where holds_ci allows a 5-sigma
    confidence radius on both sides.  The bias enters through |b|; H must be
    Hermitian with rank <= 2 (third |eigenvalue| at most 1e-8 max(1, |largest|)).
    """
    h = np.asarray(h, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    lower, upper = moment_bounds(H, h, b)
    samples = _integer("samples", samples, 1000)
    if float(np.max(np.abs(H - H.conj().T), initial=0.0)) > 1e-10 * max(
        1.0, float(np.max(np.abs(H), initial=0.0))
    ):
        raise ValueError("H must be Hermitian")
    babs = abs(b)

    # Reduce to the eigenbasis of H so each sample costs O(1) after an
    # (samples x 3) Gaussian projection.
    evals, evecs = np.linalg.eigh(H)
    order = np.argsort(-np.abs(evals))
    if order.size > 2 and abs(evals[order[2]]) > 1e-8 * max(1.0, abs(evals[order[0]])):
        raise ValueError("rank(H) must be <= 2")
    idx = list(order[:2])
    lam = [float(evals[i]) for i in idx] + [0.0] * (2 - len(idx))
    basis = [evecs[:, i] for i in idx]
    h_par = [complex(np.vdot(u, h)) for u in basis] + [0j] * (2 - len(idx))
    h_perp = h - sum(c * u for c, u in zip(h_par, basis))
    h_perp_norm = float(np.linalg.norm(h_perp))

    rng = seed.rng()
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 200_000
    while done < samples:
        cnt = min(chunk, samples - done)
        re, im = rng.standard_normal((cnt, 3)), rng.standard_normal((cnt, 3))
        xi = _moment_samples(re, im, lam, h_par, h_perp_norm, babs)
        total += float(np.abs(xi).sum())
        total_sq += float(xi @ xi)
        done += cnt
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    radius = 5.0 * math.sqrt(var / samples)
    holds = (mean + radius >= lower - radius) and (mean - radius <= upper + radius)
    return mean, lower, upper, holds
