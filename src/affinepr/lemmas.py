"""Constructive oracles and Monte Carlo checkers for the supporting lemmas.

* ``sparse_convex_decompose`` writes any vector with ||v||_inf <= theta and
  ||v||_1 <= k*theta as a convex combination of k-sparse atoms bounded by
  theta in sup norm and by ||v||_1 in l1 norm (Cai & Zhang's sparse
  representation of a polytope), in closed form by systematic sampling.
* ``lifted_distance_check`` evaluates the rank-one lifting inequality
  ||u u^H - v v^H||_F >= ||u|| ||u - v|| / sqrt(2) for phase-aligned pairs.
* ``moment_bound_check`` verifies the two-sided expectation bounds on
  |a^H H a + 2 Re(b a^H h)| for complex Gaussian a by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _checked
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
    weights: list
    atoms: list
    k: int
    theta: float


def check_decomposition(dec: SparseDecomposition, v, k: int, theta: float) -> None:
    """Independent validator for decomposition invariants; raises on failure."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(dec.weights, dtype=np.float64)
    if (w < -1e-15).any() or (w > 1.0 + 1e-12).any():
        raise AssertionError("weights outside [0, 1]")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise AssertionError("weights do not sum to 1")
    l1_v = float(np.abs(v).sum())
    atoms = np.array(dec.atoms, dtype=np.float64, ndmin=2)
    mags = np.abs(atoms)
    if (np.count_nonzero(atoms, axis=1) > k).any():
        raise AssertionError("atom not k-sparse")
    if (mags.max(axis=1, initial=0.0) > _height_cap(theta)).any():
        raise AssertionError("atom exceeds sup-norm budget")
    if (mags.sum(axis=1) > l1_v * (1.0 + 1e-12) + 1e-15).any():
        raise AssertionError("atom exceeds l1 budget")
    recon = np.zeros_like(v)
    for lam, atom in zip(w, atoms):
        recon = recon + lam * atom
    if float(np.abs(recon - v).max(initial=0.0)) > 1e-10:
        raise AssertionError("atoms do not reconstruct v")


def sparse_convex_decompose(v, k: int, theta: float) -> SparseDecomposition:
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
    """
    v = _checked("v", np.asarray(v, dtype=np.float64), (None,))
    if not 0.0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    if k < 1:
        raise ValueError("k must be >= 1")
    mags = np.abs(v)
    l1 = float(mags.sum())
    cap = _height_cap(theta)
    if float(mags.max(initial=0.0)) > cap:
        raise ValueError("precondition ||v||_inf <= theta violated")
    if l1 / k > cap:
        raise ValueError("precondition ||v||_1 <= k*theta violated")
    if np.count_nonzero(v) <= k:
        return SparseDecomposition(weights=[1.0], atoms=[v.copy()], k=k, theta=theta)

    order = (-mags).argsort(kind="stable")
    w = mags[order]
    J = min(math.ceil(l1 / theta), k)
    tails = np.cumsum(w[::-1])[::-1]  # tails[i] = sum of w[i:]
    b = int(np.argmax(w[:J] * (J - np.arange(J)) <= tails[:J]))
    # With b = 0 the height is l1 / J, which the precondition bounds by cap
    # (J < k only when l1 / J <= theta); tails[0] may round above l1.
    h = (l1 if b == 0 else float(tails[b])) / (J - b)
    # Systematic sampling over the remaining entries; the clamps absorb
    # rounding in the cumulative shares.
    ends = np.minimum(np.cumsum(w[b:] / h), J - b)
    ends[-1] = J - b
    starts = np.concatenate(([0.0], ends[:-1]))
    cuts = np.sort(np.append(ends % 1.0, 1.0))  # ends[-1] % 1 == 0 is the left end
    widths = np.diff(cuts)
    seg = widths > 0.0
    t = (cuts[:-1] + 0.5 * widths)[seg][:, None]
    hits = np.minimum(np.ceil(ends - t) - np.ceil(starts - t), 1.0)

    atoms = np.empty((t.shape[0], v.size))
    atoms[:, order[:b]] = w[:b]
    atoms[:, order[b:]] = h * hits
    atoms *= np.where(v < 0, -1.0, 1.0)
    dec = SparseDecomposition(weights=list(widths[seg]), atoms=list(atoms), k=k, theta=theta)
    check_decomposition(dec, v, k, theta)
    return dec


def phase_align(u, v) -> np.ndarray:
    """Rotate v by a global phase so that <u, v> is real and nonnegative."""
    u = np.asarray(u)
    v = np.asarray(v)
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
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError("u and v must have equal length")
    inner = complex(np.vdot(u, v))
    scale = max(1.0, float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    if inner.real < -1e-12 * scale or abs(inner.imag) > 1e-12 * scale:
        raise ValueError("precondition <u, v> >= 0 violated; phase-align first")
    lhs, rhs, holds = batch_lifted_distance_check(u[None], v[None])
    return float(lhs[0]), float(rhs[0]), bool(holds[0])


def batch_lifted_distance_check(U, V) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized lifted_distance_check over rows of pre-aligned U, V."""
    U = np.asarray(U)
    V = np.asarray(V)
    inner = np.sum(np.conj(U) * V, axis=1)
    nu2 = np.sum(np.abs(U) ** 2, axis=1)
    nv2 = np.sum(np.abs(V) ** 2, axis=1)
    lhs = np.sqrt(np.maximum(nu2**2 + nv2**2 - 2.0 * np.abs(inner) ** 2, 0.0))
    rhs = np.sqrt(nu2) * np.sqrt(np.sum(np.abs(U - V) ** 2, axis=1)) / math.sqrt(2.0)
    holds = lhs >= rhs - 1e-9 * np.maximum.reduce([np.ones_like(nu2), nu2, nv2])
    return lhs, rhs, holds


def moment_bounds(H, h, b) -> tuple[float, float]:
    """Closed-form lower/upper bounds on E|a^H H a + 2 Re(b a^H h)|."""
    H = np.asarray(H)
    h = np.asarray(h)
    frob2 = float(np.real(np.sum(np.abs(H) ** 2)))
    hn2 = float(np.real(np.vdot(h, h)))
    b2 = abs(b) ** 2
    lower = math.sqrt(frob2 + b2 * hn2) / 3.0
    upper = 2.0 * math.sqrt(3.0 * frob2 + b2 * hn2)
    return lower, upper


def moment_bound_check(
    H, h, b, samples: int, seed: SeedSpec
) -> tuple[float, float, float, bool]:
    """Monte Carlo estimate of E|a^H H a + 2 Re(b a^H h)| against its bounds.

    ``a`` is a standard complex Gaussian vector (E|a_i|^2 = 1).  Returns
    (mc_mean, lower, upper, holds_ci) where holds_ci allows a 5-sigma
    confidence radius on both sides.  The bias enters through |b|; H must
    be Hermitian with rank <= 2 (third singular value below 1e-8).
    """
    h = _checked("h", np.asarray(h, dtype=np.complex128), (None,))
    n = h.size
    H = _checked("H", np.asarray(H, dtype=np.complex128), (n, n))
    if not math.isfinite(abs(b)):
        raise ValueError("b must be finite")
    if samples < 1000:
        raise ValueError("need at least 1e3 samples")
    if float(np.max(np.abs(H - H.conj().T), initial=0.0)) > 1e-10 * max(
        1.0, float(np.max(np.abs(H), initial=0.0))
    ):
        raise ValueError("H must be Hermitian")
    svals = np.linalg.svd(H, compute_uv=False)
    if n > 2 and svals[2] > 1e-8 * max(1.0, svals[0]):
        raise ValueError("rank(H) must be <= 2")
    babs = abs(b)
    lower, upper = moment_bounds(H, h, babs)

    # Reduce to the eigenbasis of H so each sample costs O(1) after an
    # (samples x 3) Gaussian projection.
    evals, evecs = np.linalg.eigh(H)
    idx = list(np.argsort(-np.abs(evals))[:2])
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
        g = (
            rng.standard_normal((cnt, 3)) + 1j * rng.standard_normal((cnt, 3))
        ) / math.sqrt(2.0)
        xi = (
            lam[0] * np.abs(g[:, 0]) ** 2
            + lam[1] * np.abs(g[:, 1]) ** 2
            + 2.0
            * babs
            * np.real(
                np.conj(g[:, 0]) * h_par[0]
                + np.conj(g[:, 1]) * h_par[1]
                + np.conj(g[:, 2]) * h_perp_norm
            )
        )
        a = np.abs(xi)
        total += float(np.sum(a))
        total_sq += float(np.sum(a**2))
        done += cnt
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    radius = 5.0 * math.sqrt(var / samples)
    holds = (mean + radius >= lower - radius) and (mean - radius <= upper + radius)
    return mean, lower, upper, holds
