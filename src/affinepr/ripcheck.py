"""Empirical verification of the isometry hypotheses.

Covers three objects:
  * strong-RIP extremes of a matrix A over row subsets with |I| >= m/2,
    for a fixed vector (exact) and profiled over random sparse vectors;
  * the lifted linear map H' -> (a_j^H H a_j + 2 Re(conj(b_j) a_j^H h))_j
    on augmented Hermitian matrices, and the l1/Frobenius ratio band it
    attains on the structured rank-2 row-sparse class;
  * the exact cross-term supremum sup { sum_j b_j <a_j, x> : ||x||=1,
    ||x||_0 <= k }.

Estimates are reported as observed extremes with reproducible witnesses,
never as certified bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import _checked
from .rng import SeedSpec, _splitmix64

# Trials whose ratios are evaluated together: enough to keep BLAS busy
# between Python draws, few enough that a block's products (3 x 64 x m
# complex) stay near a megabyte.
_BLOCK = 64


@dataclass
class RipEstimate:
    lower_hat: float
    upper_hat: float
    samples: int
    witness_lower: object
    witness_upper: object
    config: dict = dc_field(default_factory=dict)

    @property
    def spread(self) -> float:
        """upper_hat / lower_hat, infinite when lower_hat is 0."""
        return self.upper_hat / self.lower_hat if self.lower_hat > 0 else math.inf


def _trial_seeds(seed: SeedSpec, label: str, trials: int):
    """The derived seeds of ``seed.child(label, t)`` for t = 0, 1, ...

    ``SeedSpec.derive`` mixes each label into the state with one splitmix64
    step, so the shared prefix is derived once and each trial costs one step.
    """
    state = seed.child(label).derive()
    return (_splitmix64(state ^ t) for t in range(trials))


def srip_extremes_for_x(A, x) -> tuple[float, float]:
    """Exact (min, max) of ||A_I x||^2 / ||x||^2 over subsets |I| >= m/2.

    The squared row responses are nonnegative, so the max takes every row
    and the min keeps the ceil(m/2) smallest.
    """
    A = _checked("A", A, (None, None))
    x = _checked("x", x, (A.shape[1],))
    if float(np.real(np.vdot(x, x))) == 0.0:
        raise ValueError("x must be nonzero")
    return _sparse_extremes(A, slice(None), x, math.ceil(A.shape[0] / 2))


def _sparse_extremes(A, support, values, keep):
    sq = np.abs(A[:, support] @ values) ** 2
    nx2 = float(np.vdot(values, values).real)
    part = np.partition(sq, keep - 1)
    return float(part[:keep].sum()) / nx2, float(sq.sum()) / nx2


def srip_profile(
    A,
    k: int,
    trials: int,
    seed: SeedSpec,
    last_coord_free: bool = False,
    refine_swaps: int = 50,
) -> RipEstimate:
    """Monte Carlo profile of the strong-RIP extremes over unit k-sparse x.

    Each trial draws a Gaussian-amplitude k-sparse vector and then greedily
    tries coordinate swaps (up to ``refine_swaps``, split between pushing
    the lower extreme down and the upper extreme up).  A swap moves one
    support position to a coordinate drawn uniformly from the ``head - k``
    coordinates outside the support.  With ``last_coord_free`` the final
    coordinate is always active on top of the k-sparse head, matching
    augmented matrices [A b] whose appended coordinate is unrestricted.

    Per-trial streams are derived from ``seed`` (trial t reads the stream of
    ``seed.child("srip", t)``), so extending ``trials`` under the same seed
    only adds samples: the lower estimate is nonincreasing and the upper
    nondecreasing in ``trials``.
    """
    A = _checked("A", A, (None, None))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if refine_swaps < 0:
        raise ValueError("refine_swaps must be >= 0")
    m, n = A.shape
    head = n - 1 if last_coord_free else n
    if not 1 <= k <= head:
        raise ValueError(f"need 1 <= k <= {head}, got k={k}")
    keep = math.ceil(m / 2)
    complex_field = np.iscomplexobj(A)
    # The head part of a support always holds k distinct coordinates.
    free = head - k

    best_low = math.inf
    best_high = -math.inf
    wit_low = wit_high = None

    def draw_values(rng, size):
        if complex_field:
            return rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return rng.standard_normal(size)

    for trial_seed in _trial_seeds(seed, "srip", trials):
        rng = np.random.default_rng(trial_seed)
        base_support = np.sort(rng.choice(head, size=k, replace=False))
        if last_coord_free:
            base_support = np.append(base_support, head)
        base_values = draw_values(rng, base_support.size)

        for lower in (True, False):
            side = 0 if lower else 1
            support, values = base_support, base_values
            score = _sparse_extremes(A, support, values, keep)[side]
            for _ in range(refine_swaps // 2):
                swap_pos = int(rng.integers(0, k))
                if free == 0:
                    break
                # The r-th coordinate outside the support, counting upwards.
                new_idx = int(rng.integers(0, free))
                for taken in sorted(support[:k].tolist()):
                    if taken > new_idx:
                        break
                    new_idx += 1
                trial_support = support.copy()
                trial_support[swap_pos] = new_idx
                trial_values = values.copy()
                trial_values[swap_pos] = draw_values(rng, 1)[0]
                cand = _sparse_extremes(A, trial_support, trial_values, keep)[side]
                if (cand < score) if lower else (cand > score):
                    support, values, score = trial_support, trial_values, cand
            if (score < best_low) if lower else (score > best_high):
                vec = np.zeros(n, dtype=A.dtype)
                vec[support] = values
                if lower:
                    best_low, wit_low = score, vec / np.linalg.norm(vec)
                else:
                    best_high, wit_high = score, vec / np.linalg.norm(vec)

    return RipEstimate(
        lower_hat=best_low,
        upper_hat=best_high,
        samples=trials,
        witness_lower=wit_low,
        witness_upper=wit_high,
        config={
            "k": k,
            "subset_fraction": 0.5,
            "last_coord_free": last_coord_free,
            "refine_swaps": refine_swaps,
        },
    )


def lifted_map_apply(A, b, H, h) -> np.ndarray:
    """Entries of the lifted map on H' = [[H, h], [h^H, 0]].

    Returns (a_j^H H a_j + 2 Re(conj(b_j) (a_j^H h)))_j, where row j of A
    is a_j^H.  The bias enters conjugated so that the rank-one case
    H = x x^H, h = x reproduces |<a_j, x> + b_j|^2 - |b_j|^2 for every
    complex bias, consistent with the forward model.
    """
    A = _checked("A", A, (None, None))
    m, n = A.shape
    b = _checked("b", b, (m,))
    H = _checked("H", H, (n, n))
    h = _checked("h", h, (n,))
    scale = max(1.0, float(np.max(np.abs(H))) if H.size else 0.0)
    if float(np.max(np.abs(H - H.conj().T))) > 1e-12 * scale:
        raise ValueError("H must be Hermitian")
    quad = np.einsum("ij,jk,ik->i", A, H, A.conj())
    cross = 2.0 * np.real(np.conj(b) * (A @ h))
    out = quad + cross
    if np.iscomplexobj(out):
        if float(np.max(np.abs(out.imag))) > 1e-10 * max(1.0, float(np.max(np.abs(out)))):
            raise ValueError("lifted map produced non-real output on Hermitian input")
        out = out.real
    return np.asarray(out, dtype=np.float64)


def _ratios(A, conj_b, X, Z):
    """l1/Frobenius ratios and ||H'||_F for the rows of X and Z.

    Row i gives H = x x^H - z z^H and h = x - z with x = X[i], z = Z[i].
    The stacked matmul runs one gemv per row, the same call as ``A @ x``, and
    the inner products are per-row vdots, so each row's ratio is bit-for-bit
    what the pair alone would give, whatever block it is evaluated in.
    """
    Hm = X - Z
    ax, az, ah = (np.matmul(A, V[:, :, None])[:, :, 0] for V in (X, Z, Hm))
    vals = np.abs(ax) ** 2 - np.abs(az) ** 2 + 2.0 * np.real(conj_b * ah)
    frob2 = np.empty(X.shape[0])
    for i, (x, z, h) in enumerate(zip(X, Z, Hm)):
        xx = float(np.real(np.vdot(x, x)))
        zz = float(np.real(np.vdot(z, z)))
        xz = abs(complex(np.vdot(x, z))) ** 2
        frob2[i] = xx**2 + zz**2 - 2.0 * xz + 2.0 * float(np.real(np.vdot(h, h)))
    frob = np.sqrt(np.maximum(frob2, 0.0))
    l1 = np.abs(vals).sum(axis=1)
    ratio = np.divide(l1, A.shape[0] * frob, out=np.zeros_like(l1), where=frob > 0.0)
    return ratio, frob


def rip_ratio_sample(A, b, k: int, trials: int, seed: SeedSpec) -> RipEstimate:
    """Sampled (1/m)||A'(H')||_1 / ||H'||_F ratios over the structured class.

    Draws k-sparse x and z with both shared and disjoint supports, forms
    the rank <= 2 difference H = x x^H - z z^H with h = x - z, and records
    the observed ratio extremes with witnesses.  Draws with ||H'||_F below
    1e-12 are skipped.

    Trial t draws (shared flag, supports, values) from the stream of
    ``seed.child("ripmap", t)``, one trial after another.  The ratios are
    evaluated for blocks of up to 64 trials at a time and then scanned in
    trial order, so the estimate and its witnesses do not depend on the
    block size.
    """
    A = _checked("A", A, (None, None))
    m, n = A.shape
    b = _checked("b", b, (m,))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    complex_field = np.iscomplexobj(A)
    conj_b = np.conj(b)

    def draw(rng, v, sup):
        if complex_field:
            v[sup] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        else:
            v[sup] = rng.standard_normal(k)

    best_low = math.inf
    best_high = -math.inf
    wit_low = wit_high = None
    used = 0
    seeds = _trial_seeds(seed, "ripmap", trials)

    for start in range(0, trials, _BLOCK):
        size = min(_BLOCK, trials - start)
        X = np.zeros((size, n), dtype=A.dtype)
        Z = np.zeros((size, n), dtype=A.dtype)
        for i in range(size):
            rng = np.random.default_rng(next(seeds))
            shared = bool(rng.integers(0, 2))
            sup_x = rng.choice(n, size=k, replace=False)
            sup_z = sup_x if shared else rng.choice(n, size=k, replace=False)
            draw(rng, X[i], sup_x)
            draw(rng, Z[i], sup_z)
        ratio, frob = _ratios(A, conj_b, X, Z)
        for i in range(size):
            if frob[i] < 1e-12:
                continue
            used += 1
            r = float(ratio[i])
            if r < best_low:
                best_low = r
                wit_low = (X[i].copy(), Z[i].copy())
            if r > best_high:
                best_high = r
                wit_high = (X[i].copy(), Z[i].copy())

    if used == 0:
        raise ValueError("all sampled H' were degenerate")
    return RipEstimate(
        lower_hat=best_low,
        upper_hat=best_high,
        samples=used,
        witness_lower=wit_low,
        witness_upper=wit_high,
        config={"k": k, "trials": trials},
    )


def structured_ratio(A, b, x, z) -> float:
    """Ratio for one witness pair; used to re-verify RipEstimate extremes."""
    A = _checked("A", A, (None, None))
    m, n = A.shape
    b = _checked("b", b, (m,))
    x = _checked("x", x, (n,))
    z = _checked("z", z, (n,))
    ratio, frob = _ratios(A, np.conj(b), x[None], z[None])
    if frob[0] < 1e-12:
        raise ValueError("degenerate witness")
    return float(ratio[0])


def crossterm_sup(A, b, k: int) -> float:
    """Exact sup of sum_j b_j <a_j, x> over unit-norm k-sparse real x.

    For a fixed support S the supremum is ||(A^T b)_S||_2, so the top-k
    magnitudes of A^T b are exact.
    """
    A = _checked("A", np.asarray(A, dtype=np.float64), (None, None))
    b = _checked("b", np.asarray(b, dtype=np.float64), (A.shape[0],))
    if not 1 <= k <= A.shape[1]:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    corr = np.abs(A.T @ b)
    top = np.partition(corr, A.shape[1] - k)[A.shape[1] - k :]
    return float(np.sqrt(np.sum(top**2)))
