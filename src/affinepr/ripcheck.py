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

Both samplers draw trials in blocks of ``_BLOCK``, each from one generator
that draws all the block's numbers as arrays: trial t is row t mod
``_BLOCK`` of block t // ``_BLOCK`` (see ``_blocks``), and a block is drawn
whole, so no trial depends on the trial count.  A block is evaluated per
numpy call: a k-sparse vector is multiplied by its k support columns only,
one gemv per trial through a stacked matmul, and norms are per-trial BLAS
dots, the calls a trial alone would make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import _checked, _integer
from .rng import SeedSpec

# Trials evaluated together: enough to amortize numpy's per-call cost over
# the block, few enough that a block's gathered support columns (64 x k x m)
# stay near a megabyte.
_BLOCK = 64
# Greedy coordinate swaps per srip trial, half for each extreme.
_REFINE_SWAPS = 50
# Draws with ||H'||_F below this are degenerate: their ratio is rounding noise.
_MIN_FROB = 1e-12


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


def _blocks(seed: SeedSpec, label: str, trials: int):
    """(trials kept, generator) of each block of ``_BLOCK`` trials; block j
    draws from the stream ``seed.child(label, j)``."""
    for j, start in enumerate(range(0, trials, _BLOCK)):
        yield min(_BLOCK, trials - start), seed.child(label, j).rng()


def _supports(rng, width: int, k: int) -> np.ndarray:
    """A block's supports: the k smallest of each row of uniform keys over
    range(width), so k distinct coordinates drawn uniformly per row."""
    return np.argpartition(rng.random((_BLOCK, width)), k - 1, axis=1)[:, :k]


def _normals(rng, shape, complex_field: bool) -> np.ndarray:
    """Standard normals, with an independent imaginary part on the complex field."""
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def srip_extremes_for_x(A, x) -> tuple[float, float]:
    """Exact (min, max) of ||A_I x||^2 / ||x||^2 over subsets |I| >= m/2.

    The squared row responses are nonnegative, so the max takes every row
    and the min keeps the ceil(m/2) smallest.
    """
    A = _checked("A", A, (None, None))
    x = _checked("x", x, (A.shape[1],))
    if float(np.real(np.vdot(x, x))) == 0.0:
        raise ValueError("x must be nonzero")
    low, high = _sparse_extremes((A @ x)[None], x[None], math.ceil(A.shape[0] / 2))
    return float(low[0]), float(high[0])


def _support_products(A, support, values):
    """Row i is A[:, support[i]] @ values[i], by one gemv per row.

    The gather stores each row's columns in the same column-major layout as
    A[:, support[i]] alone, so each gemv is the call that product makes.
    """
    return np.matmul(A[:, support].transpose(1, 0, 2), values[:, :, None])[:, :, 0]


def _row_dots(X, Y):
    """Row i is np.vdot(X[i], Y[i]), by the same BLAS dot per row."""
    return np.matmul(X.conj()[:, None, :], Y[:, :, None])[:, 0, 0]


def _sparse_extremes(ax, values, keep):
    """Per-row (keep smallest, all) sums of |A x|^2 / ||x||^2, from the rows
    of A x and the nonzero values of each x."""
    sq = np.abs(ax) ** 2
    nx2 = _row_dots(values, values).real
    part = np.partition(sq, keep - 1, axis=1)
    return part[:, :keep].sum(axis=1) / nx2, sq.sum(axis=1) / nx2


def srip_profile(
    A,
    k: int,
    trials: int,
    seed: SeedSpec,
    last_coord_free: bool = False,
) -> RipEstimate:
    """Monte Carlo profile of the strong-RIP extremes over unit k-sparse x.

    Each trial draws a Gaussian-amplitude k-sparse vector and then greedily
    tries coordinate swaps (``_REFINE_SWAPS`` = 50, split between pushing
    the lower extreme down and the upper extreme up).  A swap moves one
    support position to a coordinate drawn uniformly from the ``head - k``
    coordinates outside the support.  With ``last_coord_free`` the final
    coordinate is always active on top of the k-sparse head, matching
    augmented matrices [A b] whose appended coordinate is unrestricted.

    Trial t is row t mod ``_BLOCK`` of block t // ``_BLOCK`` of
    ``seed.child("srip")`` (see ``_blocks``), so extending ``trials`` under
    the same seed only adds samples: the lower estimate is nonincreasing
    and the upper nondecreasing in ``trials``.  A block draws, in order, its base supports
    (sorted), its base values, and for each side and swap a position, a rank
    among the free coordinates and a value per trial; no draw depends on an
    earlier swap's outcome.  The block then runs its greedy swaps in
    lockstep, one swap step for every trial per numpy call.  The witness of
    each side is the first trial, in trial order, that attains the extreme.
    """
    A = _checked("A", A, (None, None))
    trials = _integer("trials", trials, 1)
    m, n = A.shape
    head = n - 1 if last_coord_free else n
    k = _integer("k", k, 1, head)
    keep = math.ceil(m / 2)
    complex_field = np.iscomplexobj(A)
    # The head part of a support always holds k distinct coordinates.  With
    # none left outside it there is no swap, and a block draws no swap numbers.
    free = head - k
    swaps = _REFINE_SWAPS // 2 if free else 0
    width = k + 1 if last_coord_free else k

    best = [math.inf, -math.inf]
    witness = [None, None]
    ranks = np.arange(k)

    for size, rng in _blocks(seed, "srip", trials):
        # Column k, when present, is the free last coordinate.
        base_support = np.full((_BLOCK, width), head)
        base_support[:, :k] = np.sort(_supports(rng, head, k), axis=1)
        drawn = (
            base_support,
            _normals(rng, (_BLOCK, width), complex_field),
            rng.integers(0, k, (_BLOCK, 2, swaps)),
            rng.integers(0, free, (_BLOCK, 2, swaps)),
            _normals(rng, (_BLOCK, 2, swaps), complex_field),
        )
        base_support, base_values, swap_pos, swap_rank, swap_value = (a[:size] for a in drawn)

        rows = np.arange(size)
        base_scores = _sparse_extremes(
            _support_products(A, base_support, base_values), base_values, keep
        )
        for side in range(2):
            lower = side == 0
            support, values, score = base_support, base_values, base_scores[side]
            for s in range(swaps):
                # The r-th coordinate outside the support, counting upwards,
                # is r plus the number of support coordinates below it: those
                # with at most r free coordinates beneath them.
                r = swap_rank[:, side, s]
                below = np.sort(support[:, :k], axis=1) - ranks <= r[:, None]
                trial_support = support.copy()
                trial_support[rows, swap_pos[:, side, s]] = r + np.count_nonzero(below, axis=1)
                trial_values = values.copy()
                trial_values[rows, swap_pos[:, side, s]] = swap_value[:, side, s]
                ax = _support_products(A, trial_support, trial_values)
                cand = _sparse_extremes(ax, trial_values, keep)[side]
                take = cand < score if lower else cand > score
                support = np.where(take[:, None], trial_support, support)
                values = np.where(take[:, None], trial_values, values)
                score = np.where(take, cand, score)
            i = int(np.argmin(score) if lower else np.argmax(score))
            if (score[i] < best[side]) if lower else (score[i] > best[side]):
                vec = np.zeros(n, dtype=A.dtype)
                vec[support[i]] = values[i]
                best[side], witness[side] = float(score[i]), vec / np.linalg.norm(vec)

    return RipEstimate(
        lower_hat=best[0],
        upper_hat=best[1],
        samples=trials,
        witness_lower=witness[0],
        witness_upper=witness[1],
        config={"k": k, "subset_fraction": 0.5, "last_coord_free": last_coord_free},
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


def _ratios(A, conj_b, X, Z, sup_x, sup_z):
    """l1/Frobenius ratios and ||H'||_F for the rows of X and Z.

    Row i gives H = x x^H - z z^H and h = x - z with x = X[i], z = Z[i],
    whose nonzeros lie in the columns sup_x[i] and sup_z[i].  A x and A z
    are products with those columns only, one gemv per row, and
    A h = A x - A z; the Frobenius terms are per-row BLAS dots.  So each
    row's ratio is bit-for-bit what the pair alone would give, whatever
    block it is evaluated in.
    """
    ax = _support_products(A, sup_x, np.take_along_axis(X, sup_x, axis=1))
    az = _support_products(A, sup_z, np.take_along_axis(Z, sup_z, axis=1))
    vals = np.abs(ax) ** 2 - np.abs(az) ** 2 + 2.0 * np.real(conj_b * (ax - az))
    xx = _row_dots(X, X).real
    zz = _row_dots(Z, Z).real
    xz = np.abs(_row_dots(X, Z)) ** 2
    frob2 = xx**2 + zz**2 - 2.0 * xz + 2.0 * _row_dots(X - Z, X - Z).real
    frob = np.sqrt(np.maximum(frob2, 0.0))
    l1 = np.abs(vals).sum(axis=1)
    ratio = np.divide(l1, A.shape[0] * frob, out=np.zeros_like(l1), where=frob > 0.0)
    return ratio, frob


def rip_ratio_sample(A, b, k: int, trials: int, seed: SeedSpec) -> RipEstimate:
    """Sampled (1/m)||A'(H')||_1 / ||H'||_F ratios over the structured class.

    Draws k-sparse x and z with both shared and disjoint supports, forms
    the rank <= 2 difference H = x x^H - z z^H with h = x - z, and records
    the observed ratio extremes with witnesses.  Draws with ||H'||_F below
    ``_MIN_FROB`` are skipped.

    Trial t is row t mod ``_BLOCK`` of block t // ``_BLOCK`` of
    ``seed.child("ripmap")`` (see ``_blocks``).  A block draws, in order,
    the shared flags, the supports of x, those of z (used where the flag is
    clear), the values of x and those of z.  Its ratios are then evaluated
    together from each draw's support columns (see ``_ratios``), and each
    witness is the first trial, in trial order, that attains its extreme.
    So extending ``trials`` under the same seed only adds samples.
    """
    A = _checked("A", A, (None, None))
    m, n = A.shape
    b = _checked("b", b, (m,))
    trials, k = _integer("trials", trials, 1), _integer("k", k, 1, n)
    complex_field = np.iscomplexobj(A)
    conj_b = np.conj(b)

    best_low = math.inf
    best_high = -math.inf
    wit_low = wit_high = None
    used = 0

    for size, rng in _blocks(seed, "ripmap", trials):
        shared = rng.random(_BLOCK) < 0.5
        sup_x = _supports(rng, n, k)
        sup_z = np.where(shared[:, None], sup_x, _supports(rng, n, k))
        X = np.zeros((_BLOCK, n), dtype=A.dtype)
        Z = np.zeros((_BLOCK, n), dtype=A.dtype)
        np.put_along_axis(X, sup_x, _normals(rng, (_BLOCK, k), complex_field), axis=1)
        np.put_along_axis(Z, sup_z, _normals(rng, (_BLOCK, k), complex_field), axis=1)
        X, Z, sup_x, sup_z = X[:size], Z[:size], sup_x[:size], sup_z[:size]
        ratio, frob = _ratios(A, conj_b, X, Z, sup_x, sup_z)
        valid = frob >= _MIN_FROB
        used += int(np.count_nonzero(valid))
        low = int(np.argmin(np.where(valid, ratio, math.inf)))
        if valid[low] and ratio[low] < best_low:
            best_low, wit_low = float(ratio[low]), (X[low].copy(), Z[low].copy())
        high = int(np.argmax(np.where(valid, ratio, -math.inf)))
        if valid[high] and ratio[high] > best_high:
            best_high, wit_high = float(ratio[high]), (X[high].copy(), Z[high].copy())

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
    ratio, frob = _ratios(
        A, np.conj(b), x[None], z[None], np.flatnonzero(x)[None], np.flatnonzero(z)[None]
    )
    if frob[0] < _MIN_FROB:
        raise ValueError("degenerate witness")
    return float(ratio[0])


def crossterm_sup(A, b, k: int) -> float:
    """Exact sup of sum_j b_j <a_j, x> over unit-norm k-sparse real x.

    For a fixed support S the supremum is ||(A^T b)_S||_2, so the top-k
    magnitudes of A^T b are exact.
    """
    A = _checked("A", np.asarray(A, dtype=np.float64), (None, None))
    b = _checked("b", np.asarray(b, dtype=np.float64), (A.shape[0],))
    k = _integer("k", k, 1, A.shape[1])
    corr = np.abs(A.T @ b)
    top = np.partition(corr, A.shape[1] - k)[A.shape[1] - k :]
    return float(np.sqrt(np.sum(top**2)))
