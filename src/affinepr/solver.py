"""Recovery engine: l1 inner solver with an l2-ball data constraint, wrapped
in alternating sign (real) or phase (complex) outer loops.

The inner problem is basis pursuit denoising,

    min ||x||_1  s.t.  ||D x - c||_2 <= eps.

A solve computes one thin SVD D = U S V^H and every inner call reuses it.
Which of three inner paths runs depends only on eps, the field and rank(D):

* direct, for eps = 0 and rank(D) = n: the feasible set is a single point or
  empty, so the call returns D^+ c;
* the exact lasso path, for real D otherwise, certified by a dual vector:
  to lam = 0 on the orthonormal rows V^H x = S^-1 U^H c for eps = 0, and for
  eps > 0 on the rows S V^H against U^H c up to the point where
  ||D x - c|| = eps;
* ADMM on the splitting x = z, D x = r, for complex D unless eps = 0 and
  rank(D) = n (complex l1 is a second-order cone program), from x = 0 on
  D's own rows.  Its exact x-update (I + D^H D)^-1 is one matrix-vector
  product with I - V diag(s^2/(1 + s^2)) V^H; it does not depend on the
  ADMM step rho, so adapting rho costs nothing.

The outer loops exploit the identity

    ||diag(s)(A x + b) - y||_2 = ||A x - (s*y - b)||_2

for any unit-modulus s, so each outer step is one convex BPDN solve: one
``bpdn`` call per pattern, capped at 600 inner steps (300 for a flip probe).
An outer step is a pure function of (D, c, eps, cap).  A flip probe also
depends on its bound, the chain's key: its lasso path stops once it is
proved unable to beat the key (``_flip_descent``).

A plain alternation traps immediately in the underdetermined regime: with
eps = 0 and m < n every sign pattern admits an exact interpolator, so every
start is a one-step fixed point.  Each restart therefore runs a burn-in
first: a proximal-gradient homotopy on the penalized objective
0.5 ||A x - (s*y - b)||^2 + lam ||x||_1 with the sign pattern refreshed at
every step and lam shrunk geometrically, entering the constrained
alternation only once the support has formed.  Burn-in gradients drop
measurements whose current magnitude is far below the observation
(their sign estimate carries no information yet), and the real-field
solver finishes with a margin-guided single-sign-flip descent.

A noiseless real burn-in with rank(A) = n < m stops at the first unfrozen
level whose sign pattern passes the direct path's feasibility test: the
outer loop's first step solves that pattern for its one feasible point.
In the same case an exact fit of y is unique, so the first restart chain
that ends at one is the answer and no later chain runs.  A noiseless real
burn-in with rank(A) < n ends four decades of lam down, not seven: the
outer loop reads only its sign pattern, which has settled by then.

The burn-in runs in lockstep on a stack of trials that share m, n and the
field; a single solve's burn-in is a stack of one.  ``burn_in_block`` takes
a block of trials (the harness sizes it at 2^16 matrix entries), checks
every input, computes each trial's SVD once, and runs one stacked burn-in
per restart chain that is sure to run: only the first where the chain stop
can fire, every chain otherwise.  Each trial's solve is handed its SVD and
burn-ins, each a final pattern and its level count, as ``burn_in=``; a
chain without one runs its burn-in as a stack of one.  A stacked matmul
makes one gemv per matrix and norms are taken per trial, so every trial
gets the bytes of a solve on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .model import COMPLEX, REAL, _MASK64, MeasurementEnsemble, _checked, _integer, _real
from .model import lifted_intensity
from .rng import SeedSpec


@dataclass(frozen=True)
class SolverOptions:
    """Settings of one solve, and the keys of the JSON ``solver`` config.  The
    outer steps per restart chain (``_OUTER_MAX`` = 100) are fixed.

    inner_max: cap on the real lasso path's steps or the complex ADMM iterations of a
        ``bpdn`` call; the default serves direct calls.  Inside a solve it only lowers
        the caps of outer steps (600, ``_OUTER_CAP``) and flip probes (300).
    inner_tol: complex ADMM tolerance on the residuals, relative to 1 + ||c||; it also
        sets the phase loop's fixed-point test, min(1e-9, max(10 inner_tol, 1e-13)).
    restarts: most chains: the bias anchor, the anchor on a slower homotopy, then random
        patterns; a noiseless real solve with rank(A) = n < m stops at the first exact fit.
    mode: "magnitude" data y = |A x + b|, or "intensity" ytilde = |A x + b|^2 (complex only).
    restart_seed: seed of the random restart patterns.
    flip_candidates: lowest-margin sign flips a real solve retries; 0 skips flip descent.
    """

    inner_max: int = 2000
    inner_tol: float = 1e-9
    restarts: int = 10
    mode: str = "magnitude"
    restart_seed: int = 0
    flip_candidates: int = 6

    def __post_init__(self):
        for name, low in (("inner_max", 1), ("restarts", 1), ("flip_candidates", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        seed = _integer("restart_seed", self.restart_seed, 0, _MASK64)
        object.__setattr__(self, "restart_seed", seed)
        object.__setattr__(self, "inner_tol", _real("inner_tol", self.inner_tol, positive=True))
        if self.mode not in ("magnitude", "intensity"):
            raise ValueError(f"unknown solver mode {self.mode!r}")


@dataclass
class BpdnResult:
    x: np.ndarray
    iterations: int
    converged: bool
    # The lasso path proved that its optimum exceeds the call's ``bound``.
    abandoned: bool = False

    @property
    def objective(self) -> float:
        return float(np.sum(np.abs(self.x)))


@dataclass
class SolveReport:
    xhat: np.ndarray
    objective: float
    feasibility: float
    outer_iters: int
    inner_iters_total: int
    restart_index_of_best: int
    # sign_fixed_point | max_outer | infeasible_inner; infeasible_inner means
    # the last inner call ended unconverged: an exact verdict (direct or
    # lasso path) that no x is within eps of its target, or a lasso path or
    # complex ADMM call cut at its cap.
    termination: str
    trace: list = dc_field(default_factory=list)
    clipped_intensities: int = 0
    # Burn-in levels of each restart chain that ran (its schedule down to its
    # floor unless it stopped early); fewer than ``restarts`` after a chain
    # stop (``_solve_restarts``).  The same whether the chain's burn-in ran in
    # a lockstep block (``burn_in_block``) or as the solve's own stack of one.
    burn_in_levels: list = dc_field(default_factory=list)


def _soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    mag = np.abs(v)
    scale = np.maximum(mag - kappa, 0.0)
    if np.iscomplexobj(v):
        out = np.zeros_like(v)
        nz = mag > 0
        out[nz] = v[nz] * (scale[nz] / mag[nz])
        return out
    return np.sign(v) * scale


def _project_ball(v: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    d = v - center
    nrm = np.linalg.norm(d)
    if nrm <= radius:
        return v
    if radius == 0.0:
        return center.copy()
    return center + d * (radius / nrm)


_ADAPT_PERIOD = 10
_ADAPT_FREEZE = 1000  # rho changes after this iteration can cycle; freeze instead

_OUTER_MAX = 100  # outer sign/phase steps per restart chain
_OUTER_CAP, _PROBE_CAP = 600, 300  # inner caps of outer steps, flip probes; perfbench keys on them
_FIT_TOL = 1e-9  # an exact fit's residual tolerance, relative to 1 + ||c||


class _Svd(NamedTuple):
    """Thin SVD D = U diag(s) Vh, restricted to the numerical rank."""

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray


def _thin_svd(D) -> _Svd:
    U, s, Vh = np.linalg.svd(D, full_matrices=False)
    keep = s > 1e-12 * s[0]
    return _Svd(U[:, keep], s[keep], Vh[keep])


_CERT_TOL = 1e-9


def _certified(x: np.ndarray, cert: np.ndarray) -> bool:
    """Whether cert = D^T nu proves x optimal: |cert| <= 1 and cert = sign(x) on x's support."""
    supp = np.flatnonzero(x)
    return bool(
        np.max(np.abs(cert), initial=0.0) <= 1.0 + _CERT_TOL
        and np.all(np.sign(x[supp]) * cert[supp] >= 1.0 - _CERT_TOL)
    )


def _bp_homotopy(
    R, w, target: float, cap: int, bound: float = math.inf
) -> tuple[np.ndarray, int, bool, bool]:
    """A certified point of the real lasso path, for R with r <= n rows of full row rank.

    Follows the path of 0.5 ||R x - w||^2 + lam ||x||_1 down from
    lam = ||R^T w||_inf, where x = 0 (Osborne, Presnell & Turlach, IMA J.
    Numer. Anal. 2000).  With P = R^T R the correlation g = R^T w - P x
    equals lam * z on the active set S (z the signs of x_S) and stays within
    lam elsewhere.  Between breakpoints x_S moves along d = (P_SS)^-1 z per
    unit decrease of lam; an index enters S when its correlation reaches lam
    and leaves when its coefficient reaches zero, and the inverse of P_SS
    follows by a rank-one update.  S holds at most r indices, so P_SS stays
    nonsingular.  A step tau lowers the squared residual by
    z^T d (2 tau lam - tau^2).

    ``target`` = 0 runs the path to lam = 0: min ||x||_1 s.t. R x = w.  A
    ``target`` in (0, ||w||^2) stops it where the squared residual reaches
    ``target``: min ||x||_1 s.t. ||R x - w||^2 <= target (van den Berg &
    Friedlander, SIAM J. Sci. Comput. 2008).  Either way g / lam at the end
    is R^T nu for a dual vector nu, and the result is certified when that
    passes ``_certified``.  The path always starts from x = 0, so equal
    inputs give equal bytes.

    ``bound`` stops the path once its optimum is proved to exceed it.  With
    r = w - R x the path keeps |R^T r| = |g| <= lam, so nu = r / lam is dual
    feasible, and as x^T g = lam ||x||_1 its dual value

        w^T nu - sqrt(target) ||nu|| = ||x_S||_1 + ||r|| (||r|| - sqrt(target)) / lam

    is a lower bound on the optimum, never below ||x_S||_1.  The path tracks
    ||r||^2, so the test after each breakpoint costs O(k); a path whose dual
    value, or whose end, passes ``bound`` is abandoned there.  A path that is
    not abandoned has the bytes and steps it has without a bound.  Returns
    (x, path steps, certified, abandoned); a path cut at ``cap`` steps is not
    certified.
    """
    r, n = R.shape
    P = R.T @ R
    xdag = R.T @ w
    res2 = float(w @ w)
    root = math.sqrt(target)

    x = np.zeros(n)
    j = int(np.argmax(np.abs(xdag)))
    lam = float(abs(xdag[j]))
    if lam == 0.0:
        return x, 0, True, False
    # The active set: indices, signs and coefficients, rows P[act] and the
    # inverse of P[act][:, act], all in the first k slots.
    act = np.empty(r, dtype=np.intp)
    z = np.empty(r)
    xs = np.empty(r)
    PS = np.empty((r, n))
    Gi = np.empty((r, r))
    act[0], z[0], xs[0], PS[0], Gi[0, 0] = j, np.sign(xdag[j]), 0.0, P[j], 1.0 / P[j, j]
    k = 1
    closed = np.zeros(n, dtype=bool)  # may not enter: active, dependent, or just left
    closed[j] = True
    held = -1
    g = xdag
    never = np.full(n, np.inf)
    steps = 0
    while True:
        if steps >= cap:
            x[act[:k]] = xs[:k]
            return x, steps, False, False
        steps += 1
        d = Gi[:k, :k] @ z[:k]
        # Events that tie with the end of the path (they do whenever the
        # solution is sparser than r) lose to it.
        t = lam * (1.0 - 1e-9)
        event = None
        t_exit = np.divide(-xs[:k], d, out=never[:k].copy(), where=xs[:k] * d < 0.0)
        p = t_exit.argmin()
        if t_exit[p] < t:
            t, event = t_exit[p], "exit"
        if k < r:
            a = d @ PS[:k]  # the rate at which g falls per unit step
            den = 1.0 - a
            t_up = np.divide(lam - g, den, out=never.copy(), where=den > 1e-12)
            den = 1.0 + a
            t_down = np.divide(lam + g, den, out=never.copy(), where=den > 1e-12)
            t_enter = np.minimum(t_up, t_down)
            t_enter[closed] = np.inf
            q = t_enter.argmin()
            if t_enter[q] < t:
                t, event = max(float(t_enter[q]), 0.0), "enter"
        zd = float(z[:k] @ d)
        if target > 0.0:
            drop = max(res2 - target, 0.0)
            # The residual at lam = 0 is 0, so the last segment always stops.
            if event is None or zd * t * (2.0 * lam - t) >= drop:
                tau = drop / zd / (lam + math.sqrt(max(lam * lam - drop / zd, 0.0)))
                xs[:k] += tau * d
                lam -= tau
                x[act[:k]] = xs[:k]
                cert = (xdag - xs[:k] @ PS[:k]) / lam
                return x, steps, _certified(x, cert), float(z[:k] @ xs[:k]) > bound
        if event is None:
            break
        res2 -= zd * t * (2.0 * lam - t)
        if held >= 0:
            closed[held] = False
            held = -1
        xs[:k] += t * d
        lam -= t
        if bound < math.inf:
            rn = math.sqrt(max(res2, 0.0))
            if float(z[:k] @ xs[:k]) + rn * (rn - root) / lam > bound:
                x[act[:k]] = xs[:k]
                return x, steps, False, True
        g = xdag - xs[:k] @ PS[:k]
        if event == "exit":
            last = k - 1
            if p != last:
                for arr in (act, z, xs, PS):
                    arr[[p, last]] = arr[[last, p]]
                Gi[[p, last], :k] = Gi[[last, p], :k]
                Gi[:k, [p, last]] = Gi[:k, [last, p]]
            e = Gi[:last, last]
            Gi[:last, :last] -= e[:, None] * (e / Gi[last, last])
            held = int(act[last])
            k = last
            continue
        closed[q] = True
        b = PS[:k, q]
        v = Gi[:k, :k] @ b
        schur = P[q, q] - b @ v
        if schur <= 1e-12 * P[q, q]:
            continue  # column q lies in the span of the active columns
        Gi[:k, :k] += v[:, None] * (v / schur)
        Gi[:k, k] = Gi[k, :k] = -v / schur
        Gi[k, k] = 1.0 / schur
        act[k], z[k], xs[k], PS[k] = q, (1.0 if g[q] > 0 else -1.0), 0.0, P[q]
        k += 1
    # On the last segment g = g(0) + lam * (d @ P[act]), and g(0) = 0 when its
    # end solves the system, so g / lam at the last breakpoint equals the
    # rate d @ P[act]; that form does not divide rounding errors by lam.
    cert = d @ PS[:k]
    # At lam = 0 the active coefficients solve P_SS x_S = (R^T w)_S; take
    # that from the updated inverse rather than summing the path's steps.  A
    # coefficient whose exit tied with the end is zero up to rounding,
    # whatever its sign.
    xs = Gi[:k, :k] @ xdag[act[:k]]
    xs[np.sign(xs) != z[:k]] = 0.0
    x[act[:k]] = xs
    return x, steps, _certified(x, cert), float(z[:k] @ xs) > bound


def _mv(M, v):
    """The rows M[t] @ v[t] of a stack: one gemv per matrix, byte-equal to that product."""
    return np.matmul(M, v[..., None])[..., 0]


def _direct(D, c, svd: _Svd) -> BpdnResult:
    """D^+ c for rank(D) = n, converged only if its residual is within _FIT_TOL (1 + ||c||)."""
    U, s, Vh = svd
    x = Vh.conj().T @ ((U.conj().T @ c) / s)
    primal = float(np.linalg.norm(D @ x - c))
    return BpdnResult(x, 0, primal <= _FIT_TOL * (1.0 + float(np.linalg.norm(c))))


def bpdn(
    D, c, epsilon: float, opts: SolverOptions | None = None, *, svd: _Svd | None = None,
    bound: float = math.inf,
) -> BpdnResult:
    """Minimizer of min ||x||_1 s.t. ||D x - c||_2 <= epsilon, with a convergence flag.

    The path depends only on epsilon, the field and rank(D):

    * epsilon = 0 and rank(D) = n: direct.  The result is D^+ c after zero
      iterations, converged only if its residual is within _FIT_TOL (1 + ||c||).
    * other real D: the exact lasso path (``_bp_homotopy``), capped at
      ``opts.inner_max`` steps.  Converged only if a dual vector certifies
      the result and its residual is within epsilon + _FIT_TOL (1 + ||c||).
      With epsilon = 0 the path runs on the orthonormal rows V^H x = S^-1 U^H c.
      With epsilon > 0 it runs on the rows S V^H against U^H c and stops at
      residual epsilon; a projection residual ||c - U U^H c|| of at least
      epsilon is an exact "infeasible" verdict: D^+ c after 0 steps.
      A path whose optimum is proved above ``bound`` stops early, abandoned
      and not converged.
    * complex D otherwise: ADMM from x = 0 on D's own rows, capped at
      ``opts.inner_max`` iterations, with tolerance ``opts.inner_tol``.

    Every path starts from nothing, so equal inputs give equal bytes, and a
    call that is not abandoned returns the bytes it returns without
    ``bound``; the direct path and ADMM ignore it.  On nonunique optima any
    minimizer may be returned, so callers should contract on the objective
    value rather than the witness.  ``svd`` is D's ``_thin_svd``; only the
    solver passes it, on inputs its entry points have checked, so a call with
    ``svd`` skips the checks of D and c.
    """
    opts = opts or SolverOptions()
    epsilon = _real("epsilon", epsilon)
    if svd is None:
        D = _checked("D", D, (None, None))
        c = _checked("c", c, (D.shape[0],))
        if np.iscomplexobj(c) and not np.iscomplexobj(D):
            raise ValueError("field mismatch between D and c")
        if not bound >= 0.0:
            raise ValueError(f"bound must be a number >= 0, got {bound!r}")
    m, n = D.shape
    cnorm = float(np.linalg.norm(c))
    if epsilon >= cnorm:
        # 0 is feasible and l1-minimal.
        return BpdnResult(np.zeros(n, dtype=D.dtype), 0, True)

    svd = svd if svd is not None else _thin_svd(D)
    if epsilon == 0.0 and svd.s.size == n:
        return _direct(D, c, svd)
    U, s, Vh = svd
    if not np.iscomplexobj(D):
        proj = U.T @ c
        if epsilon == 0.0:
            R, w, target = Vh, proj / s, 0.0
        else:
            target = epsilon**2 - float(np.linalg.norm(c - U @ proj)) ** 2
            if target <= 0.0:
                return BpdnResult(Vh.T @ (proj / s), 0, False)
            R, w = s[:, None] * Vh, proj
        x, steps, certified, abandoned = _bp_homotopy(R, w, target, opts.inner_max, bound)
        if abandoned:
            return BpdnResult(x, steps, False, True)
        primal = float(np.linalg.norm(D @ x - c))
        return BpdnResult(x, steps, certified and primal <= epsilon + _FIT_TOL * (1.0 + cnorm))
    # (I + D^H D)^-1 = I - V diag(s^2 / (1 + s^2)) V^H
    M = np.eye(n) - (Vh.conj().T * (s**2 / (1.0 + s**2))) @ Vh

    Dh = D.conj().T
    dtype = np.promote_types(D.dtype, c.dtype)
    z = np.zeros(n, dtype=dtype)
    r = _project_ball(np.zeros(m, dtype=dtype), c, epsilon)
    u_z = np.zeros(n, dtype=dtype)
    u_r = np.zeros(m, dtype=dtype)
    rho = 1.0
    tol = opts.inner_tol * (1.0 + cnorm)

    it = 0
    converged = False
    primal = dual = math.inf
    for it in range(1, opts.inner_max + 1):
        x = M @ ((z - u_z) + Dh @ (r - u_r))
        Dx = D @ x
        z_old, r_old = z, r
        z = _soft_threshold(x + u_z, 1.0 / rho)
        r = _project_ball(Dx + u_r, c, epsilon)
        u_z = u_z + x - z
        u_r = u_r + Dx - r
        primal = math.sqrt(
            float(np.linalg.norm(x - z)) ** 2 + float(np.linalg.norm(Dx - r)) ** 2
        )
        dual = rho * float(np.linalg.norm((z - z_old) + Dh @ (r - r_old)))
        if primal <= tol and dual <= tol:
            converged = True
            break
        if it % _ADAPT_PERIOD == 0 and it <= _ADAPT_FREEZE:
            # Keep the residuals within a factor 10 of each other.
            if primal > 10.0 * dual and rho < 1e4:
                rho *= 2.0
                u_z *= 0.5
                u_r *= 0.5
            elif dual > 10.0 * primal and rho > 1e-4:
                rho *= 0.5
                u_z *= 2.0
                u_r *= 2.0

    return BpdnResult(z, it, converged)


def _phase_of(v: np.ndarray) -> np.ndarray:
    mag = np.abs(v)
    out = np.ones_like(v)
    nz = mag > 0
    out[nz] = v[nz] / mag[nz]
    return out


def _sign_of(v: np.ndarray) -> np.ndarray:
    s = np.sign(v)
    s[s == 0] = 1.0
    return s


def _unit_pattern(v: np.ndarray) -> np.ndarray:
    return _phase_of(v) if np.iscomplexobj(v) else _sign_of(v)


@dataclass
class _RestartOutcome:
    xhat: np.ndarray
    inner_iters: int
    termination: str
    trace: list  # (objective, feasibility) of each accepted outer step
    burn_in_levels: int

    @property
    def objective(self) -> float:
        return self.trace[-1][0]

    @property
    def feasibility(self) -> float:
        return self.trace[-1][1]


class _Schedule(NamedTuple):
    """Burn-in homotopy: lam factor and ISTA steps per level, residual trust ratio."""

    shrink: float
    steps: int
    trust: float


_FAST = _Schedule(0.9, 8, 5.0)  # the anchor chain and every random chain
_SLOW = _Schedule(0.95, 10, 3.0)  # the second chain: same anchor, finer homotopy

# Where the burn-in's lam stops, relative to its start.  A solve reads
# only the pattern the burn-in hands over.  A real noiseless solve with
# rank(A) < n has settled that pattern by 1e-4; every other solve runs the
# full seven decades.
_FLOOR = 1e-7
_SETTLED_FLOOR = 1e-4


def _homotopy_burn_in(
    A, b, y_target, u0, freeze_levels, schedule: _Schedule, svds, certify: bool, floor: float
):
    """Proximal-gradient homotopy that forms the support and sign pattern, run
    in lockstep on a stack of T trials: A is (T, m, n); b, y_target and u0
    are (T, m); ``svds`` holds each trial's ``_thin_svd``.  A single solve's
    burn-in is a stack of one.

    Runs ISTA steps on 0.5 ||A x - (u*y - b)||^2 + lam ||x||_1 while the
    unit pattern u is refreshed from A x + b after every step, shrinking
    lam from its zero-solution threshold lam0 down to ``floor`` * lam0:
    ``_SETTLED_FLOOR`` (four decades) for a real noiseless solve with
    rank(A) < n, ``_FLOOR`` (seven decades) for every other.  During the
    first ``freeze_levels`` homotopy levels u is pinned at u0 so random
    restarts explore distinct basins.  Residual entries whose current
    magnitude is below y/(1 + schedule.trust) are dropped: their pattern
    estimate is uninformative.

    With ``certify`` (every trial then has rank n) a trial stops after the
    first unfrozen level whose pattern u passes ``_direct``'s test on
    A x = u*y - b.  A trial leaves the stack when it stops, when its
    schedule ends, or before the first step when lam0 = 0 or A = 0.  The
    rows that stay then move to the front of A in place, so a caller builds
    A for one call and never reuses it (a stack of one is never moved); b,
    y_target and u0 are not written.  Each
    trial's arithmetic is that of a stack of one: products are stacked gemvs
    (``_mv``), the rest is elementwise or per row.  Returns one (u, levels
    run) per trial.
    """
    T, n = A.shape[0], A.shape[2]
    out = [None] * T
    lip = np.array([float(svd.s[0]) ** 2 if svd.s.size else 0.0 for svd in svds])
    step = np.divide(1.0, lip, out=np.zeros(T), where=lip > 0.0)
    x = np.zeros((T, n), dtype=A.dtype)
    u = u0
    Ah = A.conj().transpose(0, 2, 1)  # a view when A is real
    lam = np.max(np.abs(_mv(Ah, u * y_target - b)), axis=1, initial=0.0)
    lam_min = floor * lam
    v = _mv(A, x) + b
    trial = np.arange(T)  # the caller's index of each row
    leave = (lip == 0.0) | (lam == 0.0)
    level = 0
    while True:
        if leave.any():
            u_end = u if level == 0 else _unit_pattern(v)
            for j in np.flatnonzero(leave):
                out[trial[j]] = (u_end[j], level)
            keep = ~leave
            if not keep.any():
                return out
            trial, b, y_target, u, x, v, step, lam, lam_min = (
                a[keep] for a in (trial, b, y_target, u, x, v, step, lam, lam_min)
            )
            # Move the rows that stay to the front of A, in place: a copy of
            # the stack would raise the block's peak memory by as much again.
            for i, j in enumerate(np.flatnonzero(keep)):
                if i != j:
                    A[i] = A[j]
            A = A[: trial.size]
            Ah = A.conj().transpose(0, 2, 1)
        frozen = level < freeze_levels
        for _ in range(schedule.steps):
            if not frozen:
                u = _unit_pattern(v)
            resid = v - u * y_target
            if not frozen:
                resid = resid * (np.abs(v) >= y_target / (1.0 + schedule.trust))
            x = _soft_threshold(x - step[:, None] * _mv(Ah, resid), (step * lam)[:, None])
            v = _mv(A, x) + b
        lam = lam * schedule.shrink
        level += 1
        leave = lam <= lam_min
        if certify and not frozen:
            u = _unit_pattern(v)
            c = u * y_target - b
            leave |= np.array([_direct(A[j], c[j], svds[t]).converged for j, t in enumerate(trial)])


def _run_restart(A, b, epsilon, opts, burn_in, feas_fn, y_target, svd: _Svd):
    """The alternating constrained iteration from a chain's burn-in, the
    (u, levels) of ``_homotopy_burn_in``.

    Each outer step solves its pattern once, with the inner call capped at
    600 (complex ADMM would burn its full budget on a wrong, infeasible
    pattern).
    """
    u, levels = burn_in
    capped = _capped(opts, _OUTER_CAP)
    inner_total = 0
    trace = []
    termination = "max_outer"
    # Real sign entries differ by 0 or 2, so there the test is equality.
    u_tol = min(1e-9, max(10.0 * opts.inner_tol, 1e-13))
    best_feas = math.inf
    best_obj = math.inf
    since_best = 0

    for _ in range(_OUTER_MAX):
        c = u * y_target - b
        res = bpdn(A, c, epsilon, capped, svd=svd)
        inner_total += res.iterations
        u_new = _unit_pattern(A @ res.x + b)
        x = res.x
        trace.append((res.objective, feas_fn(x)))
        if float(np.max(np.abs(u_new - u))) <= u_tol:
            termination = "sign_fixed_point"
            break
        u = u_new
        # Under noise the pattern can dance on zero-margin measurements
        # without the solution improving; stop once progress stalls.
        obj, feas = trace[-1]
        improved = feas < best_feas * (1.0 - 1e-3) or obj < best_obj - 1e-6 * (1.0 + abs(best_obj))
        best_feas = min(best_feas, feas)
        best_obj = min(best_obj, obj)
        if improved:
            since_best = 0
        else:
            since_best += 1
            if since_best >= 5:
                break
    if not res.converged:  # the last inner call
        termination = "infeasible_inner"
    return _RestartOutcome(x, inner_total, termination, trace, levels)


@lru_cache(maxsize=16)
def _capped(opts: SolverOptions, cap: int) -> SolverOptions:
    """``opts`` with ``inner_max`` at most ``cap``, built once per (opts, cap):
    ``replace`` re-runs every field check of ``SolverOptions``."""
    return replace(opts, inner_max=min(cap, opts.inner_max))


def _violation(feas: float, epsilon: float, scale: float) -> float:
    # Residuals inside the inner solver's feasibility collar count as zero,
    # otherwise an iterate converged to tolerance loses to an exactly
    # interpolating garbage pattern.
    return max(feas - epsilon - 1e-8 * scale, 0.0)


def _flip_descent(
    A, b, y_target, epsilon, opts, outcome: _RestartOutcome, feas_fn, svd: _Svd, scale: float
):
    """Real-field local search: retry the lowest-margin sign flips.

    Each probe solves its pattern once, with the lasso path capped at 300
    steps, and wins only if it lowers the (violation, objective) key.  A
    probe of a pattern already solved here (or the chain's own fixed point)
    is skipped but counts against the budget: the key only falls, so it
    cannot win.  While the key's violation is 0, a probe passes ``bpdn`` the
    ``bound`` objective (1 + 1e-6), so its call also depends on the key: its
    path stops once it is proved to lose, and an abandoned probe counts its
    steps but is not compared.
    """
    if opts.flip_candidates == 0:
        return outcome
    probe_opts = _capped(opts, _PROBE_CAP)
    x = outcome.xhat
    key = (_violation(outcome.feasibility, epsilon, scale), outcome.objective)
    v = A @ x + b
    s = _sign_of(v)
    order = np.argsort(np.abs(v))
    inner = outcome.inner_iters
    trace = list(outcome.trace)
    improved = False
    budget = 4 * opts.flip_candidates
    solved = {s.tobytes()} if outcome.termination == "sign_fixed_point" else set()
    tried = 0
    pos = 0
    while tried < budget and pos < min(opts.flip_candidates, order.size):
        j = order[pos]
        pos += 1
        tried += 1
        s_try = s.copy()
        s_try[j] = -s_try[j]
        if s_try.tobytes() in solved:
            continue
        solved.add(s_try.tobytes())
        c = s_try * y_target - b
        bound = key[1] * (1.0 + 1e-6) if key[0] == 0.0 else math.inf
        res = bpdn(A, c, epsilon, probe_opts, svd=svd, bound=bound)
        inner += res.iterations
        if res.abandoned:
            continue
        feas = feas_fn(res.x)
        cand_key = (_violation(feas, epsilon, scale), res.objective)
        if cand_key < key:
            x, key, improved = res.x, cand_key, True
            trace.append((res.objective, feas))
            v = A @ x + b
            s = _sign_of(v)
            order = np.argsort(np.abs(v))
            pos = 0
    if not improved:
        return replace(outcome, inner_iters=inner)
    termination = "sign_fixed_point" if key[0] == 0.0 else outcome.termination
    return _RestartOutcome(x, inner, termination, trace, outcome.burn_in_levels)


_FREEZE_LEVELS = 12  # homotopy levels a random restart keeps its pattern pinned


def _restart_chains(A, b, opts):
    """(u0, freeze levels, schedule) of each of ``opts.restarts`` chains:
    bias-anchored fast path, then a slower homotopy from the same anchor,
    then frozen random patterns."""
    anchor = _unit_pattern(b)
    chains = [(anchor, 0, _FAST), (anchor, 0, _SLOW)][: opts.restarts]
    if opts.restarts <= 2:  # no random chain, and the generator alone takes ~16 us to build
        return chains
    rng = SeedSpec(opts.restart_seed, ("solver", "restarts")).rng()
    for _ in range(opts.restarts - len(chains)):
        if np.iscomplexobj(A):
            chains.append((np.exp(2j * np.pi * rng.random(A.shape[0])), _FREEZE_LEVELS, _FAST))
        else:
            chains.append((rng.choice([-1.0, 1.0], size=A.shape[0]), _FREEZE_LEVELS, _FAST))
    return chains


def _chain_rule(A, epsilon: float, svd: _Svd) -> tuple[bool, float]:
    """(unique, floor) of a solve on A: whether an exact fit of y is unique, so
    that the first chain ending at one stops the solve, and the burn-in's floor."""
    m, n = A.shape
    noiseless_real = epsilon == 0.0 and not np.iscomplexobj(A)
    unique = noiseless_real and svd.s.size == n < m
    floor = _SETTLED_FLOOR if noiseless_real and svd.s.size < n else _FLOOR
    return unique, floor


def _solve_restarts(A, b, epsilon, opts, feas_fn, y_target, scale: float, burn_in=None):
    """Outcomes of the restart chains, in order, up to the first that fits y exactly.

    With epsilon = 0, real A and rank(A) = n < m, an exact fit of y is
    unique (with probability 1 for b outside the range of A): a second fit
    x' would need A(x' + x0) = -2b on the rows where the signs differ, and
    Ax' = Ax0 on the rest.  A chain that ends with zero violation has then
    found the answer, so it skips flip descent and no later chain runs.
    At m = n every pattern fits exactly, so an exact fit proves nothing.

    ``burn_in`` (a ``BurnIn``) supplies A's SVD and the burn-ins of the
    first chains; every other chain's burn-in runs here as a stack of one.
    """
    complex_field = np.iscomplexobj(A)
    svd = _thin_svd(A) if burn_in is None else burn_in.svd
    unique, floor = _chain_rule(A, epsilon, svd)
    handed = () if burn_in is None else burn_in.chains
    outcomes = []
    for chain, (u0, freeze, schedule) in enumerate(_restart_chains(A, b, opts)):
        if chain < len(handed):
            burn = handed[chain]
        else:
            stack = (a[None] for a in (A, b, y_target, u0))
            burn = _homotopy_burn_in(*stack, freeze, schedule, [svd], unique, floor)[0]
        out = _run_restart(A, b, epsilon, opts, burn, feas_fn, y_target, svd)
        if unique and _violation(out.feasibility, epsilon, scale) == 0.0:
            outcomes.append(out)
            break
        if not complex_field:
            out = _flip_descent(A, b, y_target, epsilon, opts, out, feas_fn, svd, scale)
        outcomes.append(out)
    return outcomes


def _select_report(outcomes, epsilon, scale: float) -> SolveReport:
    # Lexicographic: smallest feasibility violation, then smallest objective.
    keys = [(_violation(o.feasibility, epsilon, scale), o.objective) for o in outcomes]
    best = min(range(len(outcomes)), key=lambda i: keys[i])
    o = outcomes[best]
    return SolveReport(
        xhat=o.xhat,
        objective=o.objective,
        feasibility=o.feasibility,
        outer_iters=len(o.trace),
        inner_iters_total=sum(r.inner_iters for r in outcomes),
        restart_index_of_best=best,
        termination=o.termination,
        trace=o.trace,
        burn_in_levels=[r.burn_in_levels for r in outcomes],
    )


class _Problem(NamedTuple):
    """One solve's checked inputs: the data as float64 and the magnitudes the
    sign or phase loop fits, sqrt(max(data, 0)) in intensity mode."""

    ensemble: MeasurementEnsemble
    data: np.ndarray
    y_target: np.ndarray
    epsilon: float


def _problem(ensemble, data, epsilon, opts: SolverOptions, field: str) -> _Problem:
    """Check one solve's inputs on ``field`` before any work: each bad one
    raises a ValueError that names it."""
    epsilon = _real("epsilon", epsilon)
    if ensemble.field != field:
        raise ValueError(f"{field} solver requires a {field} ensemble")
    if field == REAL and opts.mode != "magnitude":
        raise ValueError(f"mode {opts.mode!r} needs complex data; the real solver takes magnitudes")
    name = "y" if field == REAL else "y_or_ytilde"
    data = _checked(name, np.asarray(data, dtype=np.float64), (ensemble.m,))
    if opts.mode == "magnitude" and epsilon == 0.0 and np.any(data < 0):
        raise ValueError(f"{name} has negative entries; noiseless magnitudes are nonnegative")
    y_target = np.sqrt(np.maximum(data, 0.0)) if opts.mode == "intensity" else data
    return _Problem(ensemble, data, y_target, epsilon)


@dataclass(frozen=True, eq=False)
class BurnIn:
    """What ``burn_in_block`` hands one trial's solve: the inputs it checked,
    their thin SVD, and the (u, levels) burn-in of each restart chain sure
    to run, in chain order."""

    problem: _Problem
    opts: SolverOptions
    svd: _Svd
    chains: tuple

    def check(self, problem: _Problem, opts: SolverOptions) -> None:
        """Raise a ValueError unless this burn-in was run for these inputs."""
        mine = self.problem
        for name, same in (
            ("ensemble", problem.ensemble is mine.ensemble),
            ("data", problem.data.tobytes() == mine.data.tobytes()),
            ("epsilon", problem.epsilon == mine.epsilon),
            ("opts", opts == self.opts),
        ):
            if not same:
                raise ValueError(f"burn_in was run for another {name}")


def burn_in_block(ensembles, datas, epsilon: float, opts: SolverOptions | None = None) -> list:
    """Run the burn-ins of a block of trials in lockstep; one ``BurnIn`` per trial.

    The ensembles share m, n and field, and every input is checked as its
    solve checks it before any stacked work.  Each trial's thin SVD is
    computed once.  Trials are grouped by ``_chain_rule``, and each group
    runs one stacked ``_homotopy_burn_in`` per restart chain sure to run:
    only chain 0 where the chain stop can fire, every chain otherwise, and
    keeps each trial's (u, levels).  A solve handed its ``BurnIn`` as
    ``burn_in=`` returns the bytes of a solve without it.
    """
    opts = opts or SolverOptions()
    if not ensembles or len(ensembles) != len(datas):
        raise ValueError("a block needs one data vector per ensemble, and at least one")
    for name in ("field", "m", "n"):
        if len({getattr(e, name) for e in ensembles}) > 1:
            raise ValueError(f"a block mixes ensembles of different {name}")
    field = ensembles[0].field
    problems = [_problem(e, data, epsilon, opts, field) for e, data in zip(ensembles, datas)]
    svds = [_thin_svd(e.A) for e in ensembles]
    chains = [[] for _ in problems]
    groups = {}
    for t, (e, p, svd) in enumerate(zip(ensembles, problems, svds)):
        groups.setdefault(_chain_rule(e.A, p.epsilon, svd), []).append(t)
    for (unique, floor), rows in groups.items():
        b = np.stack([ensembles[t].b for t in rows])
        y_target = np.stack([problems[t].y_target for t in rows])
        starts = [_restart_chains(ensembles[t].A, ensembles[t].b, opts) for t in rows]
        for chain in range(1 if unique else opts.restarts):
            u0 = np.stack([s[chain][0] for s in starts])
            _, freeze, schedule = starts[0][chain]
            # Each chain gets a stack of A of its own, since the burn-in
            # compacts it, and drops it before the next is built.
            A = np.stack([ensembles[t].A for t in rows])
            burns = _homotopy_burn_in(
                A, b, y_target, u0, freeze, schedule, [svds[t] for t in rows], unique, floor
            )
            del A
            for t, burn in zip(rows, burns):
                chains[t].append(burn)
    return [BurnIn(p, opts, svd, tuple(c)) for p, svd, c in zip(problems, svds, chains)]


def _solve(ensemble, data, epsilon, opts, field: str, burn_in: BurnIn | None) -> SolveReport:
    opts = opts or SolverOptions()
    problem = _problem(ensemble, data, epsilon, opts, field)
    if burn_in is not None:
        burn_in.check(problem, opts)
    A, b = ensemble.A, ensemble.b
    data, epsilon = problem.data, problem.epsilon

    clipped = 0
    if opts.mode == "intensity":
        clipped = int(np.sum(data < 0))

        def feas(x):
            return float(np.linalg.norm(lifted_intensity(ensemble, x) - data))

    else:

        def feas(x):
            return float(np.linalg.norm(np.abs(A @ x + b) - data))

    # The collar of _violation, shared by the chain stop, flip descent and selection.
    scale = 1.0 + float(np.linalg.norm(data))
    outcomes = _solve_restarts(A, b, epsilon, opts, feas, problem.y_target, scale, burn_in)
    report = _select_report(outcomes, epsilon, scale)
    report.clipped_intensities = clipped
    return report


def solve_affine_pr_real(
    ensemble: MeasurementEnsemble,
    y,
    epsilon: float,
    opts: SolverOptions | None = None,
    *,
    burn_in: BurnIn | None = None,
) -> SolveReport:
    """Recover a real signal from y = |A x + b| + w by alternating signs (magnitude mode only).

    With epsilon = 0 a negative y is rejected: no x fits it, and a pattern
    that passes the direct test on it is no fixed point of the sign loop.
    With epsilon > 0 it is accepted: noise can push a small magnitude below
    zero, and the true signs s still put A x0 within epsilon of s*y - b.
    ``burn_in`` is this solve's ``BurnIn`` from ``burn_in_block``.
    """
    return _solve(ensemble, y, epsilon, opts, REAL, burn_in)


def solve_affine_pr_complex(
    ensemble: MeasurementEnsemble,
    y_or_ytilde,
    epsilon: float,
    opts: SolverOptions | None = None,
    *,
    burn_in: BurnIn | None = None,
) -> SolveReport:
    """Recover a complex signal by alternating phases.

    mode='magnitude' treats the data as y = |A x + b| + w; mode='intensity'
    treats it as ytilde = |A x + b|^2 + w, with feasibility measured in the
    intensity domain and the inner target built from sqrt(max(ytilde, 0)).
    Noiseless magnitudes must be nonnegative.  ``burn_in`` is this solve's
    ``BurnIn`` from ``burn_in_block``.
    """
    return _solve(ensemble, y_or_ytilde, epsilon, opts, COMPLEX, burn_in)


def brute_force_bp_oracle(D, c) -> tuple[float, np.ndarray]:
    """Exact minimum of ||x||_1 s.t. D x = c by support enumeration.

    Real instances with n <= 8 and m <= n only.  Every optimal basic
    solution of the underlying LP has at most m nonzeros, so enumerating
    all supports of size <= m and keeping the feasible least-squares
    candidates is exhaustive.
    """
    D = np.asarray(D, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if D.ndim != 2 or c.shape != (D.shape[0],):
        raise ValueError("dimension mismatch between D and c")
    m, n = D.shape
    if n > 8 or m > n:
        raise ValueError("oracle limited to n <= 8 and m <= n")
    feas_tol = _FIT_TOL * (1.0 + float(np.linalg.norm(c)))
    best_obj = math.inf
    best_x = None
    if np.linalg.norm(c) <= feas_tol:
        return 0.0, np.zeros(n)
    for size in range(1, m + 1):
        for support in combinations(range(n), size):
            sub = D[:, support]
            sol, _, _, _ = np.linalg.lstsq(sub, c, rcond=None)
            if np.linalg.norm(sub @ sol - c) > feas_tol:
                continue
            obj = float(np.sum(np.abs(sol)))
            if obj < best_obj:
                best_obj = obj
                best_x = np.zeros(n)
                best_x[list(support)] = sol
    if best_x is None:
        raise ValueError("system D x = c is infeasible")
    return best_obj, best_x
