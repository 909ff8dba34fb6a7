import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinepr import (
    MeasurementEnsemble,
    SeedSpec,
    SolverOptions,
    bpdn,
    brute_force_bp_oracle,
    error_metrics,
    make_instance,
    solve_affine_pr_complex,
    solve_affine_pr_real,
)
from affinepr import solver
from affinepr.solver import (
    _FAST,
    _SLOW,
    _soft_threshold,
    _solve_restarts,
    _unit_pattern,
    _violation,
)

FAST = SolverOptions(restarts=2, restart_seed=7)


def test_bpdn_identity_matrix():
    c = np.array([1.5, -2.0, 0.25])
    res = bpdn(np.eye(3), c, 0.0)
    assert res.converged
    assert np.allclose(res.x, c, atol=1e-7)
    assert res.objective == pytest.approx(np.sum(np.abs(c)), abs=1e-7)


def test_bpdn_large_epsilon_returns_zero():
    res = bpdn(np.eye(3), np.array([1.0, 1.0, 1.0]), 10.0)
    assert np.array_equal(res.x, np.zeros(3))
    assert res.converged


def test_bpdn_one_row_objective():
    res = bpdn(np.array([[1.0, 1.0]]), np.array([2.0]), 0.0)
    obj, _ = brute_force_bp_oracle(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert obj == pytest.approx(2.0)
    assert res.objective == pytest.approx(obj, abs=1e-6)


def test_bpdn_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bpdn(np.eye(2), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        bpdn(np.eye(2), np.zeros(2), -0.1)
    with pytest.raises(ValueError):
        bpdn(np.eye(2), np.zeros(2, dtype=complex) + 1j, 0.0)
    for bound in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="^bound"):
            bpdn(np.eye(2), np.ones(2), 0.0, bound=bound)


def test_bpdn_feasibility_contract():
    rng = np.random.default_rng(1)
    for trial in range(20):
        m, n = 6, 10
        D = rng.standard_normal((m, n))
        c = rng.standard_normal(m)
        eps = float(rng.uniform(0, 0.5)) * np.linalg.norm(c)
        res = bpdn(D, c, eps)
        if res.converged:
            assert np.linalg.norm(D @ res.x - c) <= eps + 1e-6 * (1 + np.linalg.norm(c))


def test_bpdn_scaling_covariance():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((5, 12))
    c = rng.standard_normal(5)
    eps = 0.1 * np.linalg.norm(c)
    base = bpdn(D, c, eps).objective
    for t in (0.5, 2.0, 10.0):
        scaled = bpdn(D, t * c, t * eps).objective
        assert scaled == pytest.approx(t * base, rel=1e-6, abs=1e-9)


def test_bpdn_oracle_equivalence_small():
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        D = rng.standard_normal((m, n))
        x_true = np.zeros(n)
        supp = rng.choice(n, size=min(m, 2), replace=False)
        x_true[supp] = rng.standard_normal(len(supp))
        c = D @ x_true
        obj, _ = brute_force_bp_oracle(D, c)
        res = bpdn(D, c, 0.0, SolverOptions(inner_max=20000))
        assert res.objective == pytest.approx(obj, abs=1e-4)


def test_bpdn_direct_solve_full_column_rank():
    rng = np.random.default_rng(8)
    for D in (rng.standard_normal((12, 8)), rng.standard_normal((8, 8))):
        c = D @ rng.standard_normal(D.shape[1])
        res = bpdn(D, c, 0.0)
        assert res.converged and res.iterations == 0
        assert np.allclose(res.x, np.linalg.pinv(D) @ c, atol=1e-10)
        assert np.linalg.norm(D @ res.x - c) <= 1e-9 * (1 + np.linalg.norm(c))


def test_bpdn_direct_solve_reports_inconsistent_system():
    rng = np.random.default_rng(9)
    D = rng.standard_normal((20, 8))
    c = rng.standard_normal(20)
    res = bpdn(D, c, 0.0)
    lsq = np.linalg.lstsq(D, c, rcond=None)[0]
    assert not res.converged and res.iterations == 0
    residual = np.linalg.norm(D @ res.x - c)
    assert residual == pytest.approx(np.linalg.norm(D @ lsq - c), rel=1e-9)
    assert residual > 0.1


def _linprog_bp(D, c):
    """min ||x||_1 s.t. D x = c as the LP min 1'(p + q) s.t. D (p - q) = c, p, q >= 0."""
    from scipy.optimize import linprog

    n = D.shape[1]
    lp = linprog(np.ones(2 * n), A_eq=np.hstack([D, -D]), b_eq=c, bounds=(0, None), method="highs")
    assert lp.status == 0
    return lp.fun


def _sparse_rhs(rng, D, k=3):
    x = np.zeros(D.shape[1])
    x[rng.choice(D.shape[1], size=k, replace=False)] = rng.standard_normal(k)
    return D @ x


def test_bpdn_matches_linprog_basis_pursuit_at_n64():
    rng = np.random.default_rng(10)
    for trial in range(6):
        D = rng.standard_normal((40, 64))
        c = rng.standard_normal(40) if trial % 2 else _sparse_rhs(rng, D)
        res = bpdn(D, c, 0.0)
        assert res.converged
        assert res.objective == pytest.approx(_linprog_bp(D, c), rel=1e-9)
        assert np.linalg.norm(D @ res.x - c) <= 1e-9 * (1 + np.linalg.norm(c))


def test_bpdn_exact_path_step_count():
    # Each homotopy step adds or drops one index; the path stays short.
    rng = np.random.default_rng(12)
    for trial in range(20):
        m = int(rng.integers(8, 48))
        D = rng.standard_normal((m, 64))
        c = rng.standard_normal(m) if trial % 2 else _sparse_rhs(rng, D)
        res = bpdn(D, c, 0.0)
        assert res.converged
        assert 1 <= res.iterations <= 3 * m


def test_bpdn_exact_path_with_duplicated_rows():
    # rank(D) = 30 < m = 36 < n = 64: the path runs on the 30 orthonormal rows.
    rng = np.random.default_rng(13)
    D0 = rng.standard_normal((30, 64))
    D = np.vstack([D0, D0[:6]])
    for c in (D @ rng.standard_normal(64), _sparse_rhs(rng, D)):
        res = bpdn(D, c, 0.0)
        assert res.converged
        assert res.objective == pytest.approx(_linprog_bp(D0, c[:30]), rel=1e-9)
        assert np.linalg.norm(D @ res.x - c) <= 1e-9 * (1 + np.linalg.norm(c))
    # Repeated rows that disagree make D x = c infeasible: an exact verdict.
    c = D @ rng.standard_normal(64)
    c[-1] += 1.0
    res = bpdn(D, c, 0.0)
    assert not res.converged
    assert np.linalg.norm(D @ res.x - c) > 0.1


@pytest.mark.parametrize(
    "m, epsilon",
    [(16, 0.0), (48, 0.0), (48, 0.05)],
    ids=["m-below-n", "m-above-n", "noisy"],
)
def test_real_solve_makes_one_call_per_step(m, epsilon, monkeypatch):
    # Each outer step and each flip probe calls bpdn once: no call in a chain
    # repeats the right-hand side of the call before it, and no probe repeats
    # a pattern solved earlier in its flip descent or the chain's fixed point.
    # No call is solved again, and these sizes never reach a cap.  At m > n
    # with eps = 0 a chain that fits y exactly is the last, and it runs no
    # probes.  Every outer step, the first included, is a bpdn call: a burn-in
    # hands over only its pattern and level count.
    chains = []  # per chain: outer-step right-hand sides, probe right-hand sides, outcome
    sink = []
    real_bpdn, real_restart, real_flip = solver.bpdn, solver._run_restart, solver._flip_descent

    def restart(*args, **kwargs):
        outer, probes = [], []
        sink[:] = [outer]
        out = real_restart(*args, **kwargs)
        chains.append((outer, probes, out))
        return out

    def flip_descent(*args, **kwargs):
        sink[:] = [chains[-1][1]]
        return real_flip(*args, **kwargs)

    def counting_bpdn(D, c, epsilon, opts, **kwargs):
        res = real_bpdn(D, c, epsilon, opts, **kwargs)
        assert res.converged or res.iterations < opts.inner_max
        sink[0].append(np.asarray(c).tobytes())
        return res

    monkeypatch.setattr(solver, "_run_restart", restart)
    monkeypatch.setattr(solver, "_flip_descent", flip_descent)
    monkeypatch.setattr(solver, "bpdn", counting_bpdn)
    opts = SolverOptions(restarts=2, restart_seed=3, flip_candidates=6)
    for t in range(3):
        inst = make_instance("real", 24, 2, m, SeedSpec(97, (m, t)), epsilon=epsilon, bias=1.0)
        chains.clear()
        solve_affine_pr_real(inst.ensemble, inst.y, epsilon, opts)
        scale = 1.0 + float(np.linalg.norm(inst.y))
        first = chains[0][2]
        stop = m > 24 and epsilon == 0.0 and _violation(first.feasibility, 0.0, scale) == 0.0
        assert len(chains) == (1 if stop else 2)
        for outer, probes, out in chains:
            calls = outer + probes
            assert outer and all(a != b for a, b in zip(calls, calls[1:]))
            solved = probes + (outer[-1:] if out.termination == "sign_fixed_point" else [])
            assert len(set(solved)) == len(solved)
        if stop:
            assert not chains[0][1]


def test_lasso_path_stops_at_its_cap():
    # A real m < n call takes ~m path steps; a cap of 1 cuts it after the first.
    rng = np.random.default_rng(98)
    res = bpdn(rng.standard_normal((6, 12)), rng.standard_normal(6), 0.0, SolverOptions(inner_max=1))
    assert (res.iterations, res.converged) == (1, False)


def _path_problem(seed, noisy):
    """Random real R with r < n rows and w; orthonormal rows and target 0 as
    ``bpdn`` passes them at epsilon = 0, Gaussian rows and a target in
    (0, ||w||^2) at epsilon > 0."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(3, 30))
    n = int(rng.integers(r + 1, 64))
    R = rng.standard_normal((r, n))
    w = rng.standard_normal(r)
    if noisy:
        return R, w, float(rng.uniform(0.05, 0.8)) * float(w @ w)
    return np.linalg.qr(R.T)[0].T, w, 0.0


@pytest.mark.parametrize("noisy", [False, True], ids=["eps-0", "target"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lasso_path_bound_abandons_only_a_path_above_it(noisy, seed):
    # The dual value at a breakpoint never exceeds the optimum, so a bound at
    # or above it changes nothing; at 0.99 of it the path is abandoned, and
    # never after more steps than the whole path takes.
    R, w, target = _path_problem(seed, noisy)
    x, steps, certified, abandoned = solver._bp_homotopy(R, w, target, 10_000)
    assert not abandoned
    optimum = float(np.sum(np.abs(x)))
    for bound in (math.inf, optimum * (1.0 + 1e-6)):
        got = solver._bp_homotopy(R, w, target, 10_000, bound)
        assert got[0].tobytes() == x.tobytes()
        assert got[1:] == (steps, certified, False)
    x_a, steps_a, _, abandoned_a = solver._bp_homotopy(R, w, target, 10_000, 0.99 * optimum)
    assert abandoned_a and steps_a <= steps
    assert float(np.sum(np.abs(x_a))) <= optimum * (1.0 + 1e-9)


def test_bpdn_abandoned_call_is_not_converged():
    # An abandoned call is labelled as such, not converged and not capped.
    rng = np.random.default_rng(99)
    D = rng.standard_normal((30, 64))
    for epsilon in (0.0, 0.5):
        c = rng.standard_normal(30)
        full = bpdn(D, c, epsilon)
        assert full.converged and not full.abandoned
        res = bpdn(D, c, epsilon, bound=0.5 * full.objective)
        assert (res.converged, res.abandoned) == (False, True)
        assert 0 < res.iterations < full.iterations
        kept = bpdn(D, c, epsilon, bound=full.objective * (1.0 + 1e-6))
        assert kept.x.tobytes() == full.x.tobytes()
        assert (kept.iterations, kept.converged, kept.abandoned) == (full.iterations, True, False)


@pytest.mark.parametrize(
    "m, epsilon", [(40, 0.0), (40, 0.05)], ids=["criterion-2-m40", "noisy-m40"]
)
def test_probe_bound_keeps_the_solve_bytes(m, epsilon, monkeypatch):
    # Flip probes abandoned on the chain's key change no result: the same
    # solve with every bound forced to inf returns the same report, after
    # at least as many inner steps.
    opts = SolverOptions(restarts=2, restart_seed=1)
    real_bpdn = solver.bpdn
    abandoned = []

    def recording(D, c, eps, opts, **kwargs):
        res = real_bpdn(D, c, eps, opts, **kwargs)
        if res.abandoned:
            assert res.iterations < opts.inner_max
            abandoned.append(res)
        return res

    def unbounded(D, c, eps, opts, **kwargs):
        return real_bpdn(D, c, eps, opts, **{**kwargs, "bound": math.inf})

    for t in range(4):
        inst = make_instance("real", 64, 3, m, SeedSpec(20240817, (m, t)), epsilon=epsilon, bias=1.0)
        monkeypatch.setattr(solver, "bpdn", recording)
        rep = solve_affine_pr_real(inst.ensemble, inst.y, epsilon, opts)
        monkeypatch.setattr(solver, "bpdn", unbounded)
        ref = solve_affine_pr_real(inst.ensemble, inst.y, epsilon, opts)
        assert rep.xhat.tobytes() == ref.xhat.tobytes()
        assert rep.trace == ref.trace
        assert rep.termination == ref.termination
        assert rep.restart_index_of_best == ref.restart_index_of_best
        assert rep.burn_in_levels == ref.burn_in_levels
        assert rep.inner_iters_total <= ref.inner_iters_total
    assert abandoned


def _recording_bpdn(monkeypatch, calls, probe_capped=False):
    """Patch solver.bpdn to append (right-hand side bytes, cap, result) of each
    call to ``calls``; with ``probe_capped`` a flip probe reports itself cut
    at its cap."""
    real_bpdn = solver.bpdn

    def recording(D, c, epsilon, opts, **kwargs):
        res = real_bpdn(D, c, epsilon, opts, **kwargs)
        if probe_capped and opts.inner_max == solver._PROBE_CAP:
            res = solver.BpdnResult(res.x, solver._PROBE_CAP, False)
        calls.append((np.asarray(c).tobytes(), opts.inner_max, res))
        return res

    monkeypatch.setattr(solver, "bpdn", recording)


def test_each_pattern_is_solved_once_at_its_cap(monkeypatch):
    # With the outer cap at 5 most outer steps here are cut, and every probe
    # reports that it was.  No call is solved again with the full budget or
    # on the right-hand side of the call before it, and a chain whose last
    # outer call was cut ends infeasible_inner.
    monkeypatch.setattr(solver, "_OUTER_CAP", 5)
    calls, chains = [], []
    _recording_bpdn(monkeypatch, calls, probe_capped=True)
    real_restart = solver._run_restart

    def restart(*args, **kwargs):
        start = len(calls)
        out = real_restart(*args, **kwargs)
        chains.append((calls[start:], out))
        return out

    monkeypatch.setattr(solver, "_run_restart", restart)
    opts = SolverOptions(restarts=2, restart_seed=3)
    for t in range(6):
        inst = make_instance("real", 24, 2, 16, SeedSpec(97, (16, t)), bias=1.0)
        calls.clear()
        solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
        assert calls and all(cap != opts.inner_max for _, cap, _ in calls)
        assert all(a[0] != b[0] for a, b in zip(calls, calls[1:]))
    last = [(outer[-1][2], out) for outer, out in chains]
    ends_cut = [out for res, out in last if (res.iterations, res.converged) == (5, False)]
    assert ends_cut
    assert all(out.termination == "infeasible_inner" for out in ends_cut)


def test_complex_solve_runs_random_restart_chains():
    # Chains 0 and 1 start from the bias anchor; chain 2 from a random phase pattern.
    inst = make_instance("complex", 16, 1, 40, SeedSpec(99))
    opts = SolverOptions(restarts=3, restart_seed=4)
    first = solve_affine_pr_complex(inst.ensemble, inst.y, 0.0, opts)
    again = solve_affine_pr_complex(inst.ensemble, inst.y, 0.0, opts)
    assert len(first.burn_in_levels) == 3
    assert first.xhat.tobytes() == again.xhat.tobytes()
    assert (first.objective, first.feasibility, first.trace, first.restart_index_of_best) == (
        again.objective,
        again.feasibility,
        again.trace,
        again.restart_index_of_best,
    )


@pytest.mark.parametrize("epsilon", [True, float("inf"), "0.1"], ids=["bool", "inf", "str"])
def test_bpdn_and_solvers_reject_bad_epsilon(epsilon):
    # bpdn and the real solver took True as 1 and bpdn took inf as "return 0";
    # the string failed mid-solve with a TypeError.
    with pytest.raises(ValueError, match="^epsilon "):
        bpdn(np.eye(3), np.ones(3), epsilon)
    real = make_instance("real", 8, 1, 12, SeedSpec(16), bias=1.0)
    cplx = make_instance("complex", 8, 1, 12, SeedSpec(17))
    for solve, inst in ((solve_affine_pr_real, real), (solve_affine_pr_complex, cplx)):
        with pytest.raises(ValueError, match="^epsilon "):
            solve(inst.ensemble, inst.y, epsilon, FAST)


def _assert_bpdn_optimal(D, c, eps, x):
    """KKT conditions of min ||x||_1 s.t. ||D x - c|| <= eps at an active constraint."""
    tol = 1e-9 * (1 + np.linalg.norm(c))
    assert abs(np.linalg.norm(D @ x - c) - eps) <= tol
    g = D.T @ (c - D @ x)
    lam = np.max(np.abs(g))
    assert lam > 0
    supp = np.flatnonzero(x)
    assert supp.size > 0
    assert np.max(np.abs(g[supp] - lam * np.sign(x[supp]))) <= 1e-9 * lam


def test_bpdn_noisy_feasibility_contract_at_n64():
    rng = np.random.default_rng(11)
    for m in (40, 100, 160):
        D = rng.standard_normal((m, 64))
        x = np.zeros(64)
        x[rng.choice(64, size=3, replace=False)] = rng.standard_normal(3)
        c = D @ x + 0.05 * rng.standard_normal(m)
        eps = 0.1 * np.linalg.norm(c)
        res = bpdn(D, c, eps)
        assert res.converged
        assert np.linalg.norm(D @ res.x - c) <= eps + 1e-6 * (1 + np.linalg.norm(c))
        assert res.objective <= np.sum(np.abs(x)) + 1e-6
        _assert_bpdn_optimal(D, c, eps, res.x)


def test_bpdn_noisy_infeasible_verdict():
    # With m > n the part of c outside range(D) is beyond every x's reach.
    rng = np.random.default_rng(15)
    D = rng.standard_normal((100, 64))
    c = rng.standard_normal(100)
    lsq = np.linalg.pinv(D) @ c
    eps = 0.5 * np.linalg.norm(D @ lsq - c)
    res = bpdn(D, c, eps)
    assert not res.converged and res.iterations == 0
    assert np.allclose(res.x, lsq, rtol=0, atol=1e-10)


def test_bpdn_rejects_non_finite_inputs():
    D = np.eye(3)
    c = np.ones(3)
    with pytest.raises(ValueError, match="^D has"):
        bpdn(np.where(D == 1, np.nan, D), c, 0.0)
    with pytest.raises(ValueError, match="^c has"):
        bpdn(D, np.array([1.0, np.inf, 0.0]), 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        bpdn(D, c, float("nan"))
    # Only the solver passes svd= and skips the checks; a public call runs
    # them whichever path its shape and epsilon pick: direct, the lasso path
    # or the noisy lasso path.
    rng = np.random.default_rng(17)
    for m, epsilon in ((12, 0.0), (6, 0.0), (6, 0.1)):
        D = rng.standard_normal((m, 8))
        c = rng.standard_normal(m)
        with pytest.raises(ValueError, match="^D has"):
            bpdn(np.where(D == D[1, 2], np.nan, D), c, epsilon)
        with pytest.raises(ValueError, match="^c has"):
            bpdn(D, np.where(c == c[3], np.nan, c), epsilon)


def test_solvers_reject_non_finite_inputs():
    real = make_instance("real", 8, 1, 12, SeedSpec(16), bias=1.0)
    cplx = make_instance("complex", 8, 1, 12, SeedSpec(17))
    for solve, inst, name in (
        (solve_affine_pr_real, real, "y"),
        (solve_affine_pr_complex, cplx, "y_or_ytilde"),
    ):
        ens = inst.ensemble
        bad_y = inst.y.copy()
        bad_y[3] = np.nan
        with pytest.raises(ValueError, match=f"^{name} has"):
            solve(ens, bad_y, 0.0, FAST)
        bad_A = ens.A.copy()
        bad_A[0, 0] = np.inf
        with pytest.raises(ValueError, match="^A has"):
            solve(MeasurementEnsemble(ens.field, bad_A, ens.b), inst.y, 0.0, FAST)
        bad_b = ens.b.copy()
        bad_b[1] = np.nan
        with pytest.raises(ValueError, match="^b has"):
            solve(MeasurementEnsemble(ens.field, ens.A, bad_b), inst.y, 0.0, FAST)


def test_real_solver_accepts_negative_magnitudes():
    # Noisy magnitudes can dip below zero; they are data, not an error.
    inst = make_instance("real", 8, 1, 12, SeedSpec(18), bias=1.0)
    y = inst.y.copy()
    y[0] = -0.01
    rep = solve_affine_pr_real(inst.ensemble, y, 0.05, FAST)
    assert np.all(np.isfinite(rep.xhat))


def test_solvers_reject_negative_noiseless_magnitudes():
    real = make_instance("real", 8, 1, 12, SeedSpec(16), bias=1.0)
    cplx = make_instance("complex", 8, 1, 12, SeedSpec(17), with_intensity=True)
    for solve, inst, name in (
        (solve_affine_pr_real, real, "y"),
        (solve_affine_pr_complex, cplx, "y_or_ytilde"),
    ):
        y = inst.y.copy()
        y[2] = -1e-12
        with pytest.raises(ValueError, match=f"^{name} has negative"):
            solve(inst.ensemble, y, 0.0, FAST)
    # Intensities below zero are clipped, not rejected.
    data = cplx.ytilde.copy()
    data[0] = -0.5
    opts = SolverOptions(restarts=1, mode="intensity")
    assert solve_affine_pr_complex(cplx.ensemble, data, 0.0, opts).clipped_intensities == 1


def reference_burn_in(A, b, y_target, u0, freeze_levels, schedule, svd, certify, floor):
    """The burn-in without the early exit: every level down to ``floor`` runs."""
    m, n = A.shape
    Ah = A.conj().T
    lip = float(svd.s[0]) ** 2 if svd.s.size else 0.0
    if lip == 0.0:
        return u0, 0
    step = 1.0 / lip
    x = np.zeros(n, dtype=A.dtype)
    u = u0
    lam = float(np.max(np.abs(Ah @ (u * y_target - b)), initial=0.0))
    if lam == 0.0:
        return u, 0
    lam_min = floor * lam
    level = 0
    while lam > lam_min:
        frozen = level < freeze_levels
        for _ in range(schedule.steps):
            v = A @ x + b
            if not frozen:
                u = _unit_pattern(v)
            resid = v - u * y_target
            if not frozen:
                resid = resid * (np.abs(v) >= y_target / (1.0 + schedule.trust))
            x = _soft_threshold(x - step * (Ah @ resid), step * lam)
        lam *= schedule.shrink
        level += 1
    return _unit_pattern(A @ x + b), level


def full_burn_in(*args):
    """``reference_burn_in`` down to 1e-7, whatever floor the solver hands it."""
    return reference_burn_in(*args[:-1], 1e-7)


def stacked(reference):
    """``solver._homotopy_burn_in``'s stacked form of a one-trial ``reference``."""

    def burn_in(A, b, y_target, u0, freeze_levels, schedule, svds, certify, floor):
        return [
            reference(A[t], b[t], y_target[t], u0[t], freeze_levels, schedule, svds[t], certify, floor)
            for t in range(len(A))
        ]

    return burn_in


def full_levels(schedule, floor) -> int:
    lam, levels = 1.0, 0
    while lam > floor:
        lam *= schedule.shrink
        levels += 1
    return levels


@pytest.mark.parametrize("m", [80, 100, 160])
def test_burn_in_exit_keeps_the_solve_bytes(m, monkeypatch):
    # Chains: the anchor on _FAST, the anchor on _SLOW, one random pattern
    # pinned for _FREEZE_LEVELS = 12 levels; both solves stop after the
    # first chain that fits y exactly.
    opts = SolverOptions(restarts=3, restart_seed=11)
    full = [full_levels(s, 1e-7) for s in (_FAST, _SLOW, _FAST)]
    recovered = 0
    for t in range(10):
        inst = make_instance("real", 64, 3, m, SeedSpec(95, (m, t)), bias=1.0)
        rep = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_homotopy_burn_in", stacked(reference_burn_in))
            ref = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
        assert rep.xhat.tobytes() == ref.xhat.tobytes()
        assert rep.trace == ref.trace
        assert rep.termination == ref.termination
        assert rep.restart_index_of_best == ref.restart_index_of_best
        assert len(rep.burn_in_levels) == len(ref.burn_in_levels)
        assert ref.burn_in_levels == full[: len(ref.burn_in_levels)]
        assert all(a <= f for a, f in zip(rep.burn_in_levels, full))
        if error_metrics(rep.xhat, inst.x0).relative_plain <= 1e-5:
            assert sum(rep.burn_in_levels) < sum(ref.burn_in_levels)
            recovered += 1
    assert recovered >= 8


def reference_restarts(A, b, epsilon, opts, feas_fn, y_target, scale, burn_in=None):
    """Every restart chain, each followed by flip descent: no stop at an exact fit."""
    m, n = A.shape
    svd = solver._thin_svd(A)
    unique = epsilon == 0.0 and not np.iscomplexobj(A) and svd.s.size == n < m
    outcomes = []
    for u0, freeze, schedule in solver._restart_chains(A, b, opts):
        stack = (a[None] for a in (A, b, y_target, u0))
        burn = solver._homotopy_burn_in(*stack, freeze, schedule, [svd], unique, 1e-7)[0]
        out = solver._run_restart(A, b, epsilon, opts, burn, feas_fn, y_target, svd)
        outcomes.append(
            solver._flip_descent(A, b, y_target, epsilon, opts, out, feas_fn, svd, scale)
        )
    return outcomes


def test_chain_stop_keeps_the_solve_bytes(monkeypatch):
    # At real m > n and eps = 0 an exact fit is unique, so the chains and
    # flip probes the stop skips cannot change the report's result.
    opts = SolverOptions(restarts=3, restart_seed=11)
    stopped = 0
    for m in (80, 100, 160):
        for t in range(4):
            inst = make_instance("real", 64, 3, m, SeedSpec(98, (m, t)), bias=1.0)
            rep = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_solve_restarts", reference_restarts)
                ref = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
            assert rep.xhat.tobytes() == ref.xhat.tobytes()
            assert rep.trace == ref.trace
            assert rep.termination == ref.termination
            assert rep.restart_index_of_best == ref.restart_index_of_best
            assert len(ref.burn_in_levels) == opts.restarts
            assert rep.burn_in_levels == ref.burn_in_levels[: len(rep.burn_in_levels)]
            assert rep.inner_iters_total <= ref.inner_iters_total
            stopped += len(rep.burn_in_levels) < opts.restarts
    assert stopped >= 9


@pytest.mark.parametrize(
    "field, n, k, m, epsilon, floor",
    [
        ("real", 64, 3, 40, 0.0, 1e-4),  # m < n: the pattern has settled by 1e-4
        ("real", 64, 3, 40, 0.05, 1e-7),  # m < n, eps > 0: noisy patterns flicker
        ("real", 16, 2, 16, 0.0, 1e-7),  # m = n: every pattern passes the direct test
        ("real", 16, 2, 40, 0.05, 1e-7),  # eps > 0: a pattern fixes no single point
        ("complex", 32, 2, 112, 0.0, 1e-7),  # criterion 3's config: phases are continuous
    ],
    ids=["real-64-3-40-0.0", "real-64-3-40-0.05", "real-16-2-16-0.0", "real-16-2-40-0.05",
         "complex-32-2-112-0.0"],
)
def test_burn_in_exit_scope(field, n, k, m, epsilon, floor):
    # Noiseless data: without its guards the exit would fire at m = n and at
    # eps > 0, and the chain stop at every case here, since each solve fits
    # y to within its collar.  Only a real noiseless solve with rank(A) < n
    # ends its schedule at the settled floor.
    inst = make_instance(field, n, k, m, SeedSpec(96))
    solve = solve_affine_pr_real if field == "real" else solve_affine_pr_complex
    rep = solve(inst.ensemble, inst.y, epsilon, FAST)
    assert _violation(rep.feasibility, epsilon, 1.0 + float(np.linalg.norm(inst.y))) == 0.0
    assert len(rep.burn_in_levels) == FAST.restarts
    assert rep.burn_in_levels == [full_levels(_FAST, floor), full_levels(_SLOW, floor)]


@pytest.mark.parametrize("m", [30, 40, 50])
def test_settled_burn_in_keeps_the_solve_bytes(m, monkeypatch):
    # At real m < n with eps = 0 the outer loop reads only the burn-in's sign
    # pattern, and ending the schedule at 1e-4 hands over the pattern the
    # full schedule ends on.  Chains: the anchor on _FAST, the anchor on
    # _SLOW, one random pattern pinned for _FREEZE_LEVELS = 12 levels.
    opts = SolverOptions(restarts=3, restart_seed=11)
    schedules = (_FAST, _SLOW, _FAST)
    settled = [full_levels(s, 1e-4) for s in schedules]
    for t in range(3):
        inst = make_instance("real", 64, 3, m, SeedSpec(99, (m, t)), bias=1.0)
        rep = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_homotopy_burn_in", stacked(full_burn_in))
            ref = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
        assert rep.xhat.tobytes() == ref.xhat.tobytes()
        assert rep.trace == ref.trace
        assert rep.termination == ref.termination
        assert rep.restart_index_of_best == ref.restart_index_of_best
        assert len(rep.burn_in_levels) == len(ref.burn_in_levels) == opts.restarts
        assert ref.burn_in_levels == [full_levels(s, 1e-7) for s in schedules]
        assert all(a <= f for a, f in zip(rep.burn_in_levels, settled))


def test_bpdn_complex_field():
    rng = np.random.default_rng(4)
    D = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))) / np.sqrt(2)
    x = np.zeros(6, dtype=complex)
    x[[1, 4]] = [1 + 1j, -2j]
    res = bpdn(D, D @ x, 0.0)
    assert np.linalg.norm(D @ res.x - D @ x) <= 1e-6 * (1 + np.linalg.norm(D @ x))
    assert res.objective <= np.sum(np.abs(x)) + 1e-6


def test_brute_oracle_examples():
    obj, x = brute_force_bp_oracle(np.eye(2), np.array([1.0, -2.0]))
    assert obj == pytest.approx(3.0)
    assert np.allclose(x, [1.0, -2.0])
    with pytest.raises(ValueError):
        brute_force_bp_oracle(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        brute_force_bp_oracle(np.zeros((3, 2)), np.zeros(3))


def test_sign_rotation_identity():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((7, 4))
    b = rng.standard_normal(7)
    x = rng.standard_normal(4)
    y = rng.standard_normal(7)
    v = A @ x  # fix the evaluation of Ax so only the exact identity varies
    for _ in range(10):
        s = rng.choice([-1.0, 1.0], size=7)
        lhs = np.linalg.norm(s * (v + b) - y)
        rhs = np.linalg.norm(v - (s * y - b))
        assert lhs == pytest.approx(rhs, rel=1e-15, abs=0.0)


def test_real_solver_zero_signal():
    inst = make_instance("real", 10, 1, 8, SeedSpec(6))
    y = np.abs(inst.ensemble.A @ np.zeros(10) + inst.ensemble.b)
    rep = solve_affine_pr_real(inst.ensemble, y, 0.0, FAST)
    assert np.max(np.abs(rep.xhat)) == 0.0
    assert rep.feasibility == 0.0
    assert rep.termination == "sign_fixed_point"


def test_real_solver_scalar_case():
    ens = MeasurementEnsemble("real", np.array([[1.0]]), np.array([1.0]))
    rep = solve_affine_pr_real(ens, np.array([2.0]), 0.0, SolverOptions(restarts=3))
    assert rep.xhat == pytest.approx([1.0], abs=1e-6)
    assert rep.objective == pytest.approx(1.0, abs=1e-6)


def test_real_solver_recovers_sparse_signal():
    opts = SolverOptions(restarts=2, restart_seed=3)
    hits = 0
    for t in range(5):
        inst = make_instance("real", 64, 3, 120, SeedSpec(90, (t,)), bias=1.0)
        rep = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
        met = error_metrics(rep.xhat, inst.x0)
        hits += met.relative_plain <= 1e-5
    assert hits >= 4


def test_real_solver_selection_is_lexicographic_minimum():
    inst = make_instance("real", 16, 2, 14, SeedSpec(44), bias=1.0)
    opts = SolverOptions(restarts=4, restart_seed=5)
    A, b, y = inst.ensemble.A, inst.ensemble.b, inst.y

    def feas(x):
        return float(np.linalg.norm(np.abs(A @ x + b) - y))

    scale = 1.0 + float(np.linalg.norm(y))
    outcomes = _solve_restarts(A, b, 0.0, opts, feas, y, scale)
    keys = [(_violation(o.feasibility, 0.0, scale), o.objective) for o in outcomes]
    rep = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, opts)
    chosen = (_violation(rep.feasibility, 0.0, scale), rep.objective)
    assert chosen == min(keys)


def test_real_solver_report_recomputed_fields():
    inst = make_instance("real", 24, 2, 20, SeedSpec(45), bias=1.0)
    rep = solve_affine_pr_real(inst.ensemble, inst.y, 0.0, FAST)
    assert rep.objective == pytest.approx(float(np.sum(np.abs(rep.xhat))))
    assert rep.feasibility == pytest.approx(
        float(np.linalg.norm(np.abs(inst.ensemble.A @ rep.xhat + inst.ensemble.b) - inst.y))
    )
    assert rep.trace, "trace must record outer iterations"
    assert rep.termination in ("sign_fixed_point", "max_outer", "infeasible_inner")


def test_complex_solver_zero_signal():
    inst = make_instance("complex", 8, 1, 6, SeedSpec(7))
    y = np.abs(inst.ensemble.A @ np.zeros(8, dtype=complex) + inst.ensemble.b)
    rep = solve_affine_pr_complex(inst.ensemble, y, 0.0, FAST)
    assert np.max(np.abs(rep.xhat)) == 0.0


def test_complex_solver_recovers():
    from affinepr import global_phase_error

    opts = SolverOptions(restarts=2, restart_seed=3)
    hits = 0
    for t in range(3):
        inst = make_instance("complex", 32, 2, 96, SeedSpec(91, (t,)))
        rep = solve_affine_pr_complex(inst.ensemble, inst.y, 0.0, opts)
        hits += global_phase_error(rep.xhat, inst.x0) <= 1e-4
    assert hits >= 2


def test_complex_intensity_mode_feasibility():
    inst = make_instance("complex", 16, 2, 48, SeedSpec(92), with_intensity=True)
    opts = SolverOptions(
        restarts=2, restart_seed=3, mode="intensity", inner_tol=1e-12, inner_max=20000
    )
    rep = solve_affine_pr_complex(inst.ensemble, inst.ytilde, 0.0, opts)
    # x0 is feasible with zero intensity residual, so the accepted report
    # cannot be meaningfully less feasible
    from affinepr import lifted_intensity

    feas_x0 = np.linalg.norm(lifted_intensity(inst.ensemble, inst.x0) - inst.ytilde)
    assert rep.feasibility <= feas_x0 + 1e-8


def test_intensity_clipping_logged():
    inst = make_instance("complex", 8, 1, 6, SeedSpec(93), with_intensity=True)
    data = inst.ytilde.copy()
    data[0] = -0.5
    opts = SolverOptions(restarts=1, mode="intensity")
    rep = solve_affine_pr_complex(inst.ensemble, data, 1.0, opts)
    assert rep.clipped_intensities == 1


def test_real_solver_rejects_intensity_mode():
    # Intensities handed to the real solver used to be read as magnitudes.
    inst = make_instance("real", 16, 2, 40, SeedSpec(3), with_intensity=True)
    opts = SolverOptions(restarts=1, mode="intensity")
    with pytest.raises(ValueError, match="mode 'intensity'"):
        solve_affine_pr_real(inst.ensemble, inst.ytilde, 0.0, opts)


def test_field_mismatch_errors():
    real_inst = make_instance("real", 6, 1, 5, SeedSpec(14))
    complex_inst = make_instance("complex", 6, 1, 5, SeedSpec(15))
    with pytest.raises(ValueError):
        solve_affine_pr_complex(real_inst.ensemble, real_inst.y, 0.0, FAST)
    with pytest.raises(ValueError):
        solve_affine_pr_real(complex_inst.ensemble, complex_inst.y, 0.0, FAST)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(restarts=0)
    with pytest.raises(ValueError):
        SolverOptions(inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(mode="projective")


@pytest.mark.parametrize(
    "key, value",
    [
        ("restart_seed", -1),
        ("restart_seed", 1.5),
        ("restarts", 3.0),
        ("restarts", True),
        ("flip_candidates", 2.5),
        ("inner_max", 700.5),
        ("inner_tol", float("nan")),
        ("inner_tol", float("inf")),
        ("inner_tol", True),
    ],
)
def test_solver_options_reject_bad_values(key, value):
    # restart_seed=-1 used to run on seed 2**64 - 1; the float counts failed
    # mid-solve with a TypeError, or (flip_candidates, inner_max, True) ran.
    with pytest.raises(ValueError, match=key):
        SolverOptions(**{key: value})


def test_solver_options_accept_numpy_integers():
    opts = SolverOptions(restarts=np.int64(3), restart_seed=np.uint64(2**64 - 1))
    assert (opts.restarts, opts.restart_seed) == (3, 2**64 - 1)
    assert type(opts.restarts) is int


def _report_bytes(rep):
    return (
        rep.xhat.tobytes(),
        rep.trace,
        rep.termination,
        rep.restart_index_of_best,
        rep.outer_iters,
        rep.inner_iters_total,
        rep.burn_in_levels,
    )


def _burn_in_bytes(burn):
    u, levels = burn
    return u.tobytes(), levels


@pytest.mark.parametrize("m", [20, 8], ids=["m-above-n", "m-below-n"])
def test_burn_in_block_keeps_the_solve_bytes(m):
    # A hand-built block: trial 0 has y = |b| (x0 = 0), so lam0 = 0 and it
    # leaves the stack before the first step of every chain; trial 1 has
    # A = 0, so it leaves too, and at m > n its rank 0 puts it in a group of
    # its own; the rest run in lockstep.  Each chain's burn-ins are those of
    # stacks of one, so every chain starts from the whole stack again.
    n = 12
    insts = [make_instance("real", n, 2, m, SeedSpec(94, (m, t)), bias=1.0) for t in range(5)]
    zero = MeasurementEnsemble("real", np.zeros((m, n)), insts[1].ensemble.b)
    ensembles = [insts[0].ensemble, zero] + [inst.ensemble for inst in insts[2:]]
    datas = [np.abs(insts[0].ensemble.b), np.abs(zero.b)] + [inst.y for inst in insts[2:]]
    burns = solver.burn_in_block(ensembles, datas, 0.0, FAST)
    chains = 1 if m > n else FAST.restarts
    assert [len(burn.chains) for burn in burns] == [chains, FAST.restarts] + [chains] * 3
    assert all(levels == 0 for burn in burns[:2] for _, levels in burn.chains)
    assert all(levels > 0 for burn in burns[2:] for _, levels in burn.chains)
    for ens, data, burn in zip(ensembles, datas, burns):
        A, b = ens.A, ens.b
        unique, floor = solver._chain_rule(A, 0.0, burn.svd)
        for (u0, freeze, schedule), handed in zip(solver._restart_chains(A, b, FAST), burn.chains):
            stack = (a[None] for a in (A, b, data, u0))
            alone = solver._homotopy_burn_in(*stack, freeze, schedule, [burn.svd], unique, floor)
            assert _burn_in_bytes(handed) == _burn_in_bytes(alone[0])
        rep = solve_affine_pr_real(ens, data, 0.0, FAST, burn_in=burn)
        assert _report_bytes(rep) == _report_bytes(solve_affine_pr_real(ens, data, 0.0, FAST))


@pytest.mark.parametrize(
    "name, other",
    [("m", ("real", 8, 1, 13)), ("n", ("real", 9, 1, 12)), ("field", ("complex", 8, 1, 12))],
)
def test_burn_in_block_rejects_a_mixed_block(name, other):
    inst = make_instance("real", 8, 1, 12, SeedSpec(1))
    odd = make_instance(*other, SeedSpec(2))
    with pytest.raises(ValueError, match=f"^a block mixes ensembles of different {name}$"):
        solver.burn_in_block([inst.ensemble, odd.ensemble], [inst.y, odd.y], 0.0, FAST)


@pytest.mark.parametrize("name", ["ensemble", "data", "epsilon", "opts"])
def test_solve_rejects_a_burn_in_run_for_other_inputs(name):
    inst = make_instance("real", 8, 1, 12, SeedSpec(1), bias=1.0)
    burn = solver.burn_in_block([inst.ensemble], [inst.y], 0.0, FAST)[0]
    args = {"ensemble": inst.ensemble, "y": inst.y, "epsilon": 0.0, "opts": FAST}
    other = {
        "ensemble": ("ensemble", make_instance("real", 8, 1, 12, SeedSpec(1), bias=1.0).ensemble),
        "data": ("y", inst.y + 0.5),
        "epsilon": ("epsilon", 0.01),
        "opts": ("opts", SolverOptions(restarts=3)),
    }[name]
    args[other[0]] = other[1]
    with pytest.raises(ValueError, match=f"^burn_in was run for another {name}$"):
        solve_affine_pr_real(**args, burn_in=burn)


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("case", ["shape", "non-finite", "negative", "epsilon", "mode"])
def test_burn_in_block_checks_each_input_as_a_solve_does(case):
    inst = make_instance("real", 8, 1, 12, SeedSpec(1), bias=1.0)
    y, epsilon, opts = inst.y.copy(), 0.0, FAST
    if case == "shape":
        y = y[:-1]
    elif case == "non-finite":
        y[3] = np.nan
    elif case == "negative":
        y[3] = -1.0
    elif case == "epsilon":
        epsilon = -0.5
    else:
        opts = SolverOptions(mode="intensity")
    message = _error(solve_affine_pr_real, inst.ensemble, y, epsilon, opts)
    ensembles = [inst.ensemble, inst.ensemble]
    assert _error(solver.burn_in_block, ensembles, [inst.y, y], epsilon, opts) == message


def test_burn_in_block_needs_one_data_vector_per_ensemble():
    inst = make_instance("real", 8, 1, 12, SeedSpec(1))
    for ensembles, datas in (([], []), ([inst.ensemble], [inst.y, inst.y])):
        with pytest.raises(ValueError, match="^a block needs one data vector per ensemble"):
            solver.burn_in_block(ensembles, datas, 0.0, FAST)
