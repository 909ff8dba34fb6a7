"""Property tests of the basis-pursuit solve (epsilon = 0) and of the full
affine phase-retrieval solves.

For ``bpdn`` all three inner paths are covered: the exact homotopy for real
m < n, the direct D^+ c solve when m >= n, and ADMM on D's own rows for
complex m < n.  Each property is a symmetry of min ||x||_1 s.t. D x = c,
so the objective must not depend on it.  The full solves run on instances
they recover exactly, and each symmetry of y = |A x + b| must lead to the
same (or the scaled) signal.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinepr import (
    MeasurementEnsemble,
    SeedSpec,
    SolverOptions,
    make_instance,
    solve_affine_pr_complex,
    solve_affine_pr_real,
)
from affinepr.solver import bpdn

# (m, n, field): exact homotopy, direct solve, ADMM.  The ids of
# the real shapes predate the complex one.
SHAPES = pytest.mark.parametrize(
    "m,n,field",
    [(10, 16, "real"), (24, 12, "real"), (10, 16, "complex")],
    ids=["10-16", "24-12", "10-16-complex"],
)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)
# Complex ADMM starts at rho = 1 whatever the scale of c, and at c ~ 1e-2
# it is still short of its tolerance after the default 2000 iterations.
INNER = {"real": SolverOptions(), "complex": SolverOptions(inner_max=20000)}


def _problem(m, n, field, seed, consistent):
    """D Gaussian; c = D x0 for a 3-sparse x0, or a generic right-hand side."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        if field == "real":
            return rng.standard_normal(shape)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    D = gauss(m, n)
    x0 = np.zeros(n, dtype=D.dtype)
    x0[rng.choice(n, size=3, replace=False)] = gauss(3)
    c = D @ x0 if consistent else gauss(m)
    return D, c


seeds = st.integers(0, 2**32 - 1)


@SHAPES
@PROPERTY
@given(seed=seeds, consistent=st.booleans(), data=st.data())
def test_bpdn_row_permutation_equivariance(m, n, field, seed, consistent, data):
    D, c = _problem(m, n, field, seed, consistent)
    perm = np.array(data.draw(st.permutations(range(m))))
    base = bpdn(D, c, 0.0, INNER[field]).objective
    assert bpdn(D[perm], c[perm], 0.0, INNER[field]).objective == pytest.approx(base, rel=1e-7)


@SHAPES
@PROPERTY
@given(seed=seeds, consistent=st.booleans(), log_t=st.floats(-3.0, 3.0))
def test_bpdn_scale_covariance(m, n, field, seed, consistent, log_t):
    D, c = _problem(m, n, field, seed, consistent)
    t = 10.0**log_t
    base = bpdn(D, c, 0.0, INNER[field]).objective
    assert bpdn(D, t * c, 0.0, INNER[field]).objective == pytest.approx(t * base, rel=1e-7)


@SHAPES
@PROPERTY
@given(seed=seeds, consistent=st.booleans(), theta=st.floats(0.0, 2 * np.pi))
def test_bpdn_sign_symmetry(m, n, field, seed, consistent, theta):
    # c -> -c, or c -> e^{i theta} c in the complex field.
    D, c = _problem(m, n, field, seed, consistent)
    unit = -1.0 if field == "real" else np.exp(1j * theta)
    base = bpdn(D, c, 0.0, INNER[field]).objective
    assert bpdn(D, unit * c, 0.0, INNER[field]).objective == pytest.approx(base, rel=1e-7)


# Full solves: real n=16, k=2, m=40 and complex n=8, k=2, m=32 are recovered
# to ~1e-15 and ~1e-8 relative error, at ~0.1 s per solve.
SOLVES = {
    "real": (16, 2, 40, solve_affine_pr_real, 1e-9),
    "complex": (8, 2, 32, solve_affine_pr_complex, 1e-6),
}
SOLVE_PROPERTY = settings(max_examples=5, deadline=None, derandomize=True, database=None)
_SOLVER = SolverOptions(restarts=2, restart_seed=1)


def _recovered(field, seed):
    """An instance the solver recovers (other draws are discarded), and a
    check that a solve on transformed data returns the expected signal."""
    n, k, m, solve, tol = SOLVES[field]
    inst = make_instance(field, n, k, m, SeedSpec(seed, ("properties", field)))
    base = solve(inst.ensemble, inst.y, 0.0, _SOLVER).xhat
    assume(np.linalg.norm(base - inst.x0) <= tol * np.linalg.norm(inst.x0))

    def solve_with(A, b, y, want):
        xhat = solve(MeasurementEnsemble(field, A, b), y, 0.0, _SOLVER).xhat
        assert np.linalg.norm(xhat - want) <= tol * np.linalg.norm(want)

    return inst, solve_with


@pytest.mark.parametrize("field", sorted(SOLVES))
@SOLVE_PROPERTY
@given(seed=seeds, data=st.data())
def test_solve_row_permutation_invariance(field, seed, data):
    inst, solve_with = _recovered(field, seed)
    perm = np.array(data.draw(st.permutations(range(inst.ensemble.m))))
    A, b = inst.ensemble.A, inst.ensemble.b
    solve_with(A[perm], b[perm], inst.y[perm], inst.x0)


@SOLVE_PROPERTY
@given(seed=seeds)
def test_real_solve_sign_invariance(seed):
    inst, solve_with = _recovered("real", seed)
    solve_with(-inst.ensemble.A, -inst.ensemble.b, inst.y, inst.x0)


@SOLVE_PROPERTY
@given(seed=seeds, theta=st.floats(0.0, 2 * np.pi))
def test_complex_solve_global_phase_invariance(seed, theta):
    inst, solve_with = _recovered("complex", seed)
    phase = np.exp(1j * theta)
    solve_with(phase * inst.ensemble.A, phase * inst.ensemble.b, inst.y, inst.x0)


@pytest.mark.parametrize("field", sorted(SOLVES))
@SOLVE_PROPERTY
@given(seed=seeds, log_t=st.floats(-2.0, 2.0))
def test_solve_scale_covariance(field, seed, log_t):
    inst, solve_with = _recovered(field, seed)
    t = 10.0**log_t
    solve_with(inst.ensemble.A, t * inst.ensemble.b, t * inst.y, t * inst.x0)
