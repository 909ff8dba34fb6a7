import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinepr import (
    MeasurementEnsemble,
    ProblemInstance,
    SeedSpec,
    best_k_term_error,
    bias_band,
    error_metrics,
    forward_model,
    global_phase_error,
    lifted_intensity,
    make_ensemble,
)
from itertools import combinations


def brute_force_bias_band(b, fraction):
    m = len(b)
    need = int(np.ceil(fraction * m))
    lo, hi = np.inf, 0.0
    for size in range(need, m + 1):
        for idx in combinations(range(m), size):
            nrm = float(np.linalg.norm(np.asarray(b)[list(idx)]))
            lo, hi = min(lo, nrm), max(hi, nrm)
    return lo, hi


def test_forward_model_real_scalar():
    ens = MeasurementEnsemble("real", np.array([[2.0]]), np.array([3.0]))
    assert forward_model(ens, np.array([-1.0]), np.array([0.0])) == pytest.approx([1.0])


def test_forward_model_complex_scalar():
    ens = MeasurementEnsemble("complex", np.array([[1.0 + 0j]]), np.array([1j]))
    y = forward_model(ens, np.array([1j]), np.zeros(1))
    assert y == pytest.approx([2.0])


def test_forward_model_zero_matrix_gives_abs_bias():
    ens = MeasurementEnsemble("real", np.zeros((4, 3)), np.array([-1.0, 2.0, 0.0, -3.0]))
    y = forward_model(ens, np.array([5.0, -1.0, 2.0]))
    assert np.allclose(y, [1.0, 2.0, 0.0, 3.0])


def test_forward_model_dimension_and_field_errors():
    ens = MeasurementEnsemble("real", np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        forward_model(ens, np.zeros(2))
    with pytest.raises(ValueError):
        forward_model(ens, np.array([1j, 0, 0]))
    with pytest.raises(ValueError):
        forward_model(ens, np.zeros(3), np.zeros(2))


def test_lifted_intensity_matches_squared_forward():
    ens = make_ensemble("complex", 3, 2, SeedSpec(11))
    x = np.array([0.3 - 0.2j, 1.1 + 0.5j])
    assert np.allclose(lifted_intensity(ens, x), forward_model(ens, x) ** 2, rtol=1e-12)


def test_forward_model_homogeneous_without_bias():
    ens = MeasurementEnsemble(
        "real", np.arange(6, dtype=float).reshape(3, 2) - 2.0, np.zeros(3)
    )
    x = np.array([0.7, -1.3])
    for c in (-2.5, 0.0, 3.0):
        assert np.allclose(forward_model(ens, c * x), abs(c) * forward_model(ens, x))


def test_bias_band_examples():
    a, b = bias_band(np.ones(4), 0.5)
    assert (a, b) == pytest.approx((np.sqrt(2), 2.0))
    a, b = bias_band(np.array([0.0, 0.0, 1.0, 1.0]), 0.5)
    assert (a, b) == pytest.approx((0.0, np.sqrt(2)))


def test_bias_band_constant_closed_form():
    for m in (2, 5, 9, 16):
        c = 2.0
        vec = np.full(m, c / np.sqrt(m))
        a, b = bias_band(vec, 0.5)
        assert a == pytest.approx(c * np.sqrt(np.ceil(m / 2) / m))
        assert b == pytest.approx(c)


def test_bias_band_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(1, 13))
        vec = rng.standard_normal(m)
        frac = float(rng.uniform(0.2, 1.0))
        exact = brute_force_bias_band(vec, frac)
        got = bias_band(vec, frac)
        assert got == pytest.approx(exact, abs=1e-12)


def test_bias_band_rejects_empty():
    with pytest.raises(ValueError):
        bias_band(np.array([]))


def test_best_k_term_examples():
    assert best_k_term_error(np.array([3.0, 2.0, 1.0]), 2, p=1) == pytest.approx(1.0)
    assert best_k_term_error(np.array([3.0, -4.0, 1.0]), 1, p=2) == pytest.approx(np.sqrt(10))
    assert best_k_term_error(np.array([0.0, 5.0, 0.0]), 1, p=1) == 0.0
    # 1.5 used to fail inside numpy with a TypeError, and True ran as 1.
    for k in (4, 1.5, True):
        with pytest.raises(ValueError, match="^k "):
            best_k_term_error(np.zeros(3), k)


def test_best_k_term_tie_break_keeps_lowest_index():
    # both entries have magnitude 2; the k=1 approximation keeps index 0
    assert best_k_term_error(np.array([2.0, -2.0]), 1, p=1) == pytest.approx(2.0)
    assert best_k_term_error(np.array([-2.0, 2.0, 1.0]), 2, p=1) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=2))
@settings(max_examples=40)
def test_best_k_term_monotone_in_k(k, p):
    rng = np.random.default_rng(k * 7 + p)
    x = rng.standard_normal(6)
    if k < 6:
        assert best_k_term_error(x, k + 1, p) <= best_k_term_error(x, k, p) + 1e-12
    nnz = int(np.count_nonzero(x))
    assert best_k_term_error(x, nnz, p) == pytest.approx(0.0, abs=1e-12)


def test_error_metrics_identical():
    x = np.array([1.0, -2.0])
    met = error_metrics(x, x)
    assert met.plain_l2 == 0.0 and met.sign_folded == 0.0 and met.global_phase == 0.0


def test_error_metrics_negated_real():
    x0 = np.array([3.0, 4.0])  # norm 5 >= 1, so theta=pi wins
    met = error_metrics(-x0, x0)
    assert met.sign_folded == pytest.approx(0.0)
    assert met.plain_l2 == pytest.approx(2 * np.linalg.norm(x0))
    assert met.global_phase == pytest.approx(2.0)


def dense_scan_phase_error(xhat, x0, points=1_000_000):
    thetas = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    nx2 = np.vdot(xhat, xhat).real
    n02 = np.vdot(x0, x0).real
    s = np.vdot(x0, xhat)
    vals = np.sqrt(np.maximum(nx2 + n02 - 2 * np.real(np.exp(-1j * thetas) * s), 0)) + 2 * np.abs(
        np.sin(thetas / 2)
    )
    return float(np.min(vals))


def test_global_phase_matches_dense_scan():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x0 /= np.linalg.norm(x0)
        xhat = 1j * x0
        assert global_phase_error(xhat, x0) == pytest.approx(
            dense_scan_phase_error(xhat, x0), abs=1e-8
        )
        noisy = x0 + 0.1 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert global_phase_error(noisy, x0) == pytest.approx(
            dense_scan_phase_error(noisy, x0), abs=1e-8
        )


def test_global_phase_invariance_under_joint_rotation():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    xhat = x0 + 0.2 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    base = global_phase_error(xhat, x0)
    for phi in (0.3, 1.7, 4.4):
        rot = np.exp(1j * phi)
        assert global_phase_error(rot * xhat, rot * x0) == pytest.approx(base, abs=1e-8)


def test_error_metrics_bounds():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xhat = x0 + rng.standard_normal(4) * 0.5
        met = error_metrics(xhat, x0)
        assert met.sign_folded <= met.plain_l2 + 1e-12
        assert met.global_phase <= met.plain_l2 + 1e-10


def test_error_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        error_metrics(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        error_metrics(np.zeros(3), np.zeros(3, dtype=complex))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        MeasurementEnsemble("real", np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        MeasurementEnsemble("quaternion", np.zeros((2, 2)), np.zeros(2))
    # The real field refuses complex A or b instead of dropping their imaginary parts.
    with pytest.raises(ValueError, match="A is complex"):
        MeasurementEnsemble("real", np.eye(2) + 0.5j, np.ones(2))
    with pytest.raises(ValueError, match="b is complex"):
        MeasurementEnsemble("real", np.eye(2), np.ones(2) + 0.5j)
    ens = MeasurementEnsemble("real", np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        ens.A[0, 0] = 5.0


_ENS = MeasurementEnsemble("real", np.eye(3), np.ones(3))
_NAN, _INF = np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf, 1.0])


@pytest.mark.parametrize(
    "name, build",
    [
        ("A", lambda: MeasurementEnsemble("real", np.diag(_NAN), _ENS.b)),
        ("b", lambda: MeasurementEnsemble("real", _ENS.A, _NAN)),
        ("y", lambda: ProblemInstance(_ENS, np.zeros(3), np.zeros(3), _INF, 1)),
        ("x0", lambda: ProblemInstance(_ENS, _NAN, np.zeros(3), np.ones(3), 1)),
        ("w", lambda: ProblemInstance(_ENS, np.zeros(3), np.full(3, 1j), np.ones(3), 1)),
        ("k", lambda: ProblemInstance(_ENS, np.zeros(3), np.zeros(3), np.ones(3), 1.5)),
        ("x", lambda: forward_model(_ENS, _INF)),
    ],
    ids=["nan-A", "nan-b", "inf-y", "nan-x0", "complex-w", "fractional-k", "inf-x"],
)
def test_ensemble_rejects_bad_arrays(name, build):
    # These used to build; save_instance then wrote the token NaN, which is not
    # JSON, and a complex w lost its imaginary part with only a warning.
    with pytest.raises(ValueError, match=f"^{name} "):
        build()
