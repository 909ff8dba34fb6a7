import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinepr import (
    SeedSpec,
    SparseDecomposition,
    check_decomposition,
    lifted_distance_check,
    moment_bound_check,
    phase_align,
    sparse_convex_decompose,
)
from affinepr.lemmas import batch_lifted_distance_check, moment_bounds


def admissible_vector(rng, n, k, theta):
    v = rng.standard_normal(n) * theta
    v = np.clip(v, -theta, theta)
    l1 = np.sum(np.abs(v))
    if l1 > k * theta:
        v *= (k * theta / l1) * (1 - 1e-9)
    return v


def test_decompose_sparse_input_single_atom():
    v = np.array([0.0, 2.0, 0.0, -1.0])
    dec = sparse_convex_decompose(v, 2, 2.0)
    assert dec.weights == [1.0]
    assert np.array_equal(dec.atoms[0], v)


def test_decompose_hand_example():
    dec = sparse_convex_decompose(np.array([1.0, 1.0]), 1, 2.0)
    check_decomposition(dec, np.array([1.0, 1.0]), 1, 2.0)
    assert len(dec.weights) == 2


def test_decompose_preconditions():
    with pytest.raises(ValueError):
        sparse_convex_decompose(np.array([3.0]), 1, 2.0)  # sup norm
    with pytest.raises(ValueError):
        sparse_convex_decompose(np.array([1.0, 1.0, 1.0]), 1, 1.0)  # l1 budget


def test_check_decomposition_rejects_each_broken_invariant():
    v = np.array([1.0, 1.0])
    good = sparse_convex_decompose(v, 1, 2.0)  # two 1-sparse atoms of weight 1/2
    broken = {  # message: (weights, atoms, k)
        "weights outside": ([1.5, -0.5], good.atoms, 1),
        "do not sum": ([0.5, 0.25], good.atoms, 1),
        "not k-sparse": (good.weights, [np.array([1.0, 1.0]), np.array([1.0, 1.0])], 1),
        "sup-norm": (good.weights, [np.array([2.5, 0.0]), np.array([0.0, 2.0])], 1),
        "l1 budget": (good.weights, [np.array([2.0, 2.0]), np.array([0.0, 0.0])], 2),
        "reconstruct": (good.weights, [np.array([2.0, 0.0]), np.array([2.0, 0.0])], 1),
    }
    check_decomposition(good, v, 1, 2.0)
    for message, (weights, atoms, k) in broken.items():
        dec = SparseDecomposition(weights=weights, atoms=atoms, k=k, theta=2.0)
        with pytest.raises(AssertionError, match=message):
            check_decomposition(dec, v, k, 2.0)


_H2 = np.diag([1.0, -1.0, 0.0]).astype(complex)
_h3 = np.ones(3, dtype=complex)


@pytest.mark.parametrize(
    "name,call",
    [
        pytest.param("v", lambda: sparse_convex_decompose(np.array([np.nan, 0.1]), 1, 1.0), id="nan-v"),
        pytest.param("v", lambda: sparse_convex_decompose(np.array([0.1, np.inf]), 1, 1.0), id="inf-v"),
        pytest.param("v", lambda: sparse_convex_decompose(np.zeros((2, 2)), 1, 1.0), id="2d-v"),
        pytest.param(
            "H",
            lambda: moment_bound_check(np.where(_H2 == -1, np.nan, _H2), _h3, 1.0, 1000, SeedSpec(5)),
            id="nan-H",
        ),
        pytest.param("H", lambda: moment_bound_check(_H2[:2], _h3, 1.0, 1000, SeedSpec(5)), id="short-H"),
        pytest.param("samples", lambda: moment_bound_check(_H2, _h3, 1.0, 999, SeedSpec(5)), id="few-samples"),
        pytest.param(
            "samples", lambda: moment_bound_check(_H2, _h3, 1.0, 1000.5, SeedSpec(5)), id="float-samples"
        ),
        pytest.param("samples", lambda: moment_bound_check(_H2, _h3, 1.0, True, SeedSpec(5)), id="bool-samples"),
        pytest.param(
            "h", lambda: moment_bound_check(_H2, np.array([1, np.inf, 0j]), 1.0, 1000, SeedSpec(5)), id="inf-h"
        ),
        pytest.param("b", lambda: moment_bound_check(_H2, _h3, math.nan, 1000, SeedSpec(5)), id="nan-b"),
        pytest.param("H", lambda: moment_bounds(np.full((2, 2), np.nan), np.ones(2), 1.0), id="bounds-nan-H"),
        pytest.param("H", lambda: moment_bounds(np.eye(3), np.ones(5), 1.0), id="bounds-short-H"),
        pytest.param("h", lambda: moment_bounds(np.eye(2), np.array([1.0, np.nan]), 1.0), id="bounds-nan-h"),
        pytest.param("b", lambda: moment_bounds(np.eye(3), np.ones(3), math.inf), id="bounds-inf-b"),
        pytest.param("k", lambda: sparse_convex_decompose(np.array([0.1, 0.2]), 2.5, 1.0), id="float-k"),
        pytest.param("k", lambda: sparse_convex_decompose(np.array([0.1, 0.2]), True, 1.0), id="bool-k"),
        pytest.param("k", lambda: sparse_convex_decompose(np.array([0.1, 0.2]), 0, 1.0), id="zero-k"),
        pytest.param(
            "theta", lambda: sparse_convex_decompose(np.array([0.1, 0.2]), 1, math.nan), id="nan-theta"
        ),
        pytest.param(
            "theta", lambda: sparse_convex_decompose(np.array([0.1, 0.2]), 1, -1.0), id="negative-theta"
        ),
        pytest.param(
            "v", lambda: sparse_convex_decompose(np.zeros((2, 3)), np.array([1, 1, 1]), np.ones(3)), id="batch-rows"
        ),
        pytest.param(
            "theta", lambda: sparse_convex_decompose(np.zeros((2, 3)), np.array([1, 1]), 1.0), id="batch-theta"
        ),
        pytest.param("u", lambda: lifted_distance_check([1.0, math.nan], [1.0, 0.0]), id="nan-u"),
        pytest.param("u", lambda: phase_align([1.0, math.nan], [1.0, 0.0]), id="phase_align-nan-u"),
        pytest.param("v", lambda: phase_align([1.0, 0.0], [1.0, 0.0, 2.0]), id="phase_align-long-v"),
        pytest.param("v", lambda: lifted_distance_check([1.0, 0.0], [1.0, 0.0, 0.0]), id="long-v"),
        pytest.param("U", lambda: batch_lifted_distance_check(np.ones(3), np.ones(3)), id="1d-U"),
        pytest.param(
            "V", lambda: batch_lifted_distance_check(np.ones((2, 3)), np.ones((2, 4))), id="unequal-rows"
        ),
        pytest.param(
            "V", lambda: batch_lifted_distance_check(np.ones((2, 3)), np.full((2, 3), np.inf)), id="inf-V"
        ),
    ],
)
def test_lemma_checkers_reject_bad_inputs(name, call):
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()


@pytest.mark.parametrize(
    "v,k,theta",
    [
        pytest.param([2.0, 2.0, 1e-16, 0.5], 3, 2.0, id="tiny-entry"),
        pytest.param([1.0, 1e-12, 1.0], 1, 2.0, id="inside-l1-collar"),
    ],
)
def test_decompose_admissible_edge_inputs(v, k, theta):
    v = np.array(v)
    check_decomposition(sparse_convex_decompose(v, k, theta), v, k, theta)


def criterion_9_inputs(count):
    """(v, k, theta) drawn as tests/test_acceptance.py's criterion 9 draws them."""
    rng = np.random.default_rng(20240809)
    cases = []
    for _ in range(count):
        n = int(rng.integers(1, 33))
        k = int(rng.integers(1, n + 1))
        theta = float(rng.uniform(0.1, 2.0))
        v = np.clip(rng.standard_normal(n) * theta, -theta, theta)
        l1 = float(np.sum(np.abs(v)))
        if l1 > k * theta:
            v *= (k * theta / l1) * (1 - 1e-9)
        cases.append((v, k, theta))
    return cases


EDGE_INPUTS = [([2.0, 2.0, 1e-16, 0.5], 3, 2.0), ([1.0, 1e-12, 1.0], 1, 2.0)]


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(criterion_9_inputs(3000), id="criterion-9"),
        pytest.param([(np.array(v), k, theta) for v, k, theta in EDGE_INPUTS], id="edge"),
    ],
)
def test_batch_and_single_decompositions_are_byte_equal(cases):
    # A batch of rows of one length must give each row the weights and
    # atoms (in order, padding dropped) that the row alone gets.
    by_dim = {}
    for case in cases:
        by_dim.setdefault(case[0].size, []).append(case)
    checked = 0
    for group in by_dim.values():
        V = np.array([v for v, _, _ in group])
        k = np.array([k for _, k, _ in group])
        theta = np.array([theta for _, _, theta in group])
        dec = sparse_convex_decompose(V, k, theta)
        assert dec.flaws == [""] * len(group)
        for i, (v, k_i, theta_i) in enumerate(group):
            one = sparse_convex_decompose(v, k_i, theta_i)
            used = dec.weights[i] > 0.0
            assert dec.weights[i][used].tobytes() == one.weights.tobytes()
            assert dec.atoms[i][used].tobytes() == one.atoms.tobytes()
            assert not dec.atoms[i][~used].any()
            checked += 1
    assert checked == len(cases)


def test_batch_decomposition_reports_each_rows_flaw(monkeypatch):
    # A batch records the validator's verdict per row instead of raising.
    from affinepr import lemmas

    sample = lemmas._sample_atoms

    def spoil_row_1(V, k, theta):
        weights, atoms = sample(V, k, theta)
        atoms[1, 0] *= 2.0
        return weights, atoms

    monkeypatch.setattr(lemmas, "_sample_atoms", spoil_row_1)
    V = np.array([[0.5, 0.5, 0.5], [0.4, 0.3, 0.2], [0.1, 0.2, 0.3]])
    dec = sparse_convex_decompose(V, np.array([1, 1, 1]), np.full(3, 2.0))
    assert [bool(f) for f in dec.flaws] == [False, True, False]


def test_decompose_random_sweep():
    rng = np.random.default_rng(50)
    for i in range(600):
        n = int(rng.integers(1, 33))
        k = int(rng.integers(1, n + 1))
        theta = float(rng.uniform(0.1, 2.0))
        v = admissible_vector(rng, n, k, theta)
        if i % 2:
            # j < k entries at +-theta, exact zeros among the rest, and the
            # rest scaled onto ||v||_1 = k*theta when that keeps them in
            # [-theta, theta] (always when they would exceed the budget).
            idx = rng.permutation(n)
            j = int(rng.integers(0, k))
            v[idx[:j]] = np.where(v[idx[:j]] < 0, -theta, theta)
            rest = idx[j:]
            v[rest[rng.random(rest.size) < 0.3]] = 0.0
            l1 = np.sum(np.abs(v[rest]))
            scale = (k - j) * theta / l1 if l1 > 0 else 1.0
            if scale < 1.0 or scale * np.max(np.abs(v[rest])) <= theta:
                v[rest] *= scale
        dec = sparse_convex_decompose(v, k, theta)
        check_decomposition(dec, v, k, theta)
        assert len(dec.atoms) <= np.count_nonzero(v) + 1


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_decompose_property(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    theta = float(rng.uniform(0.05, 3.0))
    v = admissible_vector(rng, n, k, theta)
    dec = sparse_convex_decompose(v, k, theta)
    check_decomposition(dec, v, k, theta)


def test_decompose_boundary_saturated():
    # ||v||_1 == k * theta exactly
    v = np.array([1.0, 1.0, 1.0, 1.0])
    dec = sparse_convex_decompose(v, 2, 2.0)
    check_decomposition(dec, v, 2, 2.0)


def test_phase_align_examples():
    u = np.array([1.0, 2.0])
    v = np.array([0.5, 1.0])
    assert np.array_equal(phase_align(u, v), v)
    uc = np.array([1.0 + 0j, 0.0])
    assert np.allclose(phase_align(uc, 1j * uc), uc, atol=1e-15)
    z = np.zeros(2)
    assert np.array_equal(phase_align(z, v), v)


def test_phase_align_makes_inner_product_real():
    rng = np.random.default_rng(51)
    for _ in range(200):
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = phase_align(u, v)
        inner = np.vdot(u, w)
        assert inner.real >= 0
        assert abs(inner.imag) <= 1e-14 * np.linalg.norm(u) * np.linalg.norm(v)


def test_lifted_distance_examples():
    u = np.array([1.0 + 0j, 0.0])
    lhs, rhs, holds = lifted_distance_check(u, u)
    assert (lhs, rhs, holds) == (0.0, 0.0, True)
    lhs, rhs, holds = lifted_distance_check(u, np.array([0.0, 1.0 + 0j]))
    assert lhs == pytest.approx(math.sqrt(2))
    assert rhs == pytest.approx(1.0)
    assert holds


def test_lifted_distance_precondition():
    u = np.array([1.0 + 0j, 0.0])
    with pytest.raises(ValueError, match="phase-align"):
        lifted_distance_check(u, -u)
    # The batch form checks every row: an unaligned pair is rejected, not
    # counted as a violation of the inequality.
    U = np.array([[1.0, 0.0], [1.0, 0.0]])
    for second in ([-1.0, 0.0], [1j, 0.0]):
        with pytest.raises(ValueError, match="phase-align"):
            batch_lifted_distance_check(U, np.array([[1.0, 0.0], second]))


def test_lifted_distance_closed_form_matches_outer_products():
    rng = np.random.default_rng(52)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = phase_align(u, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs, rhs, holds = lifted_distance_check(u, v)
        explicit = np.linalg.norm(np.outer(u, u.conj()) - np.outer(v, v.conj()), "fro")
        assert lhs == pytest.approx(explicit, abs=1e-10)
        assert holds


def test_lifted_distance_randomized_sweep():
    rng = np.random.default_rng(53)
    count = 200_000
    n = 8
    U = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    V = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    inner = np.sum(np.conj(U) * V, axis=1)
    V = V * np.where(np.abs(inner) > 0, np.exp(-1j * np.angle(inner)), 1.0)[:, None]
    _, _, holds = batch_lifted_distance_check(U, V)
    assert int(np.sum(~holds)) == 0


def test_moment_bounds_zero_case():
    mean, lo, hi, ok = moment_bound_check(
        np.zeros((3, 3), dtype=complex), np.zeros(3, dtype=complex), 0.0, 10_000, SeedSpec(54)
    )
    assert (mean, lo, hi) == (0.0, 0.0, 0.0)
    assert ok


def test_moment_bounds_closed_form_projector():
    u = np.array([1.0 + 0j, 0.0, 0.0])
    H = np.outer(u, u.conj())
    mean, lo, hi, ok = moment_bound_check(H, np.zeros(3, dtype=complex), 0.0, 100_000, SeedSpec(55))
    assert lo == pytest.approx(1 / 3)
    assert hi == pytest.approx(2 * math.sqrt(3))
    assert abs(mean - 1.0) <= 5 / math.sqrt(100_000) * 1.2
    assert ok


def test_moment_bounds_rejects_bad_inputs():
    rng = np.random.default_rng(56)
    M = rng.standard_normal((4, 4))
    H_full = M @ M.T + np.eye(4)  # rank 4
    with pytest.raises(ValueError):
        moment_bound_check(H_full.astype(complex), np.zeros(4, dtype=complex), 0.0, 10_000, SeedSpec(57))
    u = np.array([1.0 + 0j, 0.0])
    with pytest.raises(ValueError):
        moment_bound_check(np.outer(u, u.conj()), np.zeros(2, dtype=complex), 0.0, 10, SeedSpec(58))
    # rank <= 2 means a third |eigenvalue| of at most 1e-8 max(1, largest).
    with pytest.raises(ValueError, match="rank"):
        moment_bound_check(np.diag([3.0, -1.0, 4e-8]), np.zeros(3), 0.0, 1000, SeedSpec(58))
    moment_bound_check(np.diag([3.0, -1.0, 2e-8]), np.zeros(3), 0.0, 1000, SeedSpec(58))


def test_moment_bounds_random_sweep():
    rng = np.random.default_rng(59)
    for i in range(10):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
        lam = rng.standard_normal(2) * 2
        H = lam[0] * np.outer(q[:, 0], q[:, 0].conj()) + lam[1] * np.outer(q[:, 1], q[:, 1].conj())
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        mean, lo, hi, ok = moment_bound_check(H, h, b, 50_000, SeedSpec(60, (i,)))
        assert ok
        assert lo <= hi


def test_moment_bounds_reproducible():
    rng = np.random.default_rng(61)
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    H = 1.5 * np.outer(q[:, 0], q[:, 0].conj()) - 0.5 * np.outer(q[:, 1], q[:, 1].conj())
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    one = moment_bound_check(H, h, 0.7 + 0.1j, 20_000, SeedSpec(62))
    two = moment_bound_check(H, h, 0.7 + 0.1j, 20_000, SeedSpec(62))
    assert one == two


def test_moment_bound_uses_modulus_of_bias():
    rng = np.random.default_rng(63)
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    H = np.outer(q[:, 0], q[:, 0].conj())
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = moment_bounds(H, h, 2.0)
    b = moment_bounds(H, h, -2.0)
    c = moment_bounds(H, h, 2.0j)
    assert a == b == c


def test_decompose_accepts_the_whole_collar_and_nothing_above():
    # Every entry and ||v||_1 / k may exceed theta by the 1e-12 collar and no
    # more.  Each v sits at the top of it: j < k entries at the cap and the
    # rest (all equal, or spread) scaled to the largest admissible float, so
    # every atom's height is within an ulp of the cap.  One ulp more scale
    # must be refused.
    rng = np.random.default_rng(51)
    checked = 0
    for i in range(2000):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n))
        theta = float(rng.uniform(0.1, 3.0))
        cap = theta * (1.0 + 1e-12)
        j = int(rng.integers(0, k)) if i % 2 else 0
        rest = rng.uniform(0.2, 1.0, n - j) if i % 4 == 3 else np.ones(n - j)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)

        def vector(scale):
            return signs * np.concatenate([np.full(j, cap), scale * rest])

        def admissible(v):
            return np.abs(v).max() <= cap and np.abs(v).sum() / k <= cap

        scale = (k - j) * cap / rest.sum()
        if scale * rest.max() > cap:
            continue
        while not admissible(vector(scale)):
            scale = np.nextafter(scale, 0.0)
        while admissible(vector(np.nextafter(scale, np.inf))):
            scale = np.nextafter(scale, np.inf)
        v = vector(scale)
        check_decomposition(sparse_convex_decompose(v, k, theta), v, k, theta)
        with pytest.raises(ValueError, match="precondition"):
            sparse_convex_decompose(vector(np.nextafter(scale, np.inf)), k, theta)
        checked += 1
    assert checked > 1500


def test_moment_samples_match_the_complex_formula():
    # xi in real arithmetic against the complex formula it replaces, on the
    # same two standard-normal draws.
    from affinepr.lemmas import _moment_samples

    rng = np.random.default_rng(64)
    for _ in range(20):
        re, im = rng.standard_normal((5000, 3)), rng.standard_normal((5000, 3))
        lam = list(rng.standard_normal(2) * 2)
        h_par = [complex(*rng.standard_normal(2)) for _ in range(2)]
        h_perp_norm = float(abs(rng.standard_normal()))
        babs = float(abs(rng.standard_normal()))
        g = (re + 1j * im) / math.sqrt(2.0)
        want = (
            lam[0] * np.abs(g[:, 0]) ** 2
            + lam[1] * np.abs(g[:, 1]) ** 2
            + 2.0
            * babs
            * np.real(np.conj(g[:, 0]) * h_par[0] + np.conj(g[:, 1]) * h_par[1] + np.conj(g[:, 2]) * h_perp_norm)
        )
        got = _moment_samples(re, im, lam, h_par, h_perp_norm, babs)
        # Relative to the size of the terms, since single samples may cancel.
        scale = np.abs(lam).sum() * np.abs(g[:, :2]).max() ** 2 + 2.0 * babs * np.abs(g).max() * (
            sum(abs(c) for c in h_par) + h_perp_norm
        )
        assert np.abs(got - want).max() <= 1e-12 * scale
        assert np.abs(got).mean() == pytest.approx(np.abs(want).mean(), rel=1e-12)
