import math
from itertools import combinations

import numpy as np
import pytest

from affinepr.rng import _splitmix64
from affinepr import (
    SeedSpec,
    crossterm_sup,
    gen_complex_gaussian_matrix,
    gen_real_gaussian_matrix,
    lifted_intensity,
    lifted_map_apply,
    make_ensemble,
    rip_ratio_sample,
    srip_extremes_for_x,
    srip_profile,
    structured_ratio,
)


def brute_srip_extremes(A, x):
    m = A.shape[0]
    need = math.ceil(m / 2)
    sq = np.abs(A @ x) ** 2
    lo, hi = np.inf, 0.0
    for size in range(need, m + 1):
        for idx in combinations(range(m), size):
            val = float(np.sum(sq[list(idx)]))
            lo, hi = min(lo, val), max(hi, val)
    nx2 = float(np.real(np.vdot(x, x)))
    return lo / nx2, hi / nx2


def brute_crossterm(A, b, k):
    n = A.shape[1]
    corr = A.T @ b
    best = 0.0
    for idx in combinations(range(n), k):
        best = max(best, float(np.linalg.norm(corr[list(idx)])))
    return best


def test_srip_extremes_examples():
    assert srip_extremes_for_x(np.array([[3.0], [4.0]]), np.array([1.0])) == (9.0, 25.0)
    lo, hi = srip_extremes_for_x(np.eye(5), np.array([1.0, 0, 0, 0, 0]))
    assert (lo, hi) == (0.0, 1.0)
    with pytest.raises(ValueError):
        srip_extremes_for_x(np.eye(2), np.zeros(2))


def test_srip_extremes_match_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        got = srip_extremes_for_x(A, x)
        want = brute_srip_extremes(A, x)
        assert got == pytest.approx(want, abs=1e-10)


def test_srip_profile_padded_orthonormal_upper_bound():
    # orthonormal columns padded with zero rows: ||Ax|| <= ||x|| always
    n = 8
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
    A = np.vstack([q, np.zeros((n, n))])
    est = srip_profile(A, 3, 200, SeedSpec(31))
    assert est.upper_hat <= 1.0 + 1e-10
    assert est.samples == 200


def test_srip_profile_witnesses_reproduce():
    A = gen_real_gaussian_matrix(24, 16, SeedSpec(32))
    est = srip_profile(A, 2, 100, SeedSpec(33))
    lo, _ = srip_extremes_for_x(A, est.witness_lower)
    _, hi = srip_extremes_for_x(A, est.witness_upper)
    assert lo == pytest.approx(est.lower_hat, abs=1e-10)
    assert hi == pytest.approx(est.upper_hat, abs=1e-10)
    assert 0.0 <= est.lower_hat <= est.upper_hat


def test_srip_profile_monotone_under_trial_extension():
    A = gen_real_gaussian_matrix(20, 12, SeedSpec(34))
    seed = SeedSpec(35)
    few = srip_profile(A, 2, 40, seed)
    more = srip_profile(A, 2, 120, seed)
    assert more.lower_hat <= few.lower_hat + 1e-15
    assert more.upper_hat >= few.upper_hat - 1e-15


def test_srip_profile_augmented_last_coordinate():
    A = gen_real_gaussian_matrix(18, 10, SeedSpec(36))
    b = np.full(18, 1.0 / np.sqrt(18))
    aug = np.column_stack([A, b])
    est = srip_profile(aug, 2, 50, SeedSpec(37), last_coord_free=True)
    assert est.witness_lower[-1] != 0.0 or est.witness_upper[-1] != 0.0
    assert est.config["last_coord_free"] is True


def test_lifted_map_examples():
    out = lifted_map_apply(
        np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), np.array([[2.0 + 0j]]), np.array([3.0 + 0j])
    )
    assert out == pytest.approx([8.0])
    out = lifted_map_apply(np.eye(2) + 0j, np.zeros(2) + 0j, np.zeros((2, 2)) + 0j, np.zeros(2) + 0j)
    assert np.array_equal(out, np.zeros(2))
    with pytest.raises(ValueError):
        lifted_map_apply(np.eye(2) + 0j, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]) + 0j, np.zeros(2))


def test_lifted_map_rank_one_consistency():
    ens = make_ensemble("complex", 6, 4, SeedSpec(38))
    rng = np.random.default_rng(39)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = lifted_map_apply(ens.A, ens.b, np.outer(x, x.conj()), x)
    assert np.allclose(out + np.abs(ens.b) ** 2, lifted_intensity(ens, x), atol=1e-10)


def test_lifted_map_linearity():
    rng = np.random.default_rng(40)
    A = gen_complex_gaussian_matrix(7, 5, SeedSpec(41))
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)

    def rnd_hermitian():
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        return (M + M.conj().T) / 2

    H1, H2 = rnd_hermitian(), rnd_hermitian()
    h1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for alpha, beta in ((1.0, 1.0), (-2.0, 0.5), (0.0, 3.0)):
        lhs = lifted_map_apply(A, b, alpha * H1 + beta * H2, alpha * h1 + beta * h2)
        rhs = alpha * lifted_map_apply(A, b, H1, h1) + beta * lifted_map_apply(A, b, H2, h2)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_structured_ratio_analytic_case():
    ratio = structured_ratio(
        np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), np.array([1.0 + 0j]), np.array([0.0 + 0j])
    )
    assert ratio == pytest.approx(math.sqrt(3.0))


def test_rip_ratio_sample_witnesses_and_positivity():
    A = gen_complex_gaussian_matrix(60, 16, SeedSpec(42))
    b = np.ones(60, dtype=complex)
    est = rip_ratio_sample(A, b, 3, 300, SeedSpec(43))
    assert 0 < est.lower_hat <= est.upper_hat
    assert est.samples <= 300
    lo = structured_ratio(A, b, *est.witness_lower)
    hi = structured_ratio(A, b, *est.witness_upper)
    assert lo == pytest.approx(est.lower_hat, abs=1e-10)
    assert hi == pytest.approx(est.upper_hat, abs=1e-10)


def test_rip_ratio_skips_degenerate_draws():
    from affinepr.ripcheck import _ratios

    x = np.array([1.0 + 0j, 0.0])
    support = np.array([[0]])
    _, frob = _ratios(np.eye(2) + 0j, np.zeros(2) + 0j, x[None], x[None], support, support)
    assert frob[0] < 1e-12
    with pytest.raises(ValueError, match="degenerate"):
        structured_ratio(np.eye(2) + 0j, np.zeros(2) + 0j, x, x)


def test_crossterm_examples():
    assert crossterm_sup(np.eye(3), np.array([1.0, 0, 0]), 1) == pytest.approx(1.0)
    assert crossterm_sup(np.eye(3), np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(np.sqrt(13))


def test_crossterm_matches_enumeration():
    rng = np.random.default_rng(44)
    for _ in range(30):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        assert crossterm_sup(A, b, k) == pytest.approx(brute_crossterm(A, b, k), abs=1e-12)


def test_crossterm_monotone_and_full():
    rng = np.random.default_rng(45)
    A = rng.standard_normal((6, 9))
    b = rng.standard_normal(6)
    vals = [crossterm_sup(A, b, k) for k in range(1, 10)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(np.linalg.norm(A.T @ b))


def test_crossterm_concentration_rate():
    # one-sided check of the concentration claim at zeta = 0.5
    n, k = 64, 3
    m = int(round(40 * k * math.log(math.e * n / k)))
    exceed = 0
    trials = 200
    for t in range(trials):
        seed = SeedSpec(46, ("xterm", t))
        A = seed.rng().standard_normal((m, n))  # rows N(0, I_n)
        b = seed.child("b").rng().standard_normal(m)
        if crossterm_sup(A, b, k) >= 0.5 * math.sqrt(m) * np.linalg.norm(b):
            exceed += 1
    assert exceed <= 0.05 * trials


# Straightforward loops that srip_profile and rip_ratio_sample must agree with.


def block_generators(seed, label, trials, block):
    """The generator of each block of ``block`` trials, as both samplers seed them."""
    state = seed.child(label).derive()
    return [np.random.default_rng(_splitmix64(state ^ j)) for j in range(-(-trials // block))]


def normals(rng, shape, complex_field):
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def reference_srip_profile(A, k, trials, seed, last_coord_free=False, refine_swaps=50, block=64):
    """Each block's numbers drawn whole, then one trial at a time: a sorted
    argsort of the keys for the support, a setdiff1d candidate list per
    swap, and the dense A[:, S] @ v per candidate."""
    m, n = A.shape
    head = n - 1 if last_coord_free else n
    keep = math.ceil(m / 2)
    swaps = refine_swaps // 2 if head > k else 0
    cplx = np.iscomplexobj(A)

    def extremes(support, values):
        sq = np.abs(A[:, support] @ values) ** 2
        nx2 = float(np.real(np.vdot(values, values)))
        part = np.partition(sq, keep - 1)
        return float(np.sum(part[:keep])) / nx2, float(np.sum(sq)) / nx2

    best = [math.inf, -math.inf]
    wit = [None, None]
    for t in range(trials):
        i = t % block
        if i == 0:
            rng = block_generators(seed, "srip", trials, block)[t // block]
            keys = rng.random((block, head))
            base_values = normals(rng, (block, k + last_coord_free), cplx)
            swap_pos = rng.integers(0, k, (block, 2, swaps))
            swap_rank = rng.integers(0, head - k, (block, 2, swaps))
            swap_value = normals(rng, (block, 2, swaps), cplx)
        base_support = np.sort(np.argsort(keys[i])[:k])
        if last_coord_free:
            base_support = np.append(base_support, head)
        for side in (0, 1):
            support, values = base_support.copy(), base_values[i].copy()
            score = extremes(support, values)[side]
            for s in range(swaps):
                candidates = np.setdiff1d(np.arange(head), support[:k])
                trial_support = support.copy()
                trial_support[swap_pos[i, side, s]] = candidates[swap_rank[i, side, s]]
                trial_values = values.copy()
                trial_values[swap_pos[i, side, s]] = swap_value[i, side, s]
                cand = extremes(trial_support, trial_values)[side]
                if (cand < score) if side == 0 else (cand > score):
                    support, values, score = trial_support, trial_values, cand
            if (score < best[0]) if side == 0 else (score > best[1]):
                vec = np.zeros(n, dtype=A.dtype)
                vec[support] = values
                best[side], wit[side] = score, vec / np.linalg.norm(vec)
    return best, wit


def reference_rip_ratio_sample(A, b, k, trials, seed, block=64):
    """Each block's numbers drawn whole, then one trial at a time; A x and
    A z from the k support columns each."""
    m, n = A.shape
    cplx = np.iscomplexobj(A)
    best = [math.inf, -math.inf]
    wit = [None, None]
    used = 0
    for t in range(trials):
        i = t % block
        if i == 0:
            rng = block_generators(seed, "ripmap", trials, block)[t // block]
            shared = rng.random(block) < 0.5
            keys_x = rng.random((block, n))
            keys_z = rng.random((block, n))
            values_x = normals(rng, (block, k), cplx)
            values_z = normals(rng, (block, k), cplx)
        sup_x = np.argpartition(keys_x[i], k - 1)[:k]
        sup_z = sup_x if shared[i] else np.argpartition(keys_z[i], k - 1)[:k]
        x = np.zeros(n, dtype=A.dtype)
        z = np.zeros(n, dtype=A.dtype)
        x[sup_x] = values_x[i]
        z[sup_z] = values_z[i]
        h = x - z
        ax, az = A[:, sup_x] @ x[sup_x], A[:, sup_z] @ z[sup_z]
        vals = np.abs(ax) ** 2 - np.abs(az) ** 2 + 2.0 * np.real(np.conj(b) * (ax - az))
        xz = np.abs(np.vdot(x, z)) ** 2
        frob2 = np.vdot(x, x).real ** 2 + np.vdot(z, z).real ** 2 - 2.0 * xz + 2.0 * np.vdot(h, h).real
        if frob2 <= 0 or math.sqrt(frob2) < 1e-12:
            continue
        used += 1
        ratio = float(np.sum(np.abs(vals))) / (m * math.sqrt(frob2))
        if ratio < best[0]:
            best[0], wit[0] = ratio, (x, z)
        if ratio > best[1]:
            best[1], wit[1] = ratio, (x, z)
    return best, wit, used


@pytest.mark.parametrize(
    "field,m,n,k,last_coord_free",
    [
        ("real", 24, 16, 2, False),
        ("real", 18, 11, 3, True),
        ("complex", 20, 12, 2, False),
        ("real", 9, 3, 3, False),  # head == k: no swap candidates
        ("real", 9, 4, 3, True),  # head == k with the free last coordinate
    ],
)
def test_srip_profile_matches_reference_loop(monkeypatch, field, m, n, k, last_coord_free):
    # 130 trials run as three blocks of the default size and as 19 of 7; the
    # lockstep swaps must give the reference loop's extremes and witness
    # bytes for the streams that block size defines.
    from affinepr import ripcheck

    gen = gen_real_gaussian_matrix if field == "real" else gen_complex_gaussian_matrix
    A = gen(m, n, SeedSpec(60, (field, m, n)))
    seed = SeedSpec(61, (field, k))
    monkeypatch.setattr(ripcheck, "_REFINE_SWAPS", 12)
    for block in (ripcheck._BLOCK, 7):
        monkeypatch.setattr(ripcheck, "_BLOCK", block)
        (low, high), (wit_low, wit_high) = reference_srip_profile(
            A, k, 130, seed, last_coord_free=last_coord_free, refine_swaps=12, block=block
        )
        est = srip_profile(A, k, 130, seed, last_coord_free=last_coord_free)
        assert (est.lower_hat, est.upper_hat) == (low, high)
        assert est.witness_lower.tobytes() == wit_low.tobytes()
        assert est.witness_upper.tobytes() == wit_high.tobytes()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rip_ratio_sample_matches_reference_loop(monkeypatch, field):
    from affinepr import ripcheck

    m, n, k, trials = 40, 12, 2, 150  # 150 trials: two full blocks and a partial one
    seed = SeedSpec(62, (field,))
    if field == "real":
        A = gen_real_gaussian_matrix(m, n, seed.child("A"))
        b = seed.child("b").rng().standard_normal(m)
    else:
        ens = make_ensemble("complex", m, n, seed.child("A"))
        A, b = ens.A, ens.b
    for block in (ripcheck._BLOCK, 7):
        monkeypatch.setattr(ripcheck, "_BLOCK", block)
        est = rip_ratio_sample(A, b, k, trials, seed)
        (low, high), (wit_low, wit_high), used = reference_rip_ratio_sample(A, b, k, trials, seed, block)
        assert est.samples == used == trials
        assert (est.lower_hat, est.upper_hat) == (low, high)
        for got, want in ((est.witness_lower, wit_low), (est.witness_upper, wit_high)):
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def _bad_inputs():
    """(name the error must start with, call) pairs, one bad input each."""
    A = gen_real_gaussian_matrix(12, 6, SeedSpec(63))
    b = np.ones(12)
    x = np.ones(6)
    H = np.eye(6)
    seed = SeedSpec(64)

    def spoil(arr, index, value):
        out = np.array(arr, dtype=float)
        out[index] = value
        return out

    nan_A, inf_A = spoil(A, (3, 2), np.nan), spoil(A, (0, 0), np.inf)
    nan_b, nan_x = spoil(b, 5, np.nan), spoil(x, 1, np.nan)
    cases = {
        "srip_profile-nan-A": ("A", lambda: srip_profile(nan_A, 2, 5, seed)),
        "srip_profile-1d-A": ("A", lambda: srip_profile(A[0], 2, 5, seed)),
        "rip_ratio_sample-inf-A": ("A", lambda: rip_ratio_sample(inf_A, b, 2, 5, seed)),
        "rip_ratio_sample-nan-b": ("b", lambda: rip_ratio_sample(A, nan_b, 2, 5, seed)),
        "rip_ratio_sample-short-b": ("b", lambda: rip_ratio_sample(A, b[:-1], 2, 5, seed)),
        "srip_extremes_for_x-nan-A": ("A", lambda: srip_extremes_for_x(nan_A, x)),
        "srip_extremes_for_x-nan-x": ("x", lambda: srip_extremes_for_x(A, nan_x)),
        "srip_extremes_for_x-short-x": ("x", lambda: srip_extremes_for_x(A, x[:-1])),
        "structured_ratio-nan-x": ("x", lambda: structured_ratio(A, b, nan_x, x)),
        "crossterm_sup-inf-A": ("A", lambda: crossterm_sup(inf_A, b, 2)),
        "crossterm_sup-nan-b": ("b", lambda: crossterm_sup(A, nan_b, 2)),
        "lifted_map_apply-nan-H": ("H", lambda: lifted_map_apply(A, b, spoil(H, (2, 2), np.nan), x)),
        "lifted_map_apply-inf-h": ("h", lambda: lifted_map_apply(A, b, H, spoil(x, 4, -np.inf))),
        "lifted_map_apply-short-b": ("b", lambda: lifted_map_apply(A, b[:-1], H, x)),
        "srip_profile-bool-trials": ("trials", lambda: srip_profile(A, 2, True, seed)),
        "srip_profile-float-k": ("k", lambda: srip_profile(A, 2.0, 5, seed)),
        "srip_profile-large-k": ("k", lambda: srip_profile(A, 6, 5, seed, last_coord_free=True)),
        "rip_ratio_sample-float-trials": ("trials", lambda: rip_ratio_sample(A, b, 2, 2.5, seed)),
        "rip_ratio_sample-bool-k": ("k", lambda: rip_ratio_sample(A, b, True, 5, seed)),
        "crossterm_sup-float-k": ("k", lambda: crossterm_sup(A, b, 2.0)),
        "crossterm_sup-zero-k": ("k", lambda: crossterm_sup(A, b, 0)),
    }
    return [pytest.param(name, call, id=case) for case, (name, call) in cases.items()]


@pytest.mark.parametrize("name,call", _bad_inputs())
def test_isometry_checkers_reject_bad_inputs(name, call):
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()


def test_srip_profile_evaluates_each_swap_step_once_per_block(monkeypatch):
    from affinepr import ripcheck

    calls = []
    evaluate = ripcheck._sparse_extremes
    monkeypatch.setattr(
        ripcheck, "_sparse_extremes", lambda *args: calls.append(args[0].shape[0]) or evaluate(*args)
    )
    monkeypatch.setattr(ripcheck, "_REFINE_SWAPS", 10)
    A = gen_real_gaussian_matrix(20, 12, SeedSpec(67))
    srip_profile(A, 2, 130, SeedSpec(68))
    # Per block: the base vectors, then 5 swap steps for each side.
    assert calls == [64] * 11 + [64] * 11 + [2] * 11


def _recorded_ratio_blocks(monkeypatch, A, b, k, trials, seed):
    """rip_ratio_sample's estimate and the (X, Z, sup_x, sup_z, ratio, frob)
    of each block it evaluated."""
    from affinepr import ripcheck

    blocks = []
    evaluate = ripcheck._ratios

    def recording(A, conj_b, X, Z, sup_x, sup_z):
        ratio, frob = evaluate(A, conj_b, X, Z, sup_x, sup_z)
        blocks.append((X, Z, sup_x, sup_z, ratio, frob))
        return ratio, frob

    with monkeypatch.context() as patch:
        patch.setattr(ripcheck, "_ratios", recording)
        est = rip_ratio_sample(A, b, k, trials, seed)
    return est, blocks


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rip_ratio_sample_ratios_match_dense_lifted_map(monkeypatch, field):
    m, n, k = 30, 8, 3  # small n: disjoint draws often share coordinates
    seed = SeedSpec(69, (field,))
    if field == "real":
        A = gen_real_gaussian_matrix(m, n, seed.child("A"))
        b = seed.child("b").rng().standard_normal(m)
    else:
        ens = make_ensemble("complex", m, n, seed.child("A"))
        A, b = ens.A, ens.b
    _, blocks = _recorded_ratio_blocks(monkeypatch, A, b, k, 100, seed)
    overlapping = 0
    for X, Z, sup_x, sup_z, ratio, frob in blocks:
        for x, z, sx, sz, got, got_frob in zip(X, Z, sup_x, sup_z, ratio, frob):
            H = np.outer(x, x.conj()) - np.outer(z, z.conj())
            h = x - z
            want_frob = math.sqrt(np.linalg.norm(H) ** 2 + 2.0 * np.linalg.norm(h) ** 2)
            want = np.sum(np.abs(lifted_map_apply(A, b, H, h))) / (m * want_frob)
            assert got == pytest.approx(want, rel=1e-12)
            assert got_frob == pytest.approx(want_frob, rel=1e-12)
            shared = set(sx) & set(sz)
            overlapping += 0 < len(shared) < k
    assert overlapping > 0


def test_rip_ratio_sample_trial_ratios_do_not_depend_on_trial_count(monkeypatch):
    ens = make_ensemble("complex", 50, 16, SeedSpec(70))
    runs = {}
    for trials in (63, 64, 65, 130):
        _, blocks = _recorded_ratio_blocks(monkeypatch, ens.A, ens.b, 3, trials, SeedSpec(71))
        runs[trials] = np.concatenate([block[4] for block in blocks])
        assert runs[trials].size == trials
    for trials, ratios in runs.items():
        assert ratios.tobytes() == runs[130][:trials].tobytes()


def test_srip_profile_trial_scores_do_not_depend_on_trial_count(monkeypatch):
    # Every score of every trial (base vector, then each swap candidate on
    # each side) must be the same whether the run stops inside, at or past
    # the end of a block.
    from affinepr import ripcheck

    A = gen_real_gaussian_matrix(20, 12, SeedSpec(72))
    runs = {}
    for trials in (63, 64, 65, 130):
        calls = []
        evaluate = ripcheck._sparse_extremes

        def recording(ax, values, keep):
            out = evaluate(ax, values, keep)
            calls.append(np.stack(out))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(ripcheck, "_sparse_extremes", recording)
            patch.setattr(ripcheck, "_REFINE_SWAPS", 10)
            srip_profile(A, 2, trials, SeedSpec(73))
        per_block = 1 + 2 * 5  # the base vectors, then 5 swap steps per side
        blocks = [np.stack(calls[i : i + per_block], axis=1) for i in range(0, len(calls), per_block)]
        runs[trials] = np.concatenate(blocks, axis=2)
        assert runs[trials].shape == (2, per_block, trials)
    for trials, scores in runs.items():
        assert scores.tobytes() == np.ascontiguousarray(runs[130][:, :, :trials]).tobytes()
