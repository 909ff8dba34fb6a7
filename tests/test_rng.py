import numpy as np
import pytest

from affinepr import (
    SeedSpec,
    bias_band,
    gen_bias_complex,
    gen_bias_real,
    gen_complex_gaussian_matrix,
    gen_noise,
    gen_real_gaussian_matrix,
    gen_sparse_signal,
    make_instance,
    regenerate_instance,
)


def test_real_matrix_deterministic():
    a = gen_real_gaussian_matrix(20, 30, SeedSpec(5, ("x",)))
    b = gen_real_gaussian_matrix(20, 30, SeedSpec(5, ("x",)))
    assert np.array_equal(a, b)
    c = gen_real_gaussian_matrix(20, 30, SeedSpec(5, ("y",)))
    assert not np.array_equal(a, c)


def test_real_matrix_moments():
    m, n = 1000, 1000
    a = gen_real_gaussian_matrix(m, n, SeedSpec(7))
    assert abs(a.var() * m - 1.0) < 0.01
    assert abs(a.mean()) < 0.005 / np.sqrt(m)


def test_complex_matrix_moments():
    m, n = 1000, 1000
    a = gen_complex_gaussian_matrix(m, n, SeedSpec(8))
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 0.01
    corr = np.corrcoef(a.real.ravel(), a.imag.ravel())[0, 1]
    assert abs(corr) < 0.005
    assert np.array_equal(a, gen_complex_gaussian_matrix(m, n, SeedSpec(8)))


def test_bias_real_closed_form():
    b = gen_bias_real(4, 1.0)
    assert np.allclose(b, 0.5)
    assert bias_band(b, 0.5) == pytest.approx((np.sqrt(2) / 2, 1.0))
    assert bias_band(gen_bias_real(9, 2.0), 0.5) == pytest.approx((2 * np.sqrt(5 / 9), 2.0))


def test_bias_real_lower_bound_sweep():
    for m in range(2, 65):
        lo, hi = bias_band(gen_bias_real(m, 1.0), 0.5)
        assert lo >= 1.0 / np.sqrt(2) - 1e-12
        assert hi == pytest.approx(1.0)


def test_bias_complex_moments():
    m = 100_000
    b = gen_bias_complex(m, SeedSpec(9))
    assert abs(np.mean(np.abs(b)) - np.sqrt(np.pi) / 2) < 0.02
    assert abs(np.linalg.norm(b) / np.sqrt(m) - 1.0) < 0.02
    assert np.array_equal(b, gen_bias_complex(m, SeedSpec(9)))


def test_sparse_signal_support_and_models():
    for field in ("real", "complex"):
        x = gen_sparse_signal(32, 5, field, SeedSpec(10, (field,)))
        assert np.count_nonzero(x) == 5
    x = gen_sparse_signal(6, 6, "real", SeedSpec(1))
    assert np.count_nonzero(x) == 6
    with pytest.raises(ValueError):
        gen_sparse_signal(4, 5, "real", SeedSpec(1))


def test_sparse_signal_sparsity_always_k():
    for t in range(500):
        x = gen_sparse_signal(16, 3, "real", SeedSpec(11, (t,)))
        assert np.count_nonzero(x) == 3


def test_sparse_support_uniform():
    n, k, draws = 16, 2, 100_000
    counts = np.zeros(n)
    for t in range(draws):
        x = gen_sparse_signal(n, k, "real", SeedSpec(12, (t,)))
        counts[np.flatnonzero(x)] += 1
    p = k / n
    expect = draws * p
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_noise_models():
    assert np.array_equal(gen_noise(5, 0.0, SeedSpec(1)), np.zeros(5))
    w = gen_noise(50, 0.3, SeedSpec(2))
    assert np.linalg.norm(w) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError):
        gen_noise(5, -1.0, SeedSpec(1))


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64], ids=["float", "bool", "negative", "too-large"])
def test_seed_spec_rejects_non_seeds(seed):
    # 1.5 and True used to derive seed 1's streams.
    with pytest.raises(ValueError, match="master_seed"):
        SeedSpec(seed)


@pytest.mark.parametrize(
    "name, call",
    [
        ("m", lambda: gen_real_gaussian_matrix(4.0, 3, SeedSpec(1))),
        ("n", lambda: gen_complex_gaussian_matrix(4, True, SeedSpec(1))),
        ("m", lambda: gen_bias_real(4.5)),
        ("c", lambda: gen_bias_real(4, True)),
        ("m", lambda: gen_bias_complex(2.0, SeedSpec(1))),
        ("n", lambda: gen_sparse_signal(8.0, 2, "real", SeedSpec(1))),
        ("k", lambda: gen_sparse_signal(8, True, "real", SeedSpec(1))),
        ("k", lambda: gen_sparse_signal(8, 2.0, "real", SeedSpec(1))),
        ("m", lambda: gen_noise(5.0, 0.1, SeedSpec(1))),
        ("epsilon_budget", lambda: gen_noise(5, True, SeedSpec(1))),
        ("epsilon_budget", lambda: gen_noise(5, float("inf"), SeedSpec(1))),
    ],
    ids=[
        "float-m-real",
        "bool-n-complex",
        "fractional-m-bias",
        "bool-c",
        "float-m-complex-bias",
        "float-n-signal",
        "bool-k",
        "float-k",
        "float-m-noise",
        "bool-epsilon",
        "inf-epsilon",
    ],
)
def test_generators_reject_bad_counts_and_scales(name, call):
    # The floats used to fail inside numpy with a TypeError (or a message that
    # named no argument); True ran as 1, and an infinite budget drew inf noise.
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()


def test_seed_spec_accepts_numpy_integers():
    assert SeedSpec(np.uint64(7), ("x",)).derive() == SeedSpec(7, ("x",)).derive()


def test_stream_independence():
    n = 100_000
    a = SeedSpec(77, ("stream", 1)).rng().standard_normal(n)
    b = SeedSpec(77, ("stream", 2)).rng().standard_normal(n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_instance_regeneration_bit_identical():
    inst = make_instance(
        "complex", 12, 3, 10, SeedSpec(123, ("grid", 4)), epsilon=0.05, with_intensity=True
    )
    reg = regenerate_instance(inst.ensemble.seed_meta)
    assert np.array_equal(inst.ensemble.A, reg.ensemble.A)
    assert np.array_equal(inst.ensemble.b, reg.ensemble.b)
    assert np.array_equal(inst.x0, reg.x0)
    assert np.array_equal(inst.w, reg.w)
    assert np.array_equal(inst.y, reg.y)
    assert np.array_equal(inst.ytilde, reg.ytilde)


def test_regeneration_rejects_other_models():
    # Seed metadata can come from a file; a model that is no longer drawn
    # must not be regenerated as the Gaussian / sphere one.
    meta = make_instance("real", 8, 2, 6, SeedSpec(5)).ensemble.seed_meta
    with pytest.raises(ValueError, match="amplitude_model"):
        regenerate_instance(dict(meta, amplitude_model="unit"))


def test_instance_observation_identity():
    inst = make_instance("real", 20, 4, 15, SeedSpec(9, ("noise",)), epsilon=0.1)
    assert np.array_equal(inst.y, np.abs(inst.ensemble.A @ inst.x0 + inst.ensemble.b) + inst.w)
    assert np.linalg.norm(inst.w) <= 0.1 + 1e-12


def test_user_supplied_bias_vector():
    vec = [0.5, -0.25, 1.5]
    inst = make_instance("real", 4, 1, 3, SeedSpec(4), bias={"kind": "vector", "values": vec})
    assert np.allclose(inst.ensemble.b, vec)
