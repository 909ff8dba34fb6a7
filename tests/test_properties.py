"""Property tests of the basis-pursuit solve (epsilon = 0).

Both inner paths are covered: ADMM with a whitened equality system when
m < n, and the direct D^+ c solve when m >= n.  Each property is a symmetry
of min ||x||_1 s.t. D x = c, so the objective must not depend on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinepr.solver import bpdn

SHAPES = [(10, 16), (24, 12)]  # (m, n): ADMM path, direct path
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _problem(m, n, seed, consistent):
    """D Gaussian; c = D x0 for a 3-sparse x0, or a generic right-hand side."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    x0[rng.choice(n, size=3, replace=False)] = rng.standard_normal(3)
    c = D @ x0 if consistent else rng.standard_normal(m)
    return D, c


seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("m,n", SHAPES)
@PROPERTY
@given(seed=seeds, consistent=st.booleans(), data=st.data())
def test_bpdn_row_permutation_equivariance(m, n, seed, consistent, data):
    D, c = _problem(m, n, seed, consistent)
    perm = np.array(data.draw(st.permutations(range(m))))
    base = bpdn(D, c, 0.0).objective
    assert bpdn(D[perm], c[perm], 0.0).objective == pytest.approx(base, rel=1e-7)


@pytest.mark.parametrize("m,n", SHAPES)
@PROPERTY
@given(seed=seeds, consistent=st.booleans(), log_t=st.floats(-3.0, 3.0))
def test_bpdn_scale_covariance(m, n, seed, consistent, log_t):
    D, c = _problem(m, n, seed, consistent)
    t = 10.0**log_t
    base = bpdn(D, c, 0.0).objective
    assert bpdn(D, t * c, 0.0).objective == pytest.approx(t * base, rel=1e-7)


@pytest.mark.parametrize("m,n", SHAPES)
@PROPERTY
@given(seed=seeds, consistent=st.booleans())
def test_bpdn_sign_symmetry(m, n, seed, consistent):
    D, c = _problem(m, n, seed, consistent)
    assert bpdn(D, -c, 0.0).objective == pytest.approx(bpdn(D, c, 0.0).objective, rel=1e-7)
