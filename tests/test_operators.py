import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffuq.operators import (
    LinearOperatorSVD,
    Measurement,
    _haar_orthogonal,
    apply_forward,
    apply_pinv,
    build_operator,
    operator_from_json,
    operator_to_json,
    synthesize_measurement,
)


def test_identity_operator():
    A = build_operator("identity", 16)
    assert np.all(A.S == 1.0)
    assert np.array_equal(A.matrix(), np.eye(16))


def test_binary_projection_idempotent():
    A = build_operator("binary_svd", 16, obs_count=8)
    P = apply_pinv(A, apply_forward(A, np.eye(16)))
    assert np.max(np.abs(P @ P - P)) < 1e-10


def test_random_orthogonal_deterministic():
    A1 = build_operator("binary_svd", 16, obs_count=8,
                        basis_mode="random_orthogonal", seed=9)
    A2 = build_operator("binary_svd", 16, obs_count=8,
                        basis_mode="random_orthogonal", seed=9)
    assert np.array_equal(A1.V, A2.V)
    assert np.max(np.abs(A1.V.T @ A1.V - np.eye(16))) < 1e-10


def test_build_operator_validation():
    with pytest.raises(ValueError, match="obs_count"):
        build_operator("binary_svd", 16, obs_count=17)
    with pytest.raises(ValueError, match="obs_count"):
        build_operator("binary_svd", 16)
    with pytest.raises(ValueError, match="basis_mode"):
        build_operator("binary_svd", 16, obs_count=2, basis_mode="diagonal")
    with pytest.raises(ValueError, match="operator kind"):
        build_operator("fourier", 16)


def test_orthogonality_enforced():
    bad = np.eye(3)
    bad[0, 0] = 1.5
    with pytest.raises(ValueError, match="orthogonal"):
        LinearOperatorSVD(bad, np.ones(3), np.eye(3))


def test_forward_identity(rng):
    A = build_operator("identity", 16)
    x = rng.standard_normal(16)
    assert np.allclose(apply_forward(A, x), x)


def test_forward_null_annihilation(rng):
    A = build_operator("binary_svd", 16, obs_count=8)
    y = apply_forward(A, rng.standard_normal(16))
    assert np.all(y[8:] == 0)


def test_forward_linearity(rng):
    A = build_operator("binary_svd", 16, obs_count=5,
                       basis_mode="random_orthogonal", seed=2)
    x, z = rng.standard_normal((2, 16))
    lhs = apply_forward(A, 0.3 * x + 1.7 * z)
    rhs = 0.3 * apply_forward(A, x) + 1.7 * apply_forward(A, z)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_forward_dimension_check():
    A = build_operator("identity", 16)
    with pytest.raises(ValueError, match="dimension"):
        apply_forward(A, np.zeros(8))


def test_pinv_identity(rng):
    A = build_operator("identity", 16)
    y = rng.standard_normal(16)
    assert np.allclose(apply_pinv(A, y), y)


def test_pinv_projection(rng):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=3)
    x = rng.standard_normal(16)
    proj = apply_pinv(A, apply_forward(A, x))
    obs, null = A.obs_null_split()
    zb = A.V.T @ proj
    xb = A.V.T @ x
    assert np.allclose(zb[obs], xb[obs], atol=1e-10)
    assert np.allclose(zb[null], 0.0, atol=1e-12)


def test_pinv_range_identity(rng):
    A = build_operator("binary_svd", 16, obs_count=6)
    y = apply_forward(A, rng.standard_normal(16))
    assert np.allclose(apply_forward(A, apply_pinv(A, y)), y, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10),
       kind=st.sampled_from(["identity", "binary", "random_orthogonal", "general"]))
def test_pinv_moore_penrose_identities(seed, d, kind):
    """A A+ A = A, A+ A A+ = A+, and both products symmetric, for the maps
    ``apply_forward`` and ``apply_pinv`` read off on the unit vectors."""
    rng = np.random.default_rng(seed)
    obs = int(rng.integers(0, d + 1))
    if kind == "identity":
        A = build_operator("identity", d)
    elif kind == "binary":
        A = build_operator("binary_svd", d, obs_count=obs)
    elif kind == "random_orthogonal":
        A = build_operator("binary_svd", d, obs_count=obs, basis_mode="random_orthogonal",
                           seed=int(rng.integers(1000)))
    else:
        m = int(rng.integers(1, d + 3))
        k = min(m, d)
        S = np.where(rng.random(k) < 0.3, 0.0, rng.uniform(0.1, 3.0, k))
        A = LinearOperatorSVD(_haar_orthogonal(m, rng), S, _haar_orthogonal(d, rng))
    F = apply_forward(A, np.eye(A.d)).T  # (m, d), column j is A e_j
    P = apply_pinv(A, np.eye(A.m)).T  # (d, m)
    np.testing.assert_allclose(F, A.matrix(), atol=1e-12)
    np.testing.assert_allclose(F @ P @ F, F, atol=1e-12)
    np.testing.assert_allclose(P @ F @ P, P, atol=1e-11)
    np.testing.assert_allclose(F @ P, (F @ P).T, atol=1e-12)
    np.testing.assert_allclose(P @ F, (P @ F).T, atol=1e-12)
    x = rng.standard_normal(A.d)
    np.testing.assert_allclose(apply_forward(A, apply_pinv(A, apply_forward(A, x))),
                               apply_forward(A, x), atol=1e-11)


def test_variance_splits_additively(rng):
    A = build_operator("binary_svd", 16, obs_count=8,
                       basis_mode="random_orthogonal", seed=4)
    X = rng.standard_normal((500, 16)) * np.linspace(0.5, 2, 16)
    Z = X @ A.V
    obs, null = A.obs_null_split()
    total = np.trace(np.cov(X.T))
    parts = np.cov(Z.T).diagonal()
    assert total == pytest.approx(parts[obs].sum() + parts[null].sum(), rel=1e-10)


def test_measurement_noiseless(rng):
    A = build_operator("binary_svd", 16, obs_count=8)
    x_star = rng.standard_normal(16)
    m = synthesize_measurement(A, x_star, 0.0, 5)
    assert np.array_equal(m.y, apply_forward(A, x_star))


def test_measurement_deterministic(rng):
    A = build_operator("identity", 16)
    x_star = rng.standard_normal(16)
    m1 = synthesize_measurement(A, x_star, 0.7, 5)
    m2 = synthesize_measurement(A, x_star, 0.7, 5)
    assert np.array_equal(m1.y, m2.y)


def test_measurement_noise_unbiased(rng):
    A = build_operator("identity", 4)
    x_star = rng.standard_normal(4)
    resid = np.array([
        synthesize_measurement(A, x_star, 1.0, s).y - apply_forward(A, x_star)
        for s in range(100_000)
    ])
    se = 1.0 / np.sqrt(len(resid))
    assert np.all(np.abs(resid.mean(axis=0)) < 3 * se)


def test_measurement_dimension_check():
    A = build_operator("identity", 4)
    with pytest.raises(ValueError, match="dimension"):
        Measurement(y=np.zeros(3), x_star=np.zeros(4), sigma_y=1.0,
                    operator=A, seed=0)


def test_json_round_trip():
    A = build_operator("binary_svd", 8, obs_count=3,
                       basis_mode="random_orthogonal", seed=11)
    B = operator_from_json(operator_to_json(A))
    assert np.array_equal(A.U, B.U)
    assert np.array_equal(A.S, B.S)
    assert np.array_equal(A.V, B.V)
    assert (A.kind, A.seed) == (B.kind, B.seed)


def test_matrix_built_once_read_only():
    A = build_operator("binary_svd", 16, obs_count=5,
                       basis_mode="random_orthogonal", seed=3)
    M = A.matrix()
    assert M is A.matrix()
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    assert np.array_equal(M, A.U @ np.diag(A.S) @ A.V.T)


@pytest.mark.parametrize("m, d", [(16, 16), (4, 6), (6, 4)])
def test_spectral_y_matches_inline_block(m, d):
    rng = np.random.default_rng(m * 10 + d)
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((d, d)))[0]
    A = LinearOperatorSVD(U, rng.uniform(0.5, 2.0, min(m, d)), V)
    y = rng.standard_normal(m)
    yb = np.zeros(A.d)
    yb[: len(A.S)] = (A.U.T @ y)[: len(A.S)]
    assert np.array_equal(A.spectral_y(y), yb)
    # a stack of observations: each with the bits it has alone
    Y = rng.standard_normal((3, 5, m))
    assert np.array_equal(A.spectral_y(Y), [[A.spectral_y(y) for y in Yk] for Yk in Y])
