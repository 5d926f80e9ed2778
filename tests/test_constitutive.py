"""Tests for the nonlinear tensors S and F and their algebra."""

import numpy as np
import pytest

from splap.constitutive import (
    GrowthParams,
    monotonicity_pairing,
    quasi_distance_sq,
    tensor_f,
    tensor_f_rows,
    tensor_s,
    tensor_s_rows,
)


def test_growth_params_validation():
    GrowthParams(1.1)
    GrowthParams(2.0, kappa=1.0)
    GrowthParams(4.0, kappa=0.0)
    with pytest.raises(ValueError):
        GrowthParams(1.0)
    with pytest.raises(ValueError):
        GrowthParams(0.5)
    with pytest.raises(ValueError):
        GrowthParams(float("nan"))
    with pytest.raises(ValueError):
        GrowthParams(2.0, kappa=-1.0)


def test_tensor_s_p2_is_identity():
    params = GrowthParams(2.0)
    xi = np.array([[1.0, -3.0]])
    assert np.allclose(tensor_s(xi, params), xi)


def test_tensor_s_p4_example():
    # |xi| = 5, S = |xi|^{p-2} xi = 5^2 (3,4)
    params = GrowthParams(4.0)
    out = tensor_s(np.array([[3.0, 4.0]]), params)
    assert np.allclose(out, [[75.0, 100.0]], rtol=1e-14)


def test_tensor_f_p4_example():
    # F = |xi|^{(p-2)/2} xi = 5 * (3,4)
    params = GrowthParams(4.0)
    out = tensor_f(np.array([[3.0, 4.0]]), params)
    assert np.allclose(out, [[15.0, 20.0]], rtol=1e-14)


def test_zero_extension_at_origin():
    # for p < 2, kappa = 0 the formula is singular at 0; the continuous
    # extension S(0) = F(0) = 0 must be returned without warnings
    for p in (1.1, 1.5, 1.9):
        params = GrowthParams(p)
        zero = np.zeros((1, 2))
        with np.errstate(all="raise"):
            assert np.all(tensor_s(zero, params) == 0.0)
            assert np.all(tensor_f(zero, params) == 0.0)


def test_quasi_distance_examples():
    p2 = GrowthParams(2.0)
    xi = np.array([[1.0, 0.0]])
    eta = np.array([[0.0, 1.0]])
    assert quasi_distance_sq(xi, xi, p2) == 0.0
    assert np.isclose(quasi_distance_sq(xi, eta, p2), 2.0, rtol=1e-14)
    # p=3, kappa=0: |F(xi)|^2 = |xi|^{p-2} |xi|^2 = 1
    p3 = GrowthParams(3.0)
    assert np.isclose(quasi_distance_sq(xi, np.zeros((1, 2)), p3), 1.0, rtol=1e-14)


def test_monotonicity_pairing_examples():
    p2 = GrowthParams(2.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi = rng.standard_normal((1, 2))
        eta = rng.standard_normal((1, 2))
        assert np.isclose(
            monotonicity_pairing(xi, eta, p2), np.sum((xi - eta) ** 2), rtol=1e-13
        )
    p3 = GrowthParams(3.0)
    xi = np.array([[1.0, 0.0]])
    assert monotonicity_pairing(xi, xi, p3) == 0.0
    assert np.isclose(monotonicity_pairing(xi, np.zeros((1, 2)), p3), 1.0, rtol=1e-14)


def test_shape_mismatch_rejected():
    params = GrowthParams(2.0)
    with pytest.raises(ValueError):
        quasi_distance_sq(np.zeros((1, 2)), np.zeros((2, 2)), params)
    with pytest.raises(ValueError):
        monotonicity_pairing(np.zeros((1, 2)), np.zeros((1, 3)), params)


def test_nonfinite_rejected():
    params = GrowthParams(2.0)
    with pytest.raises(ValueError):
        tensor_s(np.array([[np.nan, 0.0]]), params)
    with pytest.raises(ValueError):
        tensor_f(np.array([[np.inf, 0.0]]), params)


def test_homogeneity_at_kappa_zero():
    # S(t xi) = t^{p-1} S(xi) for t > 0
    rng = np.random.default_rng(5)
    for p in (1.1, 1.5, 2.0, 2.5, 4.0):
        params = GrowthParams(p)
        for _ in range(50):
            xi = rng.uniform(-10.0, 10.0, size=(1, 2))
            t = float(rng.uniform(0.1, 10.0))
            lhs = tensor_s(t * xi, params)
            rhs = t ** (p - 1.0) * tensor_s(xi, params)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_f_s_consistency_at_kappa_zero():
    # |F(xi)|^2 = S(xi):xi when kappa = 0
    rng = np.random.default_rng(7)
    for p in (1.1, 1.5, 2.0, 2.5, 4.0):
        params = GrowthParams(p)
        for _ in range(50):
            xi = rng.uniform(-10.0, 10.0, size=(1, 2))
            f_sq = float(np.sum(tensor_f(xi, params) ** 2))
            pairing = float(np.sum(tensor_s(xi, params) * xi))
            assert np.isclose(f_sq, pairing, rtol=1e-12)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 4.0])
@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_quasi_distance_pairing_ratio_bounded(p, kappa):
    # the quasi distance and the monotonicity pairing are equivalent:
    # their ratio stays inside a fixed positive interval over random pairs
    params = GrowthParams(p, kappa=kappa)
    rng = np.random.default_rng(int(p * 100) + int(kappa))
    n = 10_000
    xi = rng.uniform(-10.0, 10.0, size=(n, 2))
    eta = rng.uniform(-10.0, 10.0, size=(n, 2))
    dist = np.array(
        [quasi_distance_sq(xi[i : i + 1], eta[i : i + 1], params) for i in range(0, n, 97)]
    )
    pair = np.array(
        [monotonicity_pairing(xi[i : i + 1], eta[i : i + 1], params) for i in range(0, n, 97)]
    )
    # vectorized closure over the full sample
    f_diff = tensor_f_rows(xi, params) - tensor_f_rows(eta, params)
    dist_all = np.sum(f_diff * f_diff, axis=1)
    s_diff = tensor_s_rows(xi, params) - tensor_s_rows(eta, params)
    pair_all = np.sum(s_diff * (xi - eta), axis=1)
    assert np.allclose(dist_all[::97], dist, rtol=1e-12)
    assert np.allclose(pair_all[::97], pair, rtol=1e-12)
    assert np.all(pair_all >= 0.0)
    ratio = dist_all / pair_all
    assert np.all(np.isfinite(ratio))
    assert ratio.min() > 1e-2
    assert ratio.max() < 1e2


def test_pairing_nonnegative_near_degenerate():
    rng = np.random.default_rng(13)
    for p in (1.1, 2.5):
        params = GrowthParams(p)
        for _ in range(200):
            xi = rng.standard_normal((1, 2)) * 10.0 ** rng.integers(-8, 2)
            eta = xi + rng.standard_normal((1, 2)) * 1e-9
            assert monotonicity_pairing(xi, eta, params) >= 0.0


def test_rows_match_scalar_api():
    rng = np.random.default_rng(3)
    params = GrowthParams(1.5, kappa=0.5)
    rows = rng.standard_normal((40, 2))
    s_rows = tensor_s_rows(rows, params)
    f_rows = tensor_f_rows(rows, params)
    for i in range(rows.shape[0]):
        assert np.allclose(s_rows[i], tensor_s(rows[i : i + 1], params)[0], rtol=1e-14)
        assert np.allclose(f_rows[i], tensor_f(rows[i : i + 1], params)[0], rtol=1e-14)


def test_general_matrix_arguments():
    # D x d arguments beyond the scalar 2D default
    params = GrowthParams(3.0)
    xi = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
    norm = np.sqrt(np.sum(xi * xi))
    assert np.allclose(tensor_s(xi, params), norm * xi, rtol=1e-14)
    assert np.allclose(tensor_f(xi, params), np.sqrt(norm) * xi, rtol=1e-14)


def random_orthogonal(rng, n):
    """An n x n orthogonal matrix: the Q factor of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 4.0])
@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_tensors_commute_with_orthogonal_maps(p, kappa):
    # the Frobenius norm of Q1 xi Q2 is that of xi, so S and F commute
    # with left and right orthogonal factors, and the quasi distance and
    # the monotonicity pairing do not see them
    params = GrowthParams(p, kappa=kappa)
    rng = np.random.default_rng(int(p * 100) + int(kappa) + 17)
    for shape in ((1, 2), (2, 2), (2, 3)):
        for _ in range(20):
            left, right = random_orthogonal(rng, shape[0]), random_orthogonal(rng, shape[1])
            xi = rng.uniform(-10.0, 10.0, size=shape)
            eta = rng.uniform(-10.0, 10.0, size=shape)
            turned_xi, turned_eta = left @ xi @ right, left @ eta @ right
            for tensor in (tensor_s, tensor_f):
                expected = left @ tensor(xi, params) @ right
                assert np.allclose(tensor(turned_xi, params), expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
            assert np.isclose(
                quasi_distance_sq(turned_xi, turned_eta, params), quasi_distance_sq(xi, eta, params), rtol=1e-11
            )
            assert np.isclose(
                monotonicity_pairing(turned_xi, turned_eta, params), monotonicity_pairing(xi, eta, params), rtol=1e-11
            )
    # row-wise: turning every gradient row by one rotation turns S and F rows
    rows = rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-3, 2, size=(200, 1))
    rotation = random_orthogonal(rng, 2)
    for tensor_rows in (tensor_s_rows, tensor_f_rows):
        expected = tensor_rows(rows, params) @ rotation
        np.testing.assert_allclose(tensor_rows(rows @ rotation, params), expected, rtol=1e-12, atol=1e-14)
