"""Constitutive maps for diffusion tensors with p-growth.

For a small real matrix ``xi`` with Frobenius norm ``|xi|`` the model
tensor and its linearization are

    S(xi) = (kappa + |xi|)**(p - 2) * xi
    F(xi) = (kappa + |xi|)**((p - 2) / 2) * xi

with ``p > 1`` and ``kappa >= 0``.  Both maps extend continuously by
``S(0) = F(0) = 0`` when ``kappa = 0``: the prefactor is singular at the
origin for ``p < 2``, but the product still tends to zero because
``|xi|**(p - 2) * |xi| = |xi|**(p - 1) -> 0``.

The squared increment ``|F(xi) - F(eta)|**2`` and the monotonicity
pairing ``(S(xi) - S(eta)) : (xi - eta)`` are equivalent up to constants
that depend only on ``p``; both vanish exactly when ``xi == eta``.  The
increment is the natural squared distance in which the time stepping
error is measured.

Operationally everything downstream uses the scalar 2D case, where a
gradient per simplex is a 1-by-2 matrix.  The ``*_rows`` variants apply
the maps row-wise to an ``(n, d)`` array.  ``tensor_f_rows`` is the hot
path of the quasinorm error (``fem.quasinorm_error_sq``); the solver
forms its own smoothed tensor, and ``tensor_s_rows`` is the reference
its residual is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GrowthParams:
    """Growth exponent and shift of the constitutive law.

    Parameters
    ----------
    p : float
        Growth exponent, ``1 < p < inf``.
    kappa : float
        Nonnegative shift.  ``kappa = 0`` is the degenerate case.
    """

    p: float
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"growth exponent must satisfy 1 < p < inf, got p={self.p}")
        if not (np.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError(f"kappa must be finite and >= 0, got kappa={self.kappa}")


def _as_matrix(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.size == 0:
        raise ValueError("empty matrix argument")
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite entries in matrix argument")
    return xi


def _scale(norms: np.ndarray, params: GrowthParams, exponent: float) -> np.ndarray:
    """(kappa + |xi|)**exponent with the continuous zero extension."""
    base = params.kappa + norms
    out = np.empty_like(base)
    pos = base > 0.0
    out[pos] = base[pos] ** exponent
    out[~pos] = 1.0  # placeholder; multiplied by a zero matrix below
    return out


def tensor_s(xi, params: GrowthParams) -> np.ndarray:
    """Evaluate S(xi) = (kappa + |xi|)**(p-2) xi, Frobenius norm."""
    xi = _as_matrix(xi)
    r = float(np.sqrt(np.sum(xi * xi)))
    base = params.kappa + r
    if base == 0.0:
        return np.zeros_like(xi)
    return base ** (params.p - 2.0) * xi


def tensor_f(xi, params: GrowthParams) -> np.ndarray:
    """Evaluate F(xi) = (kappa + |xi|)**((p-2)/2) xi, Frobenius norm."""
    xi = _as_matrix(xi)
    r = float(np.sqrt(np.sum(xi * xi)))
    base = params.kappa + r
    if base == 0.0:
        return np.zeros_like(xi)
    return base ** ((params.p - 2.0) / 2.0) * xi


def quasi_distance_sq(xi, eta, params: GrowthParams) -> float:
    """Squared increment |F(xi) - F(eta)|**2 of the linearizing map."""
    xi = _as_matrix(xi)
    eta = _as_matrix(eta)
    if xi.shape != eta.shape:
        raise ValueError(f"shape mismatch: {xi.shape} vs {eta.shape}")
    d = tensor_f(xi, params) - tensor_f(eta, params)
    return float(np.sum(d * d))


def monotonicity_pairing(xi, eta, params: GrowthParams) -> float:
    """Pairing (S(xi) - S(eta)) : (xi - eta); nonnegative by monotonicity."""
    xi = _as_matrix(xi)
    eta = _as_matrix(eta)
    if xi.shape != eta.shape:
        raise ValueError(f"shape mismatch: {xi.shape} vs {eta.shape}")
    ds = tensor_s(xi, params) - tensor_s(eta, params)
    return float(np.sum(ds * (xi - eta)))


def tensor_s_rows(g: np.ndarray, params: GrowthParams) -> np.ndarray:
    """Apply S row-wise to an (n, d) array; row j is one small matrix."""
    g = np.asarray(g, dtype=float)
    norms = np.sqrt(np.sum(g * g, axis=-1))
    scale = _scale(norms, params, params.p - 2.0)
    return scale[..., None] * g


def tensor_f_rows(g: np.ndarray, params: GrowthParams) -> np.ndarray:
    """Apply F row-wise to an (n, d) array; row j is one small matrix."""
    g = np.asarray(g, dtype=float)
    norms = np.sqrt(np.sum(g * g, axis=-1))
    scale = _scale(norms, params, (params.p - 2.0) / 2.0)
    return scale[..., None] * g
