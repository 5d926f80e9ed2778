"""Constitutive maps for diffusion tensors with p-growth.

For a small real matrix ``xi`` with Frobenius norm ``|xi|`` the model
tensor and its linearization are

    S(xi) = (kappa + |xi|)**(p - 2) * xi
    F(xi) = (kappa + |xi|)**((p - 2) / 2) * xi

with ``p > 1`` and ``kappa >= 0``.  Both maps extend continuously by
``S(0) = F(0) = 0`` when ``kappa = 0``: the prefactor is singular at the
origin for ``p < 2``, but the product still tends to zero because
``|xi|**(p - 2) * |xi| = |xi|**(p - 1) -> 0``.

``GrowthParams`` holds p and kappa.  The error is measured in the
squared increment ``|F(xi) - F(eta)|**2``; everything downstream uses
the scalar 2D case, where a gradient per simplex is a 1-by-2 matrix,
and ``tensor_f_rows`` applies F row-wise to an ``(n, d)`` array.  It is
the hot path of the quasinorm error (``fem.quasinorm_error_sq``); the
solver forms its own smoothed tensor.
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


def _scale(norms: np.ndarray, params: GrowthParams, exponent: float) -> np.ndarray:
    """(kappa + |xi|)**exponent with the continuous zero extension."""
    base = params.kappa + norms
    out = np.empty_like(base)
    pos = base > 0.0
    out[pos] = base[pos] ** exponent
    out[~pos] = 1.0  # placeholder; multiplied by a zero matrix below
    return out


def row_norms_sq(g: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of an (n, d) array, as a contiguous (n,) vector.

    For d = 2 the two columns are summed directly, which gives the bits
    of a sum over the last axis without the cost of a reduction of
    length 2 per row.
    """
    if g.shape[-1] == 2:
        x, y = g[..., 0], g[..., 1]
        return x * x + y * y
    return np.sum(g * g, axis=-1)


def tensor_f_rows(g: np.ndarray, params: GrowthParams) -> np.ndarray:
    """Apply F row-wise to an (n, d) array; row j is one small matrix.

    The row norms come from ``row_norms_sq``, so the gradient rows of
    the 2D error functional take no reduction of length 2.
    """
    g = np.asarray(g, dtype=float)
    norms = np.sqrt(row_norms_sq(g))
    scale = _scale(norms, params, (params.p - 2.0) / 2.0)
    return scale[..., None] * g
