"""Shared test oracles: a randomly renumbered mesh and a band densifier."""

import numpy as np
from scipy.spatial import Delaunay

from splap.mesh import _signed_areas, generate_unit_square, make_mesh


def jittered_mesh(n, seed):
    """Delaunay mesh of a unit-square grid with jittered interior vertices.

    The vertices are renumbered at random, so neither the connectivity
    nor the numbering follows the structured grid.
    """
    rng = np.random.default_rng(seed)
    verts = generate_unit_square(n).vertices.copy()
    inner = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[inner] += rng.uniform(-0.3 / n, 0.3 / n, size=(int(inner.sum()), 2))
    verts = verts[rng.permutation(verts.shape[0])]
    tris = Delaunay(verts).simplices.astype(np.int64)
    flip = _signed_areas(verts, tris) < 0.0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return make_mesh(verts, tris)


def band_to_dense(pattern, data):
    """Dense symmetric n_i x n_i matrix, in interior order, of a band data vector.

    Entry (row, col), row >= col in RCM numbering, is read from index
    col * (kd + 1) + (row - col), mirrored to the upper triangle, and
    placed at interior unknowns (perm[row], perm[col]).  Band positions
    past the last row hold no entry and must be zero.
    """
    n, kd = pattern.perm.shape[0], pattern.kd
    band = np.asarray(data, dtype=float).reshape(n, kd + 1)
    col, offset = np.indices(band.shape)
    row = col + offset
    inside = row < n
    assert np.all(band[~inside] == 0.0)
    lower = np.zeros((n, n))
    lower[row[inside], col[inside]] = band[inside]
    dense = np.empty((n, n))
    dense[np.ix_(pattern.perm, pattern.perm)] = lower + np.tril(lower, -1).T
    return dense
