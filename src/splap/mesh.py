"""The structured triangulation of the unit square.

A mesh is a list of vertices and a list of positively oriented
triangles, with a flag on each vertex of the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Raised for a mesh that cannot be built or assembled."""


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh.

    Fields
    ------
    vertices : (nv, 2) float array
    simplices : (ns, 3) int array, counterclockwise vertex triples
    boundary_vertex_flags : (nv,) bool array, True on the boundary
    """

    vertices: np.ndarray
    simplices: np.ndarray
    boundary_vertex_flags: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]


def _signed_areas(vertices: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    p0 = vertices[simplices[:, 0]]
    p1 = vertices[simplices[:, 1]]
    p2 = vertices[simplices[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def generate_unit_square(n: int) -> Mesh:
    """Uniform triangulation of the unit square.

    Splits an n-by-n grid of squares along the lower-left to upper-right
    diagonal, giving (n+1)**2 vertices and 2*n**2 right triangles with
    longest edge sqrt(2)/n.  Vertex j*(n+1) + i sits at (i/n, j/n) and
    lies on the boundary when i or j is 0 or n.
    """
    if int(n) != n or n < 1:
        raise MeshError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    idx = np.arange(n + 1)
    iv, jv = np.meshgrid(idx, idx, indexing="xy")
    vertices = np.column_stack([iv.ravel() / n, jv.ravel() / n])
    boundary = ((iv == 0) | (iv == n) | (jv == 0) | (jv == n)).ravel()

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = j.ravel() * (n + 1) + i.ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    simplices = np.empty((2 * n * n, 3), dtype=np.int64)
    simplices[0::2] = np.column_stack([v00, v10, v11])
    simplices[1::2] = np.column_stack([v00, v11, v01])
    return Mesh(vertices=vertices, simplices=simplices, boundary_vertex_flags=boundary)
