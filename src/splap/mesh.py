"""Conforming simplicial meshes of plane domains.

A mesh is a list of vertices and a list of positively oriented
triangles.  Validation enforces the usual conformity rules: no inverted
or degenerate triangle, every edge shared by at most two triangles, and
no vertex sitting in the interior of another triangle's edge (hanging
node).  Boundary vertices are exactly those lying on an edge that
belongs to a single triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A triangle whose area falls below this fraction of the mesh mean is
# treated as degenerate.
DEGENERATE_AREA_FRACTION = 1e-14


class MeshError(ValueError):
    """Raised for malformed, non-conforming, or degenerate meshes."""


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


def _edge_counts(simplices: np.ndarray) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for tri in simplices:
        a, b, c = int(tri[0]), int(tri[1]), int(tri[2])
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return counts


def make_mesh(vertices, simplices) -> Mesh:
    """Validate raw arrays and build a Mesh with boundary flags."""
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    simplices = np.ascontiguousarray(np.asarray(simplices, dtype=np.int64))
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError(f"vertices must be (nv, 2), got {vertices.shape}")
    if simplices.ndim != 2 or simplices.shape[1] != 3:
        raise MeshError(f"simplices must be (ns, 3), got {simplices.shape}")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("non-finite vertex coordinates")
    nv = vertices.shape[0]
    if simplices.size and (simplices.min() < 0 or simplices.max() >= nv):
        raise MeshError("vertex index out of range")
    if nv == 0 or simplices.shape[0] == 0:
        raise MeshError("mesh must contain at least one vertex and one simplex")
    for j, tri in enumerate(simplices):
        if len({int(tri[0]), int(tri[1]), int(tri[2])}) != 3:
            raise MeshError(f"simplex {j} has repeated vertices")

    areas = _signed_areas(vertices, simplices)
    bad = np.where(areas <= 0.0)[0]
    if bad.size:
        raise MeshError(f"inverted simplex {int(bad[0])} (nonpositive signed area)")
    if np.any(areas < DEGENERATE_AREA_FRACTION * float(areas.mean())):
        j = int(np.argmin(areas))
        raise MeshError(f"degenerate simplex {j} (area below tolerance)")

    # Distinct vertices must be geometrically distinct as well; two
    # coincident points break the shared-vertex conformity rule.
    if np.unique(vertices, axis=0).shape[0] != nv:
        raise MeshError("two vertices share the same coordinates")

    counts = _edge_counts(simplices)
    boundary = np.zeros(nv, dtype=bool)
    single_edges = []
    for (u, v), c in counts.items():
        if c > 2:
            raise MeshError(f"edge ({u}, {v}) shared by {c} simplices")
        if c == 1:
            boundary[u] = True
            boundary[v] = True
            single_edges.append((u, v))

    # Hanging-node check: a T-junction leaves the long edge counted once
    # with a foreign vertex strictly inside it.
    for u, v in single_edges:
        a = vertices[u]
        d = vertices[v] - a
        ll = float(d @ d)
        rel = vertices - a
        cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
        dot = rel @ d
        onseg = (np.abs(cross) <= 1e-12 * ll) & (dot > 1e-12 * ll) & (dot < (1.0 - 1e-12) * ll)
        onseg[u] = onseg[v] = False
        if np.any(onseg):
            k = int(np.where(onseg)[0][0])
            raise MeshError(f"vertex {k} hangs on edge ({u}, {v})")

    return Mesh(vertices=vertices, simplices=simplices, boundary_vertex_flags=boundary)


def generate_unit_square(n: int) -> Mesh:
    """Uniform triangulation of the unit square.

    Splits an n-by-n grid of squares along the lower-left to upper-right
    diagonal, giving (n+1)**2 vertices and 2*n**2 right triangles with
    longest edge sqrt(2)/n.
    """
    if int(n) != n or n < 1:
        raise MeshError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    idx = np.arange(n + 1)
    xs, ys = np.meshgrid(idx / n, idx / n, indexing="xy")
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i = i.ravel()
    j = j.ravel()
    v00 = j * (n + 1) + i
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    simplices = np.empty((2 * n * n, 3), dtype=np.int64)
    simplices[0::2] = lower
    simplices[1::2] = upper
    return make_mesh(vertices, simplices)

