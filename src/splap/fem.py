"""P1 finite element operators on a triangle mesh.

Scalar conforming functions live in the nodal P1 space V_h and are
represented by their vertex coefficient vectors (length nv).  Broken
functions live in the discontinuous per-simplex P1 space and are
represented by simplex-major coefficient vectors of length 3*ns: entries
3*j .. 3*j+2 are the values at the three local nodes of simplex j, in
the simplex's vertex order.

``assemble`` produces the sparse operators used everywhere downstream.
Below, R (n_interior x nv) selects the interior vertices, one unit
entry per row, and A = sum_i Di' diag(areas) Di is the stiffness.

mass
    P, nv x nv, exact integrals of products of nodal basis functions;
    the local block on a triangle of area A is (A/12) [[2,1,1],[1,2,1],
    [1,1,2]].
dgrad
    (D1, D2), each ns x nv, the constant per-simplex partial derivative
    of a conforming function; at most three nonzeros per row.
areas
    Simplex areas.
pattern
    An InteriorPattern: the reverse Cuthill-McKee order of the interior
    unknowns (SciPy's order, computed by ``_reverse_cuthill_mckee`` so
    that no process imports scipy.sparse.csgraph and the
    scipy.sparse.linalg it loads), fixed per mesh, in which every
    interior Newton system is a LAPACK lower band of half-width kd;
    R P R' and R A R' as band data vectors; and the fixed operator that
    maps stacked per-simplex weights to the band data of their weighted
    stiffness.  A Newton matrix is then a band data vector, the mass
    plus one sparse product.
    The pattern also keeps the Cholesky factor of the p = 2 start system
    R (P + tau A) R' for the last step size tau it was asked for.
point_op
    [D1 R'; D2 R'; R P R'], (2*ns + n_interior) x n_interior: one
    product with the interior coefficients gives both gradient
    components on every simplex and the interior part of P u.
flux_op
    R [D1' D2'] diag(areas, areas), n_interior x 2*ns: one product with
    a stacked per-simplex flux (s1, s2) gives the interior part of
    sum_i Di' diag(areas) s_i.
load_op
    Pt' as a CSR matrix, nv x 3*ns, Pt the broken mass: the local mass
    blocks scattered to broken rows and conforming columns, so that
    f' Pt u integrates a broken f against a conforming u.  One product
    maps a broken forcing to its load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf

from .constitutive import GrowthParams, row_norms_sq, tensor_f_rows
from .mesh import Mesh, MeshError, _signed_areas

_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True)
class InteriorPattern:
    """Lower band storage of the interior n_i x n_i systems of one mesh.

    The interior unknowns are renumbered by reverse Cuthill-McKee:
    position k of the band holds interior unknown ``perm[k]``, and every
    coupling lies within ``kd`` positions of the diagonal.  A band data
    vector has n_i * (kd + 1) entries; entry (row, col) of the lower
    triangle in RCM numbering sits at ``col * (kd + 1) + (row - col)``,
    so ``band`` reshapes it to the Fortran-ordered (kd + 1, n_i) array
    of LAPACK's lower band storage without a copy.

    ``products`` is the (band entries x 3*ns) operator of the basis
    gradient products, stored by column because most band entries of a
    structured mesh stay empty: with (gx, gy) the local basis gradients of
    simplex j and a, b two of its local nodes whose vertices are both
    interior, it holds gx_a gx_b in column j, gx_a gy_b + gy_a gx_b in
    column ns + j and gy_a gy_b in column 2*ns + j of the row of the
    band entry that (a, b) adds into, each pair counted once in the
    lower triangle.  ``mass`` and ``stiffness`` are R P R' and R A R'
    as band data vectors.

    ``start_factor`` keeps one slot: the step size and Cholesky factor
    of the last start system it factored.  A deterministic grid asks
    for the same step size on every step of a trajectory, so each
    trajectory factors once; a random grid draws a new one on almost
    every step, and one slot keeps the memory of a long run at one
    factor, where one per step size would grow with the lattice.
    """

    perm: np.ndarray
    kd: int
    products: sp.csc_matrix
    mass: np.ndarray
    stiffness: np.ndarray
    _start: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def weighted_stiffness(self, w: np.ndarray) -> np.ndarray:
        """Band data of sum_j w11_j gx gx' + w12_j (gx gy' + gy gx') + w22_j gy gy', w the (3, ns) rows (w11, w12, w22)."""
        return self.products @ w.ravel()

    def band(self, data: np.ndarray) -> np.ndarray:
        """The (kd + 1, n_i) F-contiguous lower band holding ``data``."""
        return data.reshape(self.perm.shape[0], self.kd + 1).T

    def start_factor(self, tau: float) -> np.ndarray | None:
        """Lower Cholesky band of mass + tau * stiffness (LAPACK dpbtrf), None if not positive definite."""
        cached_tau, factor = self._start
        if cached_tau != tau:
            factor, info = dpbtrf(self.band(self.mass + tau * self.stiffness), lower=1, overwrite_ab=1)
            if info != 0:
                factor = None
            object.__setattr__(self, "_start", (tau, factor))
        return factor


def _reverse_cuthill_mckee(graph: sp.csr_matrix) -> np.ndarray:
    """The order of scipy.sparse.csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True), tie for tie.

    A node's degree is its row length, plus one if the row holds its
    diagonal.  Breadth-first searches start from the unvisited node
    first in ``np.argsort`` of the degrees; each visited node appends
    its unvisited neighbours in column order, stably sorted by degree.
    The search order, reversed, is the result.  The seeds follow
    NumPy's default (unstable) sort, whose order among equal degrees
    decides the band order as it does in SciPy.
    """
    ind, ptr = graph.indices, graph.indptr
    n = graph.shape[0]
    degree = np.diff(ptr).astype(ind.dtype)
    row = np.repeat(np.arange(n), degree)
    degree[row[row == ind]] += 1
    deg, ind, ptr = degree.tolist(), ind.tolist(), ptr.tolist()
    visited = [False] * n
    order = []
    for seed in np.argsort(degree).tolist():
        if visited[seed]:
            continue
        visited[seed] = True
        order.append(seed)
        head = len(order) - 1
        while head < len(order):
            i = order[head]
            head += 1
            start = len(order)
            for j in ind[ptr[i] : ptr[i + 1]]:
                if not visited[j]:
                    visited[j] = True
                    order.append(j)
            order[start:] = sorted(order[start:], key=deg.__getitem__)
    return np.array(order[::-1], dtype=graph.indices.dtype)


def _interior_pattern(
    t: np.ndarray, interior: np.ndarray, nv: int, local_mass: np.ndarray, areas: np.ndarray, gx: np.ndarray, gy: np.ndarray
) -> InteriorPattern:
    ni = interior.shape[0]
    ns = t.shape[0]
    local = np.full(nv, -1, dtype=np.int64)
    local[interior] = np.arange(ni)
    lt = local[t]
    rows = np.broadcast_to(lt[:, :, None], lt.shape + (3,)).ravel()
    cols = np.broadcast_to(lt[:, None, :], lt.shape + (3,)).ravel()
    inner = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols = rows[inner], cols[inner]
    perm = _reverse_cuthill_mckee(sp.csr_matrix((np.ones(inner.shape[0]), (rows, cols)), shape=(ni, ni)))
    rank = np.empty(ni, dtype=np.int64)
    rank[perm] = np.arange(ni)
    rows, cols = rank[rows], rank[cols]
    lower = rows >= cols
    offset = rows[lower] - cols[lower]
    kd = int(offset.max(initial=0))
    slot = cols[lower] * (kd + 1) + offset
    # entry k of the flattened (ns, 3, 3) element blocks couples local
    # nodes a, b of simplex j, k = 9j + 3a + b
    keep = inner[lower]
    j, a, b = keep // 9, keep // 3 % 3, keep % 3
    c11 = gx[j, a] * gx[j, b]
    c22 = gy[j, a] * gy[j, b]
    c12 = gx[j, a] * gy[j, b] + gy[j, a] * gx[j, b]
    size = ni * (kd + 1)
    products = sp.coo_matrix(
        (np.concatenate((c11, c12, c22)), (np.tile(slot, 3), np.concatenate((j, ns + j, 2 * ns + j)))),
        shape=(size, 3 * ns),
    ).tocsc()
    return InteriorPattern(
        perm=perm,
        kd=kd,
        products=_without_zeros(products),
        mass=np.bincount(slot, weights=local_mass[keep], minlength=size),
        stiffness=np.bincount(slot, weights=areas[j] * (c11 + c22), minlength=size),
    )


@dataclass(frozen=True)
class FemOperators:
    """Assembled sparse operators for one mesh. See module docstring."""

    mesh: Mesh
    mass: sp.csr_matrix
    dgrad: tuple[sp.csr_matrix, sp.csr_matrix]
    areas: np.ndarray
    interior: np.ndarray
    pattern: InteriorPattern
    point_op: sp.csr_matrix
    flux_op: sp.csr_matrix
    load_op: sp.csr_matrix

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices

    @property
    def n_simplices(self) -> int:
        return self.mesh.n_simplices

    @property
    def n_interior(self) -> int:
        return self.interior.shape[0]

    def prolong(self, u_interior: np.ndarray) -> np.ndarray:
        """Interior coefficients -> conforming vector, zero on the boundary."""
        u_interior = np.asarray(u_interior, dtype=float)
        if u_interior.shape != (self.n_interior,):
            raise ValueError(f"expected {self.n_interior} interior coefficients")
        full = np.zeros(self.n_vertices)
        full[self.interior] = u_interior
        return full


def assemble(mesh: Mesh) -> FemOperators:
    """Assemble all operators of a mesh; an inverted simplex raises MeshError."""
    v = mesh.vertices
    t = mesh.simplices
    ns = mesh.n_simplices
    nv = mesh.n_vertices

    areas = _signed_areas(v, t)
    if np.any(areas <= 0.0):
        raise MeshError("inverted simplex during assembly")

    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    inv2a = 1.0 / (2.0 * areas)
    # Barycentric basis gradients: grad phi_a = (b_a, c_a) / (2A) with
    # b_a = y_{a+1} - y_{a+2}, c_a = x_{a+2} - x_{a+1} (cyclic).
    gx = np.column_stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]]) * inv2a[:, None]
    gy = np.column_stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]]) * inv2a[:, None]

    rows_d = np.repeat(np.arange(ns), 3)
    cols_d = t.ravel()
    d1 = sp.coo_matrix((gx.ravel(), (rows_d, cols_d)), shape=(ns, nv)).tocsr()
    d2 = sp.coo_matrix((gy.ravel(), (rows_d, cols_d)), shape=(ns, nv)).tocsr()

    rows_m = np.repeat(t, 3, axis=1).ravel()
    cols_m = np.tile(t, (1, 3)).ravel()
    data_m = (areas[:, None] * _LOCAL_MASS.ravel()[None, :]).ravel()
    mass = sp.coo_matrix((data_m, (rows_m, cols_m)), shape=(nv, nv)).tocsr()

    broken_rows = (3 * np.arange(ns)[:, None, None] + np.arange(3)[None, :, None])
    broken_rows = np.broadcast_to(broken_rows, (ns, 3, 3)).ravel()
    broken_cols = np.broadcast_to(t[:, None, :], (ns, 3, 3)).ravel()
    broken_data = (areas[:, None, None] * _LOCAL_MASS[None, :, :]).ravel()
    broken_mass = sp.coo_matrix((broken_data, (broken_rows, broken_cols)), shape=(3 * ns, nv)).tocsr()

    interior = np.where(~mesh.boundary_vertex_flags)[0]
    d_interior = sp.vstack([d1[:, interior], d2[:, interior]], format="csr")

    return FemOperators(
        mesh=mesh,
        mass=mass,
        dgrad=(d1, d2),
        areas=areas,
        interior=interior,
        pattern=_interior_pattern(t, interior, nv, broken_data, areas, gx, gy),
        point_op=_without_zeros(sp.vstack([d_interior, mass[interior][:, interior]], format="csr")),
        flux_op=_without_zeros((d_interior.T @ sp.diags(np.concatenate((areas, areas)))).tocsr()),
        load_op=broken_mass.T.tocsr(),
    )


def _without_zeros(op: sp.spmatrix) -> sp.spmatrix:
    """``op`` without its explicitly stored zeros (a basis gradient may vanish)."""
    op.eliminate_zeros()
    return op


def _check_conforming(ops: FemOperators, u: np.ndarray, name: str = "u") -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (ops.n_vertices,):
        raise ValueError(f"{name} must have {ops.n_vertices} coefficients, got shape {u.shape}")
    return u


def gradient_per_simplex(ops: FemOperators, u: np.ndarray) -> np.ndarray:
    """Constant gradient of a conforming function on each simplex.

    Returns an (ns, 2) array; row j is the 1-by-2 gradient matrix of u
    restricted to simplex j.
    """
    u = _check_conforming(ops, u)
    d1, d2 = ops.dgrad
    return np.column_stack([d1 @ u, d2 @ u])


def l2_error_sq(ops: FemOperators, u: np.ndarray, v: np.ndarray) -> float:
    """Exact squared L2 distance of two conforming functions."""
    u = _check_conforming(ops, u)
    v = _check_conforming(ops, v, "v")
    d = u - v
    val = float(d @ (ops.mass @ d))
    return max(val, 0.0)


def quasinorm_error_sq(ops: FemOperators, u: np.ndarray, v: np.ndarray, params: GrowthParams) -> float:
    """Squared quasi-norm distance sum_j |S_j| |F(grad u) - F(grad v)|^2."""
    gu = gradient_per_simplex(ops, u)
    gv = gradient_per_simplex(ops, v)
    df = tensor_f_rows(gu, params) - tensor_f_rows(gv, params)
    return float(ops.areas @ row_norms_sq(df))
