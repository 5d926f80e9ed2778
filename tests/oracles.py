"""Shared test oracles.

The constitutive maps S and F of a matrix argument, the quasi distance
|F(xi) - F(eta)|**2 and the monotonicity pairing (S(xi) - S(eta)) :
(xi - eta) built from them, and S applied row-wise.  F applied
row-wise and the quasi-norm error as they were computed before their
d = 2 path: row norms by sums over the last axis.  The P1 pieces the
program does not keep: nodal interpolation, the broken embedding, the
interior restriction R, the stiffness A = sum_i Di' diag(areas) Di and
the barycentric basis gradients.  A validating mesh builder, which
checks the conformity rules the structured mesh meets by
construction.  A randomly renumbered mesh, a turned copy of a mesh, a
band densifier, the product L L' of a band Cholesky factor, and the
step objective, its gradient, Hessian and KKT residual as the solver computed them before
the per-point state: each call prolongs u and runs the CSR derivative
and mass products itself, and the Hessian sums dense per-simplex 3 x 3
blocks into the band.  The per-point gather, the residual and the
weighted stiffness as the solver computed them before the fixed
interior operators: nodal values gathered per simplex, transposed
products and band data summed by ``bincount``.  The step solve as it
was before the primal-dual Newton matrix: the p = 2 surrogate start,
for p < 2 the smoothing continuation 1e-2, 1e-4, 1e-6, and on every
level, smoothed or not, damped Newton on the primal Hessian.  The
point state, J, the residual, the primal Hessian and the primal-dual
flux, update and matrix as the solver computed them one gradient
component at a time, before its stacked (2, ns) state: the same
operations in the same order, so the solver must match them bit for
bit.  Last, the errors of one Monte-Carlo replicate as the harness computed them
before the reference was shared: the reference marches the whole path
lattice and every ladder entry runs its own trajectory.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay

from splap.analysis import _path_layout, _runtime, path_error
from splap.constitutive import GrowthParams, _scale
from splap.fem import _LOCAL_MASS, _check_conforming
from splap.mesh import Mesh, MeshError, _signed_areas, generate_unit_square
from splap.psolver import (
    ARMIJO_C1,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceError,
    SingularityError,
    _hessian,
    _newton_direction,
    splu,
)
from splap.psolver import gradient as step_gradient
from splap.psolver import objective as step_objective
from splap.stepper import SchemeConfig, run_trajectory
from splap.stochastics import TimeGrid, mix_seed, random_time_grid, sample_path, uniform_time_grid


def _as_matrix(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.size == 0:
        raise ValueError("empty matrix argument")
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite entries in matrix argument")
    return xi


def tensor_s(xi, params):
    """S(xi) = (kappa + |xi|)**(p-2) xi, Frobenius norm."""
    xi = _as_matrix(xi)
    base = params.kappa + float(np.sqrt(np.sum(xi * xi)))
    if base == 0.0:
        return np.zeros_like(xi)
    return base ** (params.p - 2.0) * xi


def tensor_f(xi, params):
    """F(xi) = (kappa + |xi|)**((p-2)/2) xi, Frobenius norm."""
    xi = _as_matrix(xi)
    base = params.kappa + float(np.sqrt(np.sum(xi * xi)))
    if base == 0.0:
        return np.zeros_like(xi)
    return base ** ((params.p - 2.0) / 2.0) * xi


def quasi_distance_sq(xi, eta, params):
    """Squared increment |F(xi) - F(eta)|**2 of the linearizing map."""
    xi = _as_matrix(xi)
    eta = _as_matrix(eta)
    if xi.shape != eta.shape:
        raise ValueError(f"shape mismatch: {xi.shape} vs {eta.shape}")
    d = tensor_f(xi, params) - tensor_f(eta, params)
    return float(np.sum(d * d))


def monotonicity_pairing(xi, eta, params):
    """Pairing (S(xi) - S(eta)) : (xi - eta); nonnegative by monotonicity."""
    xi = _as_matrix(xi)
    eta = _as_matrix(eta)
    if xi.shape != eta.shape:
        raise ValueError(f"shape mismatch: {xi.shape} vs {eta.shape}")
    ds = tensor_s(xi, params) - tensor_s(eta, params)
    return float(np.sum(ds * (xi - eta)))


def tensor_s_rows(g, params):
    """Apply S row-wise to an (n, d) array; row j is one small matrix."""
    g = np.asarray(g, dtype=float)
    norms = np.sqrt(np.sum(g * g, axis=-1))
    return _scale(norms, params, params.p - 2.0)[..., None] * g


def tensor_f_rows(g, params):
    """Apply F row-wise to an (n, d) array, the norms by a sum over the last axis.

    The power is taken on the rows with a positive base only; the others
    get F = 0.
    """
    g = np.asarray(g, dtype=float)
    base = params.kappa + np.sqrt(np.sum(g * g, axis=-1))
    scale = np.ones_like(base)
    pos = base > 0.0
    scale[pos] = base[pos] ** ((params.p - 2.0) / 2.0)
    return scale[..., None] * g


def quasinorm_error_sq(ops, u, v, params):
    """sum_j |S_j| |F(grad u) - F(grad v)|^2, the squares summed over the last axis."""
    d1, d2 = ops.dgrad
    u, v = _check_conforming(ops, u), _check_conforming(ops, v, "v")
    df = tensor_f_rows(np.column_stack([d1 @ u, d2 @ u]), params) - tensor_f_rows(
        np.column_stack([d1 @ v, d2 @ v]), params
    )
    return float(ops.areas @ np.sum(df * df, axis=1))


def nodal_interpolate(mesh, g):
    """Vertex-wise interpolation of a pointwise function g(x, y)."""
    vals = np.array([float(g(float(x), float(y))) for x, y in mesh.vertices])
    if not np.all(np.isfinite(vals)):
        k = int(np.where(~np.isfinite(vals))[0][0])
        raise ValueError(f"non-finite interpolation value at vertex {k}")
    return vals


def broken_embed(ops, u):
    """Embed a conforming function into the broken space (exact)."""
    u = _check_conforming(ops, u)
    return u[ops.mesh.simplices.ravel()]


def restriction(ops):
    """R, n_interior x nv: one unit entry per row, at the row's interior vertex."""
    ni = ops.n_interior
    return sp.csr_matrix((np.ones(ni), (np.arange(ni), ops.interior)), shape=(ni, ops.n_vertices))


def stiffness(ops):
    """A = sum_i Di' diag(areas) Di; the p = 2 diffusion operator."""
    d1, d2 = ops.dgrad
    w = sp.diags(ops.areas)
    return (d1.T @ w @ d1 + d2.T @ w @ d2).tocsr()


def basis_gradients(ops):
    """(gx, gy), each ns x 3: the gradients of the local nodal basis functions.

    From the vertex coordinates: grad phi_a = (y_{a+1} - y_{a+2},
    x_{a+2} - x_{a+1}) / (2 |S_j|), local indices cyclic, in the
    simplex's vertex order.  They are the nonzeros of the rows of D1, D2.
    """
    v = ops.mesh.vertices[ops.mesh.simplices]
    nxt, prv = np.roll(v, -1, axis=1), np.roll(v, -2, axis=1)
    inv2a = 1.0 / (2.0 * ops.areas)
    return (nxt[..., 1] - prv[..., 1]) * inv2a[:, None], (prv[..., 0] - nxt[..., 0]) * inv2a[:, None]


# A triangle whose area falls below this fraction of the mesh mean is
# treated as degenerate.
DEGENERATE_AREA_FRACTION = 1e-14


def _edge_counts(simplices):
    counts = {}
    for tri in simplices:
        a, b, c = int(tri[0]), int(tri[1]), int(tri[2])
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return counts


def make_mesh(vertices, simplices):
    """Validate raw arrays and build a Mesh with boundary flags.

    The conformity rules: no inverted or degenerate triangle, no two
    vertices at one point, every edge shared by at most two triangles,
    and no vertex inside another triangle's edge (hanging node).
    Boundary vertices are exactly those on an edge of a single triangle.
    """
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


def rotated_mesh(mesh, angle):
    """``mesh`` turned by ``angle`` about the origin: same simplices, same numbering.

    A vertex (x, y) moves to (c x - s y, s x + c y), c = cos(angle),
    s = sin(angle); a turn keeps every orientation, area and boundary flag.
    """
    c, s = np.cos(angle), np.sin(angle)
    return make_mesh(mesh.vertices @ np.array([[c, s], [-s, c]]), mesh.simplices)


def rotate_rows(g1, g2, angle):
    """The components (c g1 - s g2, s g1 + c g2) of the vectors (g1, g2) turned by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    return c * g1 - s * g2, s * g1 + c * g2


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


def cholesky_product(pattern, factor):
    """L L' in interior order, L the lower Cholesky band ``factor`` ((kd + 1, n_i), RCM order)."""
    n, kd = pattern.perm.shape[0], pattern.kd
    band = np.asarray(factor).T
    col, offset = np.indices((n, kd + 1))
    row = col + offset
    inside = row < n
    lower = np.zeros((n, n))
    lower[row[inside], col[inside]] = band[inside]
    dense = np.empty((n, n))
    dense[np.ix_(pattern.perm, pattern.perm)] = lower @ lower.T
    return dense


def band_slots(ops):
    """(keep, slot): the element-block entries the band stores, and where.

    Entry k of the flattened (ns, 3, 3) element blocks couples local
    nodes a, b of simplex j (k = 9j + 3a + b).  ``keep`` lists the
    entries whose vertices are both interior and whose row is not above
    their column in the pattern's RCM numbering; ``slot`` is the band
    data index each of them adds into.
    """
    pattern, t, ni = ops.pattern, ops.mesh.simplices, ops.n_interior
    local = np.full(ops.n_vertices, -1, dtype=np.int64)
    local[ops.interior] = np.arange(ni)
    rank = np.empty(ni, dtype=np.int64)
    rank[pattern.perm] = np.arange(ni)
    lt = local[t]
    rows = np.broadcast_to(lt[:, :, None], lt.shape + (3,)).ravel()
    cols = np.broadcast_to(lt[:, None, :], lt.shape + (3,)).ravel()
    inner = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols = rank[rows[inner]], rank[cols[inner]]
    lower = rows >= cols
    slot = cols[lower] * (pattern.kd + 1) + rows[lower] - cols[lower]
    return inner[lower], slot


def bincount_weighted_stiffness(ops, w11, w12, w22):
    """Band data of the weighted stiffness: per-entry basis products summed by bincount."""
    keep, slot = band_slots(ops)
    j, a, b = keep // 9, keep // 3 % 3, keep % 3
    gx, gy = basis_gradients(ops)
    data = (
        w11[j] * gx[j, a] * gx[j, b]
        + w12[j] * (gx[j, a] * gy[j, b] + gy[j, a] * gx[j, b])
        + w22[j] * gy[j, a] * gy[j, b]
    )
    return np.bincount(slot, weights=data, minlength=ops.pattern.mass.shape[0])


def gathered_state(ops, u_interior):
    """(g1, g2, interior part of P u) from the nodal values gathered per simplex."""
    u_full = np.zeros(ops.n_vertices)
    u_full[ops.interior] = u_interior
    local = u_full[ops.mesh.simplices]
    gx, gy = basis_gradients(ops)
    mass_local = ops.areas[:, None] * (local @ _LOCAL_MASS)
    pu = np.bincount(ops.mesh.simplices.ravel(), weights=mass_local.ravel(), minlength=ops.n_vertices)
    return (gx * local).sum(axis=1), (gy * local).sum(axis=1), pu[ops.interior]


def bincount_residual(prob, u_interior, s1, s2):
    """Interior part of P u + tau sum_i Di' diag(areas) s_i - Pt' f, by one bincount."""
    ops = prob.ops
    u_full = np.zeros(ops.n_vertices)
    u_full[ops.interior] = u_interior
    local = u_full[ops.mesh.simplices]
    gx, gy = basis_gradients(ops)
    contrib = ops.areas[:, None] * (local @ _LOCAL_MASS)
    contrib += prob.tau_m * ops.areas[:, None] * (s1[:, None] * gx + s2[:, None] * gy)
    r = np.bincount(ops.mesh.simplices.ravel(), weights=contrib.ravel(), minlength=ops.n_vertices)
    return r[ops.interior] - prob.load[ops.interior]


def energy_density(t, p, kappa):
    """phi(t) with phi'(t) = (kappa + t)**(p-2) t and phi(0) = 0, by powers of t."""
    if kappa == 0.0:
        return t**p / p
    kt = kappa + t
    return (kt**p - kappa**p) / p - kappa * (kt ** (p - 1.0) - kappa ** (p - 1.0)) / (p - 1.0)


def smoothed_norms(prob, u_full, eps):
    """(g1, g2, norms) by the CSR derivative products."""
    d1, d2 = prob.ops.dgrad
    g1 = d1 @ u_full
    g2 = d2 @ u_full
    norms = np.sqrt(eps * eps + g1 * g1 + g2 * g2)
    return g1, g2, norms


def _raise_if_singular(norms, p, eps):
    if eps == 0.0 and p < 2.0 and np.any(norms == 0.0):
        raise SingularityError("p < 2, eps = 0, and a vanishing gradient norm")


def objective(prob, u_interior, eps=0.0):
    """J(u) with sparse products: 1/2 u' P u + tau sum |S_j| phi - load' u."""
    u = prob.ops.prolong(u_interior)
    p, kappa = prob.params.p, prob.params.kappa
    _, _, norms = smoothed_norms(prob, u, eps)
    with np.errstate(over="ignore"):
        density = energy_density(norms, p, kappa)
        quad = 0.5 * float(u @ (prob.ops.mass @ u))
        return quad + prob.tau_m * float(prob.ops.areas @ density) - float(prob.load @ u)


def gradient(prob, u_interior, eps=0.0):
    """Interior gradient of objective(., eps) by transposed CSR products."""
    u = prob.ops.prolong(u_interior)
    p, kappa = prob.params.p, prob.params.kappa
    d1, d2 = prob.ops.dgrad
    g1, g2, norms = smoothed_norms(prob, u, eps)
    _raise_if_singular(norms, p, eps)
    scale = (kappa + norms) ** (p - 2.0)
    w1 = scale * g1
    w2 = scale * g2
    areas = prob.ops.areas
    r = prob.ops.mass @ u + prob.tau_m * (d1.T @ (areas * w1) + d2.T @ (areas * w2)) - prob.load
    return r[prob.ops.interior]


def hessian(prob, u_interior, eps):
    """Interior Hessian as a band data vector, from dense per-simplex 3 x 3 blocks."""
    u = prob.ops.prolong(u_interior)
    p, kappa = prob.params.p, prob.params.kappa
    g1, g2, norms = smoothed_norms(prob, u, eps)
    _raise_if_singular(norms, p, eps)
    base = kappa + norms
    a = base ** (p - 2.0)
    b = np.zeros_like(norms)
    pos = norms > 0.0
    b[pos] = (p - 2.0) * base[pos] ** (p - 3.0) / norms[pos]
    areas = prob.ops.areas
    w11 = areas * (a + b * g1 * g1)
    w22 = areas * (a + b * g2 * g2)
    w12 = areas * (b * g1 * g2)
    # per simplex, gx (x) (w11 gx + w12 gy) + gy (x) (w12 gx + w22 gy)
    gx, gy = basis_gradients(prob.ops)
    hx = w11[:, None] * gx + w12[:, None] * gy
    hy = w12[:, None] * gx + w22[:, None] * gy
    blocks = gx[:, :, None] * hx[:, None, :] + gy[:, :, None] * hy[:, None, :]
    keep, slot = band_slots(prob.ops)
    pattern = prob.ops.pattern
    scattered = np.bincount(slot, weights=blocks.ravel()[keep], minlength=pattern.mass.shape[0])
    return pattern.mass + prob.tau_m * scattered


def kkt_residual(prob, u_interior, eps=0.0):
    """Interior residual norm of the variational form, by CSR products."""
    u = prob.ops.prolong(u_interior)
    d1, d2 = prob.ops.dgrad
    g = np.column_stack([d1 @ u, d2 @ u])
    if eps == 0.0:
        s = tensor_s_rows(g, prob.params)
    else:
        base = prob.params.kappa + np.sqrt(eps * eps + np.sum(g * g, axis=1))
        s = base[:, None] ** (prob.params.p - 2.0) * g
    areas = prob.ops.areas
    r = prob.ops.mass @ u + prob.tau_m * (d1.T @ (areas * s[:, 0]) + d2.T @ (areas * s[:, 1])) - prob.load
    return float(np.linalg.norm(r[prob.ops.interior]))


class ComponentPoint(NamedTuple):
    g1: np.ndarray
    g2: np.ndarray
    mass_u: np.ndarray
    norms: np.ndarray
    scale: np.ndarray


def component_point(prob, u_interior, eps):
    """The state at (u, eps) from one product with ``point_op``, component by component."""
    ns = prob.ops.n_simplices
    state = prob.ops.point_op @ u_interior
    g1, g2 = state[:ns], state[ns : 2 * ns]
    norms = np.sqrt(eps * eps + g1 * g1 + g2 * g2)
    p, kappa = prob.params.p, prob.params.kappa
    if p < 2.0 and kappa == 0.0 and eps == 0.0:
        with np.errstate(divide="ignore"):
            scale = norms ** (p - 2.0)
        scale[norms == 0.0] = 0.0
    else:
        scale = (kappa + norms) ** (p - 2.0)
    return ComponentPoint(g1, g2, state[2 * ns :], norms, scale)


def component_objective(prob, u_interior, pt):
    """J at kappa = 0: 1/2 u' P u + tau sum_j |S_j| n**2 s / p - load' u."""
    energy = prob.tau_m * float(prob.ops.areas @ (pt.norms * pt.norms * pt.scale / prob.params.p))
    quad = 0.5 * float(u_interior @ pt.mass_u)
    return quad + energy - float(prob.load[prob.ops.interior] @ u_interior)


def component_residual(prob, pt):
    """Interior part of P u + tau sum_i Di' diag(areas) s_i - Pt' f."""
    flux = np.concatenate((pt.scale * pt.g1, pt.scale * pt.g2))
    return pt.mass_u + prob.tau_m * (prob.ops.flux_op @ flux) - prob.load[prob.ops.interior]


def component_newton_matrix(prob, w11, w12, w22):
    """Band data of R P R' plus tau times the stiffness weighted by (w11, w12, w22)."""
    pattern = prob.ops.pattern
    h = pattern.products @ np.concatenate((w11, w12, w22))
    h *= prob.tau_m
    h += pattern.mass
    return h


def component_hessian(prob, pt):
    """Interior Hessian of J at a non-singular point."""
    p = prob.params.p
    a, norms, g1, g2 = pt.scale, pt.norms, pt.g1, pt.g2
    b = np.divide((p - 2.0) * a, (prob.params.kappa + norms) * norms, out=np.zeros_like(norms), where=norms > 0.0)
    areas = prob.ops.areas
    w11 = areas * (a + b * g1 * g1)
    w22 = areas * (a + b * g2 * g2)
    w12 = areas * (b * g1 * g2)
    return component_newton_matrix(prob, w11, w12, w22)


class ComponentDual(NamedTuple):
    s: np.ndarray
    c: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray


def component_dual(prob, pt, flux=None):
    """The flux at ``pt`` scaled into the ball |sigma| <= s n; the primal flux without ``flux``."""
    p, norms, s = prob.params.p, pt.norms, pt.scale
    c = (p - 2.0) / (norms * (prob.params.kappa + norms))
    if flux is None:
        return ComponentDual(s, c, s * pt.g1, s * pt.g2)
    sigma1, sigma2 = flux
    r = s * norms
    k = r / np.maximum(np.sqrt(sigma1 * sigma1 + sigma2 * sigma2), r)
    return ComponentDual(s, c, sigma1 * k, sigma2 * k)


def component_dual_hessian(prob, pt, dual):
    """Primal-dual Newton matrix, weights |S_j| (s I + c/2 (sigma g' + g sigma'))."""
    g1, g2, sigma1, sigma2 = pt.g1, pt.g2, dual.sigma1, dual.sigma2
    areas = prob.ops.areas
    w11 = areas * (dual.s + dual.c * sigma1 * g1)
    w22 = areas * (dual.s + dual.c * sigma2 * g2)
    w12 = areas * (0.5 * dual.c * (sigma1 * g2 + sigma2 * g1))
    return component_newton_matrix(prob, w11, w12, w22)


def component_dual_step(prob, old, dual, new):
    """sigma <- s g' + c sigma (g . (g' - g)) from ``old`` to ``new``, projected at ``new``."""
    t = old.g1 * (new.g1 - old.g1) + old.g2 * (new.g2 - old.g2)
    sigma1 = dual.s * new.g1 + dual.c * t * dual.sigma1
    sigma2 = dual.s * new.g2 + dual.c * t * dual.sigma2
    return component_dual(prob, new, (sigma1, sigma2))


# the continuation of the primal solve, kept here so the oracle does not
# follow the solver's own choice of smoothing level
PRIMAL_EPS_SCHEDULE = (1e-2, 1e-4, 1e-6)


def _primal_schedule(params):
    if params.p >= 2.0:
        return [0.0]
    return list(PRIMAL_EPS_SCHEDULE)


def _primal_level(prob, u, eps, target, max_iter):
    """Damped Newton on the primal Hessian at one smoothing level: (u, iterations)."""
    g = step_gradient(prob, u, eps)
    f = step_objective(prob, u, eps)
    it = 0
    while float(np.linalg.norm(g)) > target:
        if it >= max_iter:
            raise ConvergenceError(f"iteration cap {max_iter} exceeded at eps={eps:g}")
        d, slope = _newton_direction(_hessian(prob, u, eps), g, prob.ops.pattern)
        if abs(slope) * 0.5 < 1e-15 * (1.0 + abs(f)):
            break
        alpha = 1.0
        while True:
            trial = u + alpha * d
            ft = step_objective(prob, trial, eps)
            if np.isfinite(ft) and ft <= f + ARMIJO_C1 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 2.0**-60:
                raise ConvergenceError(f"line search stalled at eps={eps:g}")
        u, f = trial, ft
        it += 1
        g = step_gradient(prob, u, eps)
    return u, it


def surrogate_start(prob):
    """Minimizer of the p = 2 surrogate step (P + tau A) u = load, in the pattern's band."""
    pattern = prob.ops.pattern
    u = splu(pattern, pattern.mass + prob.tau_m * pattern.stiffness, prob.load[prob.ops.interior])
    if u is None:
        raise ConvergenceError("presolve factorization failed")
    return u


def solve_step_primal(prob, warm_start, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """solve_step with primal Newton on every level: (u, total iterations)."""
    levels = _primal_schedule(prob.params)
    u = np.array(warm_start, dtype=float)
    pre = surrogate_start(prob)
    if step_objective(prob, pre, levels[0]) < step_objective(prob, u, levels[0]):
        u = pre
    total = 0
    for k, eps in enumerate(levels):
        anchor = warm_start if k == len(levels) - 1 else u
        target = tol * (1.0 + float(np.linalg.norm(step_gradient(prob, anchor, eps))))
        u, it = _primal_level(prob, u, eps, target, max_iter)
        total += it
    return u, total


def replicate_errors(cfg, p, r):
    """Errors of one replicate: {tau_index: (total, max_l2, quasi)}, and its log cells."""
    ops, noise = _runtime(cfg.mesh_n, cfg.phi, cfg.noise_components, cfg.noise_mode, cfg.sigma)
    params = GrowthParams(p, cfg.kappa)
    initial = np.full(ops.n_vertices, float(cfg.u0))
    n_fine, path_horizon, n_lattice = _path_layout(cfg)
    path = sample_path(mix_seed(cfg.master_seed, r), path_horizon, n_fine, cfg.noise_components)
    ref_grid = TimeGrid(np.arange(n_fine + 1), cfg.horizon, n_lattice)

    def scheme(grid):
        return SchemeConfig(
            ops=ops,
            params=params,
            grid=grid,
            noise=noise,
            path=path,
            initial=initial,
            solver_tol=cfg.solver_tol,
            clip_initial=cfg.clip_initial,
        )

    fine = run_trajectory(scheme(ref_grid))
    cells = [
        {
            "p": p,
            "replicate": r,
            "tau": "reference",
            "newton_iterations": int(sum(rep.iterations for rep in fine.reports)),
        }
    ]
    rows = {}
    for i, tau in enumerate(cfg.tau_ladder):
        n_steps = int(round(cfg.horizon / tau))
        if cfg.grid_kind == "deterministic":
            grid = uniform_time_grid(n_steps, cfg.horizon, n_lattice)
        else:
            grid = random_time_grid(
                mix_seed(mix_seed(cfg.master_seed, r), i + 1),
                n_steps,
                cfg.horizon,
                snap_to=n_lattice,
            )
        coarse = run_trajectory(scheme(grid))
        err = path_error(coarse, fine, ops, params)
        rows[i] = (err.total, err.max_l2_sq, err.quasi_sum)
        cells.append(
            {
                "p": p,
                "replicate": r,
                "tau": tau,
                "newton_iterations": int(sum(rep.iterations for rep in coarse.reports)),
            }
        )
    return rows, cells
