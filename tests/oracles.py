"""Shared test oracles.

A randomly renumbered mesh, a turned copy of a mesh, a band
densifier, and the step objective, its gradient, Hessian and KKT
residual as the solver computed them before the per-point state:
each call prolongs u and runs the CSR derivative and mass products
itself, and the Hessian sums dense per-simplex 3 x 3 blocks into the
band.  The per-point gather, the
residual and the weighted stiffness as the solver computed them before
the fixed interior operators: nodal values gathered per simplex,
transposed products and band data summed by ``bincount``.  The step
solve as it was before the primal-dual Newton matrix: the p = 2
surrogate start, for p < 2 the smoothing continuation 1e-2, 1e-4,
1e-6, and on every level, smoothed or not, damped Newton on the primal
Hessian.  Last, the errors of one
Monte-Carlo replicate as the harness computed them before the reference
was shared: the reference marches the whole path lattice and every
ladder entry runs its own trajectory.
"""

import numpy as np
from scipy.spatial import Delaunay

from splap.analysis import _path_layout, _runtime, path_error
from splap.constitutive import GrowthParams, tensor_s_rows
from splap.fem import _LOCAL_MASS
from splap.mesh import _signed_areas, generate_unit_square, make_mesh
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
from splap.stochastics import mix_seed, random_time_grid, sample_path, uniform_time_grid


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
    gx, gy = ops.basis_grad
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
    gx, gy = ops.basis_grad
    mass_local = ops.areas[:, None] * (local @ _LOCAL_MASS)
    pu = np.bincount(ops.mesh.simplices.ravel(), weights=mass_local.ravel(), minlength=ops.n_vertices)
    return (gx * local).sum(axis=1), (gy * local).sum(axis=1), pu[ops.interior]


def bincount_residual(prob, u_interior, s1, s2):
    """Interior part of P u + tau sum_i Di' diag(areas) s_i - Pt' f, by one bincount."""
    ops = prob.ops
    u_full = np.zeros(ops.n_vertices)
    u_full[ops.interior] = u_interior
    local = u_full[ops.mesh.simplices]
    gx, gy = ops.basis_grad
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
    gx, gy = prob.ops.basis_grad
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
        d = _newton_direction(_hessian(prob, u, eps), g, prob.ops.pattern)
        slope = float(g @ d)
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
    ref_grid = uniform_time_grid(n_fine, path_horizon)

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
            grid = uniform_time_grid(n_steps, cfg.horizon)
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
