"""Per-step convex minimization for the implicit p-Laplace update.

One implicit Euler step is the unique minimizer over the zero-boundary
P1 space of

    J(u) = 1/2 u' P u + tau * sum_j |S_j| * phi(g_j) - f' Pt u,

where g_j is the Euclidean norm of the gradient of u on simplex j and
phi is the scalar energy density with phi'(t) = (kappa + t)**(p-2) * t.
The first-order condition of J is exactly the variational equality of
the time step with tensor S, so minimizing J and solving the nonlinear
system are two routes to the same point.  For kappa = 0 the density
reduces to phi(t) = t**p / p, i.e. the plain p-Dirichlet energy.

Solver: boundary unknowns are eliminated by zero extension and the
reduced problem is solved by damped Newton with Armijo backtracking.
The state of a point is one product with the mesh's fixed interior
operator ``FemOperators.point_op``, which gives both gradient
components on every simplex and the interior part of P u; the smoothed
norms and their power (kappa + n)**(p-2), from which the energy, the
tensor, the Hessian and the dual flux all derive, are computed once.
That state is kept in a one-slot memo on the StepProblem, keyed on the
value of u and on eps, so the accepted line-search trial's state serves
the gradient and the Newton matrix.  The residual is one more product,
with ``FemOperators.flux_op``, formed once per point and kept with it.
Every Newton matrix, the start-candidate system and the mass-shifted
retry are band data vectors of ``FemOperators.pattern`` (a reverse
Cuthill-McKee order fixed per mesh): the interior mass plus tau times
one product of a fixed operator with the stacked per-simplex weights.
Each is symmetric positive definite and is factored and solved by one
banded Cholesky call (LAPACK dpbsv); no ordering or symbolic analysis
runs per iteration.

For p < 2 the energy is not twice differentiable where a gradient
vanishes, so the solve runs at one smoothing parameter eps = 1e-6 (the
density is evaluated at sqrt(eps**2 + g**2)).  There the Newton matrix
is the primal-dual one of Chan, Golub and Mulet (SIAM J. Sci. Comput.
20, 1999): a dual flux sigma per simplex, which starts as the primal
flux S(g) of the start point, replaces the primal tensor in the
Hessian's rank-one term.  After each accepted step sigma takes the
linearised update of the flux and is projected into the ball
|sigma| <= (kappa + n)**(p-2) n of the new point (n the smoothed
norm), which keeps the matrix positive definite.  The method is
robust in eps, even near the flat zones of p < 2 where the primal
Hessian changes fastest, so no continuation through larger smoothing
parameters is needed.  For p >= 2 no smoothing is needed either: the
solve runs at eps = 0, where the Newton matrix is the Hessian.  The
line search, gradient and stopping rule are those of primal Newton, so
the minimizer is the same.

Newton starts from the better, by the objective, of the warm start and
one linear candidate.  For p >= 2 that is the p = 2 surrogate step
(P + tau A) u = load; for p < 2 it is one lagged-diffusivity (Kacanov)
step from the warm start (Diening, Fornasier, Tomasi and Wank, Numer.
Math. 2020), (P + tau A_s) u = load with A_s the stiffness weighted on
each simplex by s = (kappa + |grad u_warm|_eps)**(p-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbsv

from .constitutive import GrowthParams
from .fem import FemOperators, InteriorPattern

EPS_FINAL = 1e-6
ARMIJO_C1 = 1e-4
HESSIAN_SHIFT = 1e-12
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200


class SingularityError(ArithmeticError):
    """Second derivative of the energy requested at a singular point."""


class ConvergenceError(RuntimeError):
    """Newton failed to reach the requested tolerance; carries a report."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class SolveReport:
    """Diagnostics of one per-step solve."""

    iterations: int
    final_grad_norm: float
    continuation_levels: list[float] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class StepProblem:
    """One implicit step: operators, law, step size, broken forcing."""

    ops: FemOperators
    params: GrowthParams
    tau_m: float
    forcing: np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.tau_m) and self.tau_m > 0.0):
            raise ValueError(f"tau_m must be positive, got {self.tau_m!r}")
        forcing = np.asarray(self.forcing, dtype=float)
        if forcing.shape != (3 * self.ops.n_simplices,):
            raise ValueError(
                f"forcing must be a broken vector of length {3 * self.ops.n_simplices}, got shape {forcing.shape}"
            )
        if not np.all(np.isfinite(forcing)):
            raise ValueError("non-finite forcing")
        object.__setattr__(self, "forcing", forcing)
        # f enters the objective only through Pt' f.
        load = self.ops.load_op @ forcing
        object.__setattr__(self, "_load", load)
        object.__setattr__(self, "_load_interior", load[self.ops.interior])
        # the last _Point built, reused while (u, eps) stays the same
        object.__setattr__(self, "_last", None)

    @property
    def load(self) -> np.ndarray:
        return self._load


@dataclass(frozen=True)
class _Point:
    """State of the step objective at one (u, eps), shared by its evaluations.

    ``u`` is a private copy of the interior coefficients; ``grads`` the
    (2, ns) gradient components and ``mass_u`` the interior part of P u,
    both read off one product with ``ops.point_op``; ``norms`` the
    (ns,) smoothed norms sqrt(eps**2 + |g|**2) and ``scale`` their
    (kappa + n)**(p-2), set to 0 where that power is singular (p < 2,
    kappa = eps = 0 and n = 0).  ``size`` is |1/2 u' P u| + tau sum_j
    |S_j| (the magnitudes of the terms of phi) + |f' Pt u|, the magnitude
    of J's terms, which ``objective`` sets; ``residual`` the interior
    gradient of J, which ``_residual`` forms once and keeps read-only.
    """

    u: np.ndarray
    eps: float
    grads: np.ndarray
    mass_u: np.ndarray
    norms: np.ndarray
    scale: np.ndarray
    size: float = float("nan")
    residual: np.ndarray | None = None

    @property
    def g1(self) -> np.ndarray:
        return self.grads[0]

    @property
    def g2(self) -> np.ndarray:
        return self.grads[1]


def _point(prob: StepProblem, u_interior: np.ndarray, eps: float) -> _Point:
    """The state at (u, eps): the memo's when u and eps match it by value, else built."""
    u_interior = _check_interior(prob, u_interior)
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    last = prob._last
    if last is not None and last.eps == eps and np.array_equal(last.u, u_interior):
        return last
    ops = prob.ops
    ns = ops.n_simplices
    state = ops.point_op @ u_interior
    grads = state[: 2 * ns].reshape(2, ns)
    g1, g2 = grads
    norms = np.sqrt(eps * eps + g1 * g1 + g2 * g2)
    p, kappa = prob.params.p, prob.params.kappa
    if p < 2.0 and kappa == 0.0 and eps == 0.0:
        # S(0) = 0 and phi(0) = 0; gradient and Hessian refuse such a point
        with np.errstate(divide="ignore"):
            scale = norms ** (p - 2.0)
        scale[norms == 0.0] = 0.0
    else:
        scale = (kappa + norms) ** (p - 2.0)
    point = _Point(u=u_interior.copy(), eps=eps, grads=grads, mass_u=state[2 * ns :], norms=norms, scale=scale)
    object.__setattr__(prob, "_last", point)
    return point


def _check_interior(prob: StepProblem, u_interior: np.ndarray) -> np.ndarray:
    u_interior = np.asarray(u_interior, dtype=float)
    if u_interior.shape != (prob.ops.n_interior,):
        raise ValueError(f"expected {prob.ops.n_interior} interior coefficients, got shape {u_interior.shape}")
    return u_interior


def _residual(prob: StepProblem, point: _Point) -> np.ndarray:
    """Interior part of P u + tau sum_i Di' diag(areas) s_i - Pt' f at ``point``, formed once."""
    if point.residual is None:
        object.__setattr__(point, "residual", _form_residual(prob, point))
    return point.residual


def _form_residual(prob: StepProblem, point: _Point) -> np.ndarray:
    flux = _smoothed_tensor(prob, point).ravel()
    r = point.mass_u + prob.tau_m * (prob.ops.flux_op @ flux) - prob._load_interior
    # the memo's own array: no caller may change it
    r.flags.writeable = False
    return r


def _energy(prob: StepProblem, point: _Point) -> tuple[float, float]:
    """sum_j |S_j| phi(n_j), phi'(t) = (kappa + t)**(p-2) t, phi(0) = 0, and its size.

    The size sums the magnitudes of the terms each density is formed
    from, which set its float resolution: for kappa > 0 terms of order
    kappa**p cancel to kappa**(p-2) n**2 / 2 at small n.
    """
    p, kappa = prob.params.p, prob.params.kappa
    n, s = point.norms, point.scale
    areas = prob.ops.areas
    if kappa == 0.0:
        energy = float(areas @ (n * n * s / p))
        return energy, abs(energy)
    # (kt**p - kappa**p) / p - kappa (kt**(p-1) - kappa**(p-1)) / (p-1)
    kt = kappa + n
    low = s * kt
    high = low * kt
    density = (high - kappa**p) / p - kappa * (low - kappa ** (p - 1.0)) / (p - 1.0)
    if point.eps == 0.0:
        density[n == 0.0] = 0.0  # exactly, not up to the rounding of s
    terms = (high + kappa**p) / p + kappa * (low + kappa ** (p - 1.0)) / (p - 1.0)
    return float(areas @ density), float(areas @ terms)


def objective(prob: StepProblem, u_interior: np.ndarray, eps: float = 0.0) -> float:
    """J(u) at u = R' u_interior, optionally with eps-smoothed density."""
    point = _point(prob, u_interior, eps)
    with np.errstate(over="ignore"):
        energy, terms = _energy(prob, point)
        energy = prob.tau_m * energy
        quad = 0.5 * float(point.u @ point.mass_u)
        linear = float(prob._load_interior @ point.u)
        object.__setattr__(point, "size", abs(quad) + prob.tau_m * terms + abs(linear))
        return quad + energy - linear


def _raise_if_singular(norms: np.ndarray, p: float, eps: float) -> None:
    if eps == 0.0 and p < 2.0 and np.any(norms == 0.0):
        raise SingularityError(
            "energy density not differentiable: p < 2, eps = 0, and a vanishing gradient norm"
        )


def gradient(prob: StepProblem, u_interior: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Gradient of objective(., eps) with respect to the interior unknowns (read-only)."""
    point = _point(prob, u_interior, eps)
    _raise_if_singular(point.norms, prob.params.p, eps)
    return _residual(prob, point)


def _smoothed_tensor(prob: StepProblem, point: _Point) -> np.ndarray:
    """The (2, ns) components (s1, s2) of the tensor of the eps-smoothed energy per simplex."""
    return point.scale * point.grads


def _hessian(prob: StepProblem, u_interior: np.ndarray, eps: float) -> np.ndarray:
    """Interior Hessian of objective(., eps) as a band data vector of ``ops.pattern``."""
    point = _point(prob, u_interior, eps)
    p = prob.params.p
    g1, g2, norms = point.g1, point.g2, point.norms
    _raise_if_singular(norms, p, eps)
    a = point.scale
    # (p-2) (kappa + n)**(p-3) / n, zero where n vanishes
    b = np.divide((p - 2.0) * a, (prob.params.kappa + norms) * norms, out=np.zeros_like(norms), where=norms > 0.0)
    areas = prob.ops.areas
    w11 = areas * (a + b * g1 * g1)
    w22 = areas * (a + b * g2 * g2)
    w12 = areas * (b * g1 * g2)
    pattern = prob.ops.pattern
    return pattern.mass + prob.tau_m * pattern.weighted_stiffness(w11, w12, w22)


def kkt_residual(prob: StepProblem, u_interior: np.ndarray, eps: float = 0.0) -> float:
    """Interior residual norm of the variational form of the step.

    Measures || R (P u + tau sum_i Di' diag(areas) s_i - Pt' f) || with
    s_i the i-th component of S(grad u) per simplex.  With eps = 0 the
    unsmoothed tensor is used (continuous zero extension where a norm
    vanishes); with eps > 0 the tensor of the eps-smoothed energy, the
    form whose residual the solver drives below tolerance for p < 2.
    Either is the gradient of objective(., eps) wherever that exists.
    """
    return float(np.linalg.norm(_residual(prob, _point(prob, u_interior, eps))))


def splu(pattern: InteriorPattern, data: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve the band system ``data`` x = rhs by banded Cholesky.

    Factors and solves in one LAPACK dpbsv call in the RCM order of
    ``pattern`` and returns x in interior order, or None when the matrix
    is not numerically positive definite.  The name is kept from the
    SuperLU factorization this replaced, because it is the one place
    every factorization passes through: tracers and tests wrap
    ``splap.psolver.splu`` to time and count them.
    """
    _, x, info = dpbsv(pattern.band(data), rhs[pattern.perm], lower=1)
    if info != 0:
        return None
    out = np.empty_like(x)
    out[pattern.perm] = x
    return out


def _newton_direction(h: np.ndarray, g: np.ndarray, pattern: InteriorPattern) -> np.ndarray:
    """Solve h d = -g; on factorization trouble retry with a mass shift.

    h must be a band data vector of ``pattern``, as _hessian returns.
    """
    d = splu(pattern, h, -g)
    if d is None or not np.all(np.isfinite(d)) or float(g @ d) >= 0.0:
        d = splu(pattern, h + HESSIAN_SHIFT * pattern.mass, -g)
        if d is None:
            raise ConvergenceError("Hessian factorization failed")
        if not np.all(np.isfinite(d)) or float(g @ d) >= 0.0:
            raise ConvergenceError("no descent direction")
    return d


@dataclass(frozen=True)
class _Dual:
    """The dual flux (sigma1, sigma2) per simplex at one point of a smoothed level.

    s = (kappa + n)**(p-2) and c = (p-2) / (n (kappa + n)) at the
    smoothed norm n of the point's gradient.
    """

    point: _Point
    s: np.ndarray
    c: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray


def _dual(prob: StepProblem, point: _Point, flux: tuple[np.ndarray, np.ndarray] | None = None) -> _Dual:
    """The flux at ``point`` (eps > 0), scaled into the ball |sigma| <= (kappa + n)**(p-2) n.

    Without ``flux``, the primal flux s g, which lies in the ball.
    """
    p, norms, s = prob.params.p, point.norms, point.scale
    c = (p - 2.0) / (norms * (prob.params.kappa + norms))
    if flux is None:
        return _Dual(point, s, c, s * point.g1, s * point.g2)
    sigma1, sigma2 = flux
    # a radius is at least (kappa + eps)**(p-2) eps > 0: inside the ball
    # the scale is r / r = 1, and a zero flux divides no zero by zero
    r = s * norms
    k = r / np.maximum(np.sqrt(sigma1 * sigma1 + sigma2 * sigma2), r)
    return _Dual(point, s, c, sigma1 * k, sigma2 * k)


def _dual_hessian(prob: StepProblem, dual: _Dual) -> np.ndarray:
    """Primal-dual Newton matrix at ``dual.point``, a band data vector of ``ops.pattern``.

    Per simplex the weights are |S_j| (s I + c/2 (sigma g' + g sigma')).
    At the primal flux s g this is the Hessian of the smoothed
    objective; inside the ball of _dual each weight is at least
    (p - 1) s, so the matrix is positive definite.
    """
    g1, g2 = dual.point.g1, dual.point.g2
    sigma1, sigma2 = dual.sigma1, dual.sigma2
    areas = prob.ops.areas
    w11 = areas * (dual.s + dual.c * sigma1 * g1)
    w22 = areas * (dual.s + dual.c * sigma2 * g2)
    w12 = areas * (0.5 * dual.c * (sigma1 * g2 + sigma2 * g1))
    pattern = prob.ops.pattern
    return pattern.mass + prob.tau_m * pattern.weighted_stiffness(w11, w12, w22)


def _dual_step(prob: StepProblem, dual: _Dual, new: _Point) -> _Dual:
    """sigma <- s g' + c sigma (g . (g' - g)) from ``dual.point`` to ``new``, projected at ``new``."""
    old = dual.point
    t = old.g1 * (new.g1 - old.g1) + old.g2 * (new.g2 - old.g2)
    sigma1 = dual.s * new.g1 + dual.c * t * dual.sigma1
    sigma2 = dual.s * new.g2 + dual.c * t * dual.sigma2
    return _dual(prob, new, (sigma1, sigma2))


def _minimize_level(prob, u, eps, target, max_iter, trace):
    """Damped Newton at a fixed smoothing level. Returns (u, iterations).

    At eps > 0 the Newton matrix is the primal-dual one, its flux the
    primal flux at the start point, updated after each accepted step.
    At eps = 0 it is the primal Hessian.
    """
    g = gradient(prob, u, eps)
    f = objective(prob, u, eps)
    trace.append(f)
    point = _point(prob, u, eps)
    size = point.size
    dual = _dual(prob, point) if eps > 0.0 else None
    it = 0
    while True:
        gn = float(np.linalg.norm(g))
        if gn <= target:
            return u, it
        if it >= max_iter:
            exc = ConvergenceError(f"iteration cap {max_iter} exceeded at eps={eps:g} (|grad|={gn:.3e})")
            exc.iterations_done = it
            exc.grad_norm = gn
            raise exc
        h = _hessian(prob, u, eps) if dual is None else _dual_hessian(prob, dual)
        d = _newton_direction(h, g, prob.ops.pattern)
        slope = float(g @ d)
        if abs(slope) * 0.5 < 1e-15 * size:
            # Newton's own predicted decrease is below the float
            # resolution of J's terms: the minimum is resolved to machine
            # precision and further line searches only sample roundoff.
            return u, it
        alpha = 1.0
        while True:
            trial = u + alpha * d
            ft = objective(prob, trial, eps)
            if np.isfinite(ft) and ft <= f + ARMIJO_C1 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 2.0**-60:
                exc = ConvergenceError(f"line search stalled at eps={eps:g}")
                exc.iterations_done = it
                exc.grad_norm = gn
                raise exc
        point = _point(prob, trial, eps)
        if dual is not None:
            dual = _dual_step(prob, dual, point)
        u, f, size = trial, ft, point.size
        trace.append(f)
        it += 1
        g = gradient(prob, u, eps)


def _presolve(prob: StepProblem, scale: np.ndarray | None = None) -> np.ndarray:
    """Start candidate: the solve of (P + tau A_s) u = load.

    A_s is the stiffness weighted per simplex by ``scale``, or without
    it the p = 2 stiffness A.
    """
    pattern = prob.ops.pattern
    if scale is None:
        stiffness = pattern.stiffness
    else:
        areas = prob.ops.areas
        weight = areas * scale
        stiffness = pattern.weighted_stiffness(weight, np.zeros_like(areas), weight)
    u = splu(pattern, pattern.mass + prob.tau_m * stiffness, prob._load_interior)
    if u is None:
        raise ConvergenceError("presolve factorization failed")
    return u


def solve_step(
    prob: StepProblem,
    warm_start: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize the step objective from a warm start.

    Stops when the gradient norm at the smoothing level drops below
    ``tol * (1 + |grad at warm_start|)``, or earlier when the predicted
    Newton decrease falls below the float resolution of the objective's
    terms (the minimizer is then resolved to machine precision and no
    representable descent remains).  Returns the interior coefficient
    vector and a SolveReport; raises ConvergenceError (with the report
    attached) if an iteration cap is exceeded.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    warm_start = _check_interior(prob, warm_start)
    # p >= 2 needs no smoothing
    p = prob.params.p
    eps = 0.0 if p >= 2.0 else EPS_FINAL

    # A linear start candidate is a far better starting point than a
    # cold warm start (large steps otherwise send Newton on a slow trek
    # through the boundary layer); keep whichever candidate scores the
    # lower objective.  For p < 2 it is the lagged-diffusivity step from
    # the warm start, for p >= 2 the p = 2 surrogate, which takes fewer
    # Newton iterations there.  Each candidate's point is built once:
    # when the warm start wins, its point goes back into the memo.
    u = warm_start.copy()
    f_warm = objective(prob, u, eps)
    warm = _point(prob, u, eps)
    trace: list[float] = []
    try:
        target = tol * (1.0 + float(np.linalg.norm(gradient(prob, warm_start, eps))))
        pre = _presolve(prob, warm.scale if p < 2.0 else None)
        if objective(prob, pre, eps) < f_warm:
            u = pre
        else:
            object.__setattr__(prob, "_last", warm)
        u, iterations = _minimize_level(prob, u, eps, target, max_iter, trace)
    except ConvergenceError as exc:
        exc.report = SolveReport(
            iterations=getattr(exc, "iterations_done", 0),
            final_grad_norm=getattr(exc, "grad_norm", float("nan")),
            continuation_levels=[eps],
            objective_trace=trace,
        )
        raise

    # the point of u is the memo's, its residual formed: no new work
    report = SolveReport(
        iterations=iterations,
        final_grad_norm=float(np.linalg.norm(gradient(prob, u, eps))),
        continuation_levels=[eps],
        objective_trace=trace,
    )
    return u, report
