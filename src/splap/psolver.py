"""Per-step convex minimization for the implicit p-Laplace update.

One implicit Euler step is the unique minimizer over the zero-boundary
P1 space of

    J(u) = 1/2 u' P u + tau * sum_j |S_j| * phi(g_j) - f' Pt u,

where g_j is the Euclidean norm of the gradient of u on simplex j and
phi is the scalar energy density with phi'(t) = (kappa + t)**(p-2) * t.
The first-order condition of J is exactly the variational equality of
the time step with tensor S, so minimizing J and solving the nonlinear
system are two routes to the same point.  For kappa = 0 the density
reduces to phi(t) = t**p / p, i.e. the plain p-Dirichlet energy; for
kappa > 0 it is summed without cancellation (``_shifted_density``), so
the float floor of the stopping rule is set by J's own terms.

Solver: boundary unknowns are eliminated by zero extension and the
reduced problem is solved by damped Newton with Armijo backtracking.
The state of a point is one product with the mesh's fixed interior
operator ``FemOperators.point_op``, which gives both gradient
components on every simplex and the interior part of P u; the smoothed
norms and their power (kappa + n)**(p-2), from which the energy, the
tensor, the Hessian and the dual flux all derive, are computed once.
That state is kept in a one-slot memo on the StepProblem, keyed on eps
and on the identity of u with the memo's own read-only copy of it.
Every point the Newton loop holds is such a copy, so the accepted
line-search trial's state serves the gradient and the Newton matrix;
any other array is evaluated afresh, to the same bits.  The residual is
one more product, with ``FemOperators.flux_op``, formed once per point
and kept with it.  Gradients and dual fluxes are (2, ns) arrays and
Newton weights one (3, ns) array, formed in place, in their formulas'
order of operations, only in arrays the call allocated: the accepted
point and the line-search trial are alive at once and share no buffer.
Every Newton matrix, the start-candidate system and the mass-shifted
retry are band data vectors of ``FemOperators.pattern`` (a reverse
Cuthill-McKee order fixed per mesh): the interior mass plus tau times
one product of a fixed operator with the stacked per-simplex weights.
Each is symmetric positive definite and is factored and solved by one
banded Cholesky call (LAPACK dpbsv); no ordering or symbolic analysis
runs per iteration.  The p = 2 start system P + tau A does not depend
on the step's state: the pattern keeps its factor for the last step
size (``InteriorPattern.start_factor``), so a trajectory on a
deterministic grid factors it once and solves it (LAPACK dpbtrs) on
every step.

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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbsv, dpbtrs

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


def _report(iterations: int, grad_norm: float, eps: float, trace: list[float]) -> SolveReport:
    return SolveReport(
        iterations=iterations, final_grad_norm=grad_norm, continuation_levels=[eps], objective_trace=trace
    )


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
        # the last _Point built, reused when its own u comes back at its eps
        object.__setattr__(self, "_last", None)

    @property
    def load(self) -> np.ndarray:
        return self._load


@dataclass(slots=True)
class _Point:
    """State of the step objective at one (u, eps), shared by its evaluations.

    ``u`` is a private read-only copy of the interior coefficients;
    ``grads`` the (2, ns) gradient components and ``mass_u`` the interior
    part of P u, both read off one product with ``ops.point_op``; ``norms`` the
    (ns,) smoothed norms sqrt(eps**2 + |g|**2) and ``scale`` their
    (kappa + n)**(p-2), set to 0 where that power is singular (p < 2,
    kappa = eps = 0 and n = 0).  ``size`` is |1/2 u' P u| + tau sum_j
    |S_j| (the magnitudes of the terms of phi) + |f' Pt u|, the magnitude
    of J's terms, which ``objective`` sets; ``residual`` the interior
    gradient of J, which ``_residual`` forms once and keeps read-only;
    ``c`` the (ns,) (p-2) / (n (kappa + n)) and ``sigma`` the (2, ns)
    dual flux of the primal-dual matrix, which ``_dual`` sets.
    """

    u: np.ndarray
    eps: float
    grads: np.ndarray
    mass_u: np.ndarray
    norms: np.ndarray
    scale: np.ndarray
    size: float = float("nan")
    residual: np.ndarray | None = None
    c: np.ndarray | None = None
    sigma: np.ndarray | None = None


def _point(prob: StepProblem, u_interior: np.ndarray, eps: float) -> _Point:
    """The state at (u, eps): the memo's when u is the memo's own u, else built."""
    last = prob._last
    if last is not None and u_interior is last.u and last.eps == eps:
        return last
    u_interior = np.asarray(u_interior, dtype=float)
    if u_interior.shape != (prob.ops.n_interior,):
        raise ValueError(f"expected {prob.ops.n_interior} interior coefficients, got shape {u_interior.shape}")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    ops = prob.ops
    ns = ops.n_simplices
    state = ops.point_op @ u_interior
    grads = state[: 2 * ns].reshape(2, ns)
    # sqrt(eps**2 + g1**2 + g2**2), summed in that order
    squares = grads * grads
    norms = squares[0]
    norms += eps * eps
    norms += squares[1]
    np.sqrt(norms, out=norms)
    p, kappa = prob.params.p, prob.params.kappa
    if p < 2.0 and kappa == 0.0 and eps == 0.0:
        # S(0) = 0 and phi(0) = 0; gradient and Hessian refuse such a point
        with np.errstate(divide="ignore"):
            scale = norms ** (p - 2.0)
        scale[norms == 0.0] = 0.0
    else:
        scale = (kappa + norms if kappa else norms) ** (p - 2.0)
    u = u_interior.copy()
    u.flags.writeable = False
    point = _Point(u=u, eps=eps, grads=grads, mass_u=state[2 * ns :], norms=norms, scale=scale)
    object.__setattr__(prob, "_last", point)
    return point


def _residual(prob: StepProblem, point: _Point) -> np.ndarray:
    """Interior part of P u + tau sum_i Di' diag(areas) s_i - Pt' f at ``point``, formed once."""
    if point.residual is None:
        point.residual = _form_residual(prob, point)
    return point.residual


def _form_residual(prob: StepProblem, point: _Point) -> np.ndarray:
    r = prob.ops.flux_op @ (point.scale * point.grads).ravel()
    r *= prob.tau_m
    r += point.mass_u
    r -= prob._load_interior
    # the memo's own array: no caller may change it
    r.flags.writeable = False
    return r


def _energy(prob: StepProblem, point: _Point) -> tuple[float, float]:
    """sum_j |S_j| phi(n_j), phi'(t) = (kappa + t)**(p-2) t, phi(0) = 0, and its size.

    The size sums the magnitudes of the terms each density is formed
    from, which set its float resolution.
    """
    p, kappa = prob.params.p, prob.params.kappa
    areas = prob.ops.areas
    if kappa == 0.0:
        density = point.norms * point.norms
        density *= point.scale
        density /= p
        energy = float(areas @ density)
        return energy, abs(energy)
    density, terms = _shifted_density(point.norms, p, kappa)
    return float(areas @ density), float(areas @ terms)


def _shifted_density(n: np.ndarray, p: float, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """phi(n) for kappa > 0, and the magnitude of the terms it is summed from.

    With L = log(1 + n / kappa), phi(n) = kappa**p int_0^L (e**(p v) -
    e**((p-1) v)) dv = kappa**p (expm1(p L) / p - expm1((p-1) L) / (p-1)).
    The two terms cancel to kappa**p L**2 / 2 at small L, so below L =
    1/2 phi is summed from its Taylor series kappa**p sum_k (p**k -
    (p-1)**k) L**(k+1) / (k+1)!, k >= 1, whose terms are all positive.
    """
    log = np.log1p(n / kappa)
    high = np.expm1(p * log) / p
    low = np.expm1((p - 1.0) * log) / (p - 1.0)
    density, terms = high - low, high + low
    # terms down to 2**-55 of the first at L = 1/2; p**k - (p-1)**k by a recurrence of positive terms
    coefficients, difference, power = [0.5], 1.0, 1.0
    while coefficients[-1] * 0.5 ** (len(coefficients) - 1) >= 2.0**-56:
        power *= p - 1.0
        difference = p * difference + power
        coefficients.append(difference / math.factorial(len(coefficients) + 2))
    small = log < 0.5
    x = log[small]
    density[small] = terms[small] = np.vander(x, len(coefficients), increasing=True) @ coefficients * x * x
    return kappa**p * density, kappa**p * terms


def objective(prob: StepProblem, u_interior: np.ndarray, eps: float = 0.0) -> float:
    """J(u) at u = R' u_interior, optionally with eps-smoothed density."""
    point = _point(prob, u_interior, eps)
    with np.errstate(over="ignore"):
        energy, terms = _energy(prob, point)
        energy = prob.tau_m * energy
        quad = 0.5 * float(point.u.dot(point.mass_u))
        linear = float(prob._load_interior.dot(point.u))
        point.size = abs(quad) + prob.tau_m * terms + abs(linear)
        return quad + energy - linear


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector: the bits of np.linalg.norm without its dispatch."""
    return math.sqrt(v.dot(v))


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


def _hessian(prob: StepProblem, u_interior: np.ndarray, eps: float) -> np.ndarray:
    """Interior Hessian of objective(., eps) as a band data vector of ``ops.pattern``."""
    point = _point(prob, u_interior, eps)
    p = prob.params.p
    grads, norms = point.grads, point.norms
    _raise_if_singular(norms, p, eps)
    a = point.scale
    # (p-2) (kappa + n)**(p-3) / n, zero where n vanishes
    b = np.divide((p - 2.0) * a, (prob.params.kappa + norms) * norms, out=np.zeros_like(norms), where=norms > 0.0)
    # |S_j| (a + b g1 g1, b g1 g2, a + b g2 g2)
    w = np.empty((3, norms.shape[0]))
    bg = b * grads
    np.multiply(bg[0], grads[1], out=w[1])
    bg *= grads
    np.add(a, bg, out=w[::2])
    w *= prob.ops.areas
    return _newton_matrix(prob, w)


def _newton_matrix(prob: StepProblem, w: np.ndarray) -> np.ndarray:
    """Band data of the interior mass plus tau times the stiffness weighted by the (3, ns) ``w``.

    Formed in place: tau times the weighted stiffness, then plus the
    mass, the bits of mass + tau * stiffness without two temporaries.
    """
    pattern = prob.ops.pattern
    h = pattern.weighted_stiffness(w)
    h *= prob.tau_m
    h += pattern.mass
    return h


def kkt_residual(prob: StepProblem, u_interior: np.ndarray, eps: float = 0.0) -> float:
    """Interior residual norm of the variational form of the step.

    Measures || R (P u + tau sum_i Di' diag(areas) s_i - Pt' f) || with
    s_i the i-th component of S(grad u) per simplex.  With eps = 0 the
    unsmoothed tensor is used (continuous zero extension where a norm
    vanishes); with eps > 0 the tensor of the eps-smoothed energy, the
    form whose residual the solver drives below tolerance for p < 2.
    Either is the gradient of objective(., eps) wherever that exists.
    """
    return _norm(_residual(prob, _point(prob, u_interior, eps)))


def splu(pattern: InteriorPattern, data: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve the band system ``data`` x = rhs by banded Cholesky.

    Factors and solves in one LAPACK dpbsv call in the RCM order of
    ``pattern`` and returns x in interior order, or None when the matrix
    is not numerically positive definite.  The name is kept from the
    SuperLU factorization this replaced, because every Newton matrix and
    the lagged start system of p < 2 pass through it: tracers and tests
    wrap ``splap.psolver.splu`` to time and count them.  The p = 2 start
    system is factored by ``InteriorPattern.start_factor`` instead, once
    per mesh and step size.
    """
    _, x, info = dpbsv(pattern.band(data), rhs[pattern.perm], lower=1, overwrite_b=1)
    return _interior_order(pattern, x) if info == 0 else None


def _interior_order(pattern: InteriorPattern, x: np.ndarray) -> np.ndarray:
    """A vector in the RCM order of ``pattern`` back in interior order."""
    out = np.empty_like(x)
    out[pattern.perm] = x
    return out


def _newton_direction(h: np.ndarray, g: np.ndarray, pattern: InteriorPattern) -> tuple[np.ndarray, float]:
    """Solve h d = -g; on factorization trouble retry with a mass shift.

    h must be a band data vector of ``pattern``, as _hessian returns.
    Returns d and its slope g' d, finite and negative.  One product
    tests both: a d with a non-finite entry has a non-finite slope.
    """
    d = splu(pattern, h, -g)
    slope = math.nan if d is None else float(g.dot(d))
    if not -math.inf < slope < 0.0:
        d = splu(pattern, h + HESSIAN_SHIFT * pattern.mass, -g)
        if d is None:
            raise ConvergenceError("Hessian factorization failed")
        slope = float(g.dot(d))
        if not -math.inf < slope < 0.0:
            raise ConvergenceError("no descent direction")
    return d, slope


def _dual(prob: StepProblem, point: _Point, flux: np.ndarray | None = None) -> None:
    """Set ``point``'s c and its dual flux sigma (eps > 0).

    sigma is the (2, ns) ``flux`` scaled into the ball |sigma| <=
    (kappa + n)**(p-2) n, or without ``flux`` the primal flux s g, which
    lies in the ball.
    """
    norms, s = point.norms, point.scale
    point.c = (prob.params.p - 2.0) / (norms * (prob.params.kappa + norms))
    if flux is None:
        point.sigma = s * point.grads
        return
    # a radius is at least (kappa + eps)**(p-2) eps > 0: inside the ball
    # the scale is r / r = 1, and a zero flux divides no zero by zero
    r = s * norms
    squares = flux * flux
    k = squares[0]
    k += squares[1]
    np.sqrt(k, out=k)
    np.maximum(k, r, out=k)
    np.divide(r, k, out=k)
    point.sigma = flux * k


def _dual_hessian(prob: StepProblem, point: _Point) -> np.ndarray:
    """Primal-dual Newton matrix at ``point``, a band data vector of ``ops.pattern``.

    Per simplex the weights are |S_j| (s I + c/2 (sigma g' + g sigma')).
    At the primal flux s g this is the Hessian of the smoothed
    objective; inside the ball of _dual each weight is at least
    (p - 1) s, so the matrix is positive definite.
    """
    grads, c, sigma = point.grads, point.c, point.sigma
    w = np.empty((3, c.shape[0]))
    # c/2 (sigma1 g2 + sigma2 g1)
    cross = sigma * grads[::-1]
    np.add(cross[0], cross[1], out=w[1])
    w[1] *= 0.5 * c
    # s + c sigma_i g_i
    diagonal = c * sigma
    diagonal *= grads
    np.add(point.scale, diagonal, out=w[::2])
    w *= prob.ops.areas
    return _newton_matrix(prob, w)


def _dual_step(prob: StepProblem, old: _Point, new: _Point) -> None:
    """Set ``new``'s flux: sigma <- s g' + c sigma (g . (g' - g)) from ``old``, projected at ``new``."""
    t = new.grads - old.grads
    t *= old.grads
    t = t[0] + t[1]
    t *= old.c
    sigma = old.scale * new.grads
    sigma += t * old.sigma
    _dual(prob, new, sigma)


def _presolve(prob: StepProblem, scale: np.ndarray | None = None) -> np.ndarray | None:
    """Start candidate: the solve of (P + tau A_s) u = load, or None if it fails.

    A_s is the stiffness weighted per simplex by ``scale``, factored by
    ``splu``.  Without it A_s is the p = 2 stiffness A, and the system's
    factor comes from the pattern's slot for tau (dpbtrf and dpbtrs are
    the two halves of dpbsv, so the solve has the same bits).
    """
    pattern = prob.ops.pattern
    if scale is None:
        factor = pattern.start_factor(prob.tau_m)
        if factor is None:
            return None
        x, info = dpbtrs(factor, prob._load_interior[pattern.perm], lower=1)
        return _interior_order(pattern, x) if info == 0 else None
    w = np.zeros((3, scale.shape[0]))
    np.multiply(prob.ops.areas, scale, out=w[::2])
    return splu(pattern, _newton_matrix(prob, w), prob._load_interior)


def solve_step(
    prob: StepProblem,
    warm_start: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize the step objective from a warm start.

    Stops when the gradient norm of the eps-smoothed objective drops below
    ``tol * (1 + |grad at warm_start|)``, or earlier when the predicted
    Newton decrease falls below the float resolution of the objective's
    terms (the minimizer is then resolved to machine precision and no
    representable descent remains).  Returns the interior coefficient
    vector and a SolveReport; a ConvergenceError (iteration cap,
    failed factorization, stalled line search) carries the report of
    the iterations done before it.  The returned vector is the
    caller's own.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
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
    f_warm = objective(prob, warm_start, eps)
    warm = prob._last
    trace: list[float] = []
    g0 = _norm(gradient(prob, warm.u, eps))
    pre = _presolve(prob, warm.scale if p < 2.0 else None)
    if pre is None:
        raise ConvergenceError("presolve factorization failed", _report(0, g0, eps, trace))
    if objective(prob, pre, eps) < f_warm:
        point = prob._last
    else:
        point = warm
        object.__setattr__(prob, "_last", warm)

    # Damped Newton from the start point.  For p < 2 the Newton matrix is
    # the primal-dual one, its flux the primal flux at the start point,
    # updated after each accepted step; for p >= 2 it is the Hessian.
    # Each iterate is the memo's own point, so the gradient and the
    # Newton matrix find it by identity.
    target = tol * (1.0 + g0)
    g = gradient(prob, point.u, eps)
    f = objective(prob, point.u, eps)
    trace.append(f)
    if eps > 0.0:
        _dual(prob, point)
    it = 0
    while True:
        gn = _norm(g)
        if gn <= target:
            break
        if it >= max_iter:
            raise ConvergenceError(
                f"iteration cap {max_iter} exceeded at eps={eps:g} (|grad|={gn:.3e})", _report(it, gn, eps, trace)
            )
        h = _hessian(prob, point.u, eps) if eps == 0.0 else _dual_hessian(prob, point)
        try:
            d, slope = _newton_direction(h, g, prob.ops.pattern)
        except ConvergenceError as exc:
            exc.report = _report(it, gn, eps, trace)
            raise
        if abs(slope) * 0.5 < 1e-15 * point.size:
            # Newton's own predicted decrease is below the float
            # resolution of J's terms: the minimum is resolved to machine
            # precision and further line searches only sample roundoff.
            break
        alpha = 1.0
        trial = point.u + d
        while True:
            ft = objective(prob, trial, eps)
            if math.isfinite(ft) and ft <= f + ARMIJO_C1 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 2.0**-60:
                raise ConvergenceError(f"line search stalled at eps={eps:g}", _report(it, gn, eps, trace))
            trial = point.u + alpha * d
        # the trial's point, which objective left in the memo
        if eps > 0.0:
            _dual_step(prob, point, prob._last)
        point, f = prob._last, ft
        trace.append(f)
        it += 1
        g = gradient(prob, point.u, eps)
    # the point is the memo's, its residual formed: no new work
    return point.u.copy(), _report(it, _norm(gradient(prob, point.u, eps)), eps, trace)
