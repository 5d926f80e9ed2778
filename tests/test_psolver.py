"""Tests for the per-step convex minimization solver."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import oracles
from oracles import band_to_dense, jittered_mesh, rotate_rows, rotated_mesh

import splap.psolver
import splap.stepper
from splap.analysis import _runtime
from splap.config import ExperimentConfig
from splap.constitutive import GrowthParams, tensor_s_rows
from splap.fem import assemble, gradient_per_simplex
from splap.mesh import generate_unit_square
from splap.psolver import (
    EPS_FINAL,
    ConvergenceError,
    HESSIAN_SHIFT,
    SingularityError,
    StepProblem,
    _dual,
    _dual_hessian,
    _dual_step,
    _hessian,
    _newton_direction,
    _point,
    _presolve,
    _smoothed_tensor,
    gradient,
    kkt_residual,
    objective,
    solve_step,
    splu,
)
from splap.stepper import SchemeConfig, run_trajectory
from splap.stochastics import sample_path, uniform_time_grid


def random_problem(rng, n=4, p=2.0, kappa=0.0, tau=0.1):
    ops = assemble(generate_unit_square(n))
    forcing = rng.standard_normal(3 * ops.n_simplices)
    return StepProblem(
        ops=ops,
        params=GrowthParams(p, kappa=kappa),
        tau_m=tau,
        forcing=forcing,
    )


def linear_oracle(prob):
    """Direct sparse solve of (P + tau A) u = load on interior unknowns."""
    ops = prob.ops
    r = ops.restriction
    system = r @ (ops.mass + prob.tau_m * ops.stiffness()) @ r.T
    return spla.spsolve(sp.csc_matrix(system), r @ prob.load)


def sparse_product_hessian(prob, u_interior, eps):
    """Interior Hessian of objective(., eps) by sparse products.

    The assembly the solver used before the fixed-pattern one: per
    simplex weights times D1, D2 rows, summed as Di' W Dj, then sliced to
    the interior rows and columns.
    """
    ops = prob.ops
    u = ops.prolong(u_interior)
    p, kappa = prob.params.p, prob.params.kappa
    d1, d2 = ops.dgrad
    g1 = d1 @ u
    g2 = d2 @ u
    norms = np.sqrt(eps * eps + g1 * g1 + g2 * g2)
    base = kappa + norms
    a = base ** (p - 2.0)
    b = np.zeros_like(norms)
    pos = norms > 0.0
    b[pos] = (p - 2.0) * base[pos] ** (p - 3.0) / norms[pos]
    areas = ops.areas
    w11 = areas * (a + b * g1 * g1)
    w22 = areas * (a + b * g2 * g2)
    w12 = areas * (b * g1 * g2)
    h = (
        d1.T @ d1.multiply(w11[:, None])
        + d2.T @ d2.multiply(w22[:, None])
        + d1.T @ d2.multiply(w12[:, None])
        + d2.T @ d1.multiply(w12[:, None])
    )
    full = ops.mass + prob.tau_m * h
    interior = ops.interior
    return full.tocsr()[interior, :].tocsc()[:, interior]


def oracle_meshes():
    return {"structured": generate_unit_square(8), "jittered": jittered_mesh(8, seed=3)}


def test_step_problem_validation():
    ops = assemble(generate_unit_square(2))
    params = GrowthParams(2.0)
    good = np.zeros(3 * ops.n_simplices)
    with pytest.raises(ValueError):
        StepProblem(ops=ops, params=params, tau_m=0.0, forcing=good)
    with pytest.raises(ValueError):
        StepProblem(ops=ops, params=params, tau_m=0.1, forcing=good[:-1])
    bad = good.copy()
    bad[0] = np.inf
    with pytest.raises(ValueError):
        StepProblem(ops=ops, params=params, tau_m=0.1, forcing=bad)


def test_objective_zero_at_origin_without_forcing():
    ops = assemble(generate_unit_square(2))
    prob = StepProblem(
        ops=ops, params=GrowthParams(1.5), tau_m=0.2, forcing=np.zeros(3 * ops.n_simplices)
    )
    assert objective(prob, np.zeros(ops.n_interior)) == 0.0
    assert np.all(gradient(prob, np.zeros(ops.n_interior), eps=1e-4) == 0.0)


def test_objective_p2_matches_quadratic_form():
    rng = np.random.default_rng(0)
    prob = random_problem(rng, n=3, p=2.0, tau=0.37)
    ops = prob.ops
    r = ops.restriction
    a = ops.stiffness()
    for _ in range(10):
        w = rng.standard_normal(ops.n_interior)
        u = r.T @ w
        expected = 0.5 * u @ (ops.mass @ u) + 0.5 * prob.tau_m * u @ (a @ u) - prob.forcing @ (
            ops.broken_mass @ u
        )
        assert np.isclose(objective(prob, w), expected, rtol=1e-12)


def test_objective_single_triangle_hand_quadrature():
    # one simplex, prescribed u: objective = tau/p * area * |grad u|^p when
    # no vertex is interior the restriction is empty, so test via the broken
    # pieces on a 2x2 square with one interior unknown instead
    ops = assemble(generate_unit_square(2))
    params = GrowthParams(3.0)
    prob = StepProblem(
        ops=ops, params=params, tau_m=0.5, forcing=np.zeros(3 * ops.n_simplices)
    )
    w = np.array([2.0])
    u = ops.prolong(w)
    grads = gradient_per_simplex(ops, u)
    norms = np.sqrt(np.sum(grads * grads, axis=1))
    expected = 0.5 * u @ (ops.mass @ u) + (prob.tau_m / 3.0) * np.sum(ops.areas * norms**3)
    assert np.isclose(objective(prob, w), expected, rtol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.5, 4.0])
def test_gradient_matches_finite_differences(p, kappa):
    rng = np.random.default_rng(int(10 * p))
    prob = random_problem(rng, n=4, p=p, kappa=kappa, tau=0.15)
    n_i = prob.ops.n_interior
    for eps in (1e-2, 1e-4):
        u = rng.standard_normal(n_i) * 0.5
        g = gradient(prob, u, eps=eps)
        h = 1e-6
        for k in rng.choice(n_i, size=4, replace=False):
            e = np.zeros(n_i)
            e[k] = h
            fd = (objective(prob, u + e, eps=eps) - objective(prob, u - e, eps=eps)) / (2 * h)
            assert np.isclose(g[k], fd, rtol=1e-5, atol=1e-9)


def test_gradient_vanishes_at_p2_minimizer():
    rng = np.random.default_rng(42)
    prob = random_problem(rng, n=4, p=2.0, tau=0.25)
    u_star = linear_oracle(prob)
    g = gradient(prob, u_star, eps=0.0)
    scale = 1.0 + np.linalg.norm(gradient(prob, np.zeros_like(u_star), eps=0.0))
    assert np.linalg.norm(g) <= 1e-8 * scale


def test_gradient_singularity_guard():
    ops = assemble(generate_unit_square(2))
    prob = StepProblem(
        ops=ops, params=GrowthParams(1.5), tau_m=0.1, forcing=np.zeros(3 * ops.n_simplices)
    )
    # u = 0 has zero gradient on every simplex: eps = 0 with p < 2 is singular
    with pytest.raises(SingularityError):
        gradient(prob, np.zeros(ops.n_interior), eps=0.0)


def test_solve_step_linear_oracle_p2():
    rng = np.random.default_rng(1)
    for trial in range(5):
        prob = random_problem(rng, n=16, p=2.0, tau=1.0 / 16)
        expected = linear_oracle(prob)
        u, report = solve_step(prob, np.zeros_like(expected), tol=1e-11)
        rel = np.linalg.norm(u - expected) / np.linalg.norm(expected)
        assert rel <= 1e-8
        assert report.continuation_levels == [0.0]


def test_solve_step_without_interior_vertex():
    # generate_unit_square(1) has no interior vertex: an empty system
    ops = assemble(generate_unit_square(1))
    assert ops.n_interior == 0
    prob = StepProblem(
        ops=ops, params=GrowthParams(1.5), tau_m=0.1, forcing=np.ones(3 * ops.n_simplices)
    )
    u, report = solve_step(prob, np.zeros(0))
    assert u.shape == (0,)
    assert report.iterations == 0


def test_solve_step_single_unknown_matches_dense_solve():
    ops = assemble(generate_unit_square(2))
    assert ops.n_interior == 1
    rng = np.random.default_rng(14)
    prob = StepProblem(
        ops=ops, params=GrowthParams(2.0), tau_m=0.3, forcing=rng.standard_normal(3 * ops.n_simplices)
    )
    r = ops.restriction.toarray()
    dense = r @ (ops.mass.toarray() + prob.tau_m * ops.stiffness().toarray()) @ r.T
    expected = np.linalg.solve(dense, r @ prob.load)
    u, _ = solve_step(prob, np.zeros(1), tol=1e-12)
    np.testing.assert_allclose(u, expected, rtol=1e-12)


def test_solve_step_small_tau_is_l2_projection():
    # tau -> 0: minimizer approaches the projection P u = load
    rng = np.random.default_rng(2)
    prob = random_problem(rng, n=4, p=1.5, tau=1e-12)
    ops = prob.ops
    r = ops.restriction
    proj = spla.spsolve(sp.csc_matrix(r @ ops.mass @ r.T), r @ prob.load)
    u, _ = solve_step(prob, np.zeros(ops.n_interior), tol=1e-12)
    assert np.allclose(u, proj, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.5])
def test_solve_step_brute_force_oracle(p, kappa):
    # n = 2 has a single interior unknown: compare with grid search
    ops = assemble(generate_unit_square(2))
    rng = np.random.default_rng(int(100 * p))
    for _ in range(20):
        forcing = rng.standard_normal(3 * ops.n_simplices)
        prob = StepProblem(ops=ops, params=GrowthParams(p, kappa=kappa), tau_m=0.3, forcing=forcing)
        u, _ = solve_step(prob, np.zeros(1), tol=1e-12)
        # refine a bracket around the reported minimizer down to 1e-6
        center = float(u[0])
        radius = max(1.0, abs(center))
        grid = np.linspace(center - radius, center + radius, 2001)
        for _ in range(3):
            vals = [objective(prob, np.array([x])) for x in grid]
            best = grid[int(np.argmin(vals))]
            radius /= 500.0
            grid = np.linspace(best - radius, best + radius, 2001)
        assert abs(center - best) <= 1e-6


def test_solve_report_objective_trace_non_increasing():
    rng = np.random.default_rng(3)
    for p in (1.1, 1.5, 2.5, 4.0):
        prob = random_problem(rng, n=4, p=p, tau=0.2)
        u0 = rng.standard_normal(prob.ops.n_interior)
        _, report = solve_step(prob, u0, tol=1e-10)
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))
        assert report.iterations >= 0
        assert report.final_grad_norm >= 0.0


def test_solve_step_continuation_schedule():
    # one smoothing level per solve: 1e-6 for p < 2 and the unsmoothed
    # energy for p >= 2
    rng = np.random.default_rng(4)
    prob = random_problem(rng, n=3, p=1.5, tau=0.1)
    _, report = solve_step(prob, np.zeros(prob.ops.n_interior), tol=1e-9)
    assert EPS_FINAL == 1e-6
    assert report.continuation_levels == [1e-6]
    prob2 = random_problem(rng, n=3, p=2.5, tau=0.1)
    _, report2 = solve_step(prob2, np.zeros(prob2.ops.n_interior), tol=1e-9)
    assert report2.continuation_levels == [0.0]


def test_solve_step_convergence_error_carries_report():
    rng = np.random.default_rng(5)
    prob = random_problem(rng, n=4, p=1.5, tau=0.2)
    with pytest.raises(ConvergenceError) as err:
        solve_step(prob, rng.standard_normal(prob.ops.n_interior), tol=1e-14, max_iter=1)
    assert err.value.report is not None
    assert err.value.report.iterations >= 1


def test_kkt_residual_at_solution():
    # the solver certifies the residual of the eps-floor form below the
    # tolerance scale; for p < 2 the smoothed Hessian carries weights of
    # order eps^{p-3}, so tolerances below the float resolution of the
    # objective are unreachable and the contract is exercised at a
    # tolerance above that floor.
    rng = np.random.default_rng(6)
    for p, tol in ((1.1, 1e-5), (1.5, 1e-6), (2.0, 1e-9), (2.5, 1e-9)):
        prob = random_problem(rng, n=4, p=p, tau=0.2)
        eps_final = EPS_FINAL if p < 2 else 0.0
        u, report = solve_step(prob, np.zeros(prob.ops.n_interior), tol=tol)
        scale = 1.0 + np.linalg.norm(gradient(prob, np.zeros(prob.ops.n_interior), eps=eps_final))
        assert kkt_residual(prob, u, eps=eps_final) <= 10.0 * tol * scale
        # the smoothed residual is exactly the gradient norm of the
        # smoothed objective, which the report records
        assert np.isclose(
            kkt_residual(prob, u, eps=eps_final), report.final_grad_norm, rtol=1e-12, atol=0.0
        )
        # random non-optimal points have strictly positive residual
        assert kkt_residual(prob, u + 0.1) > 1e-4


def test_kkt_residual_float_floor_for_degenerate_p():
    # below the float floor the solver returns the machine-resolved
    # minimizer: the residual settles near the resolution of the
    # objective instead of the requested tolerance
    rng = np.random.default_rng(6)
    prob = random_problem(rng, n=4, p=1.1, tau=0.2)
    eps_final = EPS_FINAL
    u, report = solve_step(prob, np.zeros(prob.ops.n_interior), tol=1e-9)
    res = kkt_residual(prob, u, eps=eps_final)
    assert np.isclose(res, report.final_grad_norm, rtol=1e-12)
    assert res < 1e-4


def test_kkt_residual_p2_linear_minimizer():
    rng = np.random.default_rng(7)
    prob = random_problem(rng, n=4, p=2.0, tau=0.3)
    assert kkt_residual(prob, linear_oracle(prob)) <= 1e-8


def test_s_pairing_identity():
    # nonlinear kkt term paired with u equals sum of area-weighted S:grad u
    rng = np.random.default_rng(8)
    for p in (1.1, 1.5, 2.5):
        prob = random_problem(rng, n=3, p=p, tau=0.4)
        ops = prob.ops
        w = rng.standard_normal(ops.n_interior)
        u = ops.prolong(w)
        grads = gradient_per_simplex(ops, u)
        s_rows = tensor_s_rows(grads, prob.params)
        d1, d2 = ops.dgrad
        nonlinear = prob.tau_m * (
            d1.T @ (ops.areas * s_rows[:, 0]) + d2.T @ (ops.areas * s_rows[:, 1])
        )
        lhs = u @ nonlinear
        rhs = prob.tau_m * np.sum(ops.areas * np.sum(s_rows * grads, axis=1))
        assert np.isclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 4.0])
def test_objective_convexity(p, kappa):
    rng = np.random.default_rng(int(1000 * p))
    prob = random_problem(rng, n=2, p=p, kappa=kappa, tau=0.5)
    n_i = prob.ops.n_interior
    for _ in range(1000):
        u = rng.uniform(-5.0, 5.0, size=n_i)
        v = rng.uniform(-5.0, 5.0, size=n_i)
        mid = objective(prob, 0.5 * (u + v))
        avg = 0.5 * (objective(prob, u) + objective(prob, v))
        assert mid <= avg + 1e-12 * (1.0 + abs(avg))


def test_solver_tolerance_validation():
    rng = np.random.default_rng(11)
    prob = random_problem(rng, n=2)
    with pytest.raises(ValueError):
        solve_step(prob, np.zeros(prob.ops.n_interior), tol=0.0)
    with pytest.raises(ValueError):
        gradient(prob, np.zeros(prob.ops.n_interior), eps=-1.0)


HESSIAN_CASES = [(p, eps) for p in (1.1, 1.5, 2.5) for eps in (1e-2, 1e-6)] + [(2.5, 0.0)]


@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("p, eps", HESSIAN_CASES)
def test_hessian_matches_sparse_product_oracle(mesh_name, p, eps, kappa):
    ops = assemble(oracle_meshes()[mesh_name])
    rng = np.random.default_rng(int(100 * p) + int(eps == 0.0))
    prob = StepProblem(
        ops=ops,
        params=GrowthParams(p, kappa=kappa),
        tau_m=0.3,
        forcing=rng.standard_normal(3 * ops.n_simplices),
    )
    for _ in range(3):
        u = rng.standard_normal(ops.n_interior)
        fast = _hessian(prob, u, eps)
        assert fast.shape == ops.pattern.mass.shape
        oracle = sparse_product_hessian(prob, u, eps)
        dense = oracle.toarray()
        np.testing.assert_allclose(
            band_to_dense(ops.pattern, fast), dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max()
        )
        # the banded Cholesky direction against SuperLU on the oracle matrix
        g = gradient(prob, u, eps)
        expected = spla.splu(oracle).solve(-g)
        d = _newton_direction(fast, g, ops.pattern)
        np.testing.assert_allclose(d, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
def test_presolve_system_matches_restricted_operators(mesh_name, monkeypatch):
    ops = assemble(oracle_meshes()[mesh_name])
    rng = np.random.default_rng(12)
    prob = StepProblem(
        ops=ops, params=GrowthParams(1.5), tau_m=0.07, forcing=rng.standard_normal(3 * ops.n_simplices)
    )
    factored = []
    band_solve = splap.psolver.splu

    def recording_splu(pattern, data, rhs):
        factored.append(data)
        return band_solve(pattern, data, rhs)

    monkeypatch.setattr(splap.psolver, "splu", recording_splu)
    u = _presolve(prob)
    r = ops.restriction
    oracle = (r @ (ops.mass + prob.tau_m * ops.stiffness()) @ r.T).toarray()
    assert len(factored) == 1
    np.testing.assert_allclose(
        band_to_dense(ops.pattern, factored[0]), oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max()
    )
    np.testing.assert_allclose(u, linear_oracle(prob), rtol=1e-10, atol=1e-12)
    # the lagged-diffusivity start: the stiffness weighted per simplex by
    # s = (kappa + |grad u_warm|_eps)**(p-2), R (P + tau sum_i Di' diag(|S_j| s) Di) R'
    d1, d2 = ops.dgrad
    lagged = dataclasses.replace(prob, params=GrowthParams(1.5, kappa=0.3))
    warm = rng.standard_normal(ops.n_interior)
    g1, g2, norms = oracles.smoothed_norms(lagged, ops.prolong(warm), EPS_FINAL)
    s = (0.3 + norms) ** -0.5
    weighted = d1.T @ sp.diags(ops.areas * s) @ d1 + d2.T @ sp.diags(ops.areas * s) @ d2
    system = r @ (ops.mass + lagged.tau_m * weighted) @ r.T
    factored.clear()
    u = _presolve(lagged, _point(lagged, warm, EPS_FINAL).scale)
    assert len(factored) == 1
    dense = system.toarray()
    np.testing.assert_allclose(
        band_to_dense(ops.pattern, factored[0]), dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max()
    )
    expected = spla.spsolve(sp.csc_matrix(system), r @ lagged.load)
    np.testing.assert_allclose(u, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.5])
def test_hessian_columns_match_finite_differences(p, kappa):
    ops = assemble(jittered_mesh(5, seed=7))
    rng = np.random.default_rng(int(10 * p))
    prob = StepProblem(
        ops=ops,
        params=GrowthParams(p, kappa=kappa),
        tau_m=0.2,
        forcing=rng.standard_normal(3 * ops.n_simplices),
    )
    eps = 1e-2
    u = rng.standard_normal(ops.n_interior)
    h = band_to_dense(ops.pattern, _hessian(prob, u, eps))
    step = 1e-6
    for k in rng.choice(ops.n_interior, size=5, replace=False):
        e = np.zeros(ops.n_interior)
        e[k] = step
        fd = (gradient(prob, u + e, eps) - gradient(prob, u - e, eps)) / (2.0 * step)
        np.testing.assert_allclose(h[:, k], fd, rtol=1e-5, atol=1e-6 * np.abs(h[:, k]).max())


def test_newton_direction_falls_back_to_mass_shift():
    # an all-zero band is not positive definite: the retry factors the
    # shifted matrix HESSIAN_SHIFT * R P R' in the same band
    ops = assemble(jittered_mesh(4, seed=5))
    pattern = ops.pattern
    g = np.random.default_rng(13).standard_normal(ops.n_interior)
    d = _newton_direction(np.zeros_like(pattern.mass), g, pattern)
    mass_ii = ops.restriction @ ops.mass @ ops.restriction.T
    expected = spla.splu(sp.csc_matrix(HESSIAN_SHIFT * mass_ii)).solve(-g)
    np.testing.assert_allclose(d, expected, rtol=1e-10)
    # a band that stays indefinite after the shift fails the step as data
    with pytest.raises(ConvergenceError, match="factorization failed"):
        _newton_direction(-pattern.mass, g, pattern)


def test_presolve_factorization_failure_is_convergence_error(monkeypatch):
    rng = np.random.default_rng(15)
    prob = random_problem(rng, n=4, p=1.5)
    monkeypatch.setattr(splap.psolver, "splu", lambda pattern, data, rhs: None)
    with pytest.raises(ConvergenceError, match="presolve"):
        solve_step(prob, np.zeros(prob.ops.n_interior))


def assert_matches(fast, oracle):
    oracle = np.asarray(oracle)
    np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-2])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.5])
def test_point_evaluations_match_oracles(mesh_name, eps, p):
    # the gathered per-point state against the parent's sparse-product
    # evaluations; fresh and reused states alike
    ops = assemble(oracle_meshes()[mesh_name])
    rng = np.random.default_rng(int(100 * p) + int(1e6 * eps))
    prob = StepProblem(
        ops=ops,
        params=GrowthParams(p, kappa=0.3 if p == 1.5 else 0.0),
        tau_m=0.3,
        forcing=rng.standard_normal(3 * ops.n_simplices),
    )
    # both meshes have corner simplices with three boundary vertices,
    # where the gradient vanishes: at eps = 0, p < 2 is singular there
    singular = eps == 0.0 and p < 2.0
    for _ in range(2):
        u = rng.standard_normal(ops.n_interior)
        assert np.isclose(objective(prob, u, eps), oracles.objective(prob, u, eps), rtol=1e-12, atol=0.0)
        if singular:
            for derivative in (gradient, _hessian, oracles.gradient, oracles.hessian):
                with pytest.raises(SingularityError):
                    derivative(prob, u, eps)
        else:
            assert_matches(gradient(prob, u, eps), oracles.gradient(prob, u, eps))
            assert_matches(_hessian(prob, u, eps), oracles.hessian(prob, u, eps))
        assert np.isclose(kkt_residual(prob, u, eps), oracles.kkt_residual(prob, u, eps), rtol=1e-12, atol=0.0)


def test_kkt_residual_zero_extension_at_vanishing_gradients():
    # at eps = 0 with p < 2 the residual takes S(0) = 0 where the
    # gradient vanishes, where the gradient of the objective is singular
    rng = np.random.default_rng(17)
    prob = random_problem(rng, n=4, p=1.5, tau=0.2)
    u = np.zeros(prob.ops.n_interior)
    u[: u.shape[0] // 2] = 1.0
    with pytest.raises(SingularityError):
        gradient(prob, u)
    assert np.isclose(kkt_residual(prob, u), oracles.kkt_residual(prob, u), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
def test_singular_point_evaluations_raise_no_warning(kappa):
    # at u = 0 every gradient vanishes: phi(0) = 0 and S(0) = 0 without
    # a floating-point warning, where the derivatives at eps = 0 refuse
    rng = np.random.default_rng(20)
    ops = assemble(generate_unit_square(4))
    zero = np.zeros(ops.n_interior)
    for p in (1.1, 1.5):
        prob = StepProblem(
            ops=ops,
            params=GrowthParams(p, kappa=kappa),
            tau_m=0.2,
            forcing=rng.standard_normal(3 * ops.n_simplices),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                assert objective(prob, zero, 0.0) == 0.0
                assert kkt_residual(prob, zero, 0.0) == np.linalg.norm(prob.load[ops.interior])
                for derivative in (gradient, _hessian):
                    with pytest.raises(SingularityError):
                        derivative(prob, zero, 0.0)
                assert objective(prob, zero, EPS_FINAL) > 0.0
                assert kkt_residual(prob, zero, EPS_FINAL) == np.linalg.norm(prob.load[ops.interior])
        assert np.isclose(objective(prob, zero, EPS_FINAL), oracles.objective(prob, zero, EPS_FINAL), rtol=1e-12)


def test_kept_residual_is_read_only():
    rng = np.random.default_rng(21)
    prob = random_problem(rng, n=4, p=1.5, tau=0.2)
    u = rng.standard_normal(prob.ops.n_interior)
    g = gradient(prob, u, 1e-6)
    expected = g.copy()
    with pytest.raises(ValueError):
        g[0] = 1.0
    with pytest.raises(ValueError):
        g += 1.0
    assert gradient(prob, u, 1e-6) is g
    np.testing.assert_array_equal(gradient(prob, u, 1e-6), expected)
    # a caller's own arithmetic on it still runs
    assert np.array_equal(-g, -expected)


INTERIOR_OPERATOR_CASES = [
    (p, kappa, eps) for p in (1.1, 1.5, 2.5) for kappa in (0.0, 0.3) for eps in (0.0, 1e-6, 1e-2)
]


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("p, kappa, eps", INTERIOR_OPERATOR_CASES)
def test_interior_operators_match_csr_and_bincount_oracles(mesh_name, p, kappa, eps):
    # each product with a fixed interior operator against the CSR
    # products of the mesh's operators and the bincount sums it replaced
    ops = assemble(oracle_meshes()[mesh_name])
    rng = np.random.default_rng(int(100 * p + 10 * kappa) + int(1e6 * eps))
    prob = StepProblem(
        ops=ops,
        params=GrowthParams(p, kappa=kappa),
        tau_m=0.3,
        forcing=rng.standard_normal(3 * ops.n_simplices),
    )
    u = rng.standard_normal(ops.n_interior)
    u_full = ops.prolong(u)
    d1, d2 = ops.dgrad
    point = _point(prob, u, eps)
    # point_op: both gradient components and the interior part of P u
    gathered = oracles.gathered_state(ops, u)
    for fast, csr, old in zip(
        (point.g1, point.g2, point.mass_u), (d1 @ u_full, d2 @ u_full, (ops.mass @ u_full)[ops.interior]), gathered
    ):
        assert_matches(fast, csr)
        assert_matches(fast, old)
    # flux_op: the residual of the point's own tensor
    s1, s2 = _smoothed_tensor(prob, point)
    areas = ops.areas
    csr = (ops.mass @ u_full + prob.tau_m * (d1.T @ (areas * s1) + d2.T @ (areas * s2)) - prob.load)[ops.interior]
    residual = splap.psolver._residual(prob, point)
    assert_matches(residual, csr)
    assert_matches(residual, oracles.bincount_residual(prob, u, s1, s2))
    # products: the weighted stiffness of per-simplex weights built from
    # the point's scale and gradient
    scale = point.scale
    w11 = areas * scale * (1.0 + point.g1 * point.g1)
    w12 = areas * point.g1 * point.g2
    w22 = areas * scale * (1.0 + point.g2 * point.g2)
    fast = ops.pattern.weighted_stiffness(w11, w12, w22)
    assert_matches(fast, oracles.bincount_weighted_stiffness(ops, w11, w12, w22))
    r = ops.restriction
    dense = (
        r
        @ (
            d1.T @ sp.diags(w11) @ d1
            + d1.T @ sp.diags(w12) @ d2
            + d2.T @ sp.diags(w12) @ d1
            + d2.T @ sp.diags(w22) @ d2
        )
        @ r.T
    ).toarray()
    np.testing.assert_allclose(band_to_dense(ops.pattern, fast), dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())


def test_point_reuse_is_keyed_on_value_and_eps():
    ops = assemble(jittered_mesh(6, seed=4))
    rng = np.random.default_rng(18)
    prob = StepProblem(
        ops=ops,
        params=GrowthParams(1.5),
        tau_m=0.2,
        forcing=rng.standard_normal(3 * ops.n_simplices),
    )
    eps = 1e-2
    u = rng.standard_normal(ops.n_interior)
    # u mutated in place after objective: the same array, a new value
    objective(prob, u, eps)
    u[::3] += 0.5
    assert_matches(gradient(prob, u, eps), oracles.gradient(prob, u, eps))
    # the same value at a new eps
    objective(prob, u, eps)
    assert_matches(gradient(prob, u, 1e-6), oracles.gradient(prob, u, 1e-6))
    # the Hessian at a point other than the last one evaluated
    v = rng.standard_normal(ops.n_interior)
    objective(prob, u, eps)
    assert_matches(_hessian(prob, v, eps), oracles.hessian(prob, v, eps))
    # an equal value in another array reuses the state
    gradient(prob, v, eps)
    last = prob._last
    assert_matches(gradient(prob, v.copy(), eps), oracles.gradient(prob, v, eps))
    assert prob._last is last


def test_point_evaluations_read_no_mass_broken_mass_dgrad_or_restriction():
    # with the mesh's global CSR operators taken away, every evaluation
    # at a point still runs on the fixed interior operators and agrees
    # with the oracles on the full problem
    rng = np.random.default_rng(19)
    prob = random_problem(rng, n=6, p=1.5, tau=0.2)
    bare = StepProblem(ops=prob.ops, params=prob.params, tau_m=prob.tau_m, forcing=prob.forcing)
    object.__setattr__(
        bare, "ops", dataclasses.replace(prob.ops, mass=None, broken_mass=None, dgrad=None, restriction=None)
    )
    u = rng.standard_normal(prob.ops.n_interior)
    for eps in (1e-6, 1e-2):
        assert np.isclose(objective(bare, u, eps), oracles.objective(prob, u, eps), rtol=1e-12, atol=0.0)
        assert_matches(gradient(bare, u, eps), oracles.gradient(prob, u, eps))
        assert_matches(_hessian(bare, u, eps), oracles.hessian(prob, u, eps))
        assert np.isclose(kkt_residual(bare, u, eps), oracles.kkt_residual(prob, u, eps), rtol=1e-12, atol=0.0)


def smooth_forcing(ops, rng):
    """A broken forcing of order one: a smooth random mode plus a little noise.

    Under white noise alone a step with p = 1.1 and tau = 0.5 flattens
    u to about 1e-8 and J to about 1e-7; the float floor of the stopping
    rule scales with J's terms, so such a step still reaches its target
    (``test_float_floor_scales_with_the_objective``), but the oracle's
    primal solve, whose floor is an absolute 1e-15 while |J| << 1, keeps
    only a few digits of u.
    """
    x, y = ops.mesh.vertices.T
    k = rng.uniform(0.5, 2.0, size=2)
    v = 3.0 * np.sin(np.pi * k[0] * x) * np.cos(np.pi * k[1] * y) + rng.uniform(-1.0, 1.0)
    return v[ops.mesh.simplices].ravel() + 0.3 * rng.standard_normal(3 * ops.n_simplices)


def smoothed_problem(mesh_name, p, kappa, tau, seed):
    ops = assemble(oracle_meshes()[mesh_name])
    rng = np.random.default_rng(seed)
    prob = StepProblem(
        ops=ops,
        params=GrowthParams(p, kappa=kappa),
        tau_m=tau,
        forcing=smooth_forcing(ops, rng),
    )
    return prob, rng


PRIMAL_DUAL_CASES = [(p, kappa, tau) for p in (1.1, 1.2, 1.5) for kappa in (0.0, 0.3) for tau in (0.02, 0.5)]


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("p, kappa, tau", PRIMAL_DUAL_CASES)
def test_primal_dual_solve_matches_primal_oracle(mesh_name, p, kappa, tau):
    prob, rng = smoothed_problem(mesh_name, p, kappa, tau, seed=int(100 * p + 10 * kappa + 1000 * tau))
    warm = rng.standard_normal(prob.ops.n_interior)
    eps = EPS_FINAL
    # above the float floor of the stopping rule the target is reached
    tol = 1e-6
    u, _ = solve_step(prob, warm, tol=tol)
    assert kkt_residual(prob, u, eps) <= tol * (1.0 + np.linalg.norm(gradient(prob, warm, eps)))
    # at the default tolerance both solves end on the float floor of J,
    # which resolves u to some 1e-7 (2e-7 at worst here); J is strongly
    # convex with modulus lambda_min(R P R'), so the two residuals also
    # bound the distance of the two points
    u, _ = solve_step(prob, warm)
    u_primal, _ = oracles.solve_step_primal(prob, warm)
    gap = np.linalg.norm(u - u_primal)
    assert gap <= 1e-6 * np.linalg.norm(u_primal)
    modulus = np.linalg.eigvalsh(band_to_dense(prob.ops.pattern, prob.ops.pattern.mass))[0]
    assert gap <= (kkt_residual(prob, u, eps) + kkt_residual(prob, u_primal, eps)) / modulus


@pytest.mark.parametrize("seed", range(4))
def test_float_floor_scales_with_the_objective(seed):
    # white-noise forcing flattens a p = 1.1, tau = 0.5 step to u ~ 1e-8
    # and J ~ 1e-7; a floor of 1e-15 (1 + |J|) would stop Newton at some
    # 30 to 130 times the target, a floor scaled to J's terms reaches it
    ops = assemble(generate_unit_square(8))
    rng = np.random.default_rng(seed)
    prob = StepProblem(
        ops=ops,
        params=GrowthParams(1.1),
        tau_m=0.5,
        forcing=0.1 * rng.standard_normal(3 * ops.n_simplices),
    )
    warm = np.zeros(ops.n_interior)
    u, report = solve_step(prob, warm)
    target = splap.psolver.DEFAULT_TOL * (1.0 + np.linalg.norm(gradient(prob, warm, EPS_FINAL)))
    assert kkt_residual(prob, u, EPS_FINAL) <= target
    assert report.iterations > 0


# the smoothing levels the dual matrix is checked at: the solver's own
# and larger ones
SMOOTHING_EPS = (1e-2, 1e-4, EPS_FINAL)

DUAL_MATRIX_CASES = [(1.1, 0.0), (1.2, 0.3), (1.5, 0.0), (1.5, 0.3)]


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("p, kappa", DUAL_MATRIX_CASES)
def test_dual_matrix_at_primal_flux_is_the_hessian(mesh_name, p, kappa):
    prob, rng = smoothed_problem(mesh_name, p, kappa, 0.3, seed=int(100 * p + 10 * kappa))
    for eps in SMOOTHING_EPS:
        u = rng.standard_normal(prob.ops.n_interior)
        point = _point(prob, u, eps)
        hessian = _hessian(prob, u, eps)
        assert_matches(_dual_hessian(prob, _dual(prob, point)), hessian)
        # the primal flux lies in the ball: projecting it changes nothing
        assert_matches(_dual_hessian(prob, _dual(prob, point, _smoothed_tensor(prob, point))), hessian)


def flux_radius_and_size(prob, point, sigma1, sigma2):
    """(kappa + n)**(p-2) n and |sigma| per simplex of ``point``."""
    norms = point.norms
    radius = (prob.params.kappa + norms) ** (prob.params.p - 2.0) * norms
    return radius, np.linalg.norm(np.column_stack([sigma1, sigma2]), axis=1)


def random_flux(prob, point, rng, fraction):
    """Fluxes of ``fraction`` times the ball's radius, in random directions."""
    radius, _ = flux_radius_and_size(prob, point, point.g1, point.g2)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=radius.shape[0])
    length = radius * fraction
    return length * np.cos(angle), length * np.sin(angle)


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("p, kappa", DUAL_MATRIX_CASES)
def test_dual_matrix_factors_inside_the_projection_ball(mesh_name, p, kappa):
    # inside the ball every simplex weight is at least (p - 1) s, so the
    # matrix minus P + tau (p - 1) sum_j |S_j| s_j (gx gx' + gy gy') is
    # positive semidefinite and the band factors
    prob, rng = smoothed_problem(mesh_name, p, kappa, 0.3, seed=int(100 * p + 10 * kappa) + 1)
    pattern = prob.ops.pattern
    for eps in SMOOTHING_EPS:
        u = rng.standard_normal(prob.ops.n_interior)
        point = _point(prob, u, eps)
        # lengths from zero to the radius, a third on the boundary
        fraction = rng.uniform(0.0, 1.0, size=point.norms.shape)
        fraction[: fraction.shape[0] // 3] = 1.0
        fraction[fraction.shape[0] // 3 : fraction.shape[0] // 2] = 0.0
        flux = random_flux(prob, point, rng, fraction)
        dual = _dual(prob, point, flux)
        # the projection keeps a flux that is inside already
        np.testing.assert_allclose(np.column_stack([dual.sigma1, dual.sigma2]), np.column_stack(flux), rtol=1e-14, atol=0.0)
        h = _dual_hessian(prob, dual)
        assert splu(pattern, h, rng.standard_normal(prob.ops.n_interior)) is not None
        s = (kappa + point.norms) ** (p - 2.0)
        areas = prob.ops.areas
        floor = pattern.mass + prob.tau_m * (p - 1.0) * pattern.weighted_stiffness(
            areas * s, np.zeros_like(areas), areas * s
        )
        excess = band_to_dense(pattern, h - floor)
        assert np.linalg.eigvalsh(excess)[0] >= -1e-12 * np.abs(band_to_dense(pattern, h)).max()
        # a flux outside the ball is scaled onto its boundary
        outside = _dual(prob, point, random_flux(prob, point, rng, rng.uniform(1.5, 4.0, size=fraction.shape)))
        radius, size = flux_radius_and_size(prob, point, outside.sigma1, outside.sigma2)
        np.testing.assert_allclose(size, radius, rtol=1e-14, atol=0.0)


def test_flux_projection_and_update_at_zero():
    # a zero flux and vanishing gradients pass without a floating-point warning
    ops = assemble(generate_unit_square(4))
    prob = StepProblem(ops=ops, params=GrowthParams(1.1), tau_m=0.2, forcing=np.zeros(3 * ops.n_simplices))
    zero = np.zeros(ops.n_interior)
    flux = (np.zeros(ops.n_simplices), np.zeros(ops.n_simplices))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            for eps in SMOOTHING_EPS:
                point = _point(prob, zero, eps)
                for dual in (_dual(prob, point, flux), _dual_step(prob, _dual(prob, point), point)):
                    assert np.array_equal(dual.sigma1, flux[0]) and np.array_equal(dual.sigma2, flux[1])
                    assert_matches(_dual_hessian(prob, dual), _hessian(prob, zero, eps))
            u, report = solve_step(prob, zero)
    assert np.array_equal(u, zero)
    assert report.iterations == 0


def test_dual_flux_stays_in_the_ball_of_each_level(monkeypatch):
    # every Newton matrix of a smoothed solve sees a flux inside the ball
    # of its own point at the one level 1e-6; the first one sees the
    # primal flux of the start point
    seen = []
    dual_hessian = splap.psolver._dual_hessian

    def checked(prob, dual):
        point = dual.point
        radius, size = flux_radius_and_size(prob, point, dual.sigma1, dual.sigma2)
        assert np.all(size <= radius * (1.0 + 1e-14))
        primal = np.column_stack(_smoothed_tensor(prob, point))
        seen.append((point.eps, np.column_stack([dual.sigma1, dual.sigma2]), primal))
        return dual_hessian(prob, dual)

    monkeypatch.setattr(splap.psolver, "_dual_hessian", checked)
    for mesh_name in ("structured", "jittered"):
        for p, tau in ((1.1, 0.5), (1.2, 0.02), (1.5, 0.1)):
            prob, rng = smoothed_problem(mesh_name, p, 0.0, tau, seed=int(100 * p))
            seen.clear()
            _, report = solve_step(prob, rng.standard_normal(prob.ops.n_interior))
            assert len(seen) >= report.iterations > 0
            assert report.continuation_levels == [EPS_FINAL]
            assert {eps for eps, _, _ in seen} == {EPS_FINAL}
            _, flux, primal = seen[0]
            np.testing.assert_array_equal(flux, primal)


def test_primal_dual_halves_newton_iterations_at_p_1_1(monkeypatch):
    # the steps of one p = 1.1 trajectory on mesh 16 over T = 1/4 with the
    # default noise, each solved by the primal-dual level loop and by the
    # primal oracle from the same warm start
    cfg = ExperimentConfig()
    ops, noise = _runtime(16, cfg.phi, 1, "additive", cfg.sigma)
    n_steps, horizon = 8, 0.25
    steps = []

    def recording(prob, warm, tol):
        u, report = solve_step(prob, warm, tol=tol)
        steps.append((prob, warm.copy(), report.iterations))
        return u, report

    monkeypatch.setattr(splap.stepper, "solve_step", recording)
    run_trajectory(
        SchemeConfig(
            ops=ops,
            params=GrowthParams(1.1),
            grid=uniform_time_grid(n_steps, horizon),
            noise=noise,
            path=sample_path(7, horizon, n_steps, 1),
            initial=np.ones(ops.n_vertices),
        )
    )
    assert len(steps) == n_steps
    primal_dual = sum(it for _, _, it in steps)
    primal = sum(oracles.solve_step_primal(prob, warm)[1] for prob, warm, _ in steps)
    assert primal_dual <= 0.7 * primal


ISOTROPY_CASES = [
    (p, kappa, eps) for p in (1.1, 1.2, 1.5, 2.0, 2.5, 4.0) for kappa in (0.0, 0.3) for eps in (0.0, 1e-6, 1e-2)
]


def turned_problems(mesh_name, p, kappa, tau, rng):
    """The same step on a mesh and on the mesh turned by a random angle: (problems, angle)."""
    mesh = oracle_meshes()[mesh_name]
    angle = rng.uniform(0.1, 2.0 * np.pi - 0.1)
    forcing = smooth_forcing(assemble(mesh), rng)
    probs = [
        StepProblem(ops=assemble(m), params=GrowthParams(p, kappa=kappa), tau_m=tau, forcing=forcing)
        for m in (mesh, rotated_mesh(mesh, angle))
    ]
    return probs, angle


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("p, kappa, eps", ISOTROPY_CASES)
def test_step_evaluations_are_invariant_under_rotation(mesh_name, p, kappa, eps):
    # the energy density is a function of the Euclidean norm of the whole
    # gradient, and a turn of the mesh turns every gradient: at equal nodal
    # values J, its gradient and Hessian, the residual and the dual matrix
    # of fluxes turned alike do not change
    rng = np.random.default_rng(int(100 * p + 10 * kappa) + int(1e6 * eps))
    (prob, turned), angle = turned_problems(mesh_name, p, kappa, 0.3, rng)
    singular = eps == 0.0 and p < 2.0
    for _ in range(2):
        u = rng.standard_normal(prob.ops.n_interior)
        point, turned_point = _point(prob, u, eps), _point(turned, u, eps)
        # the turn is a real one: every gradient turns, its norm stays
        for got, expected in zip(turned_point.grads, rotate_rows(point.g1, point.g2, angle)):
            assert_matches(got, expected)
        assert not np.allclose(turned_point.g1, point.g1)
        assert_matches(turned_point.norms, point.norms)
        assert np.isclose(objective(turned, u, eps), objective(prob, u, eps), rtol=1e-12, atol=0.0)
        assert np.isclose(kkt_residual(turned, u, eps), kkt_residual(prob, u, eps), rtol=1e-12, atol=0.0)
        if singular:
            for derivative in (gradient, _hessian):
                with pytest.raises(SingularityError):
                    derivative(turned, u, eps)
            continue
        assert_matches(gradient(turned, u, eps), gradient(prob, u, eps))
        expected = band_to_dense(prob.ops.pattern, _hessian(prob, u, eps))
        assert_matches(band_to_dense(turned.ops.pattern, _hessian(turned, u, eps)), expected)
        if eps == 0.0:
            continue
        # fluxes inside and outside the ball, projected, turn with the mesh
        point, turned_point = _point(prob, u, eps), _point(turned, u, eps)
        flux = random_flux(prob, point, rng, rng.uniform(0.0, 3.0, size=point.norms.shape))
        dual = _dual(prob, point, flux)
        turned_dual = _dual(turned, turned_point, rotate_rows(*flux, angle))
        for got, expected in zip((turned_dual.sigma1, turned_dual.sigma2), rotate_rows(dual.sigma1, dual.sigma2, angle)):
            assert_matches(got, expected)
        assert_matches(
            band_to_dense(turned.ops.pattern, _dual_hessian(turned, turned_dual)),
            band_to_dense(prob.ops.pattern, _dual_hessian(prob, dual)),
        )
        # and so does the flux update to a second point
        v = u + 0.1 * rng.standard_normal(u.shape[0])
        stepped = _dual_step(prob, dual, _point(prob, v, eps))
        turned_stepped = _dual_step(turned, turned_dual, _point(turned, v, eps))
        for got, expected in zip(
            (turned_stepped.sigma1, turned_stepped.sigma2), rotate_rows(stepped.sigma1, stepped.sigma2, angle)
        ):
            assert_matches(got, expected)


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.5, 4.0])
def test_solve_step_is_invariant_under_rotation(mesh_name, p, kappa):
    # the step on a turned mesh has the same minimizer; J is strongly
    # convex with modulus lambda_min(R P R'), so the two residuals bound
    # the distance of the two solutions
    rng = np.random.default_rng(int(100 * p + 10 * kappa) + 7)
    (prob, turned), _ = turned_problems(mesh_name, p, kappa, 0.3, rng)
    warm = rng.standard_normal(prob.ops.n_interior)
    u, _ = solve_step(prob, warm)
    u_turned, _ = solve_step(turned, warm)
    eps = EPS_FINAL if p < 2.0 else 0.0
    gap = np.linalg.norm(u_turned - u)
    assert gap <= 1e-6 * np.linalg.norm(u)
    modulus = np.linalg.eigvalsh(band_to_dense(prob.ops.pattern, prob.ops.pattern.mass))[0]
    assert gap <= (kkt_residual(prob, u, eps) + kkt_residual(prob, u_turned, eps)) / modulus
