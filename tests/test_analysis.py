"""Tests for error functionals, rate regression, and bias correction."""

import logging
from fractions import Fraction

import numpy as np
import pytest
import oracles

import splap.analysis
from splap.analysis import (
    CorrectionError,
    MonteCarloTable,
    _replicate_errors,
    bias,
    corrected_rate,
    fit_rate,
    monte_carlo_estimate,
    path_error,
)
from splap.config import ExperimentConfig
from splap.constitutive import GrowthParams
from splap.fem import assemble
from splap.mesh import generate_unit_square
from splap.stepper import SchemeConfig, Trajectory, run_trajectory
from splap.stochastics import make_noise_coefficient, sample_path, uniform_time_grid


def heat_pair(n=4, coarse_steps=4, fine_steps=8, horizon=1.0, p=2.0, phi_scale=0.0, seed=2):
    mesh = generate_unit_square(n)
    ops = assemble(mesh)
    noise = make_noise_coefficient(phi_scale * np.ones((mesh.n_simplices, 1)))
    path = sample_path(seed, horizon, fine_steps, 1)
    params = GrowthParams(p)

    def traj(m):
        cfg = SchemeConfig(
            ops=ops,
            params=params,
            grid=uniform_time_grid(m, horizon, fine_steps),
            noise=noise,
            path=path,
            initial=np.ones(mesh.n_vertices),
        )
        return run_trajectory(cfg)

    return ops, params, traj(coarse_steps), traj(fine_steps)


def dense_path_error_oracle(coarse, fine, mesh_vertices, mesh_simplices, params):
    """Hand-rolled reimplementation over dense arrays.

    Assembles the mass matrix and per-simplex gradients from scratch so
    the production operators never enter the computation.
    """
    nv = mesh_vertices.shape[0]
    mass = np.zeros((nv, nv))
    areas = []
    grads = []
    for tri in mesh_simplices:
        a, b, c = mesh_vertices[tri]
        jac = np.array([b - a, c - a]).T
        area = 0.5 * np.linalg.det(jac)
        areas.append(area)
        local = area / 12.0 * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        for i in range(3):
            for j in range(3):
                mass[tri[i], tri[j]] += local[i, j]
        # gradients of barycentric coordinates
        inv = np.linalg.inv(jac).T
        g_local = np.vstack([-inv[:, 0] - inv[:, 1], inv[:, 0], inv[:, 1]])
        grads.append((tri, g_local))
    areas = np.asarray(areas)

    def grad_of(u):
        out = np.zeros((len(mesh_simplices), 2))
        for j, (tri, g_local) in enumerate(grads):
            out[j] = u[tri] @ g_local
        return out

    pos = [np.where(np.isclose(fine.grid.points, t))[0][0] for t in coarse.grid.points]
    max_l2 = 0.0
    quasi = 0.0
    for m in range(1, len(coarse.grid.points)):
        diff = fine.states[pos[m]] - coarse.states[m]
        max_l2 = max(max_l2, float(diff @ mass @ diff))
        tau_m = coarse.grid.points[m] - coarse.grid.points[m - 1]
        gc = grad_of(coarse.states[m])
        gf = grad_of(fine.states[pos[m]])
        for j in range(len(mesh_simplices)):
            df = oracles.tensor_f(gf[j : j + 1], params) - oracles.tensor_f(gc[j : j + 1], params)
            quasi += tau_m * areas[j] * float(np.sum(df * df))
    return max_l2, quasi


def test_path_error_zero_on_identical():
    ops, params, coarse, _ = heat_pair()
    err = path_error(coarse, coarse, ops, params)
    assert err.total == 0.0
    assert err.max_l2_sq == 0.0
    assert err.quasi_sum == 0.0


def test_path_error_total_is_sum():
    ops, params, coarse, fine = heat_pair(phi_scale=0.5)
    err = path_error(coarse, fine, ops, params)
    assert err.total == err.max_l2_sq + err.quasi_sum
    assert err.max_l2_sq > 0.0
    assert err.quasi_sum > 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
def test_path_error_matches_dense_oracle(p):
    ops, params, coarse, fine = heat_pair(n=3, p=p, phi_scale=0.3)
    err = path_error(coarse, fine, ops, params)
    mesh = ops.mesh
    max_l2, quasi = dense_path_error_oracle(
        coarse, fine, mesh.vertices, mesh.simplices, params
    )
    assert np.isclose(err.max_l2_sq, max_l2, rtol=1e-10)
    assert np.isclose(err.quasi_sum, quasi, rtol=1e-10)


def test_path_error_scaling_of_l2_term():
    # scaling both trajectories by t scales the quadratic term by t^2
    ops, params, coarse, fine = heat_pair(p=2.0, phi_scale=0.5)
    base = path_error(coarse, fine, ops, params)
    t = 3.0
    scaled = path_error(
        Trajectory(states=t * coarse.states, grid=coarse.grid),
        Trajectory(states=t * fine.states, grid=fine.grid),
        ops,
        params,
    )
    assert np.isclose(scaled.max_l2_sq, t * t * base.max_l2_sq, rtol=1e-12)


def test_path_error_rejects_non_nested():
    ops, params, coarse, fine = heat_pair(fine_steps=8)
    mesh = ops.mesh
    noise = make_noise_coefficient(np.zeros((mesh.n_simplices, 1)))
    path = sample_path(2, 1.0, 6, 1)
    cfg = SchemeConfig(
        ops=ops,
        params=params,
        grid=uniform_time_grid(3, 1.0, 6),
        noise=noise,
        path=path,
        initial=np.ones(mesh.n_vertices),
    )
    odd = run_trajectory(cfg)
    with pytest.raises(ValueError):
        path_error(odd, fine, ops, params)
    # one lattice, but the 4-step grid lacks the odd indices of the 8-step one
    with pytest.raises(ValueError, match="not nested"):
        path_error(fine, coarse, ops, params)


def test_fit_rate_exact_power_laws():
    taus = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    for a in (0.3, 0.88, 1.3, 2.0, 0.1, 3.0):
        fit = fit_rate(taus, 3.0 * taus**a)
        assert abs(fit.a - a) <= 1e-10
        assert abs(fit.log_c - np.log(3.0)) <= 1e-10
        assert fit.stderr <= 1e-10


def test_fit_rate_constant_data():
    taus = np.array([0.5, 0.25, 0.125])
    fit = fit_rate(taus, np.full(3, 7.0))
    assert abs(fit.a) <= 1e-12


def test_fit_rate_scale_invariance():
    taus = np.array([0.5, 0.25, 0.125, 0.0625])
    rng = np.random.default_rng(0)
    values = taus**1.2 * np.exp(rng.standard_normal(4) * 0.1)
    base = fit_rate(taus, values)
    scaled = fit_rate(taus, 100.0 * values)
    assert np.isclose(base.a, scaled.a, rtol=1e-12)
    assert np.isclose(scaled.log_c, base.log_c + np.log(100.0), rtol=1e-12)


def test_fit_rate_drops_nonpositive_with_warning(caplog):
    taus = np.array([1.0, 0.5, 0.25, 0.125])
    values = np.array([1.0, 0.5, 0.0, 0.125])
    with caplog.at_level(logging.WARNING):
        fit = fit_rate(taus, values)
    assert any("nonpositive" in rec.message for rec in caplog.records)
    # remaining three points lie on value = tau exactly
    assert abs(fit.a - 1.0) <= 1e-10


def test_fit_rate_needs_two_points():
    with pytest.raises(ValueError):
        fit_rate([0.5], [1.0])
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25], [1.0, -1.0])


def test_bias_rational_example():
    # bias(1/2, 1/32, 1) = (1/2) / (1/2 - 1/32) = 16/15
    value = bias(0.5, 1.0 / 32.0, 1.0)
    assert value == float(Fraction(16, 15))


def test_bias_limits_and_monotonicity():
    assert abs(bias(1.0, 1e-12, 1.0) - 1.0) <= 1e-11
    taus = np.linspace(0.1, 1.0, 20)
    vals = [bias(t, 0.05, 0.7) for t in taus]
    assert all(b > 1.0 for b in vals)
    assert all(x > y for x, y in zip(vals[:-1], vals[1:]))
    assert bias(0.05 * (1.0 + 1e-6), 0.05, 1.0) > 1e5


def test_bias_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bias(0.1, 0.2, 1.0)
    with pytest.raises(ValueError):
        bias(0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        bias(0.5, 0.1, 0.0)
    with pytest.raises(ValueError):
        bias(0.5, 0.1, 2.5)


def test_bias_warns_above_one():
    with pytest.warns(UserWarning, match="a=1.3"):
        bias(0.5, 0.125, 1.3)


def test_corrected_rate_inverts_typical_biased_slope():
    # inverting 1.3 over {1/2, 1/4, 1/8, 1/16} with reference 1/32
    taus = (0.5, 0.25, 0.125, 0.0625)
    a, alpha = corrected_rate(1.3, taus, 1.0 / 32.0)
    assert 0.86 <= a <= 0.90
    assert 0.43 <= alpha <= 0.45
    assert alpha == a / 2.0


def test_corrected_rate_roundtrip():
    taus = (0.5, 0.25, 0.125, 0.0625)
    tau_tilde = 1.0 / 32.0
    a0 = 0.7
    beta_mu = np.mean([bias(t, tau_tilde, a0) for t in taus])
    a_tilde = a0 * beta_mu
    a, _ = corrected_rate(a_tilde, taus, tau_tilde)
    assert abs(a - a0) <= 1e-8


def test_corrected_rate_small_reference_limit():
    taus = (0.5, 0.25)
    a, _ = corrected_rate(0.9, taus, 1e-9)
    assert abs(a - 0.9) <= 1e-6


def test_corrected_rate_below_biased_rate():
    taus = (0.5, 0.25, 0.125, 0.0625)
    for a_tilde in (0.9, 1.3, 1.7):
        a, _ = corrected_rate(a_tilde, taus, 1.0 / 32.0)
        assert a < a_tilde


def test_corrected_rate_no_root_error():
    # outside the attainable span of a * beta_mu(a) there is no solution:
    # too-large rates exceed the bracket top, and rates below the a -> 0
    # limit (the mean of 1 / log(tau / tau_tilde)) cannot be produced by
    # any positive a
    taus = (0.5, 0.25)
    with pytest.raises(CorrectionError):
        corrected_rate(10.0, taus, 1.0 / 32.0)
    with pytest.raises(CorrectionError):
        corrected_rate(0.5, (0.5, 0.25, 0.125, 0.0625), 1.0 / 32.0)
    with pytest.raises(ValueError):
        corrected_rate(1.0, (0.25,), 0.5)


def test_monte_carlo_smoke_and_zero_noise_std():
    cfg = ExperimentConfig(
        p_list=(2.0,),
        mesh_n=4,
        tau_ladder=(0.5, 0.25),
        tau_ref=0.125,
        n_replicates=3,
        phi="0",
    )
    table = monte_carlo_estimate(cfg, 2.0)
    assert isinstance(table, MonteCarloTable)
    # rows are replicates, columns ladder entries
    assert table.totals.shape == (3, 2)
    # deterministic dynamics: replicate values identical, std zero
    assert np.all(table.totals.std(axis=0, ddof=1) == 0.0)
    assert np.all(table.totals[0] == table.totals[1])
    assert table.failures == ()


def test_monte_carlo_worker_independence():
    # a pool of 2 workers reproduces the serial table bit for bit, on
    # deterministic and on random grids
    for grid_kind in ("deterministic", "random"):
        cfg = ExperimentConfig(
            p_list=(1.5,),
            mesh_n=4,
            tau_ladder=(0.5, 0.25),
            tau_ref=0.125,
            n_replicates=4,
            master_seed=7,
            grid_kind=grid_kind,
        )
        serial = monte_carlo_estimate(cfg, 1.5, workers=1)
        parallel = monte_carlo_estimate(cfg, 1.5, workers=2)
        assert np.array_equal(serial.totals, parallel.totals)
        assert np.array_equal(serial.max_l2, parallel.max_l2)
        assert np.array_equal(serial.quasi, parallel.quasi)


def sharing_config(grid_kind, ladder, tau_ref=0.125, horizon=1.0):
    return ExperimentConfig(
        mesh_n=4,
        tau_ladder=ladder,
        tau_ref=tau_ref,
        horizon=horizon,
        n_replicates=2,
        master_seed=3,
        grid_kind=grid_kind,
    )


# Non-dyadic protocols: T = 3/10 spans a lattice of step 3/320 on random
# grids, and 1/12 at T = 1 is both a ladder entry and the reference.
RANDOM_TENTHS = ("random", (3 / 20, 3 / 40), 3 / 80, 3 / 10)
DETERMINISTIC_TWELFTHS = ("deterministic", (1 / 2, 1 / 6, 1 / 12), 1 / 12, 1.0)


@pytest.mark.parametrize("p", [1.5, 2.5])
@pytest.mark.parametrize(
    "grid_kind, ladder, tau_ref, horizon",
    [
        pytest.param("deterministic", (0.5, 0.25, 0.125), 0.125, 1.0, id="deterministic"),
        pytest.param("random", (0.5, 0.25, 0.125), 0.125, 1.0, id="random"),
        pytest.param(*RANDOM_TENTHS, id="random-T0.3"),
        pytest.param(*DETERMINISTIC_TWELFTHS, id="deterministic-T1-twelfths"),
    ],
)
def test_replicate_errors_match_unshared_oracle(grid_kind, ladder, tau_ref, horizon, p):
    # a ladder ending at tau_ref: on deterministic grids its last entry
    # is the reference; on random grids the reference stops early
    cfg = sharing_config(grid_kind, ladder, tau_ref, horizon)
    for r in range(cfg.n_replicates):
        rows, cells = _replicate_errors(cfg, p, r)
        want_rows, want_cells = oracles.replicate_errors(cfg, p, r)
        assert rows == want_rows
        assert len(cells) == len(want_cells)
        ref, want_ref = cells[0], want_cells[0]
        assert cells[1:] == want_cells[1:]
        assert {k: v for k, v in ref.items() if k != "newton_iterations"} == {
            k: v for k, v in want_ref.items() if k != "newton_iterations"
        }
        if grid_kind == "deterministic":
            assert ref == want_ref
        else:
            # the truncated reference runs fewer steps
            assert ref["newton_iterations"] <= want_ref["newton_iterations"]


@pytest.mark.parametrize(
    "grid_kind, ladder, tau_ref, horizon, reuses",
    [
        pytest.param("deterministic", (0.5, 0.25, 0.125), 0.125, 1.0, True, id="deterministic-ladder0-True"),
        pytest.param("deterministic", (0.5, 0.25), 0.125, 1.0, False, id="deterministic-ladder1-False"),
        pytest.param("random", (0.5, 0.25, 0.125), 0.125, 1.0, False, id="random-ladder2-False"),
        pytest.param(*RANDOM_TENTHS, False, id="random-T0.3-False"),
        pytest.param(*DETERMINISTIC_TWELFTHS, True, id="deterministic-T1-twelfths-True"),
    ],
)
def test_reference_runs_once_up_to_the_last_point_read(monkeypatch, grid_kind, ladder, tau_ref, horizon, reuses):
    cfg = sharing_config(grid_kind, ladder, tau_ref, horizon)
    calls = []

    def counting(scheme):
        calls.append(scheme)
        return run_trajectory(scheme)

    monkeypatch.setattr(splap.analysis, "run_trajectory", counting)
    for r in range(cfg.n_replicates):
        calls.clear()
        _replicate_errors(cfg, 2.5, r)
        assert len(calls) == len(ladder) + (0 if reuses else 1)
        ref, coarse = calls[0], calls[1:]
        # the reference marches its whole (sliced) path, which is how a
        # tracer tells it from a coarse trajectory
        assert ref.grid.n_steps == ref.path.n_fine
        assert all(c.grid.n_steps < c.path.n_fine for c in coarse)
        # it ends on the last lattice point any ladder grid reaches
        assert ref.grid.points[-1] == max(c.grid.points[-1] for c in coarse)
        assert ref.path.n_fine == max(int(c.grid.index[-1]) for c in coarse)
        # every ladder point is the reference's float at its lattice index
        for c in coarse:
            assert np.array_equal(c.grid.points, ref.grid.points[c.grid.index])
