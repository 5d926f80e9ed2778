"""Tests for trajectory marching."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import restriction, stiffness

import splap.stepper as stepper_mod
from splap.constitutive import GrowthParams
from splap.fem import assemble
from splap.mesh import generate_unit_square
from splap.psolver import ConvergenceError, SolveReport
from splap.stepper import (
    SchemeConfig,
    StepFailure,
    Trajectory,
    run_trajectory,
)
from splap.stochastics import (
    NoisePath,
    make_noise_coefficient,
    sample_path,
    uniform_time_grid,
)


def zero_noise(mesh):
    return make_noise_coefficient(np.zeros((2 * (int(np.sqrt(mesh.n_simplices / 2))) ** 2, 1)))


def heat_config(n=8, n_steps=8, horizon=1.0, p=2.0, seed=1, phi_scale=0.0):
    mesh = generate_unit_square(n)
    ops = assemble(mesh)
    noise = make_noise_coefficient(phi_scale * np.ones((mesh.n_simplices, 1)))
    path = sample_path(seed, horizon, n_steps, 1)
    grid = uniform_time_grid(n_steps, horizon, n_steps)
    initial = np.ones(mesh.n_vertices)
    return SchemeConfig(
        ops=ops,
        params=GrowthParams(p),
        grid=grid,
        noise=noise,
        path=path,
        initial=initial,
    )


def test_grid_path_indices_exact():
    grid = uniform_time_grid(8, 1.0, 32)
    assert np.array_equal(grid.index, np.arange(0, 33, 4))
    assert np.array_equal(grid.points, np.arange(9) / 8)


def test_grid_path_indices_rejects_off_lattice():
    cfg = heat_config(n=2, n_steps=4)
    path = sample_path(1, 1.0, 10, 1)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, path=path)


def test_heat_trajectory_matches_linear_chain():
    # p = 2, zero noise: each step is (P + tau A) u = (P u_prev) restricted
    cfg = heat_config(n=8, n_steps=8)
    traj = run_trajectory(cfg)
    ops = cfg.ops
    r = restriction(ops)
    system = sp.csc_matrix(r @ (ops.mass + cfg.grid.points[1] * stiffness(ops)) @ r.T)
    u = cfg.initial.copy()
    for m in range(1, cfg.grid.n_steps + 1):
        rhs = r @ (ops.mass @ u)
        w = spla.spsolve(system, rhs)
        u = r.T @ w
        err = np.linalg.norm(traj.states[m] - u) / max(np.linalg.norm(u), 1e-30)
        assert err <= 1e-8


def test_trajectory_shape_and_reports():
    cfg = heat_config(n=4, n_steps=5)
    traj = run_trajectory(cfg)
    assert traj.states.shape == (6, cfg.ops.n_vertices)
    assert np.array_equal(traj.states[0], cfg.initial)
    assert len(traj.reports) == 5
    assert all(isinstance(rep, SolveReport) for rep in traj.reports)


def test_boundary_zero_from_first_step():
    cfg = heat_config(n=4, n_steps=4, phi_scale=1.0)
    traj = run_trajectory(cfg)
    flags = cfg.ops.mesh.boundary_vertex_flags
    # the initial datum is all ones including the boundary; every computed
    # state lives in the zero-trace space
    assert np.all(traj.states[0][flags] == 1.0)
    for m in range(1, 5):
        assert np.all(traj.states[m][flags] == 0.0)


def test_clip_initial_flag():
    cfg = heat_config(n=4, n_steps=2)
    clipped = SchemeConfig(
        ops=cfg.ops,
        params=cfg.params,
        grid=cfg.grid,
        noise=cfg.noise,
        path=cfg.path,
        initial=cfg.initial,
        clip_initial=True,
    )
    traj = run_trajectory(clipped)
    flags = cfg.ops.mesh.boundary_vertex_flags
    assert np.all(traj.states[0][flags] == 0.0)
    assert np.all(traj.states[0][~flags] == 1.0)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5])
def test_energy_non_increasing_without_noise(p):
    cfg = heat_config(n=4, n_steps=6, p=p)
    traj = run_trajectory(cfg)
    ops = cfg.ops
    norms = [float(s @ (ops.mass @ s)) for s in traj.states]
    assert all(b <= a * (1.0 + 1e-10) for a, b in zip(norms[:-1], norms[1:]))


def test_zero_data_zero_trajectory():
    cfg = heat_config(n=4, n_steps=4, p=1.5)
    zero_cfg = SchemeConfig(
        ops=cfg.ops,
        params=cfg.params,
        grid=cfg.grid,
        noise=cfg.noise,
        path=cfg.path,
        initial=np.zeros(cfg.ops.n_vertices),
    )
    traj = run_trajectory(zero_cfg)
    assert np.allclose(traj.states, 0.0, atol=1e-12)


def test_state_depends_only_on_past_increments():
    # truncating the path after t_m and resampling the tail leaves
    # states[0..m] bit-identical
    cfg = heat_config(n=4, n_steps=8, phi_scale=1.0, seed=3)
    traj = run_trajectory(cfg)
    cut = 4
    tampered = cfg.path.increments.copy()
    tampered[cut:] = 123.456
    alt_path = NoisePath(
        seed=cfg.path.seed, finest_step=cfg.path.finest_step, increments=tampered
    )
    alt_cfg = SchemeConfig(
        ops=cfg.ops,
        params=cfg.params,
        grid=cfg.grid,
        noise=cfg.noise,
        path=alt_path,
        initial=cfg.initial,
    )
    alt = run_trajectory(alt_cfg)
    assert np.array_equal(traj.states[: cut + 1], alt.states[: cut + 1])
    assert not np.array_equal(traj.states, alt.states)


def test_refinement_error_decreases_with_tau():
    # p = 2 heat equation: distance to a fixed fine reference shrinks as
    # the coarse step shrinks
    from splap.analysis import path_error

    mesh = generate_unit_square(8)
    ops = assemble(mesh)
    noise = make_noise_coefficient(np.zeros((mesh.n_simplices, 1)))
    horizon = 1.0
    path = sample_path(1, horizon, 64, 1)
    params = GrowthParams(2.0)

    def traj(m):
        cfg = SchemeConfig(
            ops=ops,
            params=params,
            grid=uniform_time_grid(m, horizon, 64),
            noise=noise,
            path=path,
            initial=np.ones(mesh.n_vertices),
        )
        return run_trajectory(cfg)

    fine = traj(64)
    errors = [path_error(traj(m), fine, ops, params).total for m in (4, 8, 16)]
    assert errors[0] > errors[1] > errors[2]


def test_step_failure_carries_index_and_report(monkeypatch):
    cfg = heat_config(n=4, n_steps=3, phi_scale=1.0)

    calls = {"count": 0}

    def failing_solve(prob, warm, tol=1e-9, max_iter=200):
        calls["count"] += 1
        if calls["count"] == 2:
            exc = ConvergenceError("forced failure")
            exc.report = SolveReport(
                iterations=7,
                final_grad_norm=1.0,
                continuation_levels=[0.0],
                objective_trace=[1.0],
            )
            raise exc
        return np.zeros(prob.ops.n_interior), SolveReport(
            iterations=0, final_grad_norm=0.0, continuation_levels=[0.0], objective_trace=[0.0]
        )

    monkeypatch.setattr(stepper_mod, "solve_step", failing_solve)
    with pytest.raises(StepFailure) as err:
        run_trajectory(cfg)
    assert err.value.step_index == 2
    assert err.value.report.iterations == 7


def test_scheme_config_validation():
    cfg = heat_config(n=2, n_steps=4)
    with pytest.raises(ValueError):
        SchemeConfig(
            ops=cfg.ops,
            params=cfg.params,
            grid=cfg.grid,
            noise=cfg.noise,
            path=cfg.path,
            initial=np.ones(3),  # wrong length
        )
    with pytest.raises(ValueError):
        SchemeConfig(
            ops=cfg.ops,
            params=cfg.params,
            grid=cfg.grid,
            noise=cfg.noise,
            path=cfg.path,
            initial=cfg.initial,
            solver_tol=-1.0,
        )
