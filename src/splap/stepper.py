"""Implicit Euler marching of the stochastic p-Laplace system.

Each step advances the conforming state u_{m-1} to u_m by solving the
convex per-step problem with broken forcing

    f_m = u_{m-1} + Phi * (W(t_m) - W(t_{m-1}))            (additive)
    f_m = u_{m-1} + Phi * sigma(u_{m-1}) * (W(t_m)-W(t_m-1))  (multiplicative)

where the Brownian increment is read off a pre-sampled fine-grid path.
Every grid point must sit exactly on the path's fine lattice, so a
coarse and a fine trajectory driven by the same path see identical
partial sums of the same increments.  The initial state is used as
given (it need not vanish on the boundary; all later states do), with
an optional clip that zeroes its boundary values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import GrowthParams
from .fem import FemOperators
from .psolver import ConvergenceError, SolveReport, StepProblem, solve_step
from .stochastics import NoiseCoefficient, NoisePath, TimeGrid, increment, noise_load


class StepFailure(RuntimeError):
    """A per-step solve failed; identifies the step and keeps the report."""

    def __init__(self, step_index: int, cause: ConvergenceError):
        super().__init__(f"step {step_index} failed: {cause}")
        self.step_index = step_index
        self.report = cause.report


@dataclass(frozen=True)
class SchemeConfig:
    """Everything needed to march one trajectory."""

    ops: FemOperators
    params: GrowthParams
    grid: TimeGrid
    noise: NoiseCoefficient
    path: NoisePath
    initial: np.ndarray
    solver_tol: float = 1e-9
    clip_initial: bool = False

    def __post_init__(self) -> None:
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (self.ops.n_vertices,):
            raise ValueError(
                f"initial state must have {self.ops.n_vertices} coefficients, got shape {initial.shape}"
            )
        if not np.all(np.isfinite(initial)):
            raise ValueError("non-finite initial state")
        object.__setattr__(self, "initial", initial)
        if not (np.isfinite(self.solver_tol) and self.solver_tol > 0.0):
            raise ValueError(f"solver_tol must be positive, got {self.solver_tol!r}")


@dataclass
class Trajectory:
    """States (n_steps+1, nv) on a grid, plus per-step solve reports."""

    states: np.ndarray
    grid: TimeGrid
    reports: list[SolveReport] = field(default_factory=list)


def grid_path_indices(grid: TimeGrid, path: NoisePath) -> np.ndarray:
    """Map grid points to fine-lattice indices; exact matches required."""
    pts = grid.points
    tau_fine = path.finest_step
    idx = np.rint(pts / tau_fine).astype(np.int64)
    if idx[0] != 0:
        raise ValueError("grid must start at lattice index 0")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("grid points collapse on the path lattice")
    if idx[-1] > path.n_fine:
        raise ValueError(
            f"grid reaches lattice index {int(idx[-1])} but the path has only {path.n_fine} increments"
        )
    err = np.abs(idx * tau_fine - pts)
    tol = 1e-9 * max(tau_fine, float(pts[-1]))
    if np.any(err > tol):
        m = int(np.argmax(err))
        raise ValueError(f"grid point {m} (t={pts[m]!r}) is not on the path lattice")
    return idx


def run_trajectory(cfg: SchemeConfig) -> Trajectory:
    """March the scheme across the whole grid."""
    ops = cfg.ops
    idx = grid_path_indices(cfg.grid, cfg.path)
    n_steps = cfg.grid.n_steps

    states = np.empty((n_steps + 1, ops.n_vertices))
    u = cfg.initial.copy()
    if cfg.clip_initial:
        u[ops.mesh.boundary_vertex_flags] = 0.0
    states[0] = u
    reports: list[SolveReport] = []
    pts = cfg.grid.points
    for m in range(1, n_steps + 1):
        d_w = increment(cfg.path, int(idx[m - 1]), int(idx[m]))
        forcing = noise_load(ops, cfg.noise, states[m - 1], d_w)
        prob = StepProblem(
            ops=ops,
            params=cfg.params,
            tau_m=float(pts[m] - pts[m - 1]),
            forcing=forcing,
        )
        warm = states[m - 1][ops.interior]
        try:
            u_int, report = solve_step(prob, warm, tol=cfg.solver_tol)
        except ConvergenceError as exc:
            raise StepFailure(m, exc) from exc
        states[m] = ops.prolong(u_int)
        reports.append(report)
    return Trajectory(states=states, grid=cfg.grid, reports=reports)

