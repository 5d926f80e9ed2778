"""Refinement errors, Monte-Carlo aggregation, and rate estimation.

The error of a coarse trajectory against a fine reference driven by the
same Brownian path is

    max_m |u_ref(t_m) - u_m|_{L2}^2
        + sum_m tau_m |F(grad u_ref(t_m)) - F(grad u_m)|_{L2}^2,

with the maximum and sum over the coarse grid points.  Averaging the
per-path error over replicates gives the Monte-Carlo estimate E(tau)
whose decay rate is read off a log-log regression.

Because the reference step tau_ref is finite, the regression slope is
biased upward: if the true error decays like c * tau**a, the measured
curve behaves like c * (tau**a - tau_ref**a), which on the regression
range looks like the true curve multiplied by

    beta(tau, tau_ref, a) = tau**a / (tau**a - tau_ref**a) > 1.

``corrected_rate`` corrects for this bias by solving a * beta_mu(a) =
a_meas for a, where beta_mu averages beta over the regression steps;
the space time convergence rate is then alpha = a / 2.  This follows
the beta_mu model, the mean of the local inflation factors, and does
not invert the log-log regression of an exact c * (tau**a - tau_ref**a)
curve: over the steps 1/2, ..., 1/16 against tau_ref = 1/32, a = 0.88
fits to a slope of 1.205, which inverts to 0.7511.  The inversion has a
floor: as a -> 0, a * beta_mu(a) tends to mean_i 1 / ln(tau_i / tau_ref)
(0.7514 for those steps), and smaller slopes admit no rate.
"""

from __future__ import annotations

import logging
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import ExperimentConfig, phi_function, sigma_function
from .constitutive import GrowthParams
from .fem import FemOperators, assemble, l2_error_sq, quasinorm_error_sq
from .mesh import generate_unit_square
from .stepper import SchemeConfig, Trajectory, run_trajectory
from .stochastics import (
    TimeGrid,
    mix_seed,
    noise_from_function,
    random_time_grid,
    sample_path,
    uniform_time_grid,
)

log = logging.getLogger("splap.analysis")

RATE_BRACKET = (1e-6, 2.0)


class CorrectionError(RuntimeError):
    """Bias correction has no root in the admissible rate bracket."""


@dataclass(frozen=True)
class PathError:
    """Error of one coarse/fine trajectory pair on a shared path."""

    max_l2_sq: float
    quasi_sum: float
    total: float


def path_error(coarse: Trajectory, fine: Trajectory, ops: FemOperators, params: GrowthParams) -> PathError:
    """Space-time refinement error of a nested trajectory pair, matched by lattice index.

    The grids must share a lattice, and the fine one must hold every coarse index.
    """
    cgrid, fgrid = coarse.grid, fine.grid
    if (cgrid.horizon, cgrid.n_lattice) != (fgrid.horizon, fgrid.n_lattice):
        raise ValueError("the coarse and the fine grid live on different time lattices")
    nested = np.isin(cgrid.index, fgrid.index)
    if not np.all(nested):
        raise ValueError(f"grids are not nested: no fine grid point at lattice index {cgrid.index[~nested][0]}")
    pos = np.searchsorted(fgrid.index, cgrid.index)
    cpts = cgrid.points
    max_l2 = 0.0
    quasi = 0.0
    for m in range(1, cpts.shape[0]):
        ref = fine.states[pos[m]]
        cur = coarse.states[m]
        max_l2 = max(max_l2, l2_error_sq(ops, ref, cur))
        quasi += float(cpts[m] - cpts[m - 1]) * quasinorm_error_sq(ops, ref, cur, params)
    return PathError(max_l2_sq=max_l2, quasi_sum=quasi, total=max_l2 + quasi)


# ---------------------------------------------------------------------------
# Rate fitting and bias correction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(value) = log_c + a * log(tau)."""

    log_c: float
    a: float
    stderr: float


def fit_rate(taus, values) -> RateFit:
    """Log-log regression slope with its standard error.

    Nonpositive values cannot enter the log regression; they are dropped
    with a warning (a tiny replicate count can produce them).  At least
    two usable points are required.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.shape != values.shape or taus.ndim != 1:
        raise ValueError("taus and values must be 1D arrays of equal length")
    keep = values > 0.0
    if not np.all(keep):
        log.warning("fit_rate: dropping %d nonpositive value(s)", int((~keep).sum()))
    taus, values = taus[keep], values[keep]
    if taus.shape[0] < 2:
        raise ValueError("fit_rate needs at least two positive data points")
    if np.any(taus <= 0.0):
        raise ValueError("taus must be positive")
    x = np.log(taus)
    y = np.log(values)
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("taus must not be all equal")
    a = float(((x - xm) * (y - ym)).sum() / sxx)
    log_c = ym - a * xm
    resid = y - (log_c + a * x)
    dof = x.shape[0] - 2
    stderr = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 else 0.0
    return RateFit(log_c=float(log_c), a=a, stderr=stderr)


def bias(tau: float, tau_tilde: float, a: float) -> float:
    """Finite-reference bias factor tau**a / (tau**a - tau_tilde**a)."""
    if not (0.0 < tau_tilde < tau):
        raise ValueError(f"need 0 < tau_tilde < tau, got tau={tau!r}, tau_tilde={tau_tilde!r}")
    if not (np.isfinite(a) and 0.0 < a <= 2.0):
        raise ValueError(f"rate a must lie in (0, 2], got {a!r}")
    if a > 1.0:
        warnings.warn(f"bias evaluated at a={a:g} > 1, outside the expected rate range", stacklevel=2)
    return _bias_raw(tau, tau_tilde, a)


def _bias_raw(tau: float, tau_tilde: float, a: float) -> float:
    ta = tau**a
    return ta / (ta - tau_tilde**a)


def _bias_mean(taus: np.ndarray, tau_tilde: float, a: float) -> float:
    return float(np.mean([_bias_raw(t, tau_tilde, a) for t in taus]))


def corrected_rate(a_measured: float, taus, tau_tilde: float) -> tuple[float, float]:
    """Invert the bias relation a * beta_mu(a) = a_measured.

    Returns (a, alpha) with alpha = a / 2.  The left-hand side is
    strictly increasing on the bracket (checked numerically), so the
    root is unique; no sign change raises CorrectionError.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.shape[0] == 0:
        raise ValueError("taus must be a nonempty 1D array")
    if not (np.isfinite(tau_tilde) and tau_tilde > 0.0) or np.any(taus <= tau_tilde):
        raise ValueError("need tau > tau_tilde > 0 for every regression step")
    if not np.isfinite(a_measured):
        raise ValueError(f"measured rate must be finite, got {a_measured!r}")

    def lhs(a: float) -> float:
        return a * _bias_mean(taus, tau_tilde, a)

    lo, hi = RATE_BRACKET
    probe = np.linspace(lo, hi, 33)
    vals = np.array([lhs(a) for a in probe])
    if np.any(np.diff(vals) <= 0.0):
        raise CorrectionError("a * beta_mu(a) is not strictly increasing on the bracket")
    flo, fhi = vals[0], vals[-1]
    if not (flo < a_measured <= fhi):
        raise CorrectionError(
            f"no root: a*beta_mu(a) spans [{flo:.6g}, {fhi:.6g}] on ({lo:g}, {hi:g}] "
            f"but the measured rate is {a_measured:.6g}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) < a_measured:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    a = 0.5 * (lo + hi)
    return a, a / 2.0


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloTable:
    """Per-replicate refinement errors of one exponent p.

    ``totals``, ``max_l2`` and ``quasi`` are (n_ok, n_taus) arrays over
    the successful replicates listed in ``replicates``.
    """

    p: float
    taus: tuple
    replicates: tuple
    totals: np.ndarray
    max_l2: np.ndarray
    quasi: np.ndarray
    tau_ref_effective: float
    failures: tuple
    log_cells: tuple


@lru_cache(maxsize=4)
def _runtime(mesh_n: int, phi_expr: str, n_components: int, mode: str, sigma_expr: str):
    """Mesh-level objects shared by all replicates of one protocol."""
    ops = assemble(generate_unit_square(mesh_n))
    sigma = sigma_function(sigma_expr) if mode == "multiplicative" else None
    noise = noise_from_function(
        ops.mesh, phi_function(phi_expr), n_components=n_components, mode=mode, sigma=sigma
    )
    return ops, noise


def _path_layout(cfg: ExperimentConfig):
    """(n_fine, path_horizon, n_lattice) of the sampled paths.

    Every grid of a replicate lives on one lattice of step T/n_lattice,
    the step of its path.  Deterministic grids run the reference at
    tau_ref, so the lattice step is tau_ref.  Random grids need a
    lattice fine enough to give each sampling window interior points
    (step tau_ref/4), and a path long enough to hold the last random
    point, which may exceed T by max(tau)/4.
    """
    n_base = int(round(cfg.horizon / cfg.tau_ref))
    if cfg.grid_kind == "deterministic":
        return n_base, cfg.horizon, n_base
    n_lattice = 4 * n_base
    step = cfg.horizon / n_lattice
    rho_max = int(round(max(cfg.tau_ladder) / step))
    n_fine = n_lattice + rho_max // 4
    return n_fine, n_fine * step, n_lattice


def _replicate_errors(cfg: ExperimentConfig, p: float, r: int):
    """Errors of one replicate: {tau_index: (total, max_l2, quasi)}.

    All ladder grids are drawn first.  The reference then marches once
    over every lattice point up to the last one those grids reach: the
    path is sliced there, so every point the reference visits keeps its
    bits.  A ladder grid with the reference's lattice indices is served
    by the reference trajectory itself; its log cell carries the
    reference's iteration count, which a re-run would repeat.
    """
    ops, noise = _runtime(cfg.mesh_n, cfg.phi, cfg.noise_components, cfg.noise_mode, cfg.sigma)
    params = GrowthParams(p, cfg.kappa)
    initial = np.full(ops.n_vertices, float(cfg.u0))
    n_fine, path_horizon, n_lattice = _path_layout(cfg)
    path = sample_path(mix_seed(cfg.master_seed, r), path_horizon, n_fine, cfg.noise_components)

    def ladder_grid(i, tau):
        n_steps = int(round(cfg.horizon / tau))
        if cfg.grid_kind == "deterministic":
            return uniform_time_grid(n_steps, cfg.horizon, n_lattice)
        seed = mix_seed(mix_seed(cfg.master_seed, r), i + 1)
        return random_time_grid(seed, n_steps, cfg.horizon, snap_to=n_lattice)

    grids = [ladder_grid(i, tau) for i, tau in enumerate(cfg.tau_ladder)]
    k = max(int(grid.index[-1]) for grid in grids)
    path = replace(path, increments=path.increments[:k])
    ref_grid = TimeGrid(np.arange(k + 1), cfg.horizon, n_lattice)

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

    def cell(tau, trajectory):
        iterations = int(sum(rep.iterations for rep in trajectory.reports))
        return {"p": p, "replicate": r, "tau": tau, "newton_iterations": iterations}

    fine = run_trajectory(scheme(ref_grid))
    cells = [cell("reference", fine)]
    rows = {}
    for i, (tau, grid) in enumerate(zip(cfg.tau_ladder, grids)):
        if np.array_equal(grid.index, ref_grid.index):
            coarse = fine
        else:
            coarse = run_trajectory(scheme(grid))
        err = path_error(coarse, fine, ops, params)
        rows[i] = (err.total, err.max_l2_sq, err.quasi_sum)
        cells.append(cell(tau, coarse))
    return rows, cells


def _replicate_task(args):
    """Worker entry point; never raises, reports failures as strings."""
    cfg, p, r = args
    try:
        rows, cells = _replicate_errors(cfg, p, r)
        return r, rows, cells, None
    except Exception as exc:  # failure is data here: the run must go on
        return r, None, None, f"{type(exc).__name__}: {exc}"


def monte_carlo_estimate(cfg: ExperimentConfig, p: float, workers: int = 1) -> MonteCarloTable:
    """Run all replicates of one exponent and collect the error table.

    ``workers`` > 1 distributes replicates over a process pool; results
    are keyed by replicate index, so the table does not depend on the
    worker count or scheduling.
    """
    tasks = [(cfg, p, r) for r in range(cfg.n_replicates)]
    if workers <= 1:
        results = [_replicate_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_task, tasks))
    results.sort(key=lambda item: item[0])

    n_taus = len(cfg.tau_ladder)
    ok_rows = []
    ok_ids = []
    failures = []
    log_cells = []
    for r, rows, cells, err in results:
        if err is not None:
            failures.append((r, err))
            log_cells.append({"p": p, "replicate": r, "error": err})
            continue
        ok_ids.append(r)
        ok_rows.append([rows[i] for i in range(n_taus)])
        log_cells.extend(cells)
    if not ok_ids:
        raise RuntimeError(f"all {cfg.n_replicates} replicates failed for p={p}")
    cube = np.asarray(ok_rows)  # (n_ok, n_taus, 3)
    _, _, n_lattice = _path_layout(cfg)
    return MonteCarloTable(
        p=p,
        taus=tuple(cfg.tau_ladder),
        replicates=tuple(ok_ids),
        totals=cube[:, :, 0],
        max_l2=cube[:, :, 1],
        quasi=cube[:, :, 2],
        tau_ref_effective=cfg.horizon / n_lattice,
        failures=tuple(failures),
        log_cells=tuple(log_cells),
    )
