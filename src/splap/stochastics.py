"""Brownian paths, time grids, and the noise load.

Reproducibility contract
------------------------
All randomness flows through the counter-based Philox bit generator and
a documented transform: 64-bit words are mapped to uniforms in (0, 1)
by ``u = ((word >> 11) + 0.5) * 2**-53`` and to standard normals by the
inverse normal CDF.  The same seed therefore reproduces the same
increments bit for bit, independent of call order or platform word
order.  Replicate streams are derived from a master seed with a
splitmix64 mix, which is a bijection of the stream index, so distinct
replicates can never collide.

Paths store i.i.d. fine-grid increments N(0, tau_fine).  Any coarser
increment is the ordered left-to-right partial sum of the stored fine
increments; nothing is ever re-sampled, so nested coarse/fine schemes
driven by one path see exactly the same Brownian motion.

A time grid holds the rising indices of its points on the lattice of
step T/n_lattice that its path is sampled on.  Deterministic grids are
the points m*T/M.  Random grids, with tau = T/M, draw each point t_m
uniformly over the lattice points of its window [m*tau - tau/4,
m*tau + tau/4], symmetric around m*tau, so t_m has mean m*tau; the
points stay strictly increasing and every step lies in [tau/2, 3*tau/2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .fem import FemOperators
from .mesh import Mesh

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, stream: int) -> int:
    """Derive the seed of stream ``stream`` from a master seed.

    splitmix64 is a bijection, so distinct streams give distinct seeds.
    """
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ (stream & _MASK64))


def _uniform01(seed: int, n: int) -> np.ndarray:
    """n uniforms in the open interval (0, 1) from a Philox counter stream."""
    raw = np.random.Philox(key=seed & _MASK64).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def standard_normals(seed: int, n: int) -> np.ndarray:
    """n standard normals via the inverse-CDF transform of Philox uniforms."""
    return ndtri(_uniform01(seed, n))


@dataclass(frozen=True)
class NoisePath:
    """Fine-grid Brownian increments of K independent components.

    ``increments`` has shape (n_fine, K), row i being the increments of
    all components over (i*finest_step, (i+1)*finest_step], each
    distributed N(0, finest_step).
    """

    seed: int
    finest_step: float
    increments: np.ndarray

    @property
    def n_fine(self) -> int:
        return self.increments.shape[0]

    @property
    def n_components(self) -> int:
        return self.increments.shape[1]


def sample_path(seed: int, horizon: float, n_fine: int, n_components: int = 1) -> NoisePath:
    """Sample a path of n_fine i.i.d. increments N(0, horizon/n_fine)."""
    if n_fine < 1 or int(n_fine) != n_fine:
        raise ValueError(f"n_fine must be a positive integer, got {n_fine!r}")
    if n_components < 1 or int(n_components) != n_components:
        raise ValueError(f"n_components must be a positive integer, got {n_components!r}")
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    n_fine = int(n_fine)
    n_components = int(n_components)
    tau_fine = horizon / n_fine
    z = standard_normals(seed, n_fine * n_components)
    inc = (z * np.sqrt(tau_fine)).reshape(n_fine, n_components)
    return NoisePath(seed=int(seed), finest_step=tau_fine, increments=inc)


def increment(path: NoisePath, a: int, b: int) -> np.ndarray:
    """Brownian increment over fine indices (a, b], as an ordered sum.

    Summation is strictly left to right so that splitting an interval
    and summing the parts in order reproduces the same bits.
    """
    if not (0 <= a <= b <= path.n_fine):
        raise ValueError(f"increment range ({a}, {b}] outside [0, {path.n_fine}]")
    out = np.zeros(path.n_components)
    inc = path.increments
    for i in range(int(a), int(b)):
        out += inc[i]
    return out


# ---------------------------------------------------------------------------
# Time grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Partition 0 = t_0 < ... < t_M, t_m = index[m] * horizon / n_lattice.

    Grids on one lattice share each common point's float, and a grid
    meets a path on its lattice by index, not by float.
    """

    index: np.ndarray
    horizon: float
    n_lattice: int

    def __post_init__(self) -> None:
        index = np.asarray(self.index, dtype=np.int64)
        if index.ndim != 1 or index.shape[0] < 2 or index[0] != 0 or np.any(np.diff(index) <= 0):
            raise ValueError("a time grid needs at least two lattice indices, rising strictly from 0")
        object.__setattr__(self, "index", index)

    @property
    def points(self) -> np.ndarray:
        return self.index * self.horizon / self.n_lattice

    @property
    def n_steps(self) -> int:
        return self.index.shape[0] - 1


def _steps_per_tau(n_steps: int, horizon: float, n_lattice: int) -> int:
    """Lattice steps rho = n_lattice / n_steps per mean step T / n_steps."""
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if n_lattice < n_steps or n_lattice % n_steps != 0:
        raise ValueError(f"lattice ({n_lattice}) must be a multiple of n_steps ({n_steps})")
    return int(n_lattice) // int(n_steps)


def uniform_time_grid(n_steps: int, horizon: float, n_lattice: int) -> TimeGrid:
    """Grid t_m = m * horizon / n_steps on a lattice of n_lattice steps, a multiple of n_steps."""
    rho = _steps_per_tau(n_steps, horizon, n_lattice)
    return TimeGrid(np.arange(int(n_steps) + 1) * rho, horizon, n_lattice)


def random_time_grid(seed: int, n_steps: int, horizon: float, snap_to: int) -> TimeGrid:
    """Random grid on the lattice with step horizon/snap_to.

    With rho = snap_to/n_steps lattice steps per tau and h = rho // 4,
    t_m is m*tau plus an offset drawn uniformly from {-h, ..., h}
    lattice steps, so by construction each point lies in
    [m tau - tau/4, m tau + tau/4] and each step in [tau/2, 3 tau/2]
    (the last point may pass horizon by up to tau/4, so a path must
    extend that far).  snap_to must be a multiple of n_steps.
    """
    rho = _steps_per_tau(n_steps, horizon, snap_to)
    half = rho // 4
    count = 2 * half + 1
    u = _uniform01(seed, int(n_steps))
    offs = np.minimum((u * count).astype(np.int64), count - 1) - half
    idx = np.arange(1, int(n_steps) + 1) * rho + offs
    return TimeGrid(np.concatenate([[0], idx]), horizon, snap_to)


# ---------------------------------------------------------------------------
# Noise coefficient and load
# ---------------------------------------------------------------------------

_NOISE_MODES = ("additive", "multiplicative")


@dataclass(frozen=True)
class NoiseCoefficient:
    """Piecewise constant noise amplitude.

    ``values[j, k]`` multiplies the increment of Brownian component k on
    simplex j.  In multiplicative mode the load is further scaled by the
    shape function ``sigma`` evaluated at the current state, node by
    node; sigma maps an array of states to an array of the same shape.
    """

    values: np.ndarray
    mode: str = "additive"
    sigma: object = None

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


def make_noise_coefficient(values: np.ndarray, mode: str = "additive", sigma=None) -> NoiseCoefficient:
    """Validate and build a NoiseCoefficient from a (ns, K) table."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"noise values must be (ns, K), got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite noise coefficient values")
    if mode not in _NOISE_MODES:
        raise ValueError(f"noise mode must be one of {_NOISE_MODES}, got {mode!r}")
    if mode == "multiplicative" and sigma is None:
        raise ValueError("multiplicative noise requires a shape function sigma")
    return NoiseCoefficient(values=values, mode=mode, sigma=sigma)


def noise_from_function(mesh: Mesh, fn, n_components: int = 1, mode: str = "additive", sigma=None) -> NoiseCoefficient:
    """Piecewise constant coefficient from a spatial function.

    ``fn(x, y)`` is evaluated at simplex barycenters; the same spatial
    profile is used for every Brownian component.
    """
    v = mesh.vertices
    t = mesh.simplices
    bary = (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0
    vals = np.array([float(fn(float(x), float(y))) for x, y in bary])
    if not np.all(np.isfinite(vals)):
        j = int(np.where(~np.isfinite(vals))[0][0])
        raise ValueError(f"noise coefficient is not finite on simplex {j}")
    table = np.repeat(vals[:, None], int(n_components), axis=1)
    return make_noise_coefficient(table, mode=mode, sigma=sigma)


def noise_load(ops: FemOperators, phi: NoiseCoefficient, state: np.ndarray, d_w: np.ndarray) -> np.ndarray:
    """Broken right-hand side of one implicit step.

    Additive mode:        f = state + sum_k phi[:, k] dW_k
    Multiplicative mode:  f = state + sum_k phi[:, k] sigma(state) dW_k

    ``state`` enters through its exact broken embedding; the noise term
    is constant per simplex (additive) or scaled per broken node by
    sigma of the nodal state value (multiplicative).  sigma is called
    once, on the whole broken state, and must keep its shape.
    """
    state = np.asarray(state, dtype=float)
    d_w = np.asarray(d_w, dtype=float)
    ns = ops.n_simplices
    if phi.values.shape[0] != ns:
        raise ValueError(f"noise table has {phi.values.shape[0]} rows, mesh has {ns} simplices")
    if d_w.shape != (phi.n_components,):
        raise ValueError(f"increment must have shape ({phi.n_components},), got {d_w.shape}")
    if state.shape != (ops.n_vertices,):
        raise ValueError(f"state must have {ops.n_vertices} coefficients")
    base = state[ops.mesh.simplices.ravel()]
    amp = np.repeat(phi.values @ d_w, 3)
    if phi.mode == "additive":
        return base + amp
    shaped = np.asarray(phi.sigma(base), dtype=float)
    if shaped.shape != base.shape:
        raise ValueError(f"sigma maps a state of shape {base.shape} to shape {shaped.shape}")
    return base + amp * shaped
