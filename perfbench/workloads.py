"""The benchmark's workloads: fixed protocol inputs plus a seed.

Each workload is one ``splap`` config.  Everything but ``master_seed``
is fixed here; the seed comes from the command line.  At
``COMMITTED_SEED`` the per-cell errors are also compared with the table
in ``reference/<name>.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

COMMITTED_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Per-cell tolerance against the reference table: |x - ref| <= RTOL |ref| + ATOL.
# Newton ends every step at roundoff level, so tightening solver_tol from
# 1e-9 to 1e-11 leaves the errors of all three workloads bit for bit
# unchanged; 1e-6 leaves room for reordered sums and other solvers.
RTOL = 1e-6
ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    tau_ref_effective: float

    def config_text(self, seed: int) -> str:
        return self.config + f"master_seed = {int(seed)}\n"

    @property
    def reference_csv(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv"


# The desk ladder 1/2..1/16 has no entry equal to tau_ref, so reference
# reuse has nothing to act on; the default ladder of full-smooth-m32 ends
# at tau_ref and re-runs the reference; random grids run the reference on
# a 4x finer lattice (tau_ref_effective = tau_ref / 4).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-nonsmooth",
            why="p=1.1 on mesh 16: slowest desk exponent, three smoothing levels, Hessian assembly dominates",
            config=(
                "p_list = 1.1\n"
                "mesh_n = 16\n"
                "tau_ladder = 1/2, 1/4, 1/8, 1/16\n"
                "tau_ref = 1/32\n"
                "grid_kind = deterministic\n"
                "noise_mode = additive\n"
                "n_r = 1\n"
                "workers = 1\n"
            ),
            tau_ref_effective=1 / 32,
        ),
        Workload(
            name="full-smooth-m32",
            why="p=2.5 on mesh 32, default ladder: larger systems, factorization dominates, no continuation, 1/32 re-runs the reference",
            config=(
                "p_list = 2.5\n"
                "mesh_n = 32\n"
                "tau_ladder = 1, 1/2, 1/4, 1/8, 1/16, 1/32\n"
                "tau_ref = 1/32\n"
                "grid_kind = deterministic\n"
                "n_r = 2\n"
                "workers = 1\n"
            ),
            tau_ref_effective=1 / 32,
        ),
        Workload(
            name="random-pool",
            why="random grids, p=1.5 and 2.5 on mesh 16 with 2 workers: the only one using the process pool and its start-up",
            config=(
                "p_list = 1.5, 2.5\n"
                "mesh_n = 16\n"
                "tau_ladder = 1/2, 1/4, 1/8, 1/16\n"
                "tau_ref = 1/32\n"
                "grid_kind = random\n"
                "n_r = 2\n"
                "workers = 2\n"
            ),
            tau_ref_effective=1 / 128,
        ),
    )
}
