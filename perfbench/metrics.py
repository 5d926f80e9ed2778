"""Names, units and directions of the benchmark's metrics.

BENCHMARK.json lists the same names; README.md maps each per-layer
metric to the end-to-end metric and workload it should move.
"""

# name: (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "replicates_per_s": ("1/s", "higher"),
    "core_s_per_replicate": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "replicate_ok_frac": ("frac", "higher"),
    "setup_s": ("s", "lower"),
}

LEVEL_EPS = (0.01, 0.0001, 1e-06, 0.0)
TRACED_P = (1.1, 1.5, 2.5)


def level_key(eps: float) -> str:
    return f"psolver.level_iterations.eps{eps:g}"


def p_key(p: float) -> str:
    return f"analysis.monte_carlo_estimate.p{p:g}.s"


PER_LAYER = {
    "psolver.solve_step.calls": ("count", "lower"),
    "psolver.solve_step.self_s": ("s", "lower"),
    "psolver.solve_step.p50_ms": ("ms", "lower"),
    "psolver.solve_step.p90_ms": ("ms", "lower"),
    "psolver.solve_step.samples": ("count", "higher"),
    "psolver.splu.calls": ("count", "lower"),
    "psolver.splu.s": ("s", "lower"),
    "psolver.objective.calls": ("count", "lower"),
    "psolver.objective.s": ("s", "lower"),
    "psolver.gradient.calls": ("count", "lower"),
    "psolver.gradient.s": ("s", "lower"),
    "psolver.newton_iterations": ("count", "lower"),
    "psolver.newton_per_step": ("count/step", "lower"),
    **{level_key(eps): ("count", "lower") for eps in LEVEL_EPS},
    "psolver.unproductive_factorizations": ("count", "lower"),
    "psolver.factorization_yield": ("frac", "higher"),
    "psolver.armijo_accept_ratio": ("frac", "higher"),
    "stepper.run_trajectory.calls": ("count", "lower"),
    "stepper.reference_s": ("s", "lower"),
    "stepper.coarse_s": ("s", "lower"),
    "stepper.duplicate_ref_frac": ("frac", "lower"),
    "stochastics.noise_load.calls": ("count", "lower"),
    "stochastics.noise_load.s": ("s", "lower"),
    "stochastics.sample_path.s": ("s", "lower"),
    "stochastics.noise_from_function.s": ("s", "lower"),
    "mesh.generate_unit_square.s": ("s", "lower"),
    "fem.assemble.s": ("s", "lower"),
    "fem.quasinorm_error_sq.s": ("s", "lower"),
    "fem.l2_error_sq.s": ("s", "lower"),
    "constitutive.tensor_f_rows.s": ("s", "lower"),
    "analysis.path_error.s": ("s", "lower"),
    **{p_key(p): ("s", "lower") for p in TRACED_P},
    "analysis.pool_efficiency": ("frac", "higher"),
    "analysis.pool_idle_s": ("s", "lower"),
    "experiment.run_experiment.self_s": ("s", "lower"),
    "experiment.summarize_table.s": ("s", "lower"),
    "svgfig.render_loglog.s": ("s", "lower"),
    "experiment.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.accounted_frac": ("frac", "higher"),
}
