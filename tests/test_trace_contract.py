"""The benchmark's tracer wraps splap functions by module attribute.

``perfbench/tracing.py`` replaces each (module, attribute) of its
``TRACE_POINTS`` with a timing wrapper, and counts factorizations
through ``splap.psolver.splu``.  These tests fail when a rename in
``src/`` would break a traced benchmark run.
"""

from pathlib import Path

import numpy as np

import splap.psolver
from splap.constitutive import GrowthParams
from splap.fem import assemble
from splap.mesh import generate_unit_square
from splap.psolver import StepProblem, solve_step

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_points_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for name, module, attribute in tracing.TRACE_POINTS:
        assert callable(getattr(module, attribute, None)), name


def test_solve_step_factors_through_splu(monkeypatch):
    calls = []
    band_solve = splap.psolver.splu

    def counting_splu(*args):
        calls.append(1)
        return band_solve(*args)

    monkeypatch.setattr(splap.psolver, "splu", counting_splu)
    ops = assemble(generate_unit_square(6))
    rng = np.random.default_rng(16)
    prob = StepProblem(
        ops=ops, params=GrowthParams(1.5), tau_m=0.1, forcing=rng.standard_normal(3 * ops.n_simplices)
    )
    _, report = solve_step(prob, np.zeros(ops.n_interior))
    assert report.iterations > 0
    # the presolve plus one factorization per Newton iteration at least
    assert len(calls) >= 1 + report.iterations
