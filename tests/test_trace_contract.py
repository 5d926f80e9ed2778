"""The benchmark's tracer wraps splap functions by module attribute.

``perfbench/tracing.py`` replaces each (module, attribute) of its
``TRACE_POINTS`` with a timing wrapper, and counts factorizations
through ``splap.psolver.splu``: every Newton matrix and the p < 2
start; the p = 2 start is factored once per mesh and step size by the
pattern, outside it.  ``tracing.layer_metrics`` derives the
iterations per smoothing level and the Armijo acceptance ratio from the
``objective`` and ``gradient`` calls inside each ``solve_step``.  These
tests fail when a rename or a change of that call protocol in ``src/``
would break a traced benchmark run.
"""

from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("p", [1.1, 1.5, 2.5])
def test_solve_step_call_protocol(monkeypatch, p):
    counts = {"objective": 0, "gradient": 0}

    def counting(name):
        fn = getattr(splap.psolver, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(splap.psolver, name, counting(name))
    ops = assemble(generate_unit_square(6))
    rng = np.random.default_rng(int(10 * p))
    for tau in (0.02, 0.5):
        prob = StepProblem(
            ops=ops, params=GrowthParams(p), tau_m=tau, forcing=rng.standard_normal(3 * ops.n_simplices)
        )
        counts.update(objective=0, gradient=0)
        _, report = solve_step(prob, rng.standard_normal(ops.n_interior))
        levels = len(report.continuation_levels)
        # per level the anchor, the start point and one per Newton
        # iteration, plus the final check
        assert counts["gradient"] == report.iterations + 2 * levels + 1
        # two pick the start point, one opens each level, at least one
        # line-search trial per Newton iteration
        assert counts["objective"] >= 2 + levels + report.iterations


@pytest.mark.parametrize("p", [1.1, 1.5, 2.5])
def test_solve_step_forms_each_residual_once(monkeypatch, p):
    # the residual is formed at the warm start, at the start point (the
    # warm start's own when it wins) and once per Newton iteration; the
    # final gradient call reads the last point's kept residual
    counts = {"gradient": 0, "residual": 0}
    gradient = splap.psolver.gradient
    form_residual = splap.psolver._form_residual

    def counting_gradient(*args, **kwargs):
        counts["gradient"] += 1
        return gradient(*args, **kwargs)

    def counting_residual(*args):
        counts["residual"] += 1
        return form_residual(*args)

    monkeypatch.setattr(splap.psolver, "gradient", counting_gradient)
    monkeypatch.setattr(splap.psolver, "_form_residual", counting_residual)
    ops = assemble(generate_unit_square(6))
    rng = np.random.default_rng(int(10 * p) + 1)
    for tau in (0.02, 0.5):
        for warm in (np.zeros(ops.n_interior), rng.standard_normal(ops.n_interior)):
            prob = StepProblem(
                ops=ops, params=GrowthParams(p), tau_m=tau, forcing=rng.standard_normal(3 * ops.n_simplices)
            )
            counts.update(gradient=0, residual=0)
            _, report = solve_step(prob, warm)
            assert counts["gradient"] == report.iterations + 3
            assert counts["residual"] <= report.iterations + 2


@pytest.mark.parametrize("p", [1.1, 1.5, 2.5])
def test_solve_step_builds_one_point_per_new_iterate(monkeypatch, p):
    # the warm start, the start candidate and each line-search trial are
    # built once; the objective call that opens the Newton loop, every
    # gradient and every Newton matrix find their point in the memo, so
    # the loop rebuilds no point it owns
    counts = {"objective": 0, "point": 0}
    objective, point = splap.psolver.objective, splap.psolver._Point

    def counting_objective(*args, **kwargs):
        counts["objective"] += 1
        return objective(*args, **kwargs)

    def counting_point(*args, **kwargs):
        counts["point"] += 1
        return point(*args, **kwargs)

    monkeypatch.setattr(splap.psolver, "objective", counting_objective)
    monkeypatch.setattr(splap.psolver, "_Point", counting_point)
    ops = assemble(generate_unit_square(6))
    rng = np.random.default_rng(int(10 * p) + 2)
    for tau in (0.02, 0.5):
        for warm in (np.zeros(ops.n_interior), rng.standard_normal(ops.n_interior)):
            prob = StepProblem(
                ops=ops, params=GrowthParams(p), tau_m=tau, forcing=rng.standard_normal(3 * ops.n_simplices)
            )
            counts.update(objective=0, point=0)
            _, report = solve_step(prob, warm)
            assert report.iterations > 0
            assert counts["point"] == counts["objective"] - 1
