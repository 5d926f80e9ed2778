"""Span tracing of splap from outside the package.

``install`` replaces public functions of each layer, at the module
attribute their callers look them up under, with wrappers that record a
span (name, start, end, parent, p, replicate, attributes) per call.  No
file under ``src/`` changes.  Spans stay in memory; each process writes
its list once, when it ends.  Pool workers are forked from the traced
process, so they inherit the wrappers; their spans go to one file per
worker, which ``collect`` merges after the pool has shut down.

``layer_metrics`` turns the spans of one traced ``run_experiment`` call
into the per-layer metrics.  A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

import splap.analysis
import splap.experiment
import splap.fem
import splap.psolver
import splap.stepper
from metrics import LEVEL_EPS, TRACED_P, level_key, p_key

ROOT_SPAN = "experiment.run_experiment"

# span name, module, attribute the caller looks up
TRACE_POINTS = (
    (ROOT_SPAN, splap.experiment, "run_experiment"),
    ("analysis.monte_carlo_estimate", splap.experiment, "monte_carlo_estimate"),
    ("experiment.summarize_table", splap.experiment, "summarize_table"),
    ("svgfig.render_loglog", splap.experiment, "render_loglog"),
    ("analysis.replicate", splap.analysis, "_replicate_errors"),
    ("mesh.generate_unit_square", splap.analysis, "generate_unit_square"),
    ("fem.assemble", splap.analysis, "assemble"),
    ("stochastics.noise_from_function", splap.analysis, "noise_from_function"),
    ("stochastics.sample_path", splap.analysis, "sample_path"),
    ("stepper.run_trajectory", splap.analysis, "run_trajectory"),
    ("analysis.path_error", splap.analysis, "path_error"),
    ("fem.l2_error_sq", splap.analysis, "l2_error_sq"),
    ("fem.quasinorm_error_sq", splap.analysis, "quasinorm_error_sq"),
    ("constitutive.tensor_f_rows", splap.fem, "tensor_f_rows"),
    ("stochastics.noise_load", splap.stepper, "noise_load"),
    ("psolver.solve_step", splap.stepper, "solve_step"),
    ("psolver.objective", splap.psolver, "objective"),
    ("psolver.gradient", splap.psolver, "gradient"),
    ("psolver.splu", splap.psolver, "splu"),
)


class Recorder:
    """In-memory span list of one process; forked children start empty."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[tuple] = []  # (span id, p, replicate) of the open spans
        self.count = 0
        self.last_reference_path = None
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # Runs in a forked pool worker.  The open spans of the parent stay
        # on the stack, so the worker's spans hang under the parent's
        # monte_carlo_estimate span.
        self.pid = os.getpid()
        self.spans = []
        self.last_reference_path = None
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self.trace_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(self.spans))

    def traced(self, name: str, fn):
        attrs_before = _BEFORE.get(name)
        attrs_after = _AFTER.get(name)
        context = _CONTEXT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, p, rep = self.stack[-1] if self.stack else (None, None, None)
            if context is not None:
                p, rep = context(args, p, rep)
            sid = f"{self.pid}.{self.count}"
            self.count += 1
            attrs = attrs_before(self, args, kwargs) if attrs_before else {}
            self.stack.append((sid, p, rep))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            if attrs_after:
                attrs.update(attrs_after(result))
            self.spans.append([sid, name, start, end, parent, p, rep, attrs])
            return result

        return wrapper


def _eps(args, kwargs) -> float:
    return float(args[2] if len(args) > 2 else kwargs.get("eps", 0.0))


def _trajectory_kind(rec: Recorder, args, kwargs) -> dict:
    scheme = args[0] if args else kwargs["cfg"]
    if scheme.grid.n_steps != scheme.path.n_fine:
        return {"kind": "coarse"}
    # The first trajectory of a replicate on the full path lattice is its
    # reference; a later one on the same path repeats it.
    if scheme.path is rec.last_reference_path:
        return {"kind": "duplicate"}
    rec.last_reference_path = scheme.path
    return {"kind": "reference"}


_BEFORE = {
    "psolver.objective": lambda rec, a, k: {"eps": _eps(a, k)},
    "psolver.gradient": lambda rec, a, k: {"eps": _eps(a, k)},
    "stepper.run_trajectory": _trajectory_kind,
}
_AFTER = {
    "psolver.solve_step": lambda res: {
        "iterations": int(res[1].iterations),
        "levels": [float(e) for e in res[1].continuation_levels],
    },
}
_CONTEXT = {
    "analysis.monte_carlo_estimate": lambda a, p, r: (float(a[1]), None),
    "analysis.replicate": lambda a, p, r: (float(a[1]), int(a[2])),
}


def install(trace_dir: Path) -> Recorder:
    """Wrap every trace point; returns the recorder holding the spans."""
    Path(trace_dir).mkdir(parents=True, exist_ok=True)
    rec = Recorder(trace_dir)
    for name, module, attr in TRACE_POINTS:
        setattr(module, attr, rec.traced(name, getattr(module, attr)))
    return rec


def collect(rec: Recorder) -> list[list]:
    """Spans of this process plus those the pool workers wrote."""
    spans = list(rec.spans)
    for path in sorted(rec.trace_dir.glob("worker-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans: list[list], workers: int, traced_wall: float, main_pid: int) -> tuple[dict, list, list]:
    """Per-layer metrics of one traced call.

    Times of spans recorded in pool workers add up busy time over the
    workers.  Returns the metrics, the solve_step durations (for
    percentiles over several calls) and a list of consistency problems.
    """
    problems = []
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    self_s = {}
    for s in spans:
        sid, start, end = s[0], s[2], s[3]
        kids = [(max(c[2], start), min(c[3], end)) for c in children.get(sid, ())]
        self_s[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    m = {}
    roots = [s for s in spans if s[1] == ROOT_SPAN and s[4] is None]
    if len(roots) != 1:
        problems.append(f"expected one root span, found {len(roots)}")

    # Solver: Newton work, derived per solve_step from its child spans.
    steps = by_name["psolver.solve_step"]
    durations = [s[3] - s[2] for s in steps]
    newton = sum(s[7]["iterations"] for s in steps)
    level_its = defaultdict(int)
    trials = 0
    for s in steps:
        kids = children.get(s[0], ())
        grads = defaultdict(int)
        n_obj = 0
        for c in kids:
            if c[1] == "psolver.gradient":
                grads[c[7]["eps"]] += 1
            elif c[1] == "psolver.objective":
                n_obj += 1
        levels = s[7]["levels"]
        step_its = 0
        for k, eps in enumerate(levels):
            # per level: gradient at the anchor and at the start point,
            # one per Newton iteration, and one final check on the last
            its = grads[eps] - 2 - (1 if k == len(levels) - 1 else 0)
            level_its[eps] += its
            step_its += its
        if step_its != s[7]["iterations"]:
            problems.append(f"level iterations {step_its} != reported {s[7]['iterations']} in span {s[0]}")
        # two objective calls pick the start point, one opens each level
        trials += n_obj - 2 - len(levels)
    n_steps = len(steps)
    n_splu = calls("psolver.splu")
    m["psolver.solve_step.calls"] = n_steps
    m["psolver.solve_step.self_s"] = sum(self_s[s[0]] for s in steps)
    m["psolver.splu.calls"] = n_splu
    m["psolver.splu.s"] = total("psolver.splu")
    for name in ("psolver.objective", "psolver.gradient"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    m["psolver.newton_iterations"] = newton
    m["psolver.newton_per_step"] = newton / n_steps if n_steps else 0.0
    for eps in LEVEL_EPS:
        m[level_key(eps)] = level_its.pop(eps, 0)
    if level_its:
        problems.append(f"smoothing levels outside the benchmark's list: {sorted(level_its)}")
    m["psolver.unproductive_factorizations"] = n_splu - newton - n_steps
    m["psolver.factorization_yield"] = newton / (n_splu - n_steps) if n_splu > n_steps else 0.0
    m["psolver.armijo_accept_ratio"] = newton / trials if trials else 0.0

    # Stepper: reference, coarse and duplicate-of-reference trajectories.
    kinds = defaultdict(float)
    for s in by_name["stepper.run_trajectory"]:
        kinds[s[7]["kind"]] += s[3] - s[2]
    traj_s = sum(kinds.values())
    m["stepper.run_trajectory.calls"] = calls("stepper.run_trajectory")
    m["stepper.reference_s"] = kinds["reference"]
    m["stepper.coarse_s"] = kinds["coarse"] + kinds["duplicate"]
    m["stepper.duplicate_ref_frac"] = kinds["duplicate"] / traj_s if traj_s else 0.0

    m["stochastics.noise_load.calls"] = calls("stochastics.noise_load")
    m["stochastics.noise_load.s"] = total("stochastics.noise_load")
    m["stochastics.sample_path.s"] = total("stochastics.sample_path")
    m["stochastics.noise_from_function.s"] = total("stochastics.noise_from_function")
    m["mesh.generate_unit_square.s"] = total("mesh.generate_unit_square")
    m["fem.assemble.s"] = total("fem.assemble")
    m["fem.quasinorm_error_sq.s"] = total("fem.quasinorm_error_sq")
    m["fem.l2_error_sq.s"] = total("fem.l2_error_sq")
    m["constitutive.tensor_f_rows.s"] = total("constitutive.tensor_f_rows")
    m["analysis.path_error.s"] = total("analysis.path_error")

    # Monte-Carlo harness: time per exponent and use of the workers.
    per_p = defaultdict(float)
    for s in by_name["analysis.monte_carlo_estimate"]:
        per_p[s[5]] += s[3] - s[2]
    for p in TRACED_P:
        m[p_key(p)] = per_p.pop(p, 0.0)
    if per_p:
        problems.append(f"exponents outside the benchmark's list: {sorted(per_p)}")
    pool_wall = total("analysis.monte_carlo_estimate")
    busy = total("analysis.replicate")
    m["analysis.pool_efficiency"] = busy / (workers * pool_wall) if pool_wall else 0.0
    m["analysis.pool_idle_s"] = workers * pool_wall - busy

    m["experiment.run_experiment.self_s"] = sum(self_s[s[0]] for s in roots)
    m["experiment.summarize_table.s"] = total("experiment.summarize_table")
    m["svgfig.render_loglog.s"] = total("svgfig.render_loglog")

    # The self times of the traced process, plus the time its pool
    # workers cover, should add up to the wall time measured outside.
    main = [s for s in spans if int(s[0].split(".")[0]) == main_pid]
    worker_cover = 0.0
    for s in main:
        remote = [(c[2], c[3]) for c in children.get(s[0], ()) if int(c[0].split(".")[0]) != main_pid]
        worker_cover += _covered(remote)
    accounted = sum(self_s[s[0]] for s in main) + worker_cover
    m["trace.accounted_frac"] = accounted / traced_wall
    if min(self_s.values(), default=0.0) < -1e-9:
        problems.append("negative self time")
    for key, val in m.items():
        if not math.isfinite(val):
            problems.append(f"{key} is not finite")
    return m, durations, problems
