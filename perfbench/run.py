#!/usr/bin/env python3
"""Benchmark of the splap Monte-Carlo rate protocol.

    python3 perfbench/run.py --workload desk-nonsmooth --seed 1 --seconds 40 --trace 0

Runs the named workload (see workloads.py) through
``splap.experiment.run_experiment``, each call in a fresh interpreter
(child.py), until ``--seconds`` are used up, and checks every call's
artifacts.  With ``--trace 0`` it reports the end-to-end metrics as
medians over the calls; with ``--trace 1`` it alternates untraced and
traced calls and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

# One BLAS thread per process, so the 2-worker pool uses at most 2 threads.
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_PROBES = 5
MIN_CALLS = 2  # results.csv is compared between calls
MIN_STEP_SAMPLES = 100  # solve_step durations behind the traced p90
HARD_LIMIT_S = 150.0  # a run exits well within 180 s


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], timeout: float) -> dict:
    """Run child.py in its own process group; kill the group on timeout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise ChildError(f"{args[0]} exceeded {timeout:.0f} s") from None
    _kill_group(proc)  # pool workers left behind by a crashed child
    if proc.returncode != 0:
        raise ChildError(f"{args[0]} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):  # orphaned workers are reaped by init, not by us
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def machine_facts() -> dict:
    import importlib.metadata as md

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": md.version("numpy"),
        "scipy": md.version("scipy"),
        "blas_threads_pinned": 1,
    }


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    k = max(0, min(len(sorted_vals) - 1, -(-len(sorted_vals) * q // 100) - 1))
    return sorted_vals[int(k)]


def setup_probe(workload, hard: float) -> float:
    return run_child(["setup", workload.name], hard - time.perf_counter())["setup_s"]


def measure(workload, seed: int, seconds: int, trace: bool, out_root: Path) -> tuple[dict, dict, list[str]]:
    """Run calls until the time is used up; returns (metrics, totals, notes).

    Untraced runs time a fresh set-up before each call, and at least
    SETUP_PROBES in all, so the set-up samples spread over the run like
    the calls do.  Traced runs alternate untraced and traced calls, and
    go on until the traced calls hold MIN_STEP_SAMPLES solve_step spans.
    """
    start = time.perf_counter()
    deadline = start + seconds
    hard = start + HARD_LIMIT_S
    plain, traced, problems, notes, setups = [], [], [], [], []
    attempted = failed = 0
    shas = set()
    for k in itertools.count():
        with_trace = trace and k % 2 == 1
        out = out_root / f"call{k}"
        trace_dir = out / "trace" if with_trace else None
        t0 = time.perf_counter()
        if not trace:
            setups.append(setup_probe(workload, hard))
        try:
            res = run_child(
                ["call", workload.name, str(seed), str(out / "artifacts"), str(trace_dir) if with_trace else "-"],
                hard - time.perf_counter(),
            )
        except ChildError as exc:
            # A crashed call fails all its replicates; its size is that of any other call.
            problems.append(str(exc))
            size = (plain + traced)[0]["attempted"] if plain or traced else 0
            attempted += size
            failed += size
            break
        last = time.perf_counter() - t0
        if res["problems"]:
            problems.extend(f"call {k}: {p}" for p in res["problems"])
            res["failed"] = res["attempted"]  # a call that fails a check fails all its replicates
        attempted += res["attempted"]
        failed += res["failed"]
        if res["uninvertible"]:
            notes.append(f"call {k}: exit status {res['status']}, {res['uninvertible']} bias correction(s) without a root (not a failure)")
        shas.add(res["csv_sha256"])
        if with_trace:
            traced.append(res)
            notes.extend(f"call {k}: trace: {p}" for p in res["trace_problems"])
            shutil.copyfile(trace_dir / "spans.json", OUT_ROOT / f"trace-{workload.name}-seed{seed}.json")
        else:
            plain.append(res)
        shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        if trace:
            enough = bool(plain) and sum(len(t["step_durations"]) for t in traced) >= MIN_STEP_SAMPLES
        else:
            enough = len(plain) >= MIN_CALLS
        if (enough and now + last > deadline) or now + last > hard:
            break
    while not trace and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, hard))
    if len(shas) > 1:
        problems.append(f"results.csv differs between calls: {len(shas)} distinct versions")
    if not plain or (trace and not traced):
        raise ChildError("; ".join(problems) or "no call completed")

    metrics = _layer_metrics(plain, traced) if trace else _end_to_end(plain, setups)
    if trace:
        notes.append("not applicable on this workload: " + ", ".join(_not_applicable(metrics, traced[0]["workers"])))
    totals = {"correct": not problems, "attempted": attempted, "failed": failed}
    notes.extend(f"check failed: {p}" for p in problems)
    notes.append(f"{len(plain)} untraced and {len(traced)} traced calls; results.csv sha256 {min(shas)[:16]}")
    return metrics, totals, notes


def _end_to_end(calls: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    ok = [c["attempted"] - c["failed"] for c in calls]
    return {
        "wall_s": med(c["wall_s"] for c in calls),
        "replicates_per_s": med(n / c["wall_s"] for n, c in zip(ok, calls)),
        "core_s_per_replicate": med(c["cpu_s"] / c["attempted"] for c in calls),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in calls),
        "replicate_ok_frac": med(n / c["attempted"] for n, c in zip(ok, calls)),
        "setup_s": med(setups),
    }


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced calls; percentiles over all their steps."""
    m = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
    durations = sorted(d for t in traced for d in t["step_durations"])
    m["psolver.solve_step.p50_ms"] = 1e3 * percentile(durations, 50.0)
    m["psolver.solve_step.p90_ms"] = 1e3 * percentile(durations, 90.0)
    m["psolver.solve_step.samples"] = len(durations)
    m["experiment.artifact_bytes"] = statistics.median(c["artifact_bytes"] for c in plain)
    untraced_wall = statistics.median(c["wall_s"] for c in plain)
    m["trace.overhead_frac"] = statistics.median(t["wall_s"] for t in traced) / untraced_wall - 1.0
    return {name: m[name] for name in PER_LAYER}


def _not_applicable(metrics: dict, workers: int) -> list[str]:
    """Per-layer metrics that read 0 because the workload has no such work."""
    unused = [
        name
        for name, value in metrics.items()
        if value == 0
        and name.startswith(("psolver.level_iterations.", "analysis.monte_carlo_estimate.", "stepper.duplicate_ref_frac"))
    ]
    if workers == 1:
        unused += ["analysis.pool_efficiency (no pool)", "analysis.pool_idle_s (no pool)"]
    return unused


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="master_seed of the workload config")
    ap.add_argument("--seconds", type=int, default=40, help="measurement time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "splap" / "__init__.py").is_file():
        print(f"error: no splap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_root = OUT_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        metrics, totals, notes = measure(workload, args.seed, args.seconds, bool(args.trace), out_root)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for note in notes:
        print("note   " + note)
    units = {name: unit for name, (unit, _) in (PER_LAYER if args.trace else END_TO_END).items()}
    for name, value in metrics.items():
        print(f"metric {name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({**totals, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
