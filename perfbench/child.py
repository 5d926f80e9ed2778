"""One measurement of the benchmark, in a fresh interpreter.

    python3 child.py setup <workload>
        Time to import splap, parse and validate the workload config and
        build the mesh, the operators and the noise coefficient.
    python3 child.py call <workload> <seed> <out_dir> <trace_dir|->
        One ``run_experiment`` call, its wall and CPU time and peak RSS,
        then the correctness checks on its artifacts.  With a trace
        directory the call runs traced and the per-layer metrics are
        returned as well.
    python3 child.py reference <workload> <out_dir>
        Rewrite reference/<workload>.csv from a run at the committed seed.

The last line of standard output is a JSON object with the results.
``run.py`` starts this script with ``src`` on PYTHONPATH and the BLAS
thread pools pinned to one thread.
"""

import time

T0 = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import ATOL, COMMITTED_SEED, RTOL, WORKLOADS  # noqa: E402


def setup(workload) -> dict:
    from splap.config import parse_config, phi_function, sigma_function
    from splap.fem import assemble
    from splap.mesh import generate_unit_square
    from splap.stochastics import noise_from_function

    cfg = parse_config(workload.config_text(COMMITTED_SEED))
    ops = assemble(generate_unit_square(cfg.mesh_n))
    sigma = sigma_function(cfg.sigma) if cfg.noise_mode == "multiplicative" else None
    noise_from_function(ops.mesh, phi_function(cfg.phi), n_components=cfg.noise_components, mode=cfg.noise_mode, sigma=sigma)
    return {"setup_s": time.perf_counter() - T0}


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _read_cells(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    cells = {}
    for row in rows[1:]:
        cells[(float(row[0]), float(row[1]), int(row[2]))] = tuple(float(v) for v in row[3:])
    return cells


def check_outputs(workload, cfg, out: Path, status: int, compare_reference: bool) -> tuple[list, int, int, int]:
    """Correctness checks on one run's artifacts.

    Returns (problems, attempted replicates, failed replicates, number
    of exponents whose bias correction had no root).
    """
    from splap.config import regression_taus
    from splap.experiment import read_results_csv, summarize_table

    problems = []
    attempted = cfg.n_replicates * len(cfg.p_list)
    expected = ["results.csv", "summary.json", "config.echo", "run.log"] + [f"fig_p{p:g}.svg" for p in cfg.p_list]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], attempted, attempted, 0
    text = (out / "results.csv").read_text()
    summary = json.loads((out / "summary.json").read_text())
    per_p = summary["per_p"]
    failed = sum(len(block["failures"]) for block in per_p.values())
    uninvertible = sum(block["correction_error"] is not None for block in per_p.values())
    # Exit status 1 must come from failed replicates (counted below) or
    # from a bias correction without a root, which small replicate counts
    # routinely hit.
    if status not in (0, 1) or (status == 1 and failed == 0 and uninvertible == 0):
        problems.append(f"exit status {status} with {failed} failed replicates and {uninvertible} uninvertible corrections")

    # summary.json per_p must be summarize_table recomputed from results.csv.
    tables = read_results_csv(text)
    if sorted(tables) != sorted(float(p) for p in cfg.p_list):
        problems.append(f"results.csv exponents {sorted(tables)} != {list(cfg.p_list)}")
    fit_taus = regression_taus(cfg)
    for p, t in tables.items():
        block = per_p.get(repr(float(p)))
        if block is None:
            problems.append(f"summary.json has no block for p={p!r}")
            continue
        if block["tau_ref_effective"] != workload.tau_ref_effective:
            problems.append(f"p={p!r}: tau_ref_effective {block['tau_ref_effective']!r} != {workload.tau_ref_effective!r}")
        again = summarize_table(t["taus"], t["totals"], t["max_l2"], t["quasi"], fit_taus, workload.tau_ref_effective)
        again["failures"] = block["failures"]
        if json.dumps(again, sort_keys=True) != json.dumps(block, sort_keys=True):
            problems.append(f"p={p!r}: summary.json per_p differs from summarize_table of results.csv")

    if compare_reference:
        ref = _read_cells(workload.reference_csv.read_text())
        got = _read_cells(text)
        if sorted(ref) != sorted(got):
            problems.append(f"cells {sorted(set(ref) ^ set(got))} differ between results.csv and the reference")
        bad = [
            key
            for key in ref.keys() & got.keys()
            for x, r in zip(got[key], ref[key])
            if not abs(x - r) <= RTOL * abs(r) + ATOL
        ]
        if bad:
            problems.append(f"{len(bad)} error values outside rtol={RTOL:g}, atol={ATOL:g} of the reference, first {bad[0]}")
    return problems, attempted, failed, uninvertible


def call(workload, seed: int, out: Path, trace_dir: Path | None) -> dict:
    import splap
    import splap.experiment as experiment
    from splap.config import parse_config

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(splap.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"splap imported from {splap.__file__}, not from {src}")
    cfg = parse_config(workload.config_text(seed))
    rec = None
    if trace_dir is not None:
        import tracing

        rec = tracing.install(trace_dir)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    status = experiment.run_experiment(cfg, out_dir=str(out))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": max(me, kids) / 1024.0}
    if rec is not None:
        spans = tracing.collect(rec)
        (trace_dir / "spans.json").write_text(json.dumps(spans))
        layers, durations, trace_problems = tracing.layer_metrics(spans, cfg.workers, wall, os.getpid())
        result.update(layers=layers, step_durations=durations, trace_problems=trace_problems, workers=cfg.workers)
    problems, attempted, failed, uninvertible = check_outputs(
        workload, cfg, out, status, compare_reference=seed == COMMITTED_SEED
    )
    result.update(
        status=status,
        attempted=attempted,
        failed=failed,
        uninvertible=uninvertible,
        problems=problems,
        csv_sha256=hashlib.sha256((out / "results.csv").read_bytes()).hexdigest(),
        artifact_bytes=sum(f.stat().st_size for f in out.iterdir() if f.is_file()),
    )
    return result


def write_reference(workload, out: Path) -> dict:
    from splap.config import parse_config
    from splap.experiment import run_experiment

    run_experiment(parse_config(workload.config_text(COMMITTED_SEED)), out_dir=str(out))
    workload.reference_csv.parent.mkdir(exist_ok=True)
    shutil.copyfile(out / "results.csv", workload.reference_csv)
    return {"written": str(workload.reference_csv)}


def main(argv: list[str]) -> int:
    mode, workload = argv[0], WORKLOADS[argv[1]]
    if mode == "setup":
        result = setup(workload)
    elif mode == "call":
        trace_dir = None if argv[4] == "-" else Path(argv[4])
        result = call(workload, int(argv[2]), Path(argv[3]), trace_dir)
    elif mode == "reference":
        result = write_reference(workload, Path(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
