"""Experiment orchestration and artifact persistence.

``run_experiment`` executes the full Monte-Carlo protocol of a config
and writes five artifacts into the output directory:

  results.csv     per-replicate error table (p, tau, replicate, errors)
  summary.json    per-p rate estimates and error statistics
  fig_p<p>.svg    log-log figure per exponent
  config.echo     canonical echo of the effective configuration
  run.log         JSON lines with per-cell diagnostics

All files are written in fixed key and row order with repr-exact float
formatting, so identical configs produce byte-identical artifacts
regardless of worker count.  The statistics in summary.json are a pure
function of the CSV table (see ``summarize_table``), which keeps the
summary recomputable from persisted results alone.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

import numpy as np

from .analysis import CorrectionError, MonteCarloTable, corrected_rate, fit_rate, monte_carlo_estimate
from .config import ExperimentConfig, echo_config, regression_taus
from .svgfig import render_loglog

log = logging.getLogger("splap.experiment")

CSV_HEADER = "p,tau,replicate,E_total,E_maxL2,E_quasi"


def summarize_table(taus, totals, max_l2, quasi, fit_taus, tau_tilde) -> dict:
    """Per-exponent summary statistics from an error table.

    Pure function of the per-replicate table plus the regression
    protocol (fit steps and effective reference step), so the summary
    can be regenerated from results.csv without rerunning the solver.
    A mean curve with fewer than two positive values at the fit steps
    has no rate: ``fit_error`` records why, and the rate entries are
    None.
    """
    taus = [float(t) for t in taus]
    totals = np.asarray(totals, dtype=float)
    max_l2 = np.asarray(max_l2, dtype=float)
    quasi = np.asarray(quasi, dtype=float)
    cols = [taus.index(float(t)) for t in fit_taus]
    fit_taus = [taus[c] for c in cols]
    mean_curve = totals.mean(axis=0)
    try:
        fit = fit_rate(fit_taus, mean_curve[cols])
        fit_error = None
    except ValueError as exc:
        fit = None
        fit_error = f"{type(exc).__name__}: {exc}"
    slopes = []
    for r in range(totals.shape[0]):
        try:
            slopes.append(fit_rate(fit_taus, totals[r, cols]).a)
        except ValueError:
            log.warning("replicate row %d skipped in slope aggregation", r)
    out = {
        "a_tilde": fit.a if fit else None,
        "a_tilde_stderr": fit.stderr if fit else None,
        "log_c": fit.log_c if fit else None,
        "fit_error": fit_error,
        "replicate_slope_mean": float(np.mean(slopes)) if slopes else None,
        "replicate_slope_std": float(np.std(slopes, ddof=1)) if len(slopes) > 1 else 0.0,
        "n_replicates_ok": int(totals.shape[0]),
        "taus": taus,
        "taus_fit": fit_taus,
        "tau_ref_effective": float(tau_tilde),
        "E_mean": [float(v) for v in mean_curve],
        "E_std": [float(v) for v in (totals.std(axis=0, ddof=1) if totals.shape[0] > 1 else np.zeros(len(taus)))],
        "E_maxL2_mean": [float(v) for v in max_l2.mean(axis=0)],
        "E_quasi_mean": [float(v) for v in quasi.mean(axis=0)],
    }
    out["a_corrected"] = out["alpha"] = out["correction_error"] = None
    if fit:
        try:
            out["a_corrected"], out["alpha"] = corrected_rate(fit.a, fit_taus, float(tau_tilde))
        except (CorrectionError, ValueError) as exc:
            out["correction_error"] = f"{type(exc).__name__}: {exc}"
    return out


def _csv_rows(tables: list[MonteCarloTable]) -> str:
    lines = [CSV_HEADER]
    for table in tables:
        for k, r in enumerate(table.replicates):
            for i, tau in enumerate(table.taus):
                lines.append(
                    ",".join(
                        (
                            repr(float(table.p)),
                            repr(float(tau)),
                            str(int(r)),
                            repr(float(table.totals[k, i])),
                            repr(float(table.max_l2[k, i])),
                            repr(float(table.quasi[k, i])),
                        )
                    )
                )
    return "\n".join(lines) + "\n"


def read_results_csv(text: str) -> dict[float, dict]:
    """Parse results.csv back into per-p tables (taus, replicates, arrays)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized results header")
    cells: dict[float, dict] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed results row: {ln!r}")
        p = float(parts[0])
        tau = float(parts[1])
        r = int(parts[2])
        rec = cells.setdefault(p, {"taus": [], "rows": {}})
        if tau not in rec["taus"]:
            rec["taus"].append(tau)
        rec["rows"].setdefault(r, {})[tau] = (float(parts[3]), float(parts[4]), float(parts[5]))
    out = {}
    for p, rec in cells.items():
        taus = rec["taus"]
        reps = sorted(rec["rows"])
        cube = np.array([[rec["rows"][r][t] for t in taus] for r in reps])
        out[p] = {
            "taus": taus,
            "replicates": reps,
            "totals": cube[:, :, 0],
            "max_l2": cube[:, :, 1],
            "quasi": cube[:, :, 2],
        }
    return out


def run_experiment(cfg: ExperimentConfig, workers: int | None = None, out_dir: str | None = None) -> int:
    """Run the full protocol and persist artifacts; 0 on a clean run."""
    if workers is None:
        workers = cfg.workers
    if workers <= 0:
        workers = os.cpu_count() or 1
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    fit_taus = regression_taus(cfg)
    tables = []
    summaries = {}
    log_lines = []
    dirty = False
    for p in cfg.p_list:
        log.info("running p=%g with %d workers", p, workers)
        table = monte_carlo_estimate(cfg, p, workers=workers)
        tables.append(table)
        summary = summarize_table(table.taus, table.totals, table.max_l2, table.quasi, fit_taus, table.tau_ref_effective)
        summary["failures"] = [[int(r), msg] for r, msg in table.failures]
        summaries[repr(float(p))] = summary
        log_lines.extend(json.dumps(cell, sort_keys=True) for cell in table.log_cells)
        log_lines.append(
            json.dumps(
                {"event": "rates", "p": float(p), "a_tilde": summary["a_tilde"], "a_corrected": summary["a_corrected"]},
                sort_keys=True,
            )
        )
        if table.failures or summary["fit_error"] is not None or summary["correction_error"] is not None:
            dirty = True

    (out / "results.csv").write_bytes(_csv_rows(tables).encode("utf-8"))
    payload = {"per_p": summaries, "protocol": _protocol_dict(cfg)}
    (out / "summary.json").write_bytes((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    for table in tables:
        svg = render_loglog(table, summaries[repr(float(table.p))])
        (out / f"fig_p{table.p:g}.svg").write_bytes(svg.encode("utf-8"))
    (out / "config.echo").write_bytes(echo_config(cfg).encode("utf-8"))
    log_lines.append(json.dumps({"event": "done", "exit_status": 1 if dirty else 0}, sort_keys=True))
    (out / "run.log").write_bytes(("\n".join(log_lines) + "\n").encode("utf-8"))
    return 1 if dirty else 0


def _protocol_dict(cfg: ExperimentConfig) -> dict:
    return {
        "p_list": [float(p) for p in cfg.p_list],
        "kappa": cfg.kappa,
        "mesh_n": cfg.mesh_n,
        "tau_ladder": [float(t) for t in cfg.tau_ladder],
        "tau_ref": cfg.tau_ref,
        "horizon": cfg.horizon,
        "n_replicates": cfg.n_replicates,
        "master_seed": cfg.master_seed,
        "noise_mode": cfg.noise_mode,
        "phi": cfg.phi,
        "noise_components": cfg.noise_components,
        "sigma": cfg.sigma,
        "u0": cfg.u0,
        "grid_kind": cfg.grid_kind,
        "solver_tol": cfg.solver_tol,
        "clip_initial": cfg.clip_initial,
    }
