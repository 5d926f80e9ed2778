"""End-to-end tests for experiment orchestration, artifacts, and the CLI."""

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import splap
from splap.cli import main
from splap.config import ExperimentConfig, parse_config, regression_taus
from splap.experiment import (
    CSV_HEADER,
    read_results_csv,
    run_experiment,
    summarize_table,
)

SMOKE = """
p_list = 1.5, 2.5
mesh_n = 8
tau_ladder = 1/2, 1/4, 1/8
tau_ref = 1/16
n_r = 5
"""

ARTIFACTS = ("results.csv", "summary.json", "config.echo", "run.log")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    cfg = dataclasses.replace(parse_config(SMOKE), workers=1)
    status = run_experiment(cfg, out_dir=str(out))
    return cfg, out, status


def test_summarize_table_rate_aggregation():
    taus = np.array([0.5, 0.25, 0.125, 0.0625])
    rng = np.random.default_rng(1)
    per_rep = np.array([2.0 * taus**1.1 for _ in range(12)]) * np.exp(
        0.05 * rng.standard_normal((12, 1))
    )
    out = summarize_table(taus, per_rep, per_rep, per_rep, taus, 1.0 / 32.0)
    assert abs(out["a_tilde"] - 1.1) <= 0.05
    assert out["alpha"] == out["a_corrected"] / 2.0
    assert out["a_corrected"] < out["a_tilde"]
    assert out["n_replicates_ok"] == 12
    assert abs(out["replicate_slope_mean"] - 1.1) <= 1e-6
    assert out["replicate_slope_std"] < 1e-6


def test_smoke_run_emits_all_artifacts(smoke_run):
    # pipeline liveness: the run completes and writes every artifact;
    # at this tiny scale the biased slope can sit below the invertible
    # range of the bias relation, which the exit status then reports
    cfg, out, status = smoke_run
    for name in ARTIFACTS:
        assert (out / name).is_file(), name
    assert (out / "fig_p1.5.svg").is_file()
    assert (out / "fig_p2.5.svg").is_file()
    summary = json.loads((out / "summary.json").read_text())
    clean = all(
        block["fit_error"] is None and block["correction_error"] is None and not block["failures"]
        for block in summary["per_p"].values()
    )
    assert status == (0 if clean else 1)


def test_csv_layout(smoke_run):
    _, out, _ = smoke_run
    text = (out / "results.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    # one row per (p, replicate, tau)
    assert len(lines) == 1 + 2 * 5 * 3
    # rows are sorted by p, then replicate, then descending tau
    cols = [line.split(",") for line in lines[1:]]
    keys = [(float(c[0]), int(c[2]), -float(c[1])) for c in cols]
    assert keys == sorted(keys)


def test_summary_recomputable_from_csv(smoke_run):
    cfg, out, _ = smoke_run
    summary = json.loads((out / "summary.json").read_text())
    tables = read_results_csv((out / "results.csv").read_text())
    fit = regression_taus(cfg)
    for p_key, block in summary["per_p"].items():
        data = tables[float(p_key)]
        redo = summarize_table(
            taus=np.asarray(data["taus"]),
            totals=np.asarray(data["totals"]),
            max_l2=np.asarray(data["max_l2"]),
            quasi=np.asarray(data["quasi"]),
            fit_taus=fit,
            tau_tilde=cfg.tau_ref,
        )
        stored = {k: v for k, v in block.items() if k != "failures"}
        assert block["failures"] == []
        assert redo == stored


def test_config_echo_parses_back(smoke_run):
    # the echo names the directory the run wrote, not cfg.out_dir
    cfg, out, _ = smoke_run
    echoed = parse_config((out / "config.echo").read_text())
    assert echoed == dataclasses.replace(cfg, out_dir=str(out))


def test_run_log_is_json_lines(smoke_run):
    _, out, _ = smoke_run
    lines = (out / "run.log").read_text().strip().split("\n")
    assert lines
    records = [json.loads(line) for line in lines]
    for rec in records:
        assert isinstance(rec, dict)
    events = [rec["event"] for rec in records if "event" in rec]
    assert events.count("rates") == 2
    assert events[-1] == "done"
    assert records[-1]["exit_status"] in (0, 1)
    # per-cell solver records tag p, replicate, and the time step
    cells = [rec for rec in records if "newton_iterations" in rec]
    assert cells and all({"p", "replicate", "tau"} <= rec.keys() for rec in cells)


def test_figures_are_valid_svg(smoke_run):
    _, out, _ = smoke_run
    for name in ("fig_p1.5.svg", "fig_p2.5.svg"):
        root = ET.fromstring((out / name).read_text())
        assert root.tag.endswith("svg")
        body = ET.tostring(root, encoding="unicode")
        assert "polyline" in body
        assert "text" in body


def test_reruns_are_byte_identical(tmp_path):
    cfg = parse_config("p_list = 1.5\nmesh_n = 4\ntau_ladder = 1/2, 1/4\ntau_ref = 1/8\nn_r = 3\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(dataclasses.replace(cfg, workers=1), out_dir=str(a)) in (0, 1)
    assert run_experiment(dataclasses.replace(cfg, workers=2), out_dir=str(b)) in (0, 1)
    for name in ("results.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the echo records the worker count the run used
    for out, workers in ((a, 1), (b, 2)):
        assert parse_config((out / "config.echo").read_text()).workers == workers


def test_zero_noise_std_columns(tmp_path):
    cfg = parse_config(
        "p_list = 2.5\nmesh_n = 4\ntau_ladder = 1/2, 1/4\ntau_ref = 1/8\nn_r = 3\nphi = 0\n"
    )
    assert run_experiment(dataclasses.replace(cfg, workers=1), out_dir=str(tmp_path / "z")) in (0, 1)
    summary = json.loads((tmp_path / "z" / "summary.json").read_text())
    stds = summary["per_p"]["2.5"]["E_std"]
    assert all(s == 0.0 for s in stds)


def test_unfittable_mean_curve_keeps_the_run(tmp_path):
    # multiplicative noise from u0 = 0 keeps u = 0: every error is zero, so
    # no slope can be fitted; the run still writes every artifact, records
    # why in the exponent's block, and exits 1
    cfg = parse_config("p_list = 2.5\nmesh_n = 4\nnoise_mode = multiplicative\nu0 = 0\nn_r = 2\n")
    out = tmp_path / "zero"
    assert run_experiment(dataclasses.replace(cfg, workers=1), out_dir=str(out)) == 1
    for name in ARTIFACTS + ("fig_p2.5.svg",):
        assert (out / name).is_file(), name
    block = json.loads((out / "summary.json").read_text())["per_p"]["2.5"]
    assert block["fit_error"] == "ValueError: fit_rate needs at least two positive data points"
    assert block["a_tilde"] is None and block["log_c"] is None and block["alpha"] is None
    assert block["correction_error"] is None and block["failures"] == []
    assert all(v == 0.0 for v in block["E_mean"])
    data = read_results_csv((out / "results.csv").read_text())[2.5]
    redo = summarize_table(
        data["taus"], data["totals"], data["max_l2"], data["quasi"], regression_taus(cfg), cfg.tau_ref
    )
    assert redo == {k: v for k, v in block.items() if k != "failures"}
    assert json.loads((out / "run.log").read_text().strip().split("\n")[-1])["exit_status"] == 1
    ET.fromstring((out / "fig_p2.5.svg").read_text())


def test_summary_protocol_block(smoke_run):
    cfg, out, _ = smoke_run
    summary = json.loads((out / "summary.json").read_text())
    proto = summary["protocol"]
    assert proto["mesh_n"] == 8
    assert proto["n_replicates"] == 5
    assert proto["tau_ref"] == cfg.tau_ref
    assert "workers" not in proto


def test_cli_validate_ok(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(SMOKE)
    assert main(["validate", "--config", str(cfg_file)]) == 0
    # validate prints the canonical echo, which parses back
    echoed = capsys.readouterr().out
    assert parse_config(echoed) == parse_config(SMOKE)


def test_cli_validate_bad_config(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("mesh_n = -2\n")
    assert main(["validate", "--config", str(cfg_file)]) == 2
    assert "mesh_n" in capsys.readouterr().err


def test_cli_missing_file_exit_code(capsys):
    assert main(["validate", "--config", "/nonexistent/path.cfg"]) == 2
    capsys.readouterr()


def test_cli_run_and_plot(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "p_list = 2.5\nmesh_n = 4\ntau_ladder = 1/2, 1/4\ntau_ref = 1/8\nn_r = 2\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), "--out", str(out), "--workers", "1"]) in (0, 1)
    capsys.readouterr()
    fig = out / "fig_p2.5.svg"
    original = fig.read_bytes()
    fig.unlink()
    assert main(["plot", "--csv", str(out / "results.csv")]) == 0
    capsys.readouterr()
    assert fig.read_bytes() == original


def test_cli_plot_needs_the_run_summary(tmp_path, capsys):
    # the fit steps and the reference step come only from the run's
    # summary.json; without it plot draws nothing
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("p_list = 2.5\nmesh_n = 2\ntau_ladder = 1/2, 1/4, 1/8\ntau_ref = 1/8\nn_r = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), "--out", str(out), "--workers", "1"]) in (0, 1)
    (out / "summary.json").unlink()
    (out / "fig_p2.5.svg").unlink()
    capsys.readouterr()
    assert main(["plot", "--csv", str(out / "results.csv")]) == 2
    assert "summary.json" in capsys.readouterr().err
    assert not (out / "fig_p2.5.svg").exists()


@pytest.mark.parametrize(
    "edit, cell",
    [
        # a replicate without its tau = 1/4 row
        (lambda rows: [r for r in rows if not r.startswith("2.5,0.25,1,")], "tau=0.25, replicate 1"),
        # a second row for a cell, with another value
        (lambda rows: rows + ["2.5,0.5,0,1.0,1.0,1.0"], "tau=0.5, replicate 0"),
    ],
    ids=["missing-row", "repeated-row"],
)
def test_cli_plot_rejects_a_malformed_table(tmp_path, capsys, edit, cell):
    # a table with a hole or with two values for one cell draws no figure
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("p_list = 2.5\nmesh_n = 2\ntau_ladder = 1/2, 1/4\ntau_ref = 1/8\nn_r = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), "--out", str(out), "--workers", "1"]) in (0, 1)
    csv = out / "results.csv"
    header, *rows = csv.read_text().splitlines()
    csv.write_text("\n".join([header, *edit(rows)]) + "\n")
    (out / "fig_p2.5.svg").unlink()
    capsys.readouterr()
    assert main(["plot", "--csv", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "cannot read results" in err and f"p=2.5, {cell}" in err
    assert not (out / "fig_p2.5.svg").exists()


def test_cli_workers_flag_is_validated_like_the_key(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("p_list = 2.5\nmesh_n = 2\ntau_ladder = 1/2, 1/4, 1/8\ntau_ref = 1/8\nn_r = 1\n")
    key_file = tmp_path / "key.cfg"
    key_file.write_text(cfg_file.read_text() + "workers = -3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(key_file), "--out", str(out)]) == 2
    assert "workers" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg_file), "--out", str(out), "--workers", "-3"]) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_dir_that_cannot_be_created_is_bad_usage(tmp_path, capsys):
    # a regular file where the output directory should go fails before
    # any replicate runs, with the path in the message
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("p_list = 2.5\nmesh_n = 2\ntau_ladder = 1/2, 1/4, 1/8\ntau_ref = 1/8\nn_r = 1\n")
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert main(["run", "--config", str(cfg_file), "--out", str(afile), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err and str(afile) in err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("out_name", ["x#y", "x\ny", "x\ry"])
def test_cli_out_dir_the_echo_cannot_carry_is_bad_usage(tmp_path, capsys, out_name):
    # config.echo is key = value lines with # comments: an out_dir with a
    # # or a line break would parse back as another directory
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("p_list = 2.5\nmesh_n = 2\ntau_ladder = 1/2, 1/4, 1/8\ntau_ref = 1/8\nn_r = 1\n")
    out = tmp_path / out_name
    assert main(["run", "--config", str(cfg_file), "--out", str(out), "--workers", "1"]) == 2
    assert "out_dir" in capsys.readouterr().err
    assert not out.exists()


def test_cli_seed_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("p_list = 1.5\nmesh_n = 4\ntau_ladder = 1/2, 1/4\ntau_ref = 1/8\nn_r = 2\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_file), "--out", str(a), "--workers", "1"]) in (0, 1)
    assert main(
        ["run", "--config", str(cfg_file), "--out", str(b), "--workers", "1", "--seed", "99"]
    ) in (0, 1)
    assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()


def test_a_run_loads_neither_special_functions_nor_csgraph(tmp_path):
    # splap computes the inverse normal CDF and the band order itself, so
    # a fresh process that runs an experiment never pays for importing
    # scipy.special or scipy.sparse.csgraph, nor for the
    # scipy.sparse.linalg that csgraph drags in
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("p_list = 1.5\nmesh_n = 4\ntau_ladder = 1/2, 1/4\ntau_ref = 1/8\nn_r = 2\n")
    script = (
        "import sys\n"
        "from splap.cli import main\n"
        f"status = main(['run', '--config', {str(cfg_file)!r}, '--out', {str(tmp_path / 'out')!r}, '--workers', '1'])\n"
        "heavy = ('scipy.special', 'scipy.sparse.csgraph', 'scipy.sparse.linalg')\n"
        "print(status, sorted(m for m in sys.modules if any(m == h or m.startswith(h + '.') for h in heavy)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(splap.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() in ("0 []", "1 []")
