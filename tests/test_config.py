"""Tests for experiment configuration parsing, validation, and echo."""

import re
from pathlib import Path

import numpy as np
import pytest

from splap.config import (
    _KEYMAP,
    ConfigError,
    ExperimentConfig,
    echo_config,
    parse_config,
    parse_number,
    phi_function,
    regression_taus,
    sigma_function,
    validate_config,
)


def test_defaults_follow_full_protocol():
    cfg = ExperimentConfig()
    assert cfg.p_list == (1.1, 1.2, 1.5, 2.5)
    assert cfg.mesh_n == 32
    assert cfg.tau_ladder == (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    assert cfg.tau_ref == 0.03125
    assert cfg.horizon == 1.0
    assert cfg.n_replicates == 100
    assert cfg.noise_mode == "additive"
    assert cfg.phi == "|x|^-1/2"
    assert cfg.u0 == 1.0
    assert cfg.grid_kind == "deterministic"
    validate_config(cfg)


def test_empty_source_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_parse_number_forms():
    assert parse_number("1/32") == 1.0 / 32.0
    assert parse_number("0.25") == 0.25
    assert parse_number("3") == 3.0
    with pytest.raises(ValueError):
        parse_number("1/0")
    with pytest.raises(ValueError):
        parse_number("abc")


def test_parse_config_keys_and_fractions():
    cfg = parse_config(
        """
        # comment line
        p_list = 1.5, 2.5
        mesh_n = 8
        tau_ladder = 1/2, 1/4
        tau_ref = 1/8
        n_r = 7
        T = 2
        master_seed = 42
        """
    )
    assert cfg.p_list == (1.5, 2.5)
    assert cfg.mesh_n == 8
    assert cfg.tau_ladder == (0.5, 0.25)
    assert cfg.tau_ref == 0.125
    assert cfg.n_replicates == 7
    assert cfg.horizon == 2.0
    assert cfg.master_seed == 42


def test_parse_config_rejects_unknown_key():
    # the energy has one formulation, the Euclidean one, and no key for it
    for text, key in (
        ("not_a_key = 3\n", "not_a_key"),
        ("formulation = componentwise\n", "formulation"),
        ("formulation = euclidean\n", "formulation"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert repr(key) in str(err.value)


def test_readme_key_list_matches_config():
    # the README's key list under "Running an experiment" names every
    # config key, in the order of the config module's table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Running an experiment", 1)[1].split("\n## ", 1)[0]
    listed = section.split("for the authoritative table):", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == list(_KEYMAP)


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("mesh_n = 4\nmesh_n = 8\n")
    assert "mesh_n" in str(err.value)


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError):
        parse_config("mesh_n 4\n")


def test_validate_rejects_non_multiple_tau_ref():
    # parsing validates eagerly, so the error surfaces right away
    with pytest.raises(ConfigError) as err:
        parse_config("tau_ref = 1/24\n")
    assert "multiple of tau_ref" in str(err.value)


def test_validate_rejects_bad_entries():
    for text in (
        "p_list = 1.0\n",
        "mesh_n = 0\n",
        "kappa = -1\n",
        "tau_ladder = 0.3\n",
        "n_r = 0\n",
        "solver_tol = 0\n",
        "grid_kind = sideways\n",
        "noise_mode = bogus\n",
        "T = -1\n",
    ):
        with pytest.raises(ConfigError):
            validate_config(parse_config(text))


def test_validate_rejects_tau_above_horizon():
    with pytest.raises(ConfigError):
        parse_config("tau_ladder = 2, 1\nT = 1\n")


def test_regression_taus_default_excludes_endpoints():
    # entries strictly between the reference step and the horizon
    cfg = ExperimentConfig()
    assert regression_taus(cfg) == (0.5, 0.25, 0.125, 0.0625)


def test_regression_taus_explicit_override():
    cfg = parse_config("fit_taus = 1/2, 1/4\n")
    assert regression_taus(cfg) == (0.5, 0.25)


def test_echo_round_trip():
    cfg = parse_config("mesh_n = 8\ntau_ladder = 1/2, 1/4\ntau_ref = 1/8\nphi = 2.5\n")
    echoed = echo_config(cfg)
    assert echoed.endswith("\n")
    assert parse_config(echoed) == cfg
    # echo of defaults round-trips as well
    assert parse_config(echo_config(ExperimentConfig())) == ExperimentConfig()


def test_phi_function_radial_power():
    fn = phi_function("|x|^-1/2")
    assert np.isclose(fn(3.0, 4.0), 5.0**-0.5, rtol=1e-14)
    fn2 = phi_function("|x|^(-1/2)")
    assert np.isclose(fn2(1.0, 0.0), 1.0, rtol=1e-14)


def test_phi_function_constant():
    fn = phi_function("0.75")
    assert fn(0.3, 0.9) == 0.75
    zero = phi_function("0")
    assert zero(1.0, 1.0) == 0.0


def test_phi_function_rejects_garbage():
    with pytest.raises(ConfigError):
        phi_function("exp(x)")


def test_sigma_function_forms():
    ident = sigma_function("u")
    assert ident(2.5) == 2.5
    const = sigma_function("1.5")
    assert const(99.0) == 1.5
    with pytest.raises(ConfigError):
        sigma_function("u^3")


def test_validate_random_grid_needs_lattice_headroom():
    cfg = parse_config("grid_kind = random\n")
    validate_config(cfg)
