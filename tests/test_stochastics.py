"""Tests for Brownian paths, time grids, and the noise coefficient."""

import numpy as np
import pytest
from oracles import broken_embed
from scipy import stats

from splap.analysis import _path_layout
from splap.config import ExperimentConfig, sigma_function
from splap.fem import assemble
from splap.mesh import generate_unit_square
from splap.stochastics import (
    NoiseCoefficient,
    increment,
    make_noise_coefficient,
    mix_seed,
    noise_from_function,
    noise_load,
    random_time_grid,
    sample_path,
    standard_normals,
    uniform_time_grid,
)


def test_sample_path_deterministic_in_seed():
    a = sample_path(123, 1.0, 64, 2)
    b = sample_path(123, 1.0, 64, 2)
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(124, 1.0, 64, 2)
    assert not np.array_equal(a.increments, c.increments)


def test_sample_path_shapes_and_validation():
    p = sample_path(1, 2.0, 16, 3)
    assert p.increments.shape == (16, 3)
    assert p.finest_step == 2.0 / 16
    with pytest.raises(ValueError):
        sample_path(1, 1.0, 0, 1)
    with pytest.raises(ValueError):
        sample_path(1, -1.0, 8, 1)
    with pytest.raises(ValueError):
        sample_path(1, 1.0, 8, 0)


def test_terminal_value_moments():
    # W(T) over many seeds: mean within 4 SE of 0, variance within 5% of T
    horizon = 1.0
    n_seeds = 100_000
    w_t = np.array([increment(sample_path(s, horizon, 8, 1), 0, 8)[0] for s in range(n_seeds)])
    se = np.sqrt(horizon / n_seeds)
    assert abs(w_t.mean()) < 4.0 * se
    assert abs(w_t.var() - horizon) < 0.05 * horizon


def test_fine_increments_standard_normal():
    # KS statistic of normalized increments against N(0,1), 1e5 samples
    path = sample_path(77, 1.0, 100_000, 1)
    z = path.increments[:, 0] / np.sqrt(path.finest_step)
    stat = stats.kstest(z, "norm").statistic
    critical_1pct = 1.63 / np.sqrt(z.size)
    assert stat < critical_1pct


def test_standard_normals_deterministic():
    assert np.array_equal(standard_normals(5, 100), standard_normals(5, 100))
    assert not np.array_equal(standard_normals(5, 100), standard_normals(6, 100))


def test_increment_examples():
    path = sample_path(3, 1.0, 32, 2)
    assert np.array_equal(increment(path, 7, 7), np.zeros(2))
    total = increment(path, 0, 32)
    assert np.array_equal(total, path.increments.sum(axis=0))


def test_increment_additivity_bit_exact():
    # increment(a, c) equals increment(a, b) + increment(b, c) when the
    # summation order is identical; the implementation sums left to right
    rng = np.random.default_rng(10)
    for seed in range(50):
        path = sample_path(seed, 1.0, 64, 1)
        a, b, c = sorted(rng.integers(0, 65, size=3))
        left = increment(path, a, b)
        right = increment(path, b, c)
        manual = left.copy()
        for i in range(b, c):
            manual = manual + path.increments[i]
        assert np.array_equal(increment(path, a, c), manual)
        del right


def test_nested_sums_bit_exact():
    # coarse increments equal ordered sums of fine increments, bit for bit
    for seed in range(100):
        path = sample_path(seed, 1.0, 64, 1)
        for ratio in (2, 4, 8, 16):
            n_coarse = 64 // ratio
            for m in range(n_coarse):
                coarse = increment(path, m * ratio, (m + 1) * ratio)
                acc = np.zeros(1)
                for i in range(m * ratio, (m + 1) * ratio):
                    acc = acc + path.increments[i]
                assert np.array_equal(coarse, acc)


def test_increment_rejects_bad_indices():
    path = sample_path(1, 1.0, 8, 1)
    with pytest.raises(ValueError):
        increment(path, -1, 4)
    with pytest.raises(ValueError):
        increment(path, 0, 9)
    with pytest.raises(ValueError):
        increment(path, 5, 4)


def test_mix_seed_streams_distinct():
    master = 1
    seeds = {mix_seed(master, r) for r in range(10_000)}
    assert len(seeds) == 10_000
    assert mix_seed(2, 0) != mix_seed(1, 0)
    assert mix_seed(master, 7) == mix_seed(master, 7)


def test_uniform_grid_examples():
    g = uniform_time_grid(4, 1.0, 8)
    assert np.allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    assert np.array_equal(g.index, [0, 2, 4, 6, 8])
    assert g.n_steps == 4
    assert np.allclose(np.diff(g.points), 0.25)
    assert g.points[1] == 0.25


def test_uniform_grid_nesting():
    coarse = uniform_time_grid(4, 1.0, 16)
    fine = uniform_time_grid(16, 1.0, 16)
    # grids on one lattice nest by index and share each common point's float
    assert np.all(np.isin(coarse.index, fine.index))
    assert np.all(np.isin(coarse.points, fine.points))


def test_uniform_grid_validation():
    with pytest.raises(ValueError):
        uniform_time_grid(0, 1.0, 4)
    with pytest.raises(ValueError):
        uniform_time_grid(4, 0.0, 4)
    with pytest.raises(ValueError):
        uniform_time_grid(4, 1.0, 6)


def test_random_grid_deterministic_in_seed():
    a = random_time_grid(5, 8, 1.0, snap_to=64)
    b = random_time_grid(5, 8, 1.0, snap_to=64)
    assert np.array_equal(a.points, b.points)


def test_random_grid_single_step():
    # M = 1: single interior point in [T - T/4, T + T/4]
    for seed in range(200):
        g = random_time_grid(seed, 1, 1.0, snap_to=8)
        assert g.points.shape == (2,)
        assert 0.75 - 1e-12 <= g.points[1] <= 1.25 + 1e-12


def test_random_grid_requires_a_lattice():
    with pytest.raises(TypeError):
        random_time_grid(5, 8, 1.0)
    with pytest.raises(ValueError):
        random_time_grid(5, 8, 1.0, snap_to=12)


def test_random_grid_snapped_lands_on_lattice():
    # snapped grids live on the path lattice so increments stay exact sums
    n_lattice = 64
    for seed in range(100):
        g = random_time_grid(seed, 4, 1.0, snap_to=n_lattice)
        idx = g.points * n_lattice
        assert np.allclose(idx, np.rint(idx), atol=1e-9)
        tau = 1.0 / 4
        m = np.arange(1, 5)
        assert np.all(g.points[1:] >= m * tau - tau / 4 - 1e-12)
        assert np.all(g.points[1:] <= m * tau + tau / 4 + 1e-12)
    # the law at the lattice ratios the harness draws: with rho = n/M
    # lattice steps per tau, t_m is m tau plus a lattice offset uniform on
    # {-h, ..., h}, h = rho // 4, of variance h (h + 1) / 3 lattice steps
    # squared and fourth central moment (k^2 - 1)(3 k^2 - 7) / 240, k = 2h + 1
    cfg = ExperimentConfig(grid_kind="random")
    _, _, n_lattice = _path_layout(cfg)
    lattice_step = cfg.horizon / n_lattice
    n_grids = 5000
    for tau in cfg.tau_ladder:
        n_steps = int(round(cfg.horizon / tau))
        rho = n_lattice // n_steps
        h = rho // 4
        m = np.arange(1, n_steps + 1)
        points = np.empty((n_grids, n_steps))
        for seed in range(n_grids):
            g = random_time_grid(seed, n_steps, cfg.horizon, snap_to=n_lattice)
            steps = np.diff(g.points)
            assert np.all(steps >= tau / 2 - 1e-12)
            assert np.all(steps <= 3 * tau / 2 + 1e-12)
            points[seed] = g.points[1:]
        se = np.sqrt(h * (h + 1) / 3.0) * lattice_step / np.sqrt(n_grids)
        assert np.all(np.abs(points.mean(axis=0) - m * tau) < 4.0 * se), f"tau={tau}"
        offsets = np.rint(points / lattice_step) - m * rho
        var = h * (h + 1) / 3.0
        k = 2 * h + 1
        mu4 = (k * k - 1) * (3 * k * k - 7) / 240.0
        se_var = np.sqrt((mu4 - var * var * (n_grids - 3) / (n_grids - 1)) / n_grids)
        dev = np.abs(offsets.var(axis=0, ddof=1) - var)
        assert np.all(dev < 4.0 * se_var), f"tau={tau}: variance off by {dev.max():.3g} (4 SE = {4 * se_var:.3g})"


def test_noise_coefficient_validation():
    values = np.ones((8, 1))
    phi = make_noise_coefficient(values)
    assert phi.mode == "additive"
    assert phi.n_components == 1
    with pytest.raises(ValueError):
        make_noise_coefficient(np.full((8, 1), np.nan))
    with pytest.raises(ValueError):
        make_noise_coefficient(values, mode="bogus")
    with pytest.raises(ValueError):
        make_noise_coefficient(values, mode="multiplicative")  # sigma required


def test_noise_from_function_radial():
    # |x|^{-1/2} at barycenters: finite and positive away from the origin
    m = generate_unit_square(32)
    phi = noise_from_function(m, lambda x, y: (x * x + y * y) ** -0.25)
    assert phi.values.shape == (m.n_simplices, 1)
    assert np.all(np.isfinite(phi.values))
    assert np.all(phi.values > 0.0)


def test_noise_load_zero_increment():
    m = generate_unit_square(3)
    ops = assemble(m)
    phi = noise_from_function(m, lambda x, y: 1.0 + x)
    rng = np.random.default_rng(8)
    state = rng.standard_normal(m.n_vertices)
    out = noise_load(ops, phi, state, np.zeros(1))
    assert np.array_equal(out, broken_embed(ops, state))


def test_noise_load_additive_example():
    # state 0, phi = 1, dW = 0.5: every broken coefficient is 0.5
    m = generate_unit_square(2)
    ops = assemble(m)
    phi = make_noise_coefficient(np.ones((m.n_simplices, 1)))
    out = noise_load(ops, phi, np.zeros(m.n_vertices), np.array([0.5]))
    assert np.all(out == 0.5)


def test_noise_load_multiplicative_nodewise():
    m = generate_unit_square(2)
    ops = assemble(m)
    phi = make_noise_coefficient(
        2.0 * np.ones((m.n_simplices, 1)), mode="multiplicative", sigma=lambda v: v
    )
    rng = np.random.default_rng(12)
    state = rng.standard_normal(m.n_vertices)
    dw = np.array([0.25])
    out = noise_load(ops, phi, state, dw)
    base = broken_embed(ops, state)
    assert np.allclose(out, base + 2.0 * 0.25 * base, rtol=1e-14)


def test_noise_load_multiplicative_constant_sigma():
    # the config's constant form scales every broken node alike
    m = generate_unit_square(3)
    ops = assemble(m)
    values = np.random.default_rng(22).uniform(0.5, 2.0, size=(m.n_simplices, 2))
    phi = make_noise_coefficient(values, mode="multiplicative", sigma=sigma_function("0.5"))
    state = np.random.default_rng(23).standard_normal(m.n_vertices)
    dw = np.array([0.25, -0.5])
    out = noise_load(ops, phi, state, dw)
    amp = np.repeat(values @ dw, 3)
    np.testing.assert_array_equal(out, broken_embed(ops, state) + 0.5 * amp)


def test_noise_load_rejects_a_shape_breaking_sigma():
    m = generate_unit_square(2)
    ops = assemble(m)
    values = np.ones((m.n_simplices, 1))
    for sigma in (lambda v: float(np.sum(v)), lambda v: v[:-1], lambda v: v[:, None]):
        phi = NoiseCoefficient(values=values, mode="multiplicative", sigma=sigma)
        with pytest.raises(ValueError, match="sigma maps"):
            noise_load(ops, phi, np.ones(m.n_vertices), np.array([0.5]))


def test_noise_load_dimension_checks():
    m = generate_unit_square(2)
    ops = assemble(m)
    phi = make_noise_coefficient(np.ones((m.n_simplices, 1)))
    with pytest.raises(ValueError):
        noise_load(ops, phi, np.zeros(m.n_vertices + 2), np.zeros(1))
    with pytest.raises(ValueError):
        noise_load(ops, phi, np.zeros(m.n_vertices), np.zeros(2))
