"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line naming the criterion it
gates, on top of the usual pytest verdict.  The two protocol-scale
criteria (rate brackets, worker-count determinism) share one
module-scoped pair of experiment runs and dominate the runtime of this
file: a few minutes on two cores.

The rate gate runs ``DESK_PROTOCOL``: p in {1.1, 1.5, 2.5} on mesh 16
with 30 replicates, horizon T = 1/4, ladder 1/8 ... 1/64 and a 1/128
reference, i.e. trajectories of 2, 4, 8 and 16 steps against a 32-step
reference.  Its verdict is a 95% percentile bootstrap over replicates:
for every exponent the interval of the biased slope ``a_tilde`` must
meet [1.0, 1.6] and the interval of the corrected ``alpha`` must meet
[0.30, 0.60].  With 30 replicates a point estimate scatters about as
widely as those brackets, so a point verdict would turn on the seed.

The horizon is what puts the ladder in the asymptotic regime.  The
first discrete Dirichlet eigenvalue on the unit square is 19.9, so on
T = 1 the steps 1/2 and 1/4 have lambda_1 * tau >= 5: one implicit step
already damps the smooth modes to nothing, the coarse error saturates
at the size of the reference solution itself, and a log-log fit of
1/2 ... 1/16 measures that flat top instead of the rate (the exact
p = 2 curve there gives a_tilde = 0.879 and alpha = 0.119 with no
sampling noise at all).  ``test_desk_protocol_exact_p2_rates`` keeps
the protocol out of that range, and ``test_exact_p2_expectation_oracle``
shows that the Monte-Carlo pipeline reproduces the exact p = 2
expectation it relies on.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import restriction, stiffness, tensor_s_rows

from splap.analysis import (
    CorrectionError,
    _path_layout,
    bias,
    corrected_rate,
    fit_rate,
    monte_carlo_estimate,
    path_error,
)
from splap.config import ExperimentConfig, parse_config, phi_function, regression_taus
from splap.constitutive import GrowthParams, tensor_f_rows
from splap.experiment import read_results_csv, run_experiment
from splap.fem import assemble
from splap.mesh import generate_unit_square
from splap.psolver import StepProblem, gradient, objective, solve_step
from splap.stepper import SchemeConfig, Trajectory, run_trajectory
from splap.stochastics import (
    increment,
    make_noise_coefficient,
    noise_from_function,
    noise_load,
    random_time_grid,
    sample_path,
    uniform_time_grid,
)


def _verdict(criterion: str, failures: list) -> None:
    print(f"[{'PASS' if not failures else 'FAIL'}] {criterion}")
    assert not failures, f"{criterion}: " + "; ".join(str(f) for f in failures)


def _random_problem(rng, n, p, tau):
    ops = assemble(generate_unit_square(n))
    forcing = rng.standard_normal(3 * ops.n_simplices)
    return StepProblem(ops=ops, params=GrowthParams(p), tau_m=tau, forcing=forcing)


def _linear_oracle(prob):
    """Direct sparse solve of (P + tau A) u = load on interior unknowns."""
    ops = prob.ops
    r = restriction(ops)
    system = sp.csc_matrix(r @ (ops.mass + prob.tau_m * stiffness(ops)) @ r.T)
    return spla.spsolve(system, r @ prob.load)


def test_linear_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(1)
    # isolated steps with random broken forcing
    for trial in range(5):
        prob = _random_problem(rng, n=16, p=2.0, tau=1.0 / 16)
        expected = _linear_oracle(prob)
        u, _ = solve_step(prob, np.zeros_like(expected), tol=1e-11)
        rel = np.linalg.norm(u - expected) / np.linalg.norm(expected)
        if rel > 1e-8:
            failures.append(f"step trial {trial}: rel={rel:.3e}")

    # a full 16-step trajectory with radial additive noise
    mesh = generate_unit_square(16)
    ops = assemble(mesh)
    bary = mesh.vertices[mesh.simplices].mean(axis=1)
    noise = make_noise_coefficient(
        (1.0 / np.sqrt(np.linalg.norm(bary, axis=1)))[:, None]
    )
    path = sample_path(7, 1.0, 16, 1)
    grid = uniform_time_grid(16, 1.0, 16)
    cfg = SchemeConfig(
        ops=ops,
        params=GrowthParams(2.0),
        grid=grid,
        noise=noise,
        path=path,
        initial=np.ones(ops.n_vertices),
        solver_tol=1e-11,
    )
    traj = run_trajectory(cfg)
    r = restriction(ops)
    tau = grid.points[1]
    system = sp.csc_matrix(r @ (ops.mass + tau * stiffness(ops)) @ r.T)
    u = cfg.initial.copy()
    for m in range(1, 17):
        d_w = increment(path, m - 1, m)
        # the oracle chain advances from its own previous state
        forcing = noise_load(ops, noise, u, d_w)
        prob = StepProblem(ops=ops, params=GrowthParams(2.0), tau_m=tau, forcing=forcing)
        u = r.T @ spla.spsolve(system, r @ prob.load)
        # each scheme step, restarted from the scheme's own state, must
        # match the direct solve at step accuracy
        forcing_s = noise_load(ops, noise, traj.states[m - 1], d_w)
        prob_s = StepProblem(ops=ops, params=GrowthParams(2.0), tau_m=tau, forcing=forcing_s)
        step_ref = r.T @ spla.spsolve(system, r @ prob_s.load)
        rel_step = np.linalg.norm(traj.states[m] - step_ref) / np.linalg.norm(step_ref)
        if rel_step > 1e-8:
            failures.append(f"trajectory step {m}: rel={rel_step:.3e}")
        rel_path = np.linalg.norm(traj.states[m] - u) / np.linalg.norm(u)
        if rel_path > 1e-7:
            failures.append(f"trajectory state {m}: rel={rel_path:.3e}")
    _verdict("linear-oracle equivalence", failures)


def test_gradient_correctness():
    failures = []
    rng = np.random.default_rng(2)
    combos = [(p, eps) for p in (1.1, 1.5, 2.5, 4.0) for eps in (1e-2, 1e-4)]
    h = 1e-6
    for k in range(50):
        p, eps = combos[k % len(combos)]
        prob = _random_problem(rng, n=4, p=p, tau=0.15)
        n_i = prob.ops.n_interior
        u = 0.5 * rng.standard_normal(n_i)
        g = gradient(prob, u, eps=eps)
        for i in range(n_i):
            e = np.zeros(n_i)
            e[i] = h
            fd = (objective(prob, u + e, eps=eps) - objective(prob, u - e, eps=eps)) / (2 * h)
            if not np.isclose(g[i], fd, rtol=1e-5, atol=1e-9):
                failures.append(f"problem {k} (p={p}, eps={eps}) coord {i}: {g[i]!r} vs {fd!r}")
    _verdict("gradient correctness", failures)


def test_brute_force_optimizer_oracle():
    failures = []
    ops = assemble(generate_unit_square(2))
    for p in (1.1, 1.5, 2.5):
        rng = np.random.default_rng(int(100 * p))
        for trial in range(20):
            forcing = rng.standard_normal(3 * ops.n_simplices)
            prob = StepProblem(ops=ops, params=GrowthParams(p), tau_m=0.3, forcing=forcing)
            u, _ = solve_step(prob, np.zeros(1), tol=1e-12)
            center = float(u[0])
            radius = max(1.0, abs(center))
            grid = np.linspace(center - radius, center + radius, 2001)
            for _ in range(3):
                vals = [objective(prob, np.array([x])) for x in grid]
                best = grid[int(np.argmin(vals))]
                radius /= 500.0
                grid = np.linspace(best - radius, best + radius, 2001)
            if abs(center - best) > 1e-6:
                failures.append(f"p={p} trial {trial}: |{center!r} - {best!r}| > 1e-6")
    _verdict("brute-force optimizer oracle", failures)


def test_quasi_distance_pairing_equivalence():
    failures = []
    lo, hi = 1e-2, 1e2
    for p in (1.1, 1.5, 2.5, 4.0):
        for kappa in (0.0, 1.0):
            params = GrowthParams(p, kappa=kappa)
            rng = np.random.default_rng(int(1000 * p + kappa))
            worst = (np.inf, 0.0)
            for _ in range(10**4):
                scale = 10.0 ** rng.uniform(-2.0, 2.0)
                xi = scale * rng.standard_normal((2, 2))
                eta = scale * rng.standard_normal((2, 2))
                # a matrix flattened to a row keeps its Frobenius norm
                x, e = xi.reshape(1, -1), eta.reshape(1, -1)
                df = tensor_f_rows(x, params) - tensor_f_rows(e, params)
                ds = tensor_s_rows(x, params) - tensor_s_rows(e, params)
                q = float(np.sum(df * df))
                m = float(np.sum(ds * (x - e)))
                if m < 0.0:
                    failures.append(f"p={p} kappa={kappa}: pairing {m!r} < 0")
                    break
                ratio = q / m
                worst = (min(worst[0], ratio), max(worst[1], ratio))
            if not (lo <= worst[0] and worst[1] <= hi):
                failures.append(f"p={p} kappa={kappa}: ratio range {worst} leaves [{lo}, {hi}]")
    _verdict("quasi-distance/pairing equivalence", failures)


def test_bias_formula():
    failures = []
    if bias(0.5, 1.0 / 32, 1.0) != float(Fraction(16, 15)):
        failures.append(f"bias(1/2, 1/32, 1) = {bias(0.5, 1.0/32, 1.0)!r} != 16/15")

    taus = [0.5, 0.25, 0.125, 0.0625]
    tau_tilde = 1.0 / 32
    a0 = 0.7
    measured = a0 * np.mean([bias(t, tau_tilde, a0) for t in taus])
    a_round, _ = corrected_rate(measured, taus, tau_tilde)
    if abs(a_round - a0) > 1e-8:
        failures.append(f"roundtrip a0=0.7 -> {a_round!r}")

    a_pub, alpha_pub = corrected_rate(1.3, taus, tau_tilde)
    if not 0.86 <= a_pub <= 0.90:
        failures.append(f"inverting 1.3 gives a={a_pub!r} outside [0.86, 0.90]")
    if not 0.43 <= alpha_pub <= 0.45:
        failures.append(f"inverting 1.3 gives alpha={alpha_pub!r} outside [0.43, 0.45]")
    if alpha_pub != a_pub / 2.0:
        failures.append("alpha is not a/2")
    _verdict("bias formula", failures)


def test_regression_exactness():
    failures = []
    taus = np.array([0.5, 0.25, 0.125, 0.0625])
    for a in (0.3, 0.88, 1.3, 2.0):
        fit = fit_rate(taus, 3.7 * taus**a)
        if abs(fit.a - a) > 1e-10:
            failures.append(f"a={a}: recovered {fit.a!r}")
    _verdict("regression exactness", failures)


def test_nested_noise_exactness():
    failures = []
    n_fine = 64
    for seed in range(100):
        path = sample_path(seed, 1.0, n_fine, 2)
        for ratio in (2, 4, 8, 16):
            for k in range(n_fine // ratio):
                coarse = increment(path, k * ratio, (k + 1) * ratio)
                total = np.zeros(path.n_components)
                for j in range(k * ratio, (k + 1) * ratio):
                    total = total + path.increments[j]
                if not np.array_equal(coarse, total):
                    failures.append(f"seed {seed} ratio {ratio} window {k}")
    _verdict("nested-noise exactness", failures)


def test_random_grid_law():
    # the grids the experiment draws: on the default random protocol's
    # lattice, where tau spans rho = n_lattice / M lattice steps
    failures = []
    n_grids = 10**5
    m_steps = 8
    tau = 1.0 / m_steps
    _, _, n_lattice = _path_layout(ExperimentConfig(grid_kind="random"))
    h = (n_lattice // m_steps) // 4
    sums = np.zeros(m_steps - 1)
    targets = tau * np.arange(1, m_steps)
    for seed in range(n_grids):
        pts = random_time_grid(seed, m_steps, 1.0, snap_to=n_lattice).points
        inner = pts[1:-1]
        if np.any(np.abs(inner - targets) > tau / 4):
            failures.append(f"seed {seed}: grid point outside its window")
            break
        steps = np.diff(pts)
        if np.any(steps < tau / 2) or np.any(steps > 3 * tau / 2):
            failures.append(f"seed {seed}: step outside [tau/2, 3tau/2]")
            break
        sums += inner
    if not failures:
        # each interior point is uniform on the 2h + 1 lattice points of its
        # window, of variance h (h + 1) / 3 lattice steps squared
        se = np.sqrt(h * (h + 1) / 3.0) / n_lattice / np.sqrt(n_grids)
        dev = np.abs(sums / n_grids - targets)
        if np.any(dev > 4 * se):
            failures.append(f"empirical means deviate {dev!r} (4 SE = {4 * se:.3e})")
    _verdict("random-grid law", failures)


def test_mesh_halving_reduces_quasinorm_error():
    # order-h^2 check on the linear configuration: trajectories at one
    # fixed small step on meshes 8 and 16, both lifted onto the nested
    # mesh-64 trajectory of the same grid and path
    def halve(u, n):
        g = u.reshape(n + 1, n + 1)
        f = np.empty((2 * n + 1, 2 * n + 1))
        f[0::2, 0::2] = g
        f[0::2, 1::2] = 0.5 * (g[:, :-1] + g[:, 1:])
        f[1::2, 0::2] = 0.5 * (g[:-1, :] + g[1:, :])
        # cell centers average along the split diagonal of each square
        f[1::2, 1::2] = 0.5 * (g[:-1, :-1] + g[1:, 1:])
        return f.ravel()

    def lift(u, n_from, n_to):
        n = n_from
        while n < n_to:
            u = halve(u, n)
            n *= 2
        return u

    horizon = 0.25
    grid = uniform_time_grid(32, horizon, 32)
    path = sample_path(0, horizon, 32, 1)
    params = GrowthParams(2.0)
    trajs = {}
    for n in (8, 16, 64):
        mesh = generate_unit_square(n)
        ops = assemble(mesh)
        initial = np.sin(np.pi * mesh.vertices[:, 0]) * np.sin(np.pi * mesh.vertices[:, 1])
        cfg = SchemeConfig(
            ops=ops,
            params=params,
            grid=grid,
            noise=make_noise_coefficient(np.zeros((mesh.n_simplices, 1))),
            path=path,
            initial=initial,
        )
        trajs[n] = run_trajectory(cfg)
    ops_fine = assemble(generate_unit_square(64))
    quasi = {}
    for n in (8, 16):
        lifted = np.array([lift(state, n, 64) for state in trajs[n].states])
        as_fine = Trajectory(states=lifted, grid=grid, reports=[])
        quasi[n] = path_error(as_fine, trajs[64], ops_fine, params).quasi_sum
    ratio = quasi[8] / quasi[16]
    failures = [] if 3.0 <= ratio <= 5.0 else [f"quasi_sum ratio {ratio!r} outside [3, 5]"]
    _verdict("mesh halving reduces the quasinorm error by ~4x", failures)


A_TILDE_BRACKET = (1.0, 1.6)
ALPHA_BRACKET = (0.30, 0.60)


def _exact_p2_quasi(cfg):
    """Closed-form expectation of the quasinorm term at p = 2, per ladder entry.

    At p = 2 (kappa = 0) a step solves (P_ii + tau A_ii) x_m =
    R Pt' f_m on the interior unknowns, so on uniform grids with
    additive noise every state is an affine function of the fine
    Brownian increments:
    x_m = S^(m-1) x_1^0 + sum_i S^(m-i) n dW_i with S = (P_ii + tau
    A_ii)^-1 P_ii, x_1^0 the response to the initial datum (which need
    not vanish on the boundary) and n the response to a unit increment
    of each noise component.  F is the identity, so the quasinorm term
    of a coarse/reference pair is sum_m tau_c d_m' A_ii d_m, and its
    expectation is the deterministic part plus tau_f * tr(C' A_ii C)
    summed over the fine increments, C being the difference of the
    two trajectories' responses to that increment.  Everything is
    assembled here from the dense operators, independently of the
    solver, stepper and error functional.
    """
    mesh = generate_unit_square(cfg.mesh_n)
    ops = assemble(mesh)
    noise = noise_from_function(mesh, phi_function(cfg.phi), n_components=cfg.noise_components)
    r = restriction(ops)
    mass = (r @ ops.mass @ r.T).toarray()
    stiff = (r @ stiffness(ops) @ r.T).toarray()
    start = r @ (ops.mass @ np.full(ops.n_vertices, float(cfg.u0)))
    # Pt' of the broken noise table: the load of a unit increment per component
    gain = r @ (ops.load_op @ np.repeat(noise.values, 3, axis=0))
    n_ref = int(round(cfg.horizon / cfg.tau_ref))
    tau_f = cfg.horizon / n_ref

    def chain(n_steps):
        """Mean states x_1..x_n, and the response S^k n to an increment k steps back."""
        solve = np.linalg.inv(mass + (cfg.horizon / n_steps) * stiff)
        step = solve @ mass
        mean = [solve @ start]
        resp = [solve @ gain]
        for _ in range(n_steps - 1):
            mean.append(step @ mean[-1])
            resp.append(step @ resp[-1])
        return np.array(mean), np.array(resp)

    mean_f, resp_f = chain(n_ref)
    out = []
    for tau in cfg.tau_ladder:
        n_c = int(round(cfg.horizon / tau))
        ratio = n_ref // n_c
        mean_c, resp_c = chain(n_c)
        total = 0.0
        for m in range(1, n_c + 1):
            k = m * ratio
            d = mean_f[k - 1] - mean_c[m - 1]
            j = np.arange(1, k + 1)  # fine increments up to t_m; j lies in coarse step ceil(j/ratio)
            c = resp_f[k - j] - resp_c[m - (j + ratio - 1) // ratio]
            total += tau * (d @ stiff @ d + tau_f * np.einsum("jik,il,jlk->", c, stiff, c))
        out.append(total)
    return np.array(out)


ORACLE_PROTOCOL = """
p_list = 2
mesh_n = 4
T = 1/4
tau_ladder = 1/8, 1/16, 1/32, 1/64
tau_ref = 1/128
n_r = 50
master_seed = 1
"""


@pytest.mark.parametrize("u0", ["1", "0"])
def test_exact_p2_expectation_oracle(u0):
    # the Monte-Carlo mean of E_quasi (stepper, noise load, path layout,
    # path_error) against its closed-form expectation at every tau; the
    # default datum u0 = 1 exercises the deterministic part; u0 = 0
    # leaves only the noise, where a noise amplitude 20% off already fails
    cfg = parse_config(ORACLE_PROTOCOL + f"u0 = {u0}\n")
    table = monte_carlo_estimate(cfg, 2.0)
    failures = [f"replicate {r}: {msg}" for r, msg in table.failures]
    exact = _exact_p2_quasi(cfg)
    n = table.quasi.shape[0]
    mean = table.quasi.mean(axis=0)
    se = table.quasi.std(axis=0, ddof=1) / np.sqrt(n)
    for tau, m, e, s in zip(cfg.tau_ladder, mean, exact, se):
        if abs(m - e) > 4.0 * s:
            failures.append(f"tau={tau:g}: mean {m:.5g} vs exact {e:.5g} ({(m - e) / s:+.2f} SE)")
    _verdict(f"exact p = 2 expectation oracle (u0 = {u0})", failures)


DESK_PROTOCOL = """
p_list = 1.1, 1.5, 2.5
mesh_n = 16
T = 1/4
tau_ladder = 1/8, 1/16, 1/32, 1/64
tau_ref = 1/128
n_r = 30
master_seed = 1
"""


def test_desk_protocol_exact_p2_rates():
    # the rate gate is only meaningful where the scheme is asymptotic:
    # the noiseless p = 2 curve of the gate's protocol must itself fit
    # into both brackets (on the saturated T = 1 ladder 1/2 ... 1/16 it
    # gives 0.879 and 0.119)
    cfg = parse_config(DESK_PROTOCOL)
    fit_taus = regression_taus(cfg)
    exact = _exact_p2_quasi(cfg)
    cols = [cfg.tau_ladder.index(t) for t in fit_taus]
    a_tilde = fit_rate(fit_taus, exact[cols]).a
    failures = []
    if not A_TILDE_BRACKET[0] <= a_tilde <= A_TILDE_BRACKET[1]:
        failures.append(f"a_tilde={a_tilde:.4f} outside {list(A_TILDE_BRACKET)}")
    try:
        _, alpha = corrected_rate(a_tilde, fit_taus, cfg.tau_ref)
        if not ALPHA_BRACKET[0] <= alpha <= ALPHA_BRACKET[1]:
            failures.append(f"alpha={alpha:.4f} outside {list(ALPHA_BRACKET)}")
    except CorrectionError as exc:
        failures.append(f"no corrected rate ({exc})")
    _verdict("desk protocol is asymptotic for the exact p = 2 curve", failures)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    cfg = parse_config(DESK_PROTOCOL)
    root = tmp_path_factory.mktemp("desk")
    serial = root / "serial"
    pool = root / "pool"
    run_experiment(dataclasses.replace(cfg, workers=1), out_dir=str(serial))
    run_experiment(dataclasses.replace(cfg, workers=2), out_dir=str(pool))
    return serial, pool


def _bootstrap_intervals(totals, taus, fit_taus, tau_ref, rng, n_boot=2000):
    """95% percentile intervals of (a_tilde, alpha) over resampled replicates.

    Each resample draws replicate rows with replacement, refits the mean
    curve and inverts the bias relation; a resample whose slope lies
    below the inversion floor has no rate in the bracket and counts as
    alpha = 0.
    """
    cols = [taus.index(t) for t in fit_taus]
    curves = totals[:, cols]
    n = curves.shape[0]
    a_tilde = np.empty(n_boot)
    alpha = np.empty(n_boot)
    for b in range(n_boot):
        a_tilde[b] = fit_rate(fit_taus, curves[rng.integers(0, n, n)].mean(axis=0)).a
        try:
            alpha[b] = corrected_rate(a_tilde[b], fit_taus, tau_ref)[1]
        except CorrectionError:
            alpha[b] = 0.0
    return np.percentile(a_tilde, [2.5, 97.5]), np.percentile(alpha, [2.5, 97.5])


def test_reduced_protocol_rate_brackets(desk_runs):
    serial, _ = desk_runs
    cfg = parse_config(DESK_PROTOCOL)
    fit_taus = regression_taus(cfg)
    tables = read_results_csv((serial / "results.csv").read_text())
    rng = np.random.default_rng(1)
    failures = []
    for p in sorted(tables):
        table = tables[p]
        a_ci, alpha_ci = _bootstrap_intervals(table["totals"], table["taus"], fit_taus, cfg.tau_ref, rng)
        print(
            f"p={p:g}: a_tilde 95% [{a_ci[0]:.3f}, {a_ci[1]:.3f}], "
            f"alpha 95% [{alpha_ci[0]:.3f}, {alpha_ci[1]:.3f}]"
        )
        for name, ci, (lo, hi) in (("a_tilde", a_ci, A_TILDE_BRACKET), ("alpha", alpha_ci, ALPHA_BRACKET)):
            if ci[1] < lo or ci[0] > hi:
                failures.append(f"p={p:g}: {name} 95% interval [{ci[0]:.4f}, {ci[1]:.4f}] misses [{lo}, {hi}]")
    _verdict("reduced-protocol rate brackets", failures)


def test_determinism_across_worker_counts(desk_runs):
    serial, pool = desk_runs
    same = (serial / "results.csv").read_bytes() == (pool / "results.csv").read_bytes()
    _verdict(
        "determinism across worker counts",
        [] if same else ["results.csv differs between 1 and 2 workers"],
    )
