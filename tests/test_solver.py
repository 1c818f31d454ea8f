"""Dual solver: fixed points on closed-form instances, gauge behaviour,
monotone dual ascent, marginal feasibility of the implied plan, potential
extension, the per-solve cost store, and the typed failure modes."""

import functools
import sys

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv import engine, solver
from sinkdiv.engine import ReductionPlan, lse_rows, softmin
from sinkdiv.measures import DiscreteMeasure
from sinkdiv.solver import (
    SolverParams,
    dual_value,
    plan_diagnostics,
    plan_matrix,
    sinkhorn,
    sinkhorn_symmetric,
)

from conftest import random_measure, random_pair, worker_threads


# ---------------------------------------------------------------------------
# closed-form fixed points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("p", [1, 2])
def test_point_mass_pair_converges_in_one_iteration(eps, p, dirac_pair):
    alpha, beta = dirac_pair
    res = sinkhorn(alpha, beta, SolverParams(epsilon=eps, p=p))
    cost = 1.0  # unit separation, |x-y|^p = 1 for both exponents
    assert res.converged
    assert res.iterations == 1
    assert res.residual == 0.0
    assert res.f[0] == pytest.approx(0.0, abs=1e-15)
    assert res.g[0] == pytest.approx(cost, abs=1e-15)
    assert dual_value(alpha, beta, res.f, res.g) == pytest.approx(cost, abs=1e-15)


def test_point_mass_self_transport_potential_is_zero():
    alpha = sd.from_arrays([1.0], [[0.3, -0.2]])
    res = sinkhorn_symmetric(alpha, SolverParams(epsilon=0.5, p=2, tol=1e-14))
    assert res.converged
    assert res.potential[0] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# gauge freedom
# ---------------------------------------------------------------------------


def test_constant_warm_start_shifts_only_the_gauge():
    alpha, beta, _ = random_pair(seed=7, max_n=20, uniform_weights=True)
    params = SolverParams(epsilon=0.5, p=2, tol=1e-12, max_iters=5000)
    cold = sinkhorn(alpha, beta, params)
    warm = sinkhorn(alpha, beta, params, init_f=np.full(alpha.n_atoms, 0.37))
    df = warm.f - cold.f
    dg = warm.g - cold.g
    # potentials agree up to one additive constant split between f and g
    assert df.max() - df.min() < 1e-10
    assert dg.max() - dg.min() < 1e-10
    assert df.mean() + dg.mean() == pytest.approx(0.0, abs=1e-10)
    v0 = dual_value(alpha, beta, cold.f, cold.g)
    v1 = dual_value(alpha, beta, warm.f, warm.g)
    assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)


def test_symmetric_warm_start_reaches_same_value():
    alpha, beta, _ = random_pair(seed=8, max_n=24, uniform_weights=True)
    params = SolverParams(epsilon=0.3, p=1, tol=1e-12, max_iters=5000)
    cold = sinkhorn(alpha, beta, params)
    p_a = sinkhorn_symmetric(alpha, SolverParams(epsilon=0.3, p=1, tol=1e-13))
    warm = sinkhorn(alpha, beta, params, init_f=p_a.potential)
    assert warm.iterations <= cold.iterations
    v0 = dual_value(alpha, beta, cold.f, cold.g)
    v1 = dual_value(alpha, beta, warm.f, warm.g)
    assert v1 == pytest.approx(v0, rel=1e-9, abs=1e-11)


# ---------------------------------------------------------------------------
# dual ascent and stopping semantics
# ---------------------------------------------------------------------------


def test_dual_objective_ascends_iteration_by_iteration():
    alpha, beta, _ = random_pair(seed=42, max_n=24)
    values = []
    for k in range(1, 13):
        res = sinkhorn(alpha, beta,
                       SolverParams(epsilon=0.1, p=2, tol=0.0, max_iters=k))
        values.append(dual_value(alpha, beta, res.f, res.g))
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_dual_value_sums_without_rounding_the_partial_sums():
    # <alpha, f> alone rounds 5e15 + 0.5 to 5e15; the exact total is 0.5
    alpha = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    beta = sd.from_arrays([1.0], [[0.5]])
    assert dual_value(alpha, beta, np.array([1e16, 1.0]), np.array([-5e15])) == 0.5


def test_iteration_cap_reports_rather_than_raises():
    alpha, beta, _ = random_pair(seed=43, max_n=40)
    res = sinkhorn(alpha, beta,
                   SolverParams(epsilon=0.01, p=2, tol=1e-14, max_iters=2))
    assert not res.converged
    assert res.iterations == 2
    assert res.residual > 1e-14


def test_symmetric_iteration_cap_reports_rather_than_raises():
    alpha, _, _ = random_pair(seed=44, max_n=40)
    res = sinkhorn_symmetric(
        alpha, SolverParams(epsilon=0.1, p=2, tol=1e-15,
                            symmetric_max_iters=2))
    assert not res.converged
    assert res.iterations == 2


def test_symmetric_zero_iteration_cap_evaluates_the_start_once():
    alpha, _, _ = random_pair(seed=44, max_n=40)
    res = sinkhorn_symmetric(alpha, SolverParams(epsilon=0.1, p=2, symmetric_max_iters=0))
    assert res.iterations == 0 and not res.converged
    assert np.array_equal(res.potential, np.zeros(alpha.n_atoms))
    t = softmin(alpha, res.potential, sd.CostSpec(2, 0.1), alpha.positions)
    assert res.residual == float(np.max(np.abs(t)))


# ---------------------------------------------------------------------------
# the self-transport solve's gauge-free step and secant extrapolation
# ---------------------------------------------------------------------------


def _workload_measures():
    """The seed-1 inputs of perfbench's cloud-2d (800 points in the unit
    square against a noisy ring, p = 2) and flow-1d (500 points on [0, 0.2]
    against 500 on [0.6, 1], p = 1) workloads, with their solver settings."""
    rng = np.random.default_rng([1, 1])
    square = rng.uniform(0.0, 1.0, (800, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, 800)
    radius = 0.3 + 0.02 * rng.standard_normal(800)
    ring = np.c_[0.6 + radius * np.cos(theta), 0.5 + radius * np.sin(theta)]
    cloud = SolverParams(epsilon=0.1, p=2, tol=1e-6)
    rng = np.random.default_rng([1, 3])
    left, right = rng.uniform(0.0, 0.2, (500, 1)), rng.uniform(0.6, 1.0, (500, 1))
    line = SolverParams(epsilon=0.1, p=1, tol=1e-6, max_iters=2000)
    return [(sd.from_arrays(np.full(len(x), 1.0 / len(x)), x), params)
            for x, params in ((square, cloud), (ring, cloud), (left, line), (right, line))]


def test_symmetric_solve_stays_within_its_iteration_budget():
    # criterion 8(a)'s problems took 10-18 averaged updates
    idx = 0
    for eps in (0.05, 0.1, 0.3, 1.0):
        for n in (100, 500, 1000):
            rng = np.random.default_rng(900 + idx)
            idx += 1
            alpha = sd.from_arrays(np.full(n, 1.0 / n), rng.uniform(0, 1, (n, 2)))
            res = sinkhorn_symmetric(alpha, SolverParams(epsilon=eps, p=1, tol=1e-6,
                                                         symmetric_max_iters=30))
            assert res.converged and res.iterations <= 10, (eps, n)
    # the benchmark workloads' measures took 14-15
    for alpha, params in _workload_measures():
        res = sinkhorn_symmetric(alpha, params)
        assert res.converged and res.iterations <= 8, alpha.n_atoms


@pytest.mark.parametrize("shift", [0.25, -3.0])
def test_symmetric_solve_ignores_the_gauge_of_its_warm_start(shift):
    # warm-start alpha's solve from the potential of a nearby measure, as a flow does
    rng = np.random.default_rng(45)
    alpha = random_measure(rng, 60, 2)
    moved = sd.from_arrays(alpha.weights, alpha.positions + 0.02 * rng.standard_normal((60, 2)))
    params = SolverParams(epsilon=0.1, p=2, tol=1e-9)
    start = sinkhorn_symmetric(moved, params).potential
    plain = sinkhorn_symmetric(alpha, params, init_potential=start)
    shifted = sinkhorn_symmetric(alpha, params, init_potential=start + shift)
    assert plain.converged and shifted.converged
    assert shifted.iterations <= plain.iterations + 1
    assert np.max(np.abs(shifted.potential - plain.potential)) <= 10 * params.tol


@pytest.mark.parametrize("seed", range(6))
def test_symmetric_extrapolation_stays_at_rounding_level_once_converged(seed):
    # tol = 0 keeps the solve iterating on rounding noise for 150 updates, where
    # the residual stops falling and the safeguard takes plain steps
    rng = np.random.default_rng(7000 + seed)
    n, d, p = int(rng.integers(5, 120)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
    alpha = random_measure(rng, n, d)
    params = SolverParams(epsilon=float(10 ** rng.uniform(-2, 0)), p=p, tol=0.0,
                          symmetric_max_iters=150)
    res = sinkhorn_symmetric(alpha, params)
    assert np.max(np.abs(res.potential)) <= 1.0
    assert res.residual <= 1e-15
    pot, iterations, residual = _reference_symmetric(alpha, params)
    assert np.array_equal(res.potential, pot)
    assert (res.iterations, res.residual) == (iterations, residual)


# ---------------------------------------------------------------------------
# safeguarded over-relaxation of the cross solve
# ---------------------------------------------------------------------------

SMALL_BLUR = SolverParams(epsilon=1e-3, p=1, tol=1e-8, max_iters=50000)


def _small_blur_pair():
    """Criterion 4's problem from generator 203: 100 vs 100 atoms in 1D."""
    rng = np.random.default_rng(203)
    return random_measure(rng, 100, 1), random_measure(rng, 100, 1)


@pytest.fixture(scope="module")
def plain_small_blur_value():
    alpha, beta = _small_blur_pair()
    f, g, iterations, _, omega = _reference_sinkhorn(
        alpha, beta, SMALL_BLUR, warm=SMALL_BLUR.max_iters + 1)
    assert iterations > 1500 and omega == 1.0  # plain Sinkhorn needs 1,657
    return dual_value(alpha, beta, f, g)


def test_relaxation_cuts_small_blur_iterations_at_the_same_value(plain_small_blur_value):
    alpha, beta = _small_blur_pair()
    res = sinkhorn(alpha, beta, SMALL_BLUR)
    assert res.converged and res.iterations <= 200 and res.omega > 1.0
    value = dual_value(alpha, beta, res.f, res.g)
    assert value == pytest.approx(plain_small_blur_value, abs=1e-10)


def test_small_blur_divergences_stay_within_their_cross_budget():
    # criterion 4's recipe; generator 2 is its slowest known draw
    params = SolverParams(epsilon=1e-3, p=1, tol=1e-8, max_iters=2000)

    def cross(seed):
        rng = np.random.default_rng(seed)
        alpha, beta = random_measure(rng, 100, 1), random_measure(rng, 100, 1)
        info = sd.sinkhorn_divergence(alpha, beta, params).diagnostics["cross"]
        assert info["converged"]
        return info["iterations"]

    assert sum(cross(seed) for seed in range(200, 210)) <= 3000
    assert cross(2) <= 2000


def test_dual_value_never_falls_under_relaxation():
    alpha, beta = _small_blur_pair()
    values, omegas = [], []
    for k in range(1, 81):
        res = sinkhorn(alpha, beta, SolverParams(epsilon=1e-3, p=1, tol=0.0, max_iters=k))
        values.append(dual_value(alpha, beta, res.f, res.g))
        omegas.append(res.omega)
    assert np.all(np.diff(values) >= 0.0)
    assert omegas[:solver.WARM] == [1.0] * solver.WARM
    # the first estimate relaxes; the rate re-estimates raise it within the cap
    assert omegas[solver.WARM] > 1.0
    assert max(omegas) > omegas[solver.WARM]
    assert max(omegas) <= solver.OMEGA_MAX


def test_oversized_relaxation_is_redone_plainly(monkeypatch, plain_small_blur_value):
    # omega = 3 overshoots; every relaxed iteration that loses dual ascent
    # is redone as a plain one from the last accepted pair
    alpha, beta = _small_blur_pair()
    monkeypatch.setattr(solver, "_relaxation", lambda q: 3.0)
    seen = []  # every dual value the solver computes, in order
    monkeypatch.setattr(solver, "dual_value", lambda *a: seen.append(dual_value(*a)) or seen[-1])
    values = []
    for k in range(1, 41):
        res = sinkhorn(alpha, beta, SolverParams(epsilon=1e-3, p=1, tol=0.0, max_iters=k))
        values.append(dual_value(alpha, beta, res.f, res.g))
    assert np.all(np.diff(values) >= 0.0)
    seen.clear()
    res = sinkhorn(alpha, beta, SMALL_BLUR)
    assert np.any(np.diff(seen) < 0.0)  # some relaxed iterations were rejected
    assert res.converged
    value = dual_value(alpha, beta, res.f, res.g)
    assert value == pytest.approx(plain_small_blur_value, abs=1e-10)


def test_solves_within_warm_iterations_are_plain_sinkhorn():
    alpha, beta = _small_blur_pair()
    cases = [(alpha, beta, SolverParams(epsilon=1e-3, p=1, tol=0.0, max_iters=k))
             for k in range(1, solver.WARM + 1)]
    a, b, _ = random_pair(seed=0, max_n=30)
    cases.append((a, b, SolverParams(epsilon=1.0, p=2, tol=1e-6)))
    for alpha, beta, params in cases:
        res = sinkhorn(alpha, beta, params)
        assert res.iterations <= solver.WARM and res.omega == 1.0
        f, g, iterations, residual, _ = _reference_sinkhorn(
            alpha, beta, params, warm=params.max_iters + 1)
        assert np.array_equal(res.f, f) and np.array_equal(res.g, g)
        assert (res.iterations, res.residual) == (iterations, residual)
    assert res.converged


# ---------------------------------------------------------------------------
# kept cost blocks: the same bits as plain lse_rows calls, within the cap
# ---------------------------------------------------------------------------


def _reference_sinkhorn(alpha, beta, params, warm=solver.WARM, tried=None):
    """The cross solve's safeguarded over-relaxation as a loop of plain
    lse_rows calls, no cost store, on the solver's plans (``solver.ReductionPlan``);
    ``warm > max_iters`` gives plain Sinkhorn. ``tried``, a list, receives
    the factor of every iteration, redone ones included."""
    spec, eps = params.cost_spec, params.epsilon

    def soft_min(measure, potential, points):
        plan = solver.ReductionPlan(len(points), measure.n_atoms)
        return -eps * lse_rows(plan, measure.log_weights, potential,
                               measure.positions, points, spec)

    def relax(t, x):
        return t if omega == 1.0 else t + (1.0 - omega) * (x - t)

    def optimal(q):  # SOR factor for a plain contraction rate q
        return min(solver.OMEGA_MAX, 2.0 / (1.0 + np.sqrt(1.0 - min(q, 1.0))))

    tried = [] if tried is None else tried
    f, g = np.zeros(alpha.n_atoms), np.zeros(beta.n_atoms)
    omega, plain = 1.0, []  # residuals of the plain iterations since the last (re)start
    relaxed = []  # residuals since omega was last set: the rate window's anchor first
    accepted = dict(f=f, g=g, value=-np.inf, residual=np.inf, omega=omega)
    for it in range(1, params.max_iters + 1):
        tried.append(omega)
        g = relax(soft_min(alpha, f, beta.positions), g)
        t = soft_min(beta, g, alpha.positions)
        value = dual_value(alpha, beta, t, g)
        if omega != 1.0 and value < accepted["value"]:
            f, g, omega, plain = accepted["f"], accepted["g"], 1.0, []
            continue
        residual = float(np.dot(alpha.weights, np.abs(t - f)))
        accepted = dict(f=t, g=g, value=value, residual=residual, omega=omega)
        if residual <= params.tol:
            break
        f = relax(t, f)
        if omega == 1.0:
            plain.append(residual)
            if len(plain) == warm:
                omega, relaxed = optimal(plain[-1] / plain[-2]), [residual]
        else:
            relaxed.append(residual)
            if len(relaxed) == solver.RATE_WINDOW + 1:
                # the geometric mean of the window's ratios telescopes
                r = (relaxed[-1] / relaxed[0]) ** (1.0 / solver.RATE_WINDOW)
                omega = max(omega, optimal((r + omega - 1.0) ** 2 / (r * omega * omega)))
                relaxed = [residual]
    return accepted["f"], accepted["g"], it, accepted["residual"], accepted["omega"]


def _reference_symmetric(alpha, params):
    """The self-transport solve's gauge-free step with its safeguarded secant
    extrapolation, as a loop of plain lse_rows calls, no cost store, on the
    solver's plan."""
    n, w, theta = alpha.n_atoms, alpha.weights, solver.THETA
    plan = solver.ReductionPlan(n, n)
    p, it = np.zeros(n), 0
    steps, updates, residuals = [], [], []  # plain updates p + step
    while True:
        t = -params.epsilon * lse_rows(plan, alpha.log_weights, p, alpha.positions,
                                       alpha.positions, params.cost_spec)
        residual = float(np.max(np.abs(p - t)))
        if residual <= params.tol or it >= params.symmetric_max_iters:
            return p, it, residual
        steps.append(theta * (t - p) + (0.5 - theta) * float(np.dot(w, t - p)))
        updates.append(p + steps[-1])
        p = updates[-1]
        if residuals and residual < residuals[-1]:
            ds = steps[-1] - steps[-2]
            den = float(np.dot(w * ds, ds))
            if den > 0.0:
                gamma = float(np.dot(w * ds, steps[-1])) / den
                p = updates[-1] - gamma * (updates[-1] - updates[-2])
        residuals.append(residual)
        it += 1


def _small_tiles(monkeypatch, mode="streaming"):
    """Give every plan the solver builds 16-column tiles in ``mode``."""
    monkeypatch.setattr(solver, "ReductionPlan",
                        functools.partial(ReductionPlan, tile_size=16, mode=mode))


def _count_built_blocks(monkeypatch):
    """The list that receives the pairs of every squared-distance block the
    engine builds from here on."""
    built = []
    sq_dist_block = engine.sq_dist_block
    monkeypatch.setattr(engine, "sq_dist_block", lambda xs, ys, **kw: (
        built.append(len(xs) * len(ys)), sq_dist_block(xs, ys, **kw))[1])
    return built


@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("mode", ["streaming", "dense"])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_kept_costs_give_the_bits_of_plain_reductions(p, d, threads, mode, kept, monkeypatch):
    # a small pair budget cuts these supports into several row blocks; the
    # cap sits exactly at the largest problem (kept) or one pair below the
    # smallest (streamed)
    rng = np.random.default_rng(10 * p + d)
    alpha = random_measure(rng, 90, d)
    beta = random_measure(rng, 70, d)
    monkeypatch.setattr(engine, "PAIR_BUDGET", 1000)
    monkeypatch.setattr(engine, "CACHE_PAIRS", 90 * 90 if kept else 70 * 70 - 1)
    built = _count_built_blocks(monkeypatch)
    _small_tiles(monkeypatch, mode)
    params = SolverParams(epsilon=0.1, p=p, tol=1e-10, max_iters=8, symmetric_max_iters=8)
    with worker_threads(threads):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch workers as often as possible
        try:
            res = sinkhorn(alpha, beta, params)
        finally:
            sys.setswitchinterval(interval)
        assert sum(built) == 2 * 90 * 70 * (1 if kept else res.iterations)
        f, g, iterations, residual, omega = _reference_sinkhorn(alpha, beta, params)
        assert np.array_equal(res.f, f) and np.array_equal(res.g, g)
        assert (res.iterations, res.residual, res.omega) == (iterations, residual, omega)
        assert iterations > solver.WARM and omega > 1.0
        for measure in (alpha, beta):
            n = measure.n_atoms
            built.clear()
            sym = sinkhorn_symmetric(measure, params)
            assert sum(built) == n * n * (1 if kept else sym.iterations + 1)
            pot, iterations, residual = _reference_symmetric(measure, params)
            assert np.array_equal(sym.potential, pot)
            assert (sym.iterations, sym.residual) == (iterations, residual)
            assert iterations > 2


@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("threads", [1, 2])
def test_raised_and_redone_relaxation_gives_the_bits_of_plain_reductions(threads, kept,
                                                                          monkeypatch):
    # the cold small-blur solve raises omega from its first estimates, to the
    # cap and below it, and redoes relaxed iterations
    alpha, beta = _small_blur_pair()
    monkeypatch.setattr(engine, "PAIR_BUDGET", 1000)
    monkeypatch.setattr(engine, "CACHE_PAIRS", 100 * 100 if kept else 100 * 100 - 1)
    built = _count_built_blocks(monkeypatch)
    _small_tiles(monkeypatch)
    params = SolverParams(epsilon=1e-3, p=1, tol=1e-8, max_iters=200)
    with worker_threads(threads):
        res = sinkhorn(alpha, beta, params)
        assert res.converged
        assert sum(built) == 2 * 100 * 100 * (1 if kept else res.iterations)
        tried = []
        f, g, iterations, residual, omega = _reference_sinkhorn(alpha, beta, params,
                                                                tried=tried)
    assert np.array_equal(res.f, f) and np.array_equal(res.g, g)
    assert (res.iterations, res.residual, res.omega) == (iterations, residual, omega)
    relaxed = [w for w in tried if w != 1.0]
    assert max(relaxed) > relaxed[0]
    assert any(w != 1.0 and nxt == 1.0 for w, nxt in zip(tried, tried[1:]))


def test_store_rejects_points_it_was_not_made_for():
    rng = np.random.default_rng(12)
    alpha, beta = random_measure(rng, 5, 2), random_measure(rng, 4, 2)
    plan, spec = ReductionPlan(5, 4), sd.CostSpec(2, 0.1)
    store = engine.CostStore(plan, beta.positions, alpha.positions, spec)
    args = (beta.log_weights, np.zeros(4), beta.positions, alpha.positions)
    lse_rows(plan, *args, spec, store=store)
    for call in ((plan, *args[:2], beta.positions.copy(), alpha.positions, spec),
                 (plan, *args, sd.CostSpec(1, 0.1)),
                 (ReductionPlan(5, 4, tile_size=2), *args, spec)):
        with pytest.raises(sd.InvalidInput, match="cost store"):
            lse_rows(*call, store=store)


def test_store_checks_log_weights_once_per_array(monkeypatch):
    rng = np.random.default_rng(15)
    alpha, beta = random_measure(rng, 30, 2), random_measure(rng, 20, 2)
    params = SolverParams(epsilon=0.1, p=2, tol=1e-8)
    checked = []  # names of the vectors engine._check_vector was handed
    check_vector = engine._check_vector
    monkeypatch.setattr(engine, "_check_vector",
                        lambda name, *a: (checked.append(name), check_vector(name, *a))[1])
    cross = sinkhorn(alpha, beta, params)
    # one check of each direction's log-weights, one of each potential
    assert checked.count("logw") == 2
    assert checked.count("pot") == 2 * cross.iterations
    checked.clear()
    auto = sinkhorn_symmetric(alpha, params)
    assert (checked.count("logw"), checked.count("pot")) == (1, auto.iterations + 1)

    plan, spec = ReductionPlan(30, 20), params.cost_spec
    store = engine.CostStore(plan, beta.positions, alpha.positions, spec)
    args = (beta.positions, alpha.positions, spec)
    lse_rows(plan, beta.log_weights, np.zeros(20), *args, store=store)
    bad = beta.log_weights.copy()
    bad[3] = np.nan
    with pytest.raises(sd.InvalidInput, match="^logw contains NaN"):
        lse_rows(plan, bad, np.zeros(20), *args, store=store)


def test_solves_make_their_reductions_through_the_module_level_lse_rows(monkeypatch):
    # perfbench's tracer sees a solve's reductions only through solver.lse_rows
    rng = np.random.default_rng(16)
    alpha, beta = random_measure(rng, 30, 2), random_measure(rng, 20, 2)
    params = SolverParams(epsilon=0.1, p=2, tol=1e-8)
    calls = []
    reduce = solver.lse_rows
    monkeypatch.setattr(solver, "lse_rows",
                        lambda *a, **kw: (calls.append(1), reduce(*a, **kw))[1])
    cross = sinkhorn(alpha, beta, params)
    assert cross.iterations > 1 and len(calls) == 2 * cross.iterations
    calls.clear()
    auto = sinkhorn_symmetric(alpha, params)
    assert auto.iterations > 1 and len(calls) == auto.iterations + 1


def test_solve_within_the_cap_accounts_for_its_kept_costs():
    rng = np.random.default_rng(13)
    n, m = 400, 300
    alpha, beta = random_measure(rng, n, 2), random_measure(rng, m, 2)
    params = SolverParams(epsilon=0.1, p=2, max_iters=3)
    engine.reset_high_water()
    sinkhorn(alpha, beta, params)
    # each call adds its own direction's kept blocks to what a plain call reports
    kept = engine.last_stats().peak_bytes
    lse_rows(ReductionPlan(n, m), beta.log_weights, np.zeros(m), beta.positions,
             alpha.positions, params.cost_spec)
    assert kept == engine.last_stats().peak_bytes + n * m * 8
    engine.reset_high_water()
    sinkhorn_symmetric(alpha, params)
    assert n * n * 8 < engine.high_water()["peak_bytes"] < 2 * n * n * 8


def test_solve_above_the_cap_streams(monkeypatch):
    rng = np.random.default_rng(14)
    n = m = 1500
    alpha, beta = random_measure(rng, n, 2), random_measure(rng, m, 2)
    monkeypatch.setattr(engine, "CACHE_PAIRS", n * m - 1)
    engine.reset_high_water()
    sinkhorn(alpha, beta, SolverParams(epsilon=0.1, p=2, max_iters=2))
    hw = engine.high_water()
    assert hw["pair_buffer_bytes"] <= 256 * 256 * 8
    assert hw["peak_bytes"] < n * m * 8 / 10


# ---------------------------------------------------------------------------
# self-transport consistency and plan feasibility
# ---------------------------------------------------------------------------


def test_equal_inputs_match_symmetric_potential_sum():
    alpha, _, _ = random_pair(seed=9, max_n=16, uniform_weights=True)
    params = SolverParams(epsilon=0.5, p=2, tol=1e-12, max_iters=10000)
    cross = sinkhorn(alpha, alpha, params)
    sym = sinkhorn_symmetric(alpha, SolverParams(epsilon=0.5, p=2, tol=1e-13))
    lhs = float(np.dot(alpha.weights, cross.f + cross.g))
    rhs = 2.0 * float(np.dot(alpha.weights, sym.potential))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_converged_plan_satisfies_both_marginals():
    alpha, beta, _ = random_pair(seed=10, max_n=7)
    params = SolverParams(epsilon=0.3, p=2, tol=1e-12, max_iters=20000)
    res = sinkhorn(alpha, beta, params)
    assert res.converged
    pi = plan_matrix(alpha, beta, res.f, res.g, params.cost_spec)
    row_err = np.abs(pi.sum(axis=1) - alpha.weights).sum()
    col_err = np.abs(pi.sum(axis=0) - beta.weights).sum()
    assert row_err + col_err < 1e-10
    diag = plan_diagnostics(alpha, beta, res.f, res.g, params.cost_spec)
    assert diag.marginal_err_l1 < 1e-10
    # primal value of the implied plan equals the dual objective
    primal = diag.transport_cost + params.epsilon * diag.kl
    dual = dual_value(alpha, beta, res.f, res.g)
    assert primal == pytest.approx(dual, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# potential extension
# ---------------------------------------------------------------------------


def test_extension_is_a_fixed_point_on_own_support():
    alpha, _, _ = random_pair(seed=11, max_n=20)
    spec = sd.CostSpec(2, 0.2)
    sym = sinkhorn_symmetric(alpha, SolverParams(epsilon=0.2, p=2, tol=1e-13))
    assert sym.converged
    ext = softmin(alpha, sym.potential, spec, alpha.positions)
    assert np.allclose(ext, sym.potential, atol=1e-12)


def test_extension_onto_partner_support_matches_partner_potential():
    alpha, beta, _ = random_pair(seed=12, max_n=8, uniform_weights=True)
    params = SolverParams(epsilon=0.5, p=1, tol=1e-13, max_iters=20000)
    res = sinkhorn(alpha, beta, params)
    assert res.converged
    ext = softmin(alpha, res.f, params.cost_spec, beta.positions)
    assert np.allclose(ext, res.g, atol=1e-10)


@pytest.mark.parametrize("p,eps", [(1, 0.05), (1, 0.5), (2, 0.1)])
def test_extended_potential_is_cost_lipschitz(p, eps):
    alpha, _, _ = random_pair(seed=13, max_n=30, max_dim=1)
    sym = sinkhorn_symmetric(alpha, SolverParams(epsilon=eps, p=p, tol=1e-12))
    grid = np.linspace(-0.5, 1.5, 401).reshape(-1, 1)
    vals = softmin(alpha, sym.potential, sd.CostSpec(p, eps), grid)
    quotients = np.abs(np.diff(vals)) / np.diff(grid[:, 0])
    if p == 1:
        kappa = 1.0
    else:
        kappa = 2.0 * np.abs(grid[:, 0][:, None]
                             - alpha.positions[None, :, 0]).max()
    assert quotients.max() <= kappa + 1e-6


# ---------------------------------------------------------------------------
# typed failures and guards
# ---------------------------------------------------------------------------


def test_plan_materialization_respects_entry_guard():
    alpha, beta, _ = random_pair(seed=14, max_n=5)
    res = sinkhorn(alpha, beta, SolverParams(epsilon=0.5, p=2))
    with pytest.raises(sd.TooLarge):
        plan_matrix(alpha, beta, res.f, res.g, sd.CostSpec(2, 0.5),
                    max_entries=alpha.n_atoms * beta.n_atoms - 1)


def test_plan_diagnostics_on_point_masses():
    alpha = sd.from_arrays([1.0], [[0.0]])
    beta = sd.from_arrays([1.0], [[1.0]])
    spec = sd.CostSpec(1, 0.25)
    diag = plan_diagnostics(alpha, beta, np.array([0.0]), np.array([1.0]), spec)
    assert diag.transport_cost == pytest.approx(1.0, abs=1e-15)
    assert diag.kl == pytest.approx(0.0, abs=1e-15)
    assert diag.marginal_err_l1 == pytest.approx(0.0, abs=1e-15)
    same = sd.from_arrays([1.0], [[0.0]])
    diag0 = plan_diagnostics(alpha, same, np.zeros(1), np.zeros(1), spec)
    assert diag0.transport_cost == 0.0
    assert diag0.kl == pytest.approx(0.0, abs=1e-15)


def test_overflowing_cost_scale_raises_numerical_failure():
    alpha = sd.from_arrays([1.0], [[0.0]])
    beta = sd.from_arrays([1.0], [[1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sd.NumericalFailure):
            sinkhorn(alpha, beta, SolverParams(epsilon=1.0, p=2))


def test_nonfinite_measure_data_is_rejected():
    bad = DiscreteMeasure(
        weights=np.array([0.5, 0.5]),
        positions=np.array([[0.0], [np.inf]]),
    )
    good = sd.from_arrays([1.0], [[0.0]])
    with pytest.raises((sd.InvalidInput, sd.NumericalFailure)):
        with np.errstate(over="ignore", invalid="ignore"):
            sinkhorn(good, bad, SolverParams(epsilon=1.0, p=2))


def test_dimension_mismatch_rejected():
    a = sd.from_arrays([1.0], [[0.0]])
    b = sd.from_arrays([1.0], [[0.0, 0.0]])
    with pytest.raises(sd.InvalidInput):
        sinkhorn(a, b, SolverParams(epsilon=1.0, p=2))


@pytest.mark.parametrize("call", [
    lambda a, b: dual_value(a, b, np.zeros(3), np.zeros(1)),
    lambda a, b: dual_value(a, b, np.zeros(2), np.zeros((1, 1))),
    lambda a, b: plan_matrix(a, b, np.zeros(1), np.zeros(1), sd.CostSpec(2, 1.0)),
    lambda a, b: plan_matrix(a, b, np.zeros(2), np.zeros(2), sd.CostSpec(2, 1.0)),
], ids=["dual-value-f", "dual-value-g", "plan-matrix-f", "plan-matrix-g"])
def test_potential_shapes_must_match_the_supports(call):
    a = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    b = sd.from_arrays([1.0], [[0.5]])
    with pytest.raises(sd.InvalidInput, match="potential shapes"):
        call(a, b)


def test_bad_warm_start_rejected():
    a = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    b = sd.from_arrays([1.0], [[0.5]])
    params = SolverParams(epsilon=1.0, p=2)
    with pytest.raises(sd.InvalidInput):
        sinkhorn(a, b, params, init_f=np.zeros(3))
    with pytest.raises(sd.InvalidInput):
        sinkhorn(a, b, params, init_f=np.array([0.0, np.nan]))


def test_solver_params_validation():
    with pytest.raises(sd.InvalidInput):
        SolverParams(epsilon=0.0)
    with pytest.raises(sd.InvalidInput):
        SolverParams(epsilon=1.0, p=3)
    with pytest.raises(sd.InvalidInput):
        SolverParams(epsilon=1.0, tol=-1.0)
    with pytest.raises(sd.InvalidInput, match=r"^max_iters must be >= 1, got 0"):
        SolverParams(epsilon=1.0, max_iters=0)
    with pytest.raises(sd.InvalidInput, match=r"^symmetric_max_iters must be >= 0, got -1"):
        SolverParams(epsilon=1.0, symmetric_max_iters=-1)
    assert SolverParams(epsilon=1.0, symmetric_max_iters=0).symmetric_max_iters == 0
