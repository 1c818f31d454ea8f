"""Acceptance suite: one test per release criterion. Each criterion reports
a single ``ACCEPTANCE <k> <name>: PASS``/``FAIL`` line in the terminal
summary in addition to the usual pytest verdict. Every expected value is
produced by an independent oracle (exact 1D transport, brute-force kernel
sums, finite differences, the variational fixed-point characterization) or
is a closed form checked by hand; tolerances are part of the release
contract and must not be loosened.
"""

import time

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv import engine
from sinkdiv.engine import ReductionPlan, lse_rows, soft_min, softmin
from sinkdiv.flows import FlowConfig, run_flow
from sinkdiv.solver import (
    SolverParams,
    dual_value,
    plan_diagnostics,
    sinkhorn,
    sinkhorn_symmetric,
)

from conftest import criterion, max_ulp_diff, random_measure
from oracles import (
    finite_diff_gradient,
    mmd_bruteforce,
    negentropy_variational,
    ot0_1d_sorted,
)


# ---------------------------------------------------------------------------
# 1. point masses: every transport divergence reduces to the ground cost
# ---------------------------------------------------------------------------


def test_criterion_01_point_mass_closed_forms():
    with criterion(1, "point_mass_closed_forms"):
        x = np.array([0.2, 0.7, -0.1])
        y = np.array([0.9, 0.1, 0.4])
        alpha = sd.from_arrays([1.0], [x])
        beta = sd.from_arrays([1.0], [y])
        for p in (1, 2):
            cost = float(np.linalg.norm(x - y) ** p)
            for eps in (0.01, 0.1, 1.0):
                params = SolverParams(epsilon=eps, p=p)
                tol = 1e-12 * max(1.0, cost)
                assert abs(sd.ot_eps(alpha, beta, params).value - cost) <= tol
                assert abs(sd.sinkhorn_divergence(alpha, beta, params).value
                           - cost) <= tol
                assert abs(sd.hausdorff_divergence(alpha, beta, params).value
                           - cost) <= tol


# ---------------------------------------------------------------------------
# 2. positivity, identity at equality, and the divergence sandwich
# ---------------------------------------------------------------------------


def test_criterion_02_divergence_order_and_identity():
    with criterion(2, "divergence_order_and_identity"):
        eps_grid = (0.01, 0.1, 1.0)
        for s in range(200):
            rng = np.random.default_rng(1000 + s)
            n = int(rng.integers(1, 65))
            m = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 4))
            alpha = sd.from_arrays(rng.dirichlet(np.ones(n)),
                                   rng.uniform(0, 1, (n, dim)))
            beta = sd.from_arrays(rng.dirichlet(np.ones(m)),
                                  rng.uniform(0, 1, (m, dim)))
            p = int(rng.choice([1, 2]))
            eps = float(eps_grid[rng.integers(0, 3)])
            params = SolverParams(epsilon=eps, p=p, tol=1e-12,
                                  max_iters=20000)
            s_ab = sd.sinkhorn_divergence(alpha, beta, params).value
            h_ab = sd.hausdorff_divergence(alpha, beta, params).value
            s_aa = sd.sinkhorn_divergence(alpha, alpha, params).value
            assert s_ab >= -1e-10
            assert abs(s_aa) <= 1e-10
            assert h_ab >= -1e-12
            assert h_ab <= s_ab + 1e-10
            if s_ab < 1e-8:
                # separation: a vanishing divergence identifies the measures
                assert alpha.n_atoms == beta.n_atoms
                assert np.abs(alpha.weights - beta.weights).max() < 1e-6
                assert np.abs(alpha.positions - beta.positions).max() < 1e-6


# ---------------------------------------------------------------------------
# 3. large blur: the debiased divergence approaches the kernel discrepancy
# ---------------------------------------------------------------------------


def test_criterion_03_large_blur_matches_kernel_norm():
    with criterion(3, "large_blur_matches_kernel_norm"):
        kernel = sd.MmdKernelSpec("energy")
        params = SolverParams(epsilon=1e4, p=1, tol=1e-10, max_iters=10000)
        for s in range(10):
            rng = np.random.default_rng(300 + s)
            alpha = random_measure(rng, 50, 2)
            beta = random_measure(rng, 50, 2)
            v_blur = sd.sinkhorn_divergence(alpha, beta, params).value
            v_kernel = sd.mmd(alpha, beta, kernel).value
            assert abs(v_blur - v_kernel) <= 1e-3 * (1.0 + abs(v_kernel))


# ---------------------------------------------------------------------------
# 4. small blur: the debiased divergence approaches exact transport
# ---------------------------------------------------------------------------


def test_criterion_04_small_blur_matches_exact_transport():
    with criterion(4, "small_blur_matches_exact_transport"):
        params = SolverParams(epsilon=1e-3, p=1, tol=1e-8, max_iters=50000)
        for s in range(10):
            rng = np.random.default_rng(200 + s)
            alpha = random_measure(rng, 100, 1)
            beta = random_measure(rng, 100, 1)
            v_eps = sd.sinkhorn_divergence(alpha, beta, params).value
            v_exact = ot0_1d_sorted(alpha, beta, p=1)
            assert abs(v_eps - v_exact) <= 1e-2 * (1.0 + abs(v_exact))


# ---------------------------------------------------------------------------
# 5. dual value equals the primal value of the implied plan
# ---------------------------------------------------------------------------


def test_criterion_05_dual_primal_consistency():
    with criterion(5, "dual_primal_consistency"):
        eps_grid = (0.1, 0.5, 1.0)
        for s in range(20):
            rng = np.random.default_rng(800 + s)
            n = int(rng.integers(2, 33))
            m = int(rng.integers(2, 33))
            dim = int(rng.integers(1, 4))
            alpha = sd.from_arrays(rng.dirichlet(np.ones(n)),
                                   rng.uniform(0, 1, (n, dim)))
            beta = sd.from_arrays(rng.dirichlet(np.ones(m)),
                                  rng.uniform(0, 1, (m, dim)))
            p = int(rng.choice([1, 2]))
            eps = float(eps_grid[rng.integers(0, 3)])
            params = SolverParams(epsilon=eps, p=p, tol=1e-12,
                                  max_iters=20000)
            res = sinkhorn(alpha, beta, params)
            assert res.converged
            dual = dual_value(alpha, beta, res.f, res.g)
            diag = plan_diagnostics(alpha, beta, res.f, res.g,
                                    params.cost_spec)
            primal = diag.transport_cost + eps * diag.kl
            assert abs(dual - primal) <= 1e-8 * (1.0 + abs(dual))
            assert diag.marginal_err_l1 <= 1e-10


# ---------------------------------------------------------------------------
# 6. analytic gradients match central finite differences
# ---------------------------------------------------------------------------


def test_criterion_06_gradients_match_finite_differences():
    with criterion(6, "gradients_match_finite_differences"):
        params = SolverParams(epsilon=0.1, p=2, tol=1e-13, max_iters=20000)

        def loss_fn(a, b):
            return sd.sinkhorn_divergence(a, b, params).value

        for s in range(20):
            rng = np.random.default_rng(400 + s)
            n = int(rng.integers(3, 31))
            m = int(rng.integers(3, 31))
            dim = int(rng.integers(1, 4))
            alpha = sd.from_arrays(rng.dirichlet(np.ones(n)),
                                   rng.uniform(0, 1, (n, dim)))
            beta = sd.from_arrays(rng.dirichlet(np.ones(m)),
                                  rng.uniform(0, 1, (m, dim)))
            grad = sd.sinkhorn_gradient(alpha, beta, params)
            fd_w, fd_x = finite_diff_gradient(loss_fn, alpha, beta, h=1e-5)
            got_w = grad.d_weights - grad.d_weights[0]
            rel_w = (np.abs(got_w - fd_w).max()
                     / max(1.0, np.abs(fd_w).max()))
            rel_x = (np.abs(grad.d_positions - fd_x).max()
                     / max(1.0, np.abs(fd_x).max()))
            assert rel_w <= 1e-4
            assert rel_x <= 1e-4


# ---------------------------------------------------------------------------
# 7. self-transport potential solves the variational characterization
# ---------------------------------------------------------------------------


def test_criterion_07_self_transport_matches_variational_oracle():
    with criterion(7, "self_transport_matches_variational_oracle"):
        for s in range(3):
            rng = np.random.default_rng(700 + s)
            alpha = random_measure(rng, 10, 2)
            for eps in (0.5, 1.0):
                spec = sd.CostSpec(2, eps)
                sym = sinkhorn_symmetric(
                    alpha, SolverParams(epsilon=eps, p=2, tol=1e-13))
                assert sym.converged
                from_potential = (-float(np.dot(alpha.weights, sym.potential))
                                  / eps + 0.5)
                oracle = negentropy_variational(alpha, spec)
                assert oracle.converged
                assert abs(from_potential - oracle.value) <= 1e-6


# ---------------------------------------------------------------------------
# 8. iteration budgets at the shipped stopping rules
# ---------------------------------------------------------------------------


def test_criterion_08_iteration_budgets():
    with criterion(8, "iteration_budgets"):
        # (a) the self-transport solve (gauge-free step with a secant
        #     extrapolation) reaches max-norm 1e-6 within 20 updates across
        #     blur scales and sizes
        idx = 0
        for eps in (0.05, 0.1, 0.3, 1.0):
            for n in (100, 500, 1000):
                rng = np.random.default_rng(900 + idx)
                idx += 1
                alpha = sd.from_arrays(np.full(n, 1.0 / n),
                                       rng.uniform(0, 1, (n, 2)))
                res = sinkhorn_symmetric(
                    alpha, SolverParams(epsilon=eps, p=1, tol=1e-6,
                                        symmetric_max_iters=30))
                assert res.converged and res.iterations <= 20, (eps, n)
        # (b) the alternating solver converges within 20 iterations at
        #     moderate blur
        for j, eps in enumerate((0.2, 0.3, 0.5, 1.0)):
            rng = np.random.default_rng(950 + j)
            a = sd.from_arrays(np.full(500, 1 / 500),
                               rng.uniform(0, 1, (500, 2)))
            b = sd.from_arrays(np.full(500, 1 / 500),
                               rng.uniform(0, 1, (500, 2)))
            res = sinkhorn(a, b, SolverParams(epsilon=eps, p=1, tol=1e-6,
                                              max_iters=30))
            assert res.converged and res.iterations <= 20, eps
        # (c) at small blur, 20 iterations already pin the dual value to
        #     three digits even though the potentials keep drifting
        for j, eps in enumerate((0.05, 0.1)):
            rng = np.random.default_rng(970 + j)
            a = sd.from_arrays(np.full(500, 1 / 500),
                               rng.uniform(0, 1, (500, 2)))
            b = sd.from_arrays(np.full(500, 1 / 500),
                               rng.uniform(0, 1, (500, 2)))
            capped = sinkhorn(a, b, SolverParams(epsilon=eps, p=1,
                                                 tol=1e-300, max_iters=20))
            ref = sinkhorn(a, b, SolverParams(epsilon=eps, p=1, tol=1e-9,
                                              max_iters=50000))
            assert ref.converged
            v20 = dual_value(a, b, capped.f, capped.g)
            vref = dual_value(a, b, ref.f, ref.g)
            assert abs(v20 - vref) <= 1e-3 * (1.0 + abs(vref))


# ---------------------------------------------------------------------------
# 9. the streaming reduction is faithful and stays within memory
# ---------------------------------------------------------------------------


def test_criterion_09_streaming_fidelity_and_memory():
    with criterion(9, "streaming_fidelity_and_memory"):
        # fidelity: streaming equals dense to a few ulps on random problems
        for s in range(6):
            rng = np.random.default_rng(600 + s)
            n = int(rng.integers(1, 400))
            m = int(rng.integers(1, 400))
            xs = rng.uniform(-1, 1, (n, 2))
            ys = rng.uniform(-1, 1, (m, 2))
            logw = np.log(rng.dirichlet(np.ones(m)))
            pot = rng.normal(0, 1, m)
            spec = sd.CostSpec(int(rng.choice([1, 2])), 0.1)
            tile = int(rng.integers(1, 258))
            a = lse_rows(ReductionPlan(n, m, tile_size=tile,
                                       mode="streaming"),
                         logw, pot, ys, xs, spec)
            b = lse_rows(ReductionPlan(n, m, tile_size=tile, mode="dense"),
                         logw, pot, ys, xs, spec)
            assert max_ulp_diff(a, b) <= 4
        # memory: a 20000 x 20000 reduction never materializes the pair
        # matrix (3.2 GB); the streaming working set stays in the megabytes
        n = m = 20000
        rng = np.random.default_rng(606)
        xs = rng.uniform(0, 1, (n, 2))
        ys = rng.uniform(0, 1, (m, 2))
        logw = np.log(np.full(m, 1.0 / m))
        engine.reset_high_water()
        t0 = time.perf_counter()
        out = lse_rows(ReductionPlan(n, m, mode="streaming"), logw,
                       np.zeros(m), ys, xs, sd.CostSpec(2, 0.1))
        elapsed = time.perf_counter() - t0
        assert out.shape == (n,)
        assert np.all(np.isfinite(out))
        stats = engine.last_stats()
        assert stats.mode == "streaming"
        assert stats.pair_buffer_bytes <= 256 * 256 * 8
        assert stats.peak_bytes < n * m * 8 / 10
        assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 10. particle flows: entropic shrinkage vs debiased convergence
# ---------------------------------------------------------------------------


def test_criterion_10_flow_reaches_target():
    with criterion(10, "flow_reaches_target"):
        rng = np.random.default_rng(12)
        n = 500
        alpha = sd.from_arrays(np.full(n, 1.0 / n),
                               rng.uniform(0.0, 0.2, (n, 1)))
        beta = sd.from_arrays(np.full(n, 1.0 / n),
                              rng.uniform(0.6, 1.0, (n, 1)))
        params = SolverParams(epsilon=0.1, p=1, tol=1e-6, max_iters=2000)
        kernel = sd.MmdKernelSpec("energy")
        initial_gap = sd.mmd(alpha, beta, kernel).value

        # raw transport flow: reaches the target region but shrinks it
        raw = run_flow(alpha, beta, FlowConfig(
            loss="ot_eps", params=params, dt=0.01, t_end=5.0,
            record_times=(0.0, 5.0)))
        raw_std = float(np.std(raw.final_positions[:, 0]))
        beta_std = float(np.std(beta.positions[:, 0]))
        assert raw_std < 0.8 * beta_std

        # debiased flow: matches the target in energy distance
        debiased = run_flow(alpha, beta, FlowConfig(
            loss="sinkhorn", params=params, dt=0.01, t_end=5.0,
            record_times=(0.0, 5.0)))
        final = sd.from_arrays(alpha.weights, debiased.final_positions)
        final_gap = sd.mmd(final, beta, kernel).value
        assert final_gap < 0.01 * initial_gap


# ---------------------------------------------------------------------------
# 11. the soft minimum: frozen value, limits, and measure consistency
# ---------------------------------------------------------------------------


def test_criterion_11_soft_minimum_probes():
    with criterion(11, "soft_minimum_probes"):
        # frozen reference: uniform weights on values {0, 1}, unit smoothing
        got = soft_min(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 1.0)
        assert abs(got - 0.37988549304172247537) <= 1e-15
        # limits
        w = np.array([0.3, 0.3, 0.4])
        v = np.array([2.0, -1.0, 0.5])
        assert abs(soft_min(w, v, 1e-6) - v.min()) <= 1e-4
        assert abs(soft_min(w, v, 1e6) - float(np.dot(w, v))) <= 1e-4
        # shift equivariance
        base = soft_min(w, v, 0.3)
        assert abs(soft_min(w, v + 4.5, 0.3) - (base + 4.5)) <= 1e-12
        # measure-level evaluation reproduces the ground cost on a point mass
        alpha = sd.from_arrays([1.0], [[0.0, 0.0]])
        out = softmin(alpha, np.zeros(1), sd.CostSpec(2, 0.2),
                      np.array([[3.0, 4.0]]))
        assert abs(out[0] - 25.0) <= 1e-12
        # kernel loss brute-force agreement rides along as a probe of the
        # same reduction machinery
        rng = np.random.default_rng(55)
        a = random_measure(rng, 60, 2)
        b = random_measure(rng, 60, 2)
        kernel = sd.MmdKernelSpec("gaussian", sigma=0.4)
        assert sd.mmd(a, b, kernel).value == pytest.approx(
            mmd_bruteforce(a, b, kernel), rel=1e-12, abs=1e-14)
