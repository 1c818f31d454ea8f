"""Reduction engine: streaming and dense paths must agree to a few ulps for
every operation (and bit for bit where row blocks are cut differently),
results must be independent of threading, the scalar soft-minimum must
satisfy its limit laws, and allocation accounting must reflect the streaming
memory model."""

import sys
import warnings

import numpy as np
import pytest
import scipy.special

import sinkdiv as sd
from sinkdiv import engine
from sinkdiv.engine import (
    ReductionPlan,
    exp_grad_rows,
    kernel_grad_rows,
    kernel_rows,
    lse_rows,
    lse_rows_with_grad,
    soft_min,
    softmin,
)

from conftest import max_ulp_diff, worker_threads

ULP_BOUND = 4


def _random_problem(rng, max_n=300):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, 4))
    xs = rng.uniform(-1, 1, (n, d))
    ys = rng.uniform(-1, 1, (m, d))
    logw = np.log(rng.dirichlet(np.ones(m)))
    pot = rng.normal(0, 1, m)
    p = int(rng.choice([1, 2]))
    eps = float(rng.choice([0.01, 0.1, 1.0]))
    tile = int(rng.integers(1, 258))
    return n, m, xs, ys, logw, pot, sd.CostSpec(p, eps), tile


# ---------------------------------------------------------------------------
# independent reference: scipy log-sum-exp
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_lse_rows_matches_scipy_reference(seed):
    rng = np.random.default_rng(seed)
    n, m, xs, ys, logw, pot, spec, tile = _random_problem(rng, max_n=120)
    from sinkdiv.costs import cost_block
    t = (logw + pot / spec.epsilon)[None, :] - cost_block(spec, xs, ys) / spec.epsilon
    want = scipy.special.logsumexp(t, axis=1)
    got = lse_rows(ReductionPlan(n, m, tile_size=tile), logw, pot, ys, xs, spec)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# streaming == dense within a few ulps, all operations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_streaming_equals_dense_lse(seed):
    rng = np.random.default_rng(100 + seed)
    n, m, xs, ys, logw, pot, spec, tile = _random_problem(rng)
    a = lse_rows(ReductionPlan(n, m, tile_size=tile, mode="streaming"),
                 logw, pot, ys, xs, spec)
    b = lse_rows(ReductionPlan(n, m, tile_size=tile, mode="dense"),
                 logw, pot, ys, xs, spec)
    assert max_ulp_diff(a, b) <= ULP_BOUND


@pytest.mark.parametrize("seed", range(6))
def test_streaming_equals_dense_lse_with_grad(seed):
    rng = np.random.default_rng(200 + seed)
    n, m, xs, ys, logw, pot, spec, tile = _random_problem(rng, max_n=200)
    l1, g1 = lse_rows_with_grad(
        ReductionPlan(n, m, tile_size=tile, mode="streaming"),
        logw, pot, ys, xs, spec)
    l2, g2 = lse_rows_with_grad(
        ReductionPlan(n, m, tile_size=tile, mode="dense"),
        logw, pot, ys, xs, spec)
    assert max_ulp_diff(l1, l2) <= ULP_BOUND
    assert max_ulp_diff(g1, g2) <= ULP_BOUND


@pytest.mark.parametrize("seed", range(6))
def test_streaming_equals_dense_exp_grad(seed):
    rng = np.random.default_rng(300 + seed)
    n, m, xs, ys, logw, pot, spec, tile = _random_problem(rng, max_n=200)
    row_pot = rng.normal(0, 1, n)
    a = exp_grad_rows(ReductionPlan(n, m, tile_size=tile, mode="streaming"),
                      logw, row_pot, ys, xs, spec)
    b = exp_grad_rows(ReductionPlan(n, m, tile_size=tile, mode="dense"),
                      logw, row_pot, ys, xs, spec)
    assert max_ulp_diff(a, b) <= ULP_BOUND


@pytest.mark.parametrize("kind", ["energy", "gaussian", "laplacian"])
@pytest.mark.parametrize("seed", range(3))
def test_streaming_equals_dense_kernel_ops(kind, seed):
    rng = np.random.default_rng(400 + seed)
    n, m, xs, ys, logw, pot, spec, tile = _random_problem(rng, max_n=200)
    w = np.exp(logw)
    kspec = sd.MmdKernelSpec(kind, sigma=0.7)
    a = kernel_rows(ReductionPlan(n, m, tile_size=tile, mode="streaming"),
                    w, ys, xs, kspec)
    b = kernel_rows(ReductionPlan(n, m, tile_size=tile, mode="dense"),
                    w, ys, xs, kspec)
    assert max_ulp_diff(a, b) <= ULP_BOUND
    ga = kernel_grad_rows(ReductionPlan(n, m, tile_size=tile, mode="streaming"),
                          w, ys, xs, kspec)[1]
    gb = kernel_grad_rows(ReductionPlan(n, m, tile_size=tile, mode="dense"),
                          w, ys, xs, kspec)[1]
    assert max_ulp_diff(ga, gb) <= ULP_BOUND


@pytest.mark.parametrize("kind", ["energy", "gaussian", "laplacian"])
def test_kernel_grad_rows_returns_the_bits_of_kernel_rows(kind):
    # 300 rows against 250 columns: two row blocks in streaming mode
    rng = np.random.default_rng(410)
    n, m = 300, 250
    xs, ys = rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (m, 2))
    w, kspec = rng.dirichlet(np.ones(m)), sd.MmdKernelSpec(kind, sigma=0.7)
    for mode in ("streaming", "dense"):
        for tile in (1, 256):
            plan = ReductionPlan(n, m, tile_size=tile, mode=mode)
            for threads in (1, 2):
                with worker_threads(threads):
                    rows, grad = kernel_grad_rows(plan, w, ys, xs, kspec)
                    want = kernel_rows(plan, w, ys, xs, kspec)
                assert np.array_equal(rows, want), (mode, tile, threads)
                assert grad.shape == (n, 2)


def test_extreme_tile_sizes_change_nothing():
    rng = np.random.default_rng(500)
    n, m = 97, 145
    xs = rng.uniform(-1, 1, (n, 2))
    ys = rng.uniform(-1, 1, (m, 2))
    logw = np.log(rng.dirichlet(np.ones(m)))
    pot = rng.normal(0, 1, m)
    spec = sd.CostSpec(1, 0.1)
    ref = lse_rows(ReductionPlan(n, m, tile_size=m), logw, pot, ys, xs, spec)
    for tile in (1, 2, 7, 64, 144, 145, 257):
        got = lse_rows(ReductionPlan(n, m, tile_size=tile), logw, pot, ys, xs, spec)
        assert max_ulp_diff(got, ref) <= ULP_BOUND


# ---------------------------------------------------------------------------
# determinism across threads and batching
# ---------------------------------------------------------------------------


def test_thread_count_does_not_change_bits():
    rng = np.random.default_rng(600)
    n, m = 700, 411
    xs = rng.uniform(-1, 1, (n, 3))
    ys = rng.uniform(-1, 1, (m, 3))
    logw = np.log(rng.dirichlet(np.ones(m)))
    pot = rng.normal(0, 1, m)
    row_pot = rng.normal(0, 1, n)
    w = np.exp(logw)
    for p, kind in ((2, "gaussian"), (1, "laplacian"), (1, "energy")):
        spec = sd.CostSpec(p, 0.1)
        kspec = sd.MmdKernelSpec(kind, sigma=0.7)
        calls = {
            "lse_rows": lambda plan: [lse_rows(plan, logw, pot, ys, xs, spec)],
            "lse_rows_with_grad": lambda plan: list(
                lse_rows_with_grad(plan, logw, pot, ys, xs, spec)),
            "exp_grad_rows": lambda plan: [
                exp_grad_rows(plan, logw, row_pot, ys, xs, spec)],
            "kernel_rows": lambda plan: [kernel_rows(plan, w, ys, xs, kspec)],
            "kernel_grad_rows": lambda plan: list(kernel_grad_rows(plan, w, ys, xs, kspec)),
        }
        for name, call in calls.items():
            ref = call(ReductionPlan(n, m))
            for threads in (2, 4, 7):
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)  # switch workers as often as possible
                try:
                    with worker_threads(threads):
                        got = call(ReductionPlan(n, m))
                finally:
                    sys.setswitchinterval(interval)
                for g, r in zip(got, ref):
                    assert np.array_equal(g, r), (name, p, kind, threads)


def test_workers_keep_the_callers_floating_point_error_state():
    # coordinates whose squared distances overflow, in two row blocks
    xs = np.full((300, 1), 1e200)
    ys = np.full((300, 1), -1e200)
    kspec = sd.MmdKernelSpec("energy")
    with worker_threads(2), warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            rows = kernel_rows(ReductionPlan(300, 300), np.full(300, 1 / 300), ys, xs, kspec)
        assert np.all(np.isinf(rows))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            kernel_rows(ReductionPlan(300, 300), np.full(300, 1 / 300), ys, xs, kspec)


# (n, m): blocks of 65536 // m rows; the last block short, a single column,
# exactly one full block plus one row, and rows longer than the pair budget
# (one-row blocks)
@pytest.mark.parametrize("n, m, d", [(500, 300, 2), (1000, 1, 1), (257, 256, 3),
                                     (3, 70000, 2)])
def test_streaming_equals_dense_bits_across_block_boundaries(n, m, d):
    rng = np.random.default_rng(602 + n)
    xs = rng.uniform(-1, 1, (n, d))
    ys = rng.uniform(-1, 1, (m, d))
    logw = np.log(rng.dirichlet(np.ones(m)))
    pot = rng.normal(0, 1, m)
    for p in (1, 2):
        spec = sd.CostSpec(p, 0.05)
        a = lse_rows(ReductionPlan(n, m, tile_size=97, mode="streaming"),
                     logw, pot, ys, xs, spec)
        rows = min(n, max(1, 65536 // m))
        assert engine.last_stats().pair_buffer_bytes == rows * m * 8
        b = lse_rows(ReductionPlan(n, m, tile_size=97, mode="dense"),
                     logw, pot, ys, xs, spec)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# lse_rows' exp floor: the bits of unclamped arithmetic
# ---------------------------------------------------------------------------


def _terms_1d(col, row, ys, xs, spec):
    """``col_j + row_i - C_ij / eps`` and the scale of ``dC/dx_i``, by the
    engine's arithmetic, for 1D points and ``p = 1``."""
    diff = xs[:, 0, None] - ys[None, :, 0]
    dist = np.sqrt(diff * diff)
    scale = np.zeros_like(dist)
    np.divide(1.0, dist, out=scale, where=dist > 0.0)
    return col + (row[:, None] - dist / spec.epsilon), diff, scale


def _tile_sums(block, tile):
    acc = np.zeros(block.shape[0])
    for j0 in range(0, block.shape[1], tile):
        acc += block[:, j0:j0 + tile].sum(axis=1)
    return acc


def test_lse_rows_exp_floor_keeps_the_bits_of_unclamped_sums():
    # 2,000 rows in [0, 0.005] against five 16-column tiles at eps = 1e-3:
    # the tile of each row's maximum, two tiles of shifted terms in
    # [-746, -707), where exp is subnormal, and two below -746, where it is 0
    rng = np.random.default_rng(700)
    xs = rng.uniform(0.0, 0.005, (2000, 1))
    ys = np.concatenate([rng.uniform(0.720, 0.728, 16), rng.uniform(0.8, 0.9, 16),
                         np.linspace(0.0, 0.005, 16), rng.uniform(0.730, 0.738, 16),
                         rng.uniform(1.0, 2.0, 16)])[:, None]
    logw = np.full(80, np.log(1 / 80))
    pot = rng.normal(0.0, 1e-4, 80)
    spec = sd.CostSpec(1, 1e-3)
    n, m, tile = len(xs), len(ys), 16
    t, _, _ = _terms_1d(logw + pot / spec.epsilon, np.zeros(n), ys, xs, spec)
    mx = t.max(axis=1)
    shifted = t - mx[:, None]
    tiles = [shifted[:, j0:j0 + tile] for j0 in range(0, m, tile)]
    assert all(np.all((s < -707) & (s >= -746)) for s in (tiles[0], tiles[3]))
    assert all(np.all(s < -746) for s in (tiles[1], tiles[4]))
    want = mx + np.log(_tile_sums(np.exp(shifted), tile))
    assert engine._may_underflow(logw + pot / spec.epsilon,
                                 engine.CostStore(ReductionPlan(n, m), ys, xs, spec).span)

    for mode in ("streaming", "dense"):
        for threads in (1, 2):
            plan = ReductionPlan(n, m, tile_size=tile, mode=mode)
            store = engine.CostStore(plan, ys, xs, spec)
            with worker_threads(threads):
                got = [lse_rows(plan, logw, pot, ys, xs, spec),
                       lse_rows(plan, logw, pot, ys, xs, spec, store=store),
                       lse_rows(plan, logw, pot, ys, xs, spec, store=store)]
            for g in got:
                assert np.array_equal(g, want), (mode, threads)


def test_gradient_reductions_are_never_clamped():
    # a self-extension of separated atoms: each row's maximum term is its own
    # atom, with coordinate difference 0, and its other terms underflow
    xs = np.array([[0.0], [0.0005], [1.0], [2.5]])
    n = len(xs)
    spec = sd.CostSpec(1, 1e-3)
    logw = np.full(n, np.log(1 / n))
    plan = ReductionPlan(n, n)
    _, grad = lse_rows_with_grad(plan, logw, np.zeros(n), xs, xs, spec)
    assert np.all(grad[2:] == 0.0)  # about -1e-306 if the floor were applied

    # exp(mx) lifts the row's terms back: a raised e^-707 would read about e^-18
    row_pot = np.array([0.0, 0.0, 0.69, 0.0])
    t, diff, scale = _terms_1d(logw, row_pot / spec.epsilon, xs, xs, spec)
    mx = t.max(axis=1)
    want = np.exp(mx)[:, None] * _tile_sums(diff * scale * np.exp(t - mx[:, None]), 256)[:, None]
    got = exp_grad_rows(plan, logw, row_pot, xs, xs, spec)
    assert np.array_equal(got, want)
    assert np.all(got[2:] == 0.0)


def test_exp_floor_guard_engages_only_where_exp_can_underflow():
    rng = np.random.default_rng(701)

    def guarded(alpha, beta, params):
        spec = params.cost_spec
        cross = sd.sinkhorn(alpha, beta, params)
        auto = sd.sinkhorn_symmetric(alpha, params)
        xs, ys = alpha.positions, beta.positions
        return [engine._may_underflow(log_w + pot / spec.epsilon, engine.CostStore(
                    ReductionPlan(len(rows), len(cols)), cols, rows, spec).span)
                for log_w, pot, cols, rows in (
                    (beta.log_weights, cross.g, ys, xs),
                    (alpha.log_weights, cross.f, xs, ys),
                    (alpha.log_weights, auto.potential, xs, xs))]

    # small-blur-1d: Dirichlet weights on [0, 1] at eps = 1e-3, p = 1
    a = sd.from_arrays(rng.dirichlet(np.ones(100)), rng.uniform(0, 1, (100, 1)))
    b = sd.from_arrays(rng.dirichlet(np.ones(100)), rng.uniform(0, 1, (100, 1)))
    assert guarded(a, b, sd.SolverParams(epsilon=1e-3, p=1, tol=1e-8, max_iters=50000)) == [
        True] * 3
    # cloud-2d: the unit square against a ring inside it at eps = 0.1, p = 2
    theta = rng.uniform(0, 2 * np.pi, 200)
    ring = np.c_[0.6 + 0.3 * np.cos(theta), 0.5 + 0.3 * np.sin(theta)]
    a = sd.from_arrays(np.full(200, 1 / 200), rng.uniform(0, 1, (200, 2)))
    b = sd.from_arrays(np.full(200, 1 / 200), ring)
    assert guarded(a, b, sd.SolverParams(epsilon=0.1, p=2, tol=1e-6)) == [False] * 3
    # flow-1d: [0, 0.2] against [0.6, 1] at eps = 0.1, p = 1
    a = sd.from_arrays(np.full(200, 1 / 200), rng.uniform(0, 0.2, (200, 1)))
    b = sd.from_arrays(np.full(200, 1 / 200), rng.uniform(0.6, 1, (200, 1)))
    assert guarded(a, b, sd.SolverParams(epsilon=0.1, p=1, tol=1e-6)) == [False] * 3


# ---------------------------------------------------------------------------
# scalar soft-minimum properties
# ---------------------------------------------------------------------------


def test_soft_min_single_value_is_exact():
    assert soft_min(np.array([1.0]), np.array([3.7]), 0.2) == pytest.approx(
        3.7, abs=1e-15)


def test_soft_min_frozen_two_point_value():
    # uniform weights on values {0, 1} at unit smoothing; independently
    # computed to 20 digits: log 2 - log(1 + exp(-1))
    got = soft_min(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 1.0)
    assert got == pytest.approx(0.37988549304172247537, abs=1e-15)


def test_soft_min_constant_shift_equivariance():
    rng = np.random.default_rng(700)
    w = rng.dirichlet(np.ones(9))
    v = rng.normal(0, 2, 9)
    for eps in (0.01, 1.0, 50.0):
        base = soft_min(w, v, eps)
        shifted = soft_min(w, v + 11.25, eps)
        assert shifted == pytest.approx(base + 11.25, rel=1e-13, abs=1e-12)


def test_soft_min_lies_between_min_and_mean_and_is_monotone_in_values():
    rng = np.random.default_rng(701)
    w = rng.dirichlet(np.ones(7))
    v = rng.normal(0, 1, 7)
    for eps in (0.05, 0.5, 5.0):
        s = soft_min(w, v, eps)
        assert v.min() - 1e-12 <= s <= float(np.dot(w, v)) + 1e-12
        # raising any single value cannot lower the soft minimum
        v2 = v.copy()
        v2[3] += 0.5
        assert soft_min(w, v2, eps) >= s - 1e-12


def test_soft_min_small_smoothing_approaches_min():
    w = np.array([0.25, 0.25, 0.5])
    v = np.array([1.0, 2.0, 0.25])
    assert soft_min(w, v, 1e-6) == pytest.approx(0.25, abs=1e-4)


def test_soft_min_large_smoothing_approaches_weighted_mean():
    w = np.array([0.25, 0.25, 0.5])
    v = np.array([1.0, 2.0, 0.25])
    assert soft_min(w, v, 1e6) == pytest.approx(float(np.dot(w, v)), abs=1e-4)


# ---------------------------------------------------------------------------
# measure-level soft-minimum
# ---------------------------------------------------------------------------


def test_softmin_on_dirac_reproduces_cost():
    alpha = sd.from_arrays([1.0], [[0.0, 0.0]])
    spec = sd.CostSpec(2, 0.3)
    queries = np.array([[1.0, 1.0], [2.0, 0.0]])
    got = softmin(alpha, np.zeros(1), spec, queries)
    assert np.allclose(got, [2.0, 4.0], atol=1e-12)


def test_softmin_matches_scalar_composition():
    rng = np.random.default_rng(702)
    alpha = sd.from_arrays(rng.dirichlet(np.ones(5)), rng.normal(size=(5, 2)))
    phi = rng.normal(size=5)
    spec = sd.CostSpec(1, 0.7)
    queries = rng.normal(size=(3, 2))
    got = softmin(alpha, phi, spec, queries)
    for j, ypt in enumerate(queries):
        costs = np.array([sd.cost(spec, x, ypt) for x in alpha.positions])
        want = soft_min(alpha.weights, costs - phi, spec.epsilon)
        assert got[j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_softmin_frozen_uniform_pair_value():
    alpha = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    got = softmin(alpha, np.zeros(2), sd.CostSpec(1, 1.0), np.array([[0.0]]))
    assert got[0] == pytest.approx(0.37988549304172247537, abs=1e-15)


# ---------------------------------------------------------------------------
# validation and allocation accounting
# ---------------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(sd.DegenerateMeasure):
        ReductionPlan(0, 4)
    with pytest.raises(sd.InvalidInput):
        ReductionPlan(4, 4, tile_size=0)
    with pytest.raises(sd.InvalidInput):
        ReductionPlan(4, 4, mode="sparse")
    for bad in (0, -1, 2.5):
        with pytest.raises(sd.InvalidInput):
            sd.set_threads(bad)
    assert sd.set_threads(2) == 1
    assert sd.set_threads(1) == 2


def test_shape_mismatch_rejected():
    xs = np.zeros((3, 2))
    ys = np.zeros((4, 2))
    spec = sd.CostSpec(1, 1.0)
    with pytest.raises(sd.InvalidInput):
        lse_rows(ReductionPlan(3, 5), np.zeros(4), np.zeros(4), ys, xs, spec)
    with pytest.raises(sd.InvalidInput):
        lse_rows(ReductionPlan(3, 4), np.zeros(4), np.full(4, np.nan), ys, xs, spec)


def _lse_on(targets, sources):
    return lse_rows(ReductionPlan(len(sources), len(targets)), np.zeros(len(targets)),
                    np.zeros(len(targets)), targets, sources, sd.CostSpec(2, 1.0))


@pytest.mark.parametrize("call, error, match", [
    (lambda: soft_min([0.5, 0.5], [0.0], 1.0), sd.InvalidInput, "matching vectors"),
    (lambda: soft_min([], [], 1.0), sd.DegenerateMeasure, "empty support"),
    (lambda: soft_min([1.0], [np.nan], 1.0), sd.InvalidInput, "NaN"),
    (lambda: soft_min([1.0, 0.0], [0.0, 1.0], 1.0), sd.InvalidInput, "strictly positive"),
    (lambda: soft_min([1.0], [0.0], 0.0), sd.InvalidInput, "epsilon"),
    (lambda: _lse_on(np.zeros(4), np.zeros((3, 2))), sd.InvalidInput, r"^targets must be \(n, d\)"),
    (lambda: _lse_on(np.zeros((4, 2)), np.zeros((3, 3))), sd.InvalidInput, "dimension mismatch"),
    (lambda: _lse_on(np.zeros((4, 0)), np.zeros((3, 0))), sd.InvalidInput, "d >= 1"),
], ids=["soft-min-shapes", "soft-min-empty", "soft-min-nan", "soft-min-weight",
        "soft-min-epsilon", "1d-points", "mismatched-dimensions", "0d-points"])
def test_input_checks_raise_their_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_every_vector_of_every_reduction_is_checked_by_name():
    # 3 rows against 4 columns: row vectors have length 3, column vectors 4
    rng = np.random.default_rng(804)
    xs, ys = rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (4, 2))
    plan, spec, kspec = ReductionPlan(3, 4), sd.CostSpec(2, 0.1), sd.MmdKernelSpec("energy")
    store = engine.CostStore(plan, ys, xs, spec)
    # reduction: (call taking its vectors, the vectors' names and lengths)
    reductions = {
        "lse_rows": (lambda a, b: lse_rows(plan, a, b, ys, xs, spec), ("logw", 4), ("pot", 4)),
        "lse_rows, store": (lambda a, b: lse_rows(plan, a, b, ys, xs, spec, store=store),
                            ("logw", 4), ("pot", 4)),
        "lse_rows_with_grad": (lambda a, b: lse_rows_with_grad(plan, a, b, ys, xs, spec),
                               ("logw", 4), ("pot", 4)),
        "lse_rows_with_grad, store": (lambda a, b: lse_rows_with_grad(plan, a, b, ys, xs, spec,
                                                                      store=store),
                                      ("logw", 4), ("pot", 4)),
        "exp_grad_rows": (lambda a, b: exp_grad_rows(plan, a, b, ys, xs, spec),
                          ("colw_log", 4), ("row_pot", 3)),
        "exp_grad_rows, store": (lambda a, b: exp_grad_rows(plan, a, b, ys, xs, spec,
                                                            store=store),
                                 ("colw_log", 4), ("row_pot", 3)),
        "kernel_rows": (lambda a: kernel_rows(plan, a, ys, xs, kspec), ("weights", 4)),
        "kernel_grad_rows": (lambda a: kernel_grad_rows(plan, a, ys, xs, kspec), ("weights", 4)),
    }
    for op, (call, *vectors) in reductions.items():
        good = [np.full(length, 0.25) for _, length in vectors]
        call(*good)
        for k, (name, length) in enumerate(vectors):
            nan = np.full(length, 0.25)
            nan[-1] = np.nan
            for bad, what in ((nan, "NaN"), (np.full(length + 1, 0.25), "shape")):
                with pytest.raises(sd.InvalidInput, match=f"^{name} .*{what}"):
                    call(*good[:k], bad, *good[k + 1:])


def test_empty_support_rejected():
    spec = sd.CostSpec(1, 1.0)
    with pytest.raises(sd.DegenerateMeasure):
        lse_rows(ReductionPlan(1, 1), np.zeros(0), np.zeros(0),
                 np.zeros((0, 2)), np.zeros((1, 2)), spec)


def test_streaming_accounting_stays_far_below_pair_matrix():
    rng = np.random.default_rng(800)
    n, m = 3000, 2000
    xs = rng.uniform(0, 1, (n, 2))
    ys = rng.uniform(0, 1, (m, 2))
    logw = np.log(rng.dirichlet(np.ones(m)))
    engine.reset_high_water()
    lse_rows(ReductionPlan(n, m, mode="streaming"), logw, np.zeros(m),
             ys, xs, sd.CostSpec(1, 0.1))
    stats = engine.last_stats()
    assert stats.op == "lse_rows"
    assert stats.mode == "streaming"
    assert stats.pair_buffer_bytes <= 256 * 256 * 8
    assert stats.peak_bytes < n * m * 8 / 10
    hw = engine.high_water()
    assert hw["peak_bytes"] == stats.peak_bytes


def test_dense_accounting_reports_full_matrix():
    rng = np.random.default_rng(801)
    n, m = 300, 200
    xs = rng.uniform(0, 1, (n, 2))
    ys = rng.uniform(0, 1, (m, 2))
    logw = np.log(rng.dirichlet(np.ones(m)))
    engine.reset_high_water()
    lse_rows(ReductionPlan(n, m, mode="dense"), logw, np.zeros(m),
             ys, xs, sd.CostSpec(1, 0.1))
    stats = engine.last_stats()
    assert stats.pair_buffer_bytes >= n * m * 8


def test_high_water_resets():
    engine.reset_high_water()
    assert engine.high_water()["peak_bytes"] == 0


def test_accounting_follows_the_formula_of_each_reduction():
    # 300 rows against 250 columns in 2D: blocks of 65536 // 250 = 262 rows,
    # so two workers take one block each
    rng = np.random.default_rng(802)
    n, m, d = 300, 250, 2
    xs, ys = rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (m, d))
    logw, pot, row_pot = np.log(rng.dirichlet(np.ones(m))), rng.normal(0, 1, m), rng.normal(0, 1, n)
    w, spec, kspec = np.exp(logw), sd.CostSpec(2, 0.1), sd.MmdKernelSpec("gaussian", 0.5)
    plan, pair = ReductionPlan(n, m), 262 * m * 8
    # op: (call, float64 entries of inputs and outputs, block buffers per worker)
    calls = {
        "lse_rows": (lambda: lse_rows(plan, logw, pot, ys, xs, spec), 2 * m + 2 * n, 2),
        "lse_rows_with_grad": (lambda: lse_rows_with_grad(plan, logw, pot, ys, xs, spec),
                               2 * m + 2 * n + n * d, 3),
        "exp_grad_rows": (lambda: exp_grad_rows(plan, logw, row_pot, ys, xs, spec),
                          m + 2 * n + n * d, 3),
        "kernel_rows": (lambda: kernel_rows(plan, w, ys, xs, kspec), m + n, 2),
        "kernel_grad_rows": (lambda: kernel_grad_rows(plan, w, ys, xs, kspec),
                             m + n + n * d, 3),
    }
    for threads in (1, 2):
        engine.reset_high_water()
        assert engine.high_water() == {"peak_bytes": 0, "pair_buffer_bytes": 0}
        most = 0
        with worker_threads(threads):
            for op, (call, entries, n_buf) in calls.items():
                call()
                peak = 8 * (n * d + m * d + entries) + threads * n_buf * pair
                assert engine.last_stats() == engine.ReductionStats(
                    op, "streaming", n, m, pair, peak), (op, threads)
                most = max(most, peak)
                assert engine.high_water() == {"peak_bytes": most, "pair_buffer_bytes": pair}
            store = engine.CostStore(plan, ys, xs, spec)
            lse_rows(plan, logw, pot, ys, xs, spec, store=store)
        # a store's calls count its kept costs and block buffers once
        assert store.nbytes == n * m * 8 + threads * 2 * pair
        assert engine.last_stats().peak_bytes == 8 * (n * d + m * d + 2 * m + 2 * n) + store.nbytes
        engine.reset_high_water()
        assert engine.high_water() == {"peak_bytes": 0, "pair_buffer_bytes": 0}
        assert isinstance(engine.last_stats(), engine.ReductionStats)


def test_cost_store_keeps_its_workers_block_buffers(monkeypatch):
    # blocks of 36,000 // 300 = 120 rows: 500 rows make five blocks in
    # streaming mode, for four workers, and one in dense mode
    rng = np.random.default_rng(803)
    n, m = 500, 300
    xs, ys = rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (m, 2))
    logw, spec = np.log(rng.dirichlet(np.ones(m))), sd.CostSpec(1, 0.05)
    monkeypatch.setattr(engine, "PAIR_BUDGET", 120 * m)
    shapes = []  # of every _aligned_empty call
    aligned_empty = engine._aligned_empty
    monkeypatch.setattr(engine, "_aligned_empty",
                        lambda shape: (shapes.append(shape), aligned_empty(shape))[1])
    interval = sys.getswitchinterval()
    for mode, rows, workers in (("streaming", 120, 4), ("dense", n, 1)):
        plan = ReductionPlan(n, m, tile_size=97, mode=mode)
        store = engine.CostStore(plan, ys, xs, spec)
        assert shapes == [(n, m)]  # the kept costs
        # thread counts in turn, each with a fresh potential (and so new bits)
        for call, threads in enumerate((1, 1, 4, 4, 1, 4)):
            pot = rng.normal(0, 1, m)
            sys.setswitchinterval(1e-6)  # switch workers as often as possible
            try:
                with worker_threads(threads):
                    want = lse_rows(plan, logw, pot, ys, xs, spec)
                    shapes.clear()
                    got = lse_rows(plan, logw, pot, ys, xs, spec, store=store)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(got, want), (mode, call)
            # a worker's buffers are made on its first call, then kept
            made = {0: 1, 2: workers - 1}.get(call, 0)
            assert shapes == [(2, rows, m)] * made, (mode, call)
        assert store.nbytes == n * m * 8 + workers * 2 * rows * m * 8
        shapes.clear()


@pytest.mark.parametrize("mode", ["streaming", "dense"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_kept_store_gives_gradient_reductions_the_bits_of_one_shot_calls(p, d, mode,
                                                                         monkeypatch):
    # blocks of 40 rows: 130 rows make four blocks in streaming mode; one
    # store serves plain rows before its first gradient, the other starts
    # with a gradient, which builds its blocks
    rng = np.random.default_rng(805 + 10 * p + d)
    n, m = 130, 90
    xs, ys = rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, (m, d))
    xs[7] = ys[3]  # coincident points: the p = 1 scale takes its subgradient 0
    logw, spec = np.log(rng.dirichlet(np.ones(m))), sd.CostSpec(p, 0.1)
    monkeypatch.setattr(engine, "PAIR_BUDGET", 40 * m)
    plan = ReductionPlan(n, m, tile_size=37, mode=mode)
    args = (ys, xs, spec)
    interval = sys.getswitchinterval()
    for first in ("lse_rows", "lse_rows_with_grad"):
        store = engine.CostStore(plan, *args)
        calls = [first] + ["lse_rows_with_grad", "exp_grad_rows", "lse_rows"] * 2
        for call, (op, threads) in enumerate(zip(calls, (1, 4, 2, 3, 1, 4, 2))):
            pot, row_pot = rng.normal(0, 1, m), rng.normal(0, 1, n)
            vecs = (logw, row_pot) if op == "exp_grad_rows" else (logw, pot)
            reduction = getattr(engine, op)
            sys.setswitchinterval(1e-6)  # switch workers as often as possible
            try:
                with worker_threads(threads):
                    want = reduction(plan, *vecs, *args)
                    got = reduction(plan, *vecs, *args, store=store)
            finally:
                sys.setswitchinterval(interval)
            for g, w in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, want))):
                assert np.array_equal(g, w), (first, call, op)
            assert store.ready
        # every worker's buffers grew to the three a gradient takes
        assert {len(bufs) for bufs in store.bufs.values()} == {3}
        # a store made from this spare takes its arrays; the spare then streams
        moved, kept = xs + 0.5, store.cost
        heir = engine.CostStore(plan, ys, moved, spec, spare=store)
        assert heir.cost is kept and (store.cost, store.bufs, store.ready) == (None, {}, False)
        for user, points in ((heir, moved), (store, xs)):
            want = lse_rows_with_grad(plan, logw, pot, ys, points, spec)
            got = lse_rows_with_grad(plan, logw, pot, ys, points, spec, store=user)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), first
