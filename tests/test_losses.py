"""Loss values and analytic gradients: closed forms on point masses, the
order relations between the divergences, agreement with the brute-force
kernel oracle, and finite-difference verification of every gradient."""

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv.losses import evaluate

from conftest import random_measure, random_pair, worker_threads
from oracles import finite_diff_gradient, mmd_bruteforce

TIGHT = sd.SolverParams(epsilon=0.1, p=2, tol=1e-13, max_iters=20000)


# ---------------------------------------------------------------------------
# point-mass closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("p", [1, 2])
def test_point_mass_losses_equal_ground_cost(eps, p):
    alpha = sd.from_arrays([1.0], [[0.0, 0.0]])
    beta = sd.from_arrays([1.0], [[3.0, 4.0]])
    cost = 5.0 ** p
    params = sd.SolverParams(epsilon=eps, p=p)
    assert sd.ot_eps(alpha, beta, params).value == pytest.approx(cost, abs=1e-12)
    assert sd.sinkhorn_divergence(alpha, beta, params).value == pytest.approx(
        cost, abs=1e-12)
    assert sd.hausdorff_divergence(alpha, beta, params).value == pytest.approx(
        cost, abs=1e-12)


def test_point_mass_energy_distance_is_euclidean():
    alpha = sd.from_arrays([1.0], [[0.0, 0.0]])
    beta = sd.from_arrays([1.0], [[3.0, 4.0]])
    got = sd.mmd(alpha, beta, sd.MmdKernelSpec("energy")).value
    assert got == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# behaviour at equality
# ---------------------------------------------------------------------------


def test_raw_transport_cost_is_biased_at_equality():
    alpha = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    val = sd.ot_eps(alpha, alpha, sd.SolverParams(epsilon=0.1, p=2)).value
    assert val > 1e-4  # the un-debiased cost does not vanish on itself


@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
def test_debiased_divergence_vanishes_at_equality(eps):
    alpha, _, _ = random_pair(seed=21, max_n=32)
    params = sd.SolverParams(epsilon=eps, p=2, tol=1e-12, max_iters=20000)
    val = sd.sinkhorn_divergence(alpha, alpha, params).value
    assert abs(val) <= 1e-12


def test_hausdorff_divergence_vanishes_at_equality():
    alpha, _, _ = random_pair(seed=22, max_n=32)
    params = sd.SolverParams(epsilon=0.1, p=1, tol=1e-12, max_iters=20000)
    val = sd.hausdorff_divergence(alpha, alpha, params).value
    assert abs(val) <= 1e-10


def test_kernel_discrepancy_is_exactly_zero_at_equality():
    alpha, _, _ = random_pair(seed=23, max_n=32)
    for kind in ("energy", "gaussian", "laplacian"):
        assert sd.mmd(alpha, alpha, sd.MmdKernelSpec(kind)).value == 0.0


# ---------------------------------------------------------------------------
# order relations between the divergences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_divergence_sandwich(seed):
    alpha, beta, _ = random_pair(seed=1000 + seed, max_n=24)
    for eps in (0.1, 1.0):
        params = sd.SolverParams(epsilon=eps, p=2, tol=1e-12, max_iters=20000)
        s = sd.sinkhorn_divergence(alpha, beta, params).value
        h = sd.hausdorff_divergence(alpha, beta, params).value
        assert s >= -1e-10
        assert h >= -1e-12
        assert h <= s + 1e-10


# ---------------------------------------------------------------------------
# kernel loss vs brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,sigma", [("energy", None), ("gaussian", 0.35),
                                        ("laplacian", 0.8)])
def test_kernel_loss_matches_bruteforce_oracle(kind, sigma):
    rng = np.random.default_rng(77)
    alpha = random_measure(rng, 200, 3)
    beta = random_measure(rng, 200, 3)
    kernel = (sd.MmdKernelSpec(kind) if sigma is None
              else sd.MmdKernelSpec(kind, sigma=sigma))
    got = sd.mmd(alpha, beta, kernel).value
    want = mmd_bruteforce(alpha, beta, kernel)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# gradients vs central finite differences
# ---------------------------------------------------------------------------


def _fd_check(analytic, alpha, beta, loss_fn, wtol, xtol):
    fd_w, fd_x = finite_diff_gradient(loss_fn, alpha, beta)
    got_w = analytic.d_weights - analytic.d_weights[0]
    scale_w = max(1.0, np.abs(fd_w).max())
    scale_x = max(1.0, np.abs(fd_x).max())
    assert np.abs(got_w - fd_w).max() / scale_w < wtol
    assert np.abs(analytic.d_positions - fd_x).max() / scale_x < xtol


def test_debiased_gradient_matches_finite_differences():
    alpha, beta, _ = random_pair(seed=31, max_n=10)
    grad = sd.sinkhorn_gradient(alpha, beta, TIGHT)

    def loss_fn(a, b):
        return sd.sinkhorn_divergence(a, b, TIGHT).value

    _fd_check(grad, alpha, beta, loss_fn, wtol=1e-4, xtol=1e-4)


def test_raw_transport_gradient_matches_finite_differences():
    alpha, beta, _ = random_pair(seed=32, max_n=10)
    _, grad, _, _ = evaluate("ot_eps", alpha, beta, params=TIGHT, want_grad=True)

    def loss_fn(a, b):
        return sd.ot_eps(a, b, TIGHT).value

    _fd_check(grad, alpha, beta, loss_fn, wtol=1e-4, xtol=1e-4)


@pytest.mark.parametrize("kind", ["energy", "gaussian", "laplacian"])
def test_kernel_gradient_matches_finite_differences(kind):
    alpha, beta, _ = random_pair(seed=33, max_n=12)
    kernel = sd.MmdKernelSpec(kind, sigma=0.6)
    grad = sd.mmd_gradient(alpha, beta, kernel)

    def loss_fn(a, b):
        return sd.mmd(a, b, kernel).value

    _fd_check(grad, alpha, beta, loss_fn, wtol=1e-6, xtol=1e-6)


def test_gradient_at_equality_is_flat():
    alpha, _, _ = random_pair(seed=34, max_n=16)
    grad = sd.sinkhorn_gradient(alpha, alpha, TIGHT)
    assert np.abs(grad.d_positions).max() < 1e-8
    spread = grad.d_weights.max() - grad.d_weights.min()
    assert spread < 1e-8


@pytest.mark.parametrize("p,want", [(2, np.array([-6.0, -8.0])),
                                    (1, np.array([-0.6, -0.8]))])
def test_point_mass_position_gradient_closed_form(p, want):
    # single atoms at distance 5: gradient of |x-y|^p in x
    alpha = sd.from_arrays([1.0], [[0.0, 0.0]])
    beta = sd.from_arrays([1.0], [[3.0, 4.0]])
    params = sd.SolverParams(epsilon=0.2, p=p, tol=1e-13)
    grad = sd.sinkhorn_gradient(alpha, beta, params)
    assert np.allclose(grad.d_positions[0], want, atol=1e-10)


# ---------------------------------------------------------------------------
# the detached-potential force of the symmetric divergence
# ---------------------------------------------------------------------------


def test_hausdorff_force_exact_on_point_masses():
    alpha = sd.from_arrays([1.0], [[1.0, 2.0]])
    beta = sd.from_arrays([1.0], [[4.0, 6.0]])
    params = sd.SolverParams(epsilon=0.3, p=2, tol=1e-13)
    value, grad, _, _ = evaluate("hausdorff", alpha, beta, params=params,
                                 want_grad=True)
    assert value == pytest.approx(25.0, abs=1e-10)
    assert np.allclose(grad.d_positions[0], [-6.0, -8.0], atol=1e-10)


def test_hausdorff_force_is_a_descent_direction():
    alpha, beta, _ = random_pair(seed=35, max_n=20, uniform_weights=True)
    params = sd.SolverParams(epsilon=0.1, p=2, tol=1e-12, max_iters=20000)
    value, grad, _, _ = evaluate("hausdorff", alpha, beta, params=params,
                                 want_grad=True)
    step = 1e-3 / max(1.0, np.abs(grad.d_positions).max())
    moved = sd.from_arrays(alpha.weights,
                           alpha.positions - step * grad.d_positions)
    value_after = sd.hausdorff_divergence(moved, beta, params).value
    assert value_after < value


# ---------------------------------------------------------------------------
# the one evaluation path: evaluate() against the public functions
# ---------------------------------------------------------------------------


PUBLIC_VALUES = {"ot_eps": sd.ot_eps, "sinkhorn": sd.sinkhorn_divergence,
                 "hausdorff": sd.hausdorff_divergence}
WARM_KEYS = {"ot_eps": {"f"}, "sinkhorn": {"f", "p", "q", "target"},
             "hausdorff": {"p", "q", "target"}}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("loss", ["ot_eps", "sinkhorn", "hausdorff", "mmd-energy",
                                  "mmd-gaussian", "mmd-laplacian"])
def test_value_force_matches_standalone_evaluations(loss, threads):
    alpha, beta, _ = random_pair(seed=36, max_n=16)
    with worker_threads(threads):
        if loss in PUBLIC_VALUES:
            options = {"params": TIGHT}
            value = PUBLIC_VALUES[loss](alpha, beta, TIGHT).value
            standalone = sd.sinkhorn_gradient(alpha, beta, TIGHT) if loss == "sinkhorn" else None
        else:
            kernel = sd.MmdKernelSpec(loss.split("-")[1], sigma=0.6)
            options = {"kernel": kernel}
            value = sd.mmd(alpha, beta, kernel).value
            standalone = sd.mmd_gradient(alpha, beta, kernel)
        v, grad, warm, _ = evaluate(loss, alpha, beta, want_grad=True, **options)
        none, alone, _, _ = evaluate(loss, alpha, beta, want_value=False, want_grad=True,
                                     **options)
    assert v == value
    assert none is None
    for other in (alone, standalone):
        if other is not None:
            assert np.array_equal(grad.d_weights, other.d_weights)
            assert np.array_equal(grad.d_positions, other.d_positions)
    assert set(warm) == WARM_KEYS.get(loss, {"target"})  # an MMD loss keeps <beta, K beta>
    if loss == "sinkhorn":  # the gradient alone solves no self-transport of beta
        assert set(standalone.diagnostics) == {"cross", "alpha_auto"}


def test_warm_potentials_round_trip_and_speed_up_the_next_solve():
    alpha, beta, _ = random_pair(seed=37, max_n=24)
    params = sd.SolverParams(epsilon=0.05, p=2, tol=1e-10, max_iters=20000)
    _, grad0, warm, _ = evaluate("sinkhorn", alpha, beta, params=params,
                                 want_grad=True)
    v1, grad1, _, _ = evaluate("sinkhorn", alpha, beta, params=params, warm=warm,
                               want_grad=True)
    cold_iters = grad0.diagnostics["cross"]["iterations"]
    warm_iters = grad1.diagnostics["cross"]["iterations"]
    assert warm_iters <= cold_iters
    assert warm_iters <= 2  # restarting at the solution is nearly free
    assert v1 == pytest.approx(
        sd.sinkhorn_divergence(alpha, beta, params).value, rel=1e-8, abs=1e-10)


def _counting(monkeypatch, name, calls):
    """Record the measure a self solve runs on, or the sources of a kernel pass."""
    from sinkdiv import losses

    fn = getattr(losses, name)
    monkeypatch.setattr(losses, name, lambda *args, **kw: (
        calls.append(args[0] if name == "sinkhorn_symmetric" else args[3]), fn(*args, **kw))[1])


@pytest.mark.parametrize("loss", ["sinkhorn", "hausdorff", "mmd-gaussian"])
def test_target_is_reused_only_for_the_same_beta_and_spec(loss, monkeypatch):
    alpha, beta, _ = random_pair(seed=40, max_n=12)
    copy = sd.from_arrays(beta.weights.copy(), beta.positions.copy())
    if loss == "mmd-gaussian":
        name, same, other = "kernel_rows", {"kernel": sd.MmdKernelSpec("gaussian", 0.6)}, {
            "kernel": sd.MmdKernelSpec("gaussian", 0.7)}
        own = lambda b, calls: sum(c is b.positions for c in calls)  # (beta, beta) passes
    else:
        name, same, other = "sinkhorn_symmetric", {"params": TIGHT}, {
            "params": sd.SolverParams(epsilon=0.1, p=2, tol=1e-12, max_iters=20000)}
        own = lambda b, calls: sum(c is b for c in calls)  # self solves of beta
    _, _, warm, _ = evaluate(loss, alpha, beta, **same)
    # without the entry, beta's own terms are computed again, from warm["q"]
    value = evaluate(loss, alpha, beta, warm={k: warm[k] for k in warm if k != "target"},
                     **same)[0]
    calls = []
    _counting(monkeypatch, name, calls)
    again, _, _, _ = evaluate(loss, alpha, beta, warm=warm, **same)
    assert own(beta, calls) == 0 and again == value
    for b, options in ((copy, same), (beta, other)):
        calls.clear()
        evaluate(loss, alpha, b, warm=warm, **options)
        assert own(b, calls) == 1, (b is copy, options)


def test_target_of_an_unconverged_self_solve_is_not_reused(monkeypatch):
    alpha, beta, _ = random_pair(seed=41, max_n=12)
    params = sd.SolverParams(epsilon=0.1, p=2, tol=1e-14, symmetric_max_iters=1)
    _, _, warm, diagnostics = evaluate("hausdorff", alpha, beta, params=params)
    assert not diagnostics["beta_auto"]["converged"]
    calls = []
    _counting(monkeypatch, "sinkhorn_symmetric", calls)
    evaluate("hausdorff", alpha, beta, params=params, warm=warm)
    assert sum(c is beta for c in calls) == 1


def test_unreliable_gradient_carries_partial_result():
    alpha, beta, _ = random_pair(seed=38, max_n=40)
    params = sd.SolverParams(epsilon=0.01, p=2, tol=1e-14, max_iters=1,
                             symmetric_max_iters=1)
    with pytest.raises(sd.GradientUnreliable) as err:
        sd.sinkhorn_gradient(alpha, beta, params)
    partial = err.value.partial
    assert partial is not None
    assert partial.d_positions.shape == alpha.positions.shape
    assert not partial.diagnostics["cross"]["converged"]


BAD_LOSS_SPECS = {
    "unknown loss": ("wasserstein", TIGHT, None),
    "missing params": ("hausdorff", None, None),
    "sinkhorn without params": ("sinkhorn", None, None),
    "wrong kernel kind": ("mmd-energy", None, sd.MmdKernelSpec("gaussian")),
    "params on an MMD loss": ("mmd-laplacian", TIGHT, None),
    "kernel on a transport loss": ("sinkhorn", TIGHT, sd.MmdKernelSpec("energy")),
}


def test_cli_loss_choices_are_the_loss_table():
    from sinkdiv.cli import build_parser
    from sinkdiv.losses import LOSSES

    commands = next(a for a in build_parser()._actions if a.dest == "command")
    for name, parser in commands.choices.items():
        loss = next(a for a in parser._actions if a.dest == "loss")
        assert loss.choices == list(LOSSES), name


@pytest.mark.parametrize("loss, params, kernel", BAD_LOSS_SPECS.values(),
                         ids=BAD_LOSS_SPECS.keys())
def test_flows_and_evaluate_reject_the_same_loss_specs(loss, params, kernel):
    alpha, beta, _ = random_pair(seed=39, max_n=6)
    with pytest.raises(sd.InvalidInput):
        evaluate(loss, alpha, beta, params=params, kernel=kernel)
    with pytest.raises(sd.InvalidInput):
        sd.FlowConfig(loss=loss, params=params, kernel=kernel)


def test_dimension_mismatch_rejected_by_losses():
    a = sd.from_arrays([1.0], [[0.0]])
    b = sd.from_arrays([1.0], [[0.0, 1.0]])
    with pytest.raises(sd.InvalidInput):
        sd.sinkhorn_divergence(a, b, TIGHT)
    with pytest.raises(sd.InvalidInput):
        sd.mmd(a, b, sd.MmdKernelSpec("energy"))
