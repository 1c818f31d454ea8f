"""The reference implementations are validated here, independently of the
library code they are later used to check: the 1D exact transport cost
against brute-force matching and a linear program, the dense primal
evaluator against hand-computed plans, the finite-difference gradient
helper against analytic derivatives, the variational negentropy solver
against closed-form cases, and the brute-force kernel discrepancy against
hand-computed values."""

import itertools

import numpy as np
import pytest
import scipy.optimize

import sinkdiv as sd

from conftest import random_measure
from oracles import (
    OracleReport,
    finite_diff_gradient,
    mmd_bruteforce,
    negentropy_variational,
    ot0_1d_sorted,
    primal_value_dense,
)


# ---------------------------------------------------------------------------
# 1D exact transport cost
# ---------------------------------------------------------------------------


def brute_force_uniform_ot(xs, ys, p):
    """Exact cost for equal counts and uniform weights: best permutation."""
    n = len(xs)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(abs(xs[i] - ys[perm[i]]) ** p for i in range(n)) / n
        best = min(best, cost)
    return best


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_1d_cost_matches_brute_force_matching(p, seed):
    rng = np.random.default_rng(seed)
    n = 6
    xs = rng.uniform(-1, 1, n)
    ys = rng.uniform(-1, 1, n)
    alpha = sd.from_arrays(np.full(n, 1.0 / n), xs)
    beta = sd.from_arrays(np.full(n, 1.0 / n), ys)
    got = ot0_1d_sorted(alpha, beta, p)
    want = brute_force_uniform_ot(xs, ys, p)
    assert got == pytest.approx(want, abs=1e-12)


def linprog_ot(alpha, beta, p):
    """Exact transport cost via the standard linear program."""
    n, m = alpha.n_atoms, beta.n_atoms
    cost = np.abs(alpha.positions[:, 0][:, None] - beta.positions[:, 0][None, :]) ** p
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(alpha.weights[i])
    for j in range(m):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
        b_eq.append(beta.weights[j])
    res = scipy.optimize.linprog(cost.ravel(), A_eq=np.array(a_eq),
                                 b_eq=np.array(b_eq), bounds=(0, None),
                                 method="highs")
    assert res.success
    return res.fun


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_1d_cost_matches_linear_program_with_weights(p, seed):
    rng = np.random.default_rng(seed)
    n, m = 7, 5
    alpha = sd.from_arrays(rng.dirichlet(np.ones(n)), rng.uniform(-1, 1, n))
    beta = sd.from_arrays(rng.dirichlet(np.ones(m)), rng.uniform(-1, 1, m))
    got = ot0_1d_sorted(alpha, beta, p)
    want = linprog_ot(alpha, beta, p)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_1d_cost_dirac_pair_and_identity():
    a = sd.from_arrays([1.0], [0.25])
    b = sd.from_arrays([1.0], [0.75])
    assert ot0_1d_sorted(a, b, 1) == pytest.approx(0.5, abs=1e-15)
    assert ot0_1d_sorted(a, b, 2) == pytest.approx(0.25, abs=1e-15)
    assert ot0_1d_sorted(a, a, 1) == pytest.approx(0.0, abs=1e-15)


def test_1d_cost_two_segment_shift():
    # uniform {0, 1} to uniform {2, 3}: mass moves in matched order, +2 each
    a = sd.from_arrays([0.5, 0.5], [0.0, 1.0])
    b = sd.from_arrays([0.5, 0.5], [2.0, 3.0])
    assert ot0_1d_sorted(a, b, 1) == pytest.approx(2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# dense primal evaluation
# ---------------------------------------------------------------------------


def test_primal_value_of_product_plan_has_zero_kl():
    rng = np.random.default_rng(5)
    alpha = random_measure(rng, 4, 2)
    beta = random_measure(rng, 3, 2)
    spec = sd.CostSpec(2, 0.7)
    plan = np.outer(alpha.weights, beta.weights)
    cost = np.array([[sd.cost(spec, x, y) for y in beta.positions]
                     for x in alpha.positions])
    expected = float(np.sum(plan * cost))  # KL term vanishes for the product
    got = primal_value_dense(alpha, beta, plan, spec)
    assert got == pytest.approx(expected, rel=1e-13)


def test_primal_value_dirac_plan():
    a = sd.from_arrays([1.0], [[0.0]])
    b = sd.from_arrays([1.0], [[1.0]])
    spec = sd.CostSpec(1, 0.3)
    assert primal_value_dense(a, b, np.array([[1.0]]), spec) == pytest.approx(1.0)


def test_primal_value_infinite_off_support():
    # plan putting mass where the product measure has none costs +inf
    a = sd.from_arrays([1.0], [[0.0]])
    b = sd.from_arrays([0.5, 0.5], [[1.0], [2.0]])
    spec = sd.CostSpec(1, 0.3)
    alpha2 = sd.DiscreteMeasure(weights=np.array([1.0, 0.0]),
                                positions=np.array([[0.0], [5.0]]))
    plan = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert primal_value_dense(alpha2, b, plan, spec) == np.inf


def test_primal_value_reweighted_plan_kl_term():
    # two-point case with a hand-computed KL
    a = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    b = sd.from_arrays([1.0], [[0.0]])
    spec = sd.CostSpec(1, 2.0)
    plan = np.array([[0.25], [0.75]])
    transport = 0.75 * 1.0
    kl = (0.25 * np.log(0.25 / 0.5) - 0.25 + 0.5
          + 0.75 * np.log(0.75 / 0.5) - 0.75 + 0.5)
    assert primal_value_dense(a, b, plan, spec) == pytest.approx(
        transport + 2.0 * kl, rel=1e-13)


def test_primal_value_rejects_bad_plans():
    a = sd.from_arrays([1.0], [[0.0]])
    b = sd.from_arrays([1.0], [[1.0]])
    spec = sd.CostSpec(1, 1.0)
    with pytest.raises(sd.InvalidInput):
        primal_value_dense(a, b, np.array([[1.0, 0.0]]), spec)
    with pytest.raises(sd.InvalidInput):
        primal_value_dense(a, b, np.array([[-0.2]]), spec)
    with pytest.raises(sd.InvalidInput):
        primal_value_dense(a, b, np.array([[np.nan]]), spec)


# ---------------------------------------------------------------------------
# finite-difference gradient helper
# ---------------------------------------------------------------------------


def test_finite_differences_recover_analytic_gradient():
    rng = np.random.default_rng(8)
    n, m, d = 5, 4, 2
    alpha = random_measure(rng, n, d)
    beta = random_measure(rng, m, d)
    direction = rng.normal(size=d)

    def loss_fn(a, b):
        # smooth in weights and positions with easy derivatives
        lin = float(np.dot(a.weights, a.positions @ direction))
        quad = float(np.dot(a.weights, np.sum(a.positions ** 2, axis=1)))
        return lin + 0.5 * quad ** 2

    fd_w, fd_x = finite_diff_gradient(loss_fn, alpha, beta, h=1e-6)

    sq = np.sum(alpha.positions ** 2, axis=1)
    quad = float(np.dot(alpha.weights, sq))
    dl_dw = alpha.positions @ direction + quad * sq       # per-weight partial
    dl_dx = (alpha.weights[:, None] * direction[None, :]
             + quad * alpha.weights[:, None] * 2.0 * alpha.positions)

    # weight derivatives are reported along e_i - e_0 (mass conservation)
    want_w = dl_dw - dl_dw[0]
    assert np.allclose(fd_w, want_w, rtol=1e-6, atol=1e-7)
    assert np.allclose(fd_x, dl_dx, rtol=1e-6, atol=1e-8)


def test_finite_differences_reject_steps_leaving_the_simplex():
    alpha = sd.from_arrays([1e-9, 1.0 - 1e-9], [[0.0], [1.0]])
    beta = sd.from_arrays([1.0], [[0.5]])
    with pytest.raises(sd.InvalidInput):
        finite_diff_gradient(lambda a, b: 0.0, alpha, beta, h=1e-5)


# ---------------------------------------------------------------------------
# variational negentropy solver
# ---------------------------------------------------------------------------


def test_negentropy_single_atom_closed_form():
    # one atom: minimize -log(m) + m^2/2, minimum 1/2 at unit mass
    a = sd.from_arrays([1.0], [[0.3, 0.4]])
    res = negentropy_variational(a, sd.CostSpec(2, 0.8))
    assert res.converged
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_negentropy_energy_sequence_is_monotone():
    rng = np.random.default_rng(21)
    a = random_measure(rng, 12, 2)
    res = negentropy_variational(a, sd.CostSpec(2, 0.5))
    energies = res.energies
    assert all(energies[i + 1] <= energies[i] + 1e-15
               for i in range(len(energies) - 1))
    assert res.converged


def test_negentropy_minimizer_satisfies_stationarity():
    # at the optimum the candidate masses m solve m * (K m) = weights
    rng = np.random.default_rng(22)
    a = random_measure(rng, 8, 2)
    spec = sd.CostSpec(2, 1.0)
    res = negentropy_variational(a, spec)
    from sinkdiv.costs import cost_block
    kmat = np.exp(-cost_block(spec, a.positions, a.positions) / spec.epsilon)
    residual = res.masses * (kmat @ res.masses) - a.weights
    assert np.max(np.abs(residual)) < 1e-8


# ---------------------------------------------------------------------------
# brute-force kernel discrepancy
# ---------------------------------------------------------------------------


def test_bruteforce_energy_kernel_dirac_pair():
    a = sd.from_arrays([1.0], [[0.0, 0.0]])
    b = sd.from_arrays([1.0], [[3.0, 4.0]])
    # 0.5 * (0 + 0 - 2 * (-5)) = 5
    got = mmd_bruteforce(a, b, sd.MmdKernelSpec("energy"))
    assert got == pytest.approx(5.0, abs=1e-14)


def test_bruteforce_gaussian_two_atom_hand_value():
    a = sd.from_arrays([1.0], [[0.0]])
    b = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    sigma = 2.0
    k01 = np.exp(-1.0 / (2 * sigma ** 2))
    # 0.5*(k(0,0) + (0.25*2*k00 + 0.5*k01*2*0.25... expanded directly below
    aa = 1.0
    bb = 0.25 * 1.0 + 0.25 * 1.0 + 2 * 0.25 * k01
    ab = 0.5 * 1.0 + 0.5 * k01
    want = 0.5 * (aa + bb - 2 * ab)
    got = mmd_bruteforce(a, b, sd.MmdKernelSpec("gaussian", sigma=sigma))
    assert got == pytest.approx(want, abs=1e-14)


def test_bruteforce_vanishes_at_equality():
    rng = np.random.default_rng(31)
    a = random_measure(rng, 6, 3)
    for kind in ("energy", "gaussian", "laplacian"):
        assert mmd_bruteforce(a, a, sd.MmdKernelSpec(kind)) == pytest.approx(
            0.0, abs=1e-15)


def test_oracle_report_comparison():
    rep = OracleReport.compare(reference=2.0, test=2.0 + 3e-9)
    assert rep.abs_err == pytest.approx(3e-9)
    assert rep.rel_err == pytest.approx(1e-9)
