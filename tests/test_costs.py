"""Ground costs, Gibbs weights, and kernels: scalar vs block consistency,
analytic gradients against finite differences, and edge behavior at
coincident points."""

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv.costs import CostSpec, MmdKernelSpec, cost_block, sq_dist_block


# ---------------------------------------------------------------------------
# dense block references: gradients in closed form, checked below against
# finite differences and the scalar definitions
# ---------------------------------------------------------------------------


def _diffs(xs, ys):
    """Differences ``x_i - y_j`` of shape (n, m, d), their distances, and the
    inverse distances with 0 at coincident points (the zero subgradient)."""
    diffs = xs[:, None, :] - ys[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=-1))
    with np.errstate(divide="ignore"):
        inv = np.where(dist > 0.0, 1.0 / dist, 0.0)
    return diffs, dist, inv


def cost_grad_block(spec: CostSpec, xs, ys):
    """``(C, G)``: the cost block and its derivative in ``x_i``, shape (n, m, d)."""
    diffs, dist, inv = _diffs(xs, ys)
    if spec.p == 2:
        return dist * dist, 2.0 * diffs
    return dist, diffs * inv[:, :, None]


def kernel_block(kspec: MmdKernelSpec, xs, ys):
    """Pairwise kernel block ``k(xs_i, ys_j)``."""
    sq = sq_dist_block(xs, ys)
    if kspec.kind == "energy":
        return -np.sqrt(sq)
    if kspec.kind == "gaussian":
        return np.exp(sq * (-0.5 / kspec.sigma**2))
    return np.exp(np.sqrt(sq) * (-1.0 / kspec.sigma))


def kernel_grad_block(kspec: MmdKernelSpec, xs, ys):
    """Derivative of ``k(x_i, y_j)`` in ``x_i``, shape (n, m, d)."""
    diffs, dist, inv = _diffs(xs, ys)
    if kspec.kind == "gaussian":
        scale = np.exp(dist * dist * (-0.5 / kspec.sigma**2)) * (-1.0 / kspec.sigma**2)
    elif kspec.kind == "energy":
        scale = -inv
    else:
        scale = np.exp(dist * (-1.0 / kspec.sigma)) * (-1.0 / kspec.sigma) * inv
    return diffs * scale[:, :, None]


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_cost_spec_validation():
    sd.CostSpec(1, 0.5)
    sd.CostSpec(2, 1e4)
    with pytest.raises(sd.InvalidInput):
        sd.CostSpec(3, 0.5)
    with pytest.raises(sd.InvalidInput):
        sd.CostSpec(1, 0.0)
    with pytest.raises(sd.InvalidInput):
        sd.CostSpec(1, -1.0)
    with pytest.raises(sd.InvalidInput):
        sd.CostSpec(2, float("nan"))


def test_kernel_spec_validation():
    sd.MmdKernelSpec("energy")
    sd.MmdKernelSpec("gaussian", sigma=0.3)
    sd.MmdKernelSpec("laplacian", sigma=2.0)
    with pytest.raises(sd.InvalidInput):
        sd.MmdKernelSpec("cubic")
    with pytest.raises(sd.InvalidInput):
        sd.MmdKernelSpec("gaussian", sigma=0.0)


@pytest.mark.parametrize("x, y, match", [
    ([0.0, 0.0], [0.0], "point dimensions differ"),
    ([np.nan], [0.0], "NaN or infinite"),
    ([0.0], [np.inf], "NaN or infinite"),
], ids=["mismatched", "nan", "infinite"])
def test_scalar_cost_rejects_bad_points(x, y, match):
    with pytest.raises(sd.InvalidInput, match=match):
        sd.cost(sd.CostSpec(2, 1.0), x, y)


# ---------------------------------------------------------------------------
# scalar values
# ---------------------------------------------------------------------------


def test_scalar_cost_values():
    x = np.array([0.0, 0.0])
    y = np.array([3.0, 4.0])
    assert sd.cost(sd.CostSpec(1, 1.0), x, y) == pytest.approx(5.0)
    assert sd.cost(sd.CostSpec(2, 1.0), x, y) == pytest.approx(25.0)
    assert sd.cost(sd.CostSpec(2, 1.0), x, x) == 0.0


def test_scalar_kernels():
    x = np.array([0.0])
    y = np.array([2.0])
    assert sd.mmd_kernel(sd.MmdKernelSpec("energy"), x, y) == pytest.approx(-2.0)
    assert sd.mmd_kernel(sd.MmdKernelSpec("gaussian", sigma=1.0), x, y) == (
        pytest.approx(np.exp(-2.0)))
    assert sd.mmd_kernel(sd.MmdKernelSpec("laplacian", sigma=2.0), x, y) == (
        pytest.approx(np.exp(-1.0)))


# ---------------------------------------------------------------------------
# block evaluators agree with the scalar definitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_cost_block_matches_scalar(p):
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(5, 3))
    ys = rng.normal(size=(4, 3))
    spec = sd.CostSpec(p, 1.0)
    block = cost_block(spec, xs, ys)
    for i in range(5):
        for j in range(4):
            assert block[i, j] == pytest.approx(sd.cost(spec, xs[i], ys[j]),
                                                rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("kind", ["energy", "gaussian", "laplacian"])
def test_kernel_block_matches_scalar(kind):
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(4, 2))
    ys = rng.normal(size=(6, 2))
    kspec = sd.MmdKernelSpec(kind, sigma=0.7)
    block = kernel_block(kspec, xs, ys)
    for i in range(4):
        for j in range(6):
            assert block[i, j] == pytest.approx(
                sd.mmd_kernel(kspec, xs[i], ys[j]), rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# analytic gradients vs finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2])
def test_cost_gradient_matches_finite_differences(p):
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(3, 2))
    ys = rng.normal(size=(4, 2)) + 3.0   # keep the points well separated
    spec = sd.CostSpec(p, 1.0)
    _, grad = cost_grad_block(spec, xs, ys)
    h = 1e-7
    for i in range(3):
        for j in range(4):
            for k in range(2):
                xp = xs.copy(); xp[i, k] += h
                xm = xs.copy(); xm[i, k] -= h
                fd = (cost_block(spec, xp, ys)[i, j]
                      - cost_block(spec, xm, ys)[i, j]) / (2 * h)
                assert grad[i, j, k] == pytest.approx(fd, rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("kind", ["energy", "gaussian", "laplacian"])
def test_kernel_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(3, 2))
    ys = rng.normal(size=(3, 2)) + 2.0
    kspec = sd.MmdKernelSpec(kind, sigma=0.9)
    grad = kernel_grad_block(kspec, xs, ys)
    h = 1e-7
    for i in range(3):
        for j in range(3):
            for k in range(2):
                xp = xs.copy(); xp[i, k] += h
                xm = xs.copy(); xm[i, k] -= h
                fd = (kernel_block(kspec, xp, ys)[i, j]
                      - kernel_block(kspec, xm, ys)[i, j]) / (2 * h)
                assert grad[i, j, k] == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_distance_gradients_use_zero_subgradient_at_coincidence():
    x = np.array([[0.5, 0.5]])
    spec = sd.CostSpec(1, 1.0)
    _, grad = cost_grad_block(spec, x, x)
    assert np.all(grad == 0.0)
    for kind in ("energy", "laplacian"):
        g = kernel_grad_block(sd.MmdKernelSpec(kind), x, x)
        assert np.all(g == 0.0)


def test_squared_cost_gradient_closed_form():
    xs = np.array([[1.0, 2.0]])
    ys = np.array([[0.0, 0.0]])
    _, grad = cost_grad_block(sd.CostSpec(2, 1.0), xs, ys)
    assert np.allclose(grad[0, 0], [2.0, 4.0])


def test_absolute_cost_gradient_is_unit_vector():
    xs = np.array([[3.0, 4.0]])
    ys = np.array([[0.0, 0.0]])
    _, grad = cost_grad_block(sd.CostSpec(1, 1.0), xs, ys)
    assert np.allclose(grad[0, 0], [0.6, 0.8])
