"""Output checks, computed apart from the library with NumPy alone.

Every check returns ``(ok, err)``: whether the library's output passes, and
the size of the disagreement that was compared with the tolerance. None of
them calls into ``sinkdiv``; each rests either on a brute-force evaluation or
on a property the method must have.
"""

from __future__ import annotations

import numpy as np

# Tolerances. Each is set well above what a correct library produces on the
# benchmark inputs (figures in the README) and well below the disagreement a
# wrong output shows (the self-test perturbs outputs by these amounts).
TRANSLATION_TOL = 1e-8       # absolute, on S(alpha+v, beta) - S(alpha, beta)
GRAD_SUM_TOL = 1e-4          # absolute, on the summed position gradient
SAME_VALUE_TOL = 1e-12       # relative, for one value computed twice
BRUTE_FORCE_TOL = 1e-10      # relative, dense NumPy sum against the engine
FORCE_TOL = 1e-4             # criterion-6 tolerance for force vs finite differences
FLOW_FORCE_TOL = 1e-9        # relative, Euler-step force against the gradient call
MONOTONE_SLACK = 1e-9        # allowed rise between two loss-curve entries
ENERGY_DROP = 0.75           # final energy distance must be below this share


def _rel(a, b, scale=1.0) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b)) / max(scale, float(np.max(np.abs(b)))))


def translation_identity(s_shift, s_base, v, mean_a, mean_b):
    """``p = 2``: ``S(alpha+v, beta) - S(alpha, beta) = |v|^2 + 2<v, m_a - m_b>``."""
    v = np.asarray(v, dtype=np.float64)
    expected = float(v @ v + 2.0 * v @ (np.asarray(mean_a) - np.asarray(mean_b)))
    err = abs((s_shift - s_base) - expected)
    return err <= TRANSLATION_TOL, err


def gradient_sum(d_positions, mean_a, mean_b):
    """``p = 2``: position gradients sum to ``2 (m_a - m_b)``.

    Moving every atom of alpha by the same ``v`` is the translation above,
    whose derivative at ``v = 0`` is ``2 (m_a - m_b)``.
    """
    expected = 2.0 * (np.asarray(mean_a) - np.asarray(mean_b))
    err = float(np.max(np.abs(np.sum(d_positions, axis=0) - expected)))
    return err <= GRAD_SUM_TOL, err


def same_value(a, b):
    """One value reached by two routes (CLI on full-precision CSV, and the
    in-process call); results do not depend on the thread count."""
    err = abs(a - b) / (1.0 + abs(b))
    return err <= SAME_VALUE_TOL, err


def hausdorff_bounds(h, s):
    """``0 <= hausdorff <= sinkhorn``, up to the solver tolerance."""
    slack = 1e-9 * (1.0 + abs(s))
    err = max(0.0, -h, h - s)
    return err <= slack, err


def gaussian_mmd(wa, xa, wb, xb, sigma):
    """``0.5 ||alpha - beta||_k^2`` and its position gradient in alpha, summed
    one row at a time so that no temporary exceeds a few kilobytes (a large
    freed buffer would change the allocator state the timed calls run in)."""
    def row(x, ys, w):
        diff = x[None, :] - ys
        k = w * np.exp(-np.einsum("jk,jk->j", diff, diff) / (2.0 * sigma**2))
        return k.sum(), -(k @ diff) / sigma**2
    value = 0.0
    grad = np.empty_like(xa)
    for i in range(len(wa)):
        ka, ga = row(xa[i], xa, wa)
        kb, gb = row(xa[i], xb, wb)
        value += wa[i] * (ka - 2.0 * kb)
        grad[i] = wa[i] * (ga - gb)
    for i in range(len(wb)):
        value += wb[i] * row(xb[i], xb, wb)[0]
    return 0.5 * float(value), grad


def mmd_brute_force(value, d_positions, reference):
    """``reference`` is :func:`gaussian_mmd` of the same inputs."""
    ref_v, ref_g = reference
    err = max(abs(value - ref_v) / max(1e-300, abs(ref_v)),
              _rel(d_positions, ref_g, scale=1e-300))
    return err <= BRUTE_FORCE_TOL, err


def w1_exact_1d(wa, xa, wb, xb) -> float:
    """Exact 1D transport cost for ``p = 1`` by quantile coupling:
    the integral of ``|F_alpha - F_beta|`` over the line."""
    x = np.concatenate([np.ravel(xa), np.ravel(xb)])
    w = np.concatenate([np.asarray(wa), -np.asarray(wb)])
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    cdf_gap = np.cumsum(w)[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(x)))


def small_blur(s, w1):
    """Criterion 4: ``|S - W1| <= 1e-2 (1 + W1)`` at ``eps = 1e-3``."""
    err = abs(s - w1)
    return err <= 1e-2 * (1.0 + abs(w1)), err


def non_increasing(curve):
    """A descent flow's loss curve never rises (beyond solver noise)."""
    v = np.array([c[1] for c in curve], dtype=np.float64)
    rise = float(np.max(np.diff(v), initial=0.0))
    return bool(np.all(np.isfinite(v))) and rise <= MONOTONE_SLACK, rise


def all_finite(positions):
    ok = bool(np.all(np.isfinite(positions)))
    return ok, 0.0 if ok else float("inf")


def _mean_abs_gap(x, y) -> float:
    """Mean of ``|x_i - y_j|`` over all pairs, by sorting (O(n) memory)."""
    y = np.sort(y)
    below = np.searchsorted(y, x, side="right")
    csum = np.concatenate([[0.0], np.cumsum(y)])
    total = np.sum(x * below - csum[below] + (csum[-1] - csum[below]) - x * (len(y) - below))
    return float(total) / (len(x) * len(y))


def energy_distance_1d(x, y) -> float:
    """Energy distance ``2E|X-Y| - E|X-X'| - E|Y-Y'|`` between uniform samples."""
    x = np.ravel(x)
    y = np.ravel(y)
    return 2.0 * _mean_abs_gap(x, y) - _mean_abs_gap(x, x) - _mean_abs_gap(y, y)


def energy_dropped(initial, final):
    """The flow moved the particles well toward the target."""
    share = final / initial
    return share <= ENERGY_DROP, share


def flow_force_matches(x0, x1, dt, d_positions):
    """The first Euler step ``X1 = X0 - dt n g`` moves along the gradient call's ``g``."""
    force = (np.asarray(x0) - np.asarray(x1)) / (dt * len(x0))
    err = _rel(force, d_positions, scale=1e-300)
    return err <= FLOW_FORCE_TOL, err


def central_differences(loss, positions, h=1e-5):
    """Central finite differences of ``loss(positions)`` in every coordinate."""
    x = np.array(positions, dtype=np.float64)
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        out[idx] = (loss(xp) - loss(xm)) / (2.0 * h)
    return out


def force_matches_fd(force, fd):
    """Criterion 6: force within 1e-4 of finite differences, relative to ``max(1, |FD|)``."""
    err = _rel(force, fd)
    return err <= FORCE_TOL, err
