"""Independent reference implementations used to validate the main library.

Everything in this module is deliberately naive and self-contained: the
oracles never call the solver or the streaming engine they are used to
check. They trade speed for transparency and are meant for test-sized
problems (dense guards raise :class:`TooLarge` beyond a million pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sinkdiv.costs import CostSpec, MmdKernelSpec, cost_block, mmd_kernel
from sinkdiv.errors import InvalidInput, TooLarge
from sinkdiv.measures import DiscreteMeasure, from_arrays

__all__ = [
    "OracleReport",
    "VariationalResult",
    "ot0_1d_sorted",
    "primal_value_dense",
    "finite_diff_gradient",
    "negentropy_variational",
    "mmd_bruteforce",
]

DENSE_GUARD = 1_000_000


@dataclass(frozen=True)
class OracleReport:
    """A reference/test value pair with absolute and relative error."""

    reference_value: float
    test_value: float
    abs_err: float
    rel_err: float

    @classmethod
    def compare(cls, reference: float, test: float) -> "OracleReport":
        abs_err = abs(test - reference)
        return cls(
            reference_value=float(reference),
            test_value=float(test),
            abs_err=float(abs_err),
            rel_err=float(abs_err / (1.0 + abs(reference))),
        )


def ot0_1d_sorted(alpha: DiscreteMeasure, beta: DiscreteMeasure, p: int) -> float:
    """Exact unregularized transport cost in one dimension.

    Uses the closed-form quantile coupling: merge the cumulative weights of
    both measures into one breakpoint grid and integrate
    ``|F_a^{-1}(q) - F_b^{-1}(q)|^p`` over it. The monotone coupling is
    optimal for convex costs, which covers both supported exponents.
    """
    if alpha.dim != 1 or beta.dim != 1:
        raise InvalidInput("closed-form transport requires one-dimensional supports")
    if p not in (1, 2):
        raise InvalidInput(f"cost exponent must be 1 or 2, got {p}")
    xa = alpha.positions[:, 0]
    xb = beta.positions[:, 0]
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    x, a = xa[ia], alpha.weights[ia]
    y, b = xb[ib], beta.weights[ib]
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    edges = np.concatenate(([0.0], np.sort(np.concatenate((ca[:-1], cb[:-1]))), [1.0]))
    deltas = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ix = np.minimum(np.searchsorted(ca, mids, side="left"), x.size - 1)
    iy = np.minimum(np.searchsorted(cb, mids, side="left"), y.size - 1)
    diff = np.abs(x[ix] - y[iy])
    seg = diff if p == 1 else diff * diff
    return float(np.sum(deltas * seg))


def primal_value_dense(
    alpha: DiscreteMeasure,
    beta: DiscreteMeasure,
    plan: np.ndarray,
    spec: CostSpec,
) -> float:
    """Primal objective of an explicit plan: ``<pi, C> + eps KL(pi | a x b)``.

    The plan is taken at face value (no marginal projection). Entries must
    be nonnegative; mass placed where the product measure vanishes makes the
    divergence infinite.
    """
    n, m = alpha.n_atoms, beta.n_atoms
    if n * m > DENSE_GUARD:
        raise TooLarge(f"dense primal evaluation on {n * m} entries (limit {DENSE_GUARD})")
    pi = np.asarray(plan, dtype=np.float64)
    if pi.shape != (n, m):
        raise InvalidInput(f"plan shape {pi.shape} does not match supports {(n, m)}")
    if not np.all(np.isfinite(pi)):
        raise InvalidInput("plan contains NaN or infinite entries")
    if np.any(pi < 0):
        raise InvalidInput("plan contains negative entries")
    c = cost_block(spec, alpha.positions, beta.positions)
    ab = alpha.weights[:, None] * beta.weights[None, :]
    if np.any((pi > 0) & (ab == 0)):
        return float("inf")
    ratio = np.where(ab > 0, pi / np.where(ab > 0, ab, 1.0), 0.0)
    rlogr = np.where(ratio > 0, ratio * np.log(np.where(ratio > 0, ratio, 1.0)), 0.0)
    kl = float(np.sum(ab * (rlogr - ratio + 1.0)))
    return float(np.sum(pi * c)) + spec.epsilon * kl


def finite_diff_gradient(loss_fn, alpha: DiscreteMeasure, beta: DiscreteMeasure,
                         h: float = 1e-5):
    """Central finite differences of ``loss_fn(alpha, beta)`` in ``alpha``.

    Position derivatives perturb one coordinate at a time. Weight
    derivatives move mass along the simplex-preserving directions
    ``e_i - e_0``, so the returned ``d_weights`` is pinned to the gauge
    ``d_weights[0] = 0``; compare component differences against analytic
    weight gradients. Returns ``(d_weights, d_positions)``.
    """
    if h <= 0:
        raise InvalidInput(f"step size must be positive, got {h}")
    w = alpha.weights
    x = alpha.positions
    n, d = x.shape
    d_positions = np.zeros((n, d), dtype=np.float64)
    for i in range(n):
        for k in range(d):
            xp = x.copy()
            xm = x.copy()
            xp[i, k] += h
            xm[i, k] -= h
            fp = loss_fn(from_arrays(w, xp), beta)
            fm = loss_fn(from_arrays(w, xm), beta)
            d_positions[i, k] = (fp - fm) / (2.0 * h)
    d_weights = np.zeros(n, dtype=np.float64)
    for i in range(1, n):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wp[0] -= h
        wm[i] -= h
        wm[0] += h
        if np.any(wp <= 0) or np.any(wm <= 0):
            raise InvalidInput(f"weight step {h} leaves the positive simplex at atom {i}")
        fp = loss_fn(from_arrays(wp, x), beta)
        fm = loss_fn(from_arrays(wm, x), beta)
        d_weights[i] = (fp - fm) / (2.0 * h)
    return d_weights, d_positions


@dataclass(frozen=True)
class VariationalResult:
    """Outcome of the variational negentropy minimization."""

    value: float
    converged: bool
    iterations: int
    energies: list = field(default_factory=list, repr=False)
    masses: np.ndarray | None = field(default=None, repr=False)


def negentropy_variational(alpha: DiscreteMeasure, spec: CostSpec,
                           iters: int = 20000, grad_tol: float = 1e-10) -> VariationalResult:
    """Minimize ``<alpha, log(d alpha / d mu)> + 0.5 ||mu||_k^2`` over ``mu``.

    ``mu`` ranges over positive measures on alpha's own atoms and the norm
    is taken in the Gibbs kernel ``exp(-C / eps)``. The minimizer is found
    by plain gradient descent on log-weights with Armijo backtracking, which
    guarantees a decreasing energy sequence. The minimum value equals the
    negentropy of ``alpha`` divided by eps, plus one half.
    """
    n = alpha.n_atoms
    if n * n > DENSE_GUARD:
        raise TooLarge(f"variational oracle needs a dense {n}x{n} kernel")
    kmat = np.exp(-cost_block(spec, alpha.positions, alpha.positions) / spec.epsilon)
    w = alpha.weights
    u = np.log(w)  # log-weights of the candidate measure

    def energy_and_grad(uv):
        mv = np.exp(uv)
        km = kmat @ mv
        e = float(np.dot(w, np.log(w) - uv) + 0.5 * np.dot(mv, km))
        return e, mv * km - w

    energy, grad = energy_and_grad(u)
    energies = [energy]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, iters + 1):
        gnorm2 = float(np.dot(grad, grad))
        if np.sqrt(gnorm2) <= grad_tol:
            converged = True
            it -= 1
            break
        while True:
            u_try = u - step * grad
            e_try, g_try = energy_and_grad(u_try)
            if e_try <= energy - 1e-4 * step * gnorm2:
                break
            step *= 0.5
            if step < 1e-18:
                # flat to machine precision: accept current point
                e_try, g_try, u_try = energy, grad, u
                break
        if u_try is u:
            converged = True
            break
        u, energy, grad = u_try, e_try, g_try
        energies.append(energy)
        step = min(step * 1.5, 1e6)
        # energy stagnation: descent has hit the floating-point floor
        if it >= 50 and energies[-50] - energy <= 1e-15 * (1.0 + abs(energy)):
            converged = True
            break
    return VariationalResult(value=energy, converged=converged, iterations=it,
                             energies=energies, masses=np.exp(u))


def mmd_bruteforce(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                   kspec: MmdKernelSpec) -> float:
    """Squared kernel discrepancy by direct pointwise double loops."""
    n, m = alpha.n_atoms, beta.n_atoms
    if max(n * n, m * m, n * m) > DENSE_GUARD:
        raise TooLarge("brute-force kernel sum beyond the dense guard")
    total = 0.0
    signed = [(alpha.weights, alpha.positions, 1.0), (beta.weights, beta.positions, -1.0)]
    for wa, xa, sa in signed:
        for wb, xb, sb in signed:
            acc = 0.0
            for i in range(wa.size):
                for j in range(wb.size):
                    acc += wa[i] * wb[j] * mmd_kernel(kspec, xa[i], xb[j])
            total += sa * sb * acc
    return 0.5 * total
