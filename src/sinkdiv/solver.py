"""Log-domain Sinkhorn iterations for entropy-regularized transport.

The dual problem is solved by alternating soft-minimum updates on a pair of
potentials ``(f, g)`` living on the two supports. Every update is one call of
the module-level :func:`engine.lse_rows`, which a tracer can rebind, on the
solve's :class:`engine.CostStore` for that direction. The store checks the
points and log-weights once per solve and, up to ``engine.CACHE_PAIRS``
pairs, keeps the ``C / eps`` its first call builds (8 bytes per pair and
direction); larger problems stream in linear memory. The two stores of a
cross solve hold bitwise transposes; each is kept so that every iteration
reads its blocks contiguously, 1.6 to 3.2 times faster per reduction than a
transposed view (n = 800 to 2048). Apart from the kept costs, only the
explicit diagnostics helpers build a pairwise matrix, and they guard its size.

Two loops are provided:

* :func:`sinkhorn` alternates the coordinate updates ``g <- T(alpha, f)``,
  ``f <- T(beta, g)``. After ``WARM`` plain iterations it over-relaxes both
  by a factor ``omega`` estimated from the residuals' contraction ratio,
  ``x <- T + (1 - omega) (x - T)``, and raises ``omega`` every
  ``RATE_WINDOW`` relaxed iterations from the plain rate that the relaxed
  one implies. It falls back to a plain iteration whenever a relaxed one
  would lower the dual objective. It stops when the weighted L1 norm of the
  exact ``f`` update falls below the tolerance.
* :func:`sinkhorn_symmetric` solves the self-transport problem of a single
  measure with a gauge-free step on ``T(alpha, p) - p`` and a safeguarded
  secant extrapolation, stopping on the max-norm residual of the fixed-point
  condition ``p = T(alpha, p)``. It takes about half the updates of the
  averaged ``p <- (p + T(alpha, p)) / 2`` of Feydy et al. (2019).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, cost_block
from .engine import CostStore, ReductionPlan, lse_rows
from .errors import NumericalFailure, TooLarge, _check_vector, _count, _scale
from .measures import DiscreteMeasure

__all__ = [
    "SolverParams",
    "DualState",
    "SymmetricDual",
    "PlanDiagnostics",
    "sinkhorn",
    "sinkhorn_symmetric",
    "dual_value",
    "plan_matrix",
    "plan_diagnostics",
]

PLAN_ENTRY_GUARD = 1_000_000
WARM = 5  # plain cross iterations before the relaxation factor is estimated
OMEGA_MAX = 1.99  # cap on the over-relaxation factor
RATE_WINDOW = 10  # accepted relaxed iterations per re-estimate of the factor
THETA = 2.0 / 3.0  # step size of the self-transport solve's gauge-free update


@dataclass(frozen=True)
class SolverParams:
    """Solver configuration: blur scale, cost exponent, and stopping rules.

    ``epsilon`` is in raw cost units. ``tol`` bounds the weighted L1 norm of
    the exact ``f`` update ``T(beta, g) - f`` in :func:`sinkhorn` (relaxed
    iterations included) and the max-norm fixed-point residual in
    :func:`sinkhorn_symmetric`. Reaching ``max_iters`` is reported via
    ``converged=False`` on the result, never as an exception.
    """

    epsilon: float
    p: int = 2
    tol: float = 1e-6
    max_iters: int = 1000
    symmetric_max_iters: int = 100

    def __post_init__(self):
        CostSpec(self.p, self.epsilon)  # validates p and epsilon
        _scale("tol", self.tol, zero=True)
        _count("max_iters", self.max_iters, 1)
        _count("symmetric_max_iters", self.symmetric_max_iters, 0)

    @property
    def cost_spec(self) -> CostSpec:
        return CostSpec(self.p, self.epsilon)


@dataclass(frozen=True)
class DualState:
    """Converged (or truncated) dual potentials of a transport problem.

    ``f`` lives on the source support, ``g`` on the target support. The dual
    objective value is recovered by :func:`dual_value`; potentials are only
    determined up to the additive gauge ``(f + c, g - c)``. ``omega`` is the
    over-relaxation factor of the iteration that produced the pair (1.0 for
    a plain iteration).
    """

    f: np.ndarray
    g: np.ndarray
    iterations: int
    residual: float
    converged: bool
    omega: float = 1.0


@dataclass(frozen=True)
class SymmetricDual:
    """Fixed point of the self-transport problem of one measure."""

    potential: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class PlanDiagnostics:
    """Primal-side summary of the plan implied by a pair of potentials."""

    transport_cost: float
    kl: float
    marginal_err_l1: float


def _start(init, name: str, n: int) -> np.ndarray:
    """A copy of the validated warm start ``init`` of length ``n``, or zeros."""
    return np.zeros(n) if init is None else _check_vector(name, init, n).copy()


def _relaxation(q: float) -> float:
    """Over-relaxation factor for plain iterations whose residuals contract
    by the ratio ``q`` (capped at 1): ``min(OMEGA_MAX, 2 / (1 + sqrt(1 - q)))``.

    ``q`` is read from two plain residuals, or recovered from the rate ``r``
    observed under a factor ``omega`` through the successive over-relaxation
    relation ``q = (r + omega - 1)^2 / (r omega^2)`` (Young's; see Thibault et
    al. 2017 and Lehmann et al. 2021 on over-relaxed Sinkhorn).
    """
    return min(OMEGA_MAX, 2.0 / (1.0 + float(np.sqrt(1.0 - min(q, 1.0)))))


def sinkhorn(
    alpha: DiscreteMeasure,
    beta: DiscreteMeasure,
    params: SolverParams,
    init_f: np.ndarray | None = None,
) -> DualState:
    """Safeguarded, over-relaxed dual ascent for the transport between two measures.

    Starts from ``f = g = 0`` unless ``init_f`` warm-starts the source
    potential (warm starts change only the gauge and the iteration count at
    convergence). The first ``WARM`` iterations perform an exact ``g``
    update followed by an exact ``f`` update. Then the ratio ``q`` of the
    last two residuals sets ``omega = min(OMEGA_MAX, 2 / (1 + sqrt(1 - q)))``
    and both half-steps are over-relaxed, ``g <- T + (1 - omega) (g - T)``
    with ``T = T(alpha, f)``, and likewise for ``f``. After every
    ``RATE_WINDOW`` accepted relaxed iterations, the geometric mean ``r`` of
    their residual ratios gives back the plain rate
    ``q = (r + omega - 1)^2 / (r omega^2)``, and ``omega`` rises to the
    factor for that ``q`` if that is larger. A relaxed iteration that would
    lower the dual objective of the reported pair is redone plainly from the
    last accepted pair, and ``omega`` is estimated afresh after ``WARM`` more
    plain iterations; redone iterations count toward ``iterations`` and
    ``max_iters``. The factor depends only on residuals, so it is the same
    at every thread count and in every reduction mode.

    The reported pair is always ``(T(beta, g), g)``, so :func:`dual_value`
    of it is the dual objective; the loop stops once
    ``sum_i alpha_i |T(beta, g)_i - f_i| <= tol``.
    """
    spec = params.cost_spec
    eps = spec.epsilon
    n, m = alpha.n_atoms, beta.n_atoms
    f_plan, g_plan = ReductionPlan(n, m), ReductionPlan(m, n)
    log_a, log_b = alpha.log_weights, beta.log_weights
    xs, ys = alpha.positions, beta.positions

    f = _start(init_f, "init_f", n)
    g = np.zeros(m, dtype=np.float64)
    g_store = CostStore(g_plan, xs, ys, spec)
    f_store = CostStore(f_plan, ys, xs, spec)
    f_ok, g_ok, value = f, g, -np.inf  # the last accepted pair, f_ok = T(beta, g_ok)
    omega, omega_ok, plain, relaxed = 1.0, 1.0, 0, 0
    residual = previous = anchor = np.inf
    converged = False
    for iterations in range(1, params.max_iters + 1):
        t = -eps * lse_rows(g_plan, log_a, f, xs, ys, spec, store=g_store)
        g = t if omega == 1.0 else t + (1.0 - omega) * (g - t)
        if not np.isfinite(g).all():
            raise NumericalFailure("dual iterates became non-finite")
        t = -eps * lse_rows(f_plan, log_b, g, ys, xs, spec, store=f_store)
        if not np.isfinite(t).all():
            raise NumericalFailure("dual iterates became non-finite")
        if omega != 1.0:
            new_value = dual_value(alpha, beta, t, g)
            if new_value < value:  # no ascent: redo plainly from the accepted pair
                f, g, omega, plain = f_ok, g_ok, 1.0, 0
                continue
            value = new_value
        residual = float(np.dot(alpha.weights, np.abs(t - f)))
        f_ok, g_ok, omega_ok = t, g, omega
        if residual <= params.tol:
            converged = True
            break
        f = t if omega == 1.0 else t + (1.0 - omega) * (f - t)
        if omega == 1.0:
            plain += 1
            if plain == WARM:
                omega = _relaxation(residual / previous)
                value = dual_value(alpha, beta, f_ok, g_ok)
                relaxed, anchor = 0, residual
        else:
            relaxed += 1
            if relaxed == RATE_WINDOW:  # read the plain rate back from the relaxed one
                # in exact arithmetic the estimate is never below omega: the
                # recovered rate exceeds 4 (omega - 1) / omega^2, the rate that
                # omega is optimal for, by (r - omega + 1)^2 / (r omega^2);
                # max() keeps rounding from lowering it
                r = (residual / anchor) ** (1.0 / RATE_WINDOW)
                omega = max(omega, _relaxation((r + omega - 1.0) ** 2 / (r * omega * omega)))
                relaxed, anchor = 0, residual
        previous = residual
    return DualState(f=f_ok, g=g_ok, iterations=iterations, residual=residual,
                     converged=converged, omega=omega_ok)


def sinkhorn_symmetric(
    alpha: DiscreteMeasure,
    params: SolverParams,
    init_potential: np.ndarray | None = None,
) -> SymmetricDual:
    """Extrapolated fixed-point iteration for the self-transport potential.

    From zero (or a warm start) until ``max_i |p_i - T(alpha, p)_i| <= tol``:
    with ``t = T(alpha, p)``, take the step ``s = THETA (t - p) + (1/2 - THETA)
    <alpha, t - p>``. As ``T(alpha, p + c) = T(alpha, p) - c``, ``p + s`` is
    the same for every gauge of ``p``, with the averaged update's fixed point.
    Near it ``T`` acts as ``-pi``, the self plan's softmax, with spectrum in
    [0, 1] and the constant mode at 1; the step removes that mode and maps the
    others into [-1/3, 1/3]. While the residual falls, the secant of the last
    two steps (one-step Anderson acceleration, Walker & Ni 2011) moves
    ``x = p + s`` to ``x - gamma (x - x_prev)``, ``gamma = <alpha ds, s> /
    <alpha ds, ds>`` with ``ds = s - s_prev``, unless the denominator is 0.
    Only ``lse_rows`` outputs enter, so no thread count or mode moves a bit;
    ``iterations`` counts the updates (0: the start's residual is reported).
    """
    spec = params.cost_spec
    eps = spec.epsilon
    n = alpha.n_atoms
    plan = ReductionPlan(n, n)
    log_a = alpha.log_weights
    xs = alpha.positions
    p = _start(init_potential, "init_potential", n)
    store = CostStore(plan, xs, xs, spec)
    iterations, previous, last = 0, np.inf, None  # last: the previous step and plain update
    while True:
        t = -eps * lse_rows(plan, log_a, p, xs, xs, spec, store=store)
        if not np.isfinite(t).all():
            raise NumericalFailure("symmetric iterates became non-finite")
        residual = float(np.max(np.abs(p - t)))
        if residual <= params.tol or iterations >= params.symmetric_max_iters:
            return SymmetricDual(potential=p, iterations=iterations, residual=residual,
                                 converged=residual <= params.tol)
        step = THETA * (t - p) + (0.5 - THETA) * float(np.dot(alpha.weights, t - p))
        p = plain = p + step
        if last is not None and residual < previous:
            ds = step - last[0]
            den = float(np.dot(alpha.weights * ds, ds))
            if den > 0.0:
                p = plain - float(np.dot(alpha.weights * ds, step)) / den * (plain - last[1])
        last, previous = (step, plain), residual
        iterations += 1


def dual_value(alpha: DiscreteMeasure, beta: DiscreteMeasure,
               f: np.ndarray, g: np.ndarray) -> float:
    """Dual objective ``<alpha, f> + <beta, g>`` of a potential pair.

    At convergence this equals the entropy-regularized transport cost; it is
    invariant under the gauge shift ``(f + c, g - c)``. The products are
    summed with ``math.fsum``, so the value is their correctly rounded sum and
    the solver's ascent check does not see rounding as a fall.
    """
    f = _check_vector("f", f, alpha.n_atoms)
    g = _check_vector("g", g, beta.n_atoms)
    return math.fsum(np.concatenate((alpha.weights * f, beta.weights * g)).tolist())


def _dense_plan(alpha: DiscreteMeasure, beta: DiscreteMeasure, f, g, spec: CostSpec,
                max_entries: int, what: str):
    """Dense cost ``C``, exponent ``z = (f_i + g_j - C_ij) / eps``, product
    weights ``alpha_i beta_j`` and plan ``pi = alpha_i beta_j exp(z)``;
    ``what`` names the result in the error beyond ``max_entries`` entries."""
    n, m = alpha.n_atoms, beta.n_atoms
    if n * m > _count("max_entries", max_entries, 0):
        raise TooLarge(f"{what} would hold {n * m} entries (limit {max_entries})")
    f = _check_vector("f", f, n)
    g = _check_vector("g", g, m)
    c = cost_block(spec, alpha.positions, beta.positions)
    z = (f[:, None] + g[None, :] - c) / spec.epsilon
    ab = alpha.weights[:, None] * beta.weights[None, :]
    return c, z, ab, ab * np.exp(z)


def plan_matrix(
    alpha: DiscreteMeasure,
    beta: DiscreteMeasure,
    f: np.ndarray,
    g: np.ndarray,
    spec: CostSpec,
    max_entries: int = PLAN_ENTRY_GUARD,
) -> np.ndarray:
    """Materialize the primal plan implied by a pair of potentials.

    ``pi_ij = alpha_i beta_j exp((f_i + g_j - C_ij) / eps)``. Guarded by
    ``max_entries`` because the result is a dense ``n x m`` array.
    """
    return _dense_plan(alpha, beta, f, g, spec, max_entries, "plan")[3]


def plan_diagnostics(
    alpha: DiscreteMeasure,
    beta: DiscreteMeasure,
    f: np.ndarray,
    g: np.ndarray,
    spec: CostSpec,
    max_entries: int = PLAN_ENTRY_GUARD,
) -> PlanDiagnostics:
    """Primal quantities of the implied plan: cost, divergence, marginals.

    ``transport_cost`` is ``<pi, C>``; ``kl`` is the divergence of the plan
    from the product measure, computed through the convex integrand
    ``psi(r) = r log r - r + 1`` evaluated stably on log-scale ratios; and
    ``marginal_err_l1`` is the total L1 violation of both marginals.
    """
    c, z, ab, pi = _dense_plan(alpha, beta, f, g, spec, max_entries, "diagnostics")
    transport_cost = float(np.sum(pi * c))
    # psi(exp(z)) = z exp(z) - expm1(z), accurate near z = 0 and nonnegative
    kl = float(np.sum(ab * (z * np.exp(z) - np.expm1(z))))
    row_err = float(np.abs(pi.sum(axis=1) - alpha.weights).sum())
    col_err = float(np.abs(pi.sum(axis=0) - beta.weights).sum())
    return PlanDiagnostics(transport_cost=transport_cost, kl=kl,
                           marginal_err_l1=row_err + col_err)
