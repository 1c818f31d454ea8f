"""Transport divergences, kernel losses, and their analytic gradients.

Values come from converged dual potentials; gradients are evaluated in
closed form at the converged state (no differentiation through the solver
loop). The debiased transport divergence between ``alpha`` and ``beta``
combines one cross-transport solve with the two self-transport fixed points:

    value = <alpha, f - p> + <beta, g - q>

where ``(f, g)`` solve the cross problem and ``p``/``q`` are the symmetric
potentials of each measure against itself. The debiasing removes the entropic
shrinkage of the raw transport cost, making the loss nonnegative, zero only
at equality, and a positive-definite interpolant between pure transport
(small blur) and a kernel norm (large blur).

Every loss is evaluated by :func:`evaluate`, which runs only the solves and
reductions that the requested value and gradient need. The public value and
gradient functions and the flow simulator are thin callers of it.

The public gradients (:func:`sinkhorn_gradient`, :func:`mmd_gradient`) are
true partial derivatives of the discrete loss, so central finite differences
of the full pipeline reproduce them entry by entry. The one exception is the
``hausdorff`` gradient (the flow force), which holds the self-transport
potentials fixed and is only an approximation (see :func:`evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .costs import KERNEL_KINDS, MmdKernelSpec
from .engine import (
    ReductionPlan,
    exp_grad_rows,
    kernel_grad_rows,
    kernel_rows,
    lse_rows,
    lse_rows_with_grad,
)
from .errors import GradientUnreliable, InvalidInput, NumericalFailure
from .measures import DiscreteMeasure
from .solver import (
    DualState,
    SolverParams,
    dual_value,
    sinkhorn,
    sinkhorn_symmetric,
)

__all__ = [
    "LossValue",
    "LossGradient",
    "evaluate",
    "ot_eps",
    "sinkhorn_divergence",
    "hausdorff_divergence",
    "mmd",
    "sinkhorn_gradient",
    "mmd_gradient",
]

@dataclass(frozen=True)
class LossValue:
    """A scalar loss plus per-solver convergence diagnostics."""

    value: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LossGradient:
    """Partial derivatives of a loss with respect to one measure.

    ``d_weights[i]`` is the derivative in the i-th weight (defined up to a
    common additive constant, since weights live on the simplex; compare
    differences ``d_weights[i] - d_weights[j]`` for gauge-free values).
    ``d_positions[i]`` is the derivative in the i-th support point.
    """

    d_weights: np.ndarray
    d_positions: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _info(state) -> dict:
    info = {
        "iterations": state.iterations,
        "residual": state.residual,
        "converged": state.converged,
    }
    if isinstance(state, DualState):
        info["omega"] = state.omega
    return info


def _require_converged(states: dict, grad: LossGradient):
    bad = {k: s.residual for k, s in states.items() if not s.converged}
    if bad:
        detail = ", ".join(f"{k} residual {r:.3g}" for k, r in bad.items())
        raise GradientUnreliable(f"non-converged solve(s): {detail}", partial=grad)


def _require_finite(**arrays):
    bad = [name for name, a in arrays.items() if not np.all(np.isfinite(a))]
    if bad:
        raise NumericalFailure(f"non-finite internal values: {', '.join(bad)}")


def _target(warm: dict, beta: DiscreteMeasure, spec):
    """What ``warm["target"]`` keeps of ``beta``'s own terms, if it was made
    for this very ``beta`` object and an equal ``spec``; else None."""
    entry = warm.get("target", (None, None, None))
    return entry[2] if entry[0] is beta and entry[1] == spec else None


def _target_dual(beta, params, warm):
    """``beta``'s self-transport state, kept by ``warm`` if converged, else
    solved from ``warm["q"]``; and the entry keeping it as a solve started
    from its converged potential reports it (0 iterations, same residual)."""
    state = _target(warm, beta, params)
    if state is None or not state.converged:
        state = sinkhorn_symmetric(beta, params, init_potential=warm.get("q"))
    return state, (beta, params, replace(state, iterations=0))


def _extension(params: SolverParams, source: DiscreteMeasure, potential: np.ndarray,
               target: DiscreteMeasure, grad: bool = False):
    """Row log-sums of the soft-minimum extension ``T(source, potential)`` at
    ``target``'s points (``T = -eps * lse``), with their gradient in those
    points when ``grad`` is set."""
    reduce = lse_rows_with_grad if grad else lse_rows
    return reduce(ReductionPlan(target.n_atoms, source.n_atoms), source.log_weights,
                  potential, source.positions, target.positions, params.cost_spec)


# ---------------------------------------------------------------------------
# The one evaluation path
# ---------------------------------------------------------------------------


def evaluate(loss: str, alpha: DiscreteMeasure, beta: DiscreteMeasure, *,
             params: SolverParams | None = None, kernel: MmdKernelSpec | None = None,
             warm: dict | None = None, want_value: bool = True, want_grad: bool = False):
    """Value and gradient of one loss in ``alpha``, from one set of solves.

    ``loss`` is a key of :data:`LOSSES`. ``ot_eps``, ``sinkhorn`` and
    ``hausdorff`` need ``params`` and take no ``kernel``; ``mmd-KIND``
    takes no ``params``, and its ``kernel`` must be of kind ``KIND`` and
    defaults to it at unit bandwidth; any other combination raises
    :class:`InvalidInput`. Only the solves and reductions that
    ``want_value`` and ``want_grad`` need are run: the ``sinkhorn`` gradient
    alone solves no self-transport problem of ``beta``, and the MMD gradient
    alone makes no kernel pass of ``beta`` against itself.
    The returned ``warm`` dict warm-starts the next evaluation on slightly
    moved ``alpha``. It holds a transport loss's potentials and, with a
    value, ``beta``'s own terms as ``target`` (``<beta, K beta>`` or its
    :class:`SymmetricDual`), reused for the same ``beta`` object and an
    equal spec only (a self solve also only if it converged). Like a
    :class:`CostStore`, it is valid only while ``beta``'s arrays are unchanged.

    Returns ``(value, gradient, warm_out, diagnostics)``. ``value`` is None
    unless ``want_value``; ``gradient`` is a :class:`LossGradient`, or None
    unless ``want_grad``; ``diagnostics`` holds each solve's iterations,
    residual and convergence. A gradient from a solve that did not converge
    raises :class:`GradientUnreliable` with the gradient attached as
    ``partial``; a value is returned either way.

    The gradient is exact for every loss but ``hausdorff``, whose gradient
    holds the converged self potentials fixed and differentiates only
    through the soft-minimum extensions. That loss is not stationary in
    those potentials, so this flow force approximates the gradient, with an
    error that depends on the problem: relative to max(1, |FD|) it differs
    from central finite differences by 6.2e-3 on 8 vs 9 atoms in 2D
    (eps=0.1, p=2), and by 2.0e-3 to 3.1e-2 on four other problems of at
    most 25 atoms (d = 1 to 3, eps = 0.02 to 0.3, p = 1 and 2). It is exact
    for point masses and a descent direction in practice. Non-finite
    Hausdorff extensions raise :class:`NumericalFailure`.
    """
    if alpha.dim != beta.dim:
        raise InvalidInput(f"dimension mismatch: {alpha.dim} vs {beta.dim}")
    spec = _loss_spec(loss, params, kernel)
    value, parts, warm_out, states = LOSSES[loss](alpha, beta, spec, warm or {},
                                                  want_value, want_grad)
    diagnostics = {name: _info(state) for name, state in states.items()}
    gradient = None
    if want_grad:
        gradient = LossGradient(*parts, diagnostics=diagnostics)
        _require_converged(states, gradient)
    return value, gradient, warm_out, diagnostics


def _loss_spec(loss: str, params: SolverParams | None = None,
               kernel: MmdKernelSpec | None = None):
    """The spec that ``loss`` runs on, by the rule of :func:`evaluate`;
    raises :class:`InvalidInput` for any combination that rule rejects."""
    kind = MMD_KINDS.get(loss)
    spec, unused = (params, kernel) if kind is None else (kernel or MmdKernelSpec(kind), params)
    if loss not in LOSSES:
        raise InvalidInput(f"unknown loss {loss!r}")
    if spec is None:
        raise InvalidInput(f"loss {loss!r} needs solver parameters")
    if kind is not None and spec.kind != kind:
        raise InvalidInput(f"kernel spec {spec.kind!r} does not match loss {loss!r}")
    if unused is not None:
        raise InvalidInput(f"loss {loss!r} does not run on {type(unused).__name__}")
    return spec


def _ot_eps(alpha, beta, params, warm, want_value, want_grad):
    cross = sinkhorn(alpha, beta, params, init_f=warm.get("f"))
    value = dual_value(alpha, beta, cross.f, cross.g) if want_value else None
    grad = None
    if want_grad:
        _, cross_grad = _extension(params, beta, cross.g, alpha, grad=True)
        grad = cross.f.copy(), alpha.weights[:, None] * cross_grad
    return value, grad, {"f": cross.f}, {"cross": cross}


def _sinkhorn(alpha, beta, params, warm, want_value, want_grad):
    # the cross solve starts from alpha's self potential: at equality that
    # already solves it, so value(alpha, alpha) == 0 to machine precision
    auto_a = sinkhorn_symmetric(alpha, params, init_potential=warm.get("p"))
    p = auto_a.potential
    if want_value:
        auto_b, target = _target_dual(beta, params, warm)
    init_f = warm.get("f")
    cross = sinkhorn(alpha, beta, params, init_f=p if init_f is None else init_f)
    states = {"cross": cross, "alpha_auto": auto_a}
    warm_out = {"f": cross.f, "p": p}
    value = grad = None
    if want_value:
        states["beta_auto"] = auto_b
        warm_out.update(q=auto_b.potential, target=target)
        value = float(
            np.dot(alpha.weights, cross.f - p)
            + np.dot(beta.weights, cross.g - auto_b.potential)
        )
    if want_grad:
        _, cross_grad = _extension(params, beta, cross.g, alpha, grad=True)
        _, auto_grad = _extension(params, alpha, p, alpha, grad=True)
        grad = cross.f - p, alpha.weights[:, None] * (cross_grad - auto_grad)
    return value, grad, warm_out, states


def _hausdorff(alpha, beta, params, warm, want_value, want_grad):
    spec = params.cost_spec
    eps = spec.epsilon
    n, m = alpha.n_atoms, beta.n_atoms
    auto_a = sinkhorn_symmetric(alpha, params, init_potential=warm.get("p"))
    auto_b, target = _target_dual(beta, params, warm)
    p, q = auto_a.potential, auto_b.potential
    # extensions T(beta, q) on alpha's support and T(alpha, p) on beta's (and,
    # for the force, on alpha's own), as row log-sums
    if want_grad:
        lse_q_on_a, grad_q_on_a = _extension(params, beta, q, alpha, grad=True)
        lse_p_on_a, grad_p_on_a = _extension(params, alpha, p, alpha, grad=True)
    lse_p_on_b = _extension(params, alpha, p, beta)
    if not want_grad:
        lse_q_on_a = _extension(params, beta, q, alpha)
    _require_finite(lse_q_on_alpha=lse_q_on_a, lse_p_on_beta=lse_p_on_b)
    q_on_alpha = -eps * lse_q_on_a
    p_on_beta = -eps * lse_p_on_b
    value = grad = None
    if want_value:
        value = 0.5 * float(
            np.dot(alpha.weights, q_on_alpha - p)
            + np.dot(beta.weights, p_on_beta - q)
        )
    if want_grad:
        _require_finite(lse_p_on_alpha=lse_p_on_a)
        # Column-side terms: how moving atom x_i changes T(alpha, p) at each
        # evaluation point z, weighted by the measure sitting at z.
        col_on_a = exp_grad_rows(
            ReductionPlan(n, n), alpha.log_weights - lse_p_on_a, p,
            alpha.positions, alpha.positions, spec,
        )
        col_on_b = exp_grad_rows(
            ReductionPlan(n, m), beta.log_weights - lse_p_on_b, p,
            beta.positions, alpha.positions, spec,
        )
        force = 0.5 * alpha.weights[:, None] * (
            grad_q_on_a - grad_p_on_a - col_on_a + col_on_b
        )
        grad = 0.5 * (q_on_alpha - p), force
    warm_out = {"p": p, "q": q, "target": target}
    return value, grad, warm_out, {"alpha_auto": auto_a, "beta_auto": auto_b}


def _mmd(alpha, beta, kernel, warm, want_value, want_grad):
    n, m = alpha.n_atoms, beta.n_atoms
    wa, wb = alpha.weights, beta.weights
    xs, ys = alpha.positions, beta.positions
    # 0.5 (<a, Ka> + <b, Kb> - 2 <a, Kb>), each sum in a fixed order, so
    # that the loss of a measure against itself is exactly zero; a gradient
    # takes its rows and their gradient from one pass per support pair
    reduce = kernel_grad_rows if want_grad else lambda *args: (kernel_rows(*args), None)
    rows_auto, grad_auto = reduce(ReductionPlan(n, n), wa, xs, xs, kernel)
    rows_cross, grad_cross = reduce(ReductionPlan(n, m), wb, ys, xs, kernel)
    grad = (rows_auto - rows_cross, wa[:, None] * (grad_auto - grad_cross)) if want_grad else None
    if not want_value:
        return None, grad, {}, {}
    bb = _target(warm, beta, kernel)
    if bb is None:
        bb = float(np.sum(wb * kernel_rows(ReductionPlan(m, m), wb, ys, ys, kernel)))
    aa, ab = float(np.sum(wa * rows_auto)), float(np.sum(wa * rows_cross))
    return 0.5 * (aa + bb - 2.0 * ab), grad, {"target": (beta, kernel, bb)}, {}


# every loss by name, with the runner that evaluates it on the spec from
# _loss_spec; the MMD losses are named after their kernel kinds
MMD_KINDS = {f"mmd-{kind}": kind for kind in KERNEL_KINDS}
LOSSES = {"ot_eps": _ot_eps, "sinkhorn": _sinkhorn, "hausdorff": _hausdorff,
          **dict.fromkeys(MMD_KINDS, _mmd)}


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def _loss_value(loss: str, alpha, beta, **options) -> LossValue:
    value, _, _, diagnostics = evaluate(loss, alpha, beta, **options)
    return LossValue(value=value, diagnostics=diagnostics)


def ot_eps(alpha: DiscreteMeasure, beta: DiscreteMeasure, params: SolverParams) -> LossValue:
    """Entropy-regularized transport cost (dual objective at convergence).

    Biased: ``ot_eps(alpha, alpha) > 0`` in general; use
    :func:`sinkhorn_divergence` for a loss that vanishes at equality.
    """
    return _loss_value("ot_eps", alpha, beta, params=params)


def sinkhorn_divergence(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                        params: SolverParams) -> LossValue:
    """Debiased transport divergence between two measures.

    The self-transport problems are solved first and the cross solve starts
    from ``alpha``'s self potential. At equality the self potential already
    solves the cross problem, so the identity ``value(alpha, alpha) == 0``
    holds to machine precision instead of inheriting the iteration error of
    a cold-started solve; for nearby measures it shortens the solve without
    changing the converged value (starting point only shifts the gauge).
    """
    return _loss_value("sinkhorn", alpha, beta, params=params)


def hausdorff_divergence(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                         params: SolverParams) -> LossValue:
    """Symmetric projection-type divergence built from self-transport duals.

    Each measure's symmetric potential is extended onto the other support by
    the canonical soft-minimum map ``T``; the loss is

        ``0.5 * [ <alpha, T(beta,q) - p> + <beta, T(alpha,p) - q> ]``

    It is nonnegative, vanishes at equality, and is dominated by the
    debiased transport divergence. Cheaper than
    :func:`sinkhorn_divergence`: no cross-transport solve is needed.
    """
    return _loss_value("hausdorff", alpha, beta, params=params)


def mmd(alpha: DiscreteMeasure, beta: DiscreteMeasure, kernel: MmdKernelSpec) -> LossValue:
    """Squared maximum mean discrepancy ``0.5 ||alpha - beta||_k^2``.

    Expanded as ``0.5 (<a, Ka> + <b, Kb> - 2 <a, Kb>)`` with all three sums
    evaluated by the streaming engine in a fixed order, so
    ``mmd(alpha, alpha)`` is exactly zero.
    """
    return _loss_value(f"mmd-{kernel.kind}", alpha, beta, kernel=kernel)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def sinkhorn_gradient(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                      params: SolverParams) -> LossGradient:
    """Analytic gradient of the debiased transport divergence in ``alpha``.

    Weight derivatives are ``f - p``. Position derivatives follow the
    converged potentials: each point feels the softmax-averaged cost
    gradient toward the other measure minus the one toward its own measure,
    scaled by its weight. Raises :class:`GradientUnreliable` (with the
    partial result attached) when any solve did not converge.
    """
    return evaluate("sinkhorn", alpha, beta, params=params,
                    want_value=False, want_grad=True)[1]


def mmd_gradient(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                 kernel: MmdKernelSpec) -> LossGradient:
    """Analytic gradient of the squared kernel discrepancy in ``alpha``.

    ``d_weights[i]`` is the witness function ``(k * (alpha - beta))(x_i)``;
    ``d_positions[i]`` is ``alpha_i`` times the gradient of that witness.
    Distance-based kernels use subgradient zero at coincident points.
    """
    return evaluate(f"mmd-{kernel.kind}", alpha, beta, kernel=kernel,
                    want_value=False, want_grad=True)[1]
