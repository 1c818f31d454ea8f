"""Pairwise reductions over point clouds, all run by one tiled loop.

Every operation here reduces an implicit ``n_rows x n_cols`` matrix of terms
(log-sum-exp rows, kernel sums, and their position-derivative companions)
without the caller ever building that matrix. Each operation supplies only
its term; one private function, :func:`_reduce`, does the rest:

* Rows are cut into blocks of ``rb = max(1, PAIR_BUDGET // n_cols)`` rows,
  so a block holds at most ``PAIR_BUDGET`` pairs (one 256 x 256 tile), or
  one row when a row alone is longer; memory stays linear in
  ``n_rows + n_cols``. ``dense`` mode is the same loop with one block.
* Every reduction runs on a :class:`CostStore`: its validated points, each
  worker's 64-byte-aligned block buffers and, for a solve, the kept costs.
  A call without a store makes a one-shot store that keeps no costs. A
  block's squared distances are built once, in the coordinate order of
  :func:`costs.sq_dist_block`, and turned into its terms in place.
* A solver passes one :class:`CostStore` per direction to its
  :func:`lse_rows` calls, which validate its log-weights once. The first
  call keeps every block's ``C / eps``, built by the same arithmetic, and
  later calls of the solve start from those blocks. This costs ``8 n_rows
  n_cols`` bytes per direction and is done only up to ``CACHE_PAIRS``
  pairs; larger problems stream in linear memory.
* A log-sum-exp row is shifted by its exact maximum over the whole row, then
  exponentiated. Row sums and gradient sums are accumulated tile by tile over
  ``tile_size``-column slices, in column order.
* :func:`lse_rows` raises its shifted terms to ``EXP_FLOOR = -707`` before
  the ``exp``: below about -708.4 the result is subnormal or 0, and NumPy's
  vectorised ``exp`` then takes a path 18 to 180 times slower per block
  (x86 Xeon), which small blur reaches through ``C / eps``. The bits stay:
  every row holds the exact term ``exp(0) = 1``, and a raised term is below
  ``e^-707 ~ 9e-308``, under half an ulp of any partial sum above about
  ``1e-291``. So only sums of such tiny terms change, and they round away
  when they meet the row's unit term. The pass is skipped when no term can
  fall that low: a row's terms span at most ``ptp(col) + diam^p / eps``,
  with ``diam`` the diagonal of both clouds' joint bounding box, computed
  once per :class:`CostStore` when :func:`lse_rows` first asks for it.
  :func:`exp_grad_rows` and :func:`lse_rows_with_grad` are never clamped:
  the first rescales by ``exp(mx)``, which can lift a raised term back to
  order 1, and the second sums a gradient with no unit term (exactly 0 in a
  self-extension of separated atoms would become about 1e-306).
* :func:`kernel_grad_rows` takes the kernel rows and their gradient from one
  pass: its term gives the row weights ``w_j k_ij``, with the bits of
  :func:`kernel_rows`, and the gradient sums take the weights ``w_j``.

Every output row thus goes through the same arithmetic in the same order
whatever the mode, the row block or the :func:`set_threads` worker count,
so results are bitwise identical across all three.
"""

from __future__ import annotations

import contextvars
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, MmdKernelSpec, sq_dist_block
from .errors import (DegenerateMeasure, InvalidInput, _check_points, _check_vector, _count,
                     _floats, _scale)
from .measures import DiscreteMeasure

__all__ = [
    "ReductionPlan", "ReductionStats", "CostStore", "last_stats", "reset_high_water",
    "high_water", "lse_rows", "lse_rows_with_grad", "exp_grad_rows", "kernel_rows",
    "kernel_grad_rows", "softmin", "soft_min", "set_threads",
]

PAIR_BUDGET = 256 * 256
# largest pair matrix whose C / eps a CostStore keeps; on two shared x86 cores
# keeping it made 800- to 2048-point 2D divergences 1.8 to 1.9 times faster
CACHE_PAIRS = 2048 * 2048
MODES = ("streaming", "dense")
# floor of lse_rows' shifted terms before the exp; see the module docstring
EXP_FLOOR = -707.0
_WORKERS = 1  # row-block workers of every reduction; see set_threads
_WORKERS_LOCK = threading.Lock()


def set_threads(n: int) -> int:
    """Run every later reduction in this process on ``n`` worker threads;
    returns the previous count (1 at import). Only the speed changes."""
    global _WORKERS
    n = _count("thread count", n, 1)
    with _WORKERS_LOCK:
        previous, _WORKERS = _WORKERS, n
    return previous


@dataclass(frozen=True)
class ReductionPlan:
    """Shape and tiling of one reduction.

    ``tile_size`` is the width of the column slices whose partial sums are
    accumulated in order, in both modes. ``streaming`` mode works on row
    blocks within the pair budget, ``dense`` on one block of all rows.
    """

    n_rows: int
    n_cols: int
    tile_size: int = 256
    mode: str = "streaming"

    def __post_init__(self):
        _count("n_rows", self.n_rows)
        _count("n_cols", self.n_cols)
        if self.n_rows < 1 or self.n_cols < 1:
            raise DegenerateMeasure("reduction needs at least one row and one column, "
                                    f"got {self.n_rows}x{self.n_cols}")
        _count("tile_size", self.tile_size, 1)
        if self.mode not in MODES:
            raise InvalidInput(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class ReductionStats:
    """Allocation accounting for the most recent reduction call.

    ``pair_buffer_bytes`` is the size of one block buffer indexed by (row,
    column) pairs; in streaming mode it stays within ``PAIR_BUDGET`` pairs
    unless a single row is longer. ``peak_bytes`` adds up the inputs, the
    per-row outputs and the :attr:`CostStore.nbytes` of the store the call
    ran on: the block buffers of every worker, plus the kept costs of a
    solve's store. A cross solve holds one such store per direction.
    """

    op: str
    mode: str
    n_rows: int
    n_cols: int
    pair_buffer_bytes: int
    peak_bytes: int


_STATS_LOCK = threading.Lock()
_LAST_STATS = None  # (op, plan, pair_buffer_bytes, peak_bytes) of the last call
_HIGH_WATER: dict = {"peak_bytes": 0, "pair_buffer_bytes": 0}


def last_stats() -> ReductionStats | None:
    """Accounting record of the most recent engine call in this process."""
    if _LAST_STATS is None:
        return None
    op, plan, pair, peak = _LAST_STATS
    return ReductionStats(op, plan.mode, plan.n_rows, plan.n_cols, pair, peak)


def reset_high_water() -> None:
    """Zero the running maxima tracked across engine calls."""
    with _STATS_LOCK:
        _HIGH_WATER.update(dict.fromkeys(_HIGH_WATER, 0))


def high_water() -> dict:
    """Maximum ``peak_bytes`` / ``pair_buffer_bytes`` since the last reset."""
    with _STATS_LOCK:
        return dict(_HIGH_WATER)


def _record_stats(op, plan, pair, peak):
    global _LAST_STATS
    with _STATS_LOCK:
        _LAST_STATS = (op, plan, pair, peak)
        _HIGH_WATER["peak_bytes"] = max(_HIGH_WATER["peak_bytes"], peak)
        _HIGH_WATER["pair_buffer_bytes"] = max(_HIGH_WATER["pair_buffer_bytes"], pair)


class CostStore:
    """What a reduction runs on: the validated points of one direction, each
    worker's block buffers and, for a solve, the scaled costs ``C / eps``.

    A solver makes one store per direction of a solve and passes it to every
    :func:`lse_rows` call in that direction, with the plan, point arrays and
    cost it was made for. The points are validated once, when the store is
    made, and the log-weights once per array handed in. While ``n_rows *
    n_cols <= CACHE_PAIRS`` the first call keeps each row block's ``C / eps``
    and later calls start from it. The workers' block buffers are kept too,
    so a store serves one solve at a time. A call without a store runs on a
    one-shot store that keeps no costs, with bitwise the same results.
    Neither the points nor the log-weights may change while a store is in use.
    """

    keeps = True  # whether the store may keep C / eps; a one-shot store does not

    def __init__(self, plan: ReductionPlan, targets: np.ndarray, sources: np.ndarray,
                 spec: CostSpec):
        self.plan, self.targets, self.sources, self.spec = plan, targets, sources, spec
        ys = _check_points("targets", targets)
        xs = _check_points("sources", sources)
        if xs.shape[1] != ys.shape[1]:
            raise InvalidInput(f"dimension mismatch: sources d={xs.shape[1]}, targets d={ys.shape[1]}")
        if (plan.n_rows, plan.n_cols) != (xs.shape[0], ys.shape[0]):
            raise InvalidInput(f"plan is {plan.n_rows}x{plan.n_cols} but data is {len(xs)}x{len(ys)}")
        # contiguous coordinate columns: the same values, broadcast faster
        self.xs, self.ys = np.asfortranarray(xs), np.asfortranarray(ys)
        kept = self.keeps and plan.n_rows * plan.n_cols <= CACHE_PAIRS
        self.cost = _aligned_empty((plan.n_rows, plan.n_cols)) if kept else None
        self.ready = False
        self.bufs = {}  # worker index -> that worker's block buffers
        self.logw = (None, None)  # the log-weights last handed in, and validated

    @property
    def nbytes(self) -> int:
        """Bytes held by the kept cost blocks and the workers' block buffers."""
        return sum(a.nbytes for a in (self.cost, *self.bufs.values()) if a is not None)

    @functools.cached_property
    def span(self) -> float:
        """Bound on ``C / eps`` over all pairs: ``diam ** p / eps``, with
        ``diam`` the diagonal of the joint bounding box of both clouds."""
        xs, ys = self.xs, self.ys
        box = np.maximum(xs.max(axis=0), ys.max(axis=0)) - np.minimum(xs.min(axis=0), ys.min(axis=0))
        sq = float(box @ box)
        return (np.sqrt(sq) if self.spec.p == 1 else sq) / self.spec.epsilon


class _OneShot(CostStore):
    """The store of one call made without a store; ``spec`` may be a kernel."""

    keeps = False


def _may_underflow(col: np.ndarray, cost_span: float) -> bool:
    """Whether a shifted :func:`lse_rows` term ``col_j - C_ij / eps - max_i``
    can fall below ``EXP_FLOOR``; every term lies within ``ptp(col) +
    cost_span`` of its row maximum. A NaN bound counts as true."""
    return cost_span > -EXP_FLOOR or not col.max() - col.min() + cost_span <= -EXP_FLOOR


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised array of ``shape`` starting on a 64-byte boundary:
    the block loops ran 20-30 % slower at the other offsets, which malloc
    picks from every earlier allocation."""
    raw = np.empty(math.prod(shape) + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + raw.size - 7].reshape(shape)


def _reduce(op, store, vecs, term, *, lse=False, sums=True, grad=False, clamp=False):
    """The one reduction loop, run on ``store``; returns the per-row
    accumulators ``(mx, acc, gacc)``.

    The block term ``term(sq, diff, aux, r0, r1)`` turns the squared
    distances ``sq`` of rows ``r0:r1`` in place into ``(weights, scale,
    gweights)``: what is summed along each row, the per-pair factor turning
    a coordinate difference into a gradient entry, and the weights of the
    gradient sums (``diff``, free until those sums, and ``aux`` are spare
    block buffers when ``grad``). Where the store keeps costs (cost terms
    only, no ``grad``), a block's ``C / eps`` is read from it, or built into
    it on the first call, and passed as the term's last argument ``cost``.
    With ``lse`` the weights are first shifted by their exact row maximum
    ``mx``, raised to ``EXP_FLOOR`` if ``clamp``, and exponentiated. ``acc``
    holds the row sums of the weights (``sums``), ``gacc`` those of ``diff_k
    * scale * gweights`` (``grad``). ``vecs`` are the call's validated input
    vectors, counted in its accounting.
    """
    plan, xs, ys, cost = store.plan, store.xs, store.ys, store.cost
    (n, d), m = xs.shape, ys.shape[0]
    rb = n if plan.mode == "dense" else min(n, max(1, PAIR_BUDGET // m))
    tile = plan.tile_size
    mx = np.empty(n) if lse else None
    acc = np.zeros(n) if sums else None
    gacc = np.zeros((n, d)) if grad else None
    n_buf = 1 + (d > 1 or grad) + grad  # sq; diff for d > 1 or gradients; aux
    workers = min(_WORKERS, -(-n // rb))  # at most one per row block

    def work(first):
        if first not in store.bufs:
            store.bufs[first] = _aligned_empty((n_buf, rb, m))
        bufs = store.bufs[first]
        for r0 in range(first * rb, n, workers * rb):
            r1 = min(r0 + rb, n)
            sq, diff, aux = [*bufs[:, : r1 - r0], None, None][:3]
            if cost is None:
                sq_dist_block(xs[r0:r1], ys, out=sq, work=diff)
                weights, scale, gweights = term(sq, diff, aux, r0, r1)
            else:
                block = cost[r0:r1]
                if not store.ready:
                    sq_dist_block(xs[r0:r1], ys, out=block, work=diff)
                    _scaled_cost(store.spec, block)
                weights, scale, gweights = term(sq, diff, aux, r0, r1, block)
            if lse:
                row_max = weights.max(axis=1)
                mx[r0:r1] = row_max
                np.subtract(weights, row_max[:, None], out=weights)
                if clamp:
                    np.maximum(weights, EXP_FLOOR, out=weights)
                np.exp(weights, out=weights)
            if sums:
                row_acc = acc[r0:r1]
                for j0 in range(0, m, tile):
                    row_acc += weights[:, j0:j0 + tile].sum(axis=1)
            for k in range(d if grad else 0):
                np.subtract(xs[r0:r1, k, None], ys[None, :, k], out=diff)
                np.multiply(diff, scale, out=diff)
                np.multiply(diff, gweights, out=diff)
                row_acc = gacc[r0:r1, k]
                for j0 in range(0, m, tile):
                    row_acc += diff[:, j0:j0 + tile].sum(axis=1)

    if workers > 1:
        # the caller is worker 0 (an idle pool thread would take the next
        # worker's blocks); the others copy its context, holding np.errstate
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            others = [pool.submit(contextvars.copy_context().run, work, first)
                      for first in range(1, workers)]
            work(0)
            for future in others:
                future.result()
    else:
        work(0)
    store.ready = True
    pair = rb * m * 8
    peak = sum([a.nbytes for a in (xs, ys, *vecs, mx, acc, gacc) if a is not None])
    peak += store.nbytes
    _record_stats(op, plan, pair, peak)
    return mx, acc, gacc


def _inverse(dist: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 / dist`` where ``dist > 0``, else 0 (the subgradient at coincident points)."""
    out.fill(0.0)
    np.divide(1.0, dist, out=out, where=dist > 0.0)
    return out


def _scaled_cost(spec: CostSpec, sq: np.ndarray, aux=None):
    """Turn squared distances ``sq`` in place into ``C / eps``; returns the
    scale of ``dC(x_i, y_j)/dx_i`` (for ``p = 1`` written into ``aux``)."""
    scale = 2.0
    if spec.p == 1:
        np.sqrt(sq, out=sq)
        if aux is not None:
            scale = _inverse(sq, aux)
    np.divide(sq, spec.epsilon, out=sq)
    return scale


def _cost_term(spec: CostSpec, col, row=None, grad=False):
    """Term ``col_j - C_ij / eps``, or ``col_j + (row_i - C_ij / eps)`` given
    ``row``; with ``grad`` the scale is that of ``dC(x_i, y_j)/dx_i``. Given
    a kept block ``cost`` of ``C / eps``, ``sq`` only receives the terms."""

    def term(sq, diff, aux, r0, r1, cost=None):
        scale = None
        if cost is None:
            scale = _scaled_cost(spec, sq, aux if grad else None)
            cost = sq
        if row is None:
            np.subtract(col, cost, out=sq)
        else:
            np.subtract(row[r0:r1, None], cost, out=sq)
            np.add(col, sq, out=sq)
        return sq, scale, sq

    return term


def _kernel_term(kspec: MmdKernelSpec, w, grad=False):
    """Term ``w_j k(x_i, y_j)``; with ``grad`` also the scale of
    ``dk(x_i, y_j)/dx_i``, whose gradient sums take the weights ``w``."""
    kind, s = kspec.kind, kspec.sigma

    def term(sq, diff, aux, r0, r1):
        if kind == "gaussian":
            np.multiply(sq, -0.5 / s**2, out=sq)
            np.exp(sq, out=sq)
        else:
            np.sqrt(sq, out=sq)
            inv = _inverse(sq, aux) if grad else None
            if kind == "energy":
                np.negative(sq, out=sq)
            else:
                np.multiply(sq, -1.0 / s, out=sq)
                np.exp(sq, out=sq)
        if not grad:
            return np.multiply(sq, w, out=sq), None, None
        rows = np.multiply(sq, w, out=diff)
        if kind == "gaussian":
            return rows, np.multiply(sq, -1.0 / s**2, out=sq), w
        if kind == "energy":
            return rows, np.negative(inv, out=inv), w
        np.multiply(sq, -1.0 / s, out=sq)
        return rows, np.multiply(sq, inv, out=sq), w

    return term


# ---------------------------------------------------------------------------
# The five reductions: each validates its vectors and passes its term to _reduce
# ---------------------------------------------------------------------------


def lse_rows(plan: ReductionPlan, logw: np.ndarray, pot: np.ndarray, targets: np.ndarray,
             sources: np.ndarray, spec: CostSpec, store: CostStore | None = None) -> np.ndarray:
    """Stabilized log-sum-exp rows against a potential-weighted point cloud.

    For each source point ``x_i`` this returns

        ``log sum_j exp(logw_j + pot_j / eps - C(x_i, targets_j) / eps)``

    computed with an exact row maximum shift, so the output is finite for
    any finite inputs. Calls sharing a ``store`` build each cost block once.
    """
    if store is None:
        store = _OneShot(plan, targets, sources, spec)
    elif not (targets is store.targets and sources is store.sources
              and plan == store.plan and spec == store.spec):
        raise InvalidInput("cost store was made for other points, plan or cost")
    if logw is not store.logw[0]:
        store.logw = (logw, _check_vector("logw", logw, plan.n_cols))
    logw = store.logw[1]
    pot = _check_vector("pot", pot, plan.n_cols)
    col = logw + pot / spec.epsilon
    mx, acc, _ = _reduce("lse_rows", store, (logw, pot), _cost_term(spec, col), lse=True,
                         clamp=_may_underflow(col, store.span))
    return mx + np.log(acc)


def lse_rows_with_grad(plan: ReductionPlan, logw: np.ndarray, pot: np.ndarray,
                       targets: np.ndarray, sources: np.ndarray,
                       spec: CostSpec) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp rows plus the softmax-weighted cost gradient.

    Returns ``(lse, grad)`` where ``grad[i]`` is the convex combination
    ``sum_j softmax_ij * dC(x_i, y_j)/dx_i`` of cost gradients under the
    softmax weights implied by the same terms as :func:`lse_rows`.
    """
    store = _OneShot(plan, targets, sources, spec)
    logw = _check_vector("logw", logw, plan.n_cols)
    pot = _check_vector("pot", pot, plan.n_cols)
    mx, acc, gacc = _reduce("lse_rows_with_grad", store, (logw, pot),
                            _cost_term(spec, logw + pot / spec.epsilon, grad=True),
                            lse=True, grad=True)
    return mx + np.log(acc), gacc / acc[:, None]


def exp_grad_rows(plan: ReductionPlan, colw_log: np.ndarray, row_pot: np.ndarray,
                  targets: np.ndarray, sources: np.ndarray, spec: CostSpec) -> np.ndarray:
    """Unnormalized exp-weighted cost-gradient rows.

    Returns ``out[i] = sum_j exp(colw_log_j + (row_pot_i - C(x_i, y_j)) / eps)
    * dC(x_i, y_j)/dx_i`` with an internal row maximum shift. The exponent is
    restored at the end, so the caller is responsible for keeping the true row
    scale within floating-point range (bounded sums are safe).
    """
    store = _OneShot(plan, targets, sources, spec)
    colw_log = _check_vector("colw_log", colw_log, plan.n_cols)
    row_pot = _check_vector("row_pot", row_pot, plan.n_rows)
    mx, _, gacc = _reduce("exp_grad_rows", store, (colw_log, row_pot),
                          _cost_term(spec, colw_log, row_pot / spec.epsilon, grad=True),
                          lse=True, sums=False, grad=True)
    return np.exp(mx)[:, None] * gacc


def kernel_rows(plan: ReductionPlan, weights: np.ndarray, targets: np.ndarray,
                sources: np.ndarray, kspec: MmdKernelSpec) -> np.ndarray:
    """Rows of the kernel convolution: ``out[i] = sum_j w_j k(x_i, y_j)``."""
    store = _OneShot(plan, targets, sources, kspec)
    w = _check_vector("weights", weights, plan.n_cols)
    return _reduce("kernel_rows", store, (w,), _kernel_term(kspec, w))[1]


def kernel_grad_rows(plan: ReductionPlan, weights: np.ndarray, targets: np.ndarray,
                     sources: np.ndarray, kspec: MmdKernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the kernel convolution and their gradient, from one pass.

    Returns ``(rows, grad)``: ``rows`` has the bits of :func:`kernel_rows`,
    and ``grad[i] = sum_j w_j dk(x_i, y_j)/dx_i``, shape ``(n, d)``.
    """
    store = _OneShot(plan, targets, sources, kspec)
    w = _check_vector("weights", weights, plan.n_cols)
    return _reduce("kernel_grad_rows", store, (w,), _kernel_term(kspec, w, grad=True),
                   grad=True)[1:]


def softmin(measure: DiscreteMeasure, phi: np.ndarray, spec: CostSpec,
            query_points: np.ndarray) -> np.ndarray:
    """Smoothed minimum of ``C(., y) - phi(.)`` over the measure's support.

    For each query ``y`` this evaluates

        ``-eps * log sum_k w_k exp((phi_k - C(x_k, y)) / eps)``

    which tends to ``min_k (C(x_k, y) - phi_k)`` as eps goes to zero and to
    the average ``sum_k w_k (C(x_k, y) - phi_k)`` as eps grows.
    """
    queries = _floats("query_points", query_points)
    if queries.ndim == 1:
        queries = queries[:, None]
    plan = ReductionPlan(n_rows=queries.shape[0], n_cols=measure.n_atoms)
    phi = _check_vector("phi", phi, measure.n_atoms)
    return -spec.epsilon * lse_rows(plan, measure.log_weights, phi, measure.positions,
                                    queries, spec)


def soft_min(weights: np.ndarray, values: np.ndarray, epsilon: float) -> float:
    """Scalar soft minimum ``-eps log sum_k w_k exp(-values_k / eps)``.

    Interpolates between the hard minimum of ``values`` (small eps) and the
    weighted average (large eps); adding a constant to ``values`` shifts the
    result by the same constant.
    """
    w = _floats("weights", weights)
    vals = _floats("values", values)
    if w.shape != vals.shape or w.ndim != 1:
        raise InvalidInput(f"weights {w.shape} and values {vals.shape} must be matching vectors")
    if w.size == 0:
        raise DegenerateMeasure("soft_min over empty support")
    if np.any(w <= 0):
        raise InvalidInput("soft_min weights must be strictly positive")
    _scale("epsilon", epsilon)
    t = np.log(w) - vals / epsilon
    mx = t.max()
    return float(-epsilon * (mx + np.log(np.sum(np.exp(t - mx)))))
