"""Ground costs and kernels, evaluated blockwise and on the fly.

The transport cost is ``C(x, y) = |x - y|^p`` with exponent ``p`` in {1, 2}.
Kernel losses use one of three negative-definite / positive kernels:

* ``energy``:    ``k(x, y) = -|x - y|``
* ``gaussian``:  ``k(x, y) = exp(-|x - y|^2 / (2 sigma^2))``
* ``laplacian``: ``k(x, y) = exp(-|x - y| / sigma)``

Block evaluators accumulate squared distances one coordinate at a time in a
fixed order, so a block computed on a slice is bit-identical to the matching
slice of a block computed on the full arrays. The reduction engine relies on
this for its streaming/dense equivalence guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, _floats, _scale

__all__ = ["CostSpec", "MmdKernelSpec", "cost", "mmd_kernel"]

KERNEL_KINDS = ("energy", "gaussian", "laplacian")


@dataclass(frozen=True)
class CostSpec:
    """Ground cost ``|x - y|^p`` together with the blur scale epsilon.

    ``epsilon`` is expressed in the same units as the cost itself; no
    rescaling by the exponent or the data diameter is applied.
    """

    p: int
    epsilon: float

    def __post_init__(self):
        if self.p not in (1, 2):
            raise InvalidInput(f"cost exponent must be 1 or 2, got {self.p}")
        _scale("epsilon", self.epsilon)


@dataclass(frozen=True)
class MmdKernelSpec:
    """Kernel family and bandwidth for maximum-mean-discrepancy losses."""

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidInput(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        _scale("sigma", self.sigma)


def _sq_dist(x, y) -> float:
    xv = _floats("x", x).reshape(-1)
    yv = _floats("y", y).reshape(-1)
    if xv.shape != yv.shape:
        raise InvalidInput(f"point dimensions differ: {xv.shape[0]} vs {yv.shape[0]}")
    return float(np.dot(xv - yv, xv - yv))


def cost(spec: CostSpec, x, y) -> float:
    """Pointwise cost ``|x - y|^p``."""
    sq = _sq_dist(x, y)
    return np.sqrt(sq) if spec.p == 1 else sq


def mmd_kernel(kspec: MmdKernelSpec, x, y) -> float:
    """Pointwise kernel evaluation for the configured family."""
    sq = _sq_dist(x, y)
    if kspec.kind == "energy":
        return -np.sqrt(sq)
    if kspec.kind == "gaussian":
        return float(np.exp(-sq / (2.0 * kspec.sigma**2)))
    return float(np.exp(-np.sqrt(sq) / kspec.sigma))


# ---------------------------------------------------------------------------
# Block evaluators: squared distances for the engine, dense costs for the
# plan diagnostics and the tests' oracles
# ---------------------------------------------------------------------------


def sq_dist_block(xs: np.ndarray, ys: np.ndarray, out=None, work=None) -> np.ndarray:
    """Pairwise squared distances, coordinates accumulated in index order.

    ``out`` and ``work`` are optional ``(n, m)`` buffers for the result and,
    when ``d > 1``, the per-coordinate terms, so that a caller building many
    blocks reuses its memory. The values do not depend on whether they are
    given.
    """
    n, m, d = xs.shape[0], ys.shape[0], xs.shape[1]
    out = np.empty((n, m)) if out is None else out
    if d > 1 and work is None:
        work = np.empty((n, m))
    for k in range(d):
        term = out if k == 0 else work
        np.subtract(xs[:, k, None], ys[None, :, k], out=term)
        np.multiply(term, term, out=term)
        if k:
            np.add(out, term, out=out)
    return out


def cost_block(spec: CostSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise cost matrix block ``C(xs_i, ys_j)``."""
    sq = sq_dist_block(xs, ys)
    return np.sqrt(sq) if spec.p == 1 else sq
