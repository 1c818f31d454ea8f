"""Discrete measures: validated weight/position arrays plus CSV/JSON I/O.

A measure is a weighted point cloud. Construction goes through
:func:`from_arrays`, which drops zero-weight atoms, renormalizes the total
mass to one, and rejects malformed input, so every ``DiscreteMeasure`` in the
rest of the package can assume strictly positive weights and finite
coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateMeasure, FormatError, InvalidInput, IoError, _check_points,
                     _count, _floats)

__all__ = [
    "DiscreteMeasure",
    "from_arrays",
    "load_csv",
    "save_csv",
    "load_json",
    "save_json",
    "sample_unit_square",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite positive measure of unit mass on ``n`` points in ``R^d``.

    Attributes:
        weights: shape ``(n,)``, strictly positive, sums to 1 within 1e-12.
        positions: shape ``(n, d)`` float64 coordinates.
    """

    weights: np.ndarray
    positions: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


def from_arrays(weights, positions) -> DiscreteMeasure:
    """Build a measure from raw arrays.

    Zero-weight atoms are dropped and the remaining weights renormalized to
    total mass one. Raises ``InvalidInput`` for entries that are not numbers
    or are negative, NaN or infinite, mismatched lengths or points without
    coordinates, and ``DegenerateMeasure`` if no atom survives filtering.
    """
    w = _floats("weights", weights)
    x = _floats("positions", positions, finite=False)
    if w.ndim != 1:
        raise InvalidInput(f"weights must be one-dimensional, got shape {w.shape}")
    if x.ndim == 1:
        x = x[:, None]
    x = _check_points("positions", x)
    if w.shape[0] != x.shape[0]:
        raise InvalidInput(
            f"{w.shape[0]} weights but {x.shape[0]} positions"
        )
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    keep = w > 0
    if not np.any(keep):
        raise DegenerateMeasure("measure has no atoms with positive weight")
    w = w[keep]
    x = x[keep]
    total = w.sum()
    # Normalize to unit mass, but leave already-normalized weights bit-exact
    # so that save -> load is the identity.
    if abs(total - 1.0) > 1e-12:
        w = w / total
    else:
        w = w.copy()
    w.setflags(write=False)
    x = np.ascontiguousarray(x)
    x.setflags(write=False)
    return DiscreteMeasure(weights=w, positions=x)


def _parse_rows(rows: list[list[str]], source: str) -> DiscreteMeasure:
    if not rows:
        raise FormatError(f"{source}: no data rows")
    start = 0
    try:
        [float(tok) for tok in rows[0]]
    except ValueError:
        start = 1  # header row
    body = rows[start:]
    if not body:
        raise FormatError(f"{source}: no data rows after header")
    width = len(body[0])
    if width < 2:
        raise FormatError(f"{source}: rows need a weight and at least one coordinate")
    values = []
    for i, row in enumerate(body):
        if len(row) != width:
            raise FormatError(
                f"{source}: row {i + start} has {len(row)} fields, expected {width}"
            )
        try:
            values.append([float(tok) for tok in row])
        except ValueError as exc:
            raise FormatError(f"{source}: row {i + start}: {exc}") from exc
    arr = np.asarray(values, dtype=np.float64)
    return from_arrays(arr[:, 0], arr[:, 1:])


def _read_text(path) -> str:
    """The UTF-8 text of ``path``, without a leading byte order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _csv_text(first_column, positions) -> str:
    """Rows ``c,x1,...,xD`` of the two columns' entries, in full float64
    round-trip precision."""
    return "".join(",".join(format(v, ".17g") for v in (c, *row)) + "\n"
                   for c, row in zip(first_column, positions))


def load_csv(path) -> DiscreteMeasure:
    """Read a measure from CSV rows ``w,x1,...,xD`` (optional header)."""
    rows = [
        [tok.strip() for tok in line.split(",")]
        for line in _read_text(path).splitlines()
        if line.strip()
    ]
    return _parse_rows(rows, str(path))


def save_csv(measure: DiscreteMeasure, path) -> None:
    """Write ``w,x1,...,xD`` rows with full float64 round-trip precision."""
    _write_text(path, _csv_text(measure.weights, measure.positions))


def load_json(path) -> DiscreteMeasure:
    """Read a measure from ``{"weights": [...], "positions": [[...], ...]}``."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "weights" not in payload or "positions" not in payload:
        raise FormatError(f"{path}: expected keys 'weights' and 'positions'")
    try:
        arrays = [_floats(key, payload[key], finite=False) for key in ("weights", "positions")]
    except InvalidInput as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return from_arrays(*arrays)


def save_json(measure: DiscreteMeasure, path) -> None:
    payload = {
        "weights": measure.weights.tolist(),
        "positions": measure.positions.tolist(),
    }
    _write_text(path, json.dumps(payload) + "\n")


def sample_unit_square(n: int, seed=None) -> DiscreteMeasure:
    """Uniform weights on ``n`` i.i.d. points drawn uniformly from [0, 1]^2."""
    if _count("n", n) < 1:
        raise DegenerateMeasure(f"need at least one sample, got n={n}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    return from_arrays(np.full(n, 1.0 / n), pts)
