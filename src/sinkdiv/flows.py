"""Particle descent on a divergence: explicit Euler gradient flows.

``run_flow`` evolves the support of a particle measure ``alpha`` toward a
fixed target ``beta`` by following the position gradient of a chosen loss:

    ``X <- X - dt * n * d_positions(loss)(X)``

where ``n`` is the particle count (with uniform weights ``1/n`` this makes
the step independent of how finely the mass is discretized). Transport
losses warm-start their dual solves from the previous step, so each step
after the first typically converges in a few iterations.

Frames are recorded at the Euler step nearest each requested time, ties
going to the later step, and always at both ends of the flow; the loss
value at every step is kept as the flow's descent curve. Step ``k`` is
stamped ``k * dt``, except the last, which is stamped ``t_end``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .costs import MmdKernelSpec
from .errors import GradientUnreliable, InvalidInput, IoError, NumericalFailure, _scale
from .losses import _loss_spec, evaluate
from .measures import DiscreteMeasure, _csv_text, _write_text, from_arrays
from .solver import SolverParams

__all__ = ["FlowConfig", "FlowTrajectory", "run_flow", "write_trajectory"]

DEFAULT_RECORD_TIMES = (0.0, 0.25, 0.5, 1.0, 5.0)


@dataclass(frozen=True)
class FlowConfig:
    """What to descend, how fast, and which snapshots to keep.

    ``loss``, ``params`` and ``kernel`` must meet the rule of
    :func:`losses.evaluate`. ``t_end`` must be a whole number of steps
    ``dt``, to a relative 1e-9. ``record_times`` is a sequence of numbers in
    ``[0, t_end]``, each mapped to the nearest Euler step (ties to the later
    one); both endpoints are always recorded. ``seed`` is provenance for
    whoever sampled the initial particles and is stored in trajectory manifests.
    """

    loss: str
    params: SolverParams | None = None
    kernel: MmdKernelSpec | None = None
    dt: float = 1e-2
    t_end: float = 5.0
    record_times: tuple | None = None
    seed: int | None = None

    def __post_init__(self):
        _loss_spec(self.loss, self.params, self.kernel)
        _scale("dt", self.dt)
        _scale("t_end", self.t_end, zero=True)
        steps = self.t_end / self.dt
        if not abs(steps - np.rint(steps)) <= 1e-9 * steps:
            raise InvalidInput(f"t_end={self.t_end} is not a whole number of dt={self.dt} steps")
        if self.record_times is not None:
            if not np.iterable(self.record_times):
                raise InvalidInput(f"record_times must be a sequence, got {self.record_times!r}")
            object.__setattr__(self, "record_times", tuple(self.record_times))  # read once
            for t in self.record_times:
                if _scale("record_times entry", t, zero=True) > self.t_end:
                    raise InvalidInput(f"record_times entry {t} outside [0, {self.t_end}]")

    def effective_record_times(self) -> tuple:
        """Snapshot times actually used, sorted: the explicit ones, or else the
        standard set clipped to the horizon, plus both endpoints."""
        times = self.record_times
        if times is None:
            times = [t for t in DEFAULT_RECORD_TIMES if t <= self.t_end]
        return tuple(sorted(set(times) | {0.0, self.t_end}))


@dataclass(frozen=True)
class FlowTrajectory:
    """Recorded snapshots and the per-step loss curve of one flow run."""

    frames: list = field(default_factory=list)       # [(time, positions)]
    loss_curve: list = field(default_factory=list)   # [(time, value)]
    config: FlowConfig | None = None

    @property
    def final_positions(self) -> np.ndarray:
        return self.frames[-1][1]


def run_flow(alpha0: DiscreteMeasure, beta: DiscreteMeasure,
             config: FlowConfig) -> FlowTrajectory:
    """Integrate the particle flow and return its trajectory.

    The first frame is the initial state and the last is the state after
    the last Euler step; with ``t_end == 0`` no step is taken and the
    trajectory holds the single initial frame. A step whose loss value,
    force or new positions are not finite raises ``NumericalFailure``. If a
    step fails with ``GradientUnreliable`` or ``NumericalFailure``, the
    exception is re-raised with the partial trajectory attached as
    ``exc.trajectory``.
    """
    n = alpha0.n_atoms
    weights = alpha0.weights
    x = alpha0.positions.copy()
    n_steps = round(config.t_end / config.dt)
    # map each record time to its nearest Euler step, ties to the later one
    wanted = {min(int(t / config.dt + 0.5), n_steps)
              for t in config.effective_record_times()}
    stamps = [step * config.dt for step in range(n_steps)] + [config.t_end]

    frames: list = []
    loss_curve: list = []
    warm: dict = {}

    def snapshot(step: int):
        if step in wanted:
            frames.append((stamps[step], x.copy()))

    snapshot(0)
    try:
        # one evaluation per step plus one at the final state, which
        # completes the curve; overflow is reported by the finiteness check
        for step in range(n_steps + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                value, grad, warm, _ = evaluate(
                    config.loss, from_arrays(weights, x), beta, params=config.params,
                    kernel=config.kernel, warm=warm, want_grad=True,
                )
                moved = x - config.dt * n * grad.d_positions
            if not (np.isfinite(value) and np.all(np.isfinite(moved))):
                raise NumericalFailure(f"non-finite loss value or force at step {step}")
            loss_curve.append((stamps[step], value))
            if step < n_steps:
                x = moved
                snapshot(step + 1)
    except (GradientUnreliable, NumericalFailure) as exc:
        exc.trajectory = FlowTrajectory(frames=frames, loss_curve=loss_curve,
                                        config=config)
        raise
    return FlowTrajectory(frames=frames, loss_curve=loss_curve, config=config)


def _config_payload(config: FlowConfig) -> dict:
    payload = {
        "loss": config.loss,
        "dt": config.dt,
        "t_end": config.t_end,
        "record_times": list(config.effective_record_times()),
        "seed": config.seed,
    }
    if config.params is not None:
        payload["params"] = asdict(config.params)
    if config.kernel is not None:
        payload["kernel"] = asdict(config.kernel)
    return payload


def write_trajectory(traj: FlowTrajectory, out_dir) -> str:
    """Write one CSV per frame plus a JSON manifest; returns the manifest path.

    Frame rows are ``t,x1,...,xD``. The manifest lists the configuration,
    the frame files with their times, and the loss curve. Frame files
    (``frame_NNN.csv``) it does not list are removed from ``out_dir`` first.
    """
    names = [f"frame_{idx:03d}.csv" for idx in range(len(traj.frames))]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in set(os.listdir(out_dir)) - set(names):
            if re.fullmatch(r"frame_\d{3,}\.csv", name):
                os.remove(os.path.join(out_dir, name))
    except OSError as exc:
        raise IoError(f"cannot prepare {out_dir}: {exc}") from exc
    entries = []
    for name, (t, pos) in zip(names, traj.frames):
        _write_text(os.path.join(out_dir, name), _csv_text([t] * len(pos), pos))
        entries.append({"time": t, "file": name})
    manifest = {
        "config": _config_payload(traj.config) if traj.config else {},
        "frames": entries,
        "loss_curve": [[t, v] for t, v in traj.loss_curve],
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
