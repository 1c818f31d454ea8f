"""Particle descent: closed-form contraction for a single particle, a
monotone loss curve on a real problem, snapshot timing, trajectory
serialization, and failure handling mid-flow."""

import json
import os
import warnings

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv.flows import (
    DEFAULT_RECORD_TIMES,
    FlowConfig,
    FlowTrajectory,
    run_flow,
    write_trajectory,
)

from conftest import random_measure


def _segment_pair(n=80, seed=5):
    rng = np.random.default_rng(seed)
    alpha = sd.from_arrays(np.full(n, 1.0 / n),
                           rng.uniform(0.0, 0.2, (n, 1)))
    beta = sd.from_arrays(np.full(n, 1.0 / n),
                          rng.uniform(0.6, 1.0, (n, 1)))
    return alpha, beta


def test_zero_horizon_keeps_the_initial_frame_only():
    alpha, beta = _segment_pair(n=10)
    config = FlowConfig(loss="mmd-energy", t_end=0.0)
    traj = run_flow(alpha, beta, config)
    assert len(traj.frames) == 1
    t0, pos0 = traj.frames[0]
    assert t0 == 0.0
    assert np.array_equal(pos0, alpha.positions)
    assert len(traj.loss_curve) == 1


def test_single_particle_contracts_at_the_closed_form_rate():
    # one particle descending the squared-distance divergence toward a point
    # target: each Euler step multiplies the offset by (1 - 2 dt) exactly
    x0 = np.array([2.0, -1.0])
    y = np.array([-0.5, 0.5])
    alpha = sd.from_arrays([1.0], [x0])
    beta = sd.from_arrays([1.0], [y])
    dt, t_end = 0.01, 0.1
    config = FlowConfig(
        loss="sinkhorn",
        params=sd.SolverParams(epsilon=0.5, p=2, tol=1e-13),
        dt=dt, t_end=t_end, record_times=(0.0, t_end),
    )
    traj = run_flow(alpha, beta, config)
    k = round(t_end / dt)
    want = y + (1.0 - 2.0 * dt) ** k * (x0 - y)
    assert np.allclose(traj.final_positions[0], want, atol=1e-9)
    # and the loss curve follows the squared offset
    first = traj.loss_curve[0][1]
    assert first == pytest.approx(float(np.sum((x0 - y) ** 2)), rel=1e-10)


def test_loss_curve_is_monotone_on_a_segment_flow():
    alpha, beta = _segment_pair(n=80, seed=5)
    config = FlowConfig(
        loss="sinkhorn",
        params=sd.SolverParams(epsilon=0.1, p=2, tol=1e-9, max_iters=5000),
        dt=0.005, t_end=0.5, record_times=(0.0, 0.5),
    )
    traj = run_flow(alpha, beta, config)
    values = np.array([v for _, v in traj.loss_curve])
    assert len(values) == 101
    assert np.all(np.diff(values) <= 1e-12)
    assert values[-1] < 0.2 * values[0]


def test_kernel_flow_descends_too():
    alpha, beta = _segment_pair(n=40, seed=6)
    config = FlowConfig(loss="mmd-energy", dt=0.01, t_end=0.2,
                        record_times=(0.0, 0.2))
    traj = run_flow(alpha, beta, config)
    values = [v for _, v in traj.loss_curve]
    assert values[-1] < values[0]


def test_record_times_map_to_nearest_step():
    alpha, beta = _segment_pair(n=8)
    config = FlowConfig(loss="mmd-energy", dt=0.1, t_end=1.0,
                        record_times=(0.0, 0.26, 1.0))
    traj = run_flow(alpha, beta, config)
    times = [t for t, _ in traj.frames]
    assert times == pytest.approx([0.0, 0.3, 1.0])


def test_record_times_given_as_a_generator_are_read_once():
    alpha, beta = _segment_pair(n=4)
    config = FlowConfig(loss="mmd-energy", dt=0.1, t_end=0.5,
                        record_times=(t for t in (0.2, 0.3)))
    assert config.effective_record_times() == (0.0, 0.2, 0.3, 0.5)
    times = [t for t, _ in run_flow(alpha, beta, config).frames]
    assert times == pytest.approx([0.0, 0.2, 0.3, 0.5])


def test_half_step_record_times_go_to_the_later_step_and_the_last_is_t_end():
    alpha, beta = _segment_pair(n=4)
    halves = FlowConfig(loss="mmd-energy", dt=1.0, t_end=4.0, record_times=(0.5, 1.5, 2.5, 3.5))
    assert [t for t, _ in run_flow(alpha, beta, halves).frames] == [0.0, 1.0, 2.0, 3.0, 4.0]
    traj = run_flow(alpha, beta, FlowConfig(loss="mmd-energy", dt=0.1, t_end=0.6))
    assert [t for t, _ in traj.frames] == [0.0, 0.30000000000000004, 0.5, 0.6]
    assert [t for t, _ in traj.loss_curve] == [k * 0.1 for k in range(6)] + [0.6]


@pytest.mark.parametrize("record_times", [(0.0, 0.5), (), None],
                         ids=["without-end", "empty", "default"])
def test_final_positions_are_the_state_the_flow_ends_at(record_times):
    alpha, beta = _segment_pair(n=6)
    config = FlowConfig(loss="mmd-energy", dt=0.1, t_end=1.0, record_times=record_times)
    traj = run_flow(alpha, beta, config)
    x = alpha.positions
    for _ in range(10):
        grad = sd.mmd_gradient(sd.from_arrays(alpha.weights, x), beta, sd.MmdKernelSpec("energy"))
        x = x - 0.1 * 6 * grad.d_positions
    assert traj.frames[0][0] == 0.0 and traj.frames[-1][0] == pytest.approx(1.0)
    assert np.array_equal(traj.final_positions, x)


def test_default_record_times_clip_to_the_horizon():
    config = FlowConfig(loss="mmd-energy", dt=0.25, t_end=2.0)
    assert config.effective_record_times() == (0.0, 0.25, 0.5, 1.0, 2.0)
    long = FlowConfig(loss="mmd-energy", t_end=7.0)
    assert long.effective_record_times() == DEFAULT_RECORD_TIMES + (7.0,)


def test_trajectory_round_trips_through_disk(tmp_path):
    alpha, beta = _segment_pair(n=12)
    config = FlowConfig(
        loss="sinkhorn",
        params=sd.SolverParams(epsilon=0.2, p=1, tol=1e-8),
        dt=0.05, t_end=0.2, record_times=(0.0, 0.1, 0.2), seed=99,
    )
    traj = run_flow(alpha, beta, config)
    manifest_path = write_trajectory(traj, tmp_path / "out")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["loss"] == "sinkhorn"
    assert manifest["config"]["seed"] == 99
    assert manifest["config"]["params"]["epsilon"] == 0.2
    assert len(manifest["frames"]) == len(traj.frames) == 3
    # frame files reproduce the in-memory positions bit for bit
    for entry, (t, pos) in zip(manifest["frames"], traj.frames):
        assert entry["time"] == t
        rows = np.loadtxt(os.path.join(os.path.dirname(manifest_path),
                                       entry["file"]),
                          delimiter=",", ndmin=2)
        assert np.array_equal(rows[:, 0], np.full(len(pos), t))
        assert np.array_equal(rows[:, 1:], pos)
    curve = np.asarray(manifest["loss_curve"])
    assert curve.shape == (len(traj.loss_curve), 2)


GOLDEN_FRAMES = {
    "frame_000.csv": "0,0.10000000000000001\n0,0.66666666666666663\n",
    "frame_001.csv": "0.25,0.29999999999999999\n0.25,-1.0000000000000001e-05\n",
}
GOLDEN_MANIFESTS = {
    "sinkhorn": """{
  "config": {
    "dt": 0.25,
    "loss": "sinkhorn",
    "params": {
      "epsilon": 0.1,
      "max_iters": 1000,
      "p": 1,
      "symmetric_max_iters": 100,
      "tol": 1e-08
    },
    "record_times": [
      0.0,
      0.25
    ],
    "seed": 7,
    "t_end": 0.25
  },
  "frames": [
    {
      "file": "frame_000.csv",
      "time": 0.0
    },
    {
      "file": "frame_001.csv",
      "time": 0.25
    }
  ],
  "loss_curve": [
    [
      0.0,
      0.5
    ],
    [
      0.25,
      0.3333333333333333
    ]
  ]
}
""",
    "mmd-gaussian": """{
  "config": {
    "dt": 0.25,
    "kernel": {
      "kind": "gaussian",
      "sigma": 0.5
    },
    "loss": "mmd-gaussian",
    "record_times": [
      0.0,
      0.25
    ],
    "seed": null,
    "t_end": 0.25
  },
  "frames": [
    {
      "file": "frame_000.csv",
      "time": 0.0
    },
    {
      "file": "frame_001.csv",
      "time": 0.25
    }
  ],
  "loss_curve": [
    [
      0.0,
      0.5
    ],
    [
      0.25,
      0.3333333333333333
    ]
  ]
}
""",
}


@pytest.mark.parametrize("config", [
    FlowConfig(loss="sinkhorn", params=sd.SolverParams(epsilon=0.1, p=1, tol=1e-8),
               dt=0.25, t_end=0.25, seed=7),
    FlowConfig(loss="mmd-gaussian", kernel=sd.MmdKernelSpec("gaussian", 0.5),
               dt=0.25, t_end=0.25, record_times=(0.0, 0.25)),
], ids=lambda config: config.loss)
def test_written_trajectory_has_golden_bytes(tmp_path, config):
    traj = FlowTrajectory(
        frames=[(0.0, np.array([[0.1], [2.0 / 3.0]])), (0.25, np.array([[0.3], [-1e-5]]))],
        loss_curve=[(0.0, 0.5), (0.25, 1.0 / 3.0)], config=config,
    )
    manifest_path = write_trajectory(traj, tmp_path)
    assert manifest_path == os.path.join(tmp_path, "manifest.json")
    expected = dict(GOLDEN_FRAMES, **{"manifest.json": GOLDEN_MANIFESTS[config.loss]})
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


def test_failed_step_attaches_the_partial_trajectory():
    rng = np.random.default_rng(7)
    alpha = random_measure(rng, 30, 2)
    beta = random_measure(rng, 30, 2)
    config = FlowConfig(
        loss="sinkhorn",
        params=sd.SolverParams(epsilon=0.01, p=2, tol=1e-14, max_iters=1,
                               symmetric_max_iters=1),
        dt=0.01, t_end=1.0,
    )
    with pytest.raises(sd.GradientUnreliable) as err:
        run_flow(alpha, beta, config)
    traj = err.value.trajectory
    assert traj.frames and traj.frames[0][0] == 0.0
    assert traj.config is config


def _diverging_flow(loss, params=None):
    # a huge step throws the particles so far apart that the loss is no
    # longer finite: a numerical failure, not a fault of the input, raised
    # without a RuntimeWarning from the overflow that caused it
    alpha, beta = _segment_pair(n=20)
    config = FlowConfig(loss=loss, params=params, dt=1e200, t_end=3e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sd.NumericalFailure, match="non-finite") as err:
            run_flow(alpha, beta, config)
    traj = err.value.trajectory
    assert traj.config is config
    assert traj.frames[0][0] == 0.0
    assert np.array_equal(traj.frames[0][1], alpha.positions)
    assert all(np.isfinite(v) for _, v in traj.loss_curve)
    return traj


def test_rewritten_trajectory_removes_only_stale_frame_files(tmp_path):
    alpha, beta = _segment_pair(n=6)
    out = tmp_path / "out"
    longer = FlowConfig(loss="mmd-energy", dt=0.05, t_end=0.1, record_times=(0.0, 0.05, 0.1))
    write_trajectory(run_flow(alpha, beta, longer), out)
    others = ["notes.txt", "frame_01.csv", "frame_abc.csv", "frame_001.csv.bak",
              "my_frame_001.csv"]
    for name in others:
        (out / name).write_text("kept\n")
    write_trajectory(run_flow(alpha, beta, FlowConfig(loss="mmd-energy", t_end=0.0)), out)
    assert sorted(os.listdir(out)) == sorted(["frame_000.csv", "manifest.json", *others])
    with open(out / "manifest.json", encoding="utf-8") as fh:
        assert [e["file"] for e in json.load(fh)["frames"]] == ["frame_000.csv"]


def test_diverging_hausdorff_flow_is_a_numerical_failure():
    _diverging_flow("hausdorff", sd.SolverParams(epsilon=0.1, p=2))


def test_diverging_mmd_flow_is_a_numerical_failure():
    traj = _diverging_flow("mmd-energy")
    # the first step is finite; the second, from points near 1e200, is not
    assert [t for t, _ in traj.loss_curve] == [0.0]
    assert len(traj.frames) == 1


def test_trajectory_into_a_file_path_raises_io_error(tmp_path):
    alpha, beta = _segment_pair(n=4)
    traj = run_flow(alpha, beta, FlowConfig(loss="mmd-energy", t_end=0.0))
    (tmp_path / "taken").write_text("a file, not a directory\n")
    with pytest.raises(sd.IoError, match="cannot prepare"):
        write_trajectory(traj, tmp_path / "taken")


def test_flow_config_validation():
    with pytest.raises(sd.InvalidInput):
        FlowConfig(loss="unknown")
    with pytest.raises(sd.InvalidInput):
        FlowConfig(loss="sinkhorn")  # transport loss needs solver params
    with pytest.raises(sd.InvalidInput):
        FlowConfig(loss="mmd-energy", dt=0.0)
    with pytest.raises(sd.InvalidInput, match="t_end must be nonnegative"):
        FlowConfig(loss="mmd-energy", t_end=-1)
    with pytest.raises(sd.InvalidInput):
        FlowConfig(loss="mmd-energy", t_end=1.0, record_times=(0.0, 2.0))


@pytest.mark.parametrize("dt, t_end", [(1.0, 1.5), (1.0, 2.5), (0.1, 0.25)])
def test_horizon_must_be_a_whole_number_of_steps(dt, t_end):
    # round() would send these halves to an even step count, past or short of t_end
    with pytest.raises(sd.InvalidInput, match="not a whole number of dt"):
        FlowConfig(loss="mmd-energy", dt=dt, t_end=t_end)


def test_horizon_within_rounding_of_whole_steps_is_accepted():
    config = FlowConfig(loss="mmd-energy", dt=0.05, t_end=12 * 0.05)  # 0.6000000000000001
    alpha, beta = _segment_pair(n=4)
    assert [t for t, _ in run_flow(alpha, beta, config).loss_curve][-1] == 12 * 0.05


def test_flow_evaluates_the_fixed_target_once(monkeypatch):
    from sinkdiv import losses

    alpha, beta = _segment_pair(n=12)
    calls = {name: [] for name in ("kernel_rows", "kernel_grad_rows", "sinkhorn_symmetric")}
    for name, seen in calls.items():
        fn = getattr(losses, name)
        monkeypatch.setattr(losses, name, lambda *args, fn=fn, seen=seen, **kw: (
            seen.append(args), fn(*args, **kw))[1])
    n_steps = 4
    run_flow(alpha, beta, FlowConfig(loss="mmd-energy", dt=0.01, t_end=n_steps * 0.01))
    assert len(calls["kernel_grad_rows"]) == 2 * (n_steps + 1)
    assert len(calls["kernel_rows"]) == 1
    params = sd.SolverParams(epsilon=0.1, p=2, tol=1e-10)
    for loss in ("sinkhorn", "hausdorff"):
        calls["sinkhorn_symmetric"].clear()
        run_flow(alpha, beta, FlowConfig(loss=loss, params=params, dt=0.01,
                                         t_end=n_steps * 0.01))
        on_beta = [args for args in calls["sinkhorn_symmetric"] if args[0] is beta]
        assert len(on_beta) == 1, loss


def test_dimension_mismatch_rejected():
    a = sd.from_arrays([1.0], [[0.0]])
    b = sd.from_arrays([1.0], [[0.0, 0.0]])
    with pytest.raises(sd.InvalidInput):
        run_flow(a, b, FlowConfig(loss="mmd-energy", t_end=0.1))
