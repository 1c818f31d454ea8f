"""The three workloads: their inputs, drawn from the seed, and one round of calls.

A round is a fixed list of operations. Each operation is one timed call into
the library's public API followed by output checks; every workload runs the
same kinds of call (divergence, gradient, Hausdorff, MMD, CLI, two flows) on
its own inputs, so every end-to-end metric has a value on every workload.
Which layer each workload stresses is set by its inputs, not by its calls:
see README.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

import sinkdiv as sd
from sinkdiv.flows import FlowConfig

CLI_THREADS = 2


@dataclass
class Check:
    name: str
    fn: Callable[[], tuple]              # reads the round's results -> (ok, err)
    known_fault: bool = False            # fails today because of a named library fault


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    metric: str | None = None            # end-to-end metric fed by the call's time
    per_call: Callable[[object], int] = lambda result: 1   # divides the time
    repeat: int = 1
    checks: list = field(default_factory=list)
    check_only: bool = False             # made only to check the library: kept out of traces


@dataclass
class Inputs:
    """Everything one workload's round needs, built once per run from the seed."""

    alpha: sd.DiscreteMeasure
    beta: sd.DiscreteMeasure
    params: sd.SolverParams
    sigma: float                          # Gaussian MMD bandwidth
    cli_alpha: sd.DiscreteMeasure         # first CLI input
    flow_alpha: sd.DiscreteMeasure
    flow_beta: sd.DiscreteMeasure
    flow_dt: float
    flow_steps: int
    mmd_flow_dt: float
    mmd_flow_steps: int
    workdir: str
    repeat: dict = field(default_factory=dict)
    shift: np.ndarray | None = None       # cloud-2d: the CLI's alpha is alpha + shift
    exact_w1: bool = False                # small-blur-1d: compare with exact 1D transport
    energy_target: bool = False           # flow-1d: check energy distance to the target
    force_problem: tuple | None = None    # flow-1d: 8-vs-9-atom finite-difference problem

    def files(self) -> tuple[str, str]:
        return (os.path.join(self.workdir, "alpha.csv"),
                os.path.join(self.workdir, "beta.csv"))


def uniform(points) -> sd.DiscreteMeasure:
    points = np.asarray(points, dtype=np.float64)
    return sd.from_arrays(np.full(points.shape[0], 1.0 / points.shape[0]), points)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def cloud_2d(seed: int, workdir: str, n: int = 800) -> Inputs:
    """Uniform points in the unit square against a noisy ring, ``p = 2``."""
    rng = np.random.default_rng([seed, 1])
    square = rng.uniform(0.0, 1.0, (n, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    radius = 0.3 + 0.02 * rng.standard_normal(n)
    ring = np.c_[0.6 + radius * np.cos(theta), 0.5 + radius * np.sin(theta)]
    shift = rng.uniform(-0.1, 0.1, 2)
    alpha, beta = uniform(square), uniform(ring)
    m = min(n, 256)
    return Inputs(
        alpha=alpha, beta=beta,
        params=sd.SolverParams(epsilon=0.1, p=2, tol=1e-6),
        sigma=0.2,
        cli_alpha=uniform(square + shift),
        flow_alpha=uniform(square[:m]), flow_beta=uniform(ring[:m]),
        flow_dt=0.05, flow_steps=12, mmd_flow_dt=0.05, mmd_flow_steps=50,
        workdir=workdir, shift=shift, repeat={"mmd": 8, "mmd_flow": 3},
    )


# Criterion 4 of the acceptance suite draws its small-blur problems from
# generators 200..209; this one converges in 1,656 cross iterations. A fresh
# random draw can need anything from 700 to over 50,000, so the problem is
# fixed and the seed moves it rigidly instead (reflection, translation, atom
# order): every input value changes, the work does not.
SMALL_BLUR_PROBLEM = 203


def small_blur_1d(seed: int, workdir: str, n: int = 100) -> Inputs:
    """A fixed 1D problem with Dirichlet weights at ``eps = 1e-3``, ``p = 1``."""
    base = np.random.default_rng(SMALL_BLUR_PROBLEM)
    wa, xa = base.dirichlet(np.ones(n)), base.uniform(0.0, 1.0, (n, 1))
    wb, xb = base.dirichlet(np.ones(n)), base.uniform(0.0, 1.0, (n, 1))
    rng = np.random.default_rng([seed, 2])
    sign = rng.choice([-1.0, 1.0])
    offset = rng.uniform(-1.0, 1.0)
    pa, pb = rng.permutation(n), rng.permutation(n)
    alpha = sd.from_arrays(wa[pa], offset + sign * xa[pa])
    beta = sd.from_arrays(wb[pb], offset + sign * xb[pb])
    return Inputs(
        alpha=alpha, beta=beta,
        params=sd.SolverParams(epsilon=1e-3, p=1, tol=1e-8, max_iters=50000),
        sigma=0.1,
        cli_alpha=alpha,
        flow_alpha=alpha, flow_beta=beta,
        flow_dt=1e-3, flow_steps=3, mmd_flow_dt=0.01, mmd_flow_steps=20,
        workdir=workdir, exact_w1=True,
        repeat={"hausdorff": 40, "mmd": 300, "mmd_flow": 30},
    )


FORCE_PROBLEM = 600   # generator of the fixed 8-vs-9-atom force problem


def force_problem():
    rng = np.random.default_rng(FORCE_PROBLEM)
    a = sd.from_arrays(rng.dirichlet(np.ones(8)), rng.uniform(0.0, 1.0, (8, 2)))
    b = sd.from_arrays(rng.dirichlet(np.ones(9)), rng.uniform(0.0, 1.0, (9, 2)))
    params = sd.SolverParams(epsilon=0.1, p=2, tol=1e-13, max_iters=20000,
                             symmetric_max_iters=2000)
    return a, b, params


def flow_1d(seed: int, workdir: str, n: int = 500) -> Inputs:
    """Criterion 10's flow: particles on [0, 0.2] moving to [0.6, 1.0]."""
    rng = np.random.default_rng([seed, 3])
    alpha = uniform(rng.uniform(0.0, 0.2, (n, 1)))
    beta = uniform(rng.uniform(0.6, 1.0, (n, 1)))
    return Inputs(
        alpha=alpha, beta=beta,
        params=sd.SolverParams(epsilon=0.1, p=1, tol=1e-6, max_iters=2000),
        sigma=0.1,
        cli_alpha=alpha,
        flow_alpha=alpha, flow_beta=beta,
        flow_dt=0.01, flow_steps=20, mmd_flow_dt=0.01, mmd_flow_steps=40,
        workdir=workdir, energy_target=True, force_problem=force_problem(),
        repeat={"divergence": 4, "gradient": 6, "hausdorff": 4, "mmd": 30, "cli": 2},
    )


WORKLOADS = {"cloud-2d": cloud_2d, "small-blur-1d": small_blur_1d, "flow-1d": flow_1d}


def build(name: str, seed: int, workdir: str, **sizes) -> Inputs:
    """Draw the workload's inputs and write the CLI's CSV files."""
    inp = WORKLOADS[name](seed, workdir, **sizes)
    a_csv, b_csv = inp.files()
    sd.save_csv(inp.cli_alpha, a_csv)
    sd.save_csv(inp.beta, b_csv)
    return inp


def warm_up(inp: Inputs) -> None:
    """One call on the real inputs: imports, caches and the allocator then
    stand as after a user's first call."""
    sd.hausdorff_divergence(inp.alpha, inp.beta, inp.params)


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


class NotConverged(Exception):
    """A solve reported ``converged=False``."""


def converged(result):
    bad = [k for k, info in result.diagnostics.items() if not info["converged"]]
    if bad:
        raise NotConverged(", ".join(bad))
    return result


def src_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(sd.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(inp: Inputs) -> dict:
    a_csv, b_csv = inp.files()
    p = inp.params
    cmd = [sys.executable, "-m", "sinkdiv.cli", "divergence", a_csv, b_csv,
           "--loss", "sinkhorn", "--eps", repr(p.epsilon), "--p", str(p.p),
           "--tol", repr(p.tol), "--max-iters", str(p.max_iters),
           "--threads", str(CLI_THREADS)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=src_env(), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cli exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    payload = json.loads(proc.stdout)
    if not payload["converged"]:
        raise NotConverged("cli")
    return payload


def flow(inp: Inputs, loss: str):
    if loss == "sinkhorn":
        dt, steps = inp.flow_dt, inp.flow_steps
        config = FlowConfig(loss=loss, params=inp.params, dt=dt, t_end=steps * dt,
                            record_times=(0.0, dt, steps * dt))
    else:
        dt, steps = inp.mmd_flow_dt, inp.mmd_flow_steps
        config = FlowConfig(loss=loss, dt=dt, t_end=steps * dt, record_times=(0.0, steps * dt))
    return sd.run_flow(inp.flow_alpha, inp.flow_beta, config)


def force_vs_fd(problem, loss: str):
    """Flow force recovered from one Euler step, and central differences of the loss."""
    a, b, params = problem
    dt = 1e-3
    traj = sd.run_flow(a, b, FlowConfig(loss=loss, params=params, dt=dt, t_end=dt,
                                        record_times=(0.0, dt)))
    force = (traj.frames[0][1] - traj.frames[-1][1]) / (dt * a.n_atoms)
    value = {"hausdorff": sd.hausdorff_divergence, "sinkhorn": sd.sinkhorn_divergence}[loss]
    fd = checks.central_differences(
        lambda x: value(sd.from_arrays(a.weights, x), b, params).value, a.positions)
    return force, fd


def round_ops(inp: Inputs) -> tuple[list[Op], dict]:
    """The operations of one round, in order, and the dict their results go
    to; checks read earlier results from it."""
    a, b, p = inp.alpha, inp.beta, inp.params
    k = sd.MmdKernelSpec("gaussian", inp.sigma)
    mean_a = a.weights @ a.positions
    mean_b = b.weights @ b.positions
    res: dict = {}
    rep = inp.repeat.get

    def keep(name, fn):
        def call():
            res[name] = fn()
            return res[name]
        return call

    def value(name):
        return res[name].value

    ops = [
        Op("divergence", keep("divergence", lambda: converged(sd.sinkhorn_divergence(a, b, p))),
           metric="divergence_s", repeat=rep("divergence", 1)),
        Op("gradient", keep("gradient", lambda: sd.sinkhorn_gradient(a, b, p)),
           metric="gradient_s", repeat=rep("gradient", 1),
           checks=[Check("gradient_finite",
                         lambda: checks.all_finite(res["gradient"].d_positions))]),
        Op("hausdorff", keep("hausdorff", lambda: converged(sd.hausdorff_divergence(a, b, p))),
           metric="hausdorff_s", repeat=rep("hausdorff", 1),
           checks=[Check("hausdorff_bounds",
                         lambda: checks.hausdorff_bounds(value("hausdorff"), value("divergence")))]),
        Op("mmd", keep("mmd", lambda: (sd.mmd(a, b, k), sd.mmd_gradient(a, b, k))),
           metric="mmd_s", repeat=rep("mmd", 1),
           checks=[Check("mmd_brute_force", lambda: checks.mmd_brute_force(
               res["mmd"][0].value, res["mmd"][1].d_positions, checks.gaussian_mmd(
                   a.weights, a.positions, b.weights, b.positions, inp.sigma)))]),
        Op("cli", keep("cli", lambda: run_cli(inp)), metric="cli_divergence_s",
           repeat=rep("cli", 1)),
        Op("sinkhorn_flow", keep("sinkhorn_flow", lambda: flow(inp, "sinkhorn")),
           metric="flow_step_s", per_call=lambda traj: len(traj.loss_curve),
           checks=[
               Check("sinkhorn_flow_descends",
                     lambda: checks.non_increasing(res["sinkhorn_flow"].loss_curve)),
               Check("sinkhorn_flow_finite",
                     lambda: checks.all_finite(res["sinkhorn_flow"].final_positions)),
           ]),
        Op("mmd_flow", keep("mmd_flow", lambda: flow(inp, "mmd-energy")),
           metric="mmd_flow_step_s", per_call=lambda traj: len(traj.loss_curve),
           repeat=rep("mmd_flow", 1),
           checks=[
               Check("mmd_flow_descends",
                     lambda: checks.non_increasing(res["mmd_flow"].loss_curve)),
               Check("mmd_flow_finite",
                     lambda: checks.all_finite(res["mmd_flow"].final_positions)),
           ]),
        Op("write_trajectories", keep("written", lambda: [
            sd.write_trajectory(res[f"{loss}_flow"], os.path.join(inp.workdir, loss))
            for loss in ("sinkhorn", "mmd")]),
           checks=[Check("trajectories_written", lambda: manifests_complete(res))]),
    ]

    div_op, grad_op, _, _, cli_op, flow_op = ops[:6]
    if inp.shift is not None:
        cli_op.checks.append(Check("translation_identity", lambda: checks.translation_identity(
            res["cli"]["value"], value("divergence"), inp.shift, mean_a, mean_b)))
        grad_op.checks.append(Check("gradient_sum", lambda: checks.gradient_sum(
            res["gradient"].d_positions, mean_a, mean_b)))
    else:
        cli_op.checks.append(Check("cli_same_value", lambda: checks.same_value(
            res["cli"]["value"], value("divergence"))))
    if inp.flow_alpha is a:
        # the flow's first step descends exactly the gradient call's force
        flow_op.checks.append(Check("flow_force_is_gradient", lambda: checks.flow_force_matches(
            res["sinkhorn_flow"].frames[0][1], res["sinkhorn_flow"].frames[1][1],
            inp.flow_dt, res["gradient"].d_positions)))
    if inp.exact_w1:
        div_op.checks.append(Check("small_blur_vs_exact_w1", lambda: checks.small_blur(
            value("divergence"),
            checks.w1_exact_1d(a.weights, a.positions, b.weights, b.positions))))
    if inp.energy_target:
        start = checks.energy_distance_1d(a.positions, b.positions)
        for name in ("sinkhorn_flow", "mmd_flow"):
            op = next(o for o in ops if o.name == name)
            op.checks.append(Check(f"{name}_nears_target", lambda name=name: checks.energy_dropped(
                start, checks.energy_distance_1d(res[name].final_positions, b.positions))))
    if inp.force_problem is not None:
        ops.append(Op("hausdorff_force", keep("h_force", lambda: force_vs_fd(
            inp.force_problem, "hausdorff")), check_only=True,
            checks=[Check("hausdorff_force_vs_fd", lambda: checks.force_matches_fd(
                *res["h_force"]), known_fault=True)]))
        ops.append(Op("sinkhorn_force", keep("s_force", lambda: force_vs_fd(
            inp.force_problem, "sinkhorn")), check_only=True,
            checks=[Check("sinkhorn_force_vs_fd", lambda: checks.force_matches_fd(
                *res["s_force"]))]))
    return ops, res


def manifests_complete(res) -> tuple:
    """Each written manifest lists every recorded frame and the whole loss curve."""
    missing = 0
    for path, loss in zip(res["written"], ("sinkhorn", "mmd")):
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        traj = res[f"{loss}_flow"]
        missing += abs(len(manifest["frames"]) - len(traj.frames))
        missing += abs(len(manifest["loss_curve"]) - len(traj.loss_curve))
        missing += sum(not os.path.exists(os.path.join(os.path.dirname(path), f["file"]))
                       for f in manifest["frames"])
    return missing == 0, float(missing)
