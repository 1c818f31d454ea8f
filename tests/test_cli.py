"""Command-line interface: JSON payload shape, deterministic output, exit
codes for each failure class, flow artifacts on disk, bench CSV, thread
configuration, and the installed console script."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv import engine
from sinkdiv.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def measure_files(tmp_path):
    rng = np.random.default_rng(3)
    paths = []
    for name, lo, hi in (("a.csv", 0.0, 0.4), ("b.csv", 0.6, 1.0)):
        w = rng.dirichlet(np.ones(12))
        x = rng.uniform(lo, hi, (12, 2))
        lines = [f"{wi:.17g},{xi[0]:.17g},{xi[1]:.17g}" for wi, xi in zip(w, x)]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def test_divergence_payload_shape_and_value(measure_files, capsys):
    a, b = measure_files
    code = main(["divergence", a, b, "--loss", "sinkhorn",
                 "--eps", "0.1", "--p", "2", "--tol", "1e-10",
                 "--max-iters", "5000", "--threads", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"loss", "value", "eps", "p", "iterations",
                            "residual", "converged"}
    assert payload["loss"] == "sinkhorn"
    assert payload["eps"] == 0.1
    assert payload["p"] == 2
    assert payload["converged"] is True
    assert payload["residual"] <= 1e-10
    assert set(payload["iterations"]) == {"cross", "alpha_auto", "beta_auto"}
    expect = sd.sinkhorn_divergence(
        sd.load_csv(a), sd.load_csv(b),
        sd.SolverParams(epsilon=0.1, p=2, tol=1e-10, max_iters=5000)).value
    assert payload["value"] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("loss", ["ot_eps", "sinkhorn", "hausdorff", "mmd-energy",
                                  "mmd-gaussian", "mmd-laplacian"])
def test_divergence_value_is_the_library_value_bit_for_bit(measure_files, capsys, loss):
    a, b = measure_files
    assert main(["divergence", a, b, "--loss", loss, "--eps", "0.1", "--p", "1",
                 "--sigma", "0.5", "--threads", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    alpha, beta = sd.load_csv(a), sd.load_csv(b)
    if loss.startswith("mmd-"):
        expect = sd.mmd(alpha, beta, sd.MmdKernelSpec(loss[4:], sigma=0.5))
    else:
        fn = {"ot_eps": sd.ot_eps, "sinkhorn": sd.sinkhorn_divergence,
              "hausdorff": sd.hausdorff_divergence}[loss]
        expect = fn(alpha, beta, sd.SolverParams(epsilon=0.1, p=1))
    # JSON floats round-trip exactly
    assert payload["value"] == expect.value


def test_divergence_output_is_byte_identical_across_runs(measure_files, capsys):
    a, b = measure_files
    argv = ["divergence", a, b, "--loss", "hausdorff", "--eps", "0.05",
            "--p", "1", "--threads", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_kernel_loss_payload_leaves_solver_fields_null(measure_files, capsys):
    a, b = measure_files
    assert main(["divergence", a, b, "--loss", "mmd-gaussian",
                 "--sigma", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eps"] is None
    assert payload["p"] is None
    assert payload["iterations"] == {}
    assert payload["converged"] is True


def test_json_measure_format(tmp_path, capsys):
    alpha = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    beta = sd.from_arrays([1.0], [[0.5]])
    pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    sd.save_json(alpha, pa)
    sd.save_json(beta, pb)
    assert main(["divergence", pa, pb, "--loss", "mmd-energy",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.25, abs=1e-12)


def test_missing_file_exits_2(tmp_path, capsys):
    ghost = str(tmp_path / "nope.csv")
    code = main(["divergence", ghost, ghost, "--loss", "mmd-energy"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_points_without_coordinates_exit_2(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text('{"weights": [1, 1], "positions": [[], []]}\n')
    assert main(["divergence", str(path), str(path), "--loss", "mmd-energy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "d >= 1" in captured.err


def test_transport_loss_without_eps_exits_2(measure_files, capsys):
    a, b = measure_files
    assert main(["divergence", a, b, "--loss", "sinkhorn"]) == 2
    assert "--eps" in capsys.readouterr().err


def test_bad_thread_count_exits_2(measure_files, capsys):
    a, b = measure_files
    assert main(["divergence", a, b, "--loss", "mmd-energy",
                 "--threads", "0"]) == 2
    capsys.readouterr()


def test_threads_env_var_is_read(measure_files, capsys, monkeypatch):
    a, b = measure_files
    monkeypatch.setenv("SINKDIV_THREADS", "2")
    assert main(["divergence", a, b, "--loss", "mmd-energy"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SINKDIV_THREADS", "zero")
    assert main(["divergence", a, b, "--loss", "mmd-energy"]) == 2
    assert "SINKDIV_THREADS" in capsys.readouterr().err


def test_unconverged_flow_exits_3(measure_files, tmp_path, capsys):
    a, b = measure_files
    code = main(["flow", a, b, "--loss", "sinkhorn", "--eps", "0.001",
                 "--tol", "1e-14", "--max-iters", "1",
                 "--out", str(tmp_path / "flow")])
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err


def _diverging_flow_exit_code(tmp_path, *options):
    rng = np.random.default_rng(4)
    paths = []
    for name, lo, hi in (("a.csv", 0.0, 0.2), ("b.csv", 0.6, 1.0)):
        x = rng.uniform(lo, hi, 20)
        path = tmp_path / name
        path.write_text("".join(f"0.05,{xi:.17g}\n" for xi in x), encoding="utf-8")
        paths.append(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["flow", *paths, *options, "--dt", "1e200", "--t-end", "3e200",
                     "--threads", "1", "--out", str(tmp_path / "flow")])


def test_diverging_hausdorff_flow_exits_3(tmp_path, capsys):
    code = _diverging_flow_exit_code(tmp_path, "--loss", "hausdorff", "--eps", "0.1",
                                     "--p", "2")
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_diverging_mmd_flow_exits_3(tmp_path, capsys):
    assert _diverging_flow_exit_code(tmp_path, "--loss", "mmd-energy") == 3
    assert "numerical failure: non-finite" in capsys.readouterr().err


def test_flow_writes_manifest_and_frames(measure_files, tmp_path, capsys):
    a, b = measure_files
    out = tmp_path / "flowout"
    code = main(["flow", a, b, "--loss", "mmd-energy", "--dt", "0.05",
                 "--t-end", "0.2", "--record", "0,0.1,0.2",
                 "--seed", "11", "--out", str(out)])
    assert code == 0
    manifest_path = capsys.readouterr().out.strip()
    assert os.path.dirname(manifest_path) == str(out)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [e["time"] for e in manifest["frames"]] == [0.0, 0.1, 0.2]
    for entry in manifest["frames"]:
        frame = np.loadtxt(out / entry["file"], delimiter=",", ndmin=2)
        assert frame.shape == (12, 3)  # t column plus two coordinates
    curve = np.asarray(manifest["loss_curve"])
    assert curve[-1, 1] <= curve[0, 1]
    assert manifest["config"]["seed"] == 11


def test_mmd_flow_runs_on_the_requested_threads_with_the_same_bytes(tmp_path, capsys,
                                                                     monkeypatch):
    # 300 atoms a side: blocks of 65536 // 300 = 218 rows, so every
    # reduction of the flow has two row blocks
    rng = np.random.default_rng(8)
    paths = []
    for name, lo, hi in (("a.csv", 0.0, 0.2), ("b.csv", 0.6, 1.0)):
        paths.append(str(tmp_path / name))
        sd.save_csv(sd.from_arrays(np.full(300, 1 / 300), rng.uniform(lo, hi, 300)), paths[-1])
    builders = []  # per reduction, the threads that built its blocks
    reduce, sq_dist_block = engine._reduce, engine.sq_dist_block
    monkeypatch.setattr(engine, "_reduce", lambda *args, **kw: (
        builders.append(set()), reduce(*args, **kw))[1])
    monkeypatch.setattr(engine, "sq_dist_block", lambda *args, **kw: (
        builders[-1].add(threading.get_ident()), sq_dist_block(*args, **kw))[1])
    files = {}
    for threads in (1, 2):
        builders.clear()
        out = tmp_path / f"threads{threads}"
        assert main(["flow", *paths, "--loss", "mmd-energy", "--dt", "0.01",
                     "--t-end", "0.02", "--threads", str(threads), "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(builders) == 7  # 3 evaluations of 2 reductions, and beta's own one
        if threads == 1:
            assert all(b == {threading.get_ident()} for b in builders)
        else:
            assert all(len(b) == 2 for b in builders)
        files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files[1]) == ["frame_000.csv", "frame_001.csv", "manifest.json"]
    assert files[1] == files[2]


def test_parsed_defaults_are_the_library_defaults():
    common = {"p": sd.SolverParams.p, "tol": sd.SolverParams.tol,
              "max_iters": sd.SolverParams.max_iters, "sigma": sd.MmdKernelSpec.sigma}
    div = vars(build_parser().parse_args(["divergence", "a", "b"]))
    flow = vars(build_parser().parse_args(["flow", "a", "b", "--out", "o"]))
    assert {k: div[k] for k in common} == common
    assert {k: flow[k] for k in common} == common
    assert (flow["dt"], flow["t_end"]) == (sd.FlowConfig.dt, sd.FlowConfig.t_end)


def test_flow_horizon_off_the_step_grid_exits_2(measure_files, tmp_path, capsys):
    a, b = measure_files
    assert main(["flow", a, b, "--loss", "mmd-energy", "--dt", "1.0", "--t-end", "1.5",
                 "--out", str(tmp_path / "flow")]) == 2
    assert "not a whole number of dt" in capsys.readouterr().err
    assert not (tmp_path / "flow").exists()


def test_bench_prints_csv_rows(capsys):
    code = main(["bench", "--sizes", "16,32", "--loss", "mmd-energy",
                 "--repeats", "2", "--threads", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,loss,mean_seconds,std_seconds,peak_bytes_estimate"
    assert len(lines) == 3
    for line, n in zip(lines[1:], (16, 32)):
        cells = line.split(",")
        assert cells[0] == str(n)
        assert cells[1] == "mmd-energy"
        assert float(cells[2]) >= 0.0
        assert int(cells[4]) > 0


def test_bench_peak_bytes_are_unchanged(capsys):
    # golden values: a worker's block buffers count the same whether a store
    # keeps them or the call makes them
    for threads, peaks in (("1", ["102400", "1785600"]), ("2", ["102400", "2832000"])):
        assert main(["bench", "--sizes", "64,300", "--loss", "sinkhorn", "--eps", "0.1",
                     "--repeats", "1", "--threads", threads]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == peaks


def test_bench_rejects_bad_sizes(capsys):
    assert main(["bench", "--sizes", "0", "--loss", "mmd-energy"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, option", [
    (["bench", "--sizes", "16", "--repeats", "0"], "--repeats"),
    (["bench", "--sizes", "x"], "--sizes"),
    (["flow", "--record", "0,zz"], "--record"),
    (["bench", "--sizes", "8", "--seed", "-1"], "seed"),
])
def test_malformed_number_options_exit_2(measure_files, tmp_path, capsys, command, option):
    if command[0] == "flow":
        command = command + [*measure_files, "--out", str(tmp_path / "flow")]
    assert main([*command, "--loss", "mmd-energy", "--threads", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option}")


@pytest.mark.parametrize("error, code, prefix", [
    (sd.InvalidInput, 2, "error"),
    (sd.DegenerateMeasure, 2, "error"),
    (sd.FormatError, 2, "error"),
    (sd.IoError, 2, "error"),
    (sd.TooLarge, 2, "error"),
    (sd.NumericalFailure, 3, "numerical failure"),
    (sd.GradientUnreliable, 3, "numerical failure"),
])
def test_each_error_class_has_its_exit_code(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr("sinkdiv.cli.cmd_divergence", fail)
    assert main(["divergence", "a.csv", "b.csv"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


@pytest.fixture
def installed_script(tmp_path):
    """Install this checkout under ``tmp_path`` with setuptools' own
    ``install`` command, which reads ``[project.scripts]`` from
    ``pyproject.toml`` and needs neither the network nor ``wheel``.

    Returns the generated ``sinkdiv`` script and the directory that holds
    the installed package. Every build artifact stays under ``tmp_path``.
    """
    pytest.importorskip("setuptools")
    root = tmp_path / "install"
    home = root / "home"
    root.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "egg_info", "--egg-base", str(root),
         "build", "--build-base", str(root / "build"),
         "install", "--home", str(home),
         "--single-version-externally-managed",
         "--record", str(root / "record.txt")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"install failed:\n{proc.stderr}"
    return home / "bin" / "sinkdiv", home / "lib" / "python"


def test_installed_console_script(measure_files, installed_script, tmp_path):
    a, b = measure_files
    script, site = installed_script
    outside = tmp_path / "cwd"
    outside.mkdir()
    # Only the temporary install is importable: no src/, and a working
    # directory outside the checkout.
    proc = subprocess.run(
        [str(script), "divergence", a, b, "--loss", "ot_eps", "--eps", "0.5",
         "--threads", "1"],
        capture_output=True, text=True, timeout=120, cwd=outside,
        env={**os.environ, "PYTHONPATH": str(site)},
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["loss"] == "ot_eps"
    assert payload["converged"] is True
