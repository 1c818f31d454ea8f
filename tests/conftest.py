"""Shared fixtures: seeded random measures with reproducible layouts, plus
the per-criterion verdict reporting used by the acceptance suite."""

from contextlib import contextmanager

import numpy as np
import pytest

import sinkdiv as sd

# (number, name, verdict) tuples collected while the acceptance suite runs;
# printed as one line per criterion in the terminal summary.
ACCEPTANCE_RESULTS = []


@contextmanager
def criterion(number: int, name: str):
    """Record the verdict of one acceptance criterion."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, name, "FAIL"))
        raise
    ACCEPTANCE_RESULTS.append((number, name, "PASS"))


@pytest.fixture(autouse=True)
def _one_worker_thread_after_each_test():
    """Fail a test that leaves the process-wide worker count changed, and
    put it back to 1 for the next test."""
    yield
    left = sd.set_threads(1)
    assert left == 1, f"the test left the worker count at {left}"


@contextmanager
def worker_threads(n: int):
    """Run the block's reductions on ``n`` workers, then restore the count."""
    previous = sd.set_threads(n)
    try:
        yield
    finally:
        sd.set_threads(previous)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    for number, name, verdict in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"ACCEPTANCE {number} {name}: {verdict}")


def random_measure(rng, n, dim, lo=0.0, hi=1.0, uniform_weights=False):
    """A measure with Dirichlet (or uniform) weights on iid box samples."""
    if uniform_weights:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.dirichlet(np.ones(n))
    positions = rng.uniform(lo, hi, (n, dim))
    return sd.from_arrays(weights, positions)


def random_pair(seed, max_n=64, max_dim=3, lo=0.0, hi=1.0, uniform_weights=False):
    """Two independent measures plus the rng that generated them."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_n + 1))
    dim = int(rng.integers(1, max_dim + 1))
    alpha = random_measure(rng, n, dim, lo, hi, uniform_weights)
    beta = random_measure(rng, m, dim, lo, hi, uniform_weights)
    return alpha, beta, rng


def max_ulp_diff(a, b):
    """Largest elementwise distance between two arrays, in units in the last
    place of the larger magnitude; 0 for bitwise-equal arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.array_equal(a, b):
        return 0.0
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


@pytest.fixture
def dirac_pair():
    """Unit-separated point masses in one dimension."""
    return sd.from_arrays([1.0], [[0.0]]), sd.from_arrays([1.0], [[1.0]])
