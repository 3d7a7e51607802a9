"""Session-wide fixtures."""

import pytest


@pytest.fixture(scope="session")
def cluster_run():
    """``cluster_run(seed, **kw)``: the write summary of
    ``tests/sim/test_determinism.py::run_cluster(seed, **kw)``, run once
    per ``(seed, kw)`` per test session and shared by every test that
    asks for it. A run is a function of its seed and knobs alone, so
    the golden digests pinned in earlier processes already show that it
    repeats; ``test_full_cluster_run_identical`` is the one deliberate
    in-process repeat, which catches state leaking between runs."""
    from tests.sim.test_determinism import run_cluster

    runs: dict = {}

    def run(seed: int, **kw):
        key = (seed, tuple(sorted(kw.items())))
        if key not in runs:
            runs[key] = run_cluster(seed, **kw)
        return runs[key]

    return run
