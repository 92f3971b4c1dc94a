"""How `verify.run_suite` reports a check that raises or a worker that
dies, and the matrix exponential the dynamics checks compare with."""

import functools
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest
import scipy.linalg

from finobs import verify

# the names the checks report, in suite order (bench/test_bench.py pins the
# same list to a real run)
REPORT_NAMES = [
    "partition-ideal-roundtrip", "relabel-order-oracle", "scale-pushforward-oracle",
    "eigen-reconstruction", "functional-calculus", "unitary-evolution",
    "concatenation", "state-compression", "variance-complementarity",
    "oscillator-spectrum", "tensor-inner-identity", "tensor-antisymmetry",
    "flip-support", "fh-roundtrip", "zero-sum-criterion", "functional-recovery",
    "modular-law", "dimension-state-additivity", "density-refutation",
    "persistence-roundtrip",
]


def test_a_crashed_check_reports_its_own_name(monkeypatch):
    def crashing(fn):
        @functools.wraps(fn)
        def check(seed):
            raise RuntimeError("raised by the test")

        return check

    for suite, checks in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, suite, tuple(crashing(fn) for fn in checks))
    results = verify.run_suite("all", 0)
    assert [r.name for r in results] == REPORT_NAMES
    assert all(not r.passed for r in results)
    assert {r.detail for r in results} == {"raised RuntimeError: raised by the test"}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the checks run in forked workers")
def test_a_dead_worker_fails_the_checks_left_without_a_result(monkeypatch, capfd):
    caller = os.getpid()
    first, second, third = verify.SUITES["socks"]

    @functools.wraps(second)
    def killing(seed):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("ran in the calling process")

    monkeypatch.setitem(verify.SUITES, "socks", (first, killing, third))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    got = []
    runner = threading.Thread(target=lambda: got.extend(verify.run_suite("socks", 0)), daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "run_suite hangs after a worker died"
    assert [r.name for r in got] == REPORT_NAMES[10:13]
    for r in got:
        assert r.passed or r.detail.startswith("raised BrokenProcessPool: "), r
    assert not any(r.passed for r in got[1:])
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0])
def test_the_expm_oracle_matches_scipy(norm):
    # the oracle meets -i t A with A Hermitian, so its arguments are skew-Hermitian
    rng = np.random.default_rng(11)
    for d in (1, 2, 5, 8):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = -1j * (m + m.conj().T)
        x *= norm / np.linalg.norm(x, 2)
        assert np.max(np.abs(verify._expm(x) - scipy.linalg.expm(x))) < 1e-12
