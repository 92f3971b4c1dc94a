"""How `verify.run_suite` orders the checks it starts, how it reports a check
that raises or a worker that dies, and the matrix exponential the dynamics
checks compare with."""

import functools
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest
import scipy.linalg

from finobs import finitary, verify

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


def _run_killing(monkeypatch, suite, name):
    """Run `suite` on two forked workers with check `name` replaced by one that
    kills its worker; the results, read within a time bound."""
    caller = os.getpid()
    checks = verify.SUITES[suite]
    index = [verify._name(fn) for fn in checks].index(name)

    @functools.wraps(checks[index])
    def killing(seed):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("ran in the calling process")

    monkeypatch.setitem(verify.SUITES, suite, checks[:index] + (killing,) + checks[index + 1:])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    got = []
    runner = threading.Thread(target=lambda: got.extend(verify.run_suite(suite, 0)), daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "run_suite hangs after a worker died"
    return got


def _assert_left_checks_fail(got, names, capfd):
    assert [r.name for r in got] == names
    for r in got:
        assert r.passed or r.detail.startswith("raised BrokenProcessPool: "), r
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the checks run in forked workers")
def test_a_dead_worker_fails_the_checks_left_without_a_result(monkeypatch, capfd):
    got = _run_killing(monkeypatch, "socks", "tensor-antisymmetry")
    _assert_left_checks_fail(got, REPORT_NAMES[10:13], capfd)
    assert not any(r.passed for r in got[1:])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the checks run in forked workers")
def test_a_worker_dying_in_the_check_started_first_fails_it_in_its_suite_place(
    monkeypatch, capfd
):
    # modular-law is fourth of fhlogic in suite order but started first
    checks = verify.SUITES["fhlogic"]
    assert [verify._name(checks[i]) for i in verify._dispatch_order(checks)][0] == "modular-law"
    got = _run_killing(monkeypatch, "fhlogic", "modular-law")
    _assert_left_checks_fail(got, REPORT_NAMES[13:19], capfd)
    assert not got[3].passed


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the checks run in forked workers")
def test_a_pool_broken_while_the_checks_are_submitted_fails_them_all(monkeypatch):
    # the check started first can kill its worker before the last one is submitted
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    submit = ProcessPoolExecutor.submit
    submitted = []

    def breaking(pool, *args):
        if submitted:
            raise BrokenProcessPool("broken while submitting")
        submitted.append(args)
        return submit(pool, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    got = verify.run_suite("socks", 0)
    assert [r.name for r in got] == REPORT_NAMES[10:13]
    assert {r.detail for r in got} == {"raised BrokenProcessPool: broken while submitting"}


def test_heaviest_first_names_checks_of_the_suites():
    names = [verify._name(fn) for checks in verify.SUITES.values() for fn in checks]
    assert set(verify.HEAVIEST_FIRST) <= set(names)
    assert len(set(verify.HEAVIEST_FIRST)) == len(verify.HEAVIEST_FIRST)


def test_checks_start_heaviest_first_and_the_rest_in_suite_order():
    checks = [fn for suite in verify.SUITES.values() for fn in suite]
    started = [REPORT_NAMES[i] for i in verify._dispatch_order(checks)]
    heavy = list(verify.HEAVIEST_FIRST)
    assert started == heavy + [name for name in REPORT_NAMES if name not in heavy]


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0])
def test_the_expm_oracle_matches_scipy(norm):
    # the oracle meets -i t A with A Hermitian, so its arguments are skew-Hermitian
    rng = np.random.default_rng(11)
    for d in (1, 2, 5, 8):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = -1j * (m + m.conj().T)
        x *= norm / np.linalg.norm(x, 2)
        assert np.max(np.abs(verify._expm(x) - scipy.linalg.expm(x))) < 1e-12


def test_a_nan_reconstruction_fails_eigen_reconstruction(monkeypatch):
    # a running max(worst, x) drops the NaN, since max(0.0, nan) is 0.0
    def nan_matrix(self):
        return np.full((self.ambient_dim, self.ambient_dim), np.nan + 0j)

    monkeypatch.setattr(finitary.EigenSystem, "matrix", nan_matrix)
    result = verify._check_eigen_reconstruction(42)
    assert not result.passed
    assert result.detail.endswith("worst relative residual nan")


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_worst_keeps_a_non_finite_residual_in_any_position(bad, at):
    residuals = [1e-3, 2.0, 0.5, 1e-9, 3.0]
    residuals[at] = bad
    assert np.array_equal(verify._worst(residuals), bad, equal_nan=True)


def test_worst_of_finite_residuals_is_their_largest_and_of_none_zero():
    assert verify._worst([1e-3, 3.0, 0.5]) == 3.0
    assert verify._worst([]) == 0.0


def test_result_passes_each_residual_within_its_bound_and_fails_nan():
    bounds = verify.BOUNDS["unitary-evolution"]
    assert verify._result("unitary-evolution", "d", dict(bounds)) == verify.CheckResult(
        "unitary-evolution", True, "d")
    assert not verify._result("unitary-evolution", "d", dict(bounds), ok=False).passed
    for label in bounds:
        for bad in (np.nan, np.inf, 2 * bounds[label]):
            assert not verify._result("unitary-evolution", "d", {**bounds, label: bad}).passed


def test_result_needs_one_residual_for_each_bound_of_its_check():
    bounds = verify.BOUNDS["unitary-evolution"]
    for worst in [{}, {"norm drift": 0.0}, {**bounds, "other": 0.0}, {"a": 0, "b": 0, "c": 0}]:
        with pytest.raises(ValueError):
            verify._result("unitary-evolution", "d", worst)
    with pytest.raises(ValueError):
        verify._result("flip-support", "d", {"norm drift": 0.0})
    assert verify._result("flip-support", "d", {}).passed


def test_bounds_belong_to_reported_checks():
    assert set(verify.BOUNDS) <= set(REPORT_NAMES)
