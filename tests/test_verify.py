"""How `verify.run_suite` orders the checks it starts, how it reports a check
that raises or a worker that dies or cannot be forked, the relabeling search
behind `relabel-order-oracle`, and the matrix exponential the dynamics checks
compare with."""

import errno
import fcntl
import functools
import os
import signal
import stat
import threading
from itertools import product

import numpy as np
import pytest
import scipy.linalg

from finobs import finitary, measurement, verify
from finobs.enumeration import all_functions, all_partial_functions, nondecreasing_functions

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


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _run_on_two_workers(monkeypatch, capfd, suite):
    """Run `suite` on two forked workers, within a time bound; its results, once
    checked that no child is left unreaped, no descriptor open and stderr empty."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fds = _open_fds()
    got = []
    runner = threading.Thread(target=lambda: got.extend(verify.run_suite(suite, 0)), daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "run_suite hangs after a worker died"
    assert [r.name for r in got] == [verify._name(fn) for fn in verify.SUITES[suite]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds
    assert capfd.readouterr().err == ""
    return got


def _killing(monkeypatch, suite, *names):
    """Replace the checks `names` of `suite` by ones that kill the worker running them."""
    caller = os.getpid()

    def kills(fn):
        @functools.wraps(fn)
        def check(seed):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("ran in the calling process")

        return check

    checks = tuple(kills(fn) if verify._name(fn) in names else fn for fn in verify.SUITES[suite])
    monkeypatch.setitem(verify.SUITES, suite, checks)


KILLED = f"its worker died, killed by signal {signal.SIGKILL.value}"
forked = pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                            reason="the checks run in forked workers")


@forked
def test_a_dead_worker_fails_the_checks_left_without_a_result(monkeypatch, capfd):
    # the worker left alive claims every other check, so only the killed one fails
    _killing(monkeypatch, "socks", "tensor-antisymmetry")
    got = _run_on_two_workers(monkeypatch, capfd, "socks")
    assert [r.passed for r in got] == [True, False, True]
    assert got[1].detail == KILLED


@forked
def test_a_worker_dying_in_the_check_started_first_fails_it_in_its_suite_place(
    monkeypatch, capfd
):
    # modular-law is fourth of fhlogic in suite order but started first
    checks = verify.SUITES["fhlogic"]
    assert [verify._name(checks[i]) for i in verify._dispatch_order(checks)][0] == "modular-law"
    _killing(monkeypatch, "fhlogic", "modular-law")
    got = _run_on_two_workers(monkeypatch, capfd, "fhlogic")
    assert [r.passed for r in got] == [True, True, True, False, True, True]
    assert got[3].detail == KILLED


@forked
def test_a_worker_exiting_in_a_check_names_its_exit_status(monkeypatch, capfd):
    def exits(seed):
        os._exit(3)

    exits.__name__ = "_check_exits"
    monkeypatch.setitem(verify.SUITES, "socks", (exits,) + verify.SUITES["socks"][1:])
    got = _run_on_two_workers(monkeypatch, capfd, "socks")
    assert [(r.passed, r.detail) for r in got[:1]] == [
        (False, "its worker died, exited with status 3")]
    assert all(r.passed for r in got[1:])


@forked
def test_checks_left_unclaimed_when_every_worker_died_fail_saying_so(monkeypatch, capfd):
    # each worker dies in the first check it claims, so the third waits unclaimed
    _killing(monkeypatch, "socks", *REPORT_NAMES[10:13])
    got = _run_on_two_workers(monkeypatch, capfd, "socks")
    assert [(r.passed, r.detail) for r in got] == [
        (False, KILLED), (False, KILLED), (False, "not run: every worker died")]


def _forking(monkeypatch, workers):
    """Let the first `workers` calls of os.fork fork, and the rest fail."""
    real = os.fork
    calls = []

    def fork():
        calls.append(None)
        if len(calls) > workers:
            raise BlockingIOError(errno.EAGAIN, "no process left")
        return real()

    monkeypatch.setattr(os, "fork", fork)


@forked
def test_a_failing_fork_fails_the_checks_left_without_a_worker(monkeypatch, capfd):
    _forking(monkeypatch, 0)
    got = _run_on_two_workers(monkeypatch, capfd, "socks")
    assert {(r.passed, r.detail) for r in got} == {
        (False, "not run: fork raised BlockingIOError: [Errno 11] no process left")}


@forked
def test_one_forked_worker_runs_every_check(monkeypatch, capfd):
    _forking(monkeypatch, 1)
    got = _run_on_two_workers(monkeypatch, capfd, "fhlogic")
    assert got == [verify._run_check(fn, 0) for fn in verify.SUITES["fhlogic"]]


def _write_ends():
    """The pipe inodes this process holds open for writing."""
    inodes = set()
    for fd in map(int, os.listdir("/proc/self/fd")):
        try:
            writes = fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_WRONLY
            if writes and stat.S_ISFIFO(os.fstat(fd).st_mode):
                inodes.add(os.fstat(fd).st_ino)
        except OSError:  # the descriptor listdir itself used
            pass
    return inodes


@forked
def test_each_worker_alone_holds_its_result_pipe_open(monkeypatch, capfd):
    real_pipe, real_fork = os.pipe, os.fork
    pipes, held = [], []  # the inode of each pipe run_suite makes; write ends open at each fork

    def pipe():
        ends = real_pipe()
        pipes.append(os.fstat(ends[0]).st_ino)
        return ends

    def fork():
        held.append(_write_ends() & set(pipes))
        return real_fork()

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    assert all(r.passed for r in _run_on_two_workers(monkeypatch, capfd, "socks"))
    # the first pipe holds the check indices; worker k gets only the write end of pipe k
    assert len(pipes) == 3
    assert held == [{pipes[1]}, {pipes[2]}]


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


def _le_oracle(fd, gd, relabelings):
    """f <= g by search: dom f lies in dom g and some h has h(g(x)) = f(x) on dom f."""
    if any(x not in gd for x in fd):
        return False
    f_values, g_on_f = list(fd.values()), [gd[x] for x in fd]
    return any(list(map(h.get, g_on_f)) == f_values for h in relabelings)


def test_the_reach_sets_agree_with_the_relabeling_search_on_every_pair():
    pairs = 0
    for nx, ny in product(range(4), range(4)):
        elements = tuple(f"x{i + 1}" for i in range(nx))
        objects = measurement.ObjectSet(elements, "a")
        values = tuple(range(ny))
        labels = measurement.LabelSet(values, ordered=True)
        labelings = [measurement.PartialLabeling(objects, labels, entries)
                     for entries in all_partial_functions(elements, values)]
        for maps in (list(all_functions(values, values)),
                     list(nondecreasing_functions(values, values))):
            for g in labelings:
                below = verify._reach(g.entries, maps)
                for f in labelings:
                    pairs += 1
                    assert (f.entries in below) == _le_oracle(f.as_dict(), g.as_dict(), maps)
    assert pairs == 2 * 5278


@pytest.mark.parametrize("order", ["le", "pref_le"])
def test_relabel_order_oracle_fails_an_order_that_always_answers_true(monkeypatch, order):
    assert verify._check_relabel_order_oracle(0).passed
    monkeypatch.setattr(measurement, order, lambda f, g: True)
    # pref_le, which calls le, may raise on the pairs le now lets through
    result = verify._run_check(verify._check_relabel_order_oracle, 0)
    assert not result.passed
    assert not result.detail.endswith(" 0 disagreements")
