"""How `verify.run_suite` reports a check that raises."""

import functools

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
