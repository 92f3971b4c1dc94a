"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
verdicts, or add `-s` to see the detail lines from the underlying
checks.  Every numbered test uses seed 42 and the tolerances stated in
the check functions it drives.
"""

import subprocess
import sys
import time

from finobs import verify

SEED = 42


def _report(number, label, results, elapsed=None, budget=None):
    if not isinstance(results, list):
        results = [results]
    ok = all(r.passed for r in results)
    if budget is not None:
        ok = ok and elapsed < budget
    detail = "; ".join(r.detail for r in results)
    if elapsed is not None:
        detail += f"; wall {elapsed:.2f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d} {label}: {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def _timed(check):
    start = time.perf_counter()
    result = check(SEED)
    return result, time.perf_counter() - start


def test_01_partition_roundtrip_exhaustive():
    result, elapsed = _timed(verify._check_partition_ideal_roundtrip)
    _report(1, "partition/ideal round-trip", result, elapsed, budget=5.0)


def test_02_order_oracle_equivalence():
    result, elapsed = _timed(verify._check_relabel_order_oracle)
    _report(2, "le/pref_le vs relabeling oracles", result, elapsed, budget=10.0)


def test_03_pushforward_oracle_equivalence():
    result, elapsed = _timed(verify._check_scale_pushforward_oracle)
    _report(3, "scale pushforward vs generated family", result, elapsed, budget=30.0)


def test_04_eigen_reconstruction():
    _report(4, "eigendecomposition residuals", verify._check_eigen_reconstruction(SEED))


def test_05_functional_calculus():
    _report(5, "functional calculus vs dense evaluation", verify._check_functional_calculus(SEED))


def test_06_evolution():
    _report(6, "evolution norm/group law/expm oracle", verify._check_unitary_evolution(SEED))


def test_07_concatenation():
    _report(7, "concatenated generator", verify._check_concatenation(SEED))


def test_08_state_compression():
    _report(8, "state compression preserves f(T) traces", verify._check_state_compression(SEED))


def test_09_variance_complementarity():
    _report(9, "shared-ray pair, variance product 1/4", verify._check_variance_complementarity(SEED))


def test_10_oscillator_spectrum():
    result, elapsed = _timed(verify._check_oscillator_spectrum)
    _report(10, "oscillator gap spacing", result, elapsed, budget=10.0)


def test_11_socks_tensors():
    _report(
        11,
        "tensor inner identity, antisymmetry, flip support",
        [
            verify._check_tensor_inner_identity(SEED),
            verify._check_tensor_antisymmetry(SEED),
            verify._check_flip_support(SEED),
        ],
    )


def test_12_fh_decomposition():
    _report(
        12,
        "finite-block round-trip and zero-sum criterion",
        [verify._check_fh_roundtrip(SEED), verify._check_zero_sum_criterion(SEED)],
    )


def test_13_quantum_logic():
    _report(
        13,
        "shearing identity, additive state, density refutation",
        [
            verify._check_modular_law(SEED),
            verify._check_dimension_state_additivity(SEED),
            verify._check_density_refutation(SEED),
        ],
    )


def test_14_cli_determinism():
    command = [sys.executable, "-m", "finobs", "verify", "--suite", "all", "--seed", "42"]
    start = time.perf_counter()
    first = subprocess.run(command, capture_output=True, text=True)
    second = subprocess.run(command, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
        and elapsed < 180.0
    )
    tail = first.stdout.strip().splitlines()[-1] if first.stdout else "no output"
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 14 verify twice, byte-identical: "
        f"{tail}; wall {elapsed:.2f}s (budget 180s)"
    )
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert elapsed < 180.0
