"""Tests of the benchmark itself, at its smoke sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import api_batch  # noqa: E402
import cli_inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    out = result(bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                       "--trace", trace, "--smoke"))
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    names = layers.metric_units() if trace == "1" else run.END_TO_END
    assert set(out["metrics"]) == set(names)
    if trace == "0":
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    def counts():
        metrics = result(bench("--workload", "api_batch", "--seed", "9", "--seconds", "0",
                               "--trace", "1", "--smoke"))["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    first = counts()
    assert first["measurement.ideal_contains.calls"] == 52 * 4  # Bell(5) x labelings
    assert counts() == first


def test_verify_checks_match_the_suite():
    from finobs import verify

    assert list(layers.VERIFY_CHECKS) == [r.name for r in verify.run_suite("all", 0)]


def test_failed_api_checks_are_counted():
    ops = api_batch.build(1, api_batch.SIZES["smoke"])

    def boom(out):
        raise ValueError("raised by the test")

    ops.append(api_batch.Op("wrong", lambda out: 1, lambda r, out: 1))
    ops.append(api_batch.Op("raises", boom, lambda r, out: 0, calls=3))
    times, _, failed, _ = api_batch.timed_passes(ops, 0)
    assert len(times) == 1 and failed == 1 + 3


def test_wrong_cli_output_is_counted(monkeypatch):
    from finobs import finitary, serial

    write = cli_inputs.write

    def tampered(directory, seed):
        cases = write(directory, seed)
        spec = next(c for c in cases if c.argv[0] == "spec")
        path = spec.argv[2]
        spec.expected = lambda: finitary.diagonalize(2.0 * serial.load_value("operator", path))
        return cases

    monkeypatch.setattr(cli_inputs, "write", tampered)
    got = run.cli_small(3, 0, False, True)
    assert got.attempted == 10 and got.failed == 1


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "api_batch", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
