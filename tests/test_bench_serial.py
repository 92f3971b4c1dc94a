"""The per-metric verdicts of `tools/bench_serial.py pairs`, the
per-function summary of its `pass` mode, the per-subcommand summary
of its `calls` mode and the layers of its `setup` mode."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_serial  # noqa: E402

PARENT = [2.00, 1.90, 2.10, 1.95, 2.05, 1.85, 2.15, 2.02, 1.98, 2.08]


def _verdict(change, bound=0.25):
    rows = [{side: {"metrics": {"setup_s": {"value": v}}, "failed": 0}
             for side, v in (("parent", p), ("change", c))}
            for p, c in zip(PARENT, change)]
    return bench_serial.pairs_summary(rows, {"setup_s": bound})["setup_s"]


def test_a_gain_is_shown_by_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    row = _verdict([0.8 * p for p in PARENT])
    assert row["change_wins"] == 10 and row["gain_shown"] and row["within_bound"]
    # 8 wins of 10 are not enough, however large the gap
    assert not _verdict([0.8 * p for p in PARENT[:8]] + PARENT[8:])["gain_shown"]
    # 9 wins of 10 are, with the same gap
    assert _verdict([0.8 * p for p in PARENT[:9]] + PARENT[9:])["gain_shown"]
    # 10 wins by less than the parent's quartile spread show nothing
    row = _verdict([p - 0.01 for p in PARENT])
    assert row["change_wins"] == 10 and not row["gain_shown"]


def test_within_bound_reads_the_bound_as_a_fraction_of_the_parents_median():
    assert _verdict([1.2 * p for p in PARENT])["within_bound"]
    assert not _verdict([1.3 * p for p in PARENT])["within_bound"]
    assert not _verdict([1.2 * p for p in PARENT], bound=0.1)["within_bound"]


def test_the_pass_summary_pools_every_pass_and_adds_the_whole_pass():
    def child(scale):
        return [{"flip": 0.010 * scale * k, "tensor_inner": 0.020 * scale * k} for k in (1, 2, 3)]

    got = {"parent": [child(1.0), child(1.0)], "change": [child(0.5), child(0.5)]}
    rows = bench_serial.pass_summary(got)
    assert list(rows) == ["flip", "tensor_inner", "all"]
    assert rows["flip"]["parent"] == {"median_ms": 20.0, "min_ms": 10.0, "samples": 6}
    assert rows["all"]["parent"]["median_ms"] == 60.0
    assert rows["all"]["change_over_parent"] == 0.5


def test_the_calls_summary_keeps_pair_order_and_pools_every_call():
    got = {"parent": {"spec": [0.20, 0.22, 0.18], "concat": [0.19, 0.21]},
           "change": {"spec": [0.18, 0.23, 0.16], "concat": [0.17, 0.19]}}
    rows = bench_serial.calls_summary(got)
    assert list(rows) == ["spec", "concat", "all"]
    assert rows["spec"]["parent"] == {"median_ms": 200.0, "min_ms": 180.0, "samples": 3}
    assert rows["spec"]["change_wins"] == 2 and rows["concat"]["change_wins"] == 2
    assert rows["spec"]["change_over_parent"] == 0.9
    assert rows["all"]["parent"]["samples"] == 5 and rows["all"]["change_wins"] == 4
    assert rows["all"]["change"]["median_ms"] == 180.0


def test_the_setup_layers_time_both_constructors_where_the_set_up_calls_them():
    # one set-up at the bench's smoke sizes, in a child as the mode runs it
    code = ("import json, api_batch, bench_serial\n"
            "api_batch.SIZES['full'] = api_batch.SIZES['smoke']\n"
            "print(json.dumps(bench_serial.setup_child()))")
    out = subprocess.run([sys.executable, "-c", code], env=bench_serial.tree_env(ROOT), cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    layers = json.loads(out)
    # the phase builders and the warm-up pass, which hold every constructor call
    outer = sum(t for name, t in layers.items() if name.startswith("build_") and "/" not in name)
    for name in ("PartitionPlus.__post_init__", "PartialLabeling.__post_init__"):
        assert 0.0 < layers[name] < outer + layers["warmup_pass"]
    assert {"import", "build_measurement", "build_socks/pair_tensor"} <= set(layers)
