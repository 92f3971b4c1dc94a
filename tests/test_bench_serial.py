"""The per-metric verdicts of `tools/bench_serial.py pairs`, the
per-function summary of its `pass` mode, the per-subcommand summary
of its `calls` mode, the layers of its `setup` mode, the per-op peaks of
its `memory` mode, the per-child records and its garbage-collection timer."""

import gc
import json
import statistics
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
    # each layer's collection seconds lie inside it
    for name, t in layers.items():
        if not name.startswith("gc/"):
            assert 0.0 <= layers[f"gc/{name}"] <= t
    # the child's record, as `per_child` keeps it, in ms
    kept = bench_serial.per_child({"parent": [layers], "change": []}, lambda t: t)
    assert kept["parent"] == [{name: round(t * 1e3, 3) for name, t in layers.items()}]
    assert kept["change"] == []


def test_per_child_keeps_each_childs_rows_in_run_order():
    got = {"parent": [{"flip": [0.010, 0.012, 0.011]}, {"flip": [0.020, 0.024, 0.022]}],
           "change": [{"flip": [0.009, 0.010, 0.011]}, {"flip": [0.010, 0.010, 0.010]}]}
    kept = bench_serial.per_child(got, statistics.median)
    # the parent's second child read slow: its record shows it
    assert kept == {"parent": [{"flip": 11.0}, {"flip": 22.0}],
                    "change": [{"flip": 10.0}, {"flip": 10.0}]}


def test_the_memory_child_takes_a_peak_for_every_op_of_a_pass():
    # one child at the bench's smoke sizes, as the mode runs it
    code = ("import json, api_batch, bench_serial\n"
            "api_batch.SIZES['full'] = api_batch.SIZES['smoke']\n"
            "ops = api_batch.build(bench_serial.SEED, api_batch.SIZES['smoke'])\n"
            "print(json.dumps([[op.name for op in ops], bench_serial.memory_child()]))")
    out = subprocess.run([sys.executable, "-c", code], env=bench_serial.tree_env(ROOT), cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    ops, child = json.loads(out)
    assert list(child["peaks"]) == ops
    assert all(peak >= 0 for peak in child["peaks"].values())
    # a compressed density of dim 8 holds at least one 8 x 8 complex matrix
    assert child["peaks"]["compress_state/8"] >= 8 * 8 * 16
    assert child["rss_mb"] > 10.0


def test_the_memory_summary_reads_peaks_in_kb_and_keeps_each_childs_rss():
    def child(compress, rss):
        return {"rss_mb": rss, "peaks": {"compress_state/8": compress, "flip/6": 0}}

    got = {"parent": [child(4096, 100.0), child(4096, 101.0), child(6144, 100.5)],
           "change": [child(1024, 94.0), child(1024, 95.0), child(1024, 94.5)]}
    summary = bench_serial.memory_summary(got)
    assert summary["peak_kb"]["compress_state/8"] == {
        "parent": 4.0, "change": 1.0, "change_over_parent": 0.25}
    assert summary["peak_kb"]["flip/6"]["change_over_parent"] is None
    assert summary["rss"]["parent"] == {"median_mb": 100.5, "per_child_mb": [100.0, 101.0, 100.5]}
    assert summary["rss"]["change"]["median_mb"] == 94.5


def test_the_gc_timer_splits_a_collection_out_of_the_call_it_ran_in():
    callbacks = list(gc.callbacks)
    try:
        spent, clock = {}, bench_serial.gc_clock()
        collect = bench_serial.gc_timed("collect", gc.collect, spent, clock)
        collect()
        bench_serial.gc_timed("idle", lambda: None, spent, clock)()
    finally:
        gc.callbacks[:] = callbacks
    assert 0.0 < spent["gc/collect"] <= spent["collect"]
    assert spent["gc/idle"] == 0.0 < spent["idle"]


def test_the_pass_summary_reports_collection_time_beside_each_row():
    def child(pause):
        return [{"flip": 0.010 + pause, "gc/flip": pause, "tensor_inner": 0.020,
                 "gc/tensor_inner": 0.0} for _ in range(3)]

    rows = bench_serial.pass_summary({"parent": [child(0.012)], "change": [child(0.0)]})
    assert list(rows) == ["flip", "tensor_inner", "all"]
    assert rows["flip"]["parent"]["gc_median_ms"] == 12.0
    assert rows["flip"]["parent"]["net_median_ms"] == rows["flip"]["change"]["net_median_ms"]
    assert rows["flip"]["net_change_over_parent"] == 1.0
    assert rows["flip"]["change_over_parent"] == round(10 / 22, 3)
    assert rows["all"]["parent"]["gc_median_ms"] == 12.0
    assert rows["all"]["parent"]["net_median_ms"] == 30.0
