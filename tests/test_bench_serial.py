"""`tools/bench_serial.py`: the row summary every mode shares (`compare`) on
the inputs of the `pass`, `calls` and `memory` modes, the per-metric verdicts
of `pairs`, the per-child records, the children of `setup` and `memory`, the
garbage-collection timer, the sections every children mode writes, how `main`
merges a section into its output file, and how a mode fails: a child that
raises, `calls` sides that print differently, `pairs` without seeds."""

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def _pooled(got):
    """Each side's samples over its children, as a children mode pools them."""
    return {side: [sample for child in children for sample in child] for side, children in got.items()}


def test_the_pass_summary_pools_every_pass_and_adds_the_whole_pass():
    def child(scale):
        return [bench_serial.whole({"flip": 0.010 * scale * k, "tensor_inner": 0.020 * scale * k})
                for k in (1, 2, 3)]

    got = {"parent": [child(1.0), child(1.0)], "change": [child(0.5), child(0.5)]}
    rows = bench_serial.compare(_pooled(got), 1e3)
    assert list(rows) == ["flip", "tensor_inner", "all"]
    assert rows["flip"]["parent"] == {"median": 20.0, "min": 10.0, "spread": 20.0, "samples": 6}
    assert rows["all"]["parent"]["median"] == 60.0
    assert rows["all"]["change_over_parent"] == 0.5
    assert rows["all"]["change_wins"] == 6


def test_the_calls_summary_keeps_pair_order_and_pools_every_call():
    got = {"parent": {"spec": [0.20, 0.22, 0.18], "concat": [0.19, 0.21]},
           "change": {"spec": [0.18, 0.23, 0.16], "concat": [0.17, 0.19]}}
    # one sample per call, then every call again as `all`, as `calls` pools them
    samples = {side: [{name: t} for name, times in calls.items() for t in times]
               + [{"all": t} for times in calls.values() for t in times] for side, calls in got.items()}
    rows = bench_serial.compare(samples, 1e3)
    assert list(rows) == ["spec", "concat", "all"]
    assert rows["spec"]["parent"] == {"median": 200.0, "min": 180.0, "spread": 40.0, "samples": 3}
    assert rows["spec"]["change_wins"] == 2 and rows["concat"]["change_wins"] == 2
    assert rows["spec"]["change_over_parent"] == 0.9
    assert rows["all"]["parent"]["samples"] == 5 and rows["all"]["change_wins"] == 4
    assert rows["all"]["change"]["median"] == 180.0


def test_the_setup_layers_time_both_constructors_where_the_set_up_calls_them():
    # one set-up at the bench's smoke sizes, in a child as the mode runs it
    code = ("import json, api_batch, bench_serial\n"
            "api_batch.SIZES['full'] = api_batch.SIZES['smoke']\n"
            "print(json.dumps(bench_serial.setup_child()))")
    out = subprocess.run([sys.executable, "-c", code], env=bench_serial.tree_env(ROOT), cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    [layers] = json.loads(out)
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
    kept = bench_serial.per_child({"parent": [[layers]], "change": []}, 1e3)
    assert kept["parent"] == [{name: bench_serial.rounded(t * 1e3) for name, t in layers.items()}]
    assert kept["change"] == []


def test_per_child_keeps_each_childs_rows_in_run_order():
    def child(*times):
        return [{"flip": t} for t in times]

    got = {"parent": [child(0.010, 0.012, 0.011), child(0.020, 0.024, 0.022)],
           "change": [child(0.009, 0.010, 0.011), child(0.010, 0.010, 0.010)]}
    kept = bench_serial.per_child(got, 1e3)
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
    ops, [sample] = json.loads(out)
    peaks = {name: peak for name, peak in sample.items() if name != "ru_maxrss"}
    assert list(peaks) == ops
    assert all(peak >= 0 for peak in peaks.values())
    # a compressed density of dim 8 holds at least one 8 x 8 complex matrix
    assert peaks["compress_state/8"] >= 8 * 8 * 16
    assert sample["ru_maxrss"] > 10 * 2**20


def test_the_memory_summary_reads_peaks_in_kb_and_keeps_each_childs_rss():
    def child(compress, rss_mb):  # as `memory_child` records it, in bytes
        return [{"ru_maxrss": rss_mb * 2**20, "compress_state/8": compress, "flip/6": 0}]

    got = {"parent": [child(4096, 100.0), child(4096, 101.0), child(6144, 100.5)],
           "change": [child(1024, 94.0), child(1024, 95.0), child(1024, 94.5)]}
    rows = bench_serial.compare(_pooled(got), 1 / 1024)
    assert {side: rows["compress_state/8"][side]["median"] for side in ("parent", "change")} == {
        "parent": 4.0, "change": 1.0}
    assert rows["compress_state/8"]["change_over_parent"] == 0.25
    assert rows["flip/6"]["change_over_parent"] is None
    # the peak RSS, in KB: 100.5 MB and 94.5 MB
    assert rows["ru_maxrss"]["parent"]["median"] == 100.5 * 1024
    assert rows["ru_maxrss"]["change"]["median"] == 94.5 * 1024
    kept = bench_serial.per_child(got, 1 / 1024)
    assert [c["ru_maxrss"] for c in kept["parent"]] == [100.0 * 1024, 101.0 * 1024, 100.5 * 1024]


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

    rows = bench_serial.compare({"parent": [bench_serial.whole(run) for run in child(0.012)],
                                 "change": [bench_serial.whole(run) for run in child(0.0)]}, 1e3)
    assert list(rows) == ["flip", "tensor_inner", "all"]
    assert rows["flip"]["parent"]["gc_median"] == 12.0
    assert rows["flip"]["parent"]["net_median"] == rows["flip"]["change"]["net_median"]
    assert rows["flip"]["net_change_over_parent"] == 1.0
    assert rows["flip"]["change_over_parent"] == round(10 / 22, 3)
    assert rows["all"]["parent"]["gc_median"] == 12.0
    assert rows["all"]["parent"]["net_median"] == 30.0


ROWS = {"serial": "kinds", "checks": "checks", "setup": "layers", "pass": "functions",
        "memory": "ops"}


def _fake_children(ran):
    """A `run_child` that records (tree, func) in `ran` and returns two samples,
    each with a row and its collection seconds, the change reading faster."""
    def run_child(tree, func="child", *args):
        ran.append((tree, func))
        t = 0.010 if tree == "change" else 0.012
        return [{"row": t, "gc/row": 0.001}, {"row": t + 0.002, "gc/row": 0.0}]
    return run_child


def test_every_children_mode_writes_the_same_row_fields_and_each_childs_record(monkeypatch):
    args = argparse.Namespace(parent="parent", change="change")
    for mode, rows in ROWS.items():
        ran = []
        monkeypatch.setattr(bench_serial, "run_child", _fake_children(ran))
        section = bench_serial.MODES[mode](args)
        rounds = section["children_per_side"]
        # one child per side per round, alternating which side goes first
        assert [tree for tree, _ in ran] == ["parent", "change", "change", "parent"] * (rounds // 2)
        row = section[rows]["row"]
        assert set(row) == {"parent", "change", "change_over_parent", "change_wins",
                            "net_change_over_parent"}
        assert set(row["parent"]) == {"median", "min", "spread", "samples", "gc_median", "net_median"}
        assert row["parent"]["samples"] == 2 * rounds and row["change_wins"] == 2 * rounds
        assert section["unit"] in ("ms", "KB")
        assert [len(section["per_child"][side]) for side in ("parent", "change")] == [rounds] * 2


def test_main_merges_its_section_and_command_and_keeps_the_rest(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_serial, "run_child", _fake_children([]))
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"commands": {"calls": "an earlier command"},
                                "host": {"python": "0.0"}, "calls": {"earlier": True}}))
    argv = ["setup", "--parent", "parent", "--change", "change", "-o", str(path)]
    bench_serial.main(argv)
    doc = json.loads(path.read_text())
    assert doc["calls"] == {"earlier": True}
    assert doc["commands"] == {"calls": "an earlier command",
                               "setup": "python3 tools/bench_serial.py " + " ".join(argv)}
    assert doc["host"]["python"] != "0.0" and doc["host"]["threads"] == bench_serial.THREADS
    assert doc["setup"]["layers"]["row"]["change_over_parent"] < 1.0


def test_calls_refuses_sides_that_print_differently(monkeypatch):
    monkeypatch.setattr(bench_serial, "run_child", lambda tree, func, *args: [["spec"], ["concat"]])
    args = argparse.Namespace(parent="parent", change="change")

    def time_call(tree, argv):
        return 0.1, (0, f"{argv[0]} on {tree}" if argv[0] == "concat" else argv[0], "")

    monkeypatch.setattr(bench_serial, "time_call", time_call)
    with pytest.raises(SystemExit, match="`finobs concat` prints differently"):
        bench_serial.calls_section(args)
    monkeypatch.setattr(bench_serial, "time_call", lambda tree, argv: (0.1, (0, argv[0], "")))
    rows = bench_serial.calls_section(args)["subcommands"]
    assert list(rows) == ["spec", "concat", "all"]
    assert rows["all"]["parent"]["samples"] == 2 * bench_serial.CALL_ROUNDS


def test_a_failing_child_exits_with_its_tree_command_code_and_traceback(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "api_batch.py").write_text("raise RuntimeError('no api_batch here')\n")
    with pytest.raises(SystemExit) as failed:
        bench_serial.run_child(tmp_path, "setup_child")
    message = str(failed.value)
    assert f"in {tmp_path}," in message and "bench_serial.setup_child" in message
    assert "exited 1" in message and "RuntimeError: no api_batch here" in message


def test_pairs_without_seeds_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bench.json"
    for seeds in ([], ["--seeds", "1,,2"], ["--seeds", "1"]):
        with pytest.raises(SystemExit) as failed:
            bench_serial.main(["pairs", "--parent", ".", "--change", ".", "-o", str(path), *seeds])
        assert failed.value.code == 2 and "--seeds" in capsys.readouterr().err
    assert not path.exists()
