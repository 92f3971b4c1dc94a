"""Parent-versus-change timings behind BENCH_serial.json and BENCH_verify.json.

    python3 tools/bench_serial.py MODE --parent P --change C [-o OUTPUT]
    python3 tools/bench_serial.py pairs --parent P --change C --workload W --seeds S1,S2,...

P and C are source checkouts; MODE is serial, checks, setup, pass, calls or
memory; OUTPUT is BENCH_verify.json for checks, else BENCH_serial.json.
Every mode runs the sides in pairs, alternating which goes first (`both`),
and summarizes each row with `compare`.  `serial`, `checks`, `setup`,
`pass` and `memory` run one child per side per round (see each `*_child`)
and also keep each child's medians (`per_child`): the last three are the
layer views of api_batch's `setup_s`, `op_ref_s` and `peak_rss_mb`.
`calls` times `python -m finobs` for each cli_small case, the layer view of
its `op_ref_s`.  `pairs` runs `bench/run.py --workload W --seconds 25
--trace 0` per seed, with the verdicts of `pairs_summary`.  Each mode
merges its section, and its command under `commands`, into OUTPUT.
"""

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED, ROUNDS, REPEATS = 1, 4, 10
CHECK_SEED, CHECK_REPEATS = 42, 5
SETUP_ROUNDS = 10
CALL_ROUNDS = 8


def repeated(repeats, run):
    """The samples of `repeats` calls of `run`, after one warm-up call."""
    run()
    return [run() for _ in range(repeats)]


def child():
    """In a checkout's environment: seconds of `serial.dumps_value` and `loads_value` per kind
    (and per name, `<name>/all`) in REPEATS runs of the calls of one api_batch pass."""
    import api_batch
    from finobs import serial

    calls = []
    real = {"dumps_value": serial.dumps_value, "loads_value": serial.loads_value}
    for name, fn in real.items():
        setattr(serial, name, lambda kind, arg, fn=fn, name=name: (
            calls.append((name, kind, arg)), fn(kind, arg))[1])
    ops = api_batch.build(SEED, api_batch.SIZES["full"])
    api_batch.run_pass(ops)
    for name, fn in real.items():
        setattr(serial, name, fn)

    def run():
        spent = {}
        for name, kind, arg in calls:
            t0 = time.perf_counter()
            real[name](kind, arg)
            t = time.perf_counter() - t0
            for key in (f"{name}/{kind}", f"{name}/all"):
                spent[key] = spent.get(key, 0.0) + t
        return spent
    return repeated(REPEATS, run)


def checks_child():
    """In a checkout's environment: CPU seconds of each verify check at seed CHECK_SEED, per
    timed run; each check makes its warm-up and CHECK_REPEATS timed runs in a row."""
    from finobs import verify

    def run(fn):
        t0 = time.process_time()
        name = fn(CHECK_SEED).name
        return name, time.process_time() - t0

    runs = [repeated(CHECK_REPEATS, lambda: run(fn)) for suite in verify.SUITES.values()
            for fn in suite]
    return [dict(sample) for sample in zip(*runs)]


def gc_clock():
    """A function giving the seconds garbage collection has taken since this call."""
    spent, started = [0.0], [0.0]

    def callback(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - started[0]

    gc.callbacks.append(callback)
    return lambda: spent[0]


def gc_timed(key, fn, spent, clock):
    """`fn`, adding the seconds of each call to spent[key] and the collection
    seconds inside it (`clock` is a `gc_clock()`) to spent[f"gc/{key}"]."""
    def call(*args):
        t0, g0 = time.perf_counter(), clock()
        try:
            return fn(*args)
        finally:
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t0
            spent[f"gc/{key}"] = spent.get(f"gc/{key}", 0.0) + clock() - g0
    return call


def setup_child():
    """In a checkout's environment: one sample of the seconds of each layer of api_batch's
    set-up (the import, each phase builder, `socks.pair_tensor`, the warm-up pass, and the
    `PartitionPlus` and `PartialLabeling` constructors), and the collection in it (`gc/`)."""
    clock = gc_clock()
    t0 = time.perf_counter()
    import api_batch
    from finobs import measurement, socks

    spent = {"import": time.perf_counter() - t0, "gc/import": clock()}

    def timed(key, fn):
        return gc_timed(key, fn, spent, clock)

    # the phase builders are the module functions build calls by name
    for name in api_batch.build.__code__.co_names:
        if name.endswith("_ops"):
            setattr(api_batch, name, timed(f"build{name.removesuffix('_ops')}",
                                           getattr(api_batch, name)))
    socks.pair_tensor = timed("build_socks/pair_tensor", socks.pair_tensor)
    for cls in (measurement.PartitionPlus, measurement.PartialLabeling):
        cls.__post_init__ = timed(f"{cls.__name__}.__post_init__", cls.__post_init__)
    ops = api_batch.build(SEED, api_batch.SIZES["full"])
    timed("warmup_pass", api_batch.run_pass)(ops)
    return [spent]


def whole(run):
    """A pass's seconds by function, with the whole pass as `all` (and its `gc/all`)."""
    out = dict(run, **{"all": 0.0, "gc/all": 0.0})
    for name, t in run.items():
        out["gc/all" if name.startswith("gc/") else "all"] += t
    return out


def pass_child():
    """In a checkout's environment: seconds of each function (and `whole`) in REPEATS
    api_batch passes, and under `gc/<function>` the collection seconds inside it."""
    import api_batch

    ops = api_batch.build(SEED, api_batch.SIZES["full"])
    clock, spent = gc_clock(), {}
    for op in ops:  # keyed by function name, as `run_pass(ops, spent)` keys its times
        op.call = gc_timed(op.name.split("/")[0], op.call, spent, clock)

    def run():
        spent.clear()
        api_batch.run_pass(ops)
        return whole(spent)
    return repeated(REPEATS, run)


def memory_child():
    """In a checkout's environment: one sample of the peak RSS in bytes after set-up and the
    warm-up pass (`ru_maxrss`), and each op's transient tracemalloc peak (bytes above what
    was held when it started) over one more pass."""
    import resource
    import tracemalloc

    import api_batch

    ops = api_batch.build(SEED, api_batch.SIZES["full"])
    api_batch.run_pass(ops)  # the warm-up pass, as the bench makes one
    sample = {"ru_maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024}  # in KB

    def traced(name, fn):
        def call(out):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(out)
            finally:
                sample[name] = tracemalloc.get_traced_memory()[1] - held
        return call

    for op in ops:
        op.call = traced(op.name, op.call)
    tracemalloc.start()
    try:
        api_batch.run_pass(ops)
    finally:
        tracemalloc.stop()
    return [sample]


def calls_child(directory):
    """In a checkout's environment: the argvs of the cli_small inputs it writes to `directory`."""
    import cli_inputs

    return [case.argv for case in cli_inputs.write(Path(directory), SEED)]


def tree_env(tree):
    """Environment that runs checkout `tree` from its own `src` and `bench`
    on one BLAS thread, with the tools importable by a child."""
    tree = Path(tree).resolve()
    path = [tree / "src", tree / "bench", Path(__file__).resolve().parent]
    return dict(os.environ, **THREADS, PYTHONPATH=os.pathsep.join(map(str, path)))


def last_json(argv, tree, env=None):
    """The JSON on the last stdout line of `argv` run in checkout `tree`; if it
    fails, exit naming the tree, the command, its exit code and its stderr's tail."""
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        sys.exit(f"error: in {tree}, `{shlex.join(argv)}` exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.splitlines()[-1])


def run_child(tree, func="child", *args):
    code = f"import json, bench_serial; print(json.dumps(bench_serial.{func}(*{list(args)!r})))"
    return last_json([sys.executable, "-c", code], tree, tree_env(tree))


def both(sides, flip, run):
    """{side: run(tree)} for each side of `sides` ({side: tree}), in reverse order when `flip`."""
    order = list(sides)[::-1] if flip else list(sides)
    return {side: run(sides[side]) for side in order}


def rounded(x):
    return float(f"{x:.6g}")


def compare(samples, scale):
    """Per row of `samples` ({side: [{row: value}]}, each side's in pair order):
    each side's median, minimum and quartile spread (times `scale`) and sample
    count, the change's median over the parent's and the pairs it wins (lower is
    better; ties count for neither).  Where they hold a row's collection seconds
    (`gc/<row>`), each side's median of them (`gc_median`) and of the row less them
    (`net_median`), and the latter's ratio: a pause lands in whichever row
    allocates past the threshold, not in the one that made the garbage."""
    names = dict.fromkeys(name for sample in samples["parent"] for name in sample)
    rows = {}
    for name in (n for n in names if not n.startswith("gc/")):
        got = {side: [s for s in kept if name in s] for side, kept in samples.items()}
        v = {side: [s[name] for s in kept] for side, kept in got.items()}
        mid = {side: statistics.median(x) for side, x in v.items()}
        rows[name] = row = {}
        for side, x in v.items():
            q1, _, q3 = statistics.quantiles(x, n=4)
            row[side] = {"median": rounded(mid[side] * scale), "min": rounded(min(x) * scale),
                         "spread": rounded((q3 - q1) * scale), "samples": len(x)}
        row["change_over_parent"] = (round(mid["change"] / mid["parent"], 3)
                                     if mid["parent"] else None)
        row["change_wins"] = sum(c < p for p, c in zip(v["parent"], v["change"]))
        if f"gc/{name}" in names:
            net = {side: statistics.median(s[name] - s[f"gc/{name}"] for s in kept)
                   for side, kept in got.items()}
            for side, kept in got.items():
                collected = statistics.median(s[f"gc/{name}"] for s in kept)
                row[side].update(gc_median=rounded(collected * scale),
                                 net_median=rounded(net[side] * scale))
            row["net_change_over_parent"] = round(net["change"] / net["parent"], 3)
    return rows


def per_child(got, scale):
    """Each side's children in the order they ran, each as its median per row (times
    `scale`): a child that read slow on every row shows as one record here."""
    return {side: [{name: rounded(statistics.median(s[name] for s in child if name in s) * scale)
                    for name in dict.fromkeys(name for s in child for name in s)}
                   for child in children] for side, children in got.items()}


def children_section(func, rounds, scale, unit, rows, about):
    """The section of a mode running `rounds` children of `func` per checkout: `about`,
    the rows (as `rows`) and `per_child`, in `unit`, the children's values times `scale`."""
    def section(args):
        sides = {"parent": args.parent, "change": args.change}
        runs = [both(sides, r % 2, lambda tree: run_child(tree, func)) for r in range(rounds)]
        got = {side: [run[side] for run in runs] for side in sides}
        pooled = {side: [s for child in children for s in child] for side, children in got.items()}
        return {**about, "unit": unit, "children_per_side": rounds,
                rows: compare(pooled, scale), "per_child": per_child(got, scale)}
    return section


def time_call(tree, argv):
    """Seconds of one `python -m finobs` call on `tree`'s source, and what it printed."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "finobs", *argv], env=tree_env(tree), cwd=tree,
                          capture_output=True, text=True)
    return time.perf_counter() - t0, (done.returncode, done.stdout, done.stderr)


def calls_section(args):
    sides = {"parent": args.parent, "change": args.change}
    samples = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as directory:
        argvs = run_child(args.change, "calls_child", directory)
        for tree in sides.values():  # the warm-up call
            time_call(tree, argvs[0])
        for r in range(CALL_ROUNDS):
            for i, argv in enumerate(argvs):
                got = both(sides, (r + i) % 2, lambda tree: time_call(tree, argv))
                if got["parent"][1] != got["change"][1]:
                    sys.exit(f"error: `finobs {argv[0]}` prints differently in parent and change")
                for side, (seconds, _) in got.items():
                    samples[side].append({argv[0]: seconds})
    pooled = {side: v + [{"all": t} for s in v for t in s.values()] for side, v in samples.items()}
    return {"seed": SEED, "clock": "perf_counter", "unit": "ms", "rounds": CALL_ROUNDS,
            "warmup_calls_per_side": 1, "subcommands": compare(pooled, 1e3)}


def pairs_summary(rows, bounds):
    """Per end-to-end metric, `compare`'s row over the runs (in the metric's unit) and two
    verdicts.  `gain_shown`: the change wins at least 9 of every 10 pairs, and the parent's
    median exceeds the change's by more than the parent's quartile spread.  `within_bound`:
    the change's median is at most the parent's times 1 + the metric's `bound` (`bounds`)."""
    out = compare({side: [{name: m["value"] for name, m in row[side]["metrics"].items()}
                          for row in rows] for side in ("parent", "change")}, 1)
    for metric, row in out.items():
        parent, change = row["parent"]["median"], row["change"]["median"]
        row.update(gain_shown=10 * row["change_wins"] >= 9 * len(rows)
                   and parent - change > row["parent"]["spread"],
                   within_bound=change <= parent * (1.0 + bounds[metric]))
    out["failed"] = {side: sum(row[side]["failed"] for row in rows) for side in ("parent", "change")}
    return out


def pairs_section(args):
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    rows = []
    for i, seed in enumerate(args.seeds):
        argv = [sys.executable, "bench/run.py", "--workload", args.workload,
                "--seed", str(seed), "--seconds", "25", "--trace", "0"]
        got = both(sides, i % 2, lambda tree: last_json(argv, tree))
        rows.append({"seed": seed, "first": next(iter(got)), **got})
        print(json.dumps(rows[-1]), flush=True)
    return {"summary": pairs_summary(rows, bounds), "runs": rows}


MODES = {
    "serial": children_section("child", ROUNDS, 1e3, "ms", "kinds", dict(
        seed=SEED, clock="perf_counter", repeats_per_child=REPEATS, warmup_runs_per_child=1)),
    "checks": children_section("checks_child", ROUNDS, 1e3, "ms", "checks", dict(
        seed=CHECK_SEED, clock="process_time", repeats_per_child=CHECK_REPEATS,
        warmup_runs_per_child=1)),
    "setup": children_section("setup_child", SETUP_ROUNDS, 1e3, "ms", "layers", dict(
        seed=SEED, sizes="full", clock="perf_counter")),
    "pass": children_section("pass_child", ROUNDS, 1e3, "ms", "functions", dict(
        seed=SEED, sizes="full", clock="perf_counter", passes_per_child=REPEATS,
        warmup_runs_per_child=1)),
    "memory": children_section("memory_child", ROUNDS, 1 / 1024, "KB", "ops", dict(
        seed=SEED, sizes="full", warmup_runs_per_child=1)),
    "calls": calls_section,
    "pairs": pairs_section,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", default="api_batch")
    parser.add_argument("--seeds", type=lambda s: [int(seed) for seed in s.split(",")])
    parser.add_argument("-o", "--output",
                        help="BENCH_verify.json for checks, else BENCH_serial.json")
    args = parser.parse_args(argv)
    if args.mode == "pairs" and len(args.seeds or ()) < 2:  # a quartile spread needs two runs
        parser.error("pairs needs --seeds S1,S2,... (two or more)")

    path = Path(args.output or f"BENCH_{'verify' if args.mode == 'checks' else 'serial'}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    name = f"pairs/{args.workload}" if args.mode == "pairs" else args.mode
    doc.setdefault("commands", {})[name] = "python3 tools/bench_serial.py " + " ".join(
        argv if argv is not None else sys.argv[1:])
    doc["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count(), "threads": THREADS,
                   "numpy": importlib.metadata.version("numpy")}
    section = MODES[args.mode](args)
    if args.mode == "pairs":
        doc.setdefault("pairs", {})[args.workload] = section
    else:
        doc[args.mode] = section
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
