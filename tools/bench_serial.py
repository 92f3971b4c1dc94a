"""Parent-versus-change timings behind BENCH_serial.json and BENCH_verify.json.

    python3 tools/bench_serial.py serial --parent P --change C [-o BENCH_serial.json]
    python3 tools/bench_serial.py checks --parent P --change C [-o BENCH_verify.json]
    python3 tools/bench_serial.py setup --parent P --change C [-o BENCH_serial.json]
    python3 tools/bench_serial.py pass --parent P --change C [-o BENCH_serial.json]
    python3 tools/bench_serial.py calls --parent P --change C [-o BENCH_serial.json]
    python3 tools/bench_serial.py pairs --parent P --change C
        --workload W --seeds S1,S2,... [-o BENCH_serial.json]

P and C are source checkouts.  `serial` times `serial.dumps_value` and
`serial.loads_value` per kind over the calls of one api_batch pass (seed
SEED): each of ROUNDS rounds runs one child per checkout (alternating
which goes first), and each child records the calls of a pass, makes one
warm-up run and then REPEATS timed runs.  `checks` takes the CPU time of
each `verify` check at seed CHECK_SEED in process, in children run the
same way, each making one warm-up run and CHECK_REPEATS timed runs of
every check.  `setup` times api_batch's set-up layer by layer, in
SETUP_ROUNDS children per checkout run the same way: the import of the
bench module, each phase builder that `api_batch.build` calls (at seed
SEED, full sizes), the `socks.pair_tensor` calls inside the socks phase,
the warm-up pass, and the `PartitionPlus` and `PartialLabeling`
constructors wherever the set-up calls them.  The bench's traced child
records only the timed pass, so this is the layer view of `setup_s`.
`pass` times api_batch's timed pass by function (`run_pass(ops, spent)`, at seed SEED, full
sizes), in ROUNDS children per checkout run the same way, each making
one warm-up pass and then REPEATS timed passes: the layer view of
`op_ref_s`.  `calls` writes the cli_small inputs once
(`bench/cli_inputs.write` at seed SEED, from C) and times
`python -m finobs <argv>` for each of the ten subcommands, CALL_ROUNDS
times per checkout after one warm-up call each, alternating which
checkout goes first; it fails when the two give different stdout,
stderr or exit code.  This is the layer view of cli_small `op_ref_s`.
`pairs` runs
`bench/run.py --workload W --seconds 25 --trace 0` in each checkout per
seed, alternating which goes first, and gives each end-to-end metric a
verdict: `gain_shown` and `within_bound` (see `pairs_summary`).
Each merges its section into the output file.
"""

import argparse
import json
import os
import platform
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


def child():
    """In a checkout's environment: per-kind seconds of each timed run."""
    import api_batch
    import numpy
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
    runs = []
    for _ in range(REPEATS + 1):  # the first run is the warm-up
        spent = {}
        for name, kind, arg in calls:
            t0 = time.perf_counter()
            real[name](kind, arg)
            key = f"{name}/{kind}"
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t0
        runs.append(spent)
    counts, size = {}, {}
    for name, kind, arg in calls:
        key = f"{name}/{kind}"
        counts[key] = counts.get(key, 0) + 1
        text = arg if name == "loads_value" else real[name](kind, arg)
        size[key] = size.get(key, 0) + len(text)
    return {"runs": runs[1:], "calls": counts, "bytes": size, "numpy": numpy.__version__}


def checks_child():
    """In a checkout's environment: CPU seconds of each verify check, per timed run."""
    from finobs import verify

    out = {}
    for suite in verify.SUITES.values():
        for fn in suite:
            runs = []
            for _ in range(CHECK_REPEATS + 1):  # the first run is the warm-up
                t0 = time.process_time()
                name = fn(CHECK_SEED).name
                runs.append(time.process_time() - t0)
            out[name] = runs[1:]
    return out


def setup_child():
    """In a checkout's environment: seconds of each layer of api_batch's set-up."""
    t0 = time.perf_counter()
    import api_batch
    from finobs import measurement, socks

    spent = {"import": time.perf_counter() - t0}

    def timed(key, fn):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] = spent.get(key, 0.0) + time.perf_counter() - t0
        return call

    # the phase builders are the module functions build calls by name
    for name in api_batch.build.__code__.co_names:
        if name.endswith("_ops"):
            setattr(api_batch, name, timed(f"build{name.removesuffix('_ops')}",
                                           getattr(api_batch, name)))
    socks.pair_tensor = timed("build_socks/pair_tensor", socks.pair_tensor)
    for cls in (measurement.PartitionPlus, measurement.PartialLabeling):
        cls.__post_init__ = timed(f"{cls.__name__}.__post_init__", cls.__post_init__)
    ops = api_batch.build(SEED, api_batch.SIZES["full"])
    t0 = time.perf_counter()
    api_batch.run_pass(ops)
    spent["warmup_pass"] = time.perf_counter() - t0
    return spent


def pass_child():
    """In a checkout's environment: seconds of each function in each timed api_batch pass."""
    import api_batch

    ops = api_batch.build(SEED, api_batch.SIZES["full"])
    runs = []
    for _ in range(REPEATS + 1):  # the first run is the warm-up
        spent = {}
        api_batch.run_pass(ops, spent)
        runs.append(spent)
    return runs[1:]


def calls_child(directory):
    """In a checkout's environment: write the cli_small inputs under
    `directory` and return the argument list of each case."""
    import cli_inputs

    return [case.argv for case in cli_inputs.write(Path(directory), SEED)]


def tree_env(tree):
    """Environment that runs checkout `tree` from its own `src` and `bench`
    on one BLAS thread, with the tools importable by a child."""
    tree = Path(tree).resolve()
    path = [tree / "src", tree / "bench", Path(__file__).resolve().parent]
    return dict(os.environ, **THREADS, PYTHONPATH=os.pathsep.join(map(str, path)))


def run_child(tree, func="child", *args):
    code = f"import json, bench_serial; print(json.dumps(bench_serial.{func}(*{list(args)!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=tree_env(tree), cwd=tree,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(values):
    return {"median_ms": round(statistics.median(values) * 1e3, 3),
            "min_ms": round(min(values) * 1e3, 3), "samples": len(values)}


def alternating_children(args, func="child", rounds=ROUNDS):
    """`rounds` children per checkout, alternating which goes first."""
    sides = {"parent": args.parent, "change": args.change}
    got = {side: [] for side in sides}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            got[side].append(run_child(sides[side], func))
    return got


def checks_section(args):
    """Per check and side: median, minimum and quartile spread of the CPU time
    over every timed run of every child, and the change's median over the parent's."""
    got = alternating_children(args, "checks_child")
    runs = {side: {name: [t for child in children for t in child[name]] for name in children[0]}
            for side, children in got.items()}
    per_check = {}
    for name in runs["parent"]:
        row = {}
        for side, times in runs.items():
            q1, _, q3 = statistics.quantiles(times[name], n=4)
            row[side] = dict(summary(times[name]), spread_ms=round((q3 - q1) * 1e3, 3))
        row["change_over_parent"] = round(row["change"]["median_ms"] / row["parent"]["median_ms"], 3)
        per_check[name] = row
    return {"seed": CHECK_SEED, "clock": "process_time", "children_per_side": ROUNDS,
            "repeats_per_child": CHECK_REPEATS, "warmup_runs_per_child": 1, "checks": per_check}


def setup_section(args):
    """Per layer and side: median and minimum over the children (one set-up
    each), the pairs of children the change wins, and its median over the parent's."""
    got = alternating_children(args, "setup_child", SETUP_ROUNDS)
    layers = {}
    for name in got["parent"][0]:
        times = {side: [child[name] for child in children] for side, children in got.items()}
        row = {side: summary(t) for side, t in times.items()}
        row["change_wins"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
        row["change_over_parent"] = round(row["change"]["median_ms"] / row["parent"]["median_ms"], 3)
        layers[name] = row
    return {"seed": SEED, "sizes": "full", "clock": "perf_counter",
            "children_per_side": SETUP_ROUNDS, "layers": layers}


def pass_summary(got):
    """Per function of the pass, and for the whole pass (`all`), each side's median
    and minimum over every timed pass of every child, and the change's median
    over the parent's; `got` holds each side's children, each a list of passes."""
    runs = {side: [dict(run, all=sum(run.values())) for child in children for run in child]
            for side, children in got.items()}
    functions = {}
    for name in runs["parent"][0]:
        row = {side: summary([run[name] for run in side_runs]) for side, side_runs in runs.items()}
        row["change_over_parent"] = round(row["change"]["median_ms"] / row["parent"]["median_ms"], 3)
        functions[name] = row
    return functions


def pass_section(args):
    got = alternating_children(args, "pass_child")
    return {"seed": SEED, "sizes": "full", "clock": "perf_counter", "children_per_side": ROUNDS,
            "passes_per_child": REPEATS, "warmup_runs_per_child": 1, "functions": pass_summary(got)}


def calls_summary(got):
    """Per subcommand, and over every call (`all`), each side's median and
    minimum, the calls the change wins against the parent's call it was
    paired with, and the change's median over the parent's; `got` holds
    each side's seconds per subcommand, in pair order."""
    rows = {}
    for name in [*got["parent"], "all"]:
        times = {side: sum(calls.values(), []) if name == "all" else calls[name]
                 for side, calls in got.items()}
        row = {side: summary(t) for side, t in times.items()}
        row["change_wins"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
        row["change_over_parent"] = round(row["change"]["median_ms"] / row["parent"]["median_ms"], 3)
        rows[name] = row
    return rows


def time_call(tree, argv):
    """Seconds of one `python -m finobs` call on `tree`'s source, and what it printed."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "finobs", *argv], env=tree_env(tree), cwd=tree,
                          capture_output=True, text=True)
    return time.perf_counter() - t0, (done.returncode, done.stdout, done.stderr)


def calls_section(args):
    sides = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as directory:
        argvs = run_child(args.change, "calls_child", directory)
        for tree in sides.values():  # the warm-up call
            time_call(tree, argvs[0])
        got = {side: {argv[0]: [] for argv in argvs} for side in sides}
        for r in range(CALL_ROUNDS):
            for i, argv in enumerate(argvs):
                order = list(sides) if (r + i) % 2 == 0 else list(sides)[::-1]
                printed = {}
                for side in order:
                    seconds, printed[side] = time_call(sides[side], argv)
                    got[side][argv[0]].append(seconds)
                if printed["parent"] != printed["change"]:
                    sys.exit(f"error: `finobs {argv[0]}` prints differently in parent and change")
    return {"seed": SEED, "clock": "perf_counter", "rounds": CALL_ROUNDS,
            "warmup_calls_per_side": 1, "subcommands": calls_summary(got)}


def serial_section(args):
    got = alternating_children(args)
    out = {}
    for side, results in got.items():
        runs = [run for result in results for run in result["runs"]]
        keys = sorted(runs[0])
        per_kind = {k: summary([run[k] for run in runs]) for k in keys}
        for k in keys:
            per_kind[k].update(calls=results[0]["calls"][k], bytes=results[0]["bytes"][k])
        for name in ("dumps_value", "loads_value"):
            per_kind[f"{name}/all"] = summary(
                [sum(v for k, v in run.items() if k.startswith(name + "/")) for run in runs])
        out[side] = per_kind
        numpy_version = results[0]["numpy"]
    return {"seed": SEED, "rounds": ROUNDS, "repeats_per_child": REPEATS,
            "warmup_runs_per_child": 1, "numpy": numpy_version, **out}


def pairs_summary(rows, bounds):
    """Per end-to-end metric: each side's median and quartiles, the pairs
    the change wins (lower is better; ties count for neither) and two verdicts.
    `gain_shown`: the change wins at least 9 of every 10 pairs, and the
    parent's median exceeds the change's by more than the parent's quartile
    spread.  `within_bound`: the change's median is at most the parent's
    times 1 + the metric's `bound` (`bounds`, from BENCHMARK.json)."""
    out = {}
    for metric in rows[0]["parent"]["metrics"]:
        sides = {side: [row[side]["metrics"][metric]["value"] for row in rows]
                 for side in ("parent", "change")}
        row = {side: {"median": statistics.median(v), "quartiles": statistics.quantiles(v, n=4)}
               for side, v in sides.items()}
        wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        q1, _, q3 = row["parent"]["quartiles"]
        parent, change = row["parent"]["median"], row["change"]["median"]
        out[metric] = dict(row, change_wins=wins, pairs=len(rows),
                           gain_shown=10 * wins >= 9 * len(rows) and parent - change > q3 - q1,
                           within_bound=change <= parent * (1.0 + bounds[metric]))
    out["failed"] = {side: sum(row[side]["failed"] for row in rows) for side in ("parent", "change")}
    return out


def pairs_section(args):
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    rows = []
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        row = {"seed": seed, "first": order[0]}
        for side in order:
            argv = [sys.executable, "bench/run.py", "--workload", args.workload,
                    "--seed", str(seed), "--seconds", "25", "--trace", "0"]
            out = subprocess.run(argv, cwd=sides[side], check=True, capture_output=True,
                                 text=True).stdout
            row[side] = json.loads(out.splitlines()[-1])
        rows.append(row)
        print(json.dumps(row), flush=True)
    return {"summary": pairs_summary(rows, bounds), "runs": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serial", "checks", "setup", "pass", "calls", "pairs"))
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", default="api_batch")
    parser.add_argument("--seeds", default="")
    parser.add_argument("-o", "--output", help="BENCH_verify.json for checks, "
                        "else BENCH_serial.json")
    args = parser.parse_args(argv)

    path = Path(args.output or f"BENCH_{'verify' if args.mode == 'checks' else 'serial'}.json")
    doc = json.loads(path.read_text()) if path.exists() else {}
    section = f"pairs/{args.workload}" if args.mode == "pairs" else args.mode
    doc.setdefault("commands", {})[section] = "python3 tools/bench_serial.py " + " ".join(
        argv if argv is not None else sys.argv[1:])
    doc["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count(), "threads": THREADS}
    if args.mode == "serial":
        doc["serial"] = serial_section(args)
    elif args.mode == "checks":
        doc["checks"] = checks_section(args)
    elif args.mode == "setup":
        doc["setup"] = setup_section(args)
    elif args.mode == "pass":
        doc["pass"] = pass_section(args)
    elif args.mode == "calls":
        doc["calls"] = calls_section(args)
    else:
        doc.setdefault("pairs", {})[args.workload] = pairs_section(args)
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
