"""Parent-versus-change timings behind BENCH_serial.json.

    python3 tools/bench_serial.py serial --parent P --change C [-o BENCH_serial.json]
    python3 tools/bench_serial.py pairs --parent P --change C
        --workload W --seeds S1,S2,... [-o BENCH_serial.json]

P and C are source checkouts.  `serial` times `serial.dumps_value` and
`serial.loads_value` per kind over the calls of one api_batch pass (seed
SEED): each of ROUNDS rounds runs one child per checkout (alternating
which goes first), and each child records the calls of a pass, makes one
warm-up run and then REPEATS timed runs.  `pairs` runs `bench/run.py --workload W --seconds 25
--trace 0` in each checkout per seed, alternating which goes first.
Each merges its section into the output file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED, ROUNDS, REPEATS = 1, 4, 10


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


def tree_env(tree):
    """Environment that runs checkout `tree` from its own `src` and `bench`
    on one BLAS thread, with the tools importable by a child."""
    tree = Path(tree).resolve()
    path = [tree / "src", tree / "bench", Path(__file__).resolve().parent]
    return dict(os.environ, **THREADS, PYTHONPATH=os.pathsep.join(map(str, path)))


def run_child(tree):
    code = "import json, bench_serial; print(json.dumps(bench_serial.child()))"
    out = subprocess.run([sys.executable, "-c", code], env=tree_env(tree), cwd=tree,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(values):
    return {"median_ms": round(statistics.median(values) * 1e3, 3),
            "min_ms": round(min(values) * 1e3, 3), "samples": len(values)}


def serial_section(args):
    sides = {"parent": args.parent, "change": args.change}
    got = {side: [] for side in sides}
    for r in range(ROUNDS):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            got[side].append(run_child(sides[side]))
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


def pairs_summary(rows):
    """Per end-to-end metric: each side's median and quartiles, and the
    pairs the change wins (lower is better; ties count for neither)."""
    out = {}
    for metric in rows[0]["parent"]["metrics"]:
        sides = {side: [row[side]["metrics"][metric]["value"] for row in rows]
                 for side in ("parent", "change")}
        out[metric] = {side: {"median": statistics.median(v),
                              "quartiles": statistics.quantiles(v, n=4)}
                       for side, v in sides.items()}
        out[metric]["change_wins"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        out[metric]["pairs"] = len(rows)
    out["failed"] = {side: sum(row[side]["failed"] for row in rows) for side in ("parent", "change")}
    return out


def pairs_section(args):
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
    return {"summary": pairs_summary(rows), "runs": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serial", "pairs"))
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", default="api_batch")
    parser.add_argument("--seeds", default="")
    parser.add_argument("-o", "--output", default="BENCH_serial.json")
    args = parser.parse_args(argv)

    path = Path(args.output)
    doc = json.loads(path.read_text()) if path.exists() else {}
    section = "serial" if args.mode == "serial" else f"pairs/{args.workload}"
    doc.setdefault("commands", {})[section] = "python3 tools/bench_serial.py " + " ".join(
        argv if argv is not None else sys.argv[1:])
    doc["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count(), "threads": THREADS}
    if args.mode == "serial":
        doc["serial"] = serial_section(args)
    else:
        doc.setdefault("pairs", {})[args.workload] = pairs_section(args)
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
