"""finobs benchmark: three closed-loop workloads with one client.

    python3 bench/run.py --workload {verify_all,cli_small,api_batch} \\
        --seed N --seconds T --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported and run
from `src/`.  One client runs operations back to back, so at most one
child process runs at a time:

- verify_all: `python -m finobs verify --suite all --seed S` subprocesses,
  with S derived from --seed.
- cli_small: subprocess calls cycling through the ten non-verify
  subcommands on tiny seeded input files.
- api_batch: a fixed seeded batch of public library calls, in one child
  process after import and a warm-up pass (see api_batch.py).

Every output is checked outside the timed region; an operation that
fails or whose output is wrong is counted in `failed`.  Each set-up and
each timed operation is bracketed by probes of the host's slowdown
(pace.py), and the gated times are rescaled to the nominal speed.  With
--trace 0 the last stdout line holds the end-to-end metrics of
END_TO_END; with --trace 1 it holds the per-layer metrics of a separate
traced child (layers.py).  Lines before it, starting with '#', record
the environment, every sample and slowdown, the op mix (and,
for api_batch, each function's share of a pass), the error rate and the
raw wall-time percentiles and throughput.  --smoke runs each workload
at its smallest size, for the benchmark's own tests.  Scratch files go
to `.bench_out/` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import pace

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before numpy is first imported in this process

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

# Gated on every workload: the median set-up and the median operation
# (a child, or an api_batch pass), each in seconds at the nominal host
# speed of pace.py, and the peak RSS.  Raw wall times are printed beside
# them, with the slowdowns they were divided by.
END_TO_END = {
    "setup_s": "s",
    "op_ref_s": "s",
    "peak_rss_mb": "MB",
}

# Printed under the per-workload names used in ROADMAP; raw wall times.
ALIASES = {
    "verify_all": {"verify_s": "wall_p50_s"},
    "cli_small": {"cli_call_p50_s": "wall_p50_s", "cli_call_p90_s": "wall_p90_s"},
    "api_batch": {"api_ops_per_s": "ops_per_s"},
}
PRINTED = {"setup_raw_s": "s", "wall_p10_s": "s", "wall_p50_s": "s", "wall_p90_s": "s",
           "ops_per_s": "1/s", "slowdown": "ratio", "samples": "count"}


@dataclass
class Outcome:
    """What a workload run measured: end-to-end metrics, per-layer
    metrics when traced, operation counts and descriptive details."""

    e2e: dict
    attempted: int
    failed: int
    info: dict
    layers: dict = None


@dataclass
class Done:
    """A finished child: exit code, stdout, stderr, wall seconds, peak RSS."""

    code: int
    out: str
    err: str
    seconds: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    env.pop("FINOBS_SEED", None)  # it would override every --seed
    env.update(THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same set order, so traced counts repeat
    return env


def run_child(argv):
    """Run one child to completion; wall time and its own peak RSS."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Done(proc.returncode, out.decode(), err.read().decode(), seconds,
                    usage.ru_maxrss / 1024.0)


def finobs_argv(args):
    return [sys.executable, "-m", "finobs", *args]


def closed_loop(argvs, seconds, min_ops, probe):
    """Run argvs cyclically, one at a time, for `seconds` and at least
    min_ops: (argv, Done, mean of the `probe()` slowdowns before and
    after it)."""
    done = []
    end = time.perf_counter() + seconds
    before = probe()
    while len(done) < min_ops or time.perf_counter() < end:
        argv = argvs[len(done) % len(argvs)]
        child = run_child(finobs_argv(argv))
        after = probe()
        done.append((argv, child, (before + after) / 2))
        before = after
    return done


def timed_setups(setup, probe):
    """(seconds, mean probe() slowdown before and after) of SETUP_REPEATS
    calls of `setup()`; also its last result."""
    timings = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        got = setup()
        seconds = time.perf_counter() - t0
        after = probe()
        timings.append((seconds, (before + after) / 2))
        before = after
    return timings, got


def quantile(values, q):
    """Inclusive-method quantile; the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def rounded(values):
    return [round(v, 5) for v in values]


def loop_metrics(setups, timed, rss_mb):
    """End-to-end metrics of a closed loop, and the figures printed beside
    them; `setups` and `timed` hold (wall seconds, slowdown)."""
    walls = [s for s, _ in timed]
    return {
        "setup_s": statistics.median(s / k for s, k in setups),
        "op_ref_s": statistics.median(s / k for s, k in timed),
        "peak_rss_mb": rss_mb,
        "setup_raw_s": statistics.median(s for s, _ in setups),
        "wall_p10_s": quantile(walls, 0.1),
        "wall_p50_s": statistics.median(walls),
        "wall_p90_s": quantile(walls, 0.9),
        "ops_per_s": len(walls) / sum(walls),
        "slowdown": statistics.median(k for _, k in timed),
        "samples": len(walls),
    }


def import_times():
    """Cumulative import seconds of the named modules, median of three runs."""
    samples = {name: [] for name in layers.IMPORTS}
    for _ in range(3):
        done = run_child([sys.executable, "-X", "importtime", "-c", "import finobs.cli"])
        seen = {}
        for line in done.err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line.split("|"))
            if name in samples and name not in seen and cumulative.isdigit():
                seen[name] = int(cumulative) / 1e6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {f"import.{n}.cum_s": statistics.median(v) for n, v in samples.items()}


def layer_report(traced, startup_s):
    """Per-layer metrics from a traced child's table plus the import times."""
    metrics = layers.layer_metrics(traced["table"])
    metrics.update(import_times())
    metrics["cli.startup_s"] = startup_s
    metrics["trace.overhead_ratio"] = traced["traced_s"] / statistics.median(traced["untraced_s"])
    return metrics


def replay_traced(outcome, argvs, reps, walls, outputs):
    """Replay argvs in a traced child and add its layers to `outcome`;
    a replayed call fails when its output differs from `outputs`."""
    path = OUT / "replay-argv.json"
    path.write_text(json.dumps(argvs), encoding="utf-8")
    done = run_child([sys.executable, str(BENCH / "layers.py"), "--argv-file", str(path),
                      "--untraced-reps", str(reps)])
    if done.code != 0:
        raise RuntimeError(f"traced replay failed:\n{done.err}")
    traced = json.loads(done.out.splitlines()[-1])
    failed = sum(
        o["code"] != 0 or o["sha256"] != hashlib.sha256(outputs[tuple(o["argv"])].encode()).hexdigest()
        for o in traced["outputs"]
    )
    startup = statistics.median(walls) - statistics.median(traced["cold_call_s"])
    outcome.layers = layer_report(traced, startup)
    outcome.attempted += len(argvs)
    outcome.failed += failed


def verify_all(seed, seconds, trace, smoke):
    from finobs import verify

    suite = "serialization" if smoke else "all"
    # one verify seed per run: checking a seed costs a whole in-process run
    verify_seed = random.Random(seed).randrange(1_000_000)
    argvs = [["verify", "--suite", suite, "--seed", str(verify_seed)]]

    def setup():
        warm = run_child(finobs_argv(["verify", "--suite", "serialization", "--seed", str(verify_seed)]))
        if warm.code != 0:
            raise RuntimeError(f"warm-up failed:\n{warm.err}")

    setups, _ = timed_setups(setup, pace.compute_slowdown)
    # a verify call takes seconds, over which the host's speed wanders
    # more than a 0.2 s probe can see: probe for 1 s
    done = closed_loop(argvs, seconds, min_ops=1, probe=lambda: pace.compute_slowdown(40))

    checks = sum(len(fns) for fns in verify.SUITES.values()) if suite == "all" \
        else len(verify.SUITES[suite])
    report = verify.render_report(verify.run_suite(suite, verify_seed), suite, verify_seed)
    failed = sum(
        d.code != 0 or d.out != report or d.out.splitlines()[-1] != f"{checks} passed, 0 failed"
        for _, d, _ in done
    )
    walls = [d.seconds for _, d, _ in done]
    info = {"verify_seed": verify_seed, "suite": suite, "walls_s": rounded(walls),
            "slowdowns": rounded([k for _, _, k in done])}
    outcome = Outcome(loop_metrics(setups, [(d.seconds, k) for _, d, k in done],
                                   max(d.rss_mb for _, d, _ in done)),
                      len(done), failed, info)
    if trace:
        replay_traced(outcome, argvs, 1, walls, {tuple(argvs[0]): report})
    return outcome


def cli_small(seed, seconds, trace, smoke):
    import cli_inputs

    def setup():
        cases = cli_inputs.write(OUT / "cli", seed)
        warm = run_child(finobs_argv(cases[0].argv))
        if warm.code != 0:
            raise RuntimeError(f"warm-up failed:\n{warm.err}")
        return cases

    # the calls and set-up are mostly interpreter start and imports
    setups, cases = timed_setups(setup, pace.startup_slowdown)
    argvs = [c.argv for c in cases]
    done = closed_loop(argvs, seconds, min_ops=len(argvs), probe=pace.startup_slowdown)

    by_argv = {tuple(c.argv): c for c in cases}
    failed = sum(d.code != 0 or not by_argv[tuple(argv)].check(d.out) for argv, d, _ in done)
    walls = [d.seconds for _, d, _ in done]
    info = {"subcommands": [a[0] for a in argvs], "walls_s": rounded(walls),
            "slowdowns": rounded([k for _, _, k in done])}
    outcome = Outcome(loop_metrics(setups, [(d.seconds, k) for _, d, k in done],
                                   max(d.rss_mb for _, d, _ in done)),
                      len(done), failed, info)
    if trace:
        replay_traced(outcome, argvs, 3, walls, {tuple(argv): d.out for argv, d, _ in done})
    return outcome


def api_batch(seed, seconds, trace, smoke):
    def worker(*flags):
        argv = [sys.executable, str(BENCH / "api_batch.py"), "--seed", str(seed),
                "--seconds", str(seconds), "--spawned-at", repr(time.perf_counter()), *flags]
        argv += ["--smoke"] * smoke
        done = run_child(argv)
        if done.code != 0:
            raise RuntimeError(f"api_batch worker failed:\n{done.err}")
        return json.loads(done.out.splitlines()[-1]), done.rss_mb

    # each worker probes the host right after its set-up
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        before = pace.compute_slowdown()
        got = worker("--setup-only")[0]
        setups.append((got["setup_s"], (before + got["setup_slowdown"]) / 2))
    before = pace.compute_slowdown()
    result, rss_mb = worker()
    setups.append((result["setup_s"], (before + result["setup_slowdown"]) / 2))
    walls = result["pass_s"]
    metrics = loop_metrics(setups, list(zip(walls, result["slowdown"])), rss_mb)
    # a pass is many library calls: throughput counts calls, not passes
    metrics["ops_per_s"] = result["calls_per_pass"] * len(walls) / sum(walls)
    info = {"calls_per_pass": result["calls_per_pass"], "mix": result["mix"],
            "sizes": result["sizes"], "walls_s": rounded(walls),
            "slowdowns": rounded(result["slowdown"]),
            "share": {fn: round(v, 4) for fn, v in result["share"].items()}}
    outcome = Outcome(metrics, result["attempted"], result["failed"], info)
    if trace:
        traced, _ = worker("--trace")
        outcome.layers = layer_report(traced, 0.0)
        outcome.attempted += traced["attempted"]
        outcome.failed += traced["failed"]
    return outcome


WORKLOADS = {"verify_all": verify_all, "cli_small": cli_small, "api_batch": api_batch}


def environment(seed):
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "finobs").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finobs" / "__init__.py").is_file():
        print(f"error: no finobs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    got = WORKLOADS[args.workload](args.seed, args.seconds, args.trace, args.smoke)

    print("# env " + json.dumps(environment(args.seed)))
    print("# workload " + json.dumps({"name": args.workload, **got.info}))
    print(f"# error_rate {got.failed / got.attempted:.6g} ({got.failed} of {got.attempted})")
    shown = {**got.e2e, **(got.layers or {})}
    units = dict(END_TO_END, **PRINTED)
    if args.trace:
        units.update(layers.metric_units())
    for name, unit in units.items():
        print(f"# {name} {shown[name]:.6g} {unit}")
    for alias, name in ALIASES[args.workload].items():
        print(f"# {alias} {shown[name]:.6g} {units[name]} (the {name} above)")
    metrics, units = (got.layers, layers.metric_units()) if args.trace else (got.e2e, END_TO_END)
    print(json.dumps({
        "correct": got.failed == 0,
        "attempted": got.attempted,
        "failed": got.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
