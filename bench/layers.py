"""Per-layer tracing from outside the program, run in a bench-owned child.

The child replaces the module attributes of the public `finobs`
functions listed in TARGETS with wrappers that record one span per call
(name, start, end, parent).  Spans stay in memory; when the traced pass
ends they are reduced to `<module>.<function>.calls`, `.busy_s` and
`.self_s`, and the table is written out as the last line of stdout.

Run as a script it replays CLI argument lists through `finobs.cli.main`:

    python bench/layers.py --argv-file ARGV.json --untraced-reps 3

(`src` on PYTHONPATH).  The api_batch workload traces its own batch
through `install` and `Recorder` from `api_batch.py`.
"""

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import sys
import time
from array import array

# (module, attribute) pairs wrapped in the traced pass.  A class name
# stands for its __post_init__, which is where construction work runs.
TARGETS = (
    ("measurement", "ideal_contains"),
    ("measurement", "partition_of_family"),
    ("measurement", "PartialLabeling"),
    ("measurement", "pushforward_partition"),
    ("measurement", "le"),
    ("measurement", "pref_le"),
    ("enumeration", "set_partitions"),
    ("finitary", "diagonalize"),
    ("finitary", "functional_calculus"),
    ("finitary", "joint_eigensystem"),
    ("finitary", "apply"),
    ("dynamics", "evolve"),
    ("dynamics", "concatenate"),
    ("dynamics", "compress_state"),
    ("dynamics", "expectation"),
    ("dynamics", "subspace_intersection"),
    ("dynamics", "complementarity_pair"),
    ("fhlogic", "subspace"),
    ("fhlogic", "subspace_meet"),
    ("fhlogic", "subspace_join"),
    ("fhlogic", "modularity_check"),
    ("fhlogic", "decompose_equivariant"),
    ("fhlogic", "canonicalize"),
    ("socks", "tensor_inner"),
    ("socks", "least_support"),
    ("socks", "flip"),
    ("serial", "dumps_value"),
    ("serial", "loads_value"),
)

# Wrapped functions that call another wrapped function, so that their
# self time differs from their busy time.
NESTING = (
    "finitary.functional_calculus",
    "dynamics.complementarity_pair",
    "fhlogic.subspace_meet",
    "fhlogic.subspace_join",
    "fhlogic.modularity_check",
    "fhlogic.decompose_equivariant",
)

# Text length through the serial layer: the output of dumps_value and
# the input of loads_value.
_BYTES = {
    "serial.dumps_value": lambda args, result: len(result),
    "serial.loads_value": lambda args, result: len(args[1]),
}

CLI_SUBCOMMANDS = (
    "measure", "spec", "evolve", "concat", "expect", "compress",
    "uncertainty", "socks", "fh", "lattice", "verify",
)

VERIFY_CHECKS = (
    "partition-ideal-roundtrip", "relabel-order-oracle", "scale-pushforward-oracle",
    "eigen-reconstruction", "functional-calculus", "unitary-evolution",
    "concatenation", "state-compression", "variance-complementarity",
    "oscillator-spectrum", "tensor-inner-identity", "tensor-antisymmetry",
    "flip-support", "fh-roundtrip", "zero-sum-criterion", "functional-recovery",
    "modular-law", "dimension-state-additivity", "density-refutation",
    "persistence-roundtrip",
)

IMPORTS = ("finobs.cli", "finobs", "finobs.verify", "numpy", "scipy.linalg")


def metric_units():
    """Every per-layer metric name, in report order, with its unit."""
    out = {}
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        out[name + ".calls"] = "count"
        out[name + ".busy_s"] = "s"
        if name in NESTING:
            out[name + ".self_s"] = "s"
        if name in _BYTES:
            out[name + ".bytes"] = "count"
    for name in IMPORTS:
        out[f"import.{name}.cum_s"] = "s"
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.busy_s"] = "s"
    out["cli.startup_s"] = "s"
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.busy_s"] = "s"
        out[f"verify.{check}.self_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


class Recorder:
    """Spans kept in flat arrays; a span is opened before its children."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.nbytes = []
        self._active = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")
        self._stack = [-1]

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.nbytes.append(0)
            self._active.append(0)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        # busy time counts only the outermost span of a recursive name
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.name_id[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        nid = self.intern(name)
        self.calls[nid] += 1
        idx = self.open(nid)
        try:
            yield
        finally:
            self.close(idx)

    def table(self):
        """Reduce the spans to calls, busy, self and byte totals per name."""
        import numpy as np

        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        return {
            name: {
                "calls": self.calls[i],
                "busy_s": float(busy[i]),
                "self_s": float(own[i]),
                "bytes": self.nbytes[i],
            }
            for i, name in enumerate(self.names)
        }


def _wrap(rec, name, fn):
    nid = rec.intern(name)
    sizer = _BYTES.get(name)

    if inspect.isgeneratorfunction(fn):
        # a span per resume: the work of a generator runs in next()
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            rec.calls[nid] += 1
            inner = fn(*args, **kwargs)
            while True:
                idx = rec.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[nid] += 1
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if sizer is not None:
            rec.nbytes[nid] += sizer(args, result)
        return result

    return wrapper


def _wrap_check(rec, fn):
    # the report name of a check is only known from its result
    label = fn.__name__.removeprefix("_check_").replace("_", "-")
    placeholder = rec.intern(f"verify.{label}")

    @functools.wraps(fn)
    def wrapper(seed):
        rec.calls[placeholder] += 1
        idx = rec.open(placeholder)
        try:
            result = fn(seed)
        finally:
            rec.close(idx)
        nid = rec.intern(f"verify.{result.name}")
        if nid != placeholder:
            rec.name_id[idx] = nid
            rec.calls[placeholder] -= 1
            rec.calls[nid] += 1
        return result

    return wrapper


def install(rec):
    """Wrap every TARGETS function wherever a finobs module binds it."""
    import finobs.cli  # noqa: F401  (loads every finobs module)
    from finobs import verify

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "finobs"]
    for module_name, attr in TARGETS:
        module = sys.modules[f"finobs.{module_name}"]
        original = getattr(module, attr)
        name = f"{module_name}.{attr}"
        if inspect.isclass(original):
            original.__post_init__ = _wrap(rec, name, original.__post_init__)
            continue
        wrapper = _wrap(rec, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for suite, checks in list(verify.SUITES.items()):
        verify.SUITES[suite] = tuple(_wrap_check(rec, fn) for fn in checks)


def layer_metrics(table):
    """Per-layer metric values from a span table; absent layers read 0."""
    out = {}
    for name, unit in metric_units().items():
        layer, _, field = name.rpartition(".")
        row = table.get(layer)
        out[name] = row[field] if row is not None else (0 if unit == "count" else 0.0)
    return out


def run_cli(argv):
    """One in-process CLI call: (exit code, stdout, seconds)."""
    from finobs import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, buf.getvalue(), elapsed


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argvs, untraced_reps):
    """A cold pass, warm untraced passes, then one traced pass, over the
    same argument lists.

    The cold pass is what a fresh process does after its imports, so it
    is the in-process share of a subprocess call.
    """
    cold = [run_cli(argv)[2] for argv in argvs]
    untraced = [sum(run_cli(argv)[2] for argv in argvs) for _ in range(untraced_reps)]
    rec = Recorder()
    install(rec)
    outputs = []
    t0 = time.perf_counter()
    for argv in argvs:
        with rec.span(f"cli.{argv[0]}"):
            code, out, _ = run_cli(argv)
        outputs.append({"argv": argv, "code": code, "sha256": _digest(out)})
    traced = time.perf_counter() - t0
    return {
        "table": rec.table(),
        "outputs": outputs,
        "traced_s": traced,
        "untraced_s": untraced,
        "cold_call_s": cold,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--argv-file", required=True, help="JSON list of CLI argument lists")
    parser.add_argument("--untraced-reps", type=int, default=1)
    args = parser.parse_args(argv)
    with open(args.argv_file, encoding="utf-8") as fh:
        argvs = json.load(fh)
    result = replay(argvs, args.untraced_reps)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
