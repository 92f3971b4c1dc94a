"""The api_batch workload: one fixed seeded batch of public library calls.

Run as a child of `run.py` (with `src` on PYTHONPATH):

    python bench/api_batch.py --seed S --seconds T --spawned-at CLOCK [--smoke]
        [--setup-only | --trace]

It imports `finobs`, builds its inputs through library calls, runs one
untimed warm-up pass and reports set-up time as the monotonic clock at
that point minus `--spawned-at`.  It then repeats the batch for T
seconds (at least once), checks every call's output outside the timed
region, and prints one JSON line.  After set-up and around each pass
it probes the host's slowdown (`pace.py`), outside the timed region.
With --trace it runs the batch untraced and then once through the
wrappers of `layers.py`.

Every call goes through a module attribute (`finitary.diagonalize`, not
an imported name) so that the traced pass sees it.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np
import scipy.linalg

import layers
import pace
from finobs import dynamics, enumeration, fhlogic, finitary, measurement, serial, socks
from inputs import density, hermitian, labeling_family, spanning_set

# residual bound for the numerical outputs, relative to their norm
_TOL = 1e-8


@dataclass
class Op:
    """One public library call (or a sweep of them) and its output check.

    `call(out)` gets the results of the earlier ops of the pass by name;
    `check(result, out)` returns how many of the op's `calls` failed.
    """

    name: str
    call: Callable
    check: Callable
    calls: int = 1


def _one(ok):
    return 0 if ok else 1


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0))


def _roundtrip_ops(ops, source, kind, pick=lambda r: r):
    """dumps_value then loads_value of a result (or of `pick` of it);
    re-dumping must be byte-equal."""
    dumped = f"dumps_value/{source}"
    ops.append(Op(dumped, lambda out: serial.dumps_value(kind, pick(out[source])),
                  lambda r, out: _one(isinstance(r, str) and r.endswith("\n"))))
    ops.append(Op(f"loads_value/{source}", lambda out: serial.loads_value(kind, out[dumped]),
                  lambda r, out: _one(serial.dumps_value(kind, r) == out[dumped])))


def _operator_ops(ops, rng, d, roundtrips):
    """The finitary and dynamics calls at Hermitian dim d, and a serial
    round trip of the results named in `roundtrips`."""
    # degenerate spectrum on a random unitary basis
    distinct = rng.uniform(-2.0, 2.0, size=max(2, d // 4))
    values = np.sort(distinct[rng.integers(0, len(distinct), size=d)])
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    basis, _ = np.linalg.qr(g)
    h = (basis * values) @ basis.conj().T
    h = (h + h.conj().T) / 2.0
    second = (basis * rng.uniform(-1.0, 1.0, size=d)) @ basis.conj().T
    second = (second + second.conj().T) / 2.0
    a, b = hermitian(rng, d, rng.uniform(0.5, 3.0)), hermitian(rng, d, rng.uniform(0.5, 3.0))
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    rho = density(rng, d)
    t = float(rng.uniform(-5.0, 5.0))

    h_sys = finitary.diagonalize(h)
    second_sys = finitary.diagonalize(second)
    evolved = basis @ (np.exp(-1j * values * t) * (basis.conj().T @ psi))
    product_target = scipy.linalg.expm(-1j * a) @ scipy.linalg.expm(-1j * b)
    calculus_target = h @ second + h
    moments = [np.linalg.matrix_power(h, k) for k in (1, 2, 3)]

    def moments_kept(r):
        return all(
            abs(np.trace(m @ r) - np.trace(m @ rho)) <= _TOL * (1.0 + np.linalg.norm(m))
            for m in moments
        )

    ops.append(Op(f"diagonalize/{d}", lambda out: finitary.diagonalize(h),
                  lambda r, out: _one(_rel(r.matrix(), h) <= _TOL)))
    ops.append(Op(f"evolve/{d}", lambda out: dynamics.evolve(h_sys, psi, t),
                  lambda r, out: _one(_rel(r, evolved) <= _TOL)))
    ops.append(Op(f"concatenate/{d}", lambda out: dynamics.concatenate(a, b),
                  lambda r, out: _one(_rel(scipy.linalg.expm(-1j * r), product_target) <= _TOL)))
    ops.append(Op(f"functional_calculus/{d}",
                  lambda out: finitary.functional_calculus(lambda x, y: x * y + x, [h_sys, second_sys]),
                  lambda r, out: _one(_rel(r.matrix(), calculus_target) <= _TOL)))
    ops.append(Op(f"compress_state/{d}", lambda out: dynamics.compress_state(h_sys, rho),
                  lambda r, out: _one(moments_kept(r))))
    kinds = {"diagonalize": "eigensystem", "evolve": "state", "concatenate": "operator",
             "functional_calculus": "eigensystem", "compress_state": "density"}
    for source in roundtrips:
        _roundtrip_ops(ops, f"{source}/{d}", kinds[source])


def _lattice_ops(ops, rng, window, triples):
    atoms = [f"q{i:02d}" for i in range(window)]
    for k in range(triples):
        names = []
        for part in "xyz":
            vectors, exclude = spanning_set(rng, atoms, 0, 4)
            name = f"subspace/{window}/{k}{part}"
            names.append(name)
            ops.append(Op(name, lambda out, v=vectors, e=exclude: fhlogic.subspace(v, exclude=e),
                          lambda r, out, e=exclude: _one((r.exclude is None) == (e is None))))
            _roundtrip_ops(ops, name, "subspace")
        x, y, z = names
        state = fhlogic.two_valued_state
        meet, join = f"subspace_meet/{window}/{k}", f"subspace_join/{window}/{k}"
        # the dimension state is 1 exactly on subspaces with a cofinite part
        ops.append(Op(meet, lambda out, x=x, y=y: fhlogic.subspace_meet(out[x], out[y]),
                      lambda r, out, x=x, y=y: _one(state(r) == min(state(out[x]), state(out[y])))))
        ops.append(Op(join, lambda out, x=x, y=y: fhlogic.subspace_join(out[x], out[y]),
                      lambda r, out, x=x, y=y: _one(state(r) == max(state(out[x]), state(out[y])))))
        _roundtrip_ops(ops, meet, "subspace")
        _roundtrip_ops(ops, join, "subspace")
        ops.append(Op(f"modularity_check/{window}/{k}",
                      lambda out, x=x, y=y, z=z: fhlogic.modularity_check(out[x], out[y], out[z]),
                      lambda r, out: _one(r is True)))


def _socks_ops(ops, rng, max_pairs, count):
    """Sweeps of `count` seeded cases with up to max_pairs pairs each."""
    def dyadic():
        return complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 4.0

    tensors, closed, vectors, supports, actions, flipped = [], [], [], [], [], []
    for _ in range(count):
        n = int(rng.integers(max_pairs + 1))
        xs = [dyadic() for _ in range(n)]
        ys = [dyadic() for _ in range(n)]
        tensors.append(tuple(socks.pair_tensor([socks.PairVector(i, v) for i, v in enumerate(zs)])
                             for zs in (xs, ys)))
        closed.append((2.0 ** n) * np.prod([u * np.conj(v) for u, v in zip(xs, ys)]))
        coeffs = rng.standard_normal(max_pairs + 1) + 1j * rng.standard_normal(max_pairs + 1)
        coeffs[n + 1:] = 0.0
        vectors.append(socks.TruncatedFockVector(coeffs))
        supports.append(set(range(n)))
        pairs = frozenset(int(p) for p in rng.choice(max_pairs + 1, size=2, replace=False))
        actions.append(socks.FlipAction(pairs))
        signs = np.array([(-1.0) ** sum(p < m for p in pairs) for m in range(max_pairs + 1)])
        flipped.append(signs * coeffs)

    ops.append(Op("tensor_inner/sweep",
                  lambda out: [socks.tensor_inner(tx, ty) for tx, ty in tensors],
                  lambda r, out: sum(abs(z - c) > 1e-12 * max(1.0, abs(c))
                                     for z, c in zip(r, closed)),
                  calls=count))
    ops.append(Op("least_support/sweep", lambda out: [socks.least_support(v) for v in vectors],
                  lambda r, out: sum(a != b for a, b in zip(r, supports)), calls=count))
    ops.append(Op("flip/sweep", lambda out: [socks.flip(a, v) for a, v in zip(actions, vectors)],
                  lambda r, out: sum(not np.array_equal(v.coeffs, w) for v, w in zip(r, flipped)),
                  calls=count))
    _roundtrip_ops(ops, "flip/sweep", "fockvector", pick=lambda r: r[0])


def _member(where, absorber, entries):
    """Independent membership oracle: `where` maps an element to its block."""
    seen = {}
    for x, y in entries:
        if where[x] == absorber or seen.setdefault(where[x], y) != y:
            return False
    return True


def _measurement_ops(ops, rng, families, pairs, scales):
    # construction: labelings built from entry maps, then the partition
    # their family codes, which must be the code they were drawn from
    for k in range(families):
        code, labels, entries = labeling_family(rng, 6, extra=40)
        objects, label_set = code.objects, measurement.LabelSet(labels)

        def construct(out, e=entries, objects=objects, label_set=label_set):
            family = [measurement.PartialLabeling(objects, label_set, x) for x in e]
            return measurement.partition_of_family(objects, label_set, family)

        name = f"partition_of_family/{k}"
        ops.append(Op(name, construct, lambda r, out, c=code: _one(r == c), calls=len(entries) + 1))
        _roundtrip_ops(ops, name, "partition")

    # orders: brute force over relabelings of an ordered 3-label set
    small = measurement.ObjectSet(("x1", "x2", "x3", "x4"), "a")
    ordered = measurement.LabelSet((0, 1, 2), ordered=True)
    any_maps = [dict(zip((0, 1, 2), v)) for v in product((0, 1, 2), repeat=3)]
    monotone = [h for h in any_maps if h[0] <= h[1] <= h[2]]

    def oracle(f, g, maps):
        fd, gd = f.as_dict(), g.as_dict()
        return all(x in gd for x in fd) and any(all(h[gd[x]] == fd[x] for x in fd) for h in maps)

    def labeling():
        return measurement.PartialLabeling(small, ordered, {
            x: int(rng.integers(3)) for x in small.elements if rng.random() < 0.75
        })

    compared = [(labeling(), labeling()) for _ in range(pairs)]
    for name, maps in (("le", any_maps), ("pref_le", monotone)):
        want = [oracle(f, g, maps) for f, g in compared]
        ops.append(Op(f"{name}/sweep",
                      lambda out, name=name: [getattr(measurement, name)(f, g)
                                              for f, g in compared],
                      lambda r, out, w=want: sum(a != b for a, b in zip(r, w)), calls=pairs))

    # pushforward of total scales through every relabeling of 3 labels
    elements = tuple(f"x{i + 1}" for i in range(6))
    objects = measurement.ObjectSet(elements, "a")
    values = ("y1", "y2", "y3")
    relabelings = [dict(zip(values, v)) for v in product(values, repeat=3)]
    collapsed = measurement.PartitionPlus(objects, (("a",), elements))
    cases, want_push = [], []
    for _ in range(scales):
        scale = measurement.Scale(objects, measurement.LabelSet(values),
                                  {x: values[int(rng.integers(3))] for x in elements})
        fibers = measurement.scale_to_partition(scale)
        cases += [(h, scale) for h in relabelings]
        want_push += [fibers if len(set(h.values())) > 1 else collapsed for h in relabelings]
    ops.append(Op("pushforward_partition/sweep",
                  lambda out: [measurement.pushforward_partition(h, s) for h, s in cases],
                  lambda r, out: sum(a != b for a, b in zip(r, want_push)),
                  calls=len(cases)))


def _membership_ops(ops, rng, n_objects, n_labelings):
    """Every set partition of n objects (the absorber is one of them)
    against seeded labelings, partition by partition."""
    elements = tuple(f"x{i + 1}" for i in range(n_objects - 1))
    objects = measurement.ObjectSet(elements, "a")
    labels = measurement.LabelSet(tuple(f"y{i + 1}" for i in range(n_objects - 1)))
    codes = [
        measurement.PartitionPlus(objects, tuple(tuple(b) for b in blocks))
        for blocks in enumeration.set_partitions(objects.universe())
    ]
    labelings = [
        measurement.PartialLabeling(objects, labels, {
            x: labels.values[int(rng.integers(len(labels.values)))]
            for x in elements if rng.random() < 0.5
        })
        for _ in range(n_labelings)
    ]
    want_members = []
    for c in codes:
        where = {x: i for i, block in enumerate(c.blocks) for x in block}
        want_members += [_member(where, where["a"], f.entries) for f in labelings]

    def sweep(out):
        contains = measurement.ideal_contains
        return [contains(c, f) for c in codes for f in labelings]

    ops.append(Op("ideal_contains/sweep", sweep,
                  lambda r, out: sum(a != b for a, b in zip(r, want_members)),
                  calls=len(want_members)))


# Per size: Hermitian dims with the results round-tripped through serial
# at each, lattice windows and subspace triples per window, socks pair
# count and cases, measurement families, compared labeling pairs and
# pushed-forward scales, and membership objects and labelings.  Only the
# dim-128 state goes through serial: a dim-128 matrix round trip alone
# would take about as long as the rest of the pass.  smoke: the smallest
# of each, for the benchmark's tests.
_ALL = ("diagonalize", "evolve", "concatenate", "functional_calculus", "compress_state")
SIZES = {
    "full": {"dims": {8: _ALL, 32: _ALL, 128: ("evolve",)},
             "windows": (6, 12, 24), "triples": 6, "max_pairs": 8, "socks_cases": 2000,
             "families": 24, "pairs": 4000, "scales": 60, "objects": 8, "labelings": 12},
    "smoke": {"dims": {8: _ALL}, "windows": (6,), "triples": 2, "max_pairs": 4,
              "socks_cases": 10, "families": 2, "pairs": 20, "scales": 1,
              "objects": 5, "labelings": 4},
}


def build(seed, sizes):
    """The batch for a seed: ops in call order, inputs built by library calls."""
    rng = np.random.default_rng([int(seed), 2024])
    ops = []
    for d, roundtrips in sizes["dims"].items():
        _operator_ops(ops, rng, d, roundtrips)
    for window in sizes["windows"]:
        _lattice_ops(ops, rng, window, sizes["triples"])
    _socks_ops(ops, rng, sizes["max_pairs"], sizes["socks_cases"])
    _measurement_ops(ops, rng, sizes["families"], sizes["pairs"], sizes["scales"])
    _membership_ops(ops, rng, sizes["objects"], sizes["labelings"])
    return ops


def run_pass(ops, spent=None):
    """Call every op once, in order; a raised exception is kept as the
    result.  `spent`, if given, gains each op's seconds by function name."""
    out = {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            out[op.name] = op.call(out)
        except Exception as exc:  # counted as a failed call by check_pass
            out[op.name] = exc
        if spent is not None:
            fn = op.name.split("/")[0]
            spent[fn] = spent.get(fn, 0.0) + time.perf_counter() - t0
    return out


def check_pass(ops, out):
    """Failed calls in one pass; an op that raised fails all its calls."""
    failed = 0
    for op in ops:
        result = out[op.name]
        if isinstance(result, Exception):
            failed += op.calls
            continue
        try:
            failed += min(op.calls, int(op.check(result, out)))
        except Exception:  # a check that cannot read the output fails it
            failed += op.calls
    return failed


def timed_passes(ops, seconds):
    """Closed loop over whole passes for `seconds` (at least one pass):
    pass times, the mean slowdown before and after each pass, failed
    calls, and the share of pass time spent in each function."""
    times, slowdowns = [], []
    spent = {}
    failed = 0
    end = time.perf_counter() + seconds
    before = pace.compute_slowdown()
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        out = run_pass(ops, spent)
        times.append(time.perf_counter() - t0)
        after = pace.compute_slowdown()
        slowdowns.append((before + after) / 2)
        before = after
        failed += check_pass(ops, out)
    total = sum(spent.values())
    return times, slowdowns, failed, {fn: s / total for fn, s in spent.items()}


def op_mix(ops):
    """Calls per pass by function name; the op names carry the sizes."""
    mix = {}
    for op in ops:
        fn = op.name.split("/")[0]
        mix[fn] = mix.get(fn, 0) + op.calls
    return mix


def traced_pass(ops, reps):
    """Untraced passes, then one traced pass, of the same batch."""
    untraced = [timed_passes(ops, 0)[0][0] for _ in range(reps)]
    rec = layers.Recorder()
    layers.install(rec)
    t0 = time.perf_counter()
    out = run_pass(ops)
    traced = time.perf_counter() - t0
    return {
        "table": rec.table(),
        "traced_s": traced,
        "untraced_s": untraced,
        "failed": check_pass(ops, out),
        "attempted": sum(op.calls for op in ops),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent when it started this process")
    parser.add_argument("--smoke", action="store_true", help="smallest sizes")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", help="stop after set-up")
    mode.add_argument("--trace", action="store_true", help="one traced pass instead of the loop")
    args = parser.parse_args(argv)

    sizes = SIZES["smoke" if args.smoke else "full"]
    ops = build(args.seed, sizes)
    run_pass(ops)  # warm-up
    setup_s = time.perf_counter() - args.spawned_at
    result = {"setup_s": setup_s, "setup_slowdown": pace.compute_slowdown(),
              "calls_per_pass": sum(op.calls for op in ops),
              "mix": op_mix(ops), "sizes": sizes}
    if args.trace:
        result.update(traced_pass(ops, reps=3))
    elif not args.setup_only:
        times, slowdowns, failed, share = timed_passes(ops, args.seconds)
        result.update({"pass_s": times, "slowdown": slowdowns, "failed": failed,
                       "share": share,
                       "attempted": len(times) * result["calls_per_pass"]})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
