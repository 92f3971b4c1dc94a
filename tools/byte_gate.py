"""Byte gate: count the outputs that differ between two source trees.

    python3 tools/byte_gate.py PARENT CHANGE

PARENT and CHANGE are source checkouts.  Each runs from its own `src`
(with its own `bench` and `demos`) over four groups of records:

- verify: `finobs verify --suite all` at seeds 0, 42 and 1234;
- cli_small: the ten `bench/cli_inputs.py` cases at seeds 0-11, each
  with its input files;
- demos: every script under `demos/`;
- lattice: a seeded corpus of LATTICE_TRIPLES subspace triples x, y, z
  given as spanning sets; the records are the `subspace` dumps of each
  operand, the `subspace_meet` and `subspace_join` dumps of each
  neighbouring pair, and the dump of x meet (y join z).

The first three groups keep the stdout, stderr and exit code of a
subprocess.  The gate prints how many records differ in each group, and
the line count of each tree's `src/` Python files, as `wc -l` counts.  A
lattice record that differs is loaded in CHANGE next to the parent's
and compared with `subspace_equal`.  The exit status is 1 when a record
of the first three groups differs or a moved lattice record spans
another subspace, else 0.
"""

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_serial import tree_env

VERIFY_SEEDS = (0, 42, 1234)
CLI_SEEDS = range(12)
LATTICE_SEED, LATTICE_TRIPLES = 15, 100
LATTICE_KINDS = ("subspace", "meet", "join", "nested")


def env_for(tree):
    env = tree_env(tree)
    env.pop("FINOBS_SEED", None)  # it would override every --seed
    env["PYTHONHASHSEED"] = "0"
    return env


def run(argv, tree, cwd):
    done = subprocess.run(argv, env=env_for(tree), cwd=cwd, capture_output=True, text=True)
    return {"code": done.returncode, "out": done.stdout, "err": done.stderr}


def ask(tree, cwd, task, payload):
    """Run `child(task, payload)` in a fresh interpreter on `tree`'s source."""
    code = "import byte_gate, json, sys; print(json.dumps(byte_gate.child(*json.load(sys.stdin))))"
    done = subprocess.run([sys.executable, "-c", code], input=json.dumps([task, payload]),
                          env=env_for(tree), cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def child(task, payload):
    """In a tree's interpreter: write the CLI inputs, dump the lattice
    corpus, or compare pairs of subspace dumps with `subspace_equal`."""
    from finobs import fhlogic, serial

    if task == "cli":
        import cli_inputs

        cases = []
        for seed in payload:
            directory = Path("cli", str(seed))
            argvs = [case.argv for case in cli_inputs.write(directory, seed)]
            inputs = {p.name: p.read_text() for p in sorted(directory.iterdir())}
            cases += [{"seed": seed, "argv": argv, "inputs": inputs} for argv in argvs]
        return cases
    if task == "lattice":
        def dump(space):
            return serial.dumps_value("subspace", space)

        dumps = []
        for triple in payload:
            x, y, z = spaces = [
                fhlogic.subspace([{a: complex(*c) for a, c in v.items()} for v in vectors], ex)
                for vectors, ex in triple
            ]
            dumps += [("subspace", dump(s)) for s in spaces]
            for s1, s2 in ((x, y), (y, z), (z, x)):
                dumps += [("meet", dump(fhlogic.subspace_meet(s1, s2))),
                          ("join", dump(fhlogic.subspace_join(s1, s2)))]
            dumps.append(("nested", dump(fhlogic.subspace_meet(x, fhlogic.subspace_join(y, z)))))
        return dumps
    load = serial.loads_value
    return [fhlogic.subspace_equal(load("subspace", a), load("subspace", b)) for a, b in payload]


def src_lines(tree):
    """Newlines in the `.py` files under `tree`'s `src/`."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def lattice_corpus():
    """Spanning sets of 3 to 6 atoms with Gaussian-integer or float
    coordinates, with no exclusion, the whole window or a part of it."""
    rng = random.Random(LATTICE_SEED)
    triples = []
    for _ in range(LATTICE_TRIPLES):
        window = [f"a{i}" for i in range(rng.randint(3, 6))]
        triple = []
        for _ in range(3):
            gaussian = rng.random() < 0.5

            def coord():
                if gaussian:
                    return [rng.randint(-3, 3), rng.randint(-3, 3)]
                return [rng.uniform(-3, 3), rng.uniform(-3, 3)]

            vectors = [{a: coord() for a in rng.sample(window, rng.randint(1, len(window)))}
                       for _ in range(rng.randint(0, len(window)))]
            exclude = rng.choice([None, window, rng.sample(window, rng.randint(0, len(window)))])
            triple.append([vectors, exclude])
        triples.append(triple)
    return triples


def records(tree, work, corpus):
    """Every record of one tree, grouped."""
    python = sys.executable
    cases = ask(tree, work, "cli", list(CLI_SEEDS))
    return {
        "verify": [run([python, "-m", "finobs", "verify", "--suite", "all", "--seed", str(s)],
                       tree, work) for s in VERIFY_SEEDS],
        "cli_small": [dict(case, **run([python, "-m", "finobs", *case["argv"]], tree, work))
                      for case in cases],
        "demos": [run([python, str(demo)], tree, tree)
                  for demo in sorted((tree / "demos").glob("*.py"))],
        "lattice": ask(tree, work, "lattice", corpus),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: python3 tools/byte_gate.py PARENT CHANGE")
    parent, change = (Path(a).resolve() for a in argv)
    corpus = lattice_corpus()
    with tempfile.TemporaryDirectory() as scratch:
        got = {}
        for name, tree in (("parent", parent), ("change", change)):
            work = Path(scratch, name)
            work.mkdir()
            got[name] = records(tree, work, corpus)
        old, new = got["parent"], got["change"]
        ok = True
        for group in ("verify", "cli_small", "demos"):
            differ = len(old[group]) != len(new[group]) or sum(
                a != b for a, b in zip(old[group], new[group]))
            ok = ok and not differ
            print(f"{group}: {differ} of {len(new[group])} records differ")
        moved = [(kind, a, b) for (kind, a), (_, b) in zip(old["lattice"], new["lattice"])
                 if a != b]
        equal = ask(change, Path(scratch, "change"), "equal", [[a, b] for _, a, b in moved])
        for kind in LATTICE_KINDS:
            total = sum(k == kind for k, _ in new["lattice"])
            flags = [e for (k, _, _), e in zip(moved, equal) if k == kind]
            print(f"lattice {kind}: {len(flags)} of {total} records differ, "
                  f"{sum(flags)} of them subspace_equal")
        ok = ok and all(equal)
    print(f"src lines: parent {src_lines(parent)}, change {src_lines(change)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
