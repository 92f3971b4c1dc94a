"""Tiny seeded inputs for the ten non-verify subcommands (cli_small).

`write(directory, seed)` builds the inputs through library calls (dim at
most 5, at most 6 atoms), writes them as JSON files and returns one
`Case` per subcommand.  `Case.check(stdout)` parses the CLI output with
the `serial` loaders and compares it with the library result computed
in process from the same files.
"""

import json
from pathlib import Path

import numpy as np

from finobs import dynamics, fhlogic, finitary, measurement, serial, socks
from inputs import density, hermitian, labeling_family, spanning_set


class Case:
    """One CLI call: its argument list and the library result it must match.

    `expected()` returns the value the output must equal: a value of
    serial kind `kind`, or a plain JSON node when `kind` is None.  It
    returns None when the library result is itself known to be wrong.
    """

    def __init__(self, argv, kind, expected):
        self.argv = argv
        self.kind = kind
        self.expected = expected
        self._want = None

    def check(self, stdout):
        if self._want is None:
            value = self.expected()
            if value is None:
                return False
            self._want = (serial.dumps_value(self.kind, value) if self.kind
                          else serial.dumps_canonical(value) + "\n")
        if self.kind:
            got = serial.dumps_value(self.kind, serial.loads_value(self.kind, stdout))
        else:
            got = serial.dumps_canonical(json.loads(stdout)) + "\n"
        return got == self._want == stdout


def write(directory, seed):
    """Write the inputs under `directory` and return the ten cases."""
    rng = np.random.default_rng([int(seed), 7])
    directory.mkdir(parents=True, exist_ok=True)

    def put(name, text):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    load = serial.load_value
    cases = []
    code, labels, entries = labeling_family(rng, 4, extra=5)
    family = put("family.json", serial.dumps_canonical({
        "objects": list(code.objects.elements),
        "distinguished": "a",
        "labels": list(labels),
        "labelings": [{"entries": e} for e in entries],
    }) + "\n")
    cases.append(Case(["measure", "--family", family], "partition",
                      lambda: measurement.partition_of_family(
                          *serial.load_labeling_family(json.loads(Path(family).read_text())))))

    spec = put("spec.json", serial.dumps_value("operator", hermitian(rng, 4, 2.0)))
    cases.append(Case(["spec", "--operator", spec], "eigensystem",
                      lambda: finitary.diagonalize(load("operator", spec))))

    ham = put("ham.json", serial.dumps_value("operator", hermitian(rng, 3, 1.5)))
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = put("psi.json", serial.dumps_value("state", psi / np.linalg.norm(psi)))
    t = repr(float(rng.uniform(-3.0, 3.0)))
    cases.append(Case(["evolve", "--hamiltonian", ham, "--state", state, "--time", t], "state",
                      lambda: dynamics.evolve(finitary.diagonalize(load("operator", ham)),
                                              load("state", state), float(t))))

    a = put("a.json", serial.dumps_value("operator", hermitian(rng, 3, 2.0)))
    b = put("b.json", serial.dumps_value("operator", hermitian(rng, 3, 2.0)))
    cases.append(Case(["concat", "--a", a, "--b", b], "operator",
                      lambda: dynamics.concatenate(load("operator", a), load("operator", b))))

    obs = put("obs.json", serial.dumps_value("operator", hermitian(rng, 4, 1.0)))
    rho = put("rho.json", serial.dumps_value("density", density(rng, 4)))
    poly = [float(c) for c in rng.uniform(-1.0, 1.0, size=3)]
    func = put("f.json", serial.dumps_canonical({"poly": poly}) + "\n")
    cases.append(Case(
        ["expect", "--observable", obs, "--density", rho, "--function", func], None,
        lambda: {"value": dynamics.expectation(
            serial.load_function(json.loads(Path(func).read_text())),
            finitary.diagonalize(load("operator", obs)), load("density", rho))},
    ))

    # a degenerate spectrum, so that compression averages an eigenspace
    basis, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    degenerate = (basis * np.array([-1.0, -1.0, 0.5, 2.0])) @ basis.conj().T
    deg = put("deg.json", serial.dumps_value("operator", (degenerate + degenerate.conj().T) / 2.0))
    rho2 = put("rho2.json", serial.dumps_value("density", density(rng, 4)))
    cases.append(Case(["compress", "--observable", deg, "--density", rho2], "density",
                      lambda: dynamics.compress_state(finitary.diagonalize(load("operator", deg)),
                                                      load("density", rho2))))

    alphas = (0.0, round(float(rng.uniform(0.5, 2.0)), 6))
    rotation = int(rng.integers(1000))

    def uncertainty():
        first, second = dynamics.complementarity_pair(5, alphas, rotation_seed=rotation)
        base = np.zeros(5, dtype=complex)
        base[0] = 1.0
        v1, v2 = dynamics.variance(first, base), dynamics.variance(second, base)
        shared = dynamics.subspace_intersection(first.vectors, second.vectors)
        return {"dim": 5, "alphas": list(alphas), "variance": [v1, v2], "product": v1 * v2,
                "shared_rays": [[[z.real, z.imag] for z in row] for row in shared]}

    cases.append(Case(["uncertainty", "--dim", "5", "--alphas", ",".join(map(repr, alphas)),
                       "--seed", str(rotation)], None, uncertainty))

    def tensor():
        return socks.pair_tensor([
            socks.PairVector(i, complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 4.0)
            for i in range(3)
        ])

    ta = put("ta.json", serial.dumps_value("tensor", tensor()))
    tb = put("tb.json", serial.dumps_value("tensor", tensor()))

    def inner():
        z = socks.tensor_inner(load("tensor", ta), load("tensor", tb))
        return {"value": [z.real, z.imag]}

    cases.append(Case(["socks", "--inner", "--a", ta, "--b", tb], None, inner))

    atoms = [f"a{i:02d}" for i in range(6)]
    support = tuple(sorted(atoms[i] for i in rng.choice(6, size=3, replace=False)))
    block = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = fhlogic.FHOperator(support, block, complex(float(rng.uniform(-2.0, 2.0))))
    matrix = put("fh.json", serial.dumps_value("operator", fhlogic.fh_to_matrix(op, atoms)))
    cases.append(Case(["fh", "--decompose", "--matrix", matrix, "--atoms", ",".join(atoms)],
                      "fhoperator",
                      lambda: fhlogic.decompose_equivariant(load("operator", matrix), atoms)))

    window = [f"q{i}" for i in range(6)]
    spans = [fhlogic.subspace(*spanning_set(rng, window, 1, 3)) for _ in "xyz"]
    paths = [put(f"{p}.json", serial.dumps_value("subspace", v)) for p, v in zip("xyz", spans)]

    def modular():
        # the subspace lattice is modular, so a false answer is wrong
        if not fhlogic.modularity_check(*(load("subspace", p) for p in paths)):
            return None
        return {"modular": True}

    cases.append(Case(["lattice", "--op", "modular", "--a", paths[0], "--b", paths[1],
                       "--c", paths[2]], None, modular))
    return cases
