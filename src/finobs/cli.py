"""Batch command-line front end.

One binary, subcommand per task, JSON in and out.  Exit codes: 0 on
success, 1 on validation or schema problems, 2 on numerical-tolerance
failures.  FINOBS_SEED in the environment overrides any --seed flag.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import dynamics, fhlogic, finitary, measurement, serial, socks, verify
from .errors import FinobsError, SchemaError, ToleranceError, ValidationError

# `uncertainty` builds dense dim x dim matrices; a larger --dim is refused
# before anything is allocated
MAX_UNCERTAINTY_DIM = 1024


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # shared error mapping instead so usage problems exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _read_json(path):
    text = serial.read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise SchemaError("", f"invalid JSON in {path}: {exc}") from None


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_node(node, path):
    _emit(serial.dumps_canonical(node) + "\n", path)


def _load_observable(path):
    """Accept either a bare matrix or a stored eigensystem."""
    node = _read_json(path)
    if isinstance(node, dict):
        return serial.load_eigensystem(node)
    return finitary.diagonalize(serial.load_matrix(node))


def _seed_value(args):
    env = os.environ.get("FINOBS_SEED")
    try:
        seed = args.seed if env is None else int(env)
    except ValueError:
        raise ValidationError(f"FINOBS_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _cmd_measure(args):
    objects, labels, family = serial.load_labeling_family(_read_json(args.family))
    partition = measurement.partition_of_family(objects, labels, family)
    _emit(serial.dumps_value("partition", partition), args.output)
    return 0


def _cmd_spec(args):
    system = _load_observable(args.operator)
    _emit(serial.dumps_value("eigensystem", system), args.output)
    return 0


def _cmd_evolve(args):
    system = _load_observable(args.hamiltonian)
    psi = serial.load_value("state", args.state)
    out = dynamics.evolve(system, psi, args.time)
    _emit(serial.dumps_value("state", out), args.output)
    return 0


def _cmd_concat(args):
    a = serial.load_value("operator", args.a)
    b = serial.load_value("operator", args.b)
    c = dynamics.concatenate(a, b)
    _emit(serial.dumps_value("operator", c), args.output)
    return 0


def _cmd_expect(args):
    system = _load_observable(args.observable)
    rho = serial.load_value("density", args.density)
    func = serial.load_function(_read_json(args.function))
    value = dynamics.expectation(func, system, rho)
    _emit_node({"value": value}, args.output)
    return 0


def _cmd_compress(args):
    system = _load_observable(args.observable)
    rho = serial.load_value("density", args.density)
    out = dynamics.compress_state(system, rho)
    _emit(serial.dumps_value("density", out), args.output)
    return 0


def _cmd_uncertainty(args):
    if args.dim > MAX_UNCERTAINTY_DIM:
        raise ValidationError(f"--dim {args.dim} exceeds the cap of {MAX_UNCERTAINTY_DIM}")
    try:
        alphas = tuple(float(x) for x in args.alphas.split(","))
    except ValueError:
        raise ValidationError(
            f"--alphas must be comma-separated numbers, got {args.alphas!r}"
        ) from None
    first, second = dynamics.complementarity_pair(
        args.dim, alphas, rotation_seed=_seed_value(args)
    )
    base = np.zeros(args.dim, dtype=complex)
    base[0] = 1.0
    v1 = dynamics.variance(first, base)
    v2 = dynamics.variance(second, base)
    shared = dynamics.subspace_intersection(first.vectors, second.vectors)
    node = {
        "dim": args.dim,
        "alphas": list(alphas),
        "variance": [v1, v2],
        "product": v1 * v2,
        "shared_rays": [serial._vector_out(row) for row in shared],
    }
    _emit_node(node, args.output)
    return 0


def _cmd_socks(args):
    if args.inner:
        x = serial.load_value("tensor", args.a)
        y = serial.load_value("tensor", args.b)
        _emit_node({"value": serial._complex_out(socks.tensor_inner(x, y))}, args.output)
        return 0
    if args.flip is not None:
        pairs = serial.load_value("flips", args.flip)
        vector = serial.load_value("fockvector", args.vector)
        out = socks.flip(socks.FlipAction(pairs), vector)
        _emit(serial.dumps_value("fockvector", out), args.output)
        return 0
    vector = serial.load_value("fockvector", args.vector)
    support = sorted(socks.least_support(vector))
    _emit_node({"support": support}, args.output)
    return 0


def _cmd_fh(args):
    if args.decompose:
        matrix = serial.load_value("operator", args.matrix)
        atoms = [a for a in args.atoms.split(",") if a]
        op = fhlogic.decompose_equivariant(matrix, atoms)
        _emit(serial.dumps_value("fhoperator", op), args.output)
        return 0
    op = serial.load_value("fhoperator", args.operator)
    if args.canonical:
        _emit(serial.dumps_value("fhoperator", fhlogic.canonicalize(op)), args.output)
        return 0
    if args.check_zero_sum:
        _emit_node({"zero_sum": fhlogic.zero_sum_compatible(op)}, args.output)
        return 0
    witness, verdict = fhlogic.refute_density(op)
    if verdict.trace.infinite:
        trace_out = "INFINITE"
    else:
        trace_out = float(np.real(verdict.trace.value))
    node = {
        "witness": serial.save_subspace(witness),
        "trace": trace_out,
        "state_value": verdict.state_value,
        "agrees": verdict.agrees,
    }
    _emit_node(node, args.output)
    return 0


def _cmd_lattice(args):
    first = serial.load_value("subspace", args.a)
    if args.op == "alpha":
        _emit_node({"value": fhlogic.two_valued_state(first)}, args.output)
        return 0
    if args.b is None:
        raise ValidationError(f"--op {args.op} needs --b")
    second = serial.load_value("subspace", args.b)
    if args.op == "meet":
        _emit(
            serial.dumps_value("subspace", fhlogic.subspace_meet(first, second)),
            args.output,
        )
        return 0
    if args.op == "join":
        _emit(
            serial.dumps_value("subspace", fhlogic.subspace_join(first, second)),
            args.output,
        )
        return 0
    if args.op == "equal":
        _emit_node({"equal": fhlogic.subspace_equal(first, second)}, args.output)
        return 0
    if args.op == "orthogonal":
        _emit_node({"orthogonal": fhlogic.is_orthogonal(first, second)}, args.output)
        return 0
    if args.c is None:
        raise ValidationError("--op modular needs --c")
    third = serial.load_value("subspace", args.c)
    _emit_node(
        {"modular": fhlogic.modularity_check(first, second, third)}, args.output
    )
    return 0


def _cmd_verify(args):
    seed = _seed_value(args)
    results = verify.run_suite(args.suite, seed)
    _emit(verify.render_report(results, args.suite, seed), args.output)
    return 0 if all(r.passed for r in results) else 2


def _build_parser():
    parser = _Parser(prog="finobs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        return p

    p = add("measure", "partition coded by a family of partial labelings")
    p.add_argument("--family", required=True, help="labeling family JSON")

    p = add("spec", "eigendecomposition of a Hermitian matrix")
    p.add_argument("--operator", required=True, help="matrix or eigensystem JSON")

    p = add("evolve", "evolve a state for a given time")
    p.add_argument("--hamiltonian", required=True, help="matrix or eigensystem JSON")
    p.add_argument("--state", required=True, help="state JSON")
    p.add_argument("--time", required=True, type=float, help="evolution time")

    p = add("concat", "single generator for two successive evolutions")
    p.add_argument("--a", required=True, help="first Hermitian matrix JSON")
    p.add_argument("--b", required=True, help="second Hermitian matrix JSON")

    p = add("expect", "expectation of a function of an observable")
    p.add_argument("--observable", required=True, help="matrix or eigensystem JSON")
    p.add_argument("--density", required=True, help="density JSON")
    p.add_argument("--function", required=True, help="function JSON (poly or points)")

    p = add("compress", "replace a density by its spectral compression")
    p.add_argument("--observable", required=True, help="matrix or eigensystem JSON")
    p.add_argument("--density", required=True, help="density JSON")

    p = add("uncertainty", "a complementary operator pair and its variances")
    p.add_argument("--dim", required=True, type=int, help="ambient dimension")
    p.add_argument("--alphas", required=True, help="comma-separated eigenvalues")
    p.add_argument("--seed", type=int, default=42, help="rotation seed")

    p = add("socks", "sock-pair tensors and truncated direct sums")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--inner", action="store_true", help="inner product of two tensors")
    mode.add_argument("--flip", default=None, help="flips JSON to apply to --vector")
    mode.add_argument("--support", action="store_true", help="least flip support of --vector")
    p.add_argument("--a", default=None, help="first tensor JSON (with --inner)")
    p.add_argument("--b", default=None, help="second tensor JSON (with --inner)")
    p.add_argument("--vector", default=None, help="truncated vector JSON")

    p = add("fh", "finite-block plus scalar operators")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--canonical", action="store_true", help="canonicalize --operator")
    mode.add_argument(
        "--check-zero-sum",
        action="store_true",
        help="column-sum compatibility of --operator",
    )
    mode.add_argument("--refute", action="store_true", help="density refutation witness")
    mode.add_argument(
        "--decompose", action="store_true", help="recover block form from --matrix"
    )
    p.add_argument("--operator", default=None, help="operator JSON")
    p.add_argument("--matrix", default=None, help="dense truncation JSON (with --decompose)")
    p.add_argument("--atoms", default=None, help="comma-separated atom ids (with --decompose)")

    p = add("lattice", "meets, joins and the dimension state on subspaces")
    p.add_argument(
        "--op",
        required=True,
        choices=("meet", "join", "equal", "orthogonal", "modular", "alpha"),
    )
    p.add_argument("--a", required=True, help="first subspace JSON")
    p.add_argument("--b", default=None, help="second subspace JSON")
    p.add_argument("--c", default=None, help="third subspace JSON (with modular)")

    p = add("verify", "run the built-in check suites")
    p.add_argument(
        "--suite",
        default="all",
        help="suite name: " + ", ".join(verify.SUITE_ORDER) + ", or all",
    )
    p.add_argument("--seed", type=int, default=42, help="seed for the seeded checks")

    return parser


_HANDLERS = {
    "measure": _cmd_measure,
    "spec": _cmd_spec,
    "evolve": _cmd_evolve,
    "concat": _cmd_concat,
    "expect": _cmd_expect,
    "compress": _cmd_compress,
    "uncertainty": _cmd_uncertainty,
    "socks": _cmd_socks,
    "fh": _cmd_fh,
    "lattice": _cmd_lattice,
    "verify": _cmd_verify,
}


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ValidationError(f"missing required flag --{name.replace('_', '-')}")


def _run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise ValidationError("a subcommand is required")
    if args.command == "socks":
        if args.inner:
            _require(args, ("a", "b"))
        else:
            _require(args, ("vector",))
    if args.command == "fh":
        if args.decompose:
            _require(args, ("matrix", "atoms"))
        else:
            _require(args, ("operator",))
    return _HANDLERS[args.command](args)


def main(argv=None):
    try:
        return _run(list(argv) if argv is not None else sys.argv[1:])
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FinobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
