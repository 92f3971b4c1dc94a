"""Batch command-line front end.

One binary, subcommand per task, JSON in and out.  Exit codes: 0 on
success, 1 on validation or schema problems, 2 on numerical-tolerance
failures.  FINOBS_SEED in the environment overrides any --seed flag.

Each subparser carries its handler.  A handler reads its inputs with
`serial.load_value` and returns its output text (`verify` also returns
its exit code); `serial.write_text` writes it once.  A handler imports
the library modules it uses, so a call loads only what it runs.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import serial
from .errors import FinobsError, ToleranceError, ValidationError

# `uncertainty` builds dense dim x dim matrices; a larger --dim is refused
# before anything is allocated
MAX_UNCERTAINTY_DIM = 1024


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # shared error mapping instead so usage problems exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _dump(node):
    return serial.dumps_canonical(node) + "\n"


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ValidationError(f"missing required flag --{name}")


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
    from . import measurement

    objects, labels, family = serial.load_value("family", args.family)
    partition = measurement.partition_of_family(objects, labels, family)
    return serial.dumps_value("partition", partition)


def _cmd_spec(args):
    return serial.dumps_value("eigensystem", serial.load_value("observable", args.operator))


def _cmd_evolve(args):
    from . import dynamics

    system = serial.load_value("observable", args.hamiltonian)
    psi = serial.load_value("state", args.state)
    return serial.dumps_value("state", dynamics.evolve(system, psi, args.time))


def _cmd_concat(args):
    from . import dynamics

    a = serial.load_value("operator", args.a)
    b = serial.load_value("operator", args.b)
    return serial.dumps_value("operator", dynamics.concatenate(a, b))


def _cmd_expect(args):
    from . import dynamics

    system = serial.load_value("observable", args.observable)
    rho = serial.load_value("density", args.density)
    func = serial.load_value("function", args.function)
    return _dump({"value": dynamics.expectation(func, system, rho)})


def _cmd_compress(args):
    from . import dynamics

    system = serial.load_value("observable", args.observable)
    rho = serial.load_value("density", args.density)
    return serial.dumps_value("density", dynamics.compress_state(system, rho))


def _cmd_uncertainty(args):
    from . import dynamics

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
    product = v1 * v2
    if not np.isfinite(product):
        raise ValidationError("product of the variances overflows")
    return _dump({
        "dim": args.dim,
        "alphas": list(alphas),
        "variance": [v1, v2],
        "product": product,
        "shared_rays": shared,
    })


def _cmd_socks(args):
    from . import socks

    _require(args, ("a", "b") if args.inner else ("vector",))
    if args.inner:
        x = serial.load_value("tensor", args.a)
        y = serial.load_value("tensor", args.b)
        return _dump({"value": socks.tensor_inner(x, y)})
    if args.flip is not None:
        pairs = serial.load_value("flips", args.flip)
        vector = serial.load_value("fockvector", args.vector)
        return serial.dumps_value("fockvector", socks.flip(socks.FlipAction(pairs), vector))
    vector = serial.load_value("fockvector", args.vector)
    return _dump({"support": sorted(socks.least_support(vector))})


def _cmd_fh(args):
    from . import fhlogic

    _require(args, ("matrix", "atoms") if args.decompose else ("operator",))
    if args.decompose:
        matrix = serial.load_value("operator", args.matrix)
        atoms = [a for a in args.atoms.split(",") if a]
        return serial.dumps_value("fhoperator", fhlogic.decompose_equivariant(matrix, atoms))
    op = serial.load_value("fhoperator", args.operator)
    if args.canonical:
        return serial.dumps_value("fhoperator", fhlogic.canonicalize(op))
    if args.check_zero_sum:
        return _dump({"zero_sum": fhlogic.zero_sum_compatible(op)})
    witness, verdict = fhlogic.refute_density(op)
    trace = verdict.trace
    return _dump({
        "witness": serial.save_subspace(witness),
        "trace": "INFINITE" if trace.infinite else float(np.real(trace.value)),
        "state_value": verdict.state_value,
        "agrees": verdict.agrees,
    })


# op -> (operand count, output key, fhlogic function name); a None key
# prints the resulting subspace itself
_LATTICE_OPS = {
    "meet": (2, None, "subspace_meet"),
    "join": (2, None, "subspace_join"),
    "equal": (2, "equal", "subspace_equal"),
    "orthogonal": (2, "orthogonal", "is_orthogonal"),
    "modular": (3, "modular", "modularity_check"),
    "alpha": (1, "value", "two_valued_state"),
}


def _cmd_lattice(args):
    from . import fhlogic

    count, key, func_name = _LATTICE_OPS[args.op]
    spaces = []
    for flag in ("a", "b", "c")[:count]:
        path = getattr(args, flag)
        if path is None:
            raise ValidationError(f"--op {args.op} needs --{flag}")
        spaces.append(serial.load_value("subspace", path))
    result = getattr(fhlogic, func_name)(*spaces)
    return serial.dumps_value("subspace", result) if key is None else _dump({key: result})


def _cmd_verify(args):
    from . import verify

    seed = _seed_value(args)
    results = verify.run_suite(args.suite, seed)
    text = verify.render_report(results, args.suite, seed)
    return text, 0 if all(r.passed for r in results) else 2


# parsing leaves the parser unchanged, so in-process calls share one
@functools.cache
def _build_parser():
    parser = _Parser(prog="finobs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.set_defaults(handler=handler)
        return p

    p = add("measure", _cmd_measure, "partition coded by a family of partial labelings")
    p.add_argument("--family", required=True, help="labeling family JSON")

    p = add("spec", _cmd_spec, "eigendecomposition of a Hermitian matrix")
    p.add_argument("--operator", required=True, help="matrix or eigensystem JSON")

    p = add("evolve", _cmd_evolve, "evolve a state for a given time")
    p.add_argument("--hamiltonian", required=True, help="matrix or eigensystem JSON")
    p.add_argument("--state", required=True, help="state JSON")
    p.add_argument("--time", required=True, type=float, help="evolution time")

    p = add("concat", _cmd_concat, "single generator for two successive evolutions")
    p.add_argument("--a", required=True, help="first Hermitian matrix JSON")
    p.add_argument("--b", required=True, help="second Hermitian matrix JSON")

    p = add("expect", _cmd_expect, "expectation of a function of an observable")
    p.add_argument("--observable", required=True, help="matrix or eigensystem JSON")
    p.add_argument("--density", required=True, help="density JSON")
    p.add_argument("--function", required=True, help="function JSON (poly or points)")

    p = add("compress", _cmd_compress, "replace a density by its spectral compression")
    p.add_argument("--observable", required=True, help="matrix or eigensystem JSON")
    p.add_argument("--density", required=True, help="density JSON")

    p = add("uncertainty", _cmd_uncertainty, "a complementary operator pair and its variances")
    p.add_argument("--dim", required=True, type=int, help="ambient dimension")
    p.add_argument("--alphas", required=True, help="comma-separated eigenvalues")
    p.add_argument("--seed", type=int, default=42, help="rotation seed")

    p = add("socks", _cmd_socks, "sock-pair tensors and truncated direct sums")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--inner", action="store_true", help="inner product of two tensors")
    mode.add_argument("--flip", default=None, help="flips JSON to apply to --vector")
    mode.add_argument("--support", action="store_true", help="least flip support of --vector")
    p.add_argument("--a", default=None, help="first tensor JSON (with --inner)")
    p.add_argument("--b", default=None, help="second tensor JSON (with --inner)")
    p.add_argument("--vector", default=None, help="truncated vector JSON")

    p = add("fh", _cmd_fh, "finite-block plus scalar operators")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--canonical", action="store_true", help="canonicalize --operator")
    mode.add_argument(
        "--check-zero-sum", action="store_true", help="column-sum compatibility of --operator"
    )
    mode.add_argument("--refute", action="store_true", help="density refutation witness")
    mode.add_argument("--decompose", action="store_true", help="recover block form from --matrix")
    p.add_argument("--operator", default=None, help="operator JSON")
    p.add_argument("--matrix", default=None, help="dense truncation JSON (with --decompose)")
    p.add_argument("--atoms", default=None, help="comma-separated atom ids (with --decompose)")

    p = add("lattice", _cmd_lattice, "meets, joins and the dimension state on subspaces")
    p.add_argument("--op", required=True, choices=tuple(_LATTICE_OPS))
    p.add_argument("--a", required=True, help="first subspace JSON")
    p.add_argument("--b", default=None, help="second subspace JSON")
    p.add_argument("--c", default=None, help="third subspace JSON (with modular)")

    p = add("verify", _cmd_verify, "run the built-in check suites")
    p.add_argument(
        "--suite",
        default="all",
        # the keys of verify.SUITES, written out so that parsing does not import verify
        help="suite name: measurement, finitary, dynamics, socks, fhlogic, serialization, or all",
    )
    p.add_argument("--seed", type=int, default=42, help="seed for the seeded checks")

    return parser


def _run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise ValidationError("a subcommand is required")
    result = args.handler(args)
    text, code = result if isinstance(result, tuple) else (result, 0)
    serial.write_text(text, args.output)
    return code


def main(argv=None):
    try:
        return _run(list(argv) if argv is not None else sys.argv[1:])
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FinobsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
