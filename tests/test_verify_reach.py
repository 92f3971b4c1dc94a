"""Every public construction is replayed by `verify`, or declared here.

Every check of `verify --suite all` runs once at seed 0 in this process
under cProfile (a profiler cannot see into the workers `run_suite`
forks), and the code objects it reaches are read from the profile, so a
function cannot hide behind another of the same name.  The checks are
the ones `run_suite` dispatches to, and its results through the workers
must equal theirs.  Each name in `finobs.__all__` must be reached: a
function by its own code, a class by its `__post_init__` and by every
public method and property it defines in `src/finobs`.
Dataclass-generated methods, submodules and the exception types, which
only failure paths raise, are out of scope.

`UNREACHED` is the declared exception table.  It must equal the unreached
set exactly: a new construction needs an oracle in `verify` (or an entry
here with its reason), and an entry whose name `verify` comes to reach,
or that is deleted, has to leave the table.
"""

import cProfile
import inspect
from pathlib import Path

import pytest

import finobs
from finobs import verify

PACKAGE = Path(finobs.__file__).resolve().parent

# oracle pending (ROADMAP item 5): each entry leaves once verify checks it
UNREACHED = {
    "ideal_contains": "oracle pending; demo 01 runs it; check against ideal_members",
    "is_observable": "oracle pending; demo 01 runs it",
    "joint_generator": "oracle pending; demo 02 runs it; check A_i = f_i(A) densely",
    "minimal_polynomial": "oracle pending; demo 02 runs it; check p(A) = 0 and its degree",
    "orbit_span_dim": "oracle pending; demo 02 runs it; check the dense Krylov rank",
    "restrict": "oracle pending; only its unit tests run it; check the dense P A P",
    "table_function": "oracle pending; demo 02 and the `function` input kind run it",
    "propagator": "oracle pending; demo 03 runs it; check against expm",
    "apply_diagonal": "oracle pending; demo 04 runs it",
    "fock_basis_vector": "oracle pending; demo 04 runs it",
    "is_flip_invariant": "oracle pending; demo 04 runs it",
    # views and I/O that the CLI, the demos or repr read, or the tests pin
    "load_value": "file wrapper over loads_value, run by every CLI input",
    "FiniteSupportVector.as_dict": "view of the entries, printed by demo 05",
    "SymbolicSubspace.finite": "view of the rows as vectors, read by repr and the tests",
    "PartitionPlus.block_index": "public view of _where, which ideal_contains and ideal_members read",
    "ObjectSet.sort_key": "public view of the element order; the constructors call it only "
                          "to name a stranger, which no check feeds them",
    "Polynomial.degree": "view of the coefficients, pinned by the tests",
    "TruncatedFockVector.max_pairs": "view of the truncation, pinned by the tests",
}


def _own_code(obj):
    """Code objects that define `obj`: a function's own, or a class's
    `__post_init__` and public methods and properties written in `src/finobs`."""
    if inspect.isfunction(obj):
        return {obj.__name__: obj.__code__}
    out = {}
    for name, member in vars(obj).items():
        if name.startswith("_") and name != "__post_init__":
            continue
        if isinstance(member, property):
            member = member.fget
        member = getattr(member, "__func__", member)  # classmethod, staticmethod
        code = getattr(member, "__code__", None)
        if code is not None and Path(code.co_filename).resolve().parent == PACKAGE:
            out[f"{obj.__name__}.{name}"] = code
    return out


def _public_code():
    out = {}
    for name in finobs.__all__:
        obj = getattr(finobs, name)
        if inspect.ismodule(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        out.update(_own_code(obj))
    return out


@pytest.fixture(scope="module")
def in_process():
    """The results of every check of "all" at seed 0, run here under the
    profiler, and the code objects they reached."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results = [fn(0) for suite in verify.SUITES.values() for fn in suite]
    finally:
        profiler.disable()
    return results, {entry.code for entry in profiler.getstats()}


@pytest.fixture(scope="module")
def unreached(in_process):
    _, reached = in_process
    return {name for name, code in _public_code().items() if code not in reached}


def test_the_workers_report_what_the_checks_report_in_process(in_process):
    results, _ = in_process
    assert verify.run_suite("all", 0) == results


def test_the_scan_sees_functions_classes_methods_and_properties():
    names = set(_public_code())
    assert {"partition_of_family", "PartitionPlus.__post_init__", "ChoiceFunction.from_index",
            "ChoiceFunction.index", "EigenSystem.matrix"} <= names
    assert not any(name.endswith(("__init__", "__eq__", "__repr__")) for name in names)
    assert "NonIdealFamily" not in names and "fhlogic" not in names


def test_every_export_is_reached_by_verify_or_declared(unreached):
    missing = sorted(unreached - set(UNREACHED))
    assert not missing, f"exported, but no verify check reaches: {', '.join(missing)}"


def test_every_declared_export_is_still_unreached(unreached):
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"declared unreached, but reached or gone: {', '.join(stale)}"
    assert all(reason for reason in UNREACHED.values())
