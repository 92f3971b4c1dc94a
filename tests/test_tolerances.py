"""The tolerance table in `finobs.numeric` is the only source of tolerances,
and `numeric.within` the only place a residual is compared with one.

Any float literal below 1e-5 in a library module is taken for an inline
tolerance, and any comparison with a tolerance on either side for a
hand-written gate, which may let NaN through.  `verify` is exempt: its
pass thresholds are the independent reference the library is checked
against.  Outside `numeric`, no public function takes a tolerance but
`canonicalize`, whose two values (0.0 and EQUIVARIANT) are both in use.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from finobs import finitary
from finobs.errors import OutsideDomain

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finobs"
EXEMPT = {"numeric.py", "verify.py"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)


def small_float_literals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-5
    ]


def is_tolerance(node):
    """`tol`, `td`, `numeric.NAME`, a `tol_*()` call, or a multiple or negation of one."""
    if isinstance(node, ast.Name):
        return node.id in {"tol", "td"}
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "numeric"
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", ""))
        return name.startswith("tol_")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return is_tolerance(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return is_tolerance(node.left) or is_tolerance(node.right)
    return False


def tolerance_comparisons(source):
    """Lines comparing a value with a tolerance; `tol is None` tests are no comparison."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if any(
            not isinstance(op, (ast.Is, ast.IsNot)) and (is_tolerance(a) or is_tolerance(b))
            for op, a, b in zip(node.ops, sides, sides[1:])
        ):
            lines.append(node.lineno)
    return lines


def test_the_scan_covers_the_library():
    assert {"finitary.py", "dynamics.py", "fhlogic.py", "socks.py"} <= {p.name for p in MODULES}
    assert small_float_literals(PACKAGE / "numeric.py")
    assert tolerance_comparisons((PACKAGE / "numeric.py").read_text(encoding="utf-8"))


def test_the_comparison_scan_knows_every_tolerance_form():
    gates = [
        "x > tol", "x <= td", "x >= -numeric.PSD", "x > 10 * tol", "x <= tol * scale",
        "x > tol_eig(s)", "x <= finitary.tol_comm(a, b)", "-numeric.PSD <= x", "a < x <= tol",
    ]
    assert tolerance_comparisons("\n".join(gates)) == list(range(1, len(gates) + 1))
    # a cut-off shifted away from the tolerance is a different comparison
    kept = ["w >= 1.0 - 10 * tol", "n < cap", "x == 0.0", "numeric.within(x, tol)", "td is None"]
    assert tolerance_comparisons("\n".join(kept)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_inline_tolerance_literals(path):
    assert small_float_literals(path) == [], f"move these into finobs.numeric: {path.name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_comparisons_outside_within(path):
    lines = tolerance_comparisons(path.read_text(encoding="utf-8"))
    assert lines == [], f"compare through numeric.within: {path.name} lines {lines}"


def public_callables():
    """(qualified name, callable) for every public function and method of the
    library; `numeric` is left out, since its kernels apply the tolerance passed in."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        if path.name == "numeric.py":
            continue
        module = importlib.import_module(f"finobs.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{path.stem}.{name}.{attr}", member


def test_no_public_function_takes_a_tolerance():
    taking = sorted(
        name
        for name, func in public_callables()
        if {"tol", "td"} & set(inspect.signature(func).parameters)
    )
    assert taking == ["fhlogic.canonicalize"]


@pytest.mark.parametrize(
    "x",
    [[0.0, 0.0], [0.0, 1e-170], [1e-170, 1e-170], [0.0, 1e-160], [1e-160, 1e-160], [1e-170, 0.0]],
)
def test_in_domain_and_apply_share_one_domain_gate(x):
    # the domain is the first axis; entries of 1e-170 underflow when squared
    system = finitary.from_eigenpairs([(2.0, [1.0, 0.0])], 2)
    try:
        finitary.apply(system, x)
        applied = True
    except OutsideDomain:
        applied = False
    assert finitary.in_domain(system, x) is applied
    assert applied is (x[1] == 0.0)
