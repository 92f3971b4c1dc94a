"""The tolerance table in `finobs.numeric` is the only source of tolerances.

Any float literal below 1e-5 in a library module is taken for an inline
tolerance.  `verify` is exempt: its pass thresholds are the independent
reference the library is checked against.
"""

import ast
from pathlib import Path

import pytest

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


def test_the_scan_covers_the_library():
    assert {"finitary.py", "dynamics.py", "fhlogic.py", "socks.py"} <= {p.name for p in MODULES}
    assert small_float_literals(PACKAGE / "numeric.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_inline_tolerance_literals(path):
    assert small_float_literals(path) == [], f"move these into finobs.numeric: {path.name}"
