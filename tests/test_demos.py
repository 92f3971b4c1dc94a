"""Smoke test: every script under demos/ runs to completion.

One demo runs as a script in a fresh interpreter, which covers the
command-line path; the others run in this process, which spares an
interpreter start and the library imports for each.
"""

import contextlib
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
AS_SCRIPT = ROOT / "demos" / "05_block_operators_and_logic.py"


def test_all_demos_are_found():
    assert len(DEMOS) == 5
    assert AS_SCRIPT in DEMOS


def _run_as_script(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_in_process(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    run = _run_as_script if demo == AS_SCRIPT else _run_in_process
    assert run(demo)
