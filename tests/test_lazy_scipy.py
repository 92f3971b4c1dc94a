"""scipy stays off the import path: the library runs on numpy alone.

Importing scipy.linalg costs most of a small CLI call, and scipy is a
test dependency only.  A fresh interpreter runs the subcommands and the
expm oracles of `verify` in process and reports whether scipy has been
loaded after each one.

The same run holds the CLI to its import budget: `import finobs.cli`
and each subcommand load only the finobs modules they run, since every
module loaded in a call is compiled from source when bytecode caching
is off.  verify loads neither `multiprocessing` nor `concurrent.futures`:
a one-check suite runs in process, and a larger one in workers it forks
itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from finobs.dynamics import concatenate
from finobs.serial import dumps_canonical, dumps_value, loads_value

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
import finobs, finobs.cli

def loaded():
    return ("scipy" in sys.modules, sorted(m for m in sys.modules if m.startswith("finobs")),
            sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = finobs.cli.main(list(argv))
    return [code, out.getvalue(), *loaded()]

ham, state, family, a, b = sys.argv[1:]
steps = {"import": [0, "", *loaded()]}
steps["spec"] = run("spec", "--operator", ham)
steps["measure"] = run("measure", "--family", family)
steps["evolve"] = run("evolve", "--hamiltonian", ham, "--state", state, "--time", "0.5")
steps["verify"] = run("verify", "--suite", "serialization", "--seed", "3")
steps["forked verify"] = run("verify", "--suite", "socks", "--seed", "3")
steps["concat"] = run("concat", "--a", a, "--b", b)
checks = (finobs.verify._check_unitary_evolution(3), finobs.verify._check_concatenation(3))
steps["expm oracles"] = [0 if all(c.passed for c in checks) else 1, "", *loaded()]
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The operands of concat and {step: [exit code, stdout, scipy loaded,
    finobs modules loaded, process-pool modules loaded]}."""
    tmp_path = tmp_path_factory.mktemp("lazy")
    a = np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, -1.0]])
    b = np.array([[0.5, 0.25j], [-0.25j, 3.0]])
    family = {
        "objects": ["x", "y", "z"],
        "distinguished": "a",
        "labels": ["0", "1"],
        "labelings": [{"entries": {"x": "0", "y": "1"}}],
    }
    files = {
        "h.json": dumps_value("operator", a),
        "psi.json": dumps_value("state", np.array([0.6, 0.8j])),
        "family.json": dumps_canonical(family) + "\n",
        "a.json": dumps_value("operator", a),
        "b.json": dumps_value("operator", b),
    }
    paths = []
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / name))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    for name, (code, *_) in steps.items():
        assert code == 0, f"{name}: {done.stderr}"
    return a, b, steps


def test_no_subcommand_loads_scipy(run):
    a, b, steps = run
    for name in ("import", "spec", "measure", "evolve", "verify", "concat", "expm oracles"):
        assert not steps[name][2], f"scipy was loaded by {name}"

    out = steps["concat"][1]
    assert out == dumps_value("operator", concatenate(a, b))
    c = loads_value("operator", out)
    target = scipy.linalg.expm(-1j * a) @ scipy.linalg.expm(-1j * b)
    assert np.max(np.abs(scipy.linalg.expm(-1j * c) - target)) < 1e-8


def test_cli_loads_only_the_modules_a_subcommand_runs(run):
    _, _, steps = run
    unused = {
        "import": {"verify", "fhlogic", "measurement", "socks", "dynamics", "finitary"},
        "spec": {"verify", "fhlogic", "measurement", "socks"},
    }
    for name, modules in unused.items():
        loaded = set(steps[name][3])
        assert not loaded & {f"finobs.{m}" for m in modules}, f"{name} loaded {sorted(loaded)}"
    assert "finobs.verify" in steps["verify"][3]


def test_a_one_check_suite_loads_no_process_pool(run):
    _, _, steps = run
    assert steps["verify"][4] == []


def test_a_forked_suite_loads_no_process_pool(run):
    _, _, steps = run
    assert steps["forked verify"][1].endswith("3 passed, 0 failed\n")
    assert steps["forked verify"][4] == []
