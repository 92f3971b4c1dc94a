"""End-to-end checks of the command line front end.

Most cases call `cli.main` in process with stdout and stderr captured.
The `python -m finobs` entry point, the FINOBS_SEED override and verify
determinism run in a subprocess.
"""

import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finobs import cli, serial, verify
from finobs.errors import FinobsError, ToleranceError
from finobs.serial import MAX_FAMILY_ENTRIES, MAX_FAMILY_OBJECTS, dumps_value, loads_value


class Done(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    # in process, a traceback would be an exception escaping main
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return Done(code, out.getvalue(), err.getvalue())


def run_module(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "finobs", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def workdir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        return str(path)

    return tmp_path, write


def test_evolve_matches_the_library(workdir):
    _, write = workdir
    ham = write(
        "h.json",
        '{"ambient_dim": 2, "pairs": ['
        '{"value": 0.0, "vector": [[1, 0], [0, 0]]},'
        '{"value": 3.141592653589793, "vector": [[0, 0], [1, 0]]}]}',
    )
    s = 1.0 / np.sqrt(2.0)
    state = write("psi.json", dumps_value("state", np.array([s, s])))
    done = run_module("evolve", "--hamiltonian", ham, "--state", state, "--time", "1.0")
    assert done.returncode == 0, done.stderr
    psi = loads_value("state", done.stdout)
    assert np.allclose(psi, [s, -s], atol=1e-12)


def test_evolve_accepts_a_bare_matrix_too(workdir):
    tmp, write = workdir
    ham = write("h.json", dumps_value("operator", np.diag([0.0, np.pi]).astype(complex)))
    s = 1.0 / np.sqrt(2.0)
    state = write("psi.json", dumps_value("state", np.array([s, s])))
    out_path = tmp / "out.json"
    done = run_cli(
        "evolve", "--hamiltonian", ham, "--state", state, "--time", "1.0",
        "-o", str(out_path),
    )
    assert done.returncode == 0 and done.stdout == ""
    again = run_cli("evolve", "--hamiltonian", ham, "--state", state, "--time", "1.0")
    assert out_path.read_text() == again.stdout


def test_evolve_outside_domain_exits_2(workdir):
    _, write = workdir
    partial = write(
        "h.json",
        '{"ambient_dim": 2, "pairs": [{"value": 1.0, "vector": [[1, 0], [0, 0]]}]}',
    )
    state = write("psi.json", '{"vector": [[0, 0], [1, 0]]}')
    done = run_cli("evolve", "--hamiltonian", partial, "--state", state, "--time", "1.0")
    assert done.returncode == 2
    assert "outside operator domain" in done.stderr


def test_concat_dimension_mismatch_exits_1(workdir):
    _, write = workdir
    a = write("a.json", dumps_value("operator", np.eye(2, dtype=complex)))
    b = write("b.json", dumps_value("operator", np.eye(3, dtype=complex)))
    done = run_cli("concat", "--a", a, "--b", b)
    assert done.returncode == 1
    assert "error: dimension mismatch: first operator is 2, second is 3" in done.stderr


def test_measure_emits_the_partition(workdir):
    _, write = workdir
    family = write(
        "family.json",
        json.dumps(
            {
                "objects": ["x", "y", "z"],
                "distinguished": "a",
                "labels": ["0", "1"],
                "labelings": [{"entries": {"x": "0", "y": "1"}}],
            }
        ),
    )
    done = run_cli("measure", "--family", family)
    assert done.returncode == 0, done.stderr
    node = json.loads(done.stdout)
    assert node["blocks"] == [["a", "z"], ["x"], ["y"]]


def test_spec_diagonalizes(workdir):
    _, write = workdir
    op = write(
        "m.json", dumps_value("operator", np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    )
    done = run_cli("spec", "--operator", op)
    assert done.returncode == 0
    system = loads_value("eigensystem", done.stdout)
    assert np.allclose(system.values, [1.0, 3.0])


def test_expect_and_compress(workdir):
    _, write = workdir
    obs = write("t.json", dumps_value("operator", np.diag([1.0, 2.0]).astype(complex)))
    rho = write("rho.json", dumps_value("density", np.diag([0.25, 0.75]).astype(complex)))
    func = write("f.json", '{"poly": [0.0, 1.0]}')
    done = run_cli("expect", "--observable", obs, "--density", rho, "--function", func)
    assert done.returncode == 0
    assert json.loads(done.stdout)["value"] == pytest.approx(1.75)
    done = run_cli("compress", "--observable", obs, "--density", rho)
    assert done.returncode == 0
    sigma = loads_value("density", done.stdout)
    assert np.allclose(sigma, np.diag([0.25, 0.75]))


def test_uncertainty_reports_the_product(workdir):
    done = run_cli("uncertainty", "--dim", "5", "--alphas", "0,1.4142135623730951")
    assert done.returncode == 0, done.stderr
    node = json.loads(done.stdout)
    assert node["variance"][0] == pytest.approx(0.5)
    assert node["variance"][1] == pytest.approx(0.5)
    assert node["product"] == pytest.approx(0.25)
    assert len(node["shared_rays"]) == 1


def test_seed_env_overrides_flag(workdir):
    with_flag = run_cli("uncertainty", "--dim", "5", "--alphas", "0,2", "--seed", "7")
    with_env = run_module(
        "uncertainty", "--dim", "5", "--alphas", "0,2",
        env_extra={"FINOBS_SEED": "7"},
    )
    assert with_flag.returncode == with_env.returncode == 0
    assert with_flag.stdout == with_env.stdout
    bad = run_module("verify", "--suite", "socks", env_extra={"FINOBS_SEED": "x"})
    assert bad.returncode == 1
    assert "FINOBS_SEED" in bad.stderr


def test_measure_rejects_a_non_string_label(workdir):
    _, write = workdir
    family = write(
        "family.json",
        json.dumps(
            {
                "objects": ["x"],
                "distinguished": "a",
                "labels": ["u"],
                "labelings": [{"entries": {"x": ["u"]}}],
            }
        ),
    )
    done = run_cli("measure", "--family", family)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: /labelings/0/entries/x: expected a string\n"


def _with_seed_env(value, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FINOBS_SEED", value)
        return run_cli(*args)


def test_negative_seed_is_rejected_before_any_check():
    for done in (
        run_cli("verify", "--suite", "finitary", "--seed", "-1"),
        _with_seed_env("-1", "verify", "--suite", "finitary"),
        run_cli("uncertainty", "--dim", "5", "--alphas", "0,2", "--seed", "-1"),
    ):
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: seed must be a non-negative integer")


def test_concat_rejects_empty_matrices(workdir):
    _, write = workdir
    empty = write("empty.json", "[]")
    one = write("one.json", "[[[1, 0]]]")
    for a, b in ((empty, empty), (empty, one)):
        done = run_cli("concat", "--a", a, "--b", b)
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


def test_integer_over_the_digit_limit_exits_1(workdir):
    # json.loads refuses integer literals over 4,300 digits with a plain ValueError
    _, write = workdir
    huge = "1" * 5000
    ham = write("h.json", "[[[1, 0]]]")
    cases = (
        ("spec", "--operator", write("big_op.json", f"[[[{huge}, 0]]]")),
        ("evolve", "--hamiltonian", ham, "--time", "1.0",
         "--state", write("big_psi.json", f'{{"vector": [[{huge}, 0]]}}')),
    )
    for argv in cases:
        done = run_cli(*argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


def test_uncertainty_dim_over_the_cap_is_rejected():
    # both values are refused before complementarity_pair allocates anything
    for dim in ("1025", "1000000000000"):
        done = run_cli("uncertainty", "--dim", dim, "--alphas", "0,2")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: --dim {dim} exceeds the cap of 1024\n"


def test_socks_support_and_flip(workdir):
    _, write = workdir
    vector = write("v.json", '{"coeffs": [[1, 0], [0, 0], [2, 0]]}')
    done = run_cli("socks", "--support", "--vector", vector)
    assert done.returncode == 0
    assert json.loads(done.stdout)["support"] == [0, 1]
    flips = write("flips.json", '{"pairs": [1]}')
    done = run_cli("socks", "--flip", flips, "--vector", vector)
    assert done.returncode == 0
    moved = loads_value("fockvector", done.stdout)
    assert np.array_equal(moved.coeffs, [1.0, 0.0, -2.0])
    missing = run_cli("socks", "--support")
    assert missing.returncode == 1
    assert "missing required flag --vector" in missing.stderr


def test_fh_zero_sum_and_refute(workdir):
    _, write = workdir
    op = write(
        "op.json",
        '{"support": ["p", "q"], "F": [[[1, 0], [3, 0]], [[4, 0], [2, 0]]], "tail": [5, 0]}',
    )
    done = run_cli("fh", "--check-zero-sum", "--operator", op)
    assert done.returncode == 0
    assert json.loads(done.stdout)["zero_sum"] is True
    density = write(
        "rho.json",
        '{"support": ["d0"], "F": [[[0.5, 0]]], "tail": [0.25, 0], "symmetric": true}',
    )
    done = run_cli("fh", "--refute", "--operator", density)
    assert done.returncode == 0
    node = json.loads(done.stdout)
    assert node["trace"] == "INFINITE"
    assert node["state_value"] == 1
    assert node["agrees"] is False
    assert node["witness"]["cofinite_excluding"] == ["d0"]


def test_lattice_modular(workdir):
    _, write = workdir
    s = 1.0 / np.sqrt(2.0)
    x = write("x.json", '{"finite": [{"p": [1, 0]}], "cofinite_excluding": null}')
    y = write("y.json", '{"finite": [], "cofinite_excluding": ["p", "q"]}')
    z = write(
        "z.json",
        json.dumps({"finite": [{"p": [s, 0], "q": [s, 0]}], "cofinite_excluding": None}),
    )
    done = run_cli("lattice", "--op", "modular", "--a", x, "--b", y, "--c", z)
    assert done.returncode == 0
    assert json.loads(done.stdout)["modular"] is True
    done = run_cli("lattice", "--op", "alpha", "--a", y)
    assert json.loads(done.stdout)["value"] == 1
    incomplete = run_cli("lattice", "--op", "meet", "--a", x)
    assert incomplete.returncode == 1


def test_verify_is_deterministic(workdir):
    first = run_module("verify", "--suite", "serialization", "--seed", "3")
    second = run_module("verify", "--suite", "serialization", "--seed", "3")
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.startswith("verify suite=serialization seed=3")
    assert "0 failed" in first.stdout
    other = run_cli("verify", "--suite", "serialization", "--seed", "4")
    assert other.stdout != first.stdout  # seed reaches the check data


def test_verify_rejects_unknown_suite():
    done = run_cli("verify", "--suite", "nope")
    assert done.returncode == 1
    assert "unknown suite" in done.stderr


def test_verify_suite_help_names_every_suite():
    # the help is written out in cli, so that parsing does not import verify
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--help"])
    assert exit_info.value.code == 0
    names = re.search(r"suite name: (.*?), or all", " ".join(out.getvalue().split())).group(1)
    assert names.split(", ") == list(verify.SUITES)


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
def test_help_prints_the_same_bytes_in_process_and_through_the_process_entry(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal width
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        cli.main(list(argv))
    assert exit_info.value.code == 0
    done = run_module(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, out.getvalue(), "")
    assert done.stdout.startswith("usage: finobs")


def test_usage_errors_exit_1():
    done = run_cli("frobnicate")
    assert done.returncode == 1
    assert "usage:" in done.stderr
    bare = run_cli()
    assert bare.returncode == 1
    assert "subcommand is required" in bare.stderr


def test_missing_input_file_exits_1(workdir):
    tmp, _ = workdir
    done = run_cli("spec", "--operator", str(tmp / "absent.json"))
    assert done.returncode == 1
    assert "error:" in done.stderr


def test_non_utf8_input_exits_1(workdir):
    tmp, write = workdir
    bad = tmp / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    ham = write("h.json", "[[[1, 0]]]")
    for argv in (
        ("spec", "--operator", str(bad)),
        ("evolve", "--hamiltonian", ham, "--state", str(bad), "--time", "1.0"),
    ):
        done = run_cli(*argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: {bad} is not valid UTF-8\n"


_VALID_FAMILY = {
    "objects": ["x", "y", "z"],
    "distinguished": "a",
    "labels": ["0", "1"],
    "labelings": [{"entries": {"x": "0", "y": "1"}}, {"entries": {"x": "0", "z": "1"}}],
}

_JUNK = st.one_of(
    # well-formed entries, which may still make the family non-ideal
    st.dictionaries(st.sampled_from(["x", "y", "z"]), st.sampled_from(["0", "1"]), max_size=3),
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-2, 2),
            st.floats(),  # NaN and the infinities included
            st.sampled_from(["x", "y", "z", "a", "w", "0", "1", "2", ""]),
        ),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(
                st.sampled_from(["x", "y", "w", "entries", "objects"]), inner, max_size=3
            ),
        ),
        max_leaves=6,
    ),
)


def _replace(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def family_files(draw):
    """A measure input with one node replaced by junk, and maybe stray bytes."""
    doc = json.loads(json.dumps(_VALID_FAMILY))
    path = draw(st.sampled_from([
        (), ("objects",), ("objects", 0), ("distinguished",), ("labels",), ("labels", 1),
        ("labelings",), ("labelings", 0), ("labelings", 0, "entries"),
        ("labelings", 0, "entries", "x"), ("labelings", 1, "entries", "w"),
    ]))
    data = json.dumps(_replace(doc, path, draw(_JUNK))).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


def _measure_in_process(path):
    return run_cli("measure", "--family", str(path))


def test_measure_refuses_a_family_over_either_cap(tmp_path):
    objects = ["x", "y", "z"] + [f"o{i}" for i in range(MAX_FAMILY_OBJECTS - 3)]
    pairs = [{"entries": {"x": "0", "y": "1"}}] * (MAX_FAMILY_ENTRIES // 2)
    ideal = dict(_VALID_FAMILY, labelings=pairs[:1])
    # the unknown object in the first labeling shows that the entry cap is
    # checked before any labeling is built
    cases = (
        (dict(ideal, objects=objects), None),
        (dict(ideal, objects=objects + ["w"]),
         f"error: /objects: {MAX_FAMILY_OBJECTS + 1} objects exceed the cap of "
         f"{MAX_FAMILY_OBJECTS}\n"),
        (dict(ideal, labelings=pairs), None),
        (dict(ideal, labelings=[{"entries": {"w": "0"}}] + pairs),
         f"error: /labelings: {MAX_FAMILY_ENTRIES + 1} entries exceed the cap of "
         f"{MAX_FAMILY_ENTRIES}\n"),
    )
    path = tmp_path / "family.json"
    for doc, error in cases:
        path.write_text(json.dumps(doc))
        code, out, err = _measure_in_process(path)
        if error is None:
            assert code == 0 and err == "" and json.loads(out)["blocks"]
        else:
            assert (code, out, err) == (1, "", error)


def test_measure_fuzz_base_document_is_ideal(tmp_path):
    # so unmodified nodes of the fuzzed documents reach the exit-0 branch
    path = tmp_path / "family.json"
    path.write_text(json.dumps(_VALID_FAMILY))
    code, out, err = _measure_in_process(path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"distinguished": "a", "blocks": [["a"], ["x"], ["y", "z"]]}


@settings(max_examples=150, deadline=None)
@given(data=family_files())
def test_measure_fuzz_never_tracebacks(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-family.json"
    path.write_bytes(data)
    code, out, err = _measure_in_process(path)
    # measure checks no numerical tolerance, so exit 2 would be a fault too
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and json.loads(out)["blocks"]
    else:
        assert out == "" and err.startswith("error: ")


def test_evolve_rejects_a_non_finite_time(workdir):
    _, write = workdir
    ham = write("h.json", "[[[1, 0]]]")
    state = write("psi.json", '{"vector": [[1, 0]]}')
    for t in ("inf", "nan", "-inf"):
        done = run_cli("evolve", "--hamiltonian", ham, "--state", state, f"--time={t}")
        assert done == (1, "", f"error: evolution time must be finite, got {t}\n")


def test_overflowing_inputs_exit_1_without_numpy_warnings(workdir):
    _, write = workdir
    ham = write("h.json", "[[[2, 0]]]")
    state = write("psi.json", '{"vector": [[1, 0]]}')
    huge = write("eig.json", json.dumps({"ambient_dim": 2, "pairs": [
        {"value": 0.5, "vector": [[1e160, 0], [0, 0]]},
        {"value": 1.5, "vector": [[0, 0], [0, 1]]},
    ]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        done = run_cli("evolve", "--hamiltonian", ham, "--state", state, "--time=1e308")
        assert done == (1, "", "error: evolution phase overflows at time 1e+308\n")
        done = run_cli("spec", "--operator", huge)
        assert done == (1, "", "error: /: eigenvectors are not orthonormal\n")
        skew = write("skew.json", "[[[1e308, 0], [1e308, 0]], [[-1e308, 0], [1, 0]]]")
        for argv in (("spec", "--operator", skew),
                     ("evolve", "--hamiltonian", skew, "--state", state, "--time=1")):
            done = run_cli(*argv)
            assert done == (1, "", "error: /: matrix is not Hermitian within tolerance\n")
        done = run_cli("uncertainty", "--dim", "5", "--alphas", "1e200,-1e200")
        assert done == (1, "", "error: variance of the state overflows\n")
        done = run_cli("uncertainty", "--dim", "5", "--alphas", "1e100,-1e100")
        assert done == (1, "", "error: product of the variances overflows\n")
        done = run_cli("uncertainty", "--dim", "5", "--alphas", "1e308,-1e308")
        assert done == (1, "", "error: eigenvalue spread 1e+308 - -1e+308 overflows\n")
        big = write("big.json", "[[[1e10, 0]]]")
        rho = write("rho.json", '{"matrix": [[[1, 0]]]}')
        poly = write("poly.json", '{"poly": [1e308, 1e308]}')
        done = run_cli("expect", "--observable", big, "--density", rho, "--function", poly)
        assert done == (1, "", "error: expectation value overflows\n")


def test_spec_of_a_huge_diagonal_matrix_exits_0_without_warnings(workdir):
    _, write = workdir
    huge = write("huge.json", "[[[1e300, 0], [0, 0]], [[0, 0], [1e299, 0]]]")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        done = run_cli("spec", "--operator", huge)
    assert (done.returncode, done.stderr, caught) == (0, "", [])
    values = [pair["value"] for pair in json.loads(done.stdout)["pairs"]]
    assert values == pytest.approx([1e299, 1e300], rel=1e-15)


def test_a_stored_subspace_whose_gram_overflows_is_recanonicalized(workdir):
    _, write = workdir
    big = write("big.json", '{"finite": [{"q0": [1e160, 0]}], "cofinite_excluding": null}')
    one = write("one.json", '{"finite": [{"q0": [1, 0]}], "cofinite_excluding": null}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        done = run_cli("lattice", "--op", "equal", "--a", big, "--b", one)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout) == {"equal": True}


def test_invalid_json_names_the_file(workdir):
    _, write = workdir
    bad = write("bad.json", "{")
    ham = write("h.json", "[[[1, 0]]]")
    for argv in (
        ("spec", "--operator", bad),
        ("evolve", "--hamiltonian", ham, "--state", bad, "--time", "1.0"),
    ):
        done = run_cli(*argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: /: invalid JSON in {bad}: ")


def test_cli_leaves_file_and_stdout_io_to_serial():
    # every input goes through serial.load_value and every output
    # through serial.write_text
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    banned = {"json.loads", "open", "serial.read_text", "sys.stdout.write"}
    called = {
        ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    assert not called & banned


# ---------------------------------------------------------------- process entry
#
# `python -m finobs`, `python -m finobs.cli` and the console script run
# `cli.run`: `cli.main`, then `gc.freeze()` before the interpreter exits.


@pytest.fixture
def exit_cases(workdir):
    _, write = workdir
    op = write("m.json", dumps_value("operator", np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)))
    b = write("b.json", dumps_value("operator", np.eye(3, dtype=complex)))
    ham = write("h.json", '{"ambient_dim": 2, "pairs": [{"value": 1.0, "vector": [[1, 0], [0, 0]]}]}')
    state = write("psi.json", '{"vector": [[0, 0], [1, 0]]}')
    return {
        0: ("spec", "--operator", op),
        1: ("concat", "--a", op, "--b", b),
        2: ("evolve", "--hamiltonian", ham, "--state", state, "--time", "1.0"),
    }


@pytest.mark.parametrize("code", [0, 1, 2])
def test_the_process_entry_matches_main_in_process(code, exit_cases):
    argv = exit_cases[code]
    in_process = run_cli(*argv)
    assert in_process.returncode == code
    done = run_module(*argv)
    assert Done(done.returncode, done.stdout, done.stderr) == in_process


def test_an_output_file_holds_the_bytes_stdout_would(exit_cases, tmp_path):
    out = tmp_path / "out.json"
    to_file = run_module(*exit_cases[0], "-o", str(out))
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, "", "")
    assert out.read_bytes() == run_module(*exit_cases[0]).stdout.encode("utf-8")


def test_main_in_process_freezes_nothing(exit_cases):
    before = gc.get_freeze_count()
    assert run_cli(*exit_cases[0]).returncode == 0
    assert gc.get_freeze_count() == before


def test_the_console_script_is_the_process_entry():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert '[project.scripts]\nfinobs = "finobs.cli:run"\n' in pyproject.read_text(encoding="utf-8")


@pytest.mark.parametrize("module", ["finobs", "finobs.cli"])
def test_atexit_callbacks_run_after_the_heap_is_frozen(module, exit_cases):
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "module, sys.argv = sys.argv[1], ['finobs', *sys.argv[2:]]\n"
        "runpy.run_module(module, run_name='__main__')\n"
    )
    done = subprocess.run([sys.executable, "-c", script, module, *exit_cases[0]],
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "frozen True\n")
    assert done.stdout == run_cli(*exit_cases[0]).stdout


_BROKEN_PIPE = (1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command, expected", [
    ("spec", _BROKEN_PIPE),
    ("verify", _BROKEN_PIPE),
    ("help", _BROKEN_PIPE),
])
def test_a_closed_stdout_ends_the_same_way_in_both_buffering_modes(
    unbuffered, command, expected, exit_cases
):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = {"spec": exit_cases[0], "verify": ("verify", "--suite", "serialization"),
            "help": ("spec", "--help")}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "finobs", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == expected


# ---------------------------------------------------------------- fuzz gate
#
# Every kind in serial._LOADERS is fuzzed through the subcommand that
# reads it: "@" marks the fuzzed file and "@kind" a base document of
# that kind.  No subcommand reads a partition, so it is loaded directly.

_BASE = {
    "operator": [[[2, 0], [1, -0.5]], [[1, 0.5], [-1, 0]]],
    "eigensystem": {
        "ambient_dim": 2,
        "pairs": [
            {"value": 0.5, "vector": [[1, 0], [0, 0]]},
            {"value": 1.5, "vector": [[0, 0], [0, 1]]},
        ],
    },
    "observable": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
    "state": {"vector": [[0.6, 0], [0, 0.8]]},
    "density": {"matrix": [[[0.25, 0], [0, 0]], [[0, 0], [0.75, 0]]]},
    "partition": {"distinguished": "a", "blocks": [["a", "z"], ["x"], ["y"]]},
    "fockvector": {"coeffs": [[1, 0], [0, 0], [2, 0]]},
    "fhoperator": {"support": ["d0"], "F": [[[0.5, 0]]], "tail": [0.25, 0], "symmetric": True},
    "subspace": {"finite": [{"p": [1, 0]}], "cofinite_excluding": None},
    "tensor": {"N": 2, "table": [[1, 0], [-1, 0], [-1, 0], [1, 0]]},
    "flips": {"pairs": [1]},
    "function": {"poly": [0.5, 1]},
    "family": _VALID_FAMILY,
}

_READERS = {
    "operator": ("concat", "--a", "@", "--b", "@operator"),
    "eigensystem": ("spec", "--operator", "@"),
    "observable": ("evolve", "--hamiltonian", "@", "--state", "@state", "--time", "0.5"),
    "state": ("evolve", "--hamiltonian", "@observable", "--state", "@", "--time", "0.5"),
    "density": ("compress", "--observable", "@observable", "--density", "@"),
    "partition": None,
    "fockvector": ("socks", "--support", "--vector", "@"),
    "fhoperator": ("fh", "--refute", "--operator", "@"),
    "subspace": ("lattice", "--op", "modular", "--a", "@", "--b", "@subspace", "--c", "@subspace"),
    "tensor": ("socks", "--inner", "--a", "@", "--b", "@tensor"),
    "flips": ("socks", "--flip", "@", "--vector", "@fockvector"),
    "function": ("expect", "--observable", "@observable", "--density", "@density",
                 "--function", "@"),
    "family": ("measure", "--family", "@"),
}

# the messages of the ToleranceError subclasses
_TOLERANCE_MESSAGE = re.compile(r"outside operator domain|out of tolerance|not invariant")


def _run_reader(kind, path, base_dir):
    argv = _READERS[kind]
    if argv is None:
        try:
            serial.load_value(kind, str(path))
        except ToleranceError as exc:
            return Done(2, "", f"error: {exc}\n")
        except (FinobsError, OSError) as exc:
            return Done(1, "", f"error: {exc}\n")
        return Done(0, "", "")
    return run_cli(*(
        str(path) if a == "@" else str(base_dir / f"{a[1:]}.json") if a.startswith("@") else a
        for a in argv
    ))


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("base")
    for kind, doc in _BASE.items():
        (directory / f"{kind}.json").write_text(json.dumps(doc))
    return directory


def test_fuzz_gate_covers_every_kind():
    assert set(_READERS) == set(_BASE) == set(serial._LOADERS)


@pytest.mark.parametrize("kind", sorted(_BASE))
def test_fuzz_base_documents_load(kind, base_dir):
    done = _run_reader(kind, base_dir / f"{kind}.json", base_dir)
    assert (done.returncode, done.stderr) == (0, "")


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _junk(doc):
    keys = {p[-1] for p in _paths(doc) if p and isinstance(p[-1], str)} | {"w"}
    return st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-3, 3),
            st.floats(),  # NaN and the infinities included
            st.sampled_from(["x", "y", "z", "a", "p", "d0", "0", "1", ""]),
        ),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.sampled_from(sorted(keys)), inner, max_size=3),
        ),
        max_leaves=8,
    )


def _fuzzed(doc):
    """A base document with one node replaced by junk, and maybe stray bytes."""

    @st.composite
    def documents(draw):
        path = draw(paths)
        data = json.dumps(_replace(json.loads(text), path, draw(junk))).encode()
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
        return data

    text = json.dumps(doc)
    paths = st.sampled_from(list(_paths(doc)))
    junk = _junk(doc)
    return documents()


_FUZZED = {kind: _fuzzed(doc) for kind, doc in _BASE.items()}


@pytest.mark.parametrize("kind", sorted(_BASE))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fuzz_every_kind_never_tracebacks(kind, base_dir, data):
    path = base_dir / f"fuzzed-{kind}.json"
    path.write_bytes(data.draw(_FUZZED[kind]))
    done = _run_reader(kind, path, base_dir)
    assert done.returncode in (0, 1, 2), done.stderr
    assert "Traceback" not in done.stderr
    if done.returncode == 2:
        assert _TOLERANCE_MESSAGE.search(done.stderr), done.stderr


# Every numeric leaf of every base document takes each value of
# _EXTREMES in turn: a deterministic sweep beside the random gate, for
# the overflow and underflow that a random draw reaches only by luck.
_EXTREMES = (1.3407807929942597e154, -1.3407807929942597e154, 1e200, 1e308, 5e-324, 1e-170)


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_NUMERIC_LEAVES = {
    kind: [p for p in _paths(doc) if type(_leaf(doc, p)) in (int, float)]
    for kind, doc in _BASE.items()
}


@pytest.mark.parametrize("kind", sorted(k for k, leaves in _NUMERIC_LEAVES.items() if leaves))
def test_extreme_numeric_leaves_exit_cleanly_without_warnings(kind, base_dir):
    path = base_dir / f"extreme-{kind}.json"
    for leaf in _NUMERIC_LEAVES[kind]:
        for value in _EXTREMES:
            path.write_text(json.dumps(_replace(json.loads(json.dumps(_BASE[kind])), leaf, value)))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                done = _run_reader(kind, path, base_dir)
            case = f"{leaf} = {value!r}"
            assert done.returncode in (0, 1, 2), f"{case}: {done.stderr}"
            assert not caught, f"{case}: {[str(w.message) for w in caught]}"
            if done.returncode == 2:
                assert _TOLERANCE_MESSAGE.search(done.stderr), f"{case}: {done.stderr}"


# Inputs with two or more huge entries, or a Hermitian matrix of them, which
# the single-leaf sweep above cannot reach: argv with "@name" for each file,
# the files, and the exit code.
_HUGE_PAIR = [[1e308, 0], [1e308, 0]]
_HUGE_TAIL = [1.3e308, 1.3e308]  # |tail| overflows though both parts are finite
_MULTI_LEAF_EXTREMES = {
    "concat-eigenvalue-overflow": (
        ("concat", "--a", "@f", "--b", "@f"), {"f": [_HUGE_PAIR, _HUGE_PAIR]}, 1),
    "fh-zero-sum-column-overflow": (
        ("fh", "--check-zero-sum", "--operator", "@f"),
        {"f": {"support": ["p", "q"], "F": [[[1e308, 0], [0, 0]], [[1e308, 0], [0, 0]]],
               "tail": [0, 0]}}, 0),
    "fh-zero-sum-tail-overflow": (
        ("fh", "--check-zero-sum", "--operator", "@f"),
        {"f": {"support": ["p"], "F": [[[0, 0]]], "tail": _HUGE_TAIL}}, 0),
    "fh-zero-sum-empty-block-tail-overflow": (
        ("fh", "--check-zero-sum", "--operator", "@f"),
        {"f": {"support": [], "F": [], "tail": _HUGE_TAIL}}, 0),
    "fh-refute-symmetric-tail-overflow": (
        ("fh", "--refute", "--operator", "@f"),
        {"f": {"support": [], "F": [], "tail": _HUGE_TAIL, "symmetric": True}}, 1),
    "fh-canonical-residual-overflow": (
        ("fh", "--canonical", "--operator", "@f"),
        {"f": {"support": ["p"], "F": [[[-1e308, 0]]], "tail": [1e308, 0]}}, 0),
    "fh-decompose-gap-overflow": (
        ("fh", "--decompose", "--matrix", "@f", "--atoms", "a,b,c"),
        {"f": [[[1e308, 0], [0, 0], [0, 0]], [[0, 0], [-1e308, 0], [0, 0]],
               [[0, 0], [0, 0], [-1e308, 0]]]}, 0),
    "socks-alternation-overflow": (
        ("socks", "--inner", "--a", "@t", "--b", "@t"), {"t": {"N": 1, "table": _HUGE_PAIR}}, 1),
    "socks-inner-overflow": (
        ("socks", "--inner", "--a", "@t", "--b", "@t"),
        {"t": {"N": 1, "table": [[1e308, 0], [-1e308, 0]]}}, 1),
}
# the stdout of the cases whose answer is checked as well
_MULTI_LEAF_ANSWERS = {"fh-zero-sum-empty-block-tail-overflow": {"zero_sum": True}}


@pytest.mark.parametrize("case", sorted(_MULTI_LEAF_EXTREMES))
def test_multi_leaf_extremes_exit_cleanly_without_warnings(case, tmp_path):
    argv, files, code = _MULTI_LEAF_EXTREMES[case]
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        done = run_cli(*(str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a
                         for a in argv))
    assert not caught, [str(w.message) for w in caught]
    assert done.returncode == code, done.stderr
    assert done.stderr.count("\n") == (code != 0) and "Traceback" not in done.stderr
    if case in _MULTI_LEAF_ANSWERS:
        assert json.loads(done.stdout) == _MULTI_LEAF_ANSWERS[case]


# A constructor's own check on a value a loader builds, with no deeper node
# to blame, names the document root.
@pytest.mark.parametrize("kind, argv, doc, message", [
    pytest.param("observable", ("spec", "--operator"), [[[1, 0], [1, 0]], [[0, 0], [1, 0]]],
                 "matrix is not Hermitian within tolerance", id="observable"),
    pytest.param("eigensystem", ("spec", "--operator"),
                 {"ambient_dim": 2, "pairs": [{"value": 1, "vector": [[1, 0], [0, 0]]},
                                              {"value": 2, "vector": [[1, 0], [0, 0]]}]},
                 "eigenvectors are not orthonormal", id="eigensystem"),
    pytest.param("fockvector", ("socks", "--support", "--vector"), {"coeffs": [[1, 0]] * 34},
                 "at most 33 components supported", id="fockvector"),
    pytest.param("subspace", ("lattice", "--op", "alpha", "--a"),
                 {"finite": [], "cofinite_excluding": ["p", "p"]},
                 "excluded atoms must be distinct", id="subspace"),
])
def test_a_failed_constructor_check_names_the_document_root(kind, argv, doc, message, workdir):
    _, write = workdir
    done = run_cli(*argv, write(f"{kind}.json", json.dumps(doc)))
    assert done == (1, "", f"error: /: {message}\n")
