"""JSON persistence: canonical output bytes and pointer-tagged errors."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finobs import finitary
from finobs.errors import SchemaError, ToleranceError, ValidationError
from finobs.fhlogic import FHOperator, subspace
from finobs.finitary import diagonalize, from_eigenpairs
from finobs.measurement import ObjectSet, PartitionPlus
from finobs.serial import (
    dumps_canonical,
    dumps_value,
    load_function,
    load_labeling_family,
    load_value,
    loads_value,
    write_text,
)
from finobs.socks import TruncatedFockVector, generator_tensor


def test_floats_print_with_17_significant_digits():
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical(1.0) == "1"
    assert dumps_canonical(2) == "2"
    assert dumps_canonical(True) == "true"


def test_negative_zero_collapses():
    assert dumps_canonical(-0.0) == "0"
    text = dumps_value("state", np.array([1.0, -0.0 + 0.0j]))
    assert "-0" not in text
    assert text == dumps_value("state", loads_value("state", text))


def test_non_finite_numbers_are_rejected():
    with pytest.raises(ValidationError):
        dumps_canonical(float("nan"))
    with pytest.raises(ValidationError):
        dumps_canonical(float("inf"))


def test_canonical_layout_snapshot():
    text = dumps_value("state", np.array([1.0, -0.5j]))
    assert text == '{\n  "vector": [[1, 0], [0, -0.5]]\n}\n'


# The pair-list encoder that complex arrays went through before they were
# nodes of `dumps_canonical`: the reference for their bytes.
def _complex_out(z):
    z = complex(z)
    return [z.real, z.imag]


def _vector_out(v):
    return [_complex_out(z) for z in np.asarray(v, dtype=complex)]


def _matrix_out(m):
    return [_vector_out(row) for row in np.asarray(m, dtype=complex)]


# extremes, integer-valued floats and full 17-digit values; small ones
# keep a row under the 40-character inline limit, long ones push it over
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 5e-324, -5e-324, 1e308, -1e308]),
    st.integers(-(10**17), 10**17).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ENTRIES = st.builds(complex, _PARTS, _PARTS)


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRIES, max_size=8))
@example([])
@example([complex(-0.0, -0.0), complex(5e-324, -1e308)])
def test_complex_vectors_dump_the_pair_list_bytes_and_load_back_bitwise(entries):
    v = np.array(entries, dtype=complex)
    text = dumps_value("state", v)
    assert text == dumps_canonical({"vector": _vector_out(v)}) + "\n"
    # dumping collapses negative zero, and .17g round-trips every other double
    assert _bits(loads_value("state", text)) == _bits(v + 0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.lists(_ENTRIES, min_size=16, max_size=16))
@example(0, 0, [0j] * 16)
@example(1, 0, [0j] * 16)
@example(2, 2, [complex(1.0, -0.0)] * 16)
def test_complex_matrices_dump_the_pair_list_bytes_and_load_back_bitwise(rows, cols, entries):
    m = np.array(entries[: rows * cols], dtype=complex).reshape(rows, cols)
    for kind, wrap in (("operator", lambda x: x), ("density", lambda x: {"matrix": x})):
        text = dumps_value(kind, m)
        assert text == dumps_canonical(wrap(_matrix_out(m))) + "\n"
        if rows == cols or rows and not cols:  # what a matrix loader accepts
            assert _bits(loads_value(kind, text)) == _bits(m + 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)])
@pytest.mark.parametrize("kind,shape", [("state", (3,)), ("operator", (2, 2)), ("density", (1, 1))])
def test_non_finite_arrays_are_rejected(kind, shape, bad):
    a = np.zeros(shape, dtype=complex)
    a.flat[-1] = bad
    with pytest.raises(ValidationError, match="^cannot serialize a non-finite number$"):
        dumps_value(kind, a)
    with pytest.raises(ValidationError, match="^cannot serialize a non-finite number$"):
        dumps_canonical(complex(bad))


ROUNDTRIP_CASES = [
    ("operator", np.array([[2.0, 1.0 + 0.5j], [1.0 - 0.5j, 3.0]])),
    ("eigensystem", diagonalize(np.array([[2.0, 1.0], [1.0, 2.0]]))),
    ("eigensystem", from_eigenpairs([(1.5, np.array([0.0, 1.0, 0.0]))], 3)),
    ("state", np.array([0.6, 0.8j])),
    ("density", np.diag([0.25, 0.75]).astype(complex)),
    (
        "partition",
        PartitionPlus(ObjectSet(("x", "y"), "a"), (("a", "y"), ("x",))),
    ),
    ("fockvector", TruncatedFockVector([1.0, -0.5j, 1.0 / 3.0])),
    ("tensor", generator_tensor(3)),
    ("flips", frozenset({4, 0, 2})),
    (
        "fhoperator",
        FHOperator(("p", "q"), np.array([[1.0, 2.0], [2.0, 1.0]]), 0.5, symmetric=True),
    ),
    ("subspace", subspace([{"p": 1.0}], exclude=["p", "q", "r"])),
    ("subspace", subspace([{"p": 1 / np.sqrt(2), "q": 1 / np.sqrt(2)}])),
]


@pytest.mark.parametrize("kind,value", ROUNDTRIP_CASES, ids=lambda v: str(v)[:24])
def test_save_load_save_is_byte_stable(kind, value):
    first = dumps_value(kind, value)
    second = dumps_value(kind, loads_value(kind, first))
    assert first == second


def test_eigensystem_loader_restores_canonical_order():
    text = (
        '{"ambient_dim": 2, "pairs": ['
        '{"value": 3.0, "vector": [[0, 0], [1, 0]]},'
        '{"value": 1.0, "vector": [[1, 0], [0, 0]]}]}'
    )
    system = loads_value("eigensystem", text)
    assert list(system.values) == [1.0, 3.0]


@pytest.mark.parametrize("dim", [1, np.int64(1), np.uint8(1), True, 1.0, np.float64(1.0), "1"],
                         ids=repr)
def test_an_eigensystem_dimension_round_trips_or_is_refused(dim):
    try:
        system = finitary.EigenSystem(dim, [2.0], [[1.0]])
    except ValidationError as exc:
        assert not isinstance(dim, (int, np.integer)) or isinstance(dim, bool)
        assert str(exc).startswith("ambient_dim must be an integer")
        return
    text = dumps_value("eigensystem", system)
    assert type(system.ambient_dim) is int and '"ambient_dim": 1,' in text
    assert dumps_value("eigensystem", loads_value("eigensystem", text)) == text


@pytest.mark.parametrize(
    "kind,text,pointer",
    [
        ("state", "{}", "/"),
        ("state", '{"vector": [1]}', "/vector/0"),
        ("state", '{"vector": [[1, 0], [true, 0]]}', "/vector/1/0"),
        ("operator", "[[[1, false]]]", "/0/0/1"),
        ("state", '{"vector": [], "extra": 1}', "/extra"),
        ("state", '{"vector": [], "a/b~": 1}', "/a~1b~0"),
        ("state", "not json", "/"),
        ("operator", "[[[1, 0]], [[1, 0], [0, 0]]]", "/"),
        ("operator", "[[[1, 0], [0, 0]]]", "/"),
        (
            "eigensystem",
            '{"ambient_dim": 2, "pairs": [{"value": 1, "vector": [[1, 0]]}]}',
            "/pairs/0/vector",
        ),
        ("eigensystem", '{"ambient_dim": -1, "pairs": []}', "/ambient_dim"),
        (
            "partition",
            '{"distinguished": "a", "blocks": [["a", "x"], ["x"]]}',
            "/blocks",
        ),
        ("fhoperator", '{"support": [], "F": [], "tail": [0, 0], "symmetric": 3}', "/symmetric"),
        ("fhoperator", '{"support": ["p"], "F": [[[1, 0]]], "tail": 7}', "/tail"),
        ("subspace", '{"finite": [3], "cofinite_excluding": null}', "/finite/0"),
        (
            "family",
            '{"objects": ["x/y"], "distinguished": "a", "labels": ["lo"],'
            ' "labelings": [{"entries": {"x/y": 3}}]}',
            "/labelings/0/entries/x~1y",
        ),
        ("flips", '{"pairs": [-1]}', "/pairs/0"),
        ("tensor", '{"N": 1, "table": [[1, 0], [1, 0]]}', "/table"),
    ],
)
def test_schema_errors_carry_json_pointers(kind, text, pointer):
    with pytest.raises(SchemaError) as info:
        loads_value(kind, text)
    assert info.value.pointer == pointer


NON_FINITE_CASES = [
    ("operator", "[[[1, 0], [0, 0]], [[0, 0], [X, 0]]]", "/1/1/0"),
    ("eigensystem", '{"ambient_dim": 1, "pairs": [{"value": X, "vector": [[1, 0]]}]}',
     "/pairs/0/value"),
    ("eigensystem", '{"ambient_dim": 1, "pairs": [{"value": 1, "vector": [[1, X]]}]}',
     "/pairs/0/vector/0/1"),
    ("state", '{"vector": [[1, 0], [X, 0]]}', "/vector/1/0"),
    ("density", '{"matrix": [[[X, 0]]]}', "/matrix/0/0/0"),
    ("fockvector", '{"coeffs": [[1, 0], [0, X]]}', "/coeffs/1/1"),
    ("fhoperator", '{"support": ["p"], "F": [[[1, 0]]], "tail": [X, 0]}', "/tail/0"),
    ("subspace", '{"finite": [{"p": [X, 0]}], "cofinite_excluding": null}', "/finite/0/p/0"),
    # RFC 6901: a key's "/" is escaped as "~1" and its "~" as "~0"
    ("subspace", '{"finite": [{"a/b": [X, 0]}], "cofinite_excluding": null}',
     "/finite/0/a~1b/0"),
    ("subspace", '{"finite": [{"x~1": [0, X]}], "cofinite_excluding": null}',
     "/finite/0/x~01/1"),
    ("tensor", '{"N": 1, "table": [[1, 0], [-1, X]]}', "/table/1/1"),
]


@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400], ids=["nan", "inf", "-inf", "1e400"]
)
@pytest.mark.parametrize(
    "kind,template,pointer", NON_FINITE_CASES, ids=[c[2] for c in NON_FINITE_CASES]
)
def test_non_finite_input_numbers_are_rejected_with_pointers(kind, template, pointer, token):
    with pytest.raises(SchemaError) as info:
        loads_value(kind, template.replace("X", token))
    assert info.value.pointer == pointer
    assert str(info.value) == f"{pointer}: expected a finite number"


def test_load_function_rejects_non_finite_coefficients():
    for node, pointer in (
        ({"poly": [1.0, float("nan")]}, "/poly/1"),
        ({"points": [[0.0, float("inf")]]}, "/points/0/1"),
    ):
        with pytest.raises(SchemaError) as info:
            load_function(node)
        assert info.value.pointer == pointer


def test_unknown_kind():
    with pytest.raises(ValidationError):
        loads_value("widget", "{}")
    with pytest.raises(ValidationError):
        dumps_value("widget", None)


def test_load_function_polynomial_and_points():
    poly = load_function({"poly": [1.0, 0.0, 2.0]})
    assert poly(3.0) == 19.0
    table = load_function({"points": [[0.0, 7.0], [1.0, 9.0]]})
    assert table(1.0) == 9.0
    with pytest.raises(ValidationError):
        table(0.5)
    with pytest.raises(SchemaError):
        load_function({"poly": [1.0], "points": []})
    with pytest.raises(SchemaError):
        load_function({})


def test_a_loader_names_the_root_for_a_failed_constructor_check(monkeypatch):
    with pytest.raises(SchemaError) as info:
        loads_value("observable", "[[[1, 0], [1, 0]], [[0, 0], [1, 0]]]")
    assert str(info.value) == "/: matrix is not Hermitian within tolerance"
    # a deeper node keeps its own pointer
    with pytest.raises(SchemaError) as info:
        loads_value("partition", '{"distinguished": "a", "blocks": [["a", "x"], ["x"]]}')
    assert str(info.value) == "/blocks: blocks overlap"

    # a tolerance failure is no schema problem, and keeps its type
    def fails(m):
        raise ToleranceError("eigen residual out of tolerance")

    monkeypatch.setattr(finitary, "diagonalize", fails)
    with pytest.raises(ToleranceError) as info:
        loads_value("observable", "[[[1, 0]]]")
    assert type(info.value) is ToleranceError


def test_load_labeling_family():
    node = {
        "objects": ["x", "y"],
        "distinguished": "a",
        "labels": ["lo", "hi"],
        "labelings": [{"entries": {"x": "lo", "y": "hi"}}],
    }
    objects, labels, family = load_labeling_family(node)
    assert objects.elements == ("x", "y")
    assert labels.values == ("lo", "hi")
    assert family[0].as_dict() == {"x": "lo", "y": "hi"}
    node["labelings"].append({"entries": {"w": "lo"}})
    with pytest.raises(SchemaError) as info:
        load_labeling_family(node)
    assert info.value.pointer == "/labelings/1"
    node["labelings"][1] = {"entries": {"x": "lo", "y": ["hi"]}}
    with pytest.raises(SchemaError) as info:
        load_labeling_family(node)
    assert info.value.pointer == "/labelings/1/entries/y"


def test_subspace_loader_keeps_canonical_floats():
    space = subspace(
        [{"p": 1 / np.sqrt(2), "q": 1 / np.sqrt(2)}], exclude=["p", "q", "r"]
    )
    first = dumps_value("subspace", space)
    reloaded = loads_value("subspace", first)
    assert dumps_value("subspace", reloaded) == first
    # the loaded coordinates are the stored ones, not re-orthonormalized
    assert reloaded.finite[0].entries == space.finite[0].entries


def test_observable_is_an_eigensystem_or_a_matrix_to_diagonalize():
    matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
    from_matrix = loads_value("observable", dumps_value("operator", matrix))
    stored = dumps_value("eigensystem", diagonalize(matrix))
    assert dumps_value("eigensystem", from_matrix) == stored
    partial = from_eigenpairs([(1.5, np.array([0.0, 1.0]))], 2)
    from_dict = loads_value("observable", dumps_value("eigensystem", partial))
    assert dumps_value("eigensystem", from_dict) == dumps_value("eigensystem", partial)


def test_input_only_kinds_load_but_have_no_saver():
    assert loads_value("function", '{"poly": [1, 2]}')(3.0) == 7.0
    objects, _, family = loads_value(
        "family",
        '{"objects": ["x"], "distinguished": "a", "labels": ["0"],'
        ' "labelings": [{"entries": {"x": "0"}}]}',
    )
    assert objects.elements == ("x",) and len(family) == 1
    for kind in ("observable", "function", "family"):
        with pytest.raises(ValidationError, match="unknown kind"):
            dumps_value(kind, None)


def test_invalid_json_names_the_file_it_came_from(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"^/: invalid JSON: "):
        loads_value("state", "{")
    with pytest.raises(SchemaError, match=rf"^/: invalid JSON in {re.escape(str(path))}: "):
        load_value("state", str(path))


def test_write_text_goes_to_the_file_or_stdout(tmp_path, capsys):
    path = tmp_path / "out.json"
    text = dumps_value("state", np.array([0.6, 0.8j]))
    write_text(text, str(path))
    assert path.read_text(encoding="utf-8") == text
    assert capsys.readouterr().out == ""
    write_text(text, None)
    assert capsys.readouterr().out == text
