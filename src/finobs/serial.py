"""Canonical JSON persistence for every value the tools exchange.

Complex numbers are two-element [re, im] arrays; floats are printed
with 17 significant digits so that save/load/save round-trips are byte
identical.  Loaders validate shape before construction and report
failures with a JSON-pointer path.

Every input is a kind of `_LOADERS`, read by `loads_value(kind, text)`
or `load_value(kind, path)`, whose invalid-JSON error names the file.
`observable`, `function` and `family` are input only, with no saver.
`read_text` and `write_text` hold all of the command line's file I/O.
Each loader imports the module that builds its type, so loading one
kind does not import the whole library.
"""

import json
import math
import sys

import numpy as np

from .errors import SchemaError, ValidationError

# the largest `measure` input; a larger family is refused before any
# labeling is built
MAX_FAMILY_OBJECTS = 10_000
MAX_FAMILY_ENTRIES = 100_000  # summed over all labelings


def _format_number(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    value = float(x)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValidationError("cannot serialize a non-finite number")
    if value == 0.0:
        value = 0.0  # collapse negative zero; "-0" would reload as plain 0
    text = format(value, ".17g")
    return text


def dumps_canonical(node, indent=0):
    """Serialize with deterministic layout and float formatting."""
    pad = "  " * indent
    if node is None:
        return "null"
    if isinstance(node, str):
        return json.dumps(node)
    if isinstance(node, (bool, int, float)):
        return _format_number(node)
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        items = [dumps_canonical(item, indent + 1) for item in node]
        if all(isinstance(i, (int, float, bool)) or i is None for i in node) or all(
            "\n" not in t and len(t) < 40 for t in items
        ):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join("  " * (indent + 1) + t for t in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(node, dict):
        if not node:
            return "{}"
        parts = []
        for key, value in node.items():
            parts.append(
                "  " * (indent + 1)
                + json.dumps(str(key))
                + ": "
                + dumps_canonical(value, indent + 1)
            )
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize object of type {type(node).__name__}")


def _need(node, kind, ptr, what):
    if not isinstance(node, kind) or isinstance(node, bool):
        raise SchemaError(ptr, f"expected {what}")
    return node


def _as_number(node, ptr):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise SchemaError(ptr, "expected a number")
    try:
        value = float(node)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(ptr, "expected a finite number")
    return value


def _as_complex(node, ptr):
    node = _need(node, list, ptr, "a [re, im] pair")
    if len(node) != 2:
        raise SchemaError(ptr, f"expected [re, im], got {len(node)} entries")
    return complex(_as_number(node[0], f"{ptr}/0"), _as_number(node[1], f"{ptr}/1"))


def _complex_out(z):
    z = complex(z)
    return [z.real, z.imag]


def _as_vector(node, ptr):
    node = _need(node, list, ptr, "a list of [re, im] pairs")
    return np.array(
        [_as_complex(entry, f"{ptr}/{i}") for i, entry in enumerate(node)],
        dtype=complex,
    )


def _vector_out(v):
    return [_complex_out(z) for z in np.asarray(v, dtype=complex)]


def _as_matrix(node, ptr):
    node = _need(node, list, ptr, "a list of rows")
    rows = [_as_vector(row, f"{ptr}/{i}") for i, row in enumerate(node)]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise SchemaError(ptr, "rows have unequal lengths")
    return np.array(rows, dtype=complex) if rows else np.zeros((0, 0), dtype=complex)


def _matrix_out(m):
    return [_vector_out(row) for row in np.asarray(m, dtype=complex)]


def _as_object(node, ptr, required, optional=()):
    node = _need(node, dict, ptr, "an object")
    for key in required:
        if key not in node:
            raise SchemaError(ptr, f"missing key {key!r}")
    for key in node:
        if key not in required and key not in optional:
            raise SchemaError(f"{ptr}/{key}", "unexpected key")
    return node


# ---------------------------------------------------------------- kinds


def load_matrix(node, ptr=""):
    m = _as_matrix(node, ptr)
    if m.ndim != 2 or (m.size and m.shape[0] != m.shape[1]):
        raise SchemaError(ptr, "expected a square matrix")
    return m


def save_matrix(m):
    return _matrix_out(m)


def load_eigensystem(node, ptr=""):
    from .finitary import from_eigenpairs

    node = _as_object(node, ptr, ("ambient_dim", "pairs"))
    dim = node["ambient_dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise SchemaError(f"{ptr}/ambient_dim", "expected a nonnegative integer")
    pairs_node = _need(node["pairs"], list, f"{ptr}/pairs", "a list of pairs")
    pairs = []
    for i, entry in enumerate(pairs_node):
        entry = _as_object(entry, f"{ptr}/pairs/{i}", ("value", "vector"))
        value = _as_number(entry["value"], f"{ptr}/pairs/{i}/value")
        vector = _as_vector(entry["vector"], f"{ptr}/pairs/{i}/vector")
        if len(vector) != dim:
            raise SchemaError(
                f"{ptr}/pairs/{i}/vector", f"expected {dim} components, got {len(vector)}"
            )
        pairs.append((value, vector))
    return from_eigenpairs(pairs, dim)


def save_eigensystem(system):
    return {
        "ambient_dim": system.ambient_dim,
        "pairs": [
            {"value": float(value), "vector": _vector_out(vector)}
            for value, vector in zip(system.values, system.vectors)
        ],
    }


def load_observable(node, ptr=""):
    """A stored eigensystem, or a bare Hermitian matrix to diagonalize."""
    from .finitary import diagonalize

    if isinstance(node, dict):
        return load_eigensystem(node, ptr)
    return diagonalize(load_matrix(node, ptr))


def load_state(node, ptr=""):
    node = _as_object(node, ptr, ("vector",))
    return _as_vector(node["vector"], f"{ptr}/vector")


def save_state(psi):
    return {"vector": _vector_out(psi)}


def load_density(node, ptr=""):
    node = _as_object(node, ptr, ("matrix",))
    return load_matrix(node["matrix"], f"{ptr}/matrix")


def save_density(rho):
    return {"matrix": _matrix_out(rho)}


def load_partition(node, ptr=""):
    from .measurement import ObjectSet, PartitionPlus

    node = _as_object(node, ptr, ("distinguished", "blocks"))
    distinguished = _need(node["distinguished"], str, f"{ptr}/distinguished", "a string")
    blocks_node = _need(node["blocks"], list, f"{ptr}/blocks", "a list of blocks")
    blocks = []
    members = []
    for i, block in enumerate(blocks_node):
        block = _need(block, list, f"{ptr}/blocks/{i}", "a list of ids")
        items = tuple(
            _need(x, str, f"{ptr}/blocks/{i}/{j}", "a string") for j, x in enumerate(block)
        )
        blocks.append(items)
        members.extend(items)
    elements = sorted(set(members) - {distinguished})
    objects = ObjectSet(tuple(elements), distinguished)
    try:
        return PartitionPlus(objects, tuple(blocks))
    except ValidationError as exc:
        raise SchemaError(f"{ptr}/blocks", str(exc)) from None


def save_partition(partition):
    return {
        "distinguished": str(partition.objects.distinguished),
        "blocks": [[str(x) for x in block] for block in partition.blocks],
    }


def load_fockvector(node, ptr=""):
    from .socks import TruncatedFockVector

    node = _as_object(node, ptr, ("coeffs",))
    return TruncatedFockVector(_as_vector(node["coeffs"], f"{ptr}/coeffs"))


def save_fockvector(v):
    return {"coeffs": _vector_out(v.coeffs)}


def load_tensor(node, ptr=""):
    from .socks import SignedTensor

    node = _as_object(node, ptr, ("N", "table"))
    n = node["N"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise SchemaError(f"{ptr}/N", "expected a nonnegative integer")
    table = _as_vector(node["table"], f"{ptr}/table")
    try:
        return SignedTensor(n, table)
    except ValidationError as exc:
        raise SchemaError(f"{ptr}/table", str(exc)) from None


def save_tensor(t):
    return {"N": t.length, "table": _vector_out(t.table)}


def load_flips(node, ptr=""):
    node = _as_object(node, ptr, ("pairs",))
    pairs_node = _need(node["pairs"], list, f"{ptr}/pairs", "a list of pair indices")
    out = []
    for i, p in enumerate(pairs_node):
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise SchemaError(f"{ptr}/pairs/{i}", "expected a nonnegative integer")
        out.append(p)
    return frozenset(out)


def save_flips(pairs):
    return {"pairs": sorted(int(p) for p in pairs)}


def load_fhoperator(node, ptr=""):
    from .fhlogic import FHOperator

    node = _as_object(node, ptr, ("support", "F", "tail"), optional=("symmetric",))
    support_node = _need(node["support"], list, f"{ptr}/support", "a list of atom ids")
    support = tuple(
        _need(a, str, f"{ptr}/support/{i}", "a string") for i, a in enumerate(support_node)
    )
    block = _as_matrix(node["F"], f"{ptr}/F")
    if block.shape != (len(support), len(support)) and len(support):
        raise SchemaError(f"{ptr}/F", f"expected a {len(support)}x{len(support)} matrix")
    tail = _as_complex(node["tail"], f"{ptr}/tail")
    symmetric = node.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise SchemaError(f"{ptr}/symmetric", "expected a boolean")
    try:
        return FHOperator(support, block, tail, symmetric)
    except ValidationError as exc:
        raise SchemaError(ptr, str(exc)) from None


def save_fhoperator(op):
    out = {
        "support": list(op.support),
        "F": _matrix_out(op.block),
        "tail": _complex_out(op.tail),
    }
    if op.symmetric:
        out["symmetric"] = True
    return out


def load_subspace(node, ptr=""):
    from .fhlogic import FiniteSupportVector, checked_subspace, subspace

    node = _as_object(node, ptr, ("finite", "cofinite_excluding"))
    finite_node = _need(node["finite"], list, f"{ptr}/finite", "a list of vectors")
    vectors = []
    for i, entry in enumerate(finite_node):
        entry = _need(entry, dict, f"{ptr}/finite/{i}", "an atom-to-[re, im] object")
        vec = {}
        for atom, value in entry.items():
            vec[atom] = _as_complex(value, f"{ptr}/finite/{i}/{atom}")
        vectors.append(FiniteSupportVector(vec))
    excl_node = node["cofinite_excluding"]
    if excl_node is None:
        exclude = None
    else:
        excl_node = _need(excl_node, list, f"{ptr}/cofinite_excluding", "a list or null")
        exclude = [
            _need(a, str, f"{ptr}/cofinite_excluding/{i}", "a string")
            for i, a in enumerate(excl_node)
        ]
    # canonical input keeps its exact coordinates; anything else is
    # renormalized into canonical form
    direct = checked_subspace(vectors, exclude)
    if direct is not None:
        return direct
    return subspace(vectors, exclude=exclude)


def save_subspace(space):
    return {
        "finite": [
            {atom: _complex_out(value) for atom, value in zip(space.window, row) if value != 0}
            for row in space.rows.tolist()
        ],
        "cofinite_excluding": list(space.exclude) if space.exclude is not None else None,
    }


def load_function(node, ptr=""):
    """Real function given as polynomial coefficients or sample points."""
    from .finitary import Polynomial, table_function

    node = _need(node, dict, ptr, "an object with 'poly' or 'points'")
    if "poly" in node and "points" in node:
        raise SchemaError(ptr, "give either 'poly' or 'points', not both")
    if "poly" in node:
        coeffs = _need(node["poly"], list, f"{ptr}/poly", "a coefficient list")
        values = [_as_number(c, f"{ptr}/poly/{i}") for i, c in enumerate(coeffs)]
        return Polynomial(tuple(values))
    if "points" in node:
        pts = _need(node["points"], list, f"{ptr}/points", "a list of [x, fx] pairs")
        table = {}
        for i, pair in enumerate(pts):
            pair = _need(pair, list, f"{ptr}/points/{i}", "an [x, fx] pair")
            if len(pair) != 2:
                raise SchemaError(f"{ptr}/points/{i}", "expected [x, fx]")
            x = _as_number(pair[0], f"{ptr}/points/{i}/0")
            fx = _as_number(pair[1], f"{ptr}/points/{i}/1")
            table[x] = fx
        return table_function(table)
    raise SchemaError(ptr, "expected 'poly' or 'points'")


def load_labeling_family(node, ptr=""):
    """Inputs for the measure tool: object set, labels, labelings."""
    from .measurement import LabelSet, ObjectSet, PartialLabeling

    node = _as_object(node, ptr, ("objects", "distinguished", "labels", "labelings"))
    objects_node = _need(node["objects"], list, f"{ptr}/objects", "a list of ids")
    if len(objects_node) > MAX_FAMILY_OBJECTS:
        raise SchemaError(
            f"{ptr}/objects", f"{len(objects_node)} objects exceed the cap of {MAX_FAMILY_OBJECTS}"
        )
    elements = tuple(
        _need(x, str, f"{ptr}/objects/{i}", "a string") for i, x in enumerate(objects_node)
    )
    distinguished = _need(node["distinguished"], str, f"{ptr}/distinguished", "a string")
    labels_node = _need(node["labels"], list, f"{ptr}/labels", "a list of labels")
    labels = tuple(
        _need(y, str, f"{ptr}/labels/{i}", "a string") for i, y in enumerate(labels_node)
    )
    try:
        objects = ObjectSet(elements, distinguished)
        label_set = LabelSet(labels)
    except ValidationError as exc:
        raise SchemaError(ptr, str(exc)) from None
    labelings_node = _need(node["labelings"], list, f"{ptr}/labelings", "a list")
    tables = []
    for i, entry in enumerate(labelings_node):
        entry = _as_object(entry, f"{ptr}/labelings/{i}", ("entries",))
        tables.append(_need(entry["entries"], dict, f"{ptr}/labelings/{i}/entries", "an object"))
    count = sum(map(len, tables))
    if count > MAX_FAMILY_ENTRIES:
        raise SchemaError(
            f"{ptr}/labelings", f"{count} entries exceed the cap of {MAX_FAMILY_ENTRIES}"
        )
    family = []
    for i, entries in enumerate(tables):
        for x, y in entries.items():
            _need(y, str, f"{ptr}/labelings/{i}/entries/{x}", "a string")
        try:
            family.append(PartialLabeling(objects, label_set, dict(entries)))
        except ValidationError as exc:
            raise SchemaError(f"{ptr}/labelings/{i}", str(exc)) from None
    return objects, label_set, family


_LOADERS = {
    "operator": load_matrix,
    "eigensystem": load_eigensystem,
    "observable": load_observable,
    "state": load_state,
    "density": load_density,
    "partition": load_partition,
    "fockvector": load_fockvector,
    "fhoperator": load_fhoperator,
    "subspace": load_subspace,
    "tensor": load_tensor,
    "flips": load_flips,
    "function": load_function,
    "family": load_labeling_family,
}

_SAVERS = {
    "operator": save_matrix,
    "eigensystem": save_eigensystem,
    "state": save_state,
    "density": save_density,
    "partition": save_partition,
    "fockvector": save_fockvector,
    "fhoperator": save_fhoperator,
    "subspace": save_subspace,
    "tensor": save_tensor,
    "flips": save_flips,
}


def loads_value(kind, text, *, _path=None):
    """A value of `kind` from JSON `text`; `load_value` passes `_path` so
    that an invalid-JSON error names the file."""
    if kind not in _LOADERS:
        raise ValidationError(f"unknown kind {kind!r}")
    try:
        node = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        where = "" if _path is None else f" in {_path}"
        raise SchemaError("", f"invalid JSON{where}: {exc}") from None
    return _LOADERS[kind](node)


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"{path} is not valid UTF-8") from None


def write_text(text, path):
    """Write `text` to the file at `path`, or to stdout when `path` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_value(kind, path):
    return loads_value(kind, read_text(path), _path=path)


def dumps_value(kind, value):
    if kind not in _SAVERS:
        raise ValidationError(f"unknown kind {kind!r}")
    return dumps_canonical(_SAVERS[kind](value)) + "\n"


def save_value(kind, value, path=None):
    text = dumps_value(kind, value)
    write_text(text, path)
    return text
