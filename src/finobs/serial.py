"""Canonical JSON persistence for every value the tools exchange.

Complex numbers are two-element [re, im] arrays; floats are printed
with 17 significant digits so that save/load/save round-trips are byte
identical.  A complex scalar and a 1-D or 2-D complex array are nodes
of `dumps_canonical`, formatted from one `tolist()` pass into the bytes
of their pair lists.  Loaders validate shape before construction and
report failures with a JSON-pointer path (RFC 6901); a vector or matrix
of pairs is checked and converted in one pass, and only its first bad
entry gets a pointer; a constructor's own check names `/` or its node.

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
from itertools import chain
from json.encoder import encode_basestring_ascii

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
    if not math.isfinite(value):
        raise ValidationError("cannot serialize a non-finite number")
    # + 0.0 collapses negative zero; "-0" would reload as plain 0
    return format(value + 0.0, ".17g")


def _layout(items, indent, inline=False):
    """A list from its item texts: on one line when `inline` or when
    every item is a short single line, else one item per line."""
    if inline or all("\n" not in t and len(t) < 40 for t in items):
        return "[" + ", ".join(items) + "]"
    pad = "  " * (indent + 1)
    return "[\n" + ",\n".join(pad + t for t in items) + "\n" + "  " * indent + "]"


def _pair_texts(row):
    """The [re, im] texts of a list of Python complex numbers."""
    return [f"[{z.real + 0.0:.17g}, {z.imag + 0.0:.17g}]" for z in row]


def dumps_canonical(node, indent=0):
    """Serialize with deterministic layout and float formatting.

    A complex number is the pair [re, im], and a 1-D or 2-D complex
    array is the list (of rows) of such pairs.
    """
    if node is None:
        return "null"
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if isinstance(node, (bool, int, float)):
        return _format_number(node)
    if isinstance(node, complex):
        return f"[{_format_number(node.real)}, {_format_number(node.imag)}]"
    if isinstance(node, np.ndarray) and node.dtype == complex and node.ndim in (1, 2):
        if not np.isfinite(node).all():
            raise ValidationError("cannot serialize a non-finite number")
        if node.ndim == 1:
            return _layout(_pair_texts(node.tolist()), indent)
        rows = [_layout(_pair_texts(row), indent + 1) for row in node.tolist()]
        return _layout(rows, indent)
    if isinstance(node, (list, tuple)):
        items = [dumps_canonical(item, indent + 1) for item in node]
        inline = all(isinstance(i, (int, float, bool)) or i is None for i in node)
        return _layout(items, indent, inline)
    if isinstance(node, dict):
        if not node:
            return "{}"
        pad = "  " * (indent + 1)
        parts = [
            pad + encode_basestring_ascii(str(key)) + ": " + dumps_canonical(value, indent + 1)
            for key, value in node.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"
    raise ValidationError(f"cannot serialize object of type {type(node).__name__}")


def _pointer_key(key):
    """`key` as one JSON-pointer token (RFC 6901): ~ becomes ~0, / becomes ~1."""
    return str(key).replace("~", "~0").replace("/", "~1")


def _need(node, kind, ptr, what):
    if not isinstance(node, kind) or isinstance(node, bool):
        raise SchemaError(ptr, f"expected {what}")
    return node


def _as_count(node, ptr):
    if isinstance(node, bool) or not isinstance(node, int) or node < 0:
        raise SchemaError(ptr, "expected a nonnegative integer")
    return node


def _as_strings(node, ptr, what):
    """The list `node` (described as `what`) as a tuple of strings."""
    node = _need(node, list, ptr, what)
    return tuple(_need(x, str, f"{ptr}/{i}", "a string") for i, x in enumerate(node))


def _built(ptr, ctor, *args):
    """ctor(*args), a ValidationError that names no pointer re-raised as a SchemaError at `ptr`."""
    try:
        return ctor(*args)
    except SchemaError:
        raise
    except ValidationError as exc:
        raise SchemaError(ptr, str(exc)) from None


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


def _pairs_array(node, shape):
    """The [re, im] pairs `node` (a list, or a list of rows of `shape[1]`
    entries) as a complex array of `shape`, or None when some entry is
    not a pair of finite numbers or a row has another length."""
    entries = node
    if len(shape) == 2:
        if not all(isinstance(row, list) and len(row) == shape[1] for row in node):
            return None
        entries = [entry for row in node for entry in row]
    if not all(isinstance(entry, list) and len(entry) == 2 for entry in entries):
        return None
    for kind in set(map(type, chain.from_iterable(entries))):
        if issubclass(kind, bool) or not issubclass(kind, (int, float)):
            return None
    try:
        parts = np.array(node, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(parts).all():
        return None
    return parts.reshape(shape + (2,)).view(complex).reshape(shape)


def _as_vector(node, ptr, keys=None):
    """A list of [re, im] pairs as a complex vector; an error names the
    first bad entry by its index, or by its key in `keys`."""
    node = _need(node, list, ptr, "a list of [re, im] pairs")
    vector = _pairs_array(node, (len(node),))
    if vector is None:
        for key, entry in zip(keys or range(len(node)), node):  # raises at the first bad one
            _as_complex(entry, f"{ptr}/{_pointer_key(key)}")
    return vector


def _as_matrix(node, ptr):
    node = _need(node, list, ptr, "a list of rows")
    shape = (len(node), len(node[0]) if node and isinstance(node[0], list) else 0)
    matrix = _pairs_array(node, shape)
    if matrix is None:
        for i, row in enumerate(node):  # raises at the first bad row
            _as_vector(row, f"{ptr}/{i}")
        raise SchemaError(ptr, "rows have unequal lengths")
    return matrix


def _as_object(node, ptr, required, optional=()):
    node = _need(node, dict, ptr, "an object")
    for key in required:
        if key not in node:
            raise SchemaError(ptr, f"missing key {key!r}")
    for key in node:
        if key not in required and key not in optional:
            raise SchemaError(f"{ptr}/{_pointer_key(key)}", "unexpected key")
    return node


# ---------------------------------------------------------------- kinds


def load_matrix(node, ptr=""):
    m = _as_matrix(node, ptr)
    if m.ndim != 2 or (m.size and m.shape[0] != m.shape[1]):
        raise SchemaError(ptr, "expected a square matrix")
    return m


def save_matrix(m):
    return np.asarray(m, dtype=complex)


def load_eigensystem(node, ptr=""):
    from .finitary import from_eigenpairs

    node = _as_object(node, ptr, ("ambient_dim", "pairs"))
    dim = _as_count(node["ambient_dim"], f"{ptr}/ambient_dim")
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
            {"value": float(value), "vector": vector}
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
    return {"vector": np.asarray(psi, dtype=complex)}


def load_density(node, ptr=""):
    node = _as_object(node, ptr, ("matrix",))
    return load_matrix(node["matrix"], f"{ptr}/matrix")


def save_density(rho):
    return {"matrix": np.asarray(rho, dtype=complex)}


def load_partition(node, ptr=""):
    from .measurement import ObjectSet, PartitionPlus

    node = _as_object(node, ptr, ("distinguished", "blocks"))
    distinguished = _need(node["distinguished"], str, f"{ptr}/distinguished", "a string")
    blocks_node = _need(node["blocks"], list, f"{ptr}/blocks", "a list of blocks")
    blocks = []
    members = []
    for i, block in enumerate(blocks_node):
        items = _as_strings(block, f"{ptr}/blocks/{i}", "a list of ids")
        blocks.append(items)
        members.extend(items)
    elements = sorted(set(members) - {distinguished})
    objects = ObjectSet(tuple(elements), distinguished)
    return _built(f"{ptr}/blocks", PartitionPlus, objects, tuple(blocks))


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
    return {"coeffs": v.coeffs}


def load_tensor(node, ptr=""):
    from .socks import SignedTensor

    node = _as_object(node, ptr, ("N", "table"))
    n = _as_count(node["N"], f"{ptr}/N")
    table = _as_vector(node["table"], f"{ptr}/table")
    return _built(f"{ptr}/table", SignedTensor, n, table)


def save_tensor(t):
    return {"N": t.length, "table": t.table}


def load_flips(node, ptr=""):
    node = _as_object(node, ptr, ("pairs",))
    pairs_node = _need(node["pairs"], list, f"{ptr}/pairs", "a list of pair indices")
    return frozenset(_as_count(p, f"{ptr}/pairs/{i}") for i, p in enumerate(pairs_node))


def save_flips(pairs):
    return {"pairs": sorted(int(p) for p in pairs)}


def load_fhoperator(node, ptr=""):
    from .fhlogic import FHOperator

    node = _as_object(node, ptr, ("support", "F", "tail"), optional=("symmetric",))
    support = _as_strings(node["support"], f"{ptr}/support", "a list of atom ids")
    block = _as_matrix(node["F"], f"{ptr}/F")
    if block.shape != (len(support), len(support)) and len(support):
        raise SchemaError(f"{ptr}/F", f"expected a {len(support)}x{len(support)} matrix")
    tail = _as_complex(node["tail"], f"{ptr}/tail")
    symmetric = node.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise SchemaError(f"{ptr}/symmetric", "expected a boolean")
    return FHOperator(support, block, tail, symmetric)


def save_fhoperator(op):
    out = {
        "support": list(op.support),
        "F": op.block,
        "tail": op.tail,
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
        values = _as_vector(list(entry.values()), f"{ptr}/finite/{i}", keys=entry)
        vectors.append(FiniteSupportVector(dict(zip(entry, values.tolist()))))
    exclude = node["cofinite_excluding"]
    if exclude is not None:
        exclude = _as_strings(exclude, f"{ptr}/cofinite_excluding", "a list or null")
    # canonical input keeps its exact coordinates; anything else is
    # renormalized into canonical form
    direct = checked_subspace(vectors, exclude)
    if direct is not None:
        return direct
    return subspace(vectors, exclude=exclude)


def save_subspace(space):
    return {
        "finite": [
            {atom: complex(value) for atom, value in zip(space.window, row) if value != 0}
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
    elements = _as_strings(node["objects"], f"{ptr}/objects", "a list of ids")
    if len(elements) > MAX_FAMILY_OBJECTS:
        raise SchemaError(
            f"{ptr}/objects", f"{len(elements)} objects exceed the cap of {MAX_FAMILY_OBJECTS}"
        )
    distinguished = _need(node["distinguished"], str, f"{ptr}/distinguished", "a string")
    labels = _as_strings(node["labels"], f"{ptr}/labels", "a list of labels")
    objects = ObjectSet(elements, distinguished)
    label_set = LabelSet(labels)
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
        where = f"{ptr}/labelings/{i}"
        for x, y in entries.items():
            _need(y, str, f"{where}/entries/{_pointer_key(x)}", "a string")
        family.append(_built(where, PartialLabeling, objects, label_set, dict(entries)))
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
    return _built("", _LOADERS[kind], node)


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
