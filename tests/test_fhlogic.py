"""Finite-block operators, probe recovery, and the symbolic subspace class."""

import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finobs import numeric
from finobs.errors import Inconsistent, NotEquivariant, ValidationError
from finobs.fhlogic import (
    FHOperator,
    FiniteSupportVector,
    SymbolicSubspace,
    canonicalize,
    checked_subspace,
    decompose_equivariant,
    fh_apply,
    fh_to_matrix,
    is_orthogonal,
    modularity_check,
    refute_density,
    represent_functional,
    subspace,
    subspace_equal,
    subspace_join,
    subspace_meet,
    two_valued_state,
    zero_sum_compatible,
)
from finobs.serial import dumps_canonical, dumps_value, loads_value

WINDOW = ["n0", "n1", "n2", "n3", "n4"]


def vec(**entries):
    return FiniteSupportVector({k: complex(v) for k, v in entries.items()})


def test_finite_support_vector_canonical_form():
    v = FiniteSupportVector({"q": 2.0, "p": 1.0 + 1.0j, "r": 0.0})
    assert v.support() == ("p", "q")  # zero entries are pruned, atoms sorted
    assert v.norm() == pytest.approx(np.sqrt(6.0))
    w = FiniteSupportVector({"p": 2.0})
    assert v.inner(w) == 2.0 * np.conj(1.0 + 1.0j)
    with pytest.raises(ValidationError):
        FiniteSupportVector([("p", 1.0), ("p", 2.0)])
    with pytest.raises(ValidationError):
        FiniteSupportVector({3: 1.0})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_finite_support_vector_rejects_non_finite_coordinates(value):
    with pytest.raises(ValidationError, match="non-finite coordinate"):
        FiniteSupportVector({"q0": value})


def test_non_finite_vector_is_not_orthogonal_to_anything():
    # a NaN overlap would pass the `> tol` test and report orthogonality;
    # the stored layout is built directly, past the constructors' checks
    nan_space = SymbolicSubspace(("q0",), np.array([[np.nan]]))
    assert is_orthogonal(nan_space, subspace([vec(q0=1.0)])) is False


def test_subspace_of_a_non_finite_vector_fails_validation():
    # refused before the SVD, which would raise a bare LinAlgError
    with pytest.raises(ValidationError, match="non-finite coordinate"):
        subspace([{"q0": np.nan}])


def test_fh_operator_validation():
    with pytest.raises(ValidationError):
        FHOperator(("q", "p"), np.eye(2), 0.0)
    with pytest.raises(ValidationError):
        FHOperator(("p",), np.eye(2), 0.0)
    with pytest.raises(ValidationError):
        FHOperator(("p", "q"), np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, symmetric=True)
    with pytest.raises(ValidationError):
        FHOperator((), np.zeros((0, 0)), 1.0j, symmetric=True)


def test_fh_apply_block_and_tail():
    op = FHOperator(("p", "q"), np.array([[1.0, 2.0], [3.0, 4.0]]), 7.0)
    image = fh_apply(op, vec(p=1.0, r=1.0))
    assert image.as_dict() == {"p": 1.0, "q": 3.0, "r": 7.0}
    # a tail of zero annihilates everything off the support
    flat = FHOperator(("p",), np.array([[2.0]]), 0.0)
    assert fh_apply(flat, vec(r=5.0)).as_dict() == {}


def test_canonicalize_drops_tail_patterned_atoms():
    block = np.array([[2.0, 0.0], [0.0, 7.0]])
    op = FHOperator(("p", "q"), block, 7.0, symmetric=True)
    small = canonicalize(op)
    assert small.support == ("p",)
    assert small.block[0, 0] == 2.0 and small.tail == 7.0
    near = FHOperator(("p",), np.array([[7.0 + 1e-12]]), 7.0)
    assert canonicalize(near, tol=1e-10).support == ()


def test_zero_sum_compatibility_and_preservation():
    good = FHOperator(("p", "q"), np.array([[1.0, 3.0], [4.0, 2.0]]), 5.0)
    assert zero_sum_compatible(good)  # both columns sum to the tail
    bad = FHOperator(("p", "q"), np.array([[1.0, 3.0], [4.0, 2.5]]), 5.0)
    assert not zero_sum_compatible(bad)
    assert zero_sum_compatible(FHOperator((), np.zeros((0, 0)), 3.0))
    # compatible operators keep coordinate sums at zero
    probe = vec(p=1.0, z=-1.0)
    image = fh_apply(good, probe)
    assert sum(image.as_dict().values()) == pytest.approx(0.0)


def test_fh_to_matrix_window():
    op = FHOperator(("p",), np.array([[2.0]]), 9.0)
    m = fh_to_matrix(op, ["o", "p", "q"])
    assert np.array_equal(m, np.diag([9.0, 2.0, 9.0]).astype(complex))
    with pytest.raises(ValidationError):
        fh_to_matrix(op, ["o", "q"])
    with pytest.raises(ValidationError):
        fh_to_matrix(op, ["p", "p", "q"])


def test_decompose_equivariant_roundtrip_is_exact():
    block = np.array([[2.0, 1.0 + 0.5j], [1.0 - 0.5j, 3.0]])
    op = FHOperator(("m0", "m1"), block, 5.0, symmetric=True)
    atoms = ["m0", "m1", "t0", "t1", "t2"]
    back = decompose_equivariant(fh_to_matrix(op, atoms), atoms)
    assert back.support == op.support
    assert np.array_equal(back.block, op.block)
    assert back.tail == op.tail
    assert back.symmetric


def test_decompose_detects_symmetry_from_the_matrix():
    op = FHOperator(("m0", "m1"), np.array([[2.0, 1.0j], [0.0, 3.0]]), 5.0)
    atoms = ["m0", "m1", "t0", "t1", "t2"]
    back = decompose_equivariant(fh_to_matrix(op, atoms), atoms)
    assert not back.symmetric
    assert np.array_equal(back.block, op.block)


def test_decompose_rejects_matrices_without_a_tail():
    with pytest.raises(NotEquivariant):
        decompose_equivariant(np.diag([1.0, 2.0, 3.0]), ["a", "b", "c"])
    with pytest.raises(NotEquivariant):
        decompose_equivariant(np.ones((3, 3)), ["a", "b", "c"])
    with pytest.raises(ValidationError):
        decompose_equivariant(np.eye(2), ["a", "b"])
    # a NaN tail entry is rejected up front, not left to the tail search
    with pytest.raises(ValidationError, match="entries must be finite"):
        decompose_equivariant(np.diag([1.0, 1.0, np.nan]), ["a", "b", "c"])


def test_decompose_rejects_a_tail_cluster_wider_than_tol():
    # gaps of 0.9 tol join b, c and d into one cluster, but b and d are
    # 1.8 tol apart, so swapping them moves the matrix
    tol = numeric.EQUIVARIANT
    matrix = np.diag([5.0, 0.0, 0.9 * tol, 1.8 * tol])
    with pytest.raises(NotEquivariant, match="transposition of atoms 'b', 'd' moves the matrix"):
        decompose_equivariant(matrix, ["a", "b", "c", "d"])


def linear_samples(weights, window):
    g = {a: complex(weights.get(a, 0.0)) for a in window}
    return {
        (a, b): g[a] - g[b]
        for i, a in enumerate(window)
        for b in window[i + 1 :]
    }


def test_represent_functional_recovers_weights():
    samples = linear_samples({"n1": 2.0, "n3": -1.5}, WINDOW)
    support, weights = represent_functional(samples, WINDOW)
    assert support == ("n1", "n3")
    assert weights == {"n1": 2.0, "n3": -1.5}


def test_represent_functional_error_cases():
    samples = linear_samples({}, WINDOW)
    samples[("n0", "n1")] = 5.0  # contradicts every other probe of n1
    with pytest.raises(Inconsistent):
        represent_functional(samples, WINDOW)
    partial = linear_samples({"n1": 1.0}, WINDOW)
    del partial[("n0", "n1")]
    with pytest.raises(ValidationError):
        represent_functional(partial, WINDOW)
    with pytest.raises(Inconsistent):
        represent_functional({}, ["n0", "n1"])
    # the probe checks would also fail on a NaN, but as Inconsistent
    nan_probe = linear_samples({}, WINDOW)
    nan_probe[("n0", "n1")] = complex(np.nan, 0.0)
    with pytest.raises(ValidationError, match="samples must be finite"):
        represent_functional(nan_probe, WINDOW)


def test_subspace_normalizes_finite_spans():
    s = subspace([vec(x=2.0)])
    assert s.exclude is None
    assert len(s.finite) == 1
    assert abs(abs(s.finite[0].as_dict()["x"]) - 1.0) < 1e-12


def test_subspace_releases_contained_exclusions():
    s = subspace([vec(p=1.0)], exclude=["p", "q"])
    assert s.exclude == ("q",)
    assert s.finite == ()


def test_checked_subspace_accepts_only_canonical_data():
    ok = checked_subspace([vec(p=1.0)], exclude=None)
    assert isinstance(ok, SymbolicSubspace)
    assert checked_subspace([vec(p=2.0)], exclude=None) is None  # not unit
    assert checked_subspace([vec(p=1.0)], exclude=["q", "p"]) is None  # unsorted
    assert checked_subspace([vec(p=1.0)], exclude=["p", "q"]) is None  # e_p inside


def test_meet_and_join_of_finite_spans():
    line_p = subspace([vec(p=1.0)])
    line_q = subspace([vec(q=1.0)])
    plane = subspace_join(line_p, line_q)
    assert len(plane.finite) == 2 and plane.exclude is None
    nothing = subspace_meet(line_p, line_q)
    assert nothing.finite == () and nothing.exclude is None
    assert subspace_equal(subspace_meet(plane, line_p), line_p)


def test_cofinite_meet_join():
    off_p = subspace([], exclude=["p"])
    off_q = subspace([], exclude=["q"])
    both = subspace_meet(off_p, off_q)
    assert subspace_equal(both, subspace([], exclude=["p", "q"]))
    back = subspace_join(both, subspace([vec(p=1.0)]))
    assert subspace_equal(back, off_q)
    diag = subspace([{"p": 1 / np.sqrt(2), "q": 1 / np.sqrt(2)}])
    assert subspace_equal(subspace_meet(both, diag), subspace([]))


def test_orthogonality_rules():
    line_p = subspace([vec(p=1.0)])
    line_q = subspace([vec(q=1.0)])
    assert is_orthogonal(line_p, line_q)
    assert is_orthogonal(line_p, subspace([], exclude=["p"]))
    assert not is_orthogonal(line_p, subspace([], exclude=["q"]))
    # two cofinite components always overlap far out in the atom set
    assert not is_orthogonal(subspace([], exclude=["p"]), subspace([], exclude=["q"]))


def test_dimension_state_is_additive_here():
    line_p = subspace([vec(p=1.0)])
    line_q = subspace([vec(q=1.0)])
    rest = subspace([], exclude=["p", "q", "r"])
    total = subspace_join(subspace_join(line_p, line_q), rest)
    assert two_valued_state(line_p) + two_valued_state(line_q) + two_valued_state(
        rest
    ) == two_valued_state(total) == 1
    assert subspace_equal(total, subspace([], exclude=["r"]))


def test_modularity_holds_on_mixed_triples():
    x = subspace([vec(p=1.0)])
    y = subspace([], exclude=["p", "q"])
    z = subspace([{"p": 1 / np.sqrt(2), "q": 1 / np.sqrt(2)}])
    assert modularity_check(x, y, z)
    assert modularity_check(y, z, x)
    assert modularity_check(z, x, y)


def test_refute_density_produces_a_disagreeing_witness():
    density = FHOperator(
        ("d0", "d1"), np.array([[0.5, 0.0], [0.0, 0.25]]), 0.25, symmetric=True
    )
    witness, verdict = refute_density(density)
    assert witness.exclude == ("d0",)  # d1 just repeats the tail
    assert verdict.trace.infinite and str(verdict.trace) == "INFINITE"
    assert verdict.state_value == 1
    assert not verdict.agrees


def test_refute_density_zero_tail_traces_to_zero():
    density = FHOperator(("d0",), np.array([[1.0]]), 0.0, symmetric=True)
    witness, verdict = refute_density(density)
    assert not verdict.trace.infinite and verdict.trace.value == 0.0
    assert not verdict.agrees
    with pytest.raises(ValidationError):
        refute_density(FHOperator(("d0",), np.array([[1.0]]), 0.0))


# Reference pipeline: the lattice as it was when a subspace held a tuple of
# FiniteSupportVector dicts, and meet and join went rows -> dicts ->
# subspace() -> rows.  The row-stored lattice must dump the same bytes.


class _DictSpace(NamedTuple):
    finite: tuple
    exclude: tuple


def _ref_rows(vectors, window):
    index = {a: i for i, a in enumerate(window)}
    rows = np.zeros((len(vectors), len(window)), dtype=complex)
    for r, v in enumerate(vectors):
        for atom, value in v.entries:
            rows[r, index[atom]] = value
    return rows


def _ref_vectors(rows, window):
    masks = numeric.live(rows, numeric.ZERO_COORD).tolist()
    return tuple(
        FiniteSupportVector({a: x for a, x, keep in zip(window, row, mask) if keep})
        for row, mask in zip(rows.tolist(), masks)
    )


def _ref_subspace(vectors, exclude=None, tol=numeric.SPAN):
    vectors = [FiniteSupportVector(v) if isinstance(v, dict) else v for v in vectors]
    if exclude is None:
        window = sorted({a for v in vectors for a in v.support()})
        rows = numeric.orth_rows(_ref_rows(vectors, window))
        return _DictSpace(_ref_vectors(rows, window), None)
    window = sorted(exclude)
    trimmed = [{a: x for a, x in v.entries if a in set(window)} for v in vectors]
    rows = numeric.orth_rows(_ref_rows([FiniteSupportVector(t) for t in trimmed], window))
    changed = True
    while changed and len(window):
        changed = False
        for pos in range(len(window)):
            if rows.shape[0] == 0:
                break
            if float(np.sum(np.abs(rows[:, pos]) ** 2)) >= 1.0 - 10 * tol:
                unit = np.zeros(len(window), dtype=complex)
                unit[pos] = 1.0
                deflated = rows - np.outer(rows[:, pos], unit)
                keep = [i for i in range(len(window)) if i != pos]
                rows = numeric.orth_rows(deflated[:, keep])
                window = [window[i] for i in keep]
                changed = True
                break
    return _DictSpace(_ref_vectors(rows, window), tuple(window))


def _ref_load(text, tol=numeric.SPAN):
    """Canonical data kept as stored, anything else through `_ref_subspace`."""
    node = json.loads(text)
    vectors = tuple(
        FiniteSupportVector({a: complex(*x) for a, x in entry.items()}) for entry in node["finite"]
    )
    exclude = node["cofinite_excluding"]
    atoms = {a for v in vectors for a in v.support()}
    window = sorted(atoms) if exclude is None else exclude
    if window == sorted(set(window)) and atoms <= set(window):
        rows = _ref_rows(vectors, window)
        inside = np.sum(np.abs(rows) ** 2, axis=0) >= 1.0 - 10 * tol
        if numeric.within(rows @ rows.conj().T - np.eye(len(vectors)), tol) and not (
            exclude is not None and len(vectors) and np.any(inside)
        ):
            return _DictSpace(vectors, None if exclude is None else tuple(window))
    return _ref_subspace(vectors, exclude, tol)


def _ref_full_rows(space, window):
    rows = _ref_rows(list(space.finite), window)
    if space.exclude is not None:
        free = [a for a in window if a not in set(space.exclude)]
        extra = np.zeros((len(free), len(window)), dtype=complex)
        for r, a in enumerate(free):
            extra[r, window.index(a)] = 1.0
        rows = np.vstack([rows, extra]) if len(rows) else extra
    return numeric.orth_rows(rows)


def _ref_joint_window(s1, s2):
    atoms = set()
    for s in (s1, s2):
        atoms.update(a for v in s.finite for a in v.support())
        atoms.update(s.exclude or ())
    return sorted(atoms)


def _ref_meet(s1, s2, tol=numeric.SPAN):
    window = _ref_joint_window(s1, s2)
    r1, r2 = _ref_full_rows(s1, window), _ref_full_rows(s2, window)
    if r1.shape[0] == 0 or r2.shape[0] == 0:
        shared = np.zeros((0, len(window)), dtype=complex)
    else:
        shared = numeric.intersect_rows(r1, r2, tol)
    cofinite = s1.exclude is not None and s2.exclude is not None
    return _ref_subspace(_ref_vectors(shared, window), window if cofinite else None, tol)


def _ref_join(s1, s2, tol=numeric.SPAN):
    window = _ref_joint_window(s1, s2)
    stacked = np.vstack([_ref_full_rows(s1, window), _ref_full_rows(s2, window)])
    cofinite = s1.exclude is not None or s2.exclude is not None
    rows = numeric.orth_rows(stacked)
    return _ref_subspace(_ref_vectors(rows, window), window if cofinite else None, tol)


def _ref_dumps(space):
    node = {
        "finite": [{a: [x.real, x.imag] for a, x in v.entries} for v in space.finite],
        "cofinite_excluding": None if space.exclude is None else list(space.exclude),
    }
    return dumps_canonical(node) + "\n"


GAUSSIAN = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
FLOAT = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))


@st.composite
def span_triples(draw, coords=st.sampled_from([GAUSSIAN, FLOAT])):
    """A window of 3 to 6 atoms and three `subspace` argument pairs over it:
    vectors with Gaussian-integer or float coordinates, and no exclusion,
    the whole window or a part of it listed in any order."""
    window = [f"a{i}" for i in range(draw(st.integers(3, 6)))]
    triple = []
    for _ in range(3):
        coord = draw(coords)
        vectors = draw(st.lists(
            st.dictionaries(st.sampled_from(window), coord, min_size=1), max_size=len(window)
        ))
        exclude = draw(st.one_of(
            st.none(), st.just(window), st.lists(st.sampled_from(window), unique=True)
        ))
        triple.append((vectors, exclude))
    return window, triple


@settings(max_examples=100, deadline=None)
@given(span_triples())
@example((["a0", "a1", "a2", "a3"], [
    # releases a2 and a3; slicing the columns away instead of deflating flips a sign
    ([{"a2": 1 + 1j}, {"a3": -1j}, {"a0": 1j, "a1": 2 - 2j}], ["a0", "a1", "a2", "a3"]),
    # canonical as written, so the coordinate below ZERO_COORD is kept and dumped
    ([{"a0": 1.0, "a1": 1e-15}], None),
    ([], None),
]))
def test_lattice_dumps_match_the_dict_reference(case):
    _, triple = case
    pairs = [(subspace(v, exclude=e), _ref_subspace(v, exclude=e)) for v, e in triple]
    for vectors, exclude in triple:
        # a spanning set written to a file loads through checked_subspace or subspace
        raw = dumps_canonical({
            "finite": [{a: [x.real, x.imag] for a, x in v.items()} for v in vectors],
            "cofinite_excluding": exclude,
        })
        pairs.append((loads_value("subspace", raw), _ref_load(raw)))
    for space, ref in pairs[:3]:
        text = _ref_dumps(ref)
        assert dumps_value("subspace", space) == text
        pairs.append((loads_value("subspace", text), _ref_load(text)))
    for space, ref in pairs:
        assert dumps_value("subspace", space) == _ref_dumps(ref)
        assert (space.finite, space.exclude) == tuple(ref)
    # meet and join of neighbours, built and loaded ones mixed
    for (s1, r1), (s2, r2) in zip(pairs, pairs[1:] + pairs[:1]):
        assert dumps_value("subspace", subspace_meet(s1, s2)) == _ref_dumps(_ref_meet(r1, r2))
        assert dumps_value("subspace", subspace_join(s1, s2)) == _ref_dumps(_ref_join(r1, r2))
    (x, rx), (y, ry), (z, rz) = pairs[:3]
    nested = subspace_meet(x, subspace_join(subspace_meet(y, subspace_join(x, z)), z))
    ref = _ref_meet(rx, _ref_join(_ref_meet(ry, _ref_join(rx, rz)), rz))
    assert dumps_value("subspace", nested) == _ref_dumps(ref)


# Exact rank oracle.  Every subspace here is a part inside the window's
# coordinate space plus, when cofinite, the whole space off the window, so
# its dimension inside the window is the rank of its spanning vectors
# together with the unit vectors of the window atoms it does not exclude.
# The ranks come from fraction-free elimination over Gaussian integers.


def _gmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _gdiv(p, q):
    """p / q for Gaussian integers (re, im) that q divides exactly."""
    norm = q[0] ** 2 + q[1] ** 2
    re, r1 = divmod(p[0] * q[0] + p[1] * q[1], norm)
    im, r2 = divmod(p[1] * q[0] - p[0] * q[1], norm)
    assert r1 == r2 == 0, "Bareiss division left a remainder"
    return (re, im)


def _exact_rank(rows):
    """Rank over the Gaussian rationals of (re, im) int-pair rows (Bareiss 1968).

    After each pivot every entry below it is a minor of the input, so the
    division by the previous pivot is exact.
    """
    m = [list(r) for r in rows]
    rank, last = 0, (1, 0)
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            a = m[r][col]
            m[r] = [
                (0, 0) if c <= col else _gdiv(
                    tuple(u - v for u, v in zip(_gmul(p, m[r][c]), _gmul(a, m[rank][c]))), last
                )
                for c in range(len(m[r]))
            ]
        last = p
        rank += 1
    return rank


def _oracle_rows(vectors, exclude, window):
    rows = [[(int(v.get(a, 0).real), int(v.get(a, 0).imag)) for a in window] for v in vectors]
    if exclude is not None:
        rows += [[(int(a == b), 0) for b in window] for a in window if a not in exclude]
    return rows


def _window_dim(space, window):
    return len(space.rows) + (len(window) - len(space.window) if space.cofinite else 0)


def test_exact_rank_of_gaussian_integer_rows():
    one, i = (1, 0), (0, 1)
    assert _exact_rank([[one, i], [i, (-1, 0)]]) == 1  # the second row is i times the first
    assert _exact_rank([[(2, 1), (0, 0), one], [(0, 0), (0, 0), (3, -1)]]) == 2
    assert _exact_rank([]) == 0


@settings(max_examples=100, deadline=None)
@given(span_triples(coords=st.just(GAUSSIAN)))
def test_lattice_dimensions_match_the_exact_rank_oracle(case):
    window, triple = case
    spaces = [subspace(v, exclude=e) for v, e in triple]
    rows = [_oracle_rows(v, e, window) for v, e in triple]
    rank = [_exact_rank(r) for r in rows]
    for space, r in zip(spaces, rank):
        assert _window_dim(space, window) == r
    for i, j in ((0, 1), (1, 2), (2, 0)):
        s1, s2 = spaces[i], spaces[j]
        meet, join = subspace_meet(s1, s2), subspace_join(s1, s2)
        assert meet.cofinite == (s1.cofinite and s2.cofinite)
        assert join.cofinite == (s1.cofinite or s2.cofinite)
        joint = _exact_rank(rows[i] + rows[j])
        assert _window_dim(join, window) == joint
        assert _window_dim(meet, window) == rank[i] + rank[j] - joint
        assert _window_dim(meet, window) == (
            _window_dim(s1, window) + _window_dim(s2, window) - _window_dim(join, window)
        )
    x, y, z = spaces
    inner = _exact_rank(rows[1] + rows[2])
    expected = rank[0] + inner - _exact_rank(rows[0] + rows[1] + rows[2])
    assert _window_dim(subspace_meet(x, subspace_join(y, z)), window) == expected
