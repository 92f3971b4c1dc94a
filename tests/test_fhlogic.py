"""Finite-block operators, probe recovery, and the symbolic subspace class."""

import numpy as np
import pytest

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
    # a NaN overlap would pass the `> tol` test and report orthogonality
    with pytest.raises(ValidationError, match="non-finite coordinate"):
        is_orthogonal(
            SymbolicSubspace((FiniteSupportVector({"q0": np.nan}),), None),
            subspace([vec(q0=1.0)]),
        )


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
    tol = 1e-10
    matrix = np.diag([5.0, 0.0, 0.9 * tol, 1.8 * tol])
    with pytest.raises(NotEquivariant, match="transposition of atoms 'b', 'd' moves the matrix"):
        decompose_equivariant(matrix, ["a", "b", "c", "d"], tol=tol)


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
