"""Eigen-data operators: construction, calculus, joint diagonalization."""

import dataclasses
import warnings

import numpy as np
import pytest

from finobs import finitary, numeric, serial
from finobs.dynamics import complementarity_pair
from finobs.errors import (
    NotCommeasurable,
    NotInvariant,
    OutsideDomain,
    ValidationError,
)
from finobs.finitary import (
    EigenSystem,
    Polynomial,
    apply,
    check_hermitian,
    commeasurable,
    diagonalize,
    from_eigenpairs,
    functional_calculus,
    in_domain,
    is_complete,
    joint_eigensystem,
    joint_generator,
    minimal_polynomial,
    orbit_span_dim,
    restrict,
    table_function,
)
from finobs.finitary import _domains_match, _vector_key

E0 = np.array([1.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0])


def diag_system(*values):
    dim = len(values)
    return from_eigenpairs(
        [(v, np.eye(dim)[i]) for i, v in enumerate(values)], dim
    )


def test_diagonalize_literal_matrix():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    system = diagonalize(m)
    assert np.allclose(system.values, [1.0, 3.0])
    assert np.allclose(system.matrix(), m)
    gram = system.vectors @ system.vectors.conj().T
    assert np.allclose(gram, np.eye(2))


def test_check_hermitian_rejects():
    with pytest.raises(ValidationError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        check_hermitian(np.zeros((2, 3)))


def test_eigensystem_sorts_into_canonical_order():
    system = EigenSystem(2, np.array([3.0, 1.0]), np.array([[0, 1], [1, 0]], dtype=float))
    assert list(system.values) == [1.0, 3.0]
    assert np.allclose(system.vectors[0], [1.0, 0.0])


def test_eigensystem_rejects_bad_vector_families():
    with pytest.raises(ValidationError):
        EigenSystem(2, np.array([1.0, 2.0]), np.array([[1, 0], [1, 0]], dtype=float))
    with pytest.raises(ValidationError):
        EigenSystem(2, np.array([1.0]), np.array([[1, 0, 0]], dtype=float))
    with pytest.raises(ValidationError):
        EigenSystem(1, np.array([1.0, 2.0]), np.eye(2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_eigenvalues_are_rejected(value):
    with pytest.raises(ValidationError, match="finite"):
        EigenSystem(1, [value], [[1.0]])
    with pytest.raises(ValidationError, match="finite"):
        from_eigenpairs([(value, [1.0])], 1)


def test_from_eigenpairs_rejects_complex_values():
    with pytest.raises(ValidationError):
        from_eigenpairs([(1.0 + 0.1j, E0)], 3)


def test_eigensystem_and_from_eigenpairs_share_the_per_value_realness_rule():
    # 1e-7 is within REAL of 1 + 1e6, the largest |value|, but not of 1 + 1e-3
    values = [1e6, 1e-3 + 1e-7j]
    with pytest.raises(ValidationError, match=r"^eigenvalue \(0\.001\+1e-07j\) is not real$"):
        EigenSystem(2, values, np.eye(2))
    with pytest.raises(ValidationError, match=r"^eigenvalue \(0\.001\+1e-07j\) is not real$"):
        from_eigenpairs(zip(values, np.eye(2)), 2)
    with pytest.raises(ValidationError, match=r"^eigenvalue \(inf\+0j\) is not finite$"):
        EigenSystem(2, [1.0, np.inf], np.eye(2))
    assert list(EigenSystem(2, [1e6, 1e-3 + 1e-16j], np.eye(2)).values) == [1e-3, 1e6]


def test_from_eigenpairs_names_the_expected_vector_length():
    with pytest.raises(ValidationError, match=r"^eigenvector 1 has shape \(1,\), not \(2,\)$"):
        from_eigenpairs([(1, [1, 0]), (2, [1])], 2)
    with pytest.raises(ValidationError, match=r"^eigenvector 0 has shape \(3,\), not \(2,\)$"):
        from_eigenpairs([(1, [1, 0, 0])], 2)


def test_partial_operator_domain():
    system = from_eigenpairs([(2.0, E0), (5.0, E1)], 3)
    assert system.count == 2 and not is_complete(system)
    assert is_complete(diag_system(2.0, 5.0, 1.0))
    assert in_domain(system, E0 + E1)
    assert not in_domain(system, E2)
    assert np.allclose(apply(system, 3 * E0), 6 * E0)
    with pytest.raises(OutsideDomain) as info:
        apply(system, E0 + E2)
    assert info.value.residual == pytest.approx(1.0)


def test_orbit_span_dim():
    m = np.diag([1.0, 2.0, 3.0])
    assert orbit_span_dim(m, np.ones(3), cap=5) == 3
    assert orbit_span_dim(m, E1, cap=5) == 1
    assert orbit_span_dim(m, np.ones(3), cap=2) == 2
    assert orbit_span_dim(m, np.zeros(3), cap=5) == 0
    with pytest.raises(ValidationError):
        orbit_span_dim(m, E0, cap=0)


def test_huge_operators_and_vectors_need_no_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orbit_span_dim(np.eye(2), [1e200, 1e200], 2) == 1
        assert orbit_span_dim(1e200 * np.eye(2), [1.0, 1.0], 2) == 1
        assert diagonalize(1e300 * np.eye(3)).values == pytest.approx([1e300] * 3, rel=1e-15)
        big = diagonalize(np.diag([1e300, 1e299])).values
        assert big == pytest.approx([1e299, 1e300], rel=1e-15)


def test_apply_rejects_an_image_that_overflows():
    system = from_eigenpairs([(2.0, [1.0, 0.0])], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apply(system, [1e307, 0.0]).tolist() == [2e307, 0.0]
        with pytest.raises(ValidationError, match="^operator image overflows$"):
            apply(system, [1e308, 0.0])
        assert in_domain(system, [1e308, 0.0])


def test_the_domain_gate_fails_closed_on_a_vector_whose_norm_overflows():
    # |x| = 2e308 is not a float, and neither is the tolerance DOMAIN |x|
    system = from_eigenpairs([(2.0, [1.0, 0.0])], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not in_domain(system, [1e308 + 1e308j, 1e308 + 1e308j])
        assert not in_domain(diag_system(*range(5)), [1e308] * 5)
        assert in_domain(system, [1e308 + 1e308j, 0.0])


def test_restrict_to_invariant_subspace():
    system = diag_system(1.0, 2.0, 3.0)
    small = restrict(system, [E0, E1])
    assert list(small.values) == [1.0, 2.0]
    assert small.ambient_dim == 3


def test_restrict_checks_the_span_width_before_taking_an_empty_span():
    system = diag_system(1.0, 2.0, 3.0)
    # a zero span of the wrong width is rejected like a nonzero one, and so is
    # a width-0 one
    for span in (np.zeros((1, 5)), np.ones((1, 5)), []):
        with pytest.raises(ValidationError, match="span vectors have the wrong dimension"):
            restrict(system, span)
    empty = restrict(system, np.zeros((1, 3)))
    assert (empty.count, empty.ambient_dim) == (0, 3)


def test_restrict_flags_non_invariant_span():
    coupled = diagonalize(np.array([[0.0, 0.0, 1.0], [0.0, 5.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(NotInvariant) as info:
        restrict(coupled, [E0])
    assert np.allclose(np.abs(info.value.witness), E0)


def test_commeasurable_cases():
    a = diag_system(1.0, 2.0)
    b = diag_system(3.0, 3.5)
    assert commeasurable([a, b])
    flip = diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not commeasurable([a, flip])
    partial = from_eigenpairs([(1.0, np.array([1.0, 0.0]))], 2)
    assert not commeasurable([a, partial])
    with pytest.raises(ValidationError):
        commeasurable([])


def test_commeasurable_decides_huge_commuting_operators_without_overflow():
    a = diagonalize(np.diag([1e200, 1.0]))
    b = diagonalize(np.diag([1e200, 2.0]))
    flip = diagonalize(np.array([[0.0, 1e200], [1e200, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert commeasurable([a, b])
        assert not commeasurable([a, flip])
        joint = joint_eigensystem([a, b])
    assert sorted(values for _, values in joint) == [(1.0, 2.0), (1e200, 1e200)]


def test_joint_eigensystem_tuples():
    a = diag_system(1.0, 1.0, 2.0)
    b = diag_system(3.0, 4.0, 4.0)
    joint = joint_eigensystem([a, b])
    assert [tup for _, tup in joint] == [(1.0, 3.0), (1.0, 4.0), (2.0, 4.0)]
    for v, (va, vb) in joint:
        assert np.allclose(apply(a, v), va * v)
        assert np.allclose(apply(b, v), vb * v)


def test_joint_eigensystem_needs_commuting_operators():
    finitary._joint.cache_clear()
    a = diag_system(1.0, 2.0)
    flip = diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for _ in range(2):  # exceptions are not cached: every call decides again
        with pytest.raises(NotCommeasurable):
            joint_eigensystem([a, flip])
        assert not commeasurable([a, flip])
    assert finitary._joint.cache_info().currsize == 0


def _reference_joint(systems):
    """The joint basis refined by eigh on every block, 1 x 1 blocks included,
    and ordered by the full (value key, vector key) sort."""
    mats = [s.matrix() for s in systems]
    blocks = [systems[0].vectors]
    for system, m in zip(systems, mats):
        td = numeric.tol_dedup(system.norm())
        refined = []
        for block in blocks:
            compressed = block.conj() @ m @ block.T
            w, u = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
            rows = u.T @ block
            refined.extend(rows[start:stop] for start, stop in numeric.clusters(w, td))
        blocks = refined
    out = [(v, tuple(float(np.real(np.vdot(v, m @ v))) for m in mats))
           for block in blocks for v in block]
    digits = numeric.JOINT_KEY_DIGITS
    out.sort(key=lambda item: (tuple(round(t, digits) for t in item[1]), _vector_key(item[0])))
    return out


def _on_basis(basis, values):
    m = (basis * np.asarray(values, dtype=float)) @ basis.conj().T
    return diagonalize((m + m.conj().T) / 2.0)


# value patterns whose joint tuples repeat, so the vector key orders ties
_PATTERNS = {
    2: [[1, 1, 1, 2, 2, 3], [4, 4, 5, 6, 6, 7]],
    3: [[1, 1, 1, 1, 2, 2], [0, 0, 3, 3, 5, 5], [9, 9, 9, 9, 9, 8]],
}


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_joint_eigensystem_matches_the_full_sort_and_refinement_bit_for_bit(count, seed):
    rng = np.random.default_rng([seed, count])
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    unitary, _ = np.linalg.qr(g)
    # a random basis, and the standard one, whose eigenvectors hold signed zeros
    for basis in (unitary, np.eye(6, dtype=complex)[rng.permutation(6)]):
        systems = [_on_basis(basis, values) for values in _PATTERNS[count]]
        got, want = joint_eigensystem(systems), _reference_joint(systems)
        assert [tup for _, tup in got] == [tup for _, tup in want]
        keys = {tuple(round(t, numeric.JOINT_KEY_DIGITS) for t in tup) for _, tup in got}
        assert len(keys) < len(got)  # some value keys repeat, so vector keys order them
        for (v, _), (w, _) in zip(got, want):
            assert v.tobytes() == w.tobytes()


def test_joint_eigensystem_of_distinct_values_matches_the_full_refinement():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis, _ = np.linalg.qr(g)
        systems = [_on_basis(basis, rng.uniform(-2, 2, d)) for _ in range(2)]
        got, want = joint_eigensystem(systems), _reference_joint(systems)
        assert [(v.tobytes(), tup) for v, tup in got] == [(w.tobytes(), tup) for w, tup in want]


@pytest.mark.parametrize("seed", range(5))
def test_domains_match_agrees_with_in_domain_row_by_row(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    basis = np.linalg.qr(g)[0].T  # orthonormal rows
    rows, outside = basis[:3], basis[3]
    values = [-1.0, 0.5, 2.0]
    a = from_eigenpairs(zip(values, rows), 6)
    spin = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    rotated = from_eigenpairs(zip(values, spin @ rows), 6)
    tilted_rows = rows.copy()
    tilted_rows[0] = np.cos(1e-6) * rows[0] + np.sin(1e-6) * outside
    tilted = from_eigenpairs(zip(values, tilted_rows), 6)
    fewer = from_eigenpairs(zip(values[:2], rows[:2]), 6)
    cases = [(a, a, True), (a, rotated, True), (rotated, a, True), (a, tilted, False),
             (tilted, a, False), (a, fewer, False), (fewer, a, False)]
    for x, y, want in cases:
        per_row = x.count == y.count and all(in_domain(y, q) for q in x.vectors)
        assert _domains_match(x, y) == per_row == want


def test_functional_calculus_product():
    a = diag_system(1.0, 1.0, 2.0)
    b = diag_system(3.0, 4.0, 4.0)
    ab = functional_calculus(lambda s, t: s * t, [a, b])
    assert np.allclose(ab.matrix(), a.matrix() @ b.matrix())


def test_functional_calculus_rejects_non_real_values():
    a = diag_system(1.0, 2.0)
    with pytest.raises(ValidationError):
        functional_calculus(lambda s: 1j * s, [a])
    with pytest.raises(ValidationError):
        functional_calculus(lambda s: float("inf"), [a])


def test_joint_generator_reproduces_the_family():
    a = diag_system(1.0, 1.0, 2.0)
    b = diag_system(3.0, 4.0, 4.0)
    generator, tables = joint_generator([a, b])
    assert list(generator.values) == [0.0, 1.0, 2.0]
    for original, table in zip([a, b], tables):
        rebuilt = functional_calculus(table_function(table), [generator])
        assert np.allclose(rebuilt.matrix(), original.matrix())


@pytest.mark.parametrize("dim", [0, 3])
def test_an_empty_joint_family_gives_empty_operators(dim):
    empty = EigenSystem(dim, np.zeros(0), np.zeros((0, dim)))
    for system in (empty, from_eigenpairs([], dim)):
        assert (system.count, system.vectors.shape, system.clusters()) == (0, (0, dim), [])
        matrix = system.matrix()
        assert matrix.dtype == complex and matrix.shape == (dim, dim) and not matrix.any()
    assert commeasurable([empty, empty])
    assert joint_eigensystem([empty, empty]) == []
    calculus = functional_calculus(lambda s, t: s + t, [empty, empty])
    generator, tables = joint_generator([empty, empty])
    for system in (calculus, generator):
        assert (system.ambient_dim, system.values.shape, system.vectors.shape) == (dim, (0,), (0, dim))
    assert tables == [{}, {}]


def test_polynomial_and_minimal_polynomial():
    p = Polynomial((1.0, 0.0, 2.0))  # 1 + 2 t^2
    assert p.degree == 2
    assert p(3.0) == 19.0
    system = diag_system(1.0, 1.0, 2.0)
    mp = minimal_polynomial(system)
    assert mp.degree == 2
    assert abs(mp(1.0)) < 1e-12 and abs(mp(2.0)) < 1e-12
    annihilated = functional_calculus(mp, [system])
    assert np.allclose(annihilated.matrix(), 0.0)


def test_minimal_polynomial_rejects_overflowing_coefficients():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="overflow"):
            minimal_polynomial(diag_system(1e200, -1e200, 3.0))
        large = minimal_polynomial(diag_system(1e100, 3.0))
    assert large.degree == 2 and np.all(np.isfinite(large.coeffs))


def test_clusters_group_near_equal_values_at_scale():
    system = diag_system(5.0, 1.0, 1.0 + 1e-12)
    # the tie-break inside a cluster follows the vectors, not the values
    assert [int(np.argmax(np.abs(v))) for v in system.vectors] == [2, 1, 0]
    assert system.values[0] > system.values[1]
    assert system.clusters() == [(0, 2), (2, 3)]
    mp = minimal_polynomial(system)
    assert mp.degree == 2
    assert mp.coeffs == pytest.approx((5.0, -6.0, 1.0))
    # a chain of gaps within the tolerance is one cluster, though the tie-break
    # puts its ends next to each other
    gap = 0.6 * numeric.tol_dedup(1.0)
    chain = EigenSystem(3, [1.0, 1.0 + gap, 1.0 + 2 * gap], np.eye(3)[[2, 0, 1]])
    assert list(chain.values) == [1.0, 1.0 + 2 * gap, 1.0 + gap]
    assert chain.clusters() == [(0, 3)] and minimal_polynomial(chain).degree == 1
    # a degenerate spectrum: one cluster per eigenspace
    degenerate = diagonalize(np.diag([7.0, 2.0, 2.0, 7.0, 2.0, -1.0]))
    assert degenerate.clusters() == [(0, 1), (1, 4), (4, 6)]


def test_table_function_lookup():
    f = table_function({0.0: 7.0, 1.0: 9.0})
    assert f(0.0) == 7.0
    assert f(1.0 + 1e-7) == 9.0
    with pytest.raises(ValidationError):
        f(0.5)


def _built_every_way():
    """One EigenSystem from each public path that builds one."""
    a, b = diag_system(1.0, 1.0, 2.0), diag_system(3.0, 4.0, 4.0)
    s_sys, t_sys = complementarity_pair(5, [1.0, 2.0])
    return {
        "diagonalize": diagonalize(np.array([[2.0, 1.0], [1.0, 2.0]])),
        "from_eigenpairs": a,
        "restrict": restrict(a, [E0, E1]),
        "functional_calculus": functional_calculus(lambda s, t: s * t, [a, b]),
        "joint_generator": joint_generator([a, b])[0],
        "complementarity_pair/S": s_sys,
        "complementarity_pair/T": t_sys,
        "serial": serial.loads_value("eigensystem", serial.dumps_value("eigensystem", a)),
    }


def test_every_eigensystem_is_frozen_and_its_arrays_read_only():
    for path, system in _built_every_way().items():
        for name in ("ambient_dim", "values", "vectors"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(system, name, getattr(system, name))
        with pytest.raises(ValueError, match="read-only"):
            system.values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            system.vectors[0, 0] = 0.0
        assert type(system.ambient_dim) is int, path


def test_joint_vectors_are_read_only_and_each_call_gets_a_new_list():
    a, b = diag_system(1.0, 1.0, 2.0), diag_system(3.0, 4.0, 4.0)
    first, second = joint_eigensystem([a, b]), joint_eigensystem([a, b])
    assert first is not second and [t for _, t in first] == [t for _, t in second]
    first.pop()
    assert len(joint_eigensystem([a, b])) == 3
    with pytest.raises(ValueError, match="read-only"):
        second[0][0][0] = 5.0


def test_cold_and_warm_functional_calculus_dump_the_same_bytes():
    rng = np.random.default_rng(7)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    systems = [_on_basis(basis, values) for values in _PATTERNS[3]]
    finitary._joint.cache_clear()
    cold = functional_calculus(lambda s, t, u: s * t - u, systems)
    warm = functional_calculus(lambda s, t, u: s * t - u, systems)
    assert finitary._joint.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert cold is not warm and cold.vectors is not warm.vectors
    assert serial.dumps_value("eigensystem", cold) == serial.dumps_value("eigensystem", warm)


def test_equal_but_distinct_operator_lists_do_not_share_joint_data():
    finitary._joint.cache_clear()
    a, twin = diag_system(1.0, 2.0), diag_system(1.0, 2.0)
    (va, _), (vt, _) = joint_eigensystem([a])[0], joint_eigensystem([twin])[0]
    assert finitary._joint.cache_info()[:2] == (0, 2)  # (hits, misses)
    assert va.tobytes() == vt.tobytes() and not np.shares_memory(va, vt)


def test_the_joint_cache_never_holds_more_than_its_bound():
    finitary._joint.cache_clear()
    assert finitary._joint.cache_info().maxsize == finitary.JOINT_FAMILIES
    for k in range(3 * finitary.JOINT_FAMILIES):
        assert commeasurable([diag_system(1.0, 2.0 + k), diag_system(3.0, 3.0)])
        assert finitary._joint.cache_info().currsize == min(k + 1, finitary.JOINT_FAMILIES)


@pytest.mark.parametrize("member", [np.eye(2), [[1.0, 0.0], [0.0, 2.0]], None],
                         ids=["ndarray", "list", "None"])
def test_a_member_that_is_not_an_eigensystem_is_a_validation_error(member):
    a = diag_system(1.0, 2.0)
    for call in (commeasurable, joint_eigensystem, joint_generator,
                 lambda systems: functional_calculus(lambda s, t: s + t, systems)):
        with pytest.raises(ValidationError, match="every operator must be an EigenSystem"):
            call([a, member])
