"""Shared kernels, and validators that must reject NaN instead of passing it."""

import warnings

import numpy as np
import pytest

from finobs import dynamics, fhlogic, finitary, numeric
from finobs.dynamics import check_density, check_state, subspace_intersection
from finobs.errors import OutsideDomain, ToleranceError, ValidationError
from finobs.fhlogic import (
    FHOperator,
    canonicalize,
    decompose_equivariant,
    fh_to_matrix,
    is_orthogonal,
    represent_functional,
    subspace,
    subspace_equal,
    zero_sum_compatible,
)
from finobs.finitary import (
    EigenSystem,
    check_hermitian,
    commeasurable,
    diagonalize,
    from_eigenpairs,
    in_domain,
)
from finobs.socks import PairVector, SignedTensor, TruncatedFockVector, least_support

NAN = float("nan")


def test_within_is_a_nan_safe_at_most():
    assert numeric.within(1e-9, 1e-9)
    assert not numeric.within(np.nextafter(1e-9, 1.0), 1e-9)
    assert not numeric.within(NAN, 1.0)
    assert not numeric.within(np.float64(NAN), np.inf)
    assert not numeric.within(1.0, NAN)
    # a scalar is compared as it is, with its sign
    assert numeric.within(-2.0, 0.0)
    assert type(numeric.within(np.float64(0.5), 1.0)) is bool


def test_within_fails_an_infinite_residual_or_tolerance():
    inf = float("inf")
    assert not numeric.within(inf, inf)
    assert not numeric.within(-inf, 0.0)
    assert not numeric.within(np.array([0.0, complex(inf, 0.0)]), 1.0)
    assert not numeric.within(0.0, inf)
    assert numeric.within(1e308, np.finfo(float).max)


def test_within_reduces_an_array_to_its_largest_magnitude():
    assert numeric.within(np.array([[0.5, -1.0j], [0.25, -1.0]]), 1.0)
    assert not numeric.within(np.array([0.5, -1.0 - 1e-12]), 1.0)
    assert not numeric.within(np.array([0.0, NAN, 0.0]), 1.0)
    assert not numeric.within(np.array([complex(0.0, NAN)]), 1.0)
    assert numeric.within(np.zeros((0, 3)), 0.0)
    assert type(numeric.within(np.zeros(2), 1.0)) is bool


def test_norm_has_the_bits_of_the_plain_norm_in_range():
    rng = np.random.default_rng(17)
    # scales of 1e+-145 to 1e+-150 take the scaled branch with |x|^2 still a normal float
    near_edge = rng.uniform(145.0, 150.0, 20) * rng.choice([-1.0, 1.0], 20)
    for exponent in np.concatenate([rng.uniform(-150.0, 150.0, 40), near_edge]):
        n = int(rng.integers(1, 12))
        scale = 10.0**exponent
        m = scale * (rng.standard_normal((n, n + 2)) + 1j * rng.standard_normal((n, n + 2)))
        for x in (m[0], m[:, 1], m[::2, 1::3].ravel(), m[-1, ::2]):
            assert numeric.norm(x) == np.linalg.norm(x)
        assert numeric.norm(m[::-1, 1::2], axis=0).tolist() == np.linalg.norm(
            m[::-1, 1::2], axis=0
        ).tolist()


@pytest.mark.parametrize(
    "x, expected",
    [
        ([1e308] * 3, 1.7320508075688772e308),
        ([5e-324, 0.0], 5e-324),
        ([1e-170] * 2, 1.4142135623730951e-170),
        ([0.0, 0.0], 0.0),
        ([1e308j, 1e308], 1.4142135623730951e308),
    ],
)
def test_norm_neither_overflows_nor_underflows_short_of_the_result(x, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = numeric.norm(np.asarray(x, dtype=complex))
        column = numeric.norm(np.asarray(x, dtype=complex)[:, None], axis=0)
    assert got == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert column.tolist() == [got]


def test_norm_is_inf_or_nan_only_when_the_result_is():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert numeric.norm([1e308] * 4) == np.inf
        assert numeric.norm(np.full((4, 1), 1e308), axis=0).tolist() == [np.inf]
        assert numeric.norm([complex(np.inf, 0.0), 1.0]) == np.inf
        assert np.isnan(numeric.norm([NAN, 1e300]))


def test_live_keeps_magnitudes_above_tol_and_nan():
    values = np.array([1e-3, -1e-3j, 1e-12, -1e-13, 0.0, NAN, complex(NAN, 0.0)])
    assert numeric.live(values, 1e-12).tolist() == [True, True, False, False, False, True, True]
    rows = np.array([[1.0, 0.0], [NAN, 1e-20]])
    assert numeric.live(rows, 1e-14).tolist() == [[True, False], [True, False]]


def test_least_support_counts_a_nan_coefficient_as_live(monkeypatch):
    # the constructor rejects NaN, so it is put in afterwards
    v = TruncatedFockVector([1.0, 0.0, 0.0])
    monkeypatch.setattr(v, "coeffs", np.array([1.0, 0.0, NAN], dtype=complex))
    assert least_support(v) == {0, 1}


def test_clusters_join_a_gap_of_exactly_td_and_split_just_above():
    values = np.array([0.0, 0.5, 1.0, 1.75])
    assert list(numeric.clusters(values, 0.5)) == [(0, 3), (3, 4)]
    assert list(numeric.clusters(values, np.nextafter(0.5, 0.0))) == [
        (0, 1), (1, 2), (2, 3), (3, 4)
    ]
    assert list(numeric.clusters(values, 0.75)) == [(0, 4)]


def test_clusters_of_empty_and_single_inputs():
    assert list(numeric.clusters(np.zeros(0), 1.0)) == []
    assert list(numeric.clusters(np.array([3.0]), 0.0)) == [(0, 1)]


def test_clusters_compare_the_magnitude_of_complex_gaps():
    # sorted by real then imaginary part; a gap may point down in either part
    values = np.array([1.0, 1.0 + 0.5j, 1.25 - 0.5j, 1.5 - 0.5j, 3.0])
    assert list(numeric.clusters(values, 0.5)) == [(0, 2), (2, 4), (4, 5)]
    assert list(numeric.clusters(values, 1.04)) == [(0, 4), (4, 5)]
    assert list(numeric.clusters(values, 2.0)) == [(0, 5)]


def test_clusters_split_at_a_gap_that_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(numeric.clusters(np.array([-1e308, 1e308]), 1.0)) == [(0, 1), (1, 2)]
        system = from_eigenpairs([(1e308, [1.0, 0.0]), (-1e308, [0.0, 1.0])], 2)
    assert system.values.tolist() == [-1e308, 1e308]


def test_clusters_split_at_a_nan_gap():
    assert list(numeric.clusters(np.array([0.0, 0.0, NAN]), 1.0)) == [(0, 2), (2, 3)]


def test_components_order_groups_by_first_item_and_members_by_item_order():
    items = ["a", "b", "c", "d", "e", "f"]
    pairs = [("e", "b"), ("d", "a"), ("f", "e")]
    assert numeric.components(items, pairs) == [["a", "d"], ["b", "e", "f"], ["c"]]
    assert numeric.components(items, []) == [[x] for x in items]


def test_represent_functional_takes_the_first_of_two_equal_zero_classes():
    # shifted values {a, b} -> 0 and {c, d} -> 5 form two classes of size
    # two; the one met first in window order is the zero class
    window = ["a", "b", "c", "d"]
    g = {"a": 0.0, "b": 0.0, "c": 5.0, "d": 5.0}
    samples = {(x, y): g[x] - g[y] for x in window for y in window if x < y}
    assert represent_functional(samples, window) == (("c", "d"), {"c": 5.0, "d": 5.0})


def test_orth_rows_drops_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    basis = numeric.orth_rows(rows)
    assert basis.shape == (2, 3)
    assert np.allclose(basis @ basis.conj().T, np.eye(2))
    assert numeric.orth_rows(np.zeros((0, 3))).shape == (0, 3)


def test_intersect_rows_keeps_only_shared_directions():
    q1 = np.eye(3, dtype=complex)[:2]
    q2 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    shared = numeric.intersect_rows(q1, q2, numeric.ANGLE)
    assert shared.shape == (1, 3)
    assert np.isclose(abs(shared[0, 1]), 1.0)
    # a cosine of exactly 1 - tol still counts as shared
    assert numeric.intersect_rows(q1, q1, 0.0).shape == (2, 3)


def _spoiled(monkeypatch, obj, name, value):
    """`obj` with `name` set to `value` after its constructor checked it, past
    a frozen dataclass's guard too (`obj` is the caller's own fresh object)."""
    object.__setattr__(obj, name, np.asarray(value, dtype=complex))
    return obj


def _scaled_rows(monkeypatch, factor):
    """Make the subspace predicates read every row times `factor`."""
    exact = fhlogic._rows_over
    monkeypatch.setattr(fhlogic, "_rows_over", lambda s, w: exact(s, w) * factor)


def _fh(block, tail):
    return FHOperator(tuple("pq"[: len(block)]), block, tail)


def _diag(*values):
    return diagonalize(np.diag(values))


def _subspace_equal(monkeypatch, x):
    s = subspace([{"q0": 1.0}])
    _scaled_rows(monkeypatch, x)
    return subspace_equal(s, s)


def _is_orthogonal(monkeypatch, x):
    s1, s2 = subspace([{"q0": 1.0}]), subspace([{"q1": 1.0}])
    _scaled_rows(monkeypatch, x)
    return is_orthogonal(s1, s2)


def _commeasurable(monkeypatch, x):
    spoiled = _spoiled(monkeypatch, _diag(1.0, 2.0), "values", [1.0, x])
    return commeasurable([_diag(1.0, 2.0), spoiled])


def _zero_sum_compatible(monkeypatch, x):
    op = _spoiled(monkeypatch, _fh(np.eye(2), 1.0), "block", [[x, 0.0], [0.0, 1.0]])
    return zero_sum_compatible(op)


# Each predicate answers True when the NaN is replaced by the finite value
# listed with it; the NaN must turn that answer into False.
PREDICATES = [
    pytest.param(_zero_sum_compatible, 1.0, id="zero_sum_compatible"),
    pytest.param(_subspace_equal, 1.0, id="subspace_equal"),
    pytest.param(_is_orthogonal, 1.0, id="is_orthogonal"),
    pytest.param(lambda mp, x: in_domain(_diag(1.0, 2.0), [1.0, x]), 0.0, id="in_domain"),
    pytest.param(_commeasurable, 2.0, id="commeasurable"),
]


def _decompose_with_a_nan():
    matrix = fh_to_matrix(FHOperator(("a",), [[2.0]], 1.0), ["a", "b", "c", "d"])
    matrix[0, 0] = NAN
    return decompose_equivariant(matrix, ["a", "b", "c", "d"])


def _functional_with_a_nan_probe():
    window = ["a", "b", "c", "d"]
    samples = {(x, y): 0.0 for x in window for y in window if x < y}
    samples[("a", "b")] = NAN
    return represent_functional(samples, window)


@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(lambda mp: check_hermitian([[NAN, 0.0], [0.0, 1.0]]),
                     ValidationError, id="check_hermitian"),
        pytest.param(lambda mp: EigenSystem(2, [1.0, 2.0], [[NAN, 0.0], [0.0, 1.0]]),
                     ValidationError, id="EigenSystem-vectors"),
        pytest.param(lambda mp: EigenSystem(1, np.array([complex(1.0, NAN)]), [[1.0]]),
                     ValidationError, id="EigenSystem-values"),
        pytest.param(lambda mp: from_eigenpairs([(complex(1.0, NAN), [1.0])], 1),
                     ValidationError, id="from_eigenpairs"),
        pytest.param(lambda mp: check_state([NAN, 0.0]), ValidationError, id="check_state"),
        pytest.param(lambda mp: check_density([[NAN, 0.0], [0.0, 1.0]]),
                     ValidationError, id="check_density"),
        pytest.param(lambda mp: subspace_intersection([[NAN, 0.0]], [[1.0, 0.0]]),
                     ValidationError, id="subspace_intersection"),
        pytest.param(lambda mp: FHOperator(("p",), [[NAN]], 0.0, symmetric=True),
                     ValidationError, id="FHOperator-block"),
        pytest.param(lambda mp: FHOperator((), [], complex(0.0, NAN), symmetric=True),
                     ValidationError, id="FHOperator-tail"),
        pytest.param(lambda mp: SignedTensor(1, [NAN, NAN]), ValidationError, id="SignedTensor"),
        pytest.param(lambda mp: FHOperator(("p",), [[NAN]], 0.0),
                     ValidationError, id="FHOperator-block-unflagged"),
        pytest.param(lambda mp: FHOperator(("p",), [[float("inf")]], 0.0),
                     ValidationError, id="FHOperator-block-inf"),
        pytest.param(lambda mp: FHOperator((), [], complex(NAN, 0.0)),
                     ValidationError, id="FHOperator-tail-unflagged"),
        pytest.param(lambda mp: TruncatedFockVector([1.0, 0.0, NAN]),
                     ValidationError, id="TruncatedFockVector"),
        pytest.param(lambda mp: TruncatedFockVector([1.0, complex(0.0, float("-inf"))]),
                     ValidationError, id="TruncatedFockVector-inf"),
        pytest.param(lambda mp: PairVector(0, NAN), ValidationError, id="PairVector"),
        pytest.param(lambda mp: PairVector(0, complex(0.0, float("inf"))),
                     ValidationError, id="PairVector-inf"),
        pytest.param(lambda mp: _decompose_with_a_nan(),
                     ValidationError, id="decompose_equivariant"),
        pytest.param(lambda mp: _functional_with_a_nan_probe(),
                     ValidationError, id="represent_functional"),
        # a NaN entry must keep its atom, and the rebuilt operator then rejects it
        pytest.param(lambda mp: canonicalize(_spoiled(mp, _fh([[1.0, 0.0], [0.0, 5.0]], 1.0),
                                                      "block", [[NAN, 0.0], [0.0, 5.0]])),
                     ValidationError, id="canonicalize"),
        pytest.param(lambda mp: canonicalize(_spoiled(mp, _fh([[1.0]], 1.0), "tail", NAN)),
                     ValidationError, id="canonicalize-tail"),
    ]
    + [pytest.param(p.values[0], False, id=p.id) for p in PREDICATES],
)
def test_validators_fail_closed_on_nan(build, expected, monkeypatch):
    if expected is False:
        assert build(monkeypatch, NAN) is False
    else:
        with pytest.raises(expected):
            build(monkeypatch)


@pytest.mark.parametrize("build, finite", PREDICATES)
def test_nan_predicate_cases_answer_true_at_a_finite_value(build, finite, monkeypatch):
    assert build(monkeypatch, finite) is True


def test_canonicalize_cases_drop_the_atom_at_a_finite_value(monkeypatch):
    block = [[1.0, 0.0], [0.0, 5.0]]
    assert canonicalize(_spoiled(monkeypatch, _fh(block, 1.0), "block", block)).support == ("q",)
    assert canonicalize(_spoiled(monkeypatch, _fh([[1.0]], 1.0), "tail", 1.0)).support == ()


# The postconditions compare a residual with a tolerance; a NaN residual
# must raise like an oversized one.  Where the input validators already
# stop NaN, the residual is forced to NaN by patching its source.


def test_diagonalize_fails_closed_on_a_nan_residual(monkeypatch):
    exact = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: exact(*a, **k) * NAN)
    with pytest.raises(ToleranceError):
        finitary.diagonalize(np.diag([1.0, 2.0]))


def test_apply_fails_closed_on_a_nan_residual():
    system = finitary.diagonalize(np.diag([1.0, 2.0]))
    with pytest.raises(OutsideDomain):
        finitary.apply(system, [NAN, 0.0])


def test_evolve_fails_closed_on_a_nan_residual(monkeypatch):
    system = finitary.diagonalize(np.diag([1.0, 2.0]))
    monkeypatch.setattr(finitary, "_expand", lambda s, x: (np.zeros(2, dtype=complex), NAN))
    with pytest.raises(OutsideDomain):
        dynamics.evolve(system, [1.0, 0.0], 1.0)


def test_concatenate_fails_closed_on_a_nan_residual(monkeypatch):
    exact = dynamics._exp_minus_i
    calls = []

    def nan_on_the_check(h):
        # the first two calls build the target product, the third checks C
        calls.append(h)
        return exact(h) if len(calls) <= 2 else exact(h) * NAN

    monkeypatch.setattr(dynamics, "_exp_minus_i", nan_on_the_check)
    with pytest.raises(ToleranceError):
        dynamics.concatenate(np.eye(2), np.eye(2))
    assert len(calls) == 3
