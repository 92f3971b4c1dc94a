"""Shared kernels, and validators that must reject NaN instead of passing it."""

import numpy as np
import pytest

from finobs import dynamics, finitary, numeric
from finobs.dynamics import check_density, check_state, check_unitary, subspace_intersection
from finobs.errors import OutsideDomain, ToleranceError, ValidationError
from finobs.fhlogic import FHOperator, represent_functional
from finobs.finitary import EigenSystem, check_hermitian, from_eigenpairs
from finobs.socks import SignedTensor

NAN = float("nan")


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: check_hermitian([[NAN, 0.0], [0.0, 1.0]]),
        lambda: EigenSystem(2, [1.0, 2.0], [[NAN, 0.0], [0.0, 1.0]]),
        lambda: EigenSystem(1, np.array([complex(1.0, NAN)]), [[1.0]]),
        lambda: from_eigenpairs([(complex(1.0, NAN), [1.0])], 1),
        lambda: check_state([NAN, 0.0]),
        lambda: check_density([[NAN, 0.0], [0.0, 1.0]]),
        lambda: check_unitary([[NAN, 0.0], [0.0, 1.0]]),
        lambda: subspace_intersection([[NAN, 0.0]], [[1.0, 0.0]]),
        lambda: FHOperator(("p",), [[NAN]], 0.0, symmetric=True),
        lambda: FHOperator((), [], complex(0.0, NAN), symmetric=True),
        lambda: SignedTensor(1, [NAN, NAN]),
    ],
    ids=[
        "check_hermitian",
        "EigenSystem-vectors",
        "EigenSystem-values",
        "from_eigenpairs",
        "check_state",
        "check_density",
        "check_unitary",
        "subspace_intersection",
        "FHOperator-block",
        "FHOperator-tail",
        "SignedTensor",
    ],
)
def test_validators_fail_closed_on_nan(build):
    with pytest.raises(ValidationError):
        build()


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
