"""Evolution, expectations, concatenation, and the uncertainty pair."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from finobs import numeric
from finobs.dynamics import (
    complementarity_pair,
    compress_state,
    concatenate,
    check_density,
    check_state,
    evolve,
    expectation,
    oscillator_hamiltonian,
    propagator,
    subspace_intersection,
    variance,
)
from finobs.errors import OutsideDomain, ValidationError
from finobs.finitary import diagonalize, from_eigenpairs

PHASE_TOL = 1e-10


def test_state_and_density_validation():
    with pytest.raises(ValidationError):
        check_state([1.0, 1.0])
    with pytest.raises(ValidationError):
        check_density(np.diag([0.6, 0.6]))
    with pytest.raises(ValidationError):
        check_density(np.diag([1.5, -0.5]))
    assert check_state([1.0, 0.0]) is not None


@pytest.mark.parametrize(
    "psi, shown",
    [
        ([1e308] * 3, "1.732051e+308"),
        ([0.0, 1e200j], "1.000000e+200"),
        # a norm whose square is a finite float keeps its fixed-point text
        ([1e30, 0.0], "1000000000000000019884624838656.000000"),
        ([1e-170, 0.0], "0.000000"),
    ],
)
def test_check_state_names_the_norm_of_a_huge_state_in_exponent_form(psi, shown):
    with pytest.raises(ValidationError) as info:
        check_state(psi)
    assert str(info.value) == f"state norm {shown} is not 1"


def test_evolve_rotates_eigencomponents():
    system = diagonalize(np.diag([0.0, np.pi]))
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi1 = evolve(system, psi0, 1.0)
    # the second component picks up exp(-i pi) = -1
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(psi1 - expected)) < PHASE_TOL
    assert np.allclose(evolve(system, psi0, 0.0), psi0)


def test_evolve_rejects_states_outside_the_domain():
    partial = from_eigenpairs([(1.0, np.array([1.0, 0.0]))], 2)
    with pytest.raises(OutsideDomain):
        evolve(partial, np.array([0.0, 1.0]), 1.0)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_evolve_rejects_a_non_finite_time(t):
    system = diagonalize(np.diag([0.0, np.pi]))
    with pytest.raises(ValidationError, match="evolution time must be finite"):
        evolve(system, np.array([1.0, 0.0]), t)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_propagator_rejects_a_non_finite_time(t):
    with pytest.raises(ValidationError, match="evolution time must be finite"):
        propagator(diagonalize(np.diag([0.0, 2.0])), t)


def test_an_overflowing_phase_is_rejected_without_numpy_warnings():
    system = diagonalize(np.diag([0.0, 2.0]))
    psi0 = np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 2 * 1e307 is still finite, 2 * 1e308 is not
        assert np.isclose(np.linalg.norm(evolve(system, psi0, 1e307)), 1.0)
        with pytest.raises(ValidationError, match=r"evolution phase overflows at time 1e\+308"):
            evolve(system, psi0, 1e308)
        with pytest.raises(ValidationError, match="evolution phase overflows"):
            propagator(system, -1e308)


def test_propagator_is_the_matrix_exponential():
    h = np.array([[1.0, 0.5], [0.5, -1.0]])
    system = diagonalize(h)
    u = propagator(system, 0.7)
    assert numeric.orthonormal(u, numeric.ORTH)
    assert np.allclose(u, scipy.linalg.expm(-1j * 0.7 * h))
    partial = from_eigenpairs([(1.0, np.array([1.0, 0.0]))], 2)
    with pytest.raises(ValidationError):
        propagator(partial, 1.0)


def test_expectation_matches_dense_trace():
    system = diagonalize(np.diag([1.0, 2.0, 4.0]))
    rho = np.diag([0.5, 0.3, 0.2])
    assert expectation(lambda t: t, system, rho) == pytest.approx(1.9)
    assert expectation(lambda t: t * t, system, rho) == pytest.approx(
        0.5 + 0.3 * 4 + 0.2 * 16
    )
    assert expectation(lambda t: 1.0, system, rho) == pytest.approx(1.0)


def test_compress_state_keeps_operator_statistics():
    system = diagonalize(np.diag([1.0, 1.0, 2.0]))
    psi = check_state(np.array([0.6, 0.48, 0.64]))
    rho = np.outer(psi, psi.conj())
    sigma = check_density(compress_state(system, rho))
    # compression commutes with the operator and preserves every f(T) mean
    m = system.matrix()
    assert np.allclose(m @ sigma, sigma @ m)
    for func in (lambda t: t, lambda t: t**3, lambda t: 1.0 / t):
        assert expectation(func, system, sigma) == pytest.approx(
            expectation(func, system, rho)
        )
    # inside the degenerate eigenspace the weight is spread uniformly
    assert sigma[0, 0] == pytest.approx(sigma[1, 1])


def test_concatenate_commuting_pair_adds_phases():
    a = np.diag([3.0 * np.pi / 2.0])
    c = concatenate(a, a)
    assert c.shape == (1, 1)
    # 3pi/2 + 3pi/2 = 3pi, reduced mod 2pi
    assert c[0, 0].real == pytest.approx(np.pi)
    assert abs(c[0, 0].imag) < PHASE_TOL


def test_concatenate_general_pair():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = rng.standard_normal((4, 4))
    b = b + b.T
    c = concatenate(a, b)
    assert np.max(np.abs(c - c.conj().T)) < 1e-12
    lhs = scipy.linalg.expm(-1j * c)
    rhs = scipy.linalg.expm(-1j * a) @ scipy.linalg.expm(-1j * b)
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    phases = np.linalg.eigvalsh(c)
    assert np.all(phases >= -PHASE_TOL) and np.all(phases < 2.0 * np.pi)


@pytest.mark.parametrize("phases", [
    *[(np.pi / 2, -np.pi / 2 + delta, 1.0) for delta in (0.0, 1e-12, 1e-9, 2e-8, 3e-8, 1e-7)],
    (0.7, 0.7, np.pi / 2, -np.pi / 2),
])
def test_concatenate_separates_near_conjugate_and_repeated_phases(phases):
    # the cosines of pi/2 and -pi/2 + delta differ by about delta, so an
    # eigenbasis split by the real part (r + r*)/2 would mix the two
    rng = np.random.default_rng(7)
    d = len(phases)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    a = (q * np.array(phases)) @ q.conj().T
    a = (a + a.conj().T) / 2.0
    b = np.zeros_like(a)
    c = concatenate(a, b)
    rhs = scipy.linalg.expm(-1j * a) @ scipy.linalg.expm(-1j * b)
    assert np.max(np.abs(scipy.linalg.expm(-1j * c) - rhs)) < 1e-12


def test_concatenate_dimension_mismatch_message():
    with pytest.raises(ValidationError, match="first operator is 2, second is 3"):
        concatenate(np.eye(2), np.eye(3))


def test_concatenate_rejects_eigenvalues_that_overflow_without_numpy_warnings():
    huge = np.full((2, 2), 1e308)  # eigenvalues 0 and 2e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^operator eigenvalues overflow$"):
            concatenate(huge, huge)
        with pytest.raises(ValidationError, match="^operator eigenvalues overflow$"):
            concatenate(np.eye(2), huge)


def test_variance_vanishes_exactly_on_eigenvectors():
    h = np.diag([1.0, 4.0])
    system = diagonalize(h)
    e0 = np.array([1.0, 0.0])
    assert variance(system, e0) == pytest.approx(0.0, abs=1e-12)
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    # mean 2.5, second moment (1 + 16)/2
    assert variance(system, w) == pytest.approx(8.5 - 6.25)


def test_subspace_intersection():
    e = np.eye(4)
    plane1 = np.array([e[0], e[1]])
    plane2 = np.array([(e[0] + e[1]) / np.sqrt(2.0), e[2]])
    shared = subspace_intersection(plane1, plane2)
    assert shared.shape == (1, 4)
    assert abs(abs(shared[0] @ (e[0] + e[1]) / np.sqrt(2.0)) - 1.0) < 1e-9
    with pytest.raises(ValidationError):
        subspace_intersection(np.array([e[0], e[0]]), plane2)


def test_complementarity_pair_shares_one_ray():
    s, t = complementarity_pair(5, (0.0, np.sqrt(2.0)))
    shared = subspace_intersection(s.vectors, t.vectors)
    assert shared.shape[0] == 1
    assert abs(abs(shared[0][0]) - 1.0) < 1e-8  # the shared ray is e0
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert variance(s, e0) == pytest.approx(0.5)
    assert variance(t, e0) == pytest.approx(0.5)
    assert variance(s, e0) * variance(t, e0) == pytest.approx(0.25)


def test_complementarity_pair_validation():
    with pytest.raises(ValidationError):
        complementarity_pair(4, (0.0, 1.0))  # needs dim >= 5
    with pytest.raises(ValidationError):
        complementarity_pair(5, (1.0, 1.0))
    with pytest.raises(ValidationError):
        complementarity_pair(5, (1.0,))


def test_oscillator_spectrum_is_nearly_evenly_spaced():
    h = oscillator_hamiltonian(200, 8.0)
    assert np.allclose(h, h.T)
    w = np.linalg.eigvalsh(h)
    gaps = np.diff(w[:6])
    assert np.max(np.abs(gaps / gaps[0] - 1.0)) < 0.05
    with pytest.raises(ValidationError):
        oscillator_hamiltonian(8, 8.0)
    with pytest.raises(ValidationError):
        oscillator_hamiltonian(64, -1.0)
