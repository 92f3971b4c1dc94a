"""Unitary evolution and statistics generated by eigendata operators.

Evolution acts coordinate-wise on the eigenbasis: an eigenvector of
eigenvalue w picks up the phase exp(-i w t).  Expectations, state
compression, and the concatenation of two evolutions into one generator
all reduce to spectral bookkeeping on dense matrices.
"""

import numpy as np

from . import finitary, numeric
from .errors import ToleranceError, ValidationError
from .finitary import check_hermitian


def check_state(psi):
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValidationError("state must be a vector")
    norm = numeric.norm(psi)
    if not numeric.within(abs(norm - 1.0), numeric.STATE):
        # fixed point while |psi|^2 is a finite float; past that, exponent form keeps it short
        shown = f"{norm:.6f}" if norm < 2.0**512 else f"{norm:.6e}"
        raise ValidationError(f"state norm {shown} is not 1")
    return psi


def check_density(rho):
    rho = check_hermitian(rho)
    trace = np.trace(rho)
    if not numeric.within(np.array([trace.real - 1.0, trace.imag]), numeric.TRACE):
        raise ValidationError(f"density trace {trace:.6f} is not 1")
    smallest = np.min(np.linalg.eigvalsh(rho))
    if not numeric.within(-smallest, numeric.PSD):
        raise ValidationError(f"density has negative eigenvalue {smallest:.3e}")
    return rho


def _phases(system, t):
    """exp(-i value t) per eigenvalue; t and every value * t must be finite."""
    if not np.isfinite(t):
        raise ValidationError(f"evolution time must be finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * system.values * float(t))
    if not np.isfinite(phases).all():
        raise ValidationError(f"evolution phase overflows at time {t}")
    return phases


def evolve(system, psi0, t):
    """State at time t under the evolution generated by `system`.

    psi0 must be a unit vector inside the operator domain and t a
    finite time; each eigencomponent is rotated by exp(-i value t).
    """
    phases = _phases(system, t)
    return (finitary._domain_coefficients(system, check_state(psi0)) * phases) @ system.vectors


def propagator(system, t):
    """Unitary exp(-i A t) of a full operator as a dense matrix."""
    if not finitary.is_complete(system):
        raise ValidationError("propagator needs a full operator")
    return (system.vectors.T * _phases(system, t)) @ system.vectors.conj()


def _spectral_projectors(system):
    """Yield (value, projector) per near-degenerate cluster, one d x d projector at a time."""
    values, vectors = system.values, system.vectors
    for start, stop in system.clusters():
        block = vectors[start:stop]
        yield float(np.mean(values[start:stop])), block.T @ block.conj()


def _density_on(system, rho, use):
    """rho checked as a density of the full operator `system`; `use` names the caller."""
    if not finitary.is_complete(system):
        raise ValidationError(f"{use} needs a full operator")
    rho = check_density(rho)
    if rho.shape[0] != system.ambient_dim:
        raise ValidationError("density and operator dimensions differ")
    return rho


def expectation(func, system, rho):
    """Trace of f(T) rho via the spectral decomposition of T."""
    rho = _density_on(system, rho, "expectation")
    total = 0.0
    for value, proj in _spectral_projectors(system):
        total += float(func(value)) * float(np.trace(proj @ rho).real)
    if not np.isfinite(total):
        raise ValidationError("expectation value overflows")
    return total


def compress_state(system, rho):
    """Density with the same statistics for every function of `system`.

    Averages rho over each eigenspace: the weight tr(P rho) is spread
    uniformly across the eigenspace dimension.
    """
    rho = _density_on(system, rho, "compression")
    out = np.zeros_like(rho)
    for _, proj in _spectral_projectors(system):
        weight = float(np.trace(proj @ rho).real)
        dim = int(round(np.trace(proj).real))
        out += (weight / dim) * proj
    return out


def _exp_minus_i(h):
    w, v = np.linalg.eigh(h)
    if not np.isfinite(w).all():
        raise ValidationError("operator eigenvalues overflow")
    return (v * np.exp(-1j * w)) @ v.conj().T


def concatenate(a, b):
    """One Hermitian C with exp(-iC) = exp(-iA) exp(-iB).

    The eigenphases of the unitary product are mapped to [0, 2 pi); the
    branch choice is literal, with no smoothing across the cut.
    """
    a = check_hermitian(a)
    b = check_hermitian(b)
    if a.shape != b.shape:
        raise ValidationError(
            f"dimension mismatch: first operator is {a.shape[0]}, second is {b.shape[0]}"
        )
    if not a.size:
        raise ValidationError("cannot concatenate empty operators")
    r = _exp_minus_i(a) @ _exp_minus_i(b)
    # Z diagonalizes the Hermitian Cayley transform i(I - s)(I + s)^-1 of s = -exp(-i pole) r,
    # the pole mid-way across the widest gap between eigenphases of r.  The map narrows no
    # phase gap below half, so eigenvectors of nearly equal phases mix only with each other.
    ang = np.sort(np.angle(np.linalg.eigvals(r)))
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    s = -np.exp(-1j * (ang[np.argmax(gaps)] + np.max(gaps) / 2.0)) * r
    _, z = np.linalg.eigh(1j * np.linalg.solve(np.eye(len(r)) + s, np.eye(len(r)) - s))
    diag = np.sum(z.conj() * (r @ z), axis=0)
    diag = diag / np.abs(diag)
    theta = np.mod(-np.angle(diag), 2.0 * np.pi)
    theta[theta >= 2.0 * np.pi] = 0.0
    c = (z * theta) @ z.conj().T
    c = (c + c.conj().T) / 2.0
    check = np.max(np.abs(_exp_minus_i(c) - r))
    if not numeric.within(check, numeric.CONCAT):
        raise ToleranceError(f"concatenation residual {check:.3e} out of tolerance")
    return c


def variance(operator, w):
    """Statistical variance of the EigenSystem `operator` in a unit state w of its domain."""
    w = check_state(w)
    sw = finitary.apply(operator, w)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.vdot(w, sw).real)
        out = float(np.vdot(sw, sw).real - mean * mean)
    if not np.isfinite(out):
        raise ValidationError("variance of the state overflows")
    return out


def subspace_intersection(basis1, basis2):
    """Orthonormal basis of the intersection of two orthonormal spans.

    Directions whose principal correlation falls within numeric.ANGLE
    of 1 are counted as shared.
    """
    q1 = np.atleast_2d(np.asarray(basis1, dtype=complex))
    q2 = np.atleast_2d(np.asarray(basis2, dtype=complex))
    for q in (q1, q2):
        if not numeric.orthonormal(q, numeric.ORTH):
            raise ValidationError("input basis is not orthonormal")
    return numeric.intersect_rows(q1, q2, numeric.ANGLE)


def complementarity_pair(dim, alphas, rotation_seed=42):
    """Two operators with the same spectrum sharing only one domain ray.

    S lives on the mixed basis (e0 +- e1)/sqrt2, e2, ...; T uses the
    same construction over a seeded rotation of the block orthogonal to
    e0.  The trivial-intersection property is asserted, not assumed.
    """
    alphas = [float(x) for x in alphas]
    k = len(alphas)
    if k < 2:
        raise ValidationError("need at least two eigenvalues")
    if len(set(alphas)) != k:
        raise ValidationError("eigenvalues must be distinct")
    if dim < 2 * k + 1:
        raise ValidationError(f"ambient dimension {dim} below required {2 * k + 1}")
    # a non-finite eigenvalue is left to from_eigenpairs, which names it
    if np.isfinite(alphas).all() and not np.isfinite(max(alphas) - min(alphas)):
        raise ValidationError(f"eigenvalue spread {max(alphas)!r} - {min(alphas)!r} overflows")
    eye = np.eye(dim, dtype=complex)
    sqrt2 = np.sqrt(2.0)

    s_rows = [(eye[0] + eye[1]) / sqrt2, (eye[0] - eye[1]) / sqrt2]
    s_rows += [eye[i] for i in range(2, k)]

    rng = np.random.default_rng(rotation_seed)
    gauss = rng.standard_normal((dim - 1, dim - 1))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    rotated = np.zeros((dim - 1, dim), dtype=complex)
    rotated[:, 1:] = q.T

    t_rows = [(eye[0] + rotated[0]) / sqrt2, (eye[0] - rotated[0]) / sqrt2]
    t_rows += [rotated[i] for i in range(1, k - 1)]

    s_sys = finitary.from_eigenpairs(list(zip(alphas, s_rows)), dim)
    t_sys = finitary.from_eigenpairs(list(zip(alphas, t_rows)), dim)

    shared = subspace_intersection(s_sys.vectors, t_sys.vectors)
    if len(shared) != 1 or not numeric.within(abs(abs(shared[0][0]) - 1.0), numeric.SHARED_RAY):
        raise ValidationError(
            "rotation seed produced a non-generic pair; domains share more than e0"
        )
    return s_sys, t_sys


def oscillator_hamiltonian(n, length, mass=1.0, stiffness=1.0, hbar=1.0):
    """Grid Hamiltonian (hbar/2m) P^2 + (f/2 hbar) Q^2 on [-L, L].

    Uniform interior grid with Dirichlet walls; P^2 is the three-point
    second difference.  Returns a real symmetric (n, n) matrix.
    """
    if n < 16:
        raise ValidationError("need at least 16 grid points")
    if length <= 0 or mass <= 0 or stiffness <= 0 or hbar <= 0:
        raise ValidationError("length, mass, stiffness, hbar must be positive")
    h = 2.0 * length / (n + 1)
    x = -length + h * (np.arange(n) + 1)
    lap = (
        2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    ) / (h * h)
    return (hbar / (2.0 * mass)) * lap + (stiffness / (2.0 * hbar)) * np.diag(x * x)
