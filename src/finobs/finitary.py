"""Eigendata operators: symmetric maps given by finitely many eigenpairs.

An operator is stored as an orthonormal family of eigenvectors with real
eigenvalues inside an ambient complex space.  Its domain is the span of
the eigenvectors; everything else (application, restriction, joint
diagonalization, functional calculus) is derived from that data.
"""

from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import (
    NotCommeasurable,
    NotInvariant,
    OutsideDomain,
    ToleranceError,
    ValidationError,
)


def tol_eig(scale):
    """Residual tolerance for eigen equations at the given operator norm."""
    return numeric.EIG * (1.0 + float(scale))


def tol_comm(norm_a, norm_b):
    return numeric.COMM * (1.0 + float(norm_a) * float(norm_b))


def tol_dedup(value_scale):
    return numeric.DEDUP * (1.0 + float(value_scale))


def _vector_key(v):
    # lexicographic key on rounded components; fixes ordering inside
    # degenerate eigenvalue clusters
    r = np.round(v.real, 12) + 0.0
    i = np.round(v.imag, 12) + 0.0
    return tuple(np.column_stack([r, i]).ravel().tolist())


def _canonical_order(values, vectors):
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = vectors[order]
    pieces = []
    for start, stop in numeric.clusters(values, tol_dedup(np.max(np.abs(values)))):
        group = list(range(start, stop))
        if len(group) > 1:
            group.sort(key=lambda j: _vector_key(vectors[j]))
        pieces.extend(group)
    return values[pieces], vectors[pieces]


@dataclass(eq=False)
class EigenSystem:
    """Operator data: `vectors[i]` is the eigenvector for `values[i]`.

    Vectors are rows of shape (count, ambient_dim), pairwise orthonormal
    within numeric.ORTH; values are real and finite, stored ascending
    with a deterministic tie-break inside near-degenerate clusters.
    """

    ambient_dim: int
    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            vals = np.asarray(self.values)
            scale = 1.0 + np.max(np.abs(vals), initial=0.0)
            if not numeric.within(vals.imag, numeric.REAL * scale):
                raise ValidationError("eigenvalues must be real")
            vals = vals.real
        else:
            vals = self.values
        values = np.atleast_1d(np.asarray(vals, dtype=float))
        vectors = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if vectors.shape != (len(values), self.ambient_dim):
            raise ValidationError(
                f"expected {len(values)} vectors of dimension {self.ambient_dim}, "
                f"got shape {vectors.shape}"
            )
        if len(values) > self.ambient_dim:
            raise ValidationError("more eigenpairs than ambient dimensions")
        if not np.all(np.isfinite(values)):
            raise ValidationError("eigenvalues must be finite")
        if len(values):
            gram = vectors @ vectors.conj().T
            if not numeric.within(gram - np.eye(len(values)), numeric.ORTH):
                raise ValidationError("eigenvectors are not orthonormal")
            values, vectors = _canonical_order(values, vectors)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def count(self):
        return len(self.values)

    def is_full(self):
        return self.count == self.ambient_dim

    def norm(self):
        """Operator norm: largest eigenvalue magnitude."""
        return float(np.max(np.abs(self.values), initial=0.0))

    def matrix(self):
        """Dense action: sum of value * v v* over all pairs."""
        if not self.count:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        return (self.vectors.T * self.values) @ self.vectors.conj()


def check_hermitian(m, tol=numeric.HERMITIAN):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not numeric.within(m - m.conj().T, tol):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def diagonalize(m):
    """Full EigenSystem of a Hermitian matrix.

    Eigenvectors come out orthonormal and the eigen residuals are
    checked against tol_eig at the matrix norm.
    """
    m = check_hermitian(m)
    w, v = np.linalg.eigh(m)
    system = EigenSystem(m.shape[0], w, v.T)
    vectors = system.vectors.T
    resid = np.max(np.linalg.norm(m @ vectors - vectors * system.values, axis=0), initial=0.0)
    if not numeric.within(resid, tol_eig(system.norm())):
        raise ToleranceError(f"eigen residual {resid:.3e} out of tolerance")
    return system


def from_eigenpairs(pairs, ambient_dim):
    """Build an EigenSystem from (value, vector) pairs.

    Rejects non-finite or non-real eigenvalues and non-orthonormal
    vector families; duplicated vectors fail the orthonormality check.
    """
    values = []
    vectors = []
    for value, vector in pairs:
        value = complex(value)
        if not np.isfinite(value):
            raise ValidationError(f"eigenvalue {value} is not finite")
        if not numeric.within(abs(value.imag), numeric.REAL * (1.0 + abs(value))):
            raise ValidationError(f"eigenvalue {value} is not real")
        values.append(value.real)
        vectors.append(np.asarray(vector, dtype=complex))
    if not values:
        return EigenSystem(ambient_dim, np.zeros(0), np.zeros((0, ambient_dim)))
    return EigenSystem(ambient_dim, np.array(values), np.array(vectors))


def _expand(basis, x):
    """Coefficients of x on the orthonormal rows `basis`, and |x - (B* x) B|."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.shape[1],):
        raise ValidationError(
            f"vector has dimension {x.shape}, operator is {basis.shape[1]}-dimensional"
        )
    coeff = basis.conj() @ x
    return coeff, np.linalg.norm(x - coeff @ basis)


def apply(system, x):
    """Apply the operator; x must lie in the eigenvector span.

    Raises OutsideDomain with the residual when the projection onto the
    domain misses x by more than numeric.DOMAIN relative to |x|.
    """
    coeff, resid = _expand(system.vectors, x)
    if not numeric.within(resid, numeric.DOMAIN * np.linalg.norm(x)):
        raise OutsideDomain(resid)
    return (coeff * system.values) @ system.vectors


def in_domain(system, x):
    coeff, resid = _expand(system.vectors, x)
    return numeric.within(resid, numeric.DOMAIN * max(np.linalg.norm(x), numeric.NORM_FLOOR))


def orbit_span_dim(m, x, cap):
    """Dimension of span{x, Mx, M^2 x, ...}, capped at `cap` iterations.

    Grown as an orthonormal family; a new direction below numeric.KRYLOV
    after deflation ends the iteration.
    """
    if cap < 1:
        raise ValidationError("cap must be at least 1")
    m = np.asarray(m, dtype=complex)
    x = np.asarray(x, dtype=complex)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0
    basis = []
    v = x / nx
    for _ in range(min(int(cap), m.shape[0])):
        for b in basis:
            v = v - np.vdot(b, v) * b
        nv = np.linalg.norm(v)
        if numeric.within(nv, numeric.KRYLOV):
            break
        basis.append(v / nv)
        v = m @ basis[-1]
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        v = v / nv
    return len(basis)


def restrict(system, span_vectors):
    """Operator restricted to an invariant subspace of its domain.

    The ambient space is unchanged; only the eigenpair family shrinks.
    Raises NotInvariant (with the offending basis vector) when the
    operator maps the span outside itself.
    """
    basis = numeric.orth_rows(span_vectors)
    if basis.shape[0] == 0:
        return EigenSystem(system.ambient_dim, np.zeros(0), np.zeros((0, system.ambient_dim)))
    if basis.shape[1] != system.ambient_dim:
        raise ValidationError("span vectors have the wrong dimension")
    images = []
    for q in basis:
        y = apply(system, q)
        if not numeric.within(_expand(basis, y)[1], numeric.DOMAIN * (1.0 + np.linalg.norm(y))):
            raise NotInvariant(q)
        images.append(y)
    compressed = basis.conj() @ np.array(images).T
    compressed = (compressed + compressed.conj().T) / 2.0
    w, u = np.linalg.eigh(compressed)
    return EigenSystem(system.ambient_dim, w, u.T @ basis)


def project(span_vectors, x):
    """Orthogonal projection of x onto the span of the given vectors.

    The vectors must be linearly independent; the projection minimizes
    the distance to x and leaves an orthogonal residual.
    """
    rows = np.atleast_2d(np.asarray(span_vectors, dtype=complex))
    x = np.asarray(x, dtype=complex)
    basis = numeric.orth_rows(rows)
    if not len(basis) or len(basis) < len(rows):
        raise ValidationError("span vectors are linearly dependent")
    return (basis.conj() @ x) @ basis


def _domains_match(a, b):
    if a.count != b.count:
        return False
    return all(numeric.within(_expand(b.vectors, q)[1], numeric.DOMAIN) for q in a.vectors)


def commeasurable(systems):
    """True when all operators share one domain and commute on it."""
    systems = list(systems)
    if not systems:
        raise ValidationError("need at least one operator")
    d = systems[0].ambient_dim
    if any(s.ambient_dim != d for s in systems):
        raise ValidationError("operators have different ambient dimensions")
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            if not _domains_match(systems[i], systems[j]):
                return False
    if not systems[0].count:
        return True
    basis = systems[0].vectors
    mats = [s.matrix() for s in systems]
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            residuals = np.linalg.norm(comm @ basis.T, axis=0)
            if not numeric.within(residuals, tol_comm(systems[i].norm(), systems[j].norm())):
                return False
    return True


def joint_eigensystem(systems):
    """Joint orthonormal eigenbasis of commeasurable operators.

    Returns a list of (vector, values) with one eigenvalue per operator,
    obtained by recursively splitting eigenspaces.  Near-degenerate
    eigenvalues are clustered at tol_dedup of the value scale.
    """
    systems = list(systems)
    if not commeasurable(systems):
        raise NotCommeasurable("operators are not commeasurable")
    if not systems[0].count:
        return []
    blocks = [systems[0].vectors]
    for system in systems:
        m = system.matrix()
        td = tol_dedup(system.norm())
        refined = []
        for block in blocks:
            compressed = block.conj() @ m @ block.T
            compressed = (compressed + compressed.conj().T) / 2.0
            w, u = np.linalg.eigh(compressed)
            rows = u.T @ block
            refined.extend(rows[start:stop] for start, stop in numeric.clusters(w, td))
        blocks = refined
    mats = [s.matrix() for s in systems]
    out = []
    for block in blocks:
        for v in block:
            tup = tuple(float(np.real(np.vdot(v, m @ v))) for m in mats)
            out.append((v, tup))
    out.sort(key=lambda item: (tuple(round(t, 10) for t in item[1]), _vector_key(item[0])))
    return out


def functional_calculus(func, systems):
    """Operator F(A1, ..., An) on the joint eigenbasis.

    `func` receives one real eigenvalue per operator and must return a
    finite real number.
    """
    joint = joint_eigensystem(systems)
    d = systems[0].ambient_dim
    if not joint:
        return EigenSystem(d, np.zeros(0), np.zeros((0, d)))
    values = []
    for _, tup in joint:
        try:
            y = float(func(*tup))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"function value at {tup} is not real: {exc}") from None
        if not np.isfinite(y):
            raise ValidationError(f"function value {y} at {tup} is not finite")
        values.append(y)
    vectors = np.array([v for v, _ in joint])
    return EigenSystem(d, np.array(values), vectors)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients ascending, used for annihilators."""

    coeffs: tuple

    def __call__(self, t):
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1


def deduplicate_values(values, td=None):
    """Cluster sorted eigenvalues by gap and return one mean per cluster."""
    values = np.sort(np.asarray(values, dtype=float))
    if td is None:
        td = tol_dedup(np.max(np.abs(values), initial=0.0))
    return [float(np.mean(values[start:stop])) for start, stop in numeric.clusters(values, td)]


def minimal_polynomial(system):
    """Monic annihilator with one root per deduplicated eigenvalue."""
    roots = deduplicate_values(system.values)
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    return Polynomial(tuple(float(c) for c in np.real(coeffs)))


def is_complete(system):
    """True when the eigenvectors span the whole ambient space."""
    return system.is_full()


def complete_extension(system, extra_pairs):
    """Extend by explicit orthonormal eigenpairs up to a full operator."""
    extra = list(extra_pairs)
    if system.count + len(extra) != system.ambient_dim:
        raise ValidationError(
            f"{system.count} existing plus {len(extra)} new pairs do not fill "
            f"dimension {system.ambient_dim}"
        )
    pairs = list(zip(system.values, system.vectors)) + extra
    return from_eigenpairs(pairs, system.ambient_dim)


def is_extension(full_system, partial_system):
    """Does the full operator agree with the partial one on its domain?"""
    if not full_system.is_full():
        raise ValidationError("extension candidate must be a full operator")
    if full_system.ambient_dim != partial_system.ambient_dim:
        raise ValidationError("operators have different ambient dimensions")
    m = full_system.matrix()
    tol = tol_eig(full_system.norm())
    for value, vector in zip(partial_system.values, partial_system.vectors):
        if not numeric.within(np.linalg.norm(m @ vector - value * vector), tol):
            return False
    return True


def joint_generator(systems):
    """One operator A and tables f_i with each A_i = f_i(A).

    A acts as b -> beta(b) b on the joint eigenbasis, with beta the
    basis position; the tables send each beta value to the matching
    eigenvalue of A_i.
    """
    joint = joint_eigensystem(systems)
    d = systems[0].ambient_dim
    beta = np.arange(len(joint), dtype=float)
    vectors = (
        np.array([v for v, _ in joint]) if joint else np.zeros((0, d))
    )
    generator = EigenSystem(d, beta, vectors)
    tables = []
    for i in range(len(systems)):
        tables.append({float(b): joint[int(b)][1][i] for b in beta})
    return generator, tables


def table_function(table, tol=numeric.TABLE_MATCH):
    """Callable looking a value up in a finite table of sample points."""
    points = sorted(table.items())

    def evaluate(x):
        for key, val in points:
            if numeric.within(abs(x - key), tol):
                return val
        raise ValidationError(f"no table entry within {tol} of {x}")

    return evaluate
