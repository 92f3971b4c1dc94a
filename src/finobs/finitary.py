"""Eigendata operators: symmetric maps given by finitely many eigenpairs.

An operator is stored as an orthonormal family of eigenvectors with real
eigenvalues inside an ambient complex space.  Its domain is the span of
the eigenvectors; everything else (application, restriction, joint
diagonalization, functional calculus) is derived from that data.
"""

import functools
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from . import numeric
from .errors import (
    NotCommeasurable,
    NotInvariant,
    OutsideDomain,
    ToleranceError,
    ValidationError,
)

JOINT_FAMILIES = 4  # operator lists whose joint decomposition (and operators) `_joint` keeps


def _vector_key(v):
    # lexicographic key on rounded components; fixes ordering inside
    # degenerate eigenvalue clusters
    r = np.round(v.real, numeric.VECTOR_KEY_DIGITS) + 0.0
    i = np.round(v.imag, numeric.VECTOR_KEY_DIGITS) + 0.0
    return tuple(np.column_stack([r, i]).ravel().tolist())


@dataclass(eq=False, frozen=True)
class EigenSystem:
    """Operator data: `vectors[i]` is the eigenvector for `values[i]`.

    Vectors are rows of shape (count, ambient_dim), pairwise orthonormal
    within numeric.ORTH; values are real and finite, stored ascending
    with a deterministic tie-break inside near-degenerate clusters.
    Immutable, arrays included, so the validated data stays valid.
    """

    ambient_dim: int
    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", numeric.integer(self.ambient_dim, "ambient_dim"))
        values = np.atleast_1d(np.asarray(self.values))
        if np.iscomplexobj(values) or not np.isfinite(values).all():
            for value in values.astype(complex).tolist():
                if not np.isfinite(value):
                    raise ValidationError(f"eigenvalue {value} is not finite")
                if not numeric.within(abs(value.imag), numeric.REAL * (1.0 + abs(value))):
                    raise ValidationError(f"eigenvalue {value} is not real")
        values = np.asarray(values.real, dtype=float)
        vectors = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if vectors.shape != (len(values), self.ambient_dim):
            raise ValidationError(
                f"expected {len(values)} vectors of dimension {self.ambient_dim}, "
                f"got shape {vectors.shape}"
            )
        if len(values) > self.ambient_dim:
            raise ValidationError("more eigenpairs than ambient dimensions")
        if not numeric.orthonormal(vectors, numeric.ORTH):
            raise ValidationError("eigenvectors are not orthonormal")
        order = np.argsort(values, kind="stable")
        object.__setattr__(self, "values", values[order])
        tie_broken = []
        for start, stop in self.clusters():
            group = order[start:stop]
            if len(group) > 1:
                group = sorted(group, key=lambda j: _vector_key(vectors[j]))
            tie_broken.extend(group)
        for name, array in (("values", values[tie_broken]), ("vectors", vectors[tie_broken])):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def count(self):
        return len(self.values)

    def norm(self):
        """Operator norm: largest eigenvalue magnitude."""
        return float(np.abs(self.values).max(initial=0.0))

    def clusters(self):
        """(start, stop) runs of near-equal values, gaps within numeric.tol_dedup of the norm,
        read off the sorted values: the tie-break reorders values only inside a run."""
        return list(numeric.clusters(np.sort(self.values), numeric.tol_dedup(self.norm())))

    def matrix(self):
        """Dense action: sum of value * v v* over all pairs."""
        return (self.vectors.T * self.values) @ self.vectors.conj()


def check_hermitian(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not numeric.hermitian(m, numeric.HERMITIAN):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def diagonalize(m):
    """Full EigenSystem of a Hermitian matrix.

    Eigenvectors come out orthonormal and the eigen residuals are
    checked against numeric.tol_eig at the matrix norm.
    """
    m = check_hermitian(m)
    w, v = np.linalg.eigh(m)
    system = EigenSystem(m.shape[0], w, v.T)
    del w, v  # the system holds its own copies
    vectors = system.vectors.T
    image = m @ vectors
    image -= vectors * system.values
    resid = np.max(numeric.norm(image, axis=0), initial=0.0)
    if not numeric.within(resid, numeric.tol_eig(system.norm())):
        raise ToleranceError(f"eigen residual {resid:.3e} out of tolerance")
    return system


def from_eigenpairs(pairs, ambient_dim):
    """Build an EigenSystem from (value, vector) pairs.

    Rejects vectors not of length `ambient_dim`; EigenSystem rejects
    non-finite or non-real eigenvalues and non-orthonormal vector
    families, so duplicated vectors fail the orthonormality check.
    """
    pairs = [(complex(value), np.asarray(vector, dtype=complex)) for value, vector in pairs]
    for i, (_, vector) in enumerate(pairs):
        if vector.shape != (ambient_dim,):
            raise ValidationError(f"eigenvector {i} has shape {vector.shape}, not ({ambient_dim},)")
    values = np.array([value for value, _ in pairs], dtype=complex)
    vectors = np.array([vector for _, vector in pairs]).reshape(len(pairs), ambient_dim)
    return EigenSystem(ambient_dim, values, vectors)


def _expand(basis, x):
    """Coefficients of x on the orthonormal rows `basis`, and |x - (B* x) B|."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.shape[1],):
        raise ValidationError(
            f"vector has dimension {x.shape}, operator is {basis.shape[1]}-dimensional"
        )
    coeff = basis.conj() @ x
    return coeff, numeric.norm(x - coeff @ basis)


def _domain_coefficients(system, x):
    """Coefficients of x; OutsideDomain if the domain misses x by over DOMAIN |x|."""
    # the coefficients overflow only when |x| does; within() then fails closed
    with np.errstate(over="ignore", invalid="ignore"):
        coeff, resid = _expand(system.vectors, x)
    if not numeric.within(resid, numeric.DOMAIN * numeric.norm(x)):
        raise OutsideDomain(resid)
    return coeff


def apply(system, x):
    """Apply the operator; x must lie in the eigenvector span and its image be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        image = (_domain_coefficients(system, x) * system.values) @ system.vectors
    if not np.isfinite(image).all():
        raise ValidationError("operator image overflows")
    return image


def in_domain(system, x):
    try:
        _domain_coefficients(system, x)
    except OutsideDomain:
        return False
    return True


def orbit_span_dim(m, x, cap):
    """Dimension of span{x, Mx, M^2 x, ...}, capped at `cap` iterations.

    Grown as an orthonormal family; a new direction below numeric.KRYLOV
    after deflation ends the iteration.
    """
    if cap < 1:
        raise ValidationError("cap must be at least 1")
    m = np.asarray(m, dtype=complex)
    x = np.asarray(x, dtype=complex)
    nx = numeric.norm(x)
    if nx == 0.0:
        return 0
    basis = []
    v = x / nx
    for _ in range(min(int(cap), m.shape[0])):
        for b in basis:
            v = v - np.vdot(b, v) * b
        nv = numeric.norm(v)
        if numeric.within(nv, numeric.KRYLOV):
            break
        basis.append(v / nv)
        v = m @ basis[-1]
        nv = numeric.norm(v)
        if nv == 0.0:
            break
        v = v / nv
    return len(basis)


def _eigh_on(compressed, basis):
    """Eigenvalues of the Hermitian part of `compressed`, an operator on the
    span of the rows `basis`, and its eigenvectors as rows of the ambient space."""
    k = numeric.scale_exponent(compressed)  # over 2**k, exact, so the sum cannot overflow
    if k:
        compressed = compressed * 2.0**-k
    w, u = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
    return w * 2.0**k, u.T @ basis


def restrict(system, span_vectors):
    """Operator restricted to an invariant subspace of its domain.

    The ambient space is unchanged; only the eigenpair family shrinks.
    Raises NotInvariant (with the offending basis vector) when the
    operator maps the span outside itself.
    """
    basis = numeric.orth_rows(span_vectors)
    if basis.shape[1] != system.ambient_dim:
        raise ValidationError("span vectors have the wrong dimension")
    if basis.shape[0] == 0:
        return EigenSystem(system.ambient_dim, np.zeros(0), np.zeros((0, system.ambient_dim)))
    images = []
    for q in basis:
        y = apply(system, q)
        if not numeric.within(_expand(basis, y)[1], numeric.DOMAIN * (1.0 + numeric.norm(y))):
            raise NotInvariant(q)
        images.append(y)
    return EigenSystem(system.ambient_dim, *_eigh_on(basis.conj() @ np.array(images).T, basis))


def _domains_match(a, b):
    """Same count, and each row of a within DOMAIN |row| of b's span, as `in_domain` tests."""
    rows = a.vectors
    resid = numeric.norm(rows - (rows @ b.vectors.conj().T) @ b.vectors, axis=1).tolist()
    tols = (numeric.DOMAIN * numeric.norm(rows, axis=1)).tolist()
    return a.count == b.count and all(map(numeric.within, resid, tols))


def _commeasurable_matrices(systems):
    """Each operator's matrix(); NotCommeasurable unless the operators are commeasurable."""
    if not systems:
        raise ValidationError("need at least one operator")
    d = systems[0].ambient_dim
    if any(s.ambient_dim != d for s in systems):
        raise ValidationError("operators have different ambient dimensions")
    if not all(_domains_match(a, b) for a, b in combinations(systems, 2)):
        raise NotCommeasurable("operators are not commeasurable")
    basis = systems[0].vectors
    dense = [s.matrix() for s in systems]
    scales, mats = zip(*map(numeric.prescaled, dense))  # so products cannot overflow
    for (a, ma, ca), (b, mb, cb) in combinations(zip(systems, mats, scales), 2):
        residuals = numeric.norm((ma @ mb - mb @ ma) @ basis.T, axis=0)
        if not numeric.within(residuals, numeric.tol_comm(a.norm() * ca, b.norm() * cb, ca * cb)):
            raise NotCommeasurable("operators are not commeasurable")
    return dense


def _joint_of(systems):
    """`_joint` of the listed operators, each of which must be an EigenSystem."""
    systems = tuple(systems)
    if not all(isinstance(s, EigenSystem) for s in systems):
        raise ValidationError("every operator must be an EigenSystem")
    return _joint(systems)


@functools.lru_cache(maxsize=JOINT_FAMILIES)  # keyed on identity: EigenSystem has eq=False
def _joint(systems):
    """Read-only joint eigenvectors (rows) and one value tuple per row of the
    commeasurable operators in the tuple `systems`; else NotCommeasurable."""
    mats = _commeasurable_matrices(systems)
    blocks = [systems[0].vectors]
    for system, m in zip(systems, mats):
        td = numeric.tol_dedup(system.norm())
        refined = []
        for block in blocks:
            if len(block) == 1:  # eigh's 1 x 1 eigenvector is 1, and u.T @ block is block + 0.0
                refined.append(block + 0.0)
                continue
            w, rows = _eigh_on(block.conj() @ m @ block.T, block)
            refined.extend(rows[start:stop] for start, stop in numeric.clusters(w, td))
        blocks = refined
    out = [
        (v, tuple(float(np.vdot(v, m @ v).real) for m in mats))
        for block in blocks for v in block
    ]
    digits = numeric.JOINT_KEY_DIGITS
    keyed = sorted(((tuple(round(t, digits) for t in tup), v, tup) for v, tup in out),
                   key=lambda item: item[0])
    out = []
    for _, run in groupby(keyed, key=lambda item: item[0]):  # stable: ties go on to vector keys
        run = [(v, tup) for _, v, tup in run]
        out += sorted(run, key=lambda item: _vector_key(item[0])) if len(run) > 1 else run
    vectors = np.array([v for v, _ in out], dtype=complex).reshape(len(out), systems[0].ambient_dim)
    vectors.setflags(write=False)  # shared by every call on this operator list
    return vectors, tuple(tup for _, tup in out)


def commeasurable(systems):
    """True when all operators share one domain and commute on it."""
    try:
        _joint_of(systems)
    except NotCommeasurable:
        return False
    return True


def joint_eigensystem(systems):
    """Joint orthonormal eigenbasis of commeasurable operators.

    Returns a new list of (vector, values) with one eigenvalue per operator,
    obtained by recursively splitting eigenspaces.  Near-degenerate
    eigenvalues are clustered at numeric.tol_dedup of the value scale.
    The vectors are read-only; calls on one operator list share them.
    """
    return list(zip(*_joint_of(systems)))


def functional_calculus(func, systems):
    """Operator F(A1, ..., An) on the joint eigenbasis.

    `func` receives one real eigenvalue per operator and must return a
    finite real number.
    """
    joint = joint_eigensystem(systems)
    d = systems[0].ambient_dim
    values = []
    for _, tup in joint:
        try:
            y = float(func(*tup))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"function value at {tup} is not real: {exc}") from None
        if not np.isfinite(y):
            raise ValidationError(f"function value {y} at {tup} is not finite")
        values.append(y)
    vectors = np.array([v for v, _ in joint]).reshape(len(joint), d)
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


def minimal_polynomial(system):
    """Monic annihilator with one root per deduplicated eigenvalue."""
    roots = [float(np.mean(np.sort(system.values[start:stop]))) for start, stop in system.clusters()]
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.real(np.polynomial.polynomial.polyfromroots(roots))
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError("minimal polynomial coefficients overflow")
    return Polynomial(tuple(float(c) for c in coeffs))


def is_complete(system):
    """True when the eigenvectors span the whole ambient space."""
    return system.count == system.ambient_dim


def joint_generator(systems):
    """One operator A and tables f_i with each A_i = f_i(A).

    A acts as b -> beta(b) b on the joint eigenbasis, with beta the
    basis position; the tables send each beta value to the matching
    eigenvalue of A_i.
    """
    vectors, tuples = _joint_of(systems)
    beta = np.arange(len(tuples), dtype=float)
    generator = EigenSystem(vectors.shape[1], beta, vectors)
    return generator, [{float(b): tuples[int(b)][i] for b in beta} for i in range(len(systems))]


def table_function(table):
    """Callable looking a value up in a finite table of sample points."""
    points = sorted(table.items())

    def evaluate(x):
        for key, val in points:
            if numeric.within(abs(x - key), numeric.TABLE_MATCH):
                return val
        raise ValidationError(f"no table entry within {numeric.TABLE_MATCH} of {x}")

    return evaluate
