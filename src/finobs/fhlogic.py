"""Finite-block operators over a countable atom set, and their logic.

An operator here acts as a finite matrix on finitely many named atoms
and as one scalar on every other atom.  The closed subspaces compatible
with that symmetry are spans of finitely many finite-support vectors,
optionally together with the full space over a cofinite set of atoms.
The lattice of such subspaces is modular but not distributive, and it
carries a two-valued dimension state that no density operator of the
class can reproduce.
"""

import cmath
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import numeric
from .errors import Inconsistent, NotEquivariant, ValidationError


@dataclass(frozen=True)
class FiniteSupportVector:
    """Vector with finitely many nonzero coordinates, keyed by atom id."""

    entries: tuple

    def __post_init__(self):
        raw = self.entries.items() if isinstance(self.entries, dict) else self.entries
        cleaned = {}
        for atom, value in raw:
            if not isinstance(atom, str):
                raise ValidationError("atom ids must be strings")
            value = complex(value)
            if not cmath.isfinite(value):
                raise ValidationError(f"atom {atom!r} has a non-finite coordinate")
            if atom in cleaned:
                raise ValidationError(f"atom {atom!r} listed twice")
            if value != 0:
                cleaned[atom] = value
        object.__setattr__(
            self, "entries", tuple((a, cleaned[a]) for a in sorted(cleaned))
        )

    def as_dict(self):
        return dict(self.entries)

    def support(self):
        return tuple(a for a, _ in self.entries)


@dataclass(eq=False)
class FHOperator:
    """Finite matrix on the atoms in `support`, scalar `tail` elsewhere."""

    support: tuple
    block: np.ndarray
    tail: complex
    symmetric: bool = False

    def __post_init__(self):
        support = tuple(self.support)
        if sorted(support) != list(support) or len(set(support)) != len(support):
            raise ValidationError("support must be sorted distinct atom ids")
        block = np.asarray(self.block, dtype=complex)
        if len(support) == 0 and block.size == 0:
            block = block.reshape(0, 0)
        if block.shape != (len(support), len(support)):
            raise ValidationError(
                f"block shape {block.shape} does not match support size {len(support)}"
            )
        tail = complex(self.tail)
        if not (np.isfinite(block).all() and cmath.isfinite(tail)):
            raise ValidationError("block and tail must be finite")
        if self.symmetric:
            if not numeric.hermitian(block, numeric.HERMITIAN):
                raise ValidationError("symmetric-flagged block is not Hermitian")
            if not numeric.within(abs(tail.imag), numeric.REAL * (1.0 + np.abs(tail))):
                raise ValidationError("symmetric-flagged tail must be real")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "tail", tail)


def fh_apply(op, v):
    """Apply the operator: block action on e, tail scalar off e."""
    index = {a: i for i, a in enumerate(op.support)}
    inside = np.zeros(len(op.support), dtype=complex)
    out = {}
    for atom, value in v.entries:
        if atom in index:
            inside[index[atom]] = value
        else:
            out[atom] = op.tail * value
    if len(op.support):
        image = op.block @ inside
        for i, atom in enumerate(op.support):
            out[atom] = image[i]
    return FiniteSupportVector(out)


def canonicalize(op, tol=0.0):
    """Drop every support atom whose row and column just repeat the tail."""
    # row and column i hold atom i's off-block entries and its diagonal minus the tail
    with np.errstate(over="ignore"):  # an entry that overflows is inf: within() keeps its atom
        resid = op.block - op.tail * np.eye(len(op.support))
    keep = [
        i
        for i in range(len(op.support))
        if not (numeric.within(resid[i], tol) and numeric.within(resid[:, i], tol))
    ]
    support = tuple(op.support[i] for i in keep)
    block = op.block[np.ix_(keep, keep)]
    return FHOperator(support, block, op.tail, op.symmetric)


def zero_sum_compatible(op):
    """Does the operator preserve vanishing coordinate sums?

    Holds exactly when every column of the block sums to the tail
    scalar; probing with two-atom differences across the support
    boundary recovers the same criterion.
    """
    c, block, tail = numeric.prescaled(op.block, op.tail)  # no sum or magnitude overflows
    scale = max(c, np.abs(tail), np.max(np.abs(block), initial=0.0))
    return numeric.within(np.sum(block, axis=0) - tail, numeric.ZERO_SUM * scale)


def fh_to_matrix(op, atoms):
    """Dense truncation over `atoms`, which must cover the support."""
    atoms = list(atoms)
    if len(set(atoms)) != len(atoms):
        raise ValidationError("atom window has repeats")
    index = {a: i for i, a in enumerate(atoms)}
    missing = [a for a in op.support if a not in index]
    if missing:
        raise ValidationError(f"window is missing support atoms {missing}")
    out = np.zeros((len(atoms), len(atoms)), dtype=complex)
    np.fill_diagonal(out, op.tail)
    inside = [index[a] for a in op.support]
    out[np.ix_(inside, inside)] = op.block
    return out


def decompose_equivariant(matrix, atoms):
    """Recover finite-block form from a concrete truncation.

    Finds the smallest support such that the matrix commutes with every
    transposition of two atoms outside it and acts as one scalar off the
    block.  The candidate is found by scanning for scalar-patterned
    atoms and confirmed by explicit re-verification.
    """
    atoms = list(atoms)
    matrix = np.asarray(matrix, dtype=complex)
    m = len(atoms)
    if m < 3:
        raise ValidationError("need at least three atoms to detect a tail")
    if matrix.shape != (m, m):
        raise ValidationError(f"matrix shape {matrix.shape} does not match {m} atoms")
    if len(set(atoms)) != m:
        raise ValidationError("atom window has repeats")
    if not np.isfinite(matrix).all():
        raise ValidationError("matrix entries must be finite")

    off = np.abs(matrix - np.diag(np.diag(matrix)))
    largest_off = np.maximum(np.max(off, axis=1), np.max(off, axis=0))
    isolated = [i for i in range(m) if numeric.within(largest_off[i], numeric.EQUIVARIANT)]

    # cluster the isolated diagonal values, largest cluster wins
    diag = np.real_if_close(np.diag(matrix))
    ordered = sorted(isolated, key=lambda i: (diag[i].real, diag[i].imag, i))
    runs = numeric.clusters(np.diag(matrix)[ordered], numeric.EQUIVARIANT)
    outside = max((ordered[start:stop] for start, stop in runs), key=len, default=[])
    if len(outside) < 2:
        raise NotEquivariant("no scalar tail pattern of size two or more")
    outside = sorted(outside)
    tail = complex(matrix[outside[0], outside[0]])
    keep = [i for i in range(m) if i not in set(outside)]

    # re-verify: transpositions outside the block leave the matrix fixed
    for u, v in combinations(outside, 2):
        perm = list(range(m))
        perm[u], perm[v] = perm[v], perm[u]
        if not numeric.within(matrix[np.ix_(perm, perm)] - matrix, numeric.EQUIVARIANT):
            raise NotEquivariant(
                f"transposition of atoms {atoms[u]!r}, {atoms[v]!r} moves the matrix"
            )

    support_atoms = [atoms[i] for i in keep]
    order = np.argsort(support_atoms)
    support = tuple(support_atoms[i] for i in order)
    rows = [keep[i] for i in order]
    block = matrix[np.ix_(rows, rows)]
    symmetric = numeric.hermitian(matrix, numeric.HERMITIAN)
    return canonicalize(FHOperator(support, block, tail, symmetric), tol=numeric.EQUIVARIANT)


def represent_functional(samples, window):
    """Recover (support, weights) of a zero-sum functional from probes.

    `samples` maps ordered atom pairs (a, b) to the functional applied
    to the difference vector e_a - e_b; at least one orientation per
    pair over `window` must be present.  The weights g satisfy
    f(e_a - e_b) = g(a) - g(b) with g zero off the support; atoms whose
    probes disagree beyond numeric.PROBE raise Inconsistent.
    """
    if not all(cmath.isfinite(complex(v)) for v in samples.values()):
        raise ValidationError("samples must be finite")
    window = sorted(window)
    if len(window) < 3:
        raise Inconsistent("window too small to isolate a zero class")

    def probe(a, b):
        if (a, b) in samples:
            return complex(samples[(a, b)])
        if (b, a) in samples:
            return -complex(samples[(b, a)])
        raise ValidationError(f"missing sample for atoms {a!r}, {b!r}")

    base = window[0]
    shifted = {a: (complex(probe(a, base)) if a != base else 0.0 + 0.0j) for a in window}

    # the zero class outside the support shows up as the largest cluster
    # of equal shifted values; cluster by transitive tolerance-closeness
    close = [
        (a, b) for a in window for b in window
        if a < b and numeric.within(abs(shifted[a] - shifted[b]), numeric.PROBE)
    ]
    zero_class = max(numeric.components(window, close), key=len)
    if len(zero_class) < 2:
        raise Inconsistent("no candidate zero class of size two; enlarge the window")
    zero_class = sorted(zero_class)

    weights = {}
    for a in window:
        if a in zero_class:
            continue
        values = [probe(a, z) for z in zero_class]
        spread = max(abs(v - values[0]) for v in values)
        if not numeric.within(spread, numeric.PROBE):
            raise Inconsistent(
                f"probe f(e_{a} - e_b) varies by {spread:.3e} over the zero class"
            )
        if not numeric.within(abs(values[0]), numeric.PROBE):
            weights[a] = values[0]

    support = tuple(sorted(weights))
    # full re-verification against every sampled pair
    for a in window:
        for b in window:
            if a == b:
                continue
            if (a, b) not in samples and (b, a) not in samples:
                continue
            predicted = weights.get(a, 0.0) - weights.get(b, 0.0)
            if not numeric.within(abs(probe(a, b) - predicted), numeric.PROBE_RECHECK):
                raise Inconsistent(
                    f"sample for ({a!r}, {b!r}) conflicts with the recovered weights"
                )
    return support, weights


@dataclass(eq=False)
class SymbolicSubspace:
    """Closed subspace: orthonormal `rows` over the sorted atom `window`,
    plus, when `cofinite`, the full space over every atom off the window.

    A finite subspace's window is exactly the atoms its rows touch; a
    cofinite one's is the least exclusion set, holding no atom whose
    basis vector lies in the span.  Rows are orthonormal to rounding when
    built, and only within SPAN when `checked_subspace` keeps them as
    stored, so a meet orthonormalizes its operands again; a join's SVD
    takes any rows.  `finite` and `exclude` are derived views.
    """

    window: tuple
    rows: np.ndarray
    cofinite: bool = False

    @property
    def exclude(self):
        return self.window if self.cofinite else None

    @property
    def finite(self):
        return tuple(FiniteSupportVector(zip(self.window, row)) for row in self.rows.tolist())

    def __repr__(self):
        return f"SymbolicSubspace(finite={self.finite!r}, exclude={self.exclude!r})"


def _vectors_to_rows(vectors, window):
    """One row per vector over `window`; coordinates off the window are dropped."""
    index = {a: i for i, a in enumerate(window)}
    rows = np.zeros((len(vectors), len(window)), dtype=complex)
    for r, v in enumerate(vectors):
        for atom, value in v.entries:
            if atom in index:
                rows[r, index[atom]] = value
    return rows


def _rows_over(space, window):
    """The space's rows with one column per atom of `window`, which covers its own."""
    index = {a: i for i, a in enumerate(window)}
    rows = np.zeros((len(space.rows), len(window)), dtype=complex)
    rows[:, [index[a] for a in space.window]] = space.rows
    return rows


def _drop_small(rows):
    """`rows` with every coordinate at or below ZERO_COORD made an exact zero."""
    return np.where(numeric.live(rows, numeric.ZERO_COORD), rows, 0)


def _touched(rows, window):
    """`rows` and `window` without the atoms whose column is all zero."""
    keep = rows.any(axis=0)
    return rows[:, keep], [a for a, k in zip(window, keep.tolist()) if k]


def _inside(rows):
    """Mask of the atoms whose basis vector lies in the span of orthonormal `rows`."""
    return (np.abs(rows) ** 2).sum(axis=0) >= 1.0 - numeric.INSIDE


def _canonical(rows, window, cofinite):
    """Canonical SymbolicSubspace spanned by `rows` over the sorted list
    `window`, plus the full space off the window when `cofinite`.

    A finite span keeps only the atoms its rows touch; a cofinite one
    releases every atom whose basis vector is in the span.  One cut
    releases them all in exact arithmetic; in floating point the cut
    repeats while the renormalized rest has an atom inside.
    """
    if not cofinite:
        rows, window = _touched(rows, window)
    rows = numeric.orth_rows(rows)
    while cofinite and (inside := _inside(rows)).any():
        rows = numeric.orth_rows(rows[:, ~inside])
        window = [a for a, released in zip(window, inside) if not released]
    rows = _drop_small(rows)
    if not cofinite:
        rows, window = _touched(rows, window)
    return SymbolicSubspace(tuple(window), rows, cofinite)


def _as_vectors(vectors):
    return [v if isinstance(v, FiniteSupportVector) else FiniteSupportVector(v) for v in vectors]


def subspace(vectors, exclude=None):
    """Canonical SymbolicSubspace from spanning vectors and an optional
    excluded atom window.

    Coordinates of the spanning vectors on non-excluded atoms are
    absorbed by the cofinite component; excluded atoms whose basis
    vector ends up inside the span are released from the exclusion set.
    """
    vectors = _as_vectors(vectors)
    if exclude is None:
        window = sorted({a for v in vectors for a in v.support()})
    else:
        window = sorted(str(a) for a in exclude)
        if len(set(window)) != len(window):
            raise ValidationError("excluded atoms must be distinct")
    return _canonical(_vectors_to_rows(vectors, window), window, exclude is not None)


def checked_subspace(vectors, exclude):
    """SymbolicSubspace from data already in canonical shape.

    Validates without renormalizing, so stored coordinates survive a
    load/save cycle byte for byte.  Returns None when the data is not
    canonical; callers then fall back to `subspace`.
    """
    vectors = _as_vectors(vectors)
    atoms = {a for v in vectors for a in v.support()}
    window = sorted(atoms) if exclude is None else [str(a) for a in exclude]
    if window != sorted(set(window)) or not atoms <= set(window):
        return None
    rows = _vectors_to_rows(vectors, window)
    if not numeric.orthonormal(rows, numeric.SPAN):
        return None
    if exclude is not None and np.any(_inside(rows)):
        return None
    return SymbolicSubspace(tuple(window), rows, exclude is not None)


def _full_rows(space, window):
    """The stored rows over `window`, plus a cofinite space's unit rows off its own window."""
    rows = _rows_over(space, window)
    if space.cofinite:
        free = [i for i, a in enumerate(window) if a not in space.window]
        rows = np.vstack([rows, np.eye(len(window), dtype=complex)[free]])
    return rows


def _joint_window(s1, s2):
    return sorted(set(s1.window) | set(s2.window))


def subspace_meet(s1, s2):
    """Lattice meet: the intersection of the orthonormalized operands in a shared window."""
    window = _joint_window(s1, s2)
    q1, q2 = (numeric.orth_rows(_full_rows(s, window)) for s in (s1, s2))
    shared = numeric.intersect_rows(q1, q2, numeric.SPAN)
    return _canonical(_drop_small(shared), window, s1.cofinite and s2.cofinite)


def subspace_join(s1, s2):
    """Lattice join: the closed sum, always inside the subspace class."""
    window = _joint_window(s1, s2)
    stacked = np.vstack([_full_rows(s1, window), _full_rows(s2, window)])
    return _canonical(_drop_small(stacked), window, s1.cofinite or s2.cofinite)


def subspace_equal(s1, s2):
    """Equality of canonical forms: same exclusion set, same finite span."""
    if s1.exclude != s2.exclude or len(s1.rows) != len(s2.rows):
        return False
    window = _joint_window(s1, s2)
    r1 = _rows_over(s1, window)
    r2 = _rows_over(s2, window)
    return numeric.within(r1.conj().T @ r1 - r2.conj().T @ r2, numeric.SPAN_EQUAL)


def is_orthogonal(s1, s2):
    """Orthogonality in the ambient space, cofinite parts included.

    Two subspaces with cofinite components always share directions far
    out in the atom set, so at most one member of an orthogonal family
    can carry one.
    """
    if s1.cofinite and s2.cofinite:
        return False
    window = _joint_window(s1, s2)
    r1 = _rows_over(s1, window)
    r2 = _rows_over(s2, window)
    if not numeric.within(r1.conj() @ r2.T, numeric.SPAN):
        return False
    finite_side, other = (s2, s1) if s1.cofinite else (s1, s2)
    # a finite span misses a cofinite part only if its window lies in the exclusion set
    return not other.cofinite or set(finite_side.window) <= set(other.window)


def two_valued_state(space):
    """Dimension state: 0 on finite-dimensional subspaces, 1 otherwise."""
    return 1 if space.cofinite else 0


def modularity_check(x, y, z):
    """Shearing form of the modular law on a subspace triple."""
    lhs = subspace_meet(x, subspace_join(y, z))
    inner = subspace_join(subspace_meet(y, subspace_join(x, z)), z)
    rhs = subspace_meet(x, inner)
    return subspace_equal(lhs, rhs)


@dataclass(frozen=True)
class SymbolicTrace:
    """Trace over a cofinite family: a finite number or INFINITE."""

    infinite: bool
    value: complex = None

    def __str__(self):
        return "INFINITE" if self.infinite else str(self.value)


@dataclass(frozen=True)
class DensityRefutation:
    """Outcome of testing a density candidate against the dimension state."""

    trace: SymbolicTrace
    state_value: int
    agrees: bool


def refute_density(density):
    """Witness showing no finite-block density matches the dimension state.

    Returns the cofinite projection off the density's support and the
    verdict: its symbolic trace is INFINITE when the tail is nonzero and
    0 when the tail vanishes, never the state value 1.
    """
    if not density.symmetric:
        raise ValidationError("density candidate must be symmetric-flagged")
    canonical = canonicalize(density)
    witness = subspace([], exclude=canonical.support)
    if canonical.tail != 0:
        trace = SymbolicTrace(infinite=True)
    else:
        trace = SymbolicTrace(infinite=False, value=0.0)
    verdict = DensityRefutation(trace=trace, state_value=two_valued_state(witness), agrees=False)
    return witness, verdict
