"""Tolerance table and the numerical kernels the modules share.

Every tolerance the library compares a residual with is named here,
once, with what it guards, and so is each rule scaling one by the data
(`tol_eig`, `tol_comm`, `tol_dedup`).  Callers read them where they are
used; outside this module only `fhlogic.canonicalize` takes a tolerance.
Residuals meet them only in `within`, which a NaN residual fails; the
`verify` pass thresholds are separate, as an independent reference.
"""

import numpy as np

HERMITIAN = 1e-9  # largest |M - M*| entry of a Hermitian matrix
REAL = 1e-12  # imaginary part of a real eigenvalue or tail, per unit of 1 + |value|
ORTH = 1e-9  # largest |V V* - I| entry of orthonormal rows
DOMAIN = 1e-8  # distance from x to an operator domain, per unit of |x|
EIG = 1e-8  # eigen residual, per unit of 1 + operator norm
COMM = 1e-8  # commutator residual, per unit of 1 + |A| |B|
DEDUP = 1e-8  # eigenvalue gap still inside one cluster, per unit of 1 + largest |value|
SPAN = 1e-9  # rank cut-off per unit of max(s[0], 1); lattice angle, release and overlap cut-off
KRYLOV = 1e-9  # deflated unit orbit vector length at which the orbit stops growing
TABLE_MATCH = 1e-6  # distance at which a sample point answers a function lookup
STATE = 1e-9  # deviation of |psi| from 1
TRACE = 1e-9  # deviation of a density's trace from 1
PSD = 1e-10  # most negative eigenvalue a density may have
UNITARY = 1e-8  # largest |U* U - I| entry
CONCAT = 1e-8  # largest entry of exp(-iC) - exp(-iA) exp(-iB)
ANGLE = 1e-9  # 1 - cos of the largest principal angle between shared directions
SHARED_RAY = 1e-8  # deviation of |<e0, ray>| from 1 for a complementary pair
SPAN_EQUAL = 1e-8  # largest projector entry difference of equal subspaces
ZERO_COORD = 1e-14  # coordinate magnitude dropped when rows become atom vectors
ZERO_SUM = 1e-12  # column-sum mismatch, per unit of the largest entry or tail
EQUIVARIANT = 1e-10  # entry mismatch tolerated in a recovered finite-block form
PROBE = 1e-9  # disagreement between probes of one zero-sum functional
SUPPORT = 1e-12  # coefficient magnitude of a live Fock component
ALTERNATION = 1e-12  # sign-law mismatch in a signed tensor, per unit of max(|entry|, 1)


def tol_eig(scale):
    """Residual tolerance for eigen equations at the given operator norm."""
    return EIG * (1.0 + float(scale))


def tol_comm(norm_a, norm_b):
    return COMM * (1.0 + float(norm_a) * float(norm_b))


def tol_dedup(value_scale):
    return DEDUP * (1.0 + float(value_scale))


def within(residual, tol):
    """residual <= tol, False for NaN; an array counts as its largest |entry| (0 if empty)."""
    if isinstance(residual, np.ndarray):
        residual = np.max(np.abs(residual), initial=0.0)
    return bool(residual <= tol)


def orthonormal(rows, tol):
    """Are the rows orthonormal within `tol`?  A Gram product that overflows is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows @ rows.conj().T
    return within(gram - np.eye(len(rows)), tol)


def live(values, tol):
    """Mask of the entries whose magnitude exceeds `tol`; NaN is live."""
    return ~(np.abs(values) <= tol)


def clusters(values, td):
    """Yield (start, stop) runs of sorted `values` whose gaps are at most `td` in magnitude."""
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or not abs(values[i] - values[i - 1]) <= td:
            yield start, i
            start = i


def orth_rows(rows):
    """Orthonormal rows spanning `rows`, dropping singular values at or
    below SPAN times max(largest singular value, 1)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    if rows.size == 0:
        return np.zeros((0, rows.shape[-1] if rows.ndim == 2 else 0), dtype=complex)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: int(np.sum(s > SPAN * max(float(s[0]), 1.0)))]


def intersect_rows(q1, q2, tol):
    """Orthonormal rows spanning the meet of two orthonormal row spans.

    The principal directions of the two spans (Bjorck and Golub 1973)
    whose cosine is at least 1 - `tol` are the shared ones.
    """
    u, s, _ = np.linalg.svd(q1.conj() @ q2.T)
    return u[:, : int(np.sum(s >= 1.0 - tol))].T @ q1


def components(items, pairs):
    """Connected components of `items` under the linked `pairs`.

    Each component lists its members in item order; components come in
    the order of their first member.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    groups = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())
