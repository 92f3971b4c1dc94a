"""Tolerance table and the numerical kernels the modules share.

Every tolerance the library compares a residual with is named here,
once, with what it guards, and so is each rule scaling one by the data
(`tol_eig`, `tol_comm`, `tol_dedup`).  Callers read them where they are
used; outside this module only `fhlogic.canonicalize` takes a tolerance.
Residuals meet them only in `within`, which an inf or NaN residual or
tolerance fails.  The `verify` pass bounds are kept apart, as an independent
reference, in `verify.BOUNDS`, and an inf or NaN worst residual fails its
check there too.  Overflow has one rule: norms of user data go through
`norm`, inf only when the norm is; other arithmetic that may overflow runs
under `np.errstate`, and `within` or `np.isfinite` then rejects its inf or NaN.
"""

import math

import numpy as np

from .errors import ValidationError

HERMITIAN = 1e-9  # largest |M - M*| entry of a Hermitian matrix
REAL = 1e-12  # imaginary part of a real eigenvalue or tail, per unit of 1 + |value|
ORTH = 1e-9  # largest |V V* - I| entry of orthonormal rows
DOMAIN = 1e-8  # distance from x to an operator domain, per unit of |x|
EIG = 1e-8  # eigen residual, per unit of 1 + operator norm
COMM = 1e-8  # commutator residual, per unit of 1 + |A| |B|
DEDUP = 1e-8  # eigenvalue gap still inside one cluster, per unit of 1 + largest |value|
SPAN = 1e-9  # rank cut-off per unit of max(s[0], 1); lattice angle, release and overlap cut-off
INSIDE = 10 * SPAN  # shortfall from 1 of an atom's squared projection length inside a span
KRYLOV = 1e-9  # deflated unit orbit vector length at which the orbit stops growing
TABLE_MATCH = 1e-6  # distance at which a sample point answers a function lookup
STATE = 1e-9  # deviation of |psi| from 1
TRACE = 1e-9  # deviation of a density's trace from 1
PSD = 1e-10  # most negative eigenvalue a density may have
CONCAT = 1e-8  # largest entry of exp(-iC) - exp(-iA) exp(-iB)
ANGLE = 1e-9  # 1 - cos of the largest principal angle between shared directions
SHARED_RAY = 1e-8  # deviation of |<e0, ray>| from 1 for a complementary pair
SPAN_EQUAL = 1e-8  # largest projector entry difference of equal subspaces
ZERO_COORD = 1e-14  # coordinate magnitude dropped when rows become atom vectors
ZERO_SUM = 1e-12  # column-sum mismatch, per unit of the largest entry or tail
EQUIVARIANT = 1e-10  # entry mismatch tolerated in a recovered finite-block form
PROBE = 1e-9  # disagreement between probes of one zero-sum functional
PROBE_RECHECK = 10 * PROBE  # gap between a sampled probe and the recovered weights' prediction
SUPPORT = 1e-12  # coefficient magnitude of a live Fock component
ALTERNATION = 1e-12  # sign-law mismatch in a signed tensor, per unit of max(|entry|, 1)
VECTOR_KEY_DIGITS = 12  # decimals of the eigenvector components ordering a degenerate cluster
JOINT_KEY_DIGITS = 10  # decimals of the eigenvalue tuples ordering a joint eigenbasis


def tol_eig(scale):
    """Residual tolerance for eigen equations at the given operator norm."""
    return EIG * (1.0 + float(scale))


def tol_comm(norm_a, norm_b, scale=1.0):
    """Commutator tolerance; for A / 2**i and B / 2**j, their norms and scale 2**-(i + j)."""
    return COMM * (scale + float(norm_a) * float(norm_b))


def tol_dedup(value_scale):
    return DEDUP * (1.0 + float(value_scale))


def integer(value, what):
    """`value` as an int; a bool, float, str or other non-integer fails closed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def within(residual, tol):
    """residual <= tol, both finite; an array counts as its largest |entry| (0 if empty)."""
    if isinstance(residual, np.ndarray):
        residual = np.max(np.abs(residual), initial=0.0)
    return bool(abs(residual) < math.inf and residual <= tol < math.inf)


def scale_exponent(x):
    """k with x / 2**k safe to square: 0 in range, else max(|Re x|, |Im x|)'s exponent, clamped."""
    x = np.asarray(x)
    re, im = x.real, x.imag  # reduced in place: a large x gets no temporary copy
    peak = max(re.max(initial=0.0), -re.min(initial=0.0), im.max(initial=0.0), -im.min(initial=0.0))
    k = math.frexp(peak)[1]  # 0 for an inf or NaN peak, which a complex scale would warn on
    return 0 if abs(k) < 480 else min(max(k, -1022), 1022)


def prescaled(*arrays):
    """c = 2**-max(k, 0), k the largest scale_exponent of `arrays`, and each array times c (exact)."""
    c = 2.0 ** -max(*map(scale_exponent, arrays), 0)
    return (c, *(x * c for x in arrays))


def norm(x, axis=None):
    """np.linalg.norm(x, axis=axis) taken on x / 2**k, k = scale_exponent(x) (Blue
    1978); the scaling is exact, so in range the bits agree."""
    k = scale_exponent(x)
    if not k:
        return np.linalg.norm(x, axis=axis)
    with np.errstate(over="ignore"):  # the product overflows only when the norm does
        return np.linalg.norm(np.asarray(x) * 2.0**-k, axis=axis) * 2.0**k


def hermitian(m, tol):
    """Is the square matrix m Hermitian within `tol`?  A skew part that overflows is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        return within(m - m.conj().T, tol)


def orthonormal(rows, tol):
    """Are the rows orthonormal within `tol`?  A Gram product that overflows is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows @ rows.conj().T
        gram.flat[:: len(rows) + 1] -= 1.0  # gram - I, in place
    return within(gram, tol)


def live(values, tol):
    """Mask of the entries whose magnitude exceeds `tol`; NaN is live."""
    return ~(np.abs(values) <= tol)


def clusters(values, td):
    """Yield (start, stop) runs of sorted `values` whose gaps are at most `td` in magnitude."""
    with np.errstate(over="ignore"):  # a gap that overflows is inf, so it splits
        near = (np.abs(values[1:] - values[:-1]) <= td).tolist()
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or not near[i - 1]:
            yield start, i
            start = i


def orth_rows(rows):
    """Orthonormal rows spanning `rows`, dropping singular values at or
    below SPAN times max(largest singular value, 1)."""
    if type(rows) is not np.ndarray or rows.dtype != complex or rows.ndim != 2:
        rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    if rows.size == 0:
        return np.zeros((0, rows.shape[-1] if rows.ndim == 2 else 0), dtype=complex)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: np.count_nonzero(s > SPAN * max(float(s[0]), 1.0))]


def intersect_rows(q1, q2, tol):
    """Orthonormal rows spanning the meet of two orthonormal row spans.

    The principal directions of the two spans (Bjorck and Golub 1973)
    whose cosine is at least 1 - `tol` are the shared ones.
    """
    u, s, _ = np.linalg.svd(q1.conj() @ q2.T)
    return u[:, : np.count_nonzero(s >= 1.0 - tol)].T @ q1


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
