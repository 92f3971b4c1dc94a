"""Indistinguishable pair families and their antisymmetric tensor space.

Each pair {a_n, b_n} carries the one-dimensional space of vectors with
x(a_n) + x(b_n) = 0, so a pair vector is determined by its value on the
a sock.  Products over a choice of one sock per pair give tensors that
flip sign with every swapped choice; the span of those tensors for each
pair count N is one-dimensional, generated by the unit vector u_N built
from values 1/sqrt2.  Truncated Fock vectors store coefficients over
u_0, u_1, ..., u_M.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import ValidationError

MAX_PAIRS_TENSOR = 16
MAX_PAIRS_FOCK = 32


@dataclass(frozen=True)
class PairFamily:
    """Countable family of disjoint sock pairs, truncated at `size`."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValidationError("family size must be nonnegative")

    def labels(self, n):
        if not 0 <= n < self.size:
            raise ValidationError(f"pair index {n} outside family of size {self.size}")
        return (f"a{n}", f"b{n}")


@dataclass(frozen=True)
class PairVector:
    """Element of the zero-sum line over pair `pair`; value at the a sock."""

    pair: int
    a_value: complex

    def __post_init__(self):
        if self.pair < 0:
            raise ValidationError("pair index must be nonnegative")
        object.__setattr__(self, "a_value", complex(self.a_value))
        if not cmath.isfinite(self.a_value):
            raise ValidationError("a_value must be finite")

    @property
    def b_value(self):
        return -self.a_value


def pair_inner(x, y):
    """Inner product on one zero-sum line: both socks contribute."""
    if x.pair != y.pair:
        raise ValidationError("pair vectors over different pairs")
    return 2.0 * x.a_value * np.conj(y.a_value)


@dataclass(frozen=True)
class ChoiceFunction:
    """One sock per pair over pairs 0..length-1; bit 1 picks the b sock."""

    length: int
    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if len(bits) != self.length or any(b not in (0, 1) for b in bits):
            raise ValidationError("bits must be 0/1 of the stated length")
        object.__setattr__(self, "bits", bits)

    @property
    def index(self):
        """Position in lexicographic a-before-b order; bit 0 most significant."""
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    @classmethod
    def from_index(cls, length, index):
        if not 0 <= index < (1 << length):
            raise ValidationError(f"index {index} out of range for length {length}")
        bits = tuple((index >> (length - 1 - i)) & 1 for i in range(length))
        return cls(length, bits)


def _parities(size):
    v = np.arange(size)
    out = np.zeros(size, dtype=np.int64)
    while v.any():
        out += v & 1
        v = v >> 1
    return out & 1


@dataclass(eq=False)
class SignedTensor:
    """Function on the 2^N choice functions, alternating in sock swaps.

    The table is indexed lexicographically with the a sock first.  The
    alternation law pins every entry to the all-a entry up to sign, and
    that reduction is what gets validated.
    """

    length: int
    table: np.ndarray

    def __post_init__(self):
        if not 0 <= self.length <= MAX_PAIRS_TENSOR:
            raise ValidationError(f"tensor length must be in 0..{MAX_PAIRS_TENSOR}")
        table = np.asarray(self.table, dtype=complex).reshape(-1)
        if len(table) != (1 << self.length):
            raise ValidationError(
                f"table needs {1 << self.length} entries, got {len(table)}"
            )
        signs = 1.0 - 2.0 * _parities(len(table))
        scale = max(np.max(np.abs(table), initial=0.0), 1.0)
        if not numeric.within(table - signs * table[0], numeric.ALTERNATION * scale):
            raise ValidationError("table entries violate the sign alternation law")
        object.__setattr__(self, "table", table)

    def value(self, choice):
        if choice.length != self.length:
            raise ValidationError("choice function has the wrong length")
        return complex(self.table[choice.index])


def pair_tensor(pair_vectors):
    """Product tensor of pair vectors over consecutive pairs 0..N-1."""
    vectors = sorted(pair_vectors, key=lambda p: p.pair)
    indices = [p.pair for p in vectors]
    if indices != list(range(len(vectors))):
        raise ValidationError(
            f"pair indices must be exactly 0..{len(vectors) - 1}, got {indices}"
        )
    n = len(vectors)
    if n > MAX_PAIRS_TENSOR:
        raise ValidationError(f"at most {MAX_PAIRS_TENSOR} pairs supported")
    amplitude = np.prod([p.a_value for p in vectors]) if n else 1.0
    signs = 1.0 - 2.0 * _parities(1 << n)
    return SignedTensor(n, amplitude * signs)


def tensor_inner(x, y):
    """Inner product as the full sum over choice functions."""
    if x.length != y.length:
        raise ValidationError("tensors over different pair counts")
    return complex(np.sum(x.table * np.conj(y.table)))


@dataclass(eq=False)
class TruncatedFockVector:
    """Coefficients over the unit generators u_0 .. u_M."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if len(coeffs) == 0:
            raise ValidationError("need at least the u_0 coefficient")
        if len(coeffs) > MAX_PAIRS_FOCK + 1:
            raise ValidationError(f"at most {MAX_PAIRS_FOCK + 1} components supported")
        if not np.isfinite(coeffs).all():
            raise ValidationError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def max_pairs(self):
        return len(self.coeffs) - 1

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


def fock_basis_vector(n, max_pairs):
    """The generator u_n inside a truncation with components 0..max_pairs."""
    if not 0 <= n <= max_pairs:
        raise ValidationError(f"generator index {n} outside 0..{max_pairs}")
    coeffs = np.zeros(max_pairs + 1, dtype=complex)
    coeffs[n] = 1.0
    return TruncatedFockVector(coeffs)


def generator_tensor(n):
    """u_n in tensor form: the product of pair vectors with value 1/sqrt2."""
    return pair_tensor([PairVector(i, 1.0 / np.sqrt(2.0)) for i in range(n)])


def apply_diagonal(diag, v):
    """Operator acting as the scalar diag[n] on the u_n component."""
    if len(diag) < len(v.coeffs):
        raise ValidationError(
            f"need {len(v.coeffs)} diagonal values, got {len(diag)}"
        )
    factors = np.asarray(list(diag)[: len(v.coeffs)], dtype=complex)
    return TruncatedFockVector(factors * v.coeffs)


def apply_pair_diagonal(lambdas, pair_vectors):
    """Scale each pair component n by lambdas[n]."""
    vectors = list(pair_vectors)
    pairs = [p.pair for p in vectors]
    if len(set(pairs)) != len(pairs):
        raise ValidationError("repeated pair index in direct-sum element")
    needed = max(pairs, default=-1) + 1
    if len(lambdas) < needed:
        raise ValidationError(f"need {needed} scalars, got {len(lambdas)}")
    lam = list(lambdas)
    return [PairVector(p.pair, lam[p.pair] * p.a_value) for p in vectors]


@dataclass(frozen=True)
class FlipAction:
    """Swap the two socks inside each listed pair."""

    pairs: frozenset

    def __post_init__(self):
        pairs = frozenset(int(p) for p in self.pairs)
        if any(p < 0 for p in pairs):
            raise ValidationError("pair indices must be nonnegative")
        object.__setattr__(self, "pairs", pairs)

    def sign(self, n):
        """Sign picked up by the u_n component: one flip per pair below n."""
        return -1.0 if len([p for p in self.pairs if p < n]) % 2 else 1.0


def flip(action, v):
    """Apply a flip action to a truncated Fock vector."""
    if not isinstance(action, FlipAction):
        action = FlipAction(frozenset(action))
    signs = np.array([action.sign(n) for n in range(len(v.coeffs))])
    return TruncatedFockVector(signs * v.coeffs)


def least_support(v):
    """Pair indices a flip can see: 0..N*-1 for the last live component N*.

    The zero vector (and anything supported on u_0 alone) has empty
    support.
    """
    live = np.nonzero(numeric.live(v.coeffs, numeric.SUPPORT))[0]
    if len(live) == 0:
        return set()
    return set(range(int(live[-1])))


def is_flip_invariant(matrix, action):
    """Does a matrix in the u_n basis commute with the flip action?

    Conjugation by the flip only flips entry signs, so the comparison
    is exact.
    """
    if not isinstance(action, FlipAction):
        action = FlipAction(frozenset(action))
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {matrix.shape}")
    signs = np.array([action.sign(n) for n in range(matrix.shape[0])])
    return bool(np.array_equal(signs[:, None] * matrix * signs[None, :], matrix))
