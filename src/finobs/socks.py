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
import functools
from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import ValidationError

MAX_PAIRS_TENSOR = 16
MAX_PAIRS_FOCK = 32


@dataclass(frozen=True)
class PairVector:
    """Element of the zero-sum line over pair `pair`; value at the a sock."""

    pair: int
    a_value: complex

    def __post_init__(self):
        if numeric.integer(self.pair, "pair index") < 0:
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
        bits = tuple(numeric.integer(b, "bit") for b in self.bits)
        if len(bits) != numeric.integer(self.length, "length") or any(b not in (0, 1) for b in bits):
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
        if not 0 <= numeric.integer(index, "index") < (1 << numeric.integer(length, "length")):
            raise ValidationError(f"index {index} out of range for length {length}")
        bits = tuple((index >> (length - 1 - i)) & 1 for i in range(length))
        return cls(length, bits)


@functools.lru_cache(maxsize=MAX_PAIRS_TENSOR + 1, typed=True)  # typed: 2.0 never hits 2
def alternation_signs(n):
    """Signs of the 2^N choice functions in index order: -1 at an odd count of b socks."""
    if not 0 <= numeric.integer(n, "pair count") <= MAX_PAIRS_TENSOR:
        raise ValidationError(f"pair count must be in 0..{MAX_PAIRS_TENSOR}")
    signs = np.ones(1 << n)
    for k in range(n):  # setting bit k adds one b sock
        signs[1 << k : 2 << k] = -signs[: 1 << k]
    signs.flags.writeable = False  # one table per N, shared: copy it before writing
    return signs


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
        self.length = numeric.integer(self.length, "tensor length")  # an int: one signs table per N
        if not 0 <= self.length <= MAX_PAIRS_TENSOR:
            raise ValidationError(f"tensor length must be in 0..{MAX_PAIRS_TENSOR}")
        table = np.asarray(self.table, dtype=complex).reshape(-1)
        if len(table) != (1 << self.length):
            raise ValidationError(
                f"table needs {1 << self.length} entries, got {len(table)}"
            )
        with np.errstate(over="ignore"):  # |z| may overflow though both parts are finite
            peak = np.abs(table).max()
        scaled, c = table, 1.0
        if not peak < 2.0**479:  # else every entry is finite and scale_exponent(table) is 0
            if not np.isfinite(table).all():
                raise ValidationError("table entries must be finite")
            c, scaled = numeric.prescaled(table)  # so a magnitude cannot overflow
            peak = np.abs(scaled).max()
        mismatch = np.abs(scaled - alternation_signs(self.length) * scaled[0]).max()
        if not numeric.within(mismatch, numeric.ALTERNATION * max(peak, c)):
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
    with np.errstate(over="ignore", invalid="ignore"):  # SignedTensor rejects an inf or NaN entry
        table = np.multiply.reduce([p.a_value for p in vectors]) * alternation_signs(n)
    return SignedTensor(n, table)


def tensor_inner(x, y):
    """Inner product as the full sum over choice functions."""
    if x.length != y.length:
        raise ValidationError("tensors over different pair counts")
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex((x.table * y.table.conj()).sum())
    if not cmath.isfinite(value):
        raise ValidationError("tensor inner product overflows")
    return value


@dataclass(eq=False)
class TruncatedFockVector:
    """Coefficients over the unit generators u_0 .. u_M."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex).reshape(-1)  # a copy, made read-only
        if len(coeffs) == 0:
            raise ValidationError("need at least the u_0 coefficient")
        if len(coeffs) > MAX_PAIRS_FOCK + 1:
            raise ValidationError(f"at most {MAX_PAIRS_FOCK + 1} components supported")
        if not np.isfinite(coeffs).all():
            raise ValidationError("coefficients must be finite")
        coeffs.flags.writeable = False  # so they stay finite: flip trusts them
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def max_pairs(self):
        return len(self.coeffs) - 1


def fock_basis_vector(n, max_pairs):
    """The generator u_n inside a truncation with components 0..max_pairs."""
    if not 0 <= numeric.integer(n, "generator index") <= numeric.integer(max_pairs, "max_pairs"):
        raise ValidationError(f"generator index {n} outside 0..{max_pairs}")
    coeffs = np.zeros(max_pairs + 1, dtype=complex)
    coeffs[n] = 1.0
    return TruncatedFockVector(coeffs)


def generator_tensor(n):
    """u_n in tensor form: the product of pair vectors with value 1/sqrt2."""
    return pair_tensor([PairVector(i, 1.0 / np.sqrt(2.0)) for i in range(numeric.integer(n, "n"))])


def apply_diagonal(diag, v):
    """Operator acting as the scalar diag[n] on the u_n component."""
    if len(diag) < len(v.coeffs):
        raise ValidationError(
            f"need {len(v.coeffs)} diagonal values, got {len(diag)}"
        )
    factors = np.asarray(list(diag)[: len(v.coeffs)], dtype=complex)
    return TruncatedFockVector(factors * v.coeffs)


@dataclass(frozen=True)
class FlipAction:
    """Swap the two socks inside each listed pair."""

    pairs: frozenset

    def __post_init__(self):
        pairs = frozenset(numeric.integer(p, "pair index") for p in self.pairs)
        if any(p < 0 for p in pairs):
            raise ValidationError("pair indices must be nonnegative")
        object.__setattr__(self, "pairs", pairs)

    def signs(self, size):
        """Signs picked up by the components u_0..u_{size-1}: u_n flips once
        per pair below n, so one sweep turns the sign after each pair."""
        signs = []
        sign = 1.0
        for n in range(size):
            signs.append(sign)
            if n in self.pairs:
                sign = -sign
        return np.array(signs)


def flip(action, v):
    """Apply a flip action to a truncated Fock vector."""
    if not isinstance(action, FlipAction):
        action = FlipAction(frozenset(action))
    out = object.__new__(TruncatedFockVector)  # unchecked: +-1 times finite coefficients
    out.coeffs = action.signs(len(v.coeffs)) * v.coeffs
    out.coeffs.flags.writeable = False  # read-only, as the constructor leaves it
    return out


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
    signs = action.signs(matrix.shape[0])
    return bool(np.array_equal(signs[:, None] * matrix * signs[None, :], matrix))
