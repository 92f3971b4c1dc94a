"""Pair families, alternating tensors, and the flip action.

Amplitudes in the property tests are dyadic rationals, so the product
and inner-product identities are exact in binary floating point and the
assertions can use plain equality.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finobs.errors import ValidationError
from finobs.socks import (
    ChoiceFunction,
    FlipAction,
    PairVector,
    SignedTensor,
    TruncatedFockVector,
    alternation_signs,
    apply_diagonal,
    flip,
    fock_basis_vector,
    generator_tensor,
    is_flip_invariant,
    least_support,
    pair_inner,
    pair_tensor,
    tensor_inner,
)

dyadic = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
    lambda t: (t[0] + 1j * t[1]) / 4.0
)


def test_pair_vector_and_inner():
    x = PairVector(0, 0.75)
    assert x.b_value == -0.75
    y = PairVector(0, 0.5 - 0.25j)
    assert pair_inner(x, y) == 2.0 * 0.75 * (0.5 + 0.25j)
    with pytest.raises(ValidationError):
        pair_inner(x, PairVector(1, 1.0))


def test_choice_function_indexing():
    for index in range(8):
        c = ChoiceFunction.from_index(3, index)
        assert c.index == index
    assert ChoiceFunction(3, (0, 1, 1)).index == 3
    with pytest.raises(ValidationError):
        ChoiceFunction(2, (0, 2))
    with pytest.raises(ValidationError):
        ChoiceFunction.from_index(2, 4)


def test_signed_tensor_validates_alternation():
    good = pair_tensor([PairVector(0, 0.5), PairVector(1, -1.25)])
    assert good.table.shape == (4,)
    broken = np.array(good.table)
    broken[2] = -broken[2]
    with pytest.raises(ValidationError):
        SignedTensor(2, broken)
    with pytest.raises(ValidationError):
        SignedTensor(2, good.table[:3])


def test_huge_tensors_need_no_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1e308 - (-1e308) overflows; the entries break the sign law
        with pytest.raises(ValidationError, match="sign alternation law"):
            SignedTensor(1, [1e308, 1e308])
        huge = SignedTensor(1, [1e308, -1e308])
        with pytest.raises(ValidationError, match="^tensor inner product overflows$"):
            tensor_inner(huge, huge)
        with pytest.raises(ValidationError, match="^table entries must be finite$"):
            pair_tensor([PairVector(0, 1e200), PairVector(1, 1e200)])
        with pytest.raises(ValidationError, match="^table entries must be finite$"):
            SignedTensor(1, [np.inf, -np.inf])
        big = SignedTensor(1, [2.0**500, -(2.0**500)])
        assert tensor_inner(big, big) == 2.0**1001
        # |z| overflows though both of its parts are finite; the entries alternate
        z = complex(1.3e308, 1.3e308)
        assert SignedTensor(1, [z, -z]).table.tolist() == [z, -z]
        assert SignedTensor(2, [z, -z, -z, z]).value(ChoiceFunction(2, (1, 1))) == z
        with pytest.raises(ValidationError, match="sign alternation law"):
            SignedTensor(1, [z, z])


def test_alternation_signs_are_popcount_parity_and_read_only():
    for n in range(17):
        parity = np.array([bin(i).count("1") % 2 for i in range(1 << n)])
        expected = np.where(parity == 1, -1.0, 1.0)
        signs = alternation_signs(n)
        assert signs.dtype == np.float64
        assert signs.tobytes() == expected.tobytes()
        assert not signs.flags.writeable
        with pytest.raises(ValueError):
            signs[0] = 2.0
        assert alternation_signs(n) is signs
    # a tensor built from the shared table owns its own entries
    tensor = pair_tensor([PairVector(0, 1.0), PairVector(1, 1.0)])
    assert not np.shares_memory(tensor.table, alternation_signs(2))


def test_alternation_signs_fail_closed_outside_the_tensor_range():
    for bad in (17, -1, True, 2.0):
        with pytest.raises(ValidationError):
            alternation_signs(bad)
    for n in [*range(17), np.int64(3), np.int32(16), 16, 0]:
        assert alternation_signs(n).tobytes() == alternation_signs(int(n)).tobytes()
    assert alternation_signs.cache_info().currsize <= 17


def test_tensor_inner_bits_equal_the_np_sum_form():
    rng = np.random.default_rng(5)
    for n in range(9):
        for scale in (1.0, 1e-30, 1e10):
            x, y = (pair_tensor([PairVector(i, scale * complex(*rng.standard_normal(2)))
                                 for i in range(n)]) for _ in range(2))
            want = complex(np.sum(x.table * np.conj(y.table)))
            assert np.complex128(tensor_inner(x, y)).tobytes() == np.complex128(want).tobytes()


@pytest.mark.parametrize("exponent", [478, 479, 480])
@pytest.mark.parametrize("phase", [1.0, 1j, (1.0 + 1.0j) / np.sqrt(2.0)])
def test_alternation_verdicts_around_the_scaling_threshold(exponent, phase):
    # below 2**479 the table is checked unscaled, at and above it scaled;
    # the verdicts are those of always scaling, a relative violation of
    # 1e-12 included, which the rounding of the mismatch puts just outside
    a = 2.0**exponent * phase
    for violation, holds in ((0.0, True), (9.9e-13, True), (1e-12, False)):
        table = [a, -a, -a, a * (1.0 + violation)]
        if holds:
            assert SignedTensor(2, table).table.tolist() == table
        else:
            with pytest.raises(ValidationError, match="sign alternation law"):
                SignedTensor(2, table)


# each call passes a bool, float or str where an integer belongs
_NOT_INTEGERS = {
    "PairVector('0', 1.0)": lambda: PairVector("0", 1.0),
    "PairVector(0.0, 1.0)": lambda: PairVector(0.0, 1.0),
    "PairVector(True, 1.0)": lambda: PairVector(True, 1.0),
    "ChoiceFunction(2, (0.7, 1.2))": lambda: ChoiceFunction(2, (0.7, 1.2)),
    "ChoiceFunction(2, (True, False))": lambda: ChoiceFunction(2, (True, False)),
    "ChoiceFunction(2.0, (0, 1))": lambda: ChoiceFunction(2.0, (0, 1)),
    "ChoiceFunction.from_index(2, 1.0)": lambda: ChoiceFunction.from_index(2, 1.0),
    "ChoiceFunction.from_index(2.0, 1)": lambda: ChoiceFunction.from_index(2.0, 1),
    "SignedTensor(True, [1.0, -1.0])": lambda: SignedTensor(True, [1.0, -1.0]),
    "SignedTensor(2.0, [1.0, -1.0, -1.0, 1.0])": lambda: SignedTensor(2.0, [1.0, -1.0, -1.0, 1.0]),
    "SignedTensor('1', [1.0, -1.0])": lambda: SignedTensor("1", [1.0, -1.0]),
    "FlipAction({0.5, 2.9})": lambda: FlipAction({0.5, 2.9}),
    "FlipAction({True})": lambda: FlipAction({True}),
    "fock_basis_vector(1.5, 3)": lambda: fock_basis_vector(1.5, 3),
    "fock_basis_vector(1, 3.0)": lambda: fock_basis_vector(1, 3.0),
    "generator_tensor(True)": lambda: generator_tensor(True),
    "generator_tensor(2.0)": lambda: generator_tensor(2.0),
}


@pytest.mark.parametrize("call", sorted(_NOT_INTEGERS))
def test_integer_arguments_fail_closed(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        _NOT_INTEGERS[call]()


def test_numpy_integer_arguments_are_accepted():
    assert PairVector(np.int64(1), 1.0).pair == 1
    assert ChoiceFunction(np.int32(2), (np.int64(0), np.uint8(1))).bits == (0, 1)
    assert ChoiceFunction.from_index(np.int64(3), np.int64(5)).bits == (1, 0, 1)
    assert SignedTensor(np.int64(1), [1.0, -1.0]).value(ChoiceFunction(1, (1,))) == -1.0
    assert FlipAction({np.int64(2)}).pairs == frozenset({2})
    assert fock_basis_vector(np.int64(1), np.int64(2)).coeffs.tolist() == [0, 1, 0]
    assert generator_tensor(np.int64(2)).table.shape == (4,)


def test_pair_tensor_needs_consecutive_pairs():
    with pytest.raises(ValidationError, match="exactly 0..1"):
        pair_tensor([PairVector(0, 1.0), PairVector(2, 1.0)])


def test_pair_tensor_values_are_products_over_choices():
    vectors = [PairVector(0, 0.5), PairVector(1, -0.75), PairVector(2, 0.25j)]
    tensor = pair_tensor(vectors)
    for index in range(8):
        choice = ChoiceFunction.from_index(3, index)
        expected = 1.0
        for v, bit in zip(vectors, choice.bits):
            expected *= v.b_value if bit else v.a_value
        assert tensor.value(choice) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.lists(dyadic, min_size=n, max_size=n),
        st.lists(dyadic, min_size=n, max_size=n),
    )
))
def test_tensor_inner_factorizes(pair_of_lists):
    xs, ys = pair_of_lists
    n = len(xs)
    x = pair_tensor([PairVector(i, a) for i, a in enumerate(xs)])
    y = pair_tensor([PairVector(i, a) for i, a in enumerate(ys)])
    full_sum = tensor_inner(x, y)
    assert full_sum == (2.0**n) * np.prod(
        [a * np.conj(b) for a, b in zip(xs, ys)] or [1.0]
    )
    assert full_sum == np.prod(
        [pair_inner(PairVector(i, a), PairVector(i, b)) for i, (a, b) in enumerate(zip(xs, ys))]
        or [1.0]
    )


def test_single_swap_flips_the_sign_exactly():
    tensor = generator_tensor(4)
    for index in range(16):
        choice = ChoiceFunction.from_index(4, index)
        for k in range(4):
            swapped = list(choice.bits)
            swapped[k] ^= 1
            other = ChoiceFunction(4, tuple(swapped))
            assert tensor.value(other) == -tensor.value(choice)


def test_generator_tensor_is_normalized():
    for n in range(5):
        u = generator_tensor(n)
        assert tensor_inner(u, u).real == pytest.approx(1.0, abs=1e-12)


def test_truncated_fock_vector_shape():
    v = TruncatedFockVector([1.0, 0.0, 2.0])
    assert v.max_pairs == 2
    with pytest.raises(ValidationError):
        TruncatedFockVector([])
    with pytest.raises(ValidationError):
        TruncatedFockVector(np.zeros(34))
    with pytest.raises(ValidationError):
        fock_basis_vector(4, 3)


def test_diagonal_actions():
    v = TruncatedFockVector([1.0, 2.0, 3.0])
    out = apply_diagonal([2.0, 0.5, -1.0], v)
    assert np.array_equal(out.coeffs, [2.0, 1.0, -3.0])
    with pytest.raises(ValidationError):
        apply_diagonal([1.0], v)


def test_flip_signs_count_pairs_below():
    action = FlipAction(frozenset({0, 2}))
    assert action.signs(4).tolist() == [1.0, -1.0, -1.0, 1.0]
    assert action.signs(0).shape == (0,)
    v = TruncatedFockVector([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(flip(action, v).coeffs, [1.0, -2.0, -3.0, 4.0])
    # flipping twice restores the vector exactly
    assert np.array_equal(flip(action, flip(action, v)).coeffs, v.coeffs)


# The reference for `FlipAction.signs`, one component at a time: u_n picks
# up one sign per flipped pair below n.
def _sign(action, n):
    return -1.0 if len([p for p in action.pairs if p < n]) % 2 else 1.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.frozensets(st.integers(0, 40), max_size=8),
    st.lists(st.builds(complex, _FINITE, _FINITE), min_size=1, max_size=33),
    st.integers(0, 32),
    st.integers(0, 32),
)
def test_flip_signs_match_the_one_component_rule(pairs, coeffs, i, j):
    action = FlipAction(pairs)
    v = TruncatedFockVector(coeffs)
    signs = np.array([_sign(action, n) for n in range(len(coeffs))])
    assert action.signs(len(coeffs)).tobytes() == signs.tobytes()
    # multiplying by +-1.0 is exact, so the bits must agree, zeros' signs too
    assert flip(action, v).coeffs.tobytes() == (signs * v.coeffs).tobytes()
    size = len(coeffs)
    i, j = i % size, j % size
    hop = np.eye(size, dtype=complex)
    hop[i, j] = hop[j, i] = 1.0
    assert is_flip_invariant(hop, action) == (signs[i] == signs[j])


@settings(max_examples=100, deadline=None)
@given(
    st.frozensets(st.integers(0, 3)),
    st.frozensets(st.integers(0, 3)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
)
def test_flip_composition_is_symmetric_difference(a, b, coeffs):
    v = TruncatedFockVector([float(c) for c in coeffs])
    composed = flip(a, flip(b, v))
    direct = flip(a ^ b, v)
    assert np.array_equal(composed.coeffs, direct.coeffs)


def test_flip_builds_the_checked_vector_bit_for_bit():
    rng = np.random.default_rng(9)
    for size in (1, 2, 9, 33):
        for scale in (1.0, 1e308):
            coeffs = scale * (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))
            coeffs[0] = complex(-0.0, 1e308)
            coeffs[-1] = complex(-1e308, 0.0)
            v = TruncatedFockVector(coeffs)
            action = FlipAction(frozenset(int(p) for p in rng.choice(40, size=3, replace=False)))
            got = flip(action, v)
            want = TruncatedFockVector(action.signs(size) * v.coeffs)
            assert type(got) is TruncatedFockVector and got.max_pairs == want.max_pairs
            assert (got.coeffs.dtype, got.coeffs.shape) == (want.coeffs.dtype, want.coeffs.shape)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert not got.coeffs.flags.writeable


def test_a_fock_vector_keeps_a_read_only_copy_of_its_coefficients():
    given = np.array([1.0, 2.0], dtype=complex)
    v = TruncatedFockVector(given)
    with pytest.raises(ValueError):
        v.coeffs[1] = np.inf
    given[1] = np.inf  # the caller's array stays its own and writable
    assert v.coeffs.tolist() == [1.0, 2.0]
    flipped = flip({0}, v)
    assert flipped.coeffs.tolist() == [1.0, -2.0]
    with pytest.raises(ValueError):
        flipped.coeffs[0] = np.nan


def test_tensors_of_an_int_and_a_numpy_length_share_one_signs_table():
    alternation_signs.cache_clear()
    tensors = [SignedTensor(n, [1.0, -1.0, -1.0, 1.0]) for n in (2, np.int64(2))]
    assert [type(t.length) for t in tensors] == [int, int]
    assert alternation_signs.cache_info().currsize == 1


def test_least_support():
    assert least_support(TruncatedFockVector([0.0, 0.0, 0.0])) == set()
    assert least_support(fock_basis_vector(0, 4)) == set()
    assert least_support(fock_basis_vector(3, 5)) == {0, 1, 2}
    mixed = TruncatedFockVector([1.0, 0.0, 0.5, 0.0])
    assert least_support(mixed) == {0, 1}


def test_flip_moves_vector_iff_it_sees_the_support():
    v = TruncatedFockVector([1.0, 0.0, 2.0])
    assert least_support(v) == {0, 1}
    moved = flip({1}, v)
    assert not np.array_equal(moved.coeffs, v.coeffs)
    untouched = flip({5}, v)
    assert np.array_equal(untouched.coeffs, v.coeffs)


def test_flip_invariant_matrices():
    assert is_flip_invariant(np.diag([1.0, 2.0, 3.0, 4.0]), {2})
    hop = np.zeros((4, 4))
    hop[0, 3] = hop[3, 0] = 1.0
    assert not is_flip_invariant(hop, {2})
    assert is_flip_invariant(hop, {0, 1})  # both signs flip, the product does not
    with pytest.raises(ValidationError):
        is_flip_invariant(np.zeros((2, 3)), {0})
