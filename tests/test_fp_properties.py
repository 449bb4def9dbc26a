"""Property-based tests of the FP16 arithmetic substrate (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fp.formats import FP16, add_bits, fma_bits, mul_bits, neg_bits
from repro.fp.rounding import RoundingMode

#: Any 16-bit pattern (including NaNs, infinities and subnormals).
any_pattern = st.integers(min_value=0, max_value=0xFFFF)

#: Finite patterns only.
finite_pattern = any_pattern.filter(FP16.is_finite)

#: Patterns whose magnitude is small enough that products stay finite.
moderate_pattern = st.integers(min_value=0, max_value=0xFFFF).filter(
    lambda b: FP16.is_finite(b) and abs(FP16.bits_to_float(b)) <= 64.0
)


@given(finite_pattern)
def test_encode_decode_roundtrip(bits):
    """decode -> encode is the identity on finite patterns."""
    assert FP16.float_to_bits(FP16.bits_to_float(bits)) == bits


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_conversion_matches_numpy(value):
    """float64 -> FP16 conversion agrees with numpy for arbitrary floats."""
    with np.errstate(over="ignore"):
        reference = np.float16(value)
    ours = FP16.bits_to_float(FP16.float_to_bits(float(value)))
    if math.isnan(float(reference)):
        assert math.isnan(ours)
    else:
        assert ours == float(reference)


@given(any_pattern, any_pattern)
def test_multiplication_is_commutative(a, b):
    """a*b == b*a for every pattern, including specials."""
    left, right = mul_bits(a, b, FP16), mul_bits(b, a, FP16)
    assert left == right


@given(any_pattern, any_pattern)
def test_addition_is_commutative(a, b):
    assert add_bits(a, b, FP16) == add_bits(b, a, FP16)


@given(finite_pattern)
def test_multiplying_by_one_is_identity(a):
    assert mul_bits(a, FP16.one_bits, FP16) == a


@given(finite_pattern)
def test_adding_positive_zero_is_identity(a):
    assert add_bits(a, 0x0000, FP16) == a or (a == 0x8000)


@given(any_pattern, any_pattern, any_pattern)
def test_fma_never_crashes_and_stays_in_range(a, b, c):
    result = fma_bits(a, b, c, FP16)
    assert 0 <= result <= 0xFFFF


@given(moderate_pattern, moderate_pattern, moderate_pattern)
def test_fma_matches_float64_single_rounding(a, b, c):
    """For moderate operands the FMA equals float64 evaluation rounded once."""
    fa, fb, fc = (FP16.bits_to_float(v) for v in (a, b, c))
    reference = np.float16(fa * fb + fc)
    ours = fma_bits(a, b, c, FP16)
    if np.isnan(reference):
        assert FP16.is_nan(ours)
    else:
        assert FP16.bits_to_float(ours) == float(reference)


@given(moderate_pattern, moderate_pattern, moderate_pattern)
def test_fma_negation_symmetry(a, b, c):
    """(-a)*b + (-c) == -(a*b + c) for finite results (sign symmetry of RNE)."""
    positive = fma_bits(a, b, c, FP16)
    negative = fma_bits(neg_bits(a, FP16), b, neg_bits(c, FP16), FP16)
    if FP16.is_nan(positive) or FP16.bits_to_float(positive) == 0.0:
        return  # zero keeps +0 under RNE, so symmetry does not apply
    assert negative == neg_bits(positive, FP16)


@given(finite_pattern, finite_pattern)
@settings(max_examples=200)
def test_directed_rounding_brackets_the_exact_product(a, b):
    """RDN result <= exact product <= RUP result (when both are finite)."""
    exact = FP16.bits_to_float(a) * FP16.bits_to_float(b)
    down = FP16.bits_to_float(mul_bits(a, b, FP16, RoundingMode.RDN))
    up = FP16.bits_to_float(mul_bits(a, b, FP16, RoundingMode.RUP))
    if math.isinf(down) or math.isinf(up):
        return
    assert down <= exact <= up
