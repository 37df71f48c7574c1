from fractions import Fraction

import pytest

from rayleigh_forge.prng import (
    DEFAULT_SEED,
    DENOMINATOR_BITS,
    SplitMix64,
    derive,
    log_uniform_fraction,
    sample_point,
    unit_fraction,
)

# first outputs of the reference C implementation (public-domain splitmix64)
SEED0_STREAM = (
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
)
SEED_D1CE_STREAM = (
    3009196612411494907,
    13853870076421919033,
    1444726637598030886,
    15085185029756501816,
)


def test_matches_reference_stream():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(4)) == SEED0_STREAM
    rng = SplitMix64(DEFAULT_SEED)
    assert tuple(rng.next_u64() for _ in range(4)) == SEED_D1CE_STREAM


def test_seed_is_masked_to_64_bits():
    wide = SplitMix64(1 << 64)
    assert tuple(wide.next_u64() for _ in range(4)) == SEED0_STREAM


def test_below_bounds_and_error():
    rng = SplitMix64(99)
    assert all(0 <= rng.below(7) < 7 for _ in range(200))
    with pytest.raises(ValueError):
        rng.below(0)


def test_derive_streams_are_reproducible_and_distinct():
    a1 = derive(DEFAULT_SEED, 3).next_u64()
    a2 = derive(DEFAULT_SEED, 3).next_u64()
    b = derive(DEFAULT_SEED, 4).next_u64()
    assert a1 == a2
    assert a1 != b


def test_log_uniform_fraction_range_and_exactness():
    rng = SplitMix64(DEFAULT_SEED)
    for _ in range(500):
        v = log_uniform_fraction(rng)
        assert isinstance(v, Fraction)
        assert Fraction(1, 1024) <= v < 1024
        # dyadic: denominator is a power of two
        assert v.denominator & (v.denominator - 1) == 0


def test_log_uniform_denominators_divide_2_to_the_20():
    # the integer point evaluator scales sampled coordinates by 2^20 exactly
    assert DENOMINATOR_BITS == 20
    rng = SplitMix64(3)
    for _ in range(5000):
        assert (1 << 20) % log_uniform_fraction(rng).denominator == 0


def test_unit_fraction_strictly_inside():
    rng = SplitMix64(7)
    for _ in range(300):
        v = unit_fraction(rng)
        assert 0 < v < 1


def test_sample_point_covers_labels():
    rng = SplitMix64(1)
    pt = sample_point(rng, ("a", "b", "c"))
    assert set(pt) == {"a", "b", "c"}
    assert all(v > 0 for v in pt.values())
