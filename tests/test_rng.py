"""The SplitMix64 stream: scalar and array draws are one stream."""

import pytest

from semiflat.rng import SplitMix64


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_array_draw_is_the_scalar_stream(seed, n):
    batch, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = batch.uniforms(n)
    assert draws.tolist() == [scalar.uniform() for _ in range(n)]
    assert batch.next_u64() == scalar.next_u64()
