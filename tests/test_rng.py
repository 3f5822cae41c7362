import numpy as np
import pytest

from crystalpretrain.rng import RngStream

KEYS = {
    "empty": (),
    "zero": (0,),
    "max-part": (0xFFFFFFFF,),
    "negative": (-1, 7),
    "wide-int": (2**40 + 3,),
    "string": ("augment",),
    "five-parts": (1, "augment", 0, 5, 1),
    "eleven-parts": (9, "e2e", *range(9)),
}


@pytest.mark.parametrize("name", sorted(KEYS))
def test_generator_draws_match_tuple_seeded_stream(name):
    stream = RngStream(*KEYS[name])
    assert all(0 <= part <= 0xFFFFFFFF for part in stream.key)
    reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(stream.key)))
    gen = stream.generator()
    assert np.array_equal(gen.random(6), reference.random(6))
    assert np.array_equal(gen.choice(50, size=9, replace=False),
                          reference.choice(50, size=9, replace=False))
    assert np.array_equal(gen.uniform(-0.5, 0.5, size=5), reference.uniform(-0.5, 0.5, size=5))
    assert np.array_equal(gen.permutation(20), reference.permutation(20))
    assert np.array_equal(gen.integers(0, 2**63, size=4), reference.integers(0, 2**63, size=4))

