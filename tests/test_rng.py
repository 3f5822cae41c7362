import numpy as np
import pytest

from crystalpretrain.rng import _PER_KEY_MAX, RngStream, generators, seed_states

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


def random_keys(seed: int, lengths=range(13), per_length=100) -> list[np.ndarray]:
    """per_length random (n, L) arrays of key codes for each length L."""
    gen = np.random.default_rng(seed)
    return [gen.integers(0, 2**32, size=(per_length, length), dtype=np.uint64).astype(np.uint32)
            for length in lengths]


def codes(key) -> np.ndarray:
    """The one-row (1, L) code array of a key tuple."""
    return np.array(RngStream(*key).key, dtype=np.uint32).reshape(1, -1)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_seed_states_match_seed_sequence_for_each_key(name):
    state = seed_states(codes(KEYS[name]))
    reference = np.random.SeedSequence(RngStream(*KEYS[name]).key).generate_state(4, np.uint64)
    assert state.dtype == np.uint64 and state.shape == (1, 4)
    assert np.array_equal(state[0], reference)
    gen, stream = generators(codes(KEYS[name]))[0], RngStream(*KEYS[name]).generator()
    assert np.array_equal(gen.random(6), stream.random(6))
    assert np.array_equal(gen.choice(50, size=9, replace=False),
                          stream.choice(50, size=9, replace=False))
    assert np.array_equal(gen.uniform(-0.5, 0.5, size=5), stream.uniform(-0.5, 0.5, size=5))


def test_seed_states_match_seed_sequence_on_random_keys():
    for keys in random_keys(seed=3):
        states = seed_states(keys)
        assert states.shape == (len(keys), 4)
        for key, state in zip(keys, states):
            assert np.array_equal(state, np.random.SeedSequence(key).generate_state(4, np.uint64))


def test_generators_draw_what_their_streams_draw():
    for keys in random_keys(seed=4, lengths=(1, 4, 5, 6, 9), per_length=200):
        for key, gen in zip(keys, generators(keys)):
            stream = RngStream(*key.tolist()).generator()
            assert np.array_equal(gen.choice(30, size=4, replace=False),
                                  stream.choice(30, size=4, replace=False))
            assert np.array_equal(gen.uniform(-0.5, 0.5, size=7),
                                  stream.uniform(-0.5, 0.5, size=7))


@pytest.mark.parametrize("n", [_PER_KEY_MAX - 1, _PER_KEY_MAX])  # per key, then seed_states
def test_generators_draw_what_their_streams_draw_at_the_switch(n):
    (keys,) = random_keys(seed=5, lengths=(6,), per_length=n)
    gens = generators(keys)
    assert len(gens) == n
    for key, gen in zip(keys, gens):
        stream = RngStream(*key.tolist()).generator()
        assert np.array_equal(gen.choice(30, size=4, replace=False),
                              stream.choice(30, size=4, replace=False))
        assert np.array_equal(gen.uniform(-0.5, 0.5, size=7), stream.uniform(-0.5, 0.5, size=7))
