"""The one (seed, *path) -> SeedSequence rule of ``hydrolink.seeding``.

``child_seed``, ``stream_key`` and ``normals`` (and ``oracles.substream``,
the tests' generator over ``stream_key``) key their streams through the
32-bit words of (seed, *path), hashed for a whole batch of keys at once by
``seeding._hash``. The streams are the ones numpy's
``SeedSequence((seed, *path))`` gives, the reference here, for seeds of
one, two and three words and for numpy's small and unsigned integer
types, one key at a time or in batches that mix word counts. Every tag is
refused below zero, and every seed or tag that is not an int (a float,
even 2.0, or a string) is refused.
"""

import numpy as np
import pytest

from hydrolink import seeding
from hydrolink.channel import ChannelConfig, draw_realizations
from hydrolink.field import ConfigError, Grid
from hydrolink.seeding import TAG_COEFF, child_seed, normals, stream_key

from oracles import substream


def _int_tuple_sequence(seed, *path):
    return np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))


def _pairs():
    """1,000 (seed, path) pairs: the word-boundary seeds and 245 random
    ones, each with a path of one, two and three tags and one path that
    holds a tag of 0 and one of two words."""
    rng = np.random.default_rng(29)
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5] + [
        int(s) for s in rng.integers(0, 2**63, 245)]
    pairs = []
    for seed in seeds:
        for n in (1, 2, 3):
            pairs.append((seed, tuple(int(t) for t in
                                      rng.integers(0, 2**31, n))))
        pairs.append((seed, (0, 2**32 + 7)))
    return pairs


def test_streams_equal_the_int_tuple_formula():
    pairs = _pairs()
    assert len(pairs) == 1000
    for seed, path in pairs:
        ss = _int_tuple_sequence(seed, *path)
        assert child_seed(seed, *path) == int(
            ss.generate_state(1, dtype=np.uint64)[0])
        want = np.random.Generator(np.random.Philox(ss))
        got = substream(seed, *path)
        assert np.array_equal(got.bit_generator.state["state"]["key"],
                              want.bit_generator.state["state"]["key"])
        assert got.integers(0, 2**64, 4, dtype=np.uint64).tobytes() == \
            want.integers(0, 2**64, 4, dtype=np.uint64).tobytes()


def test_normals_equal_the_int_tuple_formula():
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5]
    scales = [(2, 0.3), (9, 1.5), (2**32 + 3, 0.1)]
    want = [[np.random.Generator(np.random.Philox(_int_tuple_sequence(
        seed, TAG_COEFF, j))).normal(0.0, sigma) for j, sigma in scales]
        for seed in seeds]
    assert normals(seeds, TAG_COEFF, scales).tobytes() == \
        np.array(want).tobytes()


@pytest.mark.parametrize("call", [
    lambda: child_seed(-1), lambda: child_seed(1, 3, -2),
    lambda: substream(-1, TAG_COEFF), lambda: substream(1, -3),
    lambda: normals([-1], TAG_COEFF, [(2, 0.1)]),
    lambda: normals([1], -4, [(2, 0.1)])],
    ids=["child-seed", "child-tag", "substream-seed", "substream-tag",
         "normals-seed", "normals-tag"])
def test_negative_seed_or_tag_refused(call):
    with pytest.raises(ValueError, match="must be >= 0"):
        call()


def _mixed_lengths():
    """Ints of 1 to 7 words, the word-boundary seeds among them: 0,
    2**32 - 1, 2**32, 2**64 - 1 and 2**64 + 5, and ints with zero words
    inside, each word count five times."""
    rng = np.random.default_rng(31)
    ints = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**96, 2**192 + 1]
    for words in range(1, 8):
        ints += [int(rng.integers(1, 2**32)) << 32 * (words - 1)
                 | int(rng.integers(0, 2**31)) for _ in range(5)]
    return ints


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
def test_one_batch_hash_equals_seed_sequence(n):
    ints = _mixed_lengths()
    column = np.array(ints, dtype=object)
    words, lengths = seeding._key_words([column], column.shape)
    assert sorted(set(lengths.tolist())) == list(range(1, 8))
    got = seeding._hash(words, lengths, n)
    want = np.array([np.random.SeedSequence(i).generate_state(n)
                     for i in ints]).T
    assert got.dtype == np.uint32
    assert got.tobytes() == want.tobytes()


def test_broadcast_keys_equal_one_key_at_a_time():
    # seeds of one to three words against paths of one and two words, as
    # one (seeds, tags, indices) batch
    seeds = np.array([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5],
                     dtype=object)
    tags = np.array([0, 3, 2**32 + 7])
    index = np.arange(4)
    keys = stream_key(seeds[:, None, None], tags[:, None], index)
    children = child_seed(seeds[:, None, None], tags[:, None], index)
    assert keys.shape == (5, 3, 4, 2) and children.shape == (5, 3, 4)
    assert children.dtype == np.uint64
    for a, b, c in np.ndindex(children.shape):
        ss = _int_tuple_sequence(seeds[a], tags[b], index[c])
        assert keys[a, b, c].tolist() == \
            ss.generate_state(2, np.uint64).tolist()
        assert int(children[a, b, c]) == child_seed(
            seeds[a], tags[b], index[c]) == \
            int(ss.generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("call", [
    lambda: child_seed(5.9, 1), lambda: child_seed(2.0, 1),
    lambda: child_seed("5", 1), lambda: child_seed(5, 1.0),
    lambda: child_seed(np.array([-0.5]), 1),
    lambda: stream_key(np.array([1.0, 2.0]), TAG_COEFF),
    lambda: child_seed(np.array([1, "2"], dtype=object), 1),
    lambda: normals([1.5], TAG_COEFF, [(2, 0.1)])],
    ids=["float-seed", "integral-float-seed", "str-seed", "float-tag",
         "float-array", "float-array-key", "object-str", "normals-float"])
def test_non_integer_seed_or_tag_refused(call):
    # numpy's SeedSequence refuses floats (2.0 too); a string it would
    # parse as a number, which here is refused as well
    with pytest.raises(TypeError, match="must be ints, got"):
        call()


def test_channel_seed_must_be_an_int():
    # The config refuses a fractional seed when built, and the draw refuses
    # one on its own.
    modal = dict(n_screens=1, screen_source="modal", modal_sigmas=((4, 0.1),))
    with pytest.raises(ConfigError, match="5.9"):
        ChannelConfig(**modal, seed=5.9)
    config = ChannelConfig(**modal, seed=5)
    object.__setattr__(config, "seed", 5.9)
    with pytest.raises(TypeError, match="5.9"):
        draw_realizations(config, Grid(n_samples=16, spacing=1e-4))


def test_small_and_unsigned_integer_types_keep_numpy_bits():
    small = np.array([0, 3, 127], dtype=np.int8)
    assert child_seed(small, TAG_COEFF).tolist() == [
        int(_int_tuple_sequence(s, TAG_COEFF).generate_state(1, np.uint64)[0])
        for s in small]
    for seed in (np.uint64(2**64 - 1), np.uint64(7), np.int16(9)):
        ss = _int_tuple_sequence(seed, TAG_COEFF, np.uint8(3))
        assert stream_key(seed, TAG_COEFF, np.uint8(3)).tolist() == \
            ss.generate_state(2, np.uint64).tolist()
