"""The one (seed, *path) -> SeedSequence rule of ``hydrolink.seeding``.

``substream``, ``child_seed`` and ``normals`` key their streams through the
32-bit words of (seed, *path). Those are the words ``SeedSequence`` splits a
tuple of ints into, so the streams are the ones the int-tuple formula
``SeedSequence((seed, *path))`` gives, for seeds of one, two and three
words, and every tag is refused below zero.
"""

import numpy as np
import pytest

from hydrolink.seeding import TAG_COEFF, child_seed, normals, substream


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
