"""Deterministic, splittable random streams.

Every stochastic operation in the package draws from a Philox counter-based
generator keyed by (seed, *path), integers >= 0, through one rule: the key
``np.random.SeedSequence((seed, *path))`` would give. :func:`_hash` runs
numpy's SeedSequence loops in numpy's order, in uint32 array arithmetic
over a matrix of the keys' 32-bit words (one column per key): the hash
constant of call t is INIT * MULT**t mod 2**32 for every key, so one
running sequence serves them all. :func:`child_seed`, :func:`stream_key`
and :func:`normals` broadcast over arrays of seeds and path entries, so a
run hashes every key of a stage in one pass; a seed or tag that is not an
int raises TypeError. Streams for different paths are independent and do
not depend on the order in which they are created, so a realization is
chosen only by its path (``channel.draw_realizations``) and is the same
under any schedule of :func:`realize`'s threads.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np
import numpy.random

T = TypeVar("T")

#: Threads :func:`realize` runs frames and trials on: one per usable CPU
#: (per CPU where the OS reports no affinity, as on macOS and Windows).
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

# Stream tags. Keep values stable: changing them changes every seeded output.
TAG_SCREEN = 1
TAG_OCCLUSION = 2
TAG_FRAME = 3
TAG_COEFF = 4
TAG_TRIAL = 5

# numpy's SeedSequence constants: pool size, the entropy hash (A), the
# state hash (B), the pool mix and the shift, the last three as uint32 0-d
# arrays (ufuncs take them faster than scalars); and the pool words each
# pool word mixes into.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = (np.array(v, np.uint32)
                           for v in (0xCA01F9DD, 0x4973F715, 16))
_OTHERS = [np.flatnonzero(np.arange(_POOL) != src) for src in range(_POOL)]
_MASK = 0xFFFFFFFF

#: Seeds per :func:`stream_key` pass in :func:`normals`.
_BLOCK = 256


def child_seed(seed, *path):
    """Derive an integer seed for a nested component from (seed, *path).

    ``seed`` and the path entries are ints >= 0 or arrays of them,
    broadcast together; arrays give a uint64 array of that shape."""
    seeds = stream_key(seed, *path, words=2)[..., 0]
    return seeds if seeds.ndim else int(seeds)


def stream_key(seed, *path, words: int = 4) -> np.ndarray:
    """``SeedSequence((seed, *path)).generate_state(words)`` as
    little-endian uint64 pairs, shape (*broadcast, words / 2), for every
    (seed, *path) of the broadcast arrays; the default is the Philox key
    of (seed, *path)'s stream."""
    shape = np.broadcast(*map(np.asarray, (seed, *path))).shape
    state = _hash(*_key_words((seed, *path), shape), words).T
    # numpy's uint64 view of the uint32 state: little-endian pairs.
    pairs = state.astype("<u4", order="C").view("<u8")
    return pairs.astype(np.uint64, copy=False).reshape(*shape, words // 2)


def normals(seeds, tag: int,
            scales: Sequence[tuple[int, float]]) -> np.ndarray:
    """``normal(0.0, s)`` (0.0 where s is 0) drawn from the bits of the
    Philox stream keyed by ``stream_key(seed, tag, j)``, for each seed
    (rows) and (j, s) of ``scales`` (columns).

    The streams' keys come from :func:`stream_key`, one pass per block of
    :data:`_BLOCK` seeds, which bounds the pass's scratch arrays; then one
    Philox draws them all, its public state set before each draw to the
    stream's start: its key, counter zero."""
    seeds = np.asarray(seeds)
    live = [i for i, (_, sigma) in enumerate(scales) if sigma > 0]
    js = np.array([scales[i][0] for i in live], dtype=object)
    rng = np.random.Generator(np.random.Philox(key=0))
    start = rng.bit_generator.state
    out = np.zeros((len(seeds), len(scales)))
    for at in range(0, len(seeds), _BLOCK):
        keys = stream_key(seeds[at:at + _BLOCK, None], tag, js)
        for row, row_keys in zip(out[at:at + _BLOCK], keys):
            for i, key in zip(live, row_keys):
                start["state"]["key"] = key
                rng.bit_generator.state = start
                row[i] = rng.normal(0.0, scales[i][1])
    return out


def _key_words(columns: Sequence, shape: tuple[int, ...],
               ) -> tuple[np.ndarray, np.ndarray]:
    """(words, lengths): column i of the uint32 matrix holds the 32-bit
    words ``SeedSequence`` splits key i's ints into, in order, zero-padded
    past ``lengths[i]`` to at least the pool size. Key i takes element i
    of every column broadcast to ``shape`` and flattened; a column is an
    int, an integer array or an object array of ints, each >= 0."""
    blocks = []
    for column in columns:
        c = np.asarray(column)
        if c.dtype.kind not in "iuO" or c.dtype.kind == "O" and not all(
                isinstance(v, (int, np.integer)) for v in c.flat):
            raise TypeError(
                f"seeds and stream tags must be ints, got {column!r}")
        if not c.ndim:
            c = low = top = int(c)
        elif c.dtype == object:
            low, top = min(c.flat, default=0), max(c.flat, default=0)
        else:
            low, top = (int(c.min()), int(c.max())) if c.size else (0, 0)
            c = c.astype(np.uint64)
        if low < 0:
            raise ValueError(f"seeds and stream tags must be >= 0, got {low}")
        if isinstance(c, np.ndarray):
            c = np.broadcast_to(c, shape).ravel()
        blocks.append([(c >> s) & _MASK
                       for s in range(0, top.bit_length() or 1, 32)])
    keys = math.prod(shape)
    words = np.zeros((max(_POOL, sum(map(len, blocks))), keys), np.uint32)
    lengths = np.zeros(keys, np.intp)
    at = np.arange(keys)
    for block in blocks:
        # An int's words end at its highest nonzero one; a zero word past
        # that is overwritten by the next int's words, or left as padding.
        size = 1
        for i, word in enumerate(block):
            words[lengths + i, at] = word
            if i:
                size = np.where(word != 0, i + 1, size)
        lengths += size
    return words, lengths


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> _XSHIFT
    return x


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, row t of ``value`` with ``const[t:t + 2]``."""
    value = value ^ const[:-1]
    value *= const[1:]
    value ^= value >> _XSHIFT
    return value


def _running(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of ``calls`` hashmix calls and after
    the last, init * mult**t mod 2**32, as a uint32 column."""
    t = np.arange(calls + 1, dtype=np.uint32)[:, None]
    return init * np.uint32(mult) ** t


def _hash(words: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """``SeedSequence(words[:lengths[i], i]).generate_state(n)`` for every
    column i, shape (n, keys): numpy's mix_entropy and generate_state in
    numpy's loop order, one array operation per step for all keys. Every
    key makes the same hashmix calls, so all take the same constants."""
    a = _running(_INIT_A, _MULT_A, _POOL * len(words))
    # Entropy words up to the pool size; a short key hashes its zeros.
    pool = _hashmix(words[:_POOL], a[:_POOL + 1])
    # Each pool word into the other three: numpy's dst loop never changes
    # the source word, so its three hashes are one operation.
    for src, dst in enumerate(_OTHERS):
        t = _POOL + (_POOL - 1) * src
        pool[dst] = _mix(pool.take(dst, 0),
                         _hashmix(pool[src], a[t:t + _POOL]))
    # Entropy words past the pool, each into every pool word, where present.
    for src in range(_POOL, len(words)):
        t = _POOL * src
        mixed = _mix(pool, _hashmix(words[src], a[t:t + _POOL + 1]))
        pool = np.where(lengths > src, mixed, pool)
    return _hashmix(pool.take(np.arange(n), 0, mode="wrap"),
                    _running(_INIT_B, _MULT_B, n))


def realize(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(0), ..., fn(count - 1)]``, computed on up to :data:`WORKERS`
    threads.

    ``fn(0)`` runs first, alone, on the calling thread, so it fills the
    run's lazily built plans before any other index starts; then the
    calling thread and ``WORKERS - 1`` helpers take the remaining indices
    in increasing order from one shared iterator. numpy's FFTs, ufuncs and
    matrix products release the GIL, so frames (or trials) overlap.
    Once a call fails, no further index is started, and the error of the
    lowest failing index is raised when every started call has ended;
    every lower index has then completed, as in a serial loop.
    """
    if count <= 0:
        return []
    results: list = [fn(0)] + [None] * (count - 1)
    pending = iter(range(1, count))
    failed: dict[int, Exception] = {}
    lock = threading.Lock()
    stop = threading.Event()

    def drain() -> None:
        while not stop.is_set():
            with lock:
                k = next(pending, None)
            if k is None:
                return
            try:
                results[k] = fn(k)
            except Exception as exc:   # re-raised below, lowest index first
                with lock:
                    failed[k] = exc
                stop.set()

    helpers = [threading.Thread(target=drain)
               for _ in range(min(WORKERS, count - 1) - 1)]
    for thread in helpers:
        thread.start()
    try:
        drain()
    finally:
        # Also when the calling thread is interrupted: helpers finish the
        # index in hand and start no other.
        stop.set()
        for thread in helpers:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results
