"""Deterministic, splittable random streams.

Every stochastic operation in the package draws from a Philox counter-based
generator keyed by (seed, *path), integers >= 0, through one rule
(:func:`_sequence`). Streams for different paths are independent and do not
depend on the order in which they are created, so a realization is chosen
only by its path (``channel.draw_realization``) and is the same under any
schedule of :func:`realize`'s threads.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np
import numpy.random

T = TypeVar("T")

#: Threads :func:`realize` runs frames and trials on: one per usable CPU.
WORKERS = len(os.sched_getaffinity(0))

# Stream tags. Keep values stable: changing them changes every seeded output.
TAG_SCREEN = 1
TAG_OCCLUSION = 2
TAG_FRAME = 3
TAG_COEFF = 4
TAG_TRIAL = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for (seed, *path)."""
    ss = _sequence(_words(seed, *path))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *path: int) -> int:
    """Derive an integer seed for a nested component from (seed, *path)."""
    return int(_sequence(_words(seed, *path)).generate_state(1, np.uint64)[0])


def normals(seeds: Sequence[int], tag: int,
            scales: Sequence[tuple[int, float]]) -> np.ndarray:
    """``substream(seed, tag, j).normal(0.0, s)`` (0.0 where s is 0) for
    each seed (rows) and (j, s) of ``scales`` (columns), bit for bit, from
    one Philox whose public state is set before each draw to substream's
    start: the key of ``SeedSequence((seed, tag, j))``, counter zero."""
    rng = np.random.Generator(np.random.Philox(key=0))
    start = rng.bit_generator.state
    out = np.zeros((len(seeds), len(scales)))
    for row, seed in zip(out, seeds):
        prefix = _words(seed, tag)
        for i, (j, sigma) in enumerate(scales):
            if sigma > 0:
                start["state"]["key"] = _sequence(
                    prefix + _words(j)).generate_state(2, np.uint64)
                rng.bit_generator.state = start
                row[i] = rng.normal(0.0, sigma)
    return out


def _words(*ints: int) -> list[int]:
    """The 32-bit words ``SeedSequence(ints)`` splits ints >= 0 into."""
    if (low := min(map(int, ints))) < 0:
        raise ValueError(f"seeds and stream tags must be >= 0, got {low}")
    return [n >> s & 0xFFFFFFFF for n in map(int, ints)
            for s in range(0, n.bit_length() or 1, 32)]


def _sequence(words: list[int]) -> np.random.SeedSequence:
    """``SeedSequence((seed, *path))`` from ``_words(seed, *path)``."""
    return np.random.SeedSequence(np.array(words, np.uint32))


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
