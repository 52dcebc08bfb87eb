"""Every array plan is a ``field.plan``: it keeps the value for its latest
arguments only, frees that entry before it builds the next, and hands out
read-only arrays.

A plan's arrays are shared by every later call with the same key, so one
caller writing into them would corrupt every result after it. A plan that
built first would hold both entries at its peak.
"""

import importlib
import pkgutil
import sys
import threading
import time
import weakref
from functools import lru_cache

import numpy as np
import pytest

import hydrolink
from hydrolink import channel, field, qkd, shack_hartmann, zernike
from hydrolink.field import Grid
from hydrolink.shack_hartmann import LensletArray

GRID = Grid(64, 1e-4)
SENSOR = LensletArray()

#: Each plan with arguments that build one: the wavefront-survey sensor at
#: 12 field samples per lenslet, and a small grid.
PLANS = {
    channel._propagation_plan: (GRID, 532e-9, 1.33, 0.5),
    shack_hartmann._lenslet_plan: (SENSOR, 532e-9, 12),
    shack_hartmann._gradient_basis: (SENSOR, 1.5e-3, 15),
    zernike._disk_plan: (GRID, 2e-3, (2, 5, 9), 0.1),
    zernike._kolmogorov_plan: (0.05, GRID, 2),
}
#: Cached functions that return no arrays, with arguments.
SCALAR_CACHES = {zernike._radial_coeffs: (4, 2), qkd.qber_threshold: ()}
#: Each plan with a second key, and the module and name of a function its
#: build calls.
SECOND_KEYS = {
    shack_hartmann._lenslet_plan: ((SENSOR, 532e-9, 10),
                                   shack_hartmann, "_windowed_com"),
    shack_hartmann._gradient_basis: ((SENSOR, 1.2e-3, 15),
                                     shack_hartmann, "gradient_unchecked"),
    zernike._disk_plan: ((GRID, 1.5e-3, (2, 5, 9), 0.1),
                         zernike, "zernike_eval"),
    zernike._kolmogorov_plan: ((0.1, GRID, 2), zernike, "_cell_moments"),
}


def _arrays(value):
    return [a for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]


def test_every_cache_is_listed():
    cached = set()
    for info in pkgutil.iter_modules(hydrolink.__path__):
        module = importlib.import_module(f"hydrolink.{info.name}")
        cached |= {f for f in vars(module).values()
                   if hasattr(f, "cache_info")
                   and f.__module__ == module.__name__}
    assert cached == set(PLANS) | set(SCALAR_CACHES)
    # a plan runs field.plan's lookup; the scalar memos stay lru_cache
    lookup = field.plan(abs).__code__
    for plan in PLANS:
        assert plan.__code__ is lookup
        assert plan.cache_info().maxsize == 1
    for memo, args in SCALAR_CACHES.items():
        assert isinstance(memo, type(lru_cache(abs)))
        assert not _arrays(memo(*args))


@pytest.mark.parametrize("plan", PLANS, ids=lambda f: f.__name__)
def test_plan_arrays_read_only(plan):
    arrays = _arrays(plan(*PLANS[plan]))
    assert arrays
    assert not any(a.flags.writeable for a in arrays)


def test_plan_frees_before_build_and_freezes_arrays():
    # A toy build that returns fresh, writable arrays.
    refs, alive = [], []

    @field.plan
    def build(n):
        alive.append([ref() is not None for ref in refs])
        return np.zeros(n), np.arange(n), "label"

    first = build(3)
    assert not any(a.flags.writeable for a in first[:2])
    assert first[2] == "label"
    assert build(3) is first
    refs.extend(weakref.ref(a) for a in first[:2])
    del first
    build(4)
    assert alive == [[], [False, False]]
    assert build.cache_info() == (1, 2, 1, 1)
    build.cache_clear()
    assert build.cache_info() == (0, 0, 1, 0)
    assert not field.plan(np.ones)(5).flags.writeable


@pytest.mark.parametrize("plan", SECOND_KEYS, ids=lambda f: f.__name__)
def test_one_entry_plan_frees_before_build(plan, monkeypatch):
    key_b, module, name = SECOND_KEYS[plan]
    plan.cache_clear()
    entry_a = weakref.ref(_arrays(plan(*PLANS[plan]))[0])
    alive = []
    evaluate = getattr(module, name)

    def watched(*args, **kwargs):
        alive.append(entry_a() is not None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(module, name, watched)
    plan(*key_b)
    assert alive[:1] == [False]
    assert plan.cache_info().currsize == 1


def test_one_entry_plan_shared_by_threads():
    # More threads than cores, alternating between two keys: every caller
    # gets its key's value, and no lookup or build goes uncounted.
    builds = []

    def build(key):
        builds.append(key)
        time.sleep(0)                   # a build lets other threads run
        return (key,)

    plan = field.plan(build)
    calls, wrong = 200, []

    def worker(first):
        for k in range(calls):
            key = (first + k) % 2
            if plan(key) != (key,):
                wrong.append(key)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    info = plan.cache_info()
    assert not wrong
    assert info.hits + info.misses == len(threads) * calls
    assert info.misses == len(builds)
    assert info.currsize == 1
