"""Every cached plan hands out read-only arrays, and a one-entry plan
frees its entry before it builds the next.

A plan's arrays are shared by every later call with the same key, so one
caller writing into them would corrupt every result after it. A one-entry
plan that built first would hold both entries at its peak.
"""

import importlib
import pkgutil
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import hydrolink
from hydrolink import channel, qkd, shack_hartmann, zernike
from hydrolink.field import Grid
from hydrolink.shack_hartmann import LensletArray

GRID = Grid(64, 1e-4)
SENSOR = LensletArray()

#: Each cached plan with arguments that build one: the wavefront-survey
#: sensor at 12 field samples per lenslet, and a small grid.
PLANS = {
    channel._propagation_plan: (GRID, 532e-9, 1.33, 0.5),
    shack_hartmann._lenslet_optics: (SENSOR, 532e-9, 12),
    shack_hartmann._centroid_response: (SENSOR, 532e-9, 12),
    shack_hartmann._gradient_basis: (SENSOR, 1.5e-3, 15),
    zernike._disk_geometry: (GRID, 2e-3),
    zernike._mode_maps: (GRID, 2e-3, (2, 5, 9)),
    zernike._rim_taper: (GRID, 2e-3, 0.1),
    zernike._kolmogorov_plan: (0.05, GRID, 2),
}
#: Cached functions that return no arrays.
SCALAR_CACHES = {zernike._radial_coeffs, qkd.qber_threshold}
#: Each one-entry plan with a second key, and the zernike function that
#: evaluates its entry.
ONE_ENTRY = {
    zernike._mode_maps: ((GRID, 1.5e-3, (2, 5, 9)), "zernike_eval"),
    zernike._rim_taper: ((GRID, 1.5e-3, 0.1), "erf"),
}


def test_every_cache_is_listed():
    cached = set()
    for info in pkgutil.iter_modules(hydrolink.__path__):
        module = importlib.import_module(f"hydrolink.{info.name}")
        cached |= {f for f in vars(module).values()
                   if hasattr(f, "cache_info")
                   and f.__module__ == module.__name__}
    assert cached == set(PLANS) | SCALAR_CACHES


@pytest.mark.parametrize("plan", PLANS, ids=lambda f: f.__name__)
def test_plan_arrays_read_only(plan):
    out = plan(*PLANS[plan])
    arrays = [a for a in (out if isinstance(out, tuple) else (out,))
              if isinstance(a, np.ndarray)]
    assert arrays
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("plan", ONE_ENTRY, ids=lambda f: f.__name__)
def test_one_entry_plan_frees_before_build(plan, monkeypatch):
    key_b, name = ONE_ENTRY[plan]
    plan.cache_clear()
    entry_a = weakref.ref(plan(*PLANS[plan]))
    alive = []
    evaluate = getattr(zernike, name)

    def watched(*args, **kwargs):
        alive.append(entry_a() is not None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(zernike, name, watched)
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

    plan = zernike._one_entry(build)
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
