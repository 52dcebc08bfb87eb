"""Every cached plan hands out read-only arrays.

A plan's arrays are shared by every later call with the same key, so one
caller writing into them would corrupt every result after it.
"""

import importlib
import pkgutil

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
