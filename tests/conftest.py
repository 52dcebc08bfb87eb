import time

import numpy as np
import pytest

from hydrolink.field import Grid, lg_mode
from reference_harness import BUNDLED, run_case

WAVELENGTH = 532e-9
WATER_N = 1.33


@pytest.fixture(scope="session")
def grid512():
    return Grid(512, 20e-6)


@pytest.fixture(scope="session")
def grid256():
    return Grid(256, 4e-5)


@pytest.fixture(scope="session")
def gaussian512(grid512):
    return lg_mode(0, 0, grid512.extent / 16, grid512, WAVELENGTH)


@pytest.fixture(scope="session")
def bundled_runs(tmp_path_factory):
    """Each bundled scenario run once at its defaults: (output directory
    per scenario, wall seconds for all of them)."""
    base = tmp_path_factory.mktemp("bundled")
    start = time.perf_counter()
    dirs = {name: run_case(name, base / name) for name in BUNDLED}
    return dirs, time.perf_counter() - start


def rayleigh_range(waist, refractive_index=WATER_N, wavelength=WAVELENGTH):
    return np.pi * waist**2 * refractive_index / wavelength
