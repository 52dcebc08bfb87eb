"""The numpy special functions against scipy.special, which they replace.

scipy is a test dependency only; these tests skip without it.
"""

import math

import numpy as np
import pytest

from hydrolink.field import Grid, lg_mode
from hydrolink.special import ERF_ONE, erf, genlaguerre

special = pytest.importorskip("scipy.special")


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestErf:
    EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0),
             -np.nextafter(1.0, 2.0), ERF_ONE, -ERF_ONE,
             np.nextafter(ERF_ONE, 0.0), -np.nextafter(ERF_ONE, 0.0),
             5.85, 5.9, 5.95, 1e-300, -1e-300, 5e-324, 1e300, -1e300,
             np.inf, -np.inf]

    def test_dense_sweep_bit_for_bit(self):
        x = np.linspace(-12.0, 12.0, 2_400_001)
        assert np.array_equal(_bits(erf(x)), _bits(special.erf(x)))

    def test_random_bands_bit_for_bit(self):
        rng = np.random.default_rng(20240611)
        for half in (1.0, 1.5, 6.5, 7.0):
            x = rng.uniform(-half, half, 200_000)
            assert np.array_equal(_bits(erf(x)), _bits(special.erf(x)))

    def test_edges_bit_for_bit(self):
        x = np.array(self.EDGES)
        assert np.array_equal(_bits(erf(x)), _bits(special.erf(x)))

    def test_nan(self):
        assert np.isnan(erf(np.array([np.nan, -np.nan]))).all()

    def test_in_place(self):
        x = np.linspace(-8.0, 8.0, 9_999).reshape(101, 99)
        want = erf(x)
        out = erf(x, out=x)
        assert out is x
        assert np.array_equal(_bits(x), _bits(want))
        assert x.shape == (101, 99)


def _terms_bound(p, a, x):
    """Sum of the magnitudes of the explicit series of L_p^a(x), the scale
    of its rounding error."""
    return sum(math.comb(p + a, p - k) * x ** k / math.factorial(k)
               for k in range(p + 1))


class TestGenlaguerre:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_within_1e13_of_scipy(self, p):
        x = np.linspace(0.0, 256.0, 25_601)
        for a in range(13):
            got = genlaguerre(p, a, x)
            ref = special.eval_genlaguerre(p, a, x)
            assert np.all(np.abs(got - ref) <= 1e-13 * _terms_bound(p, a, x))

    def test_lg_mode_matches_scipy_factor(self):
        grid = Grid(128, 4e-5)
        waist = grid.extent / 16
        x, y = grid.mesh()
        r2 = x * x + y * y
        phi = np.arctan2(y, x)
        for p in range(1, 7):
            for ell in range(-12, 13):
                a = abs(ell)
                norm = math.sqrt(2.0 * math.factorial(p) / (
                    math.pi * math.factorial(p + a))) / waist
                ref = (norm * (np.sqrt(2.0 * r2) / waist) ** a
                       * special.eval_genlaguerre(p, a, 2.0 * r2 / waist**2)
                       * np.exp(-r2 / waist**2) * np.exp(1j * ell * phi))
                ref /= math.sqrt(float(np.sum(np.abs(ref) ** 2))
                                 * grid.spacing**2)
                got = lg_mode(ell, p, waist, grid).amplitude
                assert np.max(np.abs(got - ref)) <= \
                    1e-13 * np.max(np.abs(ref))
