import math

import numpy as np
import pytest

from hydrolink.channel import angular_spectrum_propagate, apply_phase_screen
from hydrolink.field import (ComplexField, Grid, GridMismatchError,
                             JonesVector, centroid, lg_mode, mode_overlap,
                             petal_mode, superpose, total_power)
from hydrolink.shack_hartmann import LensletArray, SlopeField, SpotImage
from hydrolink.zernike import PhaseScreen, ZernikeSpectrum, phase_from_spectrum

from conftest import WATER_N, WAVELENGTH, rayleigh_range
from oracles import Vortex, find_vortices, total_vortex_charge


def oracle_overlap(amp_a, amp_b, spacing):
    """Independent dense-grid quadrature of the mode inner product."""
    return np.sum(amp_a * np.conj(amp_b)) * spacing**2


def oracle_gaussian(grid_n, spacing, waist, x0=0.0, y0=0.0):
    """Standalone unit-power Gaussian samples, no package code."""
    c = (np.arange(grid_n) - grid_n // 2) * spacing
    x, y = np.meshgrid(c, c)
    amp = np.sqrt(2.0 / np.pi) / waist * np.exp(
        -((x - x0) ** 2 + (y - y0) ** 2) / waist**2)
    return amp.astype(complex)


class TestGrid:
    def test_extent(self):
        g = Grid(64, 1e-4)
        assert g.extent == pytest.approx(6.4e-3)

    @pytest.mark.parametrize("n,spacing", [(8, 1e-4), (65, 1e-4), (64, 0.0),
                                           (64, -1e-6), (32.0, 1e-4),
                                           ("32", 1e-4)])
    def test_invalid(self, n, spacing):
        with pytest.raises(ValueError):
            Grid(n, spacing)

    def test_numpy_integer_sample_count_accepted(self):
        assert Grid(np.int64(32), 1e-4) == Grid(32, 1e-4)


class TestComplexField:
    def test_shape_mismatch(self, grid512):
        with pytest.raises(ValueError):
            ComplexField(grid512, WAVELENGTH, np.ones((4, 4), complex))

    def test_amplitude_readonly(self, gaussian512):
        with pytest.raises(ValueError):
            gaussian512.amplitude[0, 0] = 1.0

    def test_nonfinite_rejected(self, grid512):
        amp = np.ones((512, 512), complex)
        amp[0, 0] = np.nan
        with pytest.raises(ValueError):
            ComplexField(grid512, WAVELENGTH, amp)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0, np.inf),
                                     complex(0, -np.inf)])
    def test_infinite_parts_rejected(self, grid256, bad):
        amp = np.ones((256, 256), complex)
        amp[3, 5] = bad
        with pytest.raises(ValueError):
            ComplexField(grid256, WAVELENGTH, amp)


#: Each value object's kept array for a given input, with the input's
#: shape and dtype.
_SMALL = Grid(16, 1e-4)
_LENSLETS = LensletArray(count_x=2, count_y=3, pixels_per_lenslet=4)
_KEEPERS = [
    pytest.param((16, 16), complex,
                 lambda a: ComplexField(_SMALL, WAVELENGTH, a).amplitude,
                 id="ComplexField"),
    pytest.param((16, 16), float, lambda a: PhaseScreen(_SMALL, a).phase,
                 id="PhaseScreen"),
    pytest.param((3, 2, 4, 4), float,
                 lambda a: SpotImage(a, _LENSLETS, WAVELENGTH).images,
                 id="SpotImage"),
    pytest.param((3, 2), float,
                 lambda a: SlopeField(a, a, a > 0, _LENSLETS).slope_x,
                 id="SlopeField"),
]


@pytest.mark.parametrize("shape, dtype, keep", _KEEPERS)
def test_keeps_a_frozen_array_and_copies_the_rest(shape, dtype, keep):
    frozen = np.ones(shape, dtype)
    frozen.flags.writeable = False
    assert keep(frozen) is frozen
    stack = np.ones((2, *shape), dtype)
    stack.flags.writeable = False
    assert keep(stack[1]).base is stack
    writable = np.ones(shape, dtype)
    kept = keep(writable)
    writable[...] = 2.0
    assert not kept.flags.writeable and np.all(kept == 1.0)
    base = np.ones((2, *shape), dtype)
    view = base[0]
    view.flags.writeable = False
    assert not np.shares_memory(keep(view), base)


class TestLgMode:
    def test_unit_power(self, grid512):
        for ell, p in [(0, 0), (4, 0), (-3, 1), (9, 0)]:
            f = lg_mode(ell, p, grid512.extent / 16, grid512, WAVELENGTH)
            assert abs(total_power(f) - 1.0) < 1e-9

    def test_gaussian_peak_on_axis(self, gaussian512):
        inten = gaussian512.intensity()
        assert inten[256, 256] == inten.max()

    def test_doughnut_dark_center(self, grid512):
        f = lg_mode(4, 0, grid512.extent / 16, grid512, WAVELENGTH)
        inten = f.intensity()
        assert inten[256, 256] == 0.0
        assert inten.max() > 0.0

    def test_azimuthal_winding(self, grid512):
        ell = 3
        f = lg_mode(ell, 0, grid512.extent / 16, grid512, WAVELENGTH)
        # Phase along a ring at the intensity peak advances by 2*pi*ell.
        w = grid512.extent / 16
        r_pk = w * math.sqrt(ell / 2.0)
        angles = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        idx = grid512.n_samples // 2
        samples = []
        for th in angles:
            ix = idx + int(round(r_pk * math.cos(th) / grid512.spacing))
            iy = idx + int(round(r_pk * math.sin(th) / grid512.spacing))
            samples.append(np.angle(f.amplitude[iy, ix]))
        unwrapped = np.unwrap(samples)
        total = unwrapped[-1] - unwrapped[0] + (angles[1] - angles[0]) * ell
        assert total == pytest.approx(2 * np.pi * ell, rel=0.05)

    def test_radial_nodes(self, grid512):
        # ell = 0 modes are real along the +x axis: p radial sign changes.
        for p in (1, 2):
            f = lg_mode(0, p, grid512.extent / 16, grid512, WAVELENGTH)
            profile = np.real(f.amplitude[256, 256:256 + 100])
            signs = np.sign(profile[np.abs(profile) > 1e-9])
            assert int(np.sum(signs[1:] != signs[:-1])) == p

    def test_orthogonality_l4_l9(self, grid512):
        w = grid512.extent / 16
        f4 = lg_mode(4, 0, w, grid512, WAVELENGTH)
        f9 = lg_mode(9, 0, w, grid512, WAVELENGTH)
        assert abs(mode_overlap(f4, f9)) ** 2 < 1e-10

    def test_gram_matrix_orthonormal(self, grid512):
        w = grid512.extent / 16
        modes = [lg_mode(ell, p, w, grid512, WAVELENGTH)
                 for ell in range(-5, 6) for p in (0, 1)]
        gram = np.array([[mode_overlap(a, b) for b in modes] for a in modes])
        off = gram - np.eye(len(modes))
        assert np.abs(off).max() < 1e-6

    def test_beam_too_large(self, grid512):
        with pytest.raises(ValueError, match="too large"):
            lg_mode(0, 0, grid512.extent / 3, grid512, WAVELENGTH)

    def test_negative_p(self, grid512):
        with pytest.raises(ValueError):
            lg_mode(0, -1, grid512.extent / 16, grid512, WAVELENGTH)


class TestSuperpose:
    def test_identity(self, gaussian512):
        out = superpose([gaussian512], [1.0])
        assert np.array_equal(out.amplitude, gaussian512.amplitude)

    def test_linearity(self, gaussian512):
        out = superpose([gaussian512, gaussian512], [0.5, 0.5])
        np.testing.assert_allclose(out.amplitude, gaussian512.amplitude,
                                   atol=1e-15)

    def test_petal_lobes(self, grid512):
        ell = 4
        f = petal_mode(ell, grid512.extent / 16, grid512, WAVELENGTH)
        assert abs(total_power(f) - 1.0) < 1e-9
        w = grid512.extent / 16
        r_pk = w * math.sqrt(ell / 2.0)
        angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        ring = []
        for th in angles:
            ix = 256 + int(round(r_pk * np.cos(th) / grid512.spacing))
            iy = 256 + int(round(r_pk * np.sin(th) / grid512.spacing))
            ring.append(f.intensity()[iy, ix])
        ring = np.array(ring)
        bright = ring > 0.5 * ring.max()
        # count contiguous bright arcs around the ring
        lobes = int(np.sum(bright & ~np.roll(bright, 1)))
        assert lobes == 2 * ell

    def test_grid_mismatch(self, gaussian512, grid256):
        other = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        with pytest.raises(GridMismatchError):
            superpose([gaussian512, other], [1.0, 1.0])


class TestModeOverlap:
    def test_self_overlap(self, gaussian512):
        assert abs(mode_overlap(gaussian512, gaussian512) - 1.0) < 1e-9

    def test_opposite_charges(self, grid512):
        w = grid512.extent / 16
        f4 = lg_mode(4, 0, w, grid512, WAVELENGTH)
        fm4 = lg_mode(-4, 0, w, grid512, WAVELENGTH)
        assert abs(mode_overlap(f4, fm4)) ** 2 < 1e-10

    def test_displaced_gaussian_matches_quadrature_oracle(self, grid512):
        w = grid512.extent / 16
        d = w / 2
        n, s = grid512.n_samples, grid512.spacing
        a = oracle_gaussian(n, s, w, x0=d)
        b = oracle_gaussian(n, s, w)
        expect = abs(oracle_overlap(a, b, s)) ** 2
        # frozen from the quadrature oracle; analytic exp(-(d/w)^2) = 0.77880078
        assert expect == pytest.approx(0.7788007830714049, abs=1e-9)

        f = lg_mode(0, 0, w, grid512, WAVELENGTH)
        shifted = f.with_amplitude(np.roll(f.amplitude, int(round(d / s)),
                                           axis=1))
        got = abs(mode_overlap(shifted, f)) ** 2
        assert got == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("n", [64, 128])
    def test_bits_do_not_depend_on_the_grid_size(self, n):
        # numpy evaluates a * conj(b) as conj(b) * a into the temporary
        # only from 256 KiB up (n >= 128), and the two orders round the
        # imaginary part differently; the overlap takes the second at
        # every size.
        grid = Grid(n, 1e-5)
        rng = np.random.default_rng(n)
        a, b = (ComplexField(grid, WAVELENGTH, rng.normal(size=(n, n))
                             + 1j * rng.normal(size=(n, n)))
                for _ in range(2))
        product = np.conj(b.amplitude)
        np.multiply(product, a.amplitude, out=product)
        want = complex(np.sum(product) * grid.spacing**2)
        assert mode_overlap(a, b) == want

    def test_cauchy_schwarz(self, grid256):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = ComplexField(grid256, WAVELENGTH,
                             rng.normal(size=(256, 256))
                             + 1j * rng.normal(size=(256, 256)))
            b = ComplexField(grid256, WAVELENGTH,
                             rng.normal(size=(256, 256))
                             + 1j * rng.normal(size=(256, 256)))
            bound = math.sqrt(total_power(a) * total_power(b))
            assert abs(mode_overlap(a, b)) <= bound * (1 + 1e-12)


class TestCentroid:
    def test_centered(self, gaussian512):
        cx, cy = centroid(gaussian512)
        assert abs(cx) < gaussian512.grid.spacing / 10
        assert abs(cy) < gaussian512.grid.spacing / 10

    def test_translation_equivariance(self, gaussian512):
        s = gaussian512.grid.spacing
        shifted = gaussian512.with_amplitude(
            np.roll(gaussian512.amplitude, 3, axis=1))
        cx, cy = centroid(shifted)
        assert cx == pytest.approx(3 * s, rel=0.01)
        assert abs(cy) < s / 10

    def test_zero_power(self, grid256):
        dark = ComplexField(grid256, WAVELENGTH, np.zeros((256, 256)))
        with pytest.raises(ValueError):
            centroid(dark)

    def test_tilt_displacement_matches_ray_optics(self, grid512):
        # tip phase then propagation: displacement = L * slope / k_medium
        w = grid512.extent / 16
        f = lg_mode(0, 0, w, grid512, WAVELENGTH)
        r_ap = 0.45 * grid512.extent
        a2 = 1.0
        screen = phase_from_spectrum(ZernikeSpectrum(((2, a2),), r_ap),
                                     grid512)
        length = 5.5
        out = angular_spectrum_propagate(apply_phase_screen(f, screen),
                                         length, WATER_N)
        _, cy = centroid(out)
        k_med = 2 * np.pi * WATER_N / WAVELENGTH
        predicted = length * (2 * a2 / r_ap) / k_med
        assert cy == pytest.approx(predicted, rel=0.01)


class TestFindVortices:
    def test_lg1_single_vortex(self, grid512):
        f = lg_mode(1, 0, grid512.extent / 16, grid512, WAVELENGTH)
        vs = find_vortices(f)
        assert len(vs) == 1
        assert vs[0].charge == 1
        assert np.hypot(*vs[0].position) <= grid512.spacing * math.sqrt(2)

    def test_lg4_total_charge(self, grid512):
        f = lg_mode(4, 0, grid512.extent / 16, grid512, WAVELENGTH)
        vs = find_vortices(f)
        assert total_vortex_charge(vs) == 4
        for v in vs:
            assert np.hypot(*v.position) < 4 * grid512.spacing

    def test_astigmatism_splits_into_unit_charges(self, grid512):
        w = grid512.extent / 16
        f = lg_mode(4, 0, w, grid512, WAVELENGTH)
        a6 = 0.3 * 2 * np.pi    # 0.3 waves of oblique-free astigmatism
        screen = phase_from_spectrum(
            ZernikeSpectrum(((6, a6),), 0.45 * grid512.extent), grid512)
        out = angular_spectrum_propagate(apply_phase_screen(f, screen),
                                         rayleigh_range(w), WATER_N)
        vs = find_vortices(out)
        assert [v.charge for v in vs] == [1, 1, 1, 1]
        positions = {(round(v.position[0] / grid512.spacing),
                      round(v.position[1] / grid512.spacing)) for v in vs}
        assert len(positions) == 4

    def test_charge_invariant_under_propagation(self, grid512):
        f = lg_mode(4, 0, grid512.extent / 16, grid512, WAVELENGTH)
        out = angular_spectrum_propagate(
            f, rayleigh_range(grid512.extent / 16), WATER_N)
        assert total_vortex_charge(find_vortices(out)) == 4

    def test_empty_for_dark_field(self, grid256):
        dark = ComplexField(grid256, WAVELENGTH, np.zeros((256, 256)))
        assert find_vortices(dark) == []

    def test_invalid_floor(self, gaussian512):
        with pytest.raises(ValueError):
            find_vortices(gaussian512, min_intensity_frac=1.0)

    @pytest.mark.parametrize("frac", [1e-4, 1e-2, 0.2])
    def test_gate_matches_maximum_filter(self, grid256, frac):
        # The windowed maximum is scipy.ndimage.maximum_filter's with
        # mode="nearest", so the same plaquettes pass the gate.
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(11)
        n = grid256.n_samples
        speckle = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        speckle[:, : n // 3] *= 1e-4        # a dark band next to an edge
        # The gate drops some of the speckle's vortices at every floor.
        for field, gated in (
                (lg_mode(4, 1, grid256.extent / 16, grid256, WAVELENGTH),
                 False),
                (ComplexField(grid256, WAVELENGTH, speckle), True)):
            inten = field.intensity()
            bright = ndimage.maximum_filter(
                inten, size=2 * max(2, n // 16) + 1, mode="nearest")
            gate = bright[:-1, :-1] >= frac * inten.max()
            loose = find_vortices(field, min_intensity_frac=0.0)
            want = [v for v in loose
                    if gate[round(v.position[1] / grid256.spacing - 0.5)
                            + n // 2,
                            round(v.position[0] / grid256.spacing - 0.5)
                            + n // 2]]
            got = find_vortices(field, min_intensity_frac=frac)
            assert got == want
            assert len(got) < len(loose) or not gated


class TestParseval:
    def test_power_position_vs_frequency(self, gaussian512):
        p_pos = total_power(gaussian512)
        spec = np.fft.fft2(gaussian512.amplitude)
        n = gaussian512.grid.n_samples
        p_freq = float(np.sum(np.abs(spec) ** 2)) / n**2 \
            * gaussian512.grid.spacing**2
        assert abs(p_pos - p_freq) < 1e-10


class TestTotalPower:
    @pytest.mark.parametrize("n", [64, 384])
    def test_equals_abs_squared_sum_bitwise(self, n):
        rng = np.random.default_rng(n)
        grid = Grid(n, 1e-4)
        for scale in (1e-160, 1.0, 1e150):
            amp = scale * (rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n)))
            field = ComplexField(grid, 532e-9, amp)
            oracle = float(np.sum(np.abs(amp) ** 2)) * grid.spacing**2
            assert total_power(field) == oracle


class TestJonesVector:
    def test_normalization(self):
        v = JonesVector((3.0, 4.0))
        assert abs(abs(v.components[0]) ** 2
                   + abs(v.components[1]) ** 2 - 1.0) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            JonesVector((0.0, 0.0))


class TestVortexType:
    def test_zero_charge_rejected(self):
        with pytest.raises(ValueError):
            Vortex(position=(0.0, 0.0), charge=0)
