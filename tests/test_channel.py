import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolink.channel import (NYQUIST_GUARD_FRACTION, AliasingError,
                               ChannelConfig, ChannelResult, Draws, Launch,
                               Occluder, _apply_screen, _diffract,
                               _guard_fractions, _propagation_plan,
                               angular_spectrum_propagate, apply_occlusion,
                               apply_phase_screen, draw_realizations,
                               launch, realize_screens, run_channel,
                               transmittance)
from hydrolink.field import (ComplexField, ConfigError, Grid,
                             GridMismatchError, centroid, lg_mode,
                             superpose, total_power)
from hydrolink.seeding import TAG_COEFF, TAG_FRAME, TAG_OCCLUSION, \
    TAG_SCREEN, TAG_TRIAL, child_seed
from hydrolink.special import erf
from hydrolink.zernike import (ZernikeSpectrum, _disk_plan,
                               phase_from_spectrum)
from hydrolink.scenario import modal_sigma_table

from conftest import WATER_N, WAVELENGTH, rayleigh_range
import oracles
from oracles import (apply_attenuation, beam_width, centroid_law,
                     find_vortices, kolmogorov_coherence, modal_spectrum,
                     rytov_log_amplitude_variance, total_vortex_charge)


class TestTransmittance:
    def test_zero_attenuation(self):
        assert transmittance(0.0, 123.0) == 1.0

    def test_turbid_coastal_10m(self):
        # 1.3 dB/m over 10 m: 10^-1.3
        assert transmittance(1.3, 10.0) == pytest.approx(10**-1.3, rel=1e-12)
        assert transmittance(1.3, 10.0) == pytest.approx(0.0501187, rel=1e-5)

    def test_river_5m(self):
        assert transmittance(5.4, 5.0) == pytest.approx(10**-2.7, rel=1e-12)
        assert transmittance(5.4, 5.0) == pytest.approx(2.0e-3, rel=5e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmittance(-0.1, 1.0)


class TestAttenuation:
    def test_identity(self, gaussian512):
        out = apply_attenuation(gaussian512, 0.0, 5.0)
        assert np.array_equal(out.amplitude, gaussian512.amplitude)

    def test_river_full_length(self, gaussian512):
        out = apply_attenuation(gaussian512, 5.4, 5.5)
        ratio = total_power(out) / total_power(gaussian512)
        assert ratio == pytest.approx(10**-2.97, rel=1e-9)
        assert ratio == pytest.approx(1.07e-3, abs=2e-6)

    def test_pure_water_100m(self, gaussian512):
        out = apply_attenuation(gaussian512, 0.13, 100.0)
        ratio = total_power(out) / total_power(gaussian512)
        assert ratio == pytest.approx(10**-1.3, rel=1e-9)
        assert ratio == pytest.approx(0.050, abs=2e-4)

    def test_composes_multiplicatively(self, gaussian512):
        half = apply_attenuation(
            apply_attenuation(gaussian512, 5.4, 2.75), 5.4, 2.75)
        full = apply_attenuation(gaussian512, 5.4, 5.5)
        np.testing.assert_allclose(half.amplitude, full.amplitude,
                                   rtol=1e-14, atol=0.0)


class TestPropagation:
    def test_zero_distance_identity(self, gaussian512):
        out = angular_spectrum_propagate(gaussian512, 0.0, WATER_N)
        assert np.array_equal(out.amplitude, gaussian512.amplitude)

    def test_power_conserved(self, gaussian512):
        out = angular_spectrum_propagate(gaussian512, 5.5, WATER_N)
        assert abs(total_power(out) - total_power(gaussian512)) < 1e-10

    def test_rayleigh_range_width_growth(self, gaussian512):
        w0 = beam_width(gaussian512)
        zr = rayleigh_range(gaussian512.grid.extent / 16)
        out = angular_spectrum_propagate(gaussian512, zr, WATER_N)
        assert beam_width(out) / w0 == pytest.approx(math.sqrt(2), rel=5e-3)

    def test_semigroup(self, gaussian512):
        one = angular_spectrum_propagate(
            angular_spectrum_propagate(gaussian512, 1.3, WATER_N), 2.2,
            WATER_N)
        two = angular_spectrum_propagate(gaussian512, 3.5, WATER_N)
        rel = np.linalg.norm(one.amplitude - two.amplitude) \
            / np.linalg.norm(two.amplitude)
        assert rel < 1e-9

    def test_vortex_charge_preserved(self, grid512):
        f = lg_mode(4, 0, grid512.extent / 16, grid512, WAVELENGTH)
        out = angular_spectrum_propagate(f, 2.0, WATER_N)
        assert total_vortex_charge(find_vortices(out)) == 4

    def test_aliasing_guard(self, grid256):
        rng = np.random.default_rng(0)
        noisy = ComplexField(grid256, WAVELENGTH,
                             rng.normal(size=(256, 256)).astype(complex))
        with pytest.raises(AliasingError) as err:
            angular_spectrum_propagate(noisy, 0.1, WATER_N)
        # One propagation on its own has no split step, row or screen.
        assert re.fullmatch(r"\d\.\d\de[+-]\d\d of field energy beyond 80% "
                            r"of Nyquist \(limit 1e-06\)", str(err.value))

    def test_negative_distance(self, gaussian512):
        with pytest.raises(ValueError):
            angular_spectrum_propagate(gaussian512, -1.0, WATER_N)

    def test_read_only_input_untouched(self, grid256):
        field = lg_mode(3, 0, grid256.extent / 16, grid256, WAVELENGTH)
        before = field.amplitude.copy()
        assert not field.amplitude.flags.writeable
        out = angular_spectrum_propagate(field, 0.5, WATER_N)
        assert np.array_equal(field.amplitude.view(np.float64),
                              before.view(np.float64))
        assert not np.shares_memory(out.amplitude, field.amplitude)

    def test_writable_stack_transformed_in_place(self, grid256):
        field = lg_mode(3, 0, grid256.extent / 16, grid256, WAVELENGTH)
        stack = field.amplitude[None].copy()
        one = ChannelConfig(length=0.5, refractive_index=WATER_N,
                            attenuation_db_per_m=0.0)
        args = ((field,), one, np.ones((1, 1)), 0)
        want, _ = _diffract(field.amplitude[None], *args)
        got, _ = _diffract(stack, *args)
        assert got is stack
        assert np.array_equal(got.view(np.float64), want.view(np.float64))


def _reference_propagate(field, dz, refractive_index):
    """The propagator as written before its plan was cached."""
    grid = field.grid
    n = grid.n_samples
    spec = np.fft.fft2(field.amplitude)
    f = np.fft.fftfreq(n, d=grid.spacing)
    fx, fy = np.meshgrid(f, f, indexing="xy")
    fr2 = fx * fx + fy * fy
    energy = np.abs(spec) ** 2
    guard = fr2 > (NYQUIST_GUARD_FRACTION / (2.0 * grid.spacing)) ** 2
    assert float(energy[guard].sum()) / float(energy.sum()) <= 1e-6
    k_med = 2.0 * math.pi * refractive_index / field.wavelength
    kz2 = k_med * k_med - (2.0 * math.pi) ** 2 * fr2
    kz = np.sqrt(np.abs(kz2))
    kt2 = (2.0 * math.pi) ** 2 * fr2
    h = np.where(kz2 >= 0.0,
                 np.exp(-1j * dz * kt2 / (kz + k_med)),
                 np.exp(-kz * dz))
    return np.fft.ifft2(spec * h)


class TestPropagationPlan:
    @pytest.mark.parametrize("n, spacing", [(128, 8e-5), (256, 4e-5)])
    @pytest.mark.parametrize("dz", [5.5 / 3, 2.0])
    def test_matches_reference_bitwise(self, n, spacing, dz):
        grid = Grid(n, spacing)
        f = lg_mode(3, 0, grid.extent / 16, grid, WAVELENGTH)
        for _ in range(2):      # cold, then from the cached plan
            out = angular_spectrum_propagate(f, dz, WATER_N)
            assert np.array_equal(out.amplitude,
                                  _reference_propagate(f, dz, WATER_N))

    def test_guard_still_checked_on_warm_plan(self, grid256):
        clean = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        angular_spectrum_propagate(clean, 0.1, WATER_N)
        rng = np.random.default_rng(0)
        noisy = ComplexField(grid256, WAVELENGTH,
                             rng.normal(size=(256, 256)).astype(complex))
        with pytest.raises(AliasingError):
            angular_spectrum_propagate(noisy, 0.1, WATER_N)

    def test_cached_arrays_read_only(self, grid256):
        guard, h = _propagation_plan(grid256, WAVELENGTH, WATER_N, 1.0)
        inside, _, maps, taper = _disk_plan(grid256, 0.4 * grid256.extent,
                                            (2, 5), 0.1)
        for a in (guard, h, inside, maps, taper):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 0.0

    @settings(max_examples=40, deadline=None)
    @given(half_n=st.integers(8, 32),
           spacing=st.floats(5e-6, 1e-4),
           dz=st.floats(1e-3, 10.0))
    def test_property_bitwise_and_unitary(self, half_n, spacing, dz):
        grid = Grid(2 * half_n, spacing)
        f = lg_mode(0, 0, grid.extent / 6, grid, WAVELENGTH)
        out = angular_spectrum_propagate(f, dz, WATER_N)
        assert np.array_equal(out.amplitude,
                              _reference_propagate(f, dz, WATER_N))
        assert total_power(out) == pytest.approx(total_power(f), rel=1e-12)


class TestPhaseScreenApplication:
    def test_zero_screen_identity(self, gaussian512):
        screen = phase_from_spectrum(
            ZernikeSpectrum((), 0.4 * gaussian512.grid.extent),
            gaussian512.grid)
        out = apply_phase_screen(gaussian512, screen)
        np.testing.assert_array_equal(out.amplitude, gaussian512.amplitude)

    def test_power_conserved_exactly(self, gaussian512):
        screen = phase_from_spectrum(
            ZernikeSpectrum(((5, 1.2), (8, -0.4)),
                            0.4 * gaussian512.grid.extent),
            gaussian512.grid)
        out = apply_phase_screen(gaussian512, screen)
        assert total_power(out) == pytest.approx(total_power(gaussian512),
                                                 rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(coeffs=st.dictionaries(st.integers(2, 15), st.floats(-4.0, 4.0),
                                  max_size=6),
           ell=st.integers(-3, 3), rim_taper=st.sampled_from([0.0, 0.1]))
    def test_property_rendered_screen_conserves_power(self, coeffs, ell,
                                                      rim_taper):
        grid = Grid(64, 1e-4)
        f = lg_mode(ell, 0, grid.extent / 8, grid, WAVELENGTH)
        screen = phase_from_spectrum(
            ZernikeSpectrum(tuple(coeffs.items()), 0.45 * grid.extent), grid,
            rim_taper=rim_taper)
        out = apply_phase_screen(f, screen)
        assert total_power(out) == pytest.approx(total_power(f), rel=1e-12)

    def test_grid_mismatch(self, gaussian512, grid256):
        screen = phase_from_spectrum(
            ZernikeSpectrum((), 0.4 * grid256.extent), grid256)
        with pytest.raises(GridMismatchError):
            apply_phase_screen(gaussian512, screen)

    def test_tilt_then_propagation_displaces_centroid(self, grid512):
        f = lg_mode(0, 0, grid512.extent / 16, grid512, WAVELENGTH)
        r_ap = 0.45 * grid512.extent
        screen = phase_from_spectrum(ZernikeSpectrum(((3, 0.8),), r_ap),
                                     grid512)
        length = 4.0
        out = angular_spectrum_propagate(apply_phase_screen(f, screen),
                                         length, WATER_N)
        cx, cy = centroid(out)
        k_med = 2 * math.pi * WATER_N / WAVELENGTH
        predicted = length * (2 * 0.8 / r_ap) / k_med
        assert cx == pytest.approx(predicted, rel=0.01)
        assert abs(cy) < abs(predicted) * 0.01

    def test_astigmatism_splits_vortex(self, grid512):
        w = grid512.extent / 16
        f = lg_mode(4, 0, w, grid512, WAVELENGTH)
        screen = phase_from_spectrum(
            ZernikeSpectrum(((6, 0.3 * 2 * math.pi),),
                            0.45 * grid512.extent), grid512)
        out = angular_spectrum_propagate(apply_phase_screen(f, screen),
                                         rayleigh_range(w), WATER_N)
        vs = find_vortices(out)
        assert len(vs) == 4
        assert all(v.charge == 1 for v in vs)


class TestOcclusion:
    def test_zero_opacity_identity(self, gaussian512):
        occ = Occluder(radius=1e-3, opacity=0.0, position=(0.0, 0.0))
        out = apply_occlusion(gaussian512, occ)
        assert np.array_equal(out.amplitude, gaussian512.amplitude)

    def test_quarter_area_disk_power(self, grid256):
        # The erf rim keeps the hard disk's blocked amplitude area, not its
        # blocked power: a rim sample of amplitude a < 1 passes power
        # a**2 < a, so the power ratio reads 0.74, not 0.75.
        uniform = ComplexField(grid256, WAVELENGTH,
                               np.ones((256, 256), complex))
        radius = math.sqrt(0.25 / math.pi) * grid256.extent
        occ = Occluder(radius=radius, opacity=1.0, position=(0.0, 0.0))
        out = apply_occlusion(uniform, occ)
        blocked = float(np.mean(1.0 - out.amplitude.real))
        assert blocked == pytest.approx(0.25, abs=5e-3)

    def test_half_petal_suppressed(self, grid512):
        # sin-type petal: lobes at 22.5 + k*45 degrees, none on the x = 0
        # boundary; a disk over the x > 0 half kills the four right lobes
        w = grid512.extent / 16
        s = 1.0 / math.sqrt(2.0)
        f = superpose([lg_mode(4, 0, w, grid512, WAVELENGTH),
                       lg_mode(-4, 0, w, grid512, WAVELENGTH)], [s, -s])
        big = 0.45 * grid512.extent
        occ = Occluder(radius=big, opacity=1.0, position=(big, 0.0))
        out = apply_occlusion(f, occ)
        inten = out.intensity()
        right = inten[:, 260:].sum()
        left = inten[:, :252].sum()
        assert right < 0.05 * left

    def test_invalid_opacity(self):
        with pytest.raises(ValueError):
            Occluder(radius=1e-3, opacity=1.5, position=(0.0, 0.0))

    @pytest.mark.parametrize("position", [
        (0.0, 0.0), (3.1e-3, -1e-3), (7e-3, -7e-3)],
        ids=["centre", "across-grid-edge", "outside-grid"])
    def test_footprint_product_equals_full_grid_product(self, position):
        grid = Grid(64, 1e-4)
        rng = np.random.default_rng(7)
        amp = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        occ = Occluder(radius=8e-4, position=position, opacity=0.9)
        got = apply_occlusion(ComplexField(grid, WAVELENGTH, amp), occ)
        want = amp * _full_grid_transmission(occ, grid)
        assert np.array_equal(got.amplitude.view(np.int64),
                              want.view(np.int64))


def _full_grid_transmission(occ, grid):
    """The occluder's amplitude factor evaluated over the whole grid, as it
    was before the product was confined to the footprint."""
    edge = max(0.05 * occ.radius, 3.0 * grid.spacing)
    x, y = grid.mesh()
    r = np.hypot(x - occ.position[0], y - occ.position[1])
    blocked = 0.5 * (1.0 - erf((r - occ.radius) / edge))
    return 1.0 - occ.opacity * blocked


class TestChannelConfig:
    def test_defaults_are_river_link(self):
        cfg = ChannelConfig()
        assert cfg.length == 5.5
        assert cfg.attenuation_db_per_m == 5.4
        assert cfg.refractive_index == 1.33

    @pytest.mark.parametrize("kwargs", [
        dict(length=0.0),
        dict(attenuation_db_per_m=-1.0),
        dict(n_screens=-1),
        dict(refractive_index=0.9),
        dict(screen_source="bogus"),
        dict(n_screens=2),                          # no source
        dict(n_screens=1, screen_source="modal"),   # no sigmas
        dict(n_screens=1, screen_source="kolmogorov"),
        dict(screen_aperture_radius=0.0),
        dict(occluder_radius=-1e-3),
        dict(n_screens=1, screen_source="explicit"),  # not a screen source
        dict(n_screens=1, screen_source="modal",
             modal_sigmas=((2, math.nan),)),
        dict(n_screens=1, screen_source="modal",
             modal_sigmas=((2, 0.1), (2, 0.2))),    # j given twice
        dict(refractive_index=math.nan),
        dict(attenuation_db_per_m=math.nan),
        dict(occlusion_rate=math.nan),
        # Each seed below used to build and fail only at the first draw.
        dict(seed=5.9), dict(seed=-1), dict(seed="5"), dict(seed=True),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, key", [
        (dict(occluder_opacity=1.5), "occlusion.opacity"),
        (dict(occluder_opacity=-0.1), "occlusion.opacity"),
        (dict(r0=-0.1), "screens.r0"),
        (dict(subharmonic_levels=-1), "screens.subharmonic_levels"),
    ], ids=["opacity-above-1", "negative-opacity", "negative-r0",
            "negative-subharmonic-levels"])
    def test_every_stored_field_checked_when_built(self, kwargs, key):
        # Without screens or occluders these values would never be used,
        # so only the constructor can catch them.
        with pytest.raises(ConfigError) as err:
            ChannelConfig(**kwargs)
        assert err.value.key == key

    @pytest.mark.parametrize("kwargs, key", [
        (dict(length=math.inf), "length"),
        (dict(length=math.nan), "length"),
        (dict(n_screens=1.5, screen_source="kolmogorov", r0=0.1),
         "n_screens"),
        (dict(n_screens=True, screen_source="kolmogorov", r0=0.1),
         "n_screens"),
        (dict(n_screens=2.0, screen_source="kolmogorov", r0=0.1),
         "n_screens"),
        (dict(subharmonic_levels=0.5), "screens.subharmonic_levels"),
        (dict(subharmonic_levels=False), "screens.subharmonic_levels"),
    ], ids=["infinite-length", "nan-length", "fractional-n-screens",
            "bool-n-screens", "float-n-screens", "fractional-subharmonics",
            "bool-subharmonics"])
    def test_path_fields_are_sound_when_built(self, kwargs, key):
        # The launch derives dz from these fields; each of them used to
        # fail mid-transit, or (a bool) pass.
        with pytest.raises(ConfigError) as err:
            ChannelConfig(**kwargs)
        assert err.value.key == key

    def test_numpy_integers_accepted(self):
        cfg = ChannelConfig(n_screens=np.int64(2), screen_source="kolmogorov",
                            r0=0.1, subharmonic_levels=np.int32(1),
                            seed=np.uint32(7))
        assert (cfg.n_screens, cfg.subharmonic_levels, cfg.seed) == (2, 1, 7)

    def test_transmittance_bounds(self, gaussian512):
        with pytest.raises(ValueError):
            ChannelResult(output_field=gaussian512, transmittance=1.5)


class TestRunChannel:
    def test_pure_propagation_composition(self, gaussian512):
        cfg = ChannelConfig(length=3.0, attenuation_db_per_m=0.0,
                            n_screens=0, screen_source="none")
        res = run_channel(gaussian512, cfg)
        direct = angular_spectrum_propagate(gaussian512, 3.0, WATER_N)
        np.testing.assert_allclose(res.output_field.amplitude,
                                   direct.amplitude, atol=1e-12)
        assert res.transmittance == pytest.approx(1.0, abs=1e-12)

    def test_river_default_transmittance(self, gaussian512):
        cfg = ChannelConfig(length=5.5, attenuation_db_per_m=5.4)
        res = run_channel(gaussian512, cfg)
        assert abs(res.transmittance - 1.07e-3) < 1e-5
        assert res.transmittance == pytest.approx(10**-2.97, rel=1e-9)

    def test_deterministic_with_seed(self, grid256):
        f = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        sig = tuple(modal_sigma_table(0.3, 15).items())
        cfg = ChannelConfig(length=5.5, attenuation_db_per_m=1.0,
                            n_screens=3, screen_source="modal",
                            modal_sigmas=sig, occlusion_rate=1.0, seed=21)
        r1 = run_channel(f, cfg)
        r2 = run_channel(f, cfg)
        assert np.array_equal(r1.output_field.amplitude,
                              r2.output_field.amplitude)
        assert r1.transmittance == r2.transmittance
        r3 = run_channel(f, replace(cfg, seed=22))
        assert not np.array_equal(r1.output_field.amplitude,
                                  r3.output_field.amplitude)

    def test_ground_truth_spectra_returned(self, grid256):
        f = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        sig = tuple(modal_sigma_table(0.2, 15).items())
        cfg = ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                            n_screens=2, screen_source="modal",
                            modal_sigmas=sig, seed=5)
        res = run_channel(f, cfg)
        assert res.ground_truth_spectra == realize_screens(cfg, grid256)[1]
        assert len(res.ground_truth_spectra) == 2
        assert all(len(s.coefficients) == 14
                   for s in res.ground_truth_spectra)

    def test_unitarity_with_screens(self, grid256):
        f = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        sig = tuple(modal_sigma_table(0.3, 15).items())
        cfg = ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                            n_screens=3, screen_source="modal",
                            modal_sigmas=sig, seed=9)
        res = run_channel(f, cfg)
        assert abs(total_power(res.output_field) - total_power(f)) < 1e-10

    def test_centroid_scatter_grows_with_sigma(self):
        from hydrolink.field import Grid
        grid = Grid(128, 8e-5)
        f = lg_mode(0, 0, grid.extent / 16, grid, WAVELENGTH)
        scatter = []
        for scale in (0.1, 0.3, 0.9):
            sig = tuple(modal_sigma_table(scale, 15).items())
            offsets = []
            for seed in range(200):
                cfg = ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                                    n_screens=3, screen_source="modal",
                                    modal_sigmas=sig, seed=seed)
                cx, cy = centroid(run_channel(f, cfg).output_field)
                offsets.append((cx, cy))
            offsets = np.array(offsets)
            scatter.append(float(np.sqrt(offsets.var(axis=0).sum())))
        assert scatter[0] < scatter[1] < scatter[2]

    def test_vortex_charge_through_turbulence(self, grid512):
        f = lg_mode(4, 0, grid512.extent / 16, grid512, WAVELENGTH)
        sig = tuple(modal_sigma_table(0.25, 15).items())
        for seed in range(5):
            cfg = ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                                n_screens=2, screen_source="modal",
                                modal_sigmas=sig, seed=seed)
            res = run_channel(f, cfg)
            assert total_vortex_charge(find_vortices(res.output_field)) == 4


class TestRealizeScreens:
    @pytest.mark.parametrize("n_screens", [1, 3])
    def test_one_pass_equals_screen_by_screen(self, grid256, n_screens):
        # Reference: each screen drawn and rendered on its own from the
        # public calls.
        sigmas = dict(modal_sigma_table(0.3, 15))
        sigmas[9] = 0.0
        cfg = ChannelConfig(n_screens=n_screens, screen_source="modal",
                            modal_sigmas=tuple(sigmas.items()), seed=11)
        screens, spectra = realize_screens(cfg, grid256)
        for k, (screen, spec) in enumerate(zip(screens, spectra)):
            ref_spec = modal_spectrum(
                sigmas, 0.45 * grid256.extent, child_seed(11, TAG_SCREEN, k))
            ref = phase_from_spectrum(ref_spec, grid256, rim_taper=0.1)
            assert spec == ref_spec
            assert np.array_equal(screen.phase, ref.phase)


    @pytest.mark.parametrize("screens", [
        dict(screen_source="modal",
             modal_sigmas=tuple(modal_sigma_table(0.3, 15).items())),
        dict(screen_source="kolmogorov", r0=1.0, subharmonic_levels=1)],
        ids=["modal", "kolmogorov"])
    def test_transit_applies_the_realized_screens(self, monkeypatch,
                                                  screens):
        import hydrolink.channel as chmod
        applied = []

        def recording(stack, phase, out):
            applied.append(phase.copy())
            return _apply_screen(stack, phase, out)

        monkeypatch.setattr(chmod, "_apply_screen", recording)
        grid = Grid(128, 8e-5)
        cfg = ChannelConfig(n_screens=3, seed=17, **screens)
        run_channel(lg_mode(1, 0, grid.extent / 16, grid, WAVELENGTH), cfg)
        want = realize_screens(cfg, grid)[0]
        assert len(applied) == len(want) == 3
        for got, screen in zip(applied, want):
            assert np.array_equal(got, screen.phase)


class TestBatchedTransit:
    def _config(self):
        sig = tuple(modal_sigma_table(0.3, 15).items())
        return ChannelConfig(length=5.5, attenuation_db_per_m=5.4,
                             n_screens=2, screen_source="modal",
                             modal_sigmas=sig, occlusion_rate=3.0, seed=4)

    def test_batch_equals_single_calls(self, grid256):
        cfg = self._config()
        fields = tuple(lg_mode(ell, 0, grid256.extent / 16, grid256,
                               WAVELENGTH) for ell in (-2, 0, 3))
        batch = run_channel(fields, cfg)
        assert isinstance(batch, tuple) and len(batch) == 3
        for f, res in zip(fields, batch):
            single = run_channel(f, cfg)
            assert np.array_equal(res.output_field.amplitude,
                                  single.output_field.amplitude)
            assert res.transmittance == single.transmittance
            assert res.ground_truth_spectra == single.ground_truth_spectra
        # The occluders did act on this realization.
        clear = run_channel(fields[0], replace(cfg, occlusion_rate=0.0))
        assert clear.transmittance > batch[0].transmittance

    @pytest.mark.parametrize("n, spacing", [(64, 1.6e-4), (256, 4e-5)])
    def test_matches_step_by_step_chain(self, n, spacing):
        # The chain composed from the public per-step functions, occluders
        # included, on grids on both sides of numpy's 256 KiB in-place
        # temporary threshold.
        cfg = self._config()
        grid = Grid(n, spacing)
        assert draw_realizations(cfg, grid)[0].occluders
        f = lg_mode(2, 0, grid.extent / 16, grid, WAVELENGTH)
        assert np.array_equal(run_channel(f, cfg).output_field.amplitude,
                              _chain(f, cfg).amplitude)

    def test_list_of_fields_equals_tuple(self, grid256):
        cfg = self._config()
        fields = [lg_mode(ell, 0, grid256.extent / 16, grid256, WAVELENGTH)
                  for ell in (-2, 3)]
        got = run_channel(fields, cfg)
        want = run_channel(tuple(fields), cfg)
        assert isinstance(got, tuple) and len(got) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g.output_field.amplitude,
                                  w.output_field.amplitude)
            assert g.transmittance == w.transmittance
        launched = launch(fields, cfg)
        assert all(a is b for a, b in zip(launched.fields, fields))
        assert np.array_equal(launched.stack,
                              launch(tuple(fields), cfg).stack)

    def test_single_field_returns_one_result(self, grid256):
        f = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        res = run_channel(f, self._config())
        assert isinstance(res, ChannelResult)
        (only,) = run_channel((f,), self._config())
        assert np.array_equal(only.output_field.amplitude,
                              res.output_field.amplitude)

    def test_batch_must_share_grid_and_wavelength(self, grid256, grid512):
        a = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        b = lg_mode(0, 0, grid512.extent / 16, grid512, WAVELENGTH)
        c = lg_mode(0, 0, grid256.extent / 16, grid256, 633e-9)
        cfg = ChannelConfig()
        for pair in ((a, b), (a, c)):
            with pytest.raises(GridMismatchError):
                run_channel(pair, cfg)
        with pytest.raises(ValueError):
            run_channel((), cfg)


class TestFormedStates:
    """States sent as coefficient rows over a stack of fields."""

    def _config(self, **kw):
        sig = tuple(modal_sigma_table(0.4, 15).items())
        return ChannelConfig(length=5.5, attenuation_db_per_m=5.4,
                             n_screens=2, screen_source="modal",
                             modal_sigmas=sig, occlusion_rate=2.0, **kw)

    def test_states_only_guard_the_fields(self):
        # One result per sent field, whatever combinations the guard checks.
        grid = Grid(128, 8e-5)
        a, b = (lg_mode(ell, 0, grid.extent / 16, grid, WAVELENGTH)
                for ell in (-3, 4))
        s = 1.0 / math.sqrt(2.0)
        states = [[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s]]
        cfg = self._config(seed=1)
        guarded = run_channel(launch((a, b), cfg, states), cfg)
        plain = run_channel((a, b), cfg)
        assert len(guarded) == 2
        for got, want in zip(guarded, plain):
            assert np.array_equal(got.output_field.amplitude,
                                  want.output_field.amplitude)
            assert got.transmittance == want.transmittance
        (one,) = run_channel(launch(a, cfg, [[2.0]]), cfg)
        assert isinstance(one, ChannelResult)

    def test_guard_fractions_are_exact_for_every_row(self):
        grid = Grid(32, 1e-4)
        guard, _ = _propagation_plan(grid, WAVELENGTH, WATER_N, 1.0)
        rng = np.random.default_rng(5)
        spec = rng.normal(size=(3, 32, 32)) + 1j * rng.normal(
            size=(3, 32, 32))
        states = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        states[3] = (0.0, 2.0, 0.0)
        got = _guard_fractions(spec, guard, states)
        energy = np.abs(np.einsum("ri,ixy->rxy", states, spec)) ** 2
        energy = energy.reshape(len(states), -1)
        want = energy[:, guard].sum(axis=1) / energy.sum(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, d", [(32, 1), (128, 2), (96, 3)])
    def test_guard_fractions_match_the_mask_and_sum_form(self, n, d):
        # Each Gram entry summed as one product over the grid, then over
        # the band's boolean mask, as the guard formed it before.
        grid = Grid(n, 1e-4)
        guard, _ = _propagation_plan(grid, WAVELENGTH, WATER_N, 1.0)
        mask = np.zeros(n * n, dtype=bool)
        mask[guard] = True
        mask = mask.reshape(n, n)
        rng = np.random.default_rng(n + d)
        spec = rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))
        spec *= np.exp(-rng.uniform(0.0, 30.0, size=(d, 1, 1)) * np.hypot(
            *np.meshgrid(np.fft.fftfreq(n), np.fft.fftfreq(n))))
        states = rng.normal(size=(d + 2, d)) + 1j * rng.normal(
            size=(d + 2, d))
        g_all = np.zeros((d, d), dtype=complex)
        g_band = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(i, d):
                prod = np.abs(spec[i]) ** 2 if i == j \
                    else spec[i] * spec[j].conj()
                g_all[i, j], g_band[i, j] = prod.sum(), prod[mask].sum()
                g_all[j, i], g_band[j, i] = (np.conj(g_all[i, j]),
                                             np.conj(g_band[i, j]))
        total, band = (np.einsum("ri,ij,rj->r", states, g, states.conj())
                       .real for g in (g_all, g_band))
        np.testing.assert_allclose(_guard_fractions(spec, guard, states),
                                   band / total, rtol=1e-12, atol=0.0)

    def test_guard_trips_on_a_formed_state_only(self):
        # a = smooth + eps*hf and b = -smooth + eps*hf each keep ~1e-7 of
        # their energy in the guard band, but (a + b)/sqrt(2) is all hf.
        grid = Grid(64, 1e-4)
        smooth = lg_mode(0, 0, grid.extent / 16, grid, WAVELENGTH).amplitude
        x, _ = grid.mesh()
        k = int(0.9 * grid.n_samples / 2)        # a bin inside the band
        hf = np.exp(2j * np.pi * k * x / grid.extent)
        eps = math.sqrt(1e-7 * np.sum(np.abs(smooth) ** 2)
                        / np.sum(np.abs(hf) ** 2))
        a = ComplexField(grid, WAVELENGTH, smooth + eps * hf)
        b = ComplexField(grid, WAVELENGTH, -smooth + eps * hf)
        cfg = ChannelConfig(length=1.0, attenuation_db_per_m=0.0)
        s = 1.0 / math.sqrt(2.0)
        run_channel((a, b), cfg)            # each component passes
        launch((a, b), cfg, [[1.0, 0.0], [0.0, 1.0], [s, -s]])
        with pytest.raises(AliasingError) as err:
            launch((a, b), cfg, [[1.0, 0.0], [0.0, 1.0], [s, s]])
        assert str(err.value).startswith("split step 0, row 2: 1.00e+00 of "
                                         "field energy beyond 80%")
        # The direct transit of the formed state trips the same guard.
        with pytest.raises(AliasingError):
            run_channel(superpose([a, b], [s, s]), cfg)

    def test_error_names_step_row_and_keys(self, grid256):
        rng = np.random.default_rng(0)
        clean = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        noisy = ComplexField(grid256, WAVELENGTH,
                             rng.normal(size=(256, 256)).astype(complex))
        cfg = ChannelConfig(n_screens=1, screen_source="modal",
                            modal_sigmas=((2, 0.1),))
        with pytest.raises(AliasingError) as err:
            run_channel((clean, noisy), cfg)
        msg = str(err.value)
        assert msg.startswith("split step 0, row 1: ")
        for key in ("channel.screens.sigma", "channel.screens.r0",
                    "grid.n_samples", "grid.spacing"):
            assert key in msg
        assert str(err.value.at("trial 7")).startswith(
            "trial 7: split step 0, row 1: ")

    @pytest.mark.parametrize("planted", [(), (2e-7, 9e-7, 4e-7)],
                             ids=["computed", "worst-mid-chain"])
    def test_guard_fraction_max_is_the_largest_compared(self, monkeypatch,
                                                        planted):
        # The computed fractions grow along the chain; the planted ones,
        # all below the limit, put the worst on a middle step.
        import hydrolink.channel as chmod
        compared = []

        def recording(spec, guard, states):
            fractions = _guard_fractions(spec, guard, states)
            if planted:
                fractions[:] = planted[len(compared) % len(planted)]
            compared.append(float(fractions.max()))
            return fractions

        monkeypatch.setattr(chmod, "_guard_fractions", recording)
        grid = Grid(128, 8e-5)
        fields = tuple(lg_mode(ell, 0, grid.extent / 16, grid, WAVELENGTH)
                       for ell in (-4, 4))
        cfg = TestBatchedTransit()._config()
        # Launched inside the call: step 0, then the realization's steps.
        results = run_channel(fields, cfg)
        assert len(compared) >= cfg.n_screens + 1
        assert max(compared) > 0.0
        assert all(r.guard_fraction_max == max(compared) for r in results)
        # Launched once beforehand: its step counts for every realization.
        s = 1.0 / math.sqrt(2.0)
        compared.clear()
        sent = launch(fields, cfg, [[1.0, 0.0], [0.0, 1.0], [s, s]])
        assert compared == [sent.guard_fraction]
        for seed in (5, 6):
            results = run_channel(sent, replace(cfg, seed=seed))
            assert all(r.guard_fraction_max == max(compared)
                       for r in results)
            compared[1:] = []

    @pytest.mark.parametrize("states", [
        [[1.0]], [[1.0, 0.0, 0.0]], [[0.0, 0.0]], [[1.0, np.nan]],
        [1.0, 0.0]], ids=["too-few-columns", "too-many-columns", "zero-row",
                          "nan", "one-dimensional"])
    def test_bad_states_rejected(self, grid256, states):
        f = lg_mode(0, 0, grid256.extent / 16, grid256, WAVELENGTH)
        with pytest.raises(ValueError, match="states must be"):
            launch((f, f), ChannelConfig(), states)


def _chain(field, cfg):
    """The reference transit: every step from the source itself, composed
    from the public per-step functions (occluders, propagation,
    attenuation, then the screen)."""
    screens, _ = realize_screens(cfg, field.grid)
    occluders = draw_realizations(cfg, field.grid)[0].occluders
    dz = cfg.length / (cfg.n_screens + 1)
    out = field
    for step in range(cfg.n_screens + 1):
        for occ in occluders.get(step, ()):
            out = apply_occlusion(out, occ)
        out = angular_spectrum_propagate(out, dz, cfg.refractive_index)
        out = apply_attenuation(out, cfg.attenuation_db_per_m, dz)
        if step < cfg.n_screens:
            out = apply_phase_screen(out, screens[step])
    return out


class TestLaunch:
    """Step 0 run once per run, every realization started from it."""

    GRID = Grid(128, 8e-5)

    def _fields(self):
        return tuple(lg_mode(ell, 0, self.GRID.extent / 16, self.GRID,
                             WAVELENGTH) for ell in (-4, 4))

    @pytest.mark.parametrize("cfg", [
        ChannelConfig(n_screens=2, screen_source="modal",
                      modal_sigmas=tuple(modal_sigma_table(0.3, 15).items())),
        ChannelConfig(n_screens=2, screen_source="kolmogorov", r0=0.2,
                      subharmonic_levels=1),
        ChannelConfig(n_screens=0),
    ], ids=["modal", "kolmogorov", "no-screens"])
    def test_launched_equals_fresh_transit(self, cfg):
        fields = self._fields()
        launched = launch(fields, cfg)
        for seed in range(4):
            trial = replace(cfg, seed=seed)
            got = run_channel(launched, trial)
            fresh = run_channel(fields, trial)
            for f, g, h in zip(fields, got, fresh):
                assert np.array_equal(g.output_field.amplitude,
                                      h.output_field.amplitude)
                assert np.array_equal(g.output_field.amplitude,
                                      _chain(f, trial).amplitude)
                assert g.transmittance == h.transmittance
                assert g.ground_truth_spectra == h.ground_truth_spectra

    def test_launch_holds_the_first_step(self):
        fields = self._fields()
        cfg = ChannelConfig(n_screens=2, screen_source="kolmogorov", r0=0.2)
        launched = launch(fields, cfg)
        assert isinstance(launched, Launch)
        assert not launched.stack.flags.writeable
        assert not launched.states.flags.writeable
        np.testing.assert_array_equal(launched.states, np.eye(2))
        assert launched.powers == tuple(map(total_power, fields))
        dz = cfg.length / 3
        for f, row in zip(fields, launched.stack):
            first = apply_attenuation(
                angular_spectrum_propagate(f, dz, cfg.refractive_index),
                cfg.attenuation_db_per_m, dz)
            assert np.array_equal(row, first.amplitude)

    def test_occluder_on_step_zero_starts_from_the_fields(self, monkeypatch):
        cfg = ChannelConfig(
            n_screens=2, screen_source="modal", occlusion_rate=2.0,
            modal_sigmas=tuple(modal_sigma_table(0.3, 15).items()))

        def drawn(seed):
            return draw_realizations(replace(cfg, seed=seed),
                                     self.GRID)[0].occluders

        def on_axis(occs):
            return any(math.hypot(*o.position) < 1.5e-3 for o in occs)

        # A realization with an occluder across the beam on step 0, and
        # one with occluders on later steps only, one across the beam.
        seeds = {0: next(s for s in range(200)
                         if on_axis(drawn(s).get(0, ()))),
                 1: next(s for s in range(200) if 0 not in drawn(s)
                         and on_axis(sum(drawn(s).values(), [])))}
        fields = self._fields()
        launched = launch(fields, cfg)
        calls = []
        real_fft2 = np.fft.fft2
        monkeypatch.setattr(np.fft, "fft2",
                            lambda a, *k, **kw: calls.append(1)
                            or real_fft2(a, *k, **kw))
        for step, seed in seeds.items():
            trial = replace(cfg, seed=seed)
            calls.clear()
            got = run_channel(launched, trial)
            # Steps 1 and 2 always; step 0 again only under its occluder.
            assert len(calls) == (3 if step == 0 else 2)
            clear = _chain(fields[0], replace(trial, occlusion_rate=0.0))
            for f, g in zip(fields, got):
                assert np.array_equal(g.output_field.amplitude,
                                      _chain(f, trial).amplitude)
            assert total_power(got[0].output_field) < total_power(clear)

    @pytest.mark.parametrize("change", [
        dict(length=5.0), dict(n_screens=1), dict(refractive_index=1.0),
        dict(attenuation_db_per_m=0.0)],
        ids=["length", "n-screens", "refractive-index", "attenuation"])
    def test_mismatched_config_raises(self, change):
        cfg = ChannelConfig(n_screens=2, screen_source="kolmogorov", r0=0.2)
        launched = launch(self._fields(), cfg)
        with pytest.raises(ValueError, match="differs from the launch"):
            run_channel(launched, replace(cfg, **change))
        # The seed and the screen and occluder draws may differ.
        run_channel(launched, replace(cfg, seed=9, r0=0.4,
                                      occlusion_rate=0.5))

    def test_launched_stack_unchanged_by_transits(self):
        cfg = ChannelConfig(
            n_screens=2, screen_source="modal", occlusion_rate=1.0,
            modal_sigmas=tuple(modal_sigma_table(0.3, 15).items()))
        launched = launch(self._fields(), cfg)
        before = launched.stack.copy()
        for seed in range(10):
            run_channel(launched, replace(cfg, seed=seed))
        assert np.array_equal(launched.stack.view(np.float64),
                              before.view(np.float64))

    def test_launch_carries_its_states(self):
        fields = self._fields()
        cfg = ChannelConfig()
        assert len(run_channel(launch(fields[0], cfg), cfg)) == 1
        s = 1.0 / math.sqrt(2.0)
        rows = [[s, s], [s, -s]]
        launched = launch(fields, cfg, rows)
        np.testing.assert_array_equal(launched.states, rows)

    def test_launch_trips_the_guard_once(self):
        grid = Grid(64, 1e-5)
        source = lg_mode(9, 0, 1.5e-4, grid, WAVELENGTH)
        with pytest.raises(AliasingError, match="^split step 0, row 0: "):
            launch(source, ChannelConfig(attenuation_db_per_m=0.0))


def _reference_draws(cfg, grid, *path):
    """One realization's draws, every stream from numpy's own
    ``SeedSequence((seed, *path))``, one key at a time."""
    def stream(*key):
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence(tuple(int(k) for k in key))))

    def child(*key):
        return int(np.random.SeedSequence(tuple(int(k) for k in key))
                   .generate_state(1, np.uint64)[0])

    seed = child(cfg.seed, *path) if path else cfg.seed
    screens = [child(seed, TAG_SCREEN, k) for k in range(cfg.n_screens)]
    if cfg.screen_source == "modal":
        screens = np.array([[stream(s, TAG_COEFF, j).normal(0.0, sigma)
                             if sigma > 0 else 0.0
                             for j, sigma in cfg.modal_sigmas]
                            for s in screens])
    else:
        screens = np.array([stream(s, TAG_COEFF).bit_generator.state[
            "state"]["key"] for s in screens], np.uint64)
    occluders = {}
    if cfg.occlusion_rate > 0.0:
        rng = stream(seed, TAG_OCCLUSION)
        half = grid.extent / 4.0
        for _ in range(int(rng.poisson(cfg.occlusion_rate))):
            step = int(rng.integers(0, cfg.n_screens + 1))
            pos = (float(rng.uniform(-half, half)),
                   float(rng.uniform(-half, half)))
            occluders.setdefault(step, []).append(Occluder(
                radius=cfg.occluder_radius or grid.extent / 10.0,
                opacity=cfg.occluder_opacity, position=pos))
    return Draws(screens, occluders)


class TestDrawnRealization:
    """A realization drawn ahead, as runs draw every frame and trial before
    their workers start, runs as the one ``run_channel`` draws itself."""

    GRID = TestLaunch.GRID
    MODAL = dict(screen_source="modal",
                 modal_sigmas=tuple(modal_sigma_table(0.3, 15).items()))

    def _check(self, cfg, draws, k):
        launched = launch(TestLaunch()._fields(), cfg)
        got = run_channel(launched, cfg, draws)
        want = run_channel(launched, replace(
            cfg, seed=child_seed(cfg.seed, TAG_TRIAL, k)))
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g.output_field.amplitude.view(np.float64),
                                  w.output_field.amplitude.view(np.float64))
            assert g.transmittance == w.transmittance
            assert g.ground_truth_spectra == w.ground_truth_spectra
            assert g.guard_fraction_max == w.guard_fraction_max

    @pytest.mark.parametrize("screens", [
        MODAL, dict(screen_source="kolmogorov", r0=0.2, subharmonic_levels=2)],
        ids=["modal", "kolmogorov-subharmonics"])
    def test_drawn_ahead_equals_drawn_in_the_transit(self, screens):
        cfg = ChannelConfig(n_screens=2, seed=3, **screens)
        for k in range(3):
            self._check(cfg, draw_realizations(cfg, self.GRID, TAG_TRIAL,
                                               k)[0], k)

    @pytest.mark.parametrize("on_step_zero", [True, False],
                             ids=["step-0", "later-step"])
    def test_drawn_occluders_act_on_their_steps(self, on_step_zero):
        cfg = ChannelConfig(n_screens=2, occlusion_rate=2.0, seed=8,
                            **self.MODAL)
        drawn = (draw_realizations(cfg, self.GRID, TAG_TRIAL, k)[0]
                 for k in range(100))
        k, draws = next((k, d) for k, d in enumerate(drawn) if d.occluders
                        and (0 in d.occluders) == on_step_zero)
        self._check(cfg, draws, k)


    @pytest.mark.parametrize("screens", [
        MODAL, dict(screen_source="kolmogorov", r0=0.2),
        dict(occlusion_rate=2.0, **MODAL)],
        ids=["modal", "kolmogorov", "occluded"])
    @pytest.mark.parametrize("seed", [3, 2**64 + 5])
    def test_a_batch_equals_one_path_at_a_time(self, screens, seed):
        cfg = ChannelConfig(n_screens=2, seed=seed, **screens)
        batches = {(TAG_TRIAL, k): d for k, d in enumerate(draw_realizations(
            cfg, self.GRID, TAG_TRIAL, np.arange(40)))}
        batches.update({(TAG_FRAME, k, 3): d for k, d in enumerate(
            draw_realizations(cfg, self.GRID, TAG_FRAME, np.arange(5), 3))})
        batches[()], = draw_realizations(cfg, self.GRID)
        for path, got in batches.items():
            for want in (draw_realizations(cfg, self.GRID, *path)[0],
                         _reference_draws(cfg, self.GRID, *path)):
                assert np.asarray(got.screens).tobytes() == \
                    np.asarray(want.screens).tobytes()
                assert got.occluders == want.occluders
        if cfg.occlusion_rate:
            assert sum(bool(d.occluders) for d in batches.values()) > 30


class TestKolmogorovCoherence:
    """A unit plane wave through two Kolmogorov screens over 5.5 m keeps
    the coherence ``oracles.kolmogorov_coherence`` gives in closed form.

    Each trial's coherence is averaged over the grid and over both axes;
    the mean of 50 trials must lie within 3 of its standard errors of the
    closed form at every lag (the t quantile for 49 degrees of freedom at
    3 is 0.4% two-sided). A PSD scaled by 0.95 or 1.05, which is r0
    scaled by 0.95^(-3/5) or 1.05^(-3/5) since the PSD goes as
    r0^(-5/3), must miss it by more at some lag.
    """

    GRID = Grid(256, 40e-6)
    LAGS = (1, 2, 4, 8, 16, 32, 64, 128)
    TRIALS = 50
    BOUND = 3.0
    R0 = 0.1

    def _z_scores(self, r0):
        cfg = ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                            n_screens=2, screen_source="kolmogorov", r0=r0,
                            seed=1)
        n = self.GRID.n_samples
        sent = launch(ComplexField(self.GRID, WAVELENGTH, np.ones((n, n))),
                      cfg)
        gammas = []
        for k in range(self.TRIALS):
            (res,) = run_channel(sent, cfg, draw_realizations(
                cfg, self.GRID, TAG_TRIAL, k)[0])
            u = res.output_field.amplitude
            power = np.mean(np.abs(u) ** 2)
            gammas.append([np.mean([np.vdot(np.roll(u, -lag, axis), u).real
                                    for axis in (0, 1)]) / (n * n * power)
                           for lag in self.LAGS])
        gammas = np.array(gammas)
        want = kolmogorov_coherence(self.R0, self.GRID, 2, self.LAGS)
        se = gammas.std(axis=0, ddof=1) / math.sqrt(self.TRIALS)
        return (gammas.mean(axis=0) - want) / se

    def test_matches_the_closed_form(self):
        assert np.all(np.abs(self._z_scores(self.R0)) < self.BOUND)

    @pytest.mark.parametrize("psd_scale", [0.95, 1.05])
    def test_a_scaled_psd_fails(self, psd_scale):
        z = self._z_scores(self.R0 * psd_scale ** (-3.0 / 5.0))
        assert np.max(np.abs(z)) > self.BOUND


class TestRytovScintillation:
    """Diffraction between screens turns phase into amplitude: a unit
    plane wave through three periodic Kolmogorov screens over 5.5 m,
    without attenuation, shows the log-amplitude variance of first-order
    Rytov theory (``oracles.rytov_log_amplitude_variance``). Each trial's
    variance of chi = ln|u| over the grid is one sample; the mean of 200
    must lie within 3 of its standard errors of the prediction (seen:
    measured / predicted 1.006, 0.4 standard errors). The coherence test
    above barely sees the diffraction, since it is almost a phase
    statistic. The prediction uses the generator's own cell-averaged
    density: at this 5.12 mm extent the continuous PSD at cell centres
    predicts 14% less.
    """

    GRID = Grid(128, 40e-6)
    TRIALS = 200
    BOUND = 3.0

    def test_matches_first_order_rytov(self):
        cfg = ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                            n_screens=3, screen_source="kolmogorov", r0=0.4,
                            seed=1)
        n = self.GRID.n_samples
        sent = launch(ComplexField(self.GRID, WAVELENGTH, np.ones((n, n))),
                      cfg)
        draws = draw_realizations(cfg, self.GRID, TAG_TRIAL,
                                  np.arange(self.TRIALS))
        var = np.array([np.log(np.abs(
            run_channel(sent, cfg, d)[0].output_field.amplitude)).var()
            for d in draws])
        want = rytov_log_amplitude_variance(cfg, self.GRID, WAVELENGTH)
        se = var.std(ddof=1) / math.sqrt(self.TRIALS)
        assert abs(var.mean() - want) < self.BOUND * se
        assert se < 0.02 * want         # a bound of a few percent


class TestCentroidLaw:
    """Every realization meets the centroid law exactly: the output
    centroid is the input's plus, for each step, dz * <(k_x, k_y) / k_z>
    over the spectrum entering its propagation (``oracles.centroid_law``),
    within 1e-6 of the displacement (seen: 1e-9 to 2e-8). An LG l = 4 beam
    crosses 5.5 m at 5.4 dB/m through two modal screens (j <= 15), no
    occluders, at seeds 1-3. The law with the screens in reverse order, or
    at n = 1.0 instead of water's, misses by more than 0.1 (seen: 0.33 and
    more), so a chain that renders its screens in the wrong order fails.
    """

    CASES = [(Grid(256, 40e-6), 0.25), (Grid(128, 80e-6), 0.3)]
    BOUND = 1e-6

    def _errors(self, grid, sigma, **law_config):
        beam = lg_mode(4, 0, grid.extent / 16, grid, WAVELENGTH)
        start = np.array(centroid(beam))
        errors = []
        for seed in (1, 2, 3):
            cfg = ChannelConfig(
                n_screens=2, screen_source="modal", seed=seed,
                modal_sigmas=tuple(modal_sigma_table(sigma, 15).items()))
            got = np.array(centroid(run_channel(beam, cfg).output_field))
            want = np.array(centroid_law(beam, replace(cfg, **law_config)))
            errors.append(np.hypot(*(got - want)) / np.hypot(*(got - start)))
        return errors

    @pytest.mark.parametrize("grid, sigma", CASES)
    def test_every_realization_meets_the_law(self, grid, sigma):
        assert max(self._errors(grid, sigma)) < self.BOUND

    @pytest.mark.parametrize("grid, sigma", CASES)
    def test_screens_in_reverse_order_miss(self, grid, sigma, monkeypatch):
        def reversed_screens(config, grid):
            screens, spectra = realize_screens(config, grid)
            return screens[::-1], spectra

        monkeypatch.setattr(oracles, "realize_screens", reversed_screens)
        assert min(self._errors(grid, sigma)) > 0.1

    @pytest.mark.parametrize("grid, sigma", CASES)
    def test_the_law_in_vacuum_misses(self, grid, sigma):
        assert min(self._errors(grid, sigma, refractive_index=1.0)) > 0.1


class TestTransitMemory:
    """A transit holds one screen at a time, one working stack and the
    guard's temporaries, and hands its results views of that stack."""

    @pytest.mark.parametrize("n", [130, 384])
    def test_banded_rotor_bit_identical(self, n):
        rng = np.random.default_rng(n)
        phase = rng.normal(scale=3.0, size=(n, n))
        stack = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        want = np.exp(1j * phase) * stack
        stack.flags.writeable = False
        out = _apply_screen(stack, phase, np.empty_like(stack))
        assert np.array_equal(out.view(np.float64), want.view(np.float64))
        work = stack.copy()
        assert _apply_screen(work, phase, work) is work
        assert np.array_equal(work.view(np.float64), want.view(np.float64))

    def test_results_are_views_of_one_read_only_stack(self):
        grid = Grid(128, 8e-5)
        fields = tuple(lg_mode(ell, 0, grid.extent / 16, grid, WAVELENGTH)
                       for ell in (-4, 4))
        cfg = ChannelConfig(
            n_screens=2, screen_source="modal",
            modal_sigmas=tuple(modal_sigma_table(0.3, 15).items()))
        a, b = (r.output_field.amplitude for r in run_channel(fields, cfg))
        assert a.base is b.base is not None
        assert not (a.flags.writeable or a.base.flags.writeable)

    def test_peak_is_one_screen_stack_and_guard(self):
        # The wavefront-survey transit: 384^2, three modal screens, each
        # rendered at its step and dropped after it.
        import tracemalloc
        grid = Grid(384, 12.5e-6)
        cfg = ChannelConfig(
            n_screens=3, screen_source="modal",
            modal_sigmas=tuple(modal_sigma_table(0.3, 15).items()))
        launched = launch(lg_mode(0, 0, 1.1e-3, grid, WAVELENGTH), cfg)
        run_channel(launched, cfg)              # fill the run's plans
        grid_bytes = 8 * grid.n_samples ** 2
        # One screen, the complex stack, one real grid of transients, and
        # 256 KiB for row bands, the guard's gathered band pieces and small
        # objects.
        bound = grid_bytes + 2 * grid_bytes + grid_bytes + (256 << 10)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = run_channel(launched, replace(cfg, seed=5))
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert len(res) == 1
        assert peak <= bound
