import math
import re
import tracemalloc

import numpy as np
import pytest

from hydrolink import runner
from hydrolink.field import ComplexField, ConfigError, Grid, lg_mode
import hydrolink.shack_hartmann as shm
from hydrolink.shack_hartmann import (CENTROID_FLOOR, FIT_CONDITION_LIMIT,
                                      LensletArray, SlopeField, SpotImage,
                                      _focal_spots, _gradient_basis,
                                      _invert_response, _lenslet_plan,
                                      _windowed_com,
                                      average_magnitudes,
                                      capture, check_fit_modes,
                                      extract_slopes, modal_fit,
                                      reconstruct_wavefront)
from hydrolink.scenario import load_scenario
from hydrolink.zernike import (ZernikeSpectrum, gradient_unchecked,
                               nm_from_index, phase_from_spectrum)

import oracles
from oracles import modal_spectrum

WAVELENGTH = 532e-9

GEOMETRY = LensletArray()                    # 23x23, 150 um, 5.2 mm
GRID = Grid(512, 12.5e-6)                    # 12 field samples per lenslet
# analysis disk covering every lenslet window, shared by screen and fit
R_AP = 12 * GEOMETRY.pitch * math.sqrt(2) + 1e-6


def uniform_field(screen=None, grid=GRID):
    amp = np.ones((grid.n_samples, grid.n_samples), dtype=complex)
    if screen is not None:
        amp = amp * np.exp(1j * screen.phase)
    return ComplexField(grid, WAVELENGTH, amp)


def screen_from(coeffs, grid=GRID, r_ap=R_AP):
    return phase_from_spectrum(ZernikeSpectrum(tuple(coeffs.items()), r_ap),
                               grid)


class TestGeometry:
    def test_defaults(self):
        g = LensletArray()
        assert (g.count_x, g.count_y) == (23, 23)
        assert g.pitch == pytest.approx(150e-6)
        assert g.focal_length == pytest.approx(5.2e-3)

    def test_extent(self):
        assert GEOMETRY.extent_x == pytest.approx(23 * 150e-6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LensletArray(pitch=0.0)

    @pytest.mark.parametrize("pixels", [1, 0])
    def test_one_pixel_per_lenslet_refused(self, pixels):
        # A one-pixel sub-image has no centroid window to extract a slope.
        with pytest.raises(ValueError,
                           match="pixels_per_lenslet must be >= 2"):
            LensletArray(pixels_per_lenslet=pixels)


    @pytest.mark.parametrize("kwargs", [
        dict(count_x=2.5), dict(count_x=True), dict(count_y=23.0),
        dict(pixels_per_lenslet=30.0)],
        ids=["fractional-count", "bool-count", "float-count",
             "float-pixels"])
    def test_non_integer_counts_refused(self, kwargs):
        # count_x=2.5 used to build 3 centers and fail in capture; True
        # built a 1-lenslet array.
        with pytest.raises(ValueError, match="must be an integer"):
            LensletArray(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        g = LensletArray(count_x=np.int64(4), count_y=np.int32(4),
                         pixels_per_lenslet=np.int16(30))
        assert g.centers()[0].shape == (4,)


class TestCapture:
    def test_flat_wavefront_centered_spots(self):
        spots = capture(uniform_field(), GEOMETRY)
        slopes = extract_slopes(spots)
        disp = np.nanmax(np.abs(slopes.slope_x)) * WAVELENGTH \
            * GEOMETRY.focal_length / (2 * math.pi)
        assert disp < GEOMETRY.pixel_size / 10

    def test_tip_displaces_all_spots_equally(self):
        a2 = 1.0
        spots = capture(uniform_field(screen_from({2: a2})), GEOMETRY)
        slopes = extract_slopes(spots)
        predicted = 2.0 * a2 / R_AP          # tilt gradient, rad/m
        assert np.nanmean(slopes.slope_y) == pytest.approx(predicted,
                                                           rel=0.02)
        assert np.nanstd(slopes.slope_y) < 0.02 * predicted
        assert abs(np.nanmean(slopes.slope_x)) < 0.02 * predicted
        # displacement = focal length x tilt angle
        disp = np.nanmean(slopes.slope_y) * WAVELENGTH \
            * GEOMETRY.focal_length / (2 * math.pi)
        geometric = GEOMETRY.focal_length * predicted * WAVELENGTH \
            / (2 * math.pi)
        assert disp == pytest.approx(geometric, rel=0.02)

    def test_defocus_displacements_linear_in_position(self):
        spots = capture(uniform_field(screen_from({5: 0.5})), GEOMETRY)
        slopes = extract_slopes(spots)
        cx, _ = GEOMETRY.centers()
        gx = np.broadcast_to(cx, (23, 23))
        r = np.corrcoef(gx.ravel(), slopes.slope_x.ravel())[0, 1]
        assert r > 0.999

    def test_insufficient_sampling_rejected(self):
        coarse = Grid(96, 150e-6 / 4)        # 4 samples per lenslet
        field = ComplexField(coarse, WAVELENGTH,
                             np.ones((96, 96), complex))
        with pytest.raises(ValueError, match="8"):
            capture(field, GEOMETRY)

    def test_grid_must_cover_array(self):
        small = Grid(64, 12.5e-6)
        field = ComplexField(small, WAVELENGTH, np.ones((64, 64), complex))
        with pytest.raises(ValueError):
            capture(field, GEOMETRY)

    def test_noise_is_reproducible_and_off_by_default(self):
        # No detector noise is modelled: a capture is deterministic.
        base = capture(uniform_field(), GEOMETRY)
        again = capture(uniform_field(), GEOMETRY)
        assert np.array_equal(base.images, again.images)


class TestExtractSlopes:
    def test_known_offset_definition(self):
        # spot moved by exactly 2 pixels: slope = (2 pi / lambda) * 2 px / f
        spots = capture(uniform_field(), GEOMETRY)
        rolled = np.roll(spots.images, 2, axis=3)
        moved = SpotImage(images=rolled, geometry=GEOMETRY,
                          wavelength=WAVELENGTH,
                          field_samples_per_lenslet=12)
        slopes = extract_slopes(moved)
        expected = 2 * GEOMETRY.pixel_size / GEOMETRY.focal_length \
            * 2 * math.pi / WAVELENGTH
        assert np.nanmean(slopes.slope_x) == pytest.approx(expected,
                                                           rel=0.01)

    def test_doughnut_core_lenslets_invalid(self):
        field = lg_mode(4, 0, 1.0e-3, GRID, WAVELENGTH)
        slopes = extract_slopes(capture(field, GEOMETRY))
        assert not slopes.valid[11, 11]       # dark core
        assert slopes.valid.sum() > 100       # bright annulus usable
        assert np.isnan(slopes.slope_x[11, 11])

    def test_all_invalid_rejected(self):
        dark = ComplexField(GRID, WAVELENGTH,
                            np.zeros((512, 512), complex))
        spots = capture(dark, GEOMETRY)
        with pytest.raises(ValueError, match="floor"):
            extract_slopes(spots)


class TestModalFit:
    def test_single_mode_round_trip(self):
        spots = capture(uniform_field(screen_from({5: 0.4})), GEOMETRY)
        fit = modal_fit(extract_slopes(spots), j_max=15,
                        aperture_radius=R_AP)
        got = dict(fit.spectrum.coefficients)
        assert got[5] == pytest.approx(0.4, rel=0.02)
        assert max(abs(v) for j, v in got.items() if j != 5) < 0.02

    def test_zero_slopes_zero_coefficients(self):
        fit = modal_fit(extract_slopes(capture(uniform_field(), GEOMETRY)),
                        j_max=15, aperture_radius=R_AP)
        assert all(abs(a) < 1e-4 for _, a in fit.spectrum.coefficients)

    def test_random_spectrum_round_trip(self):
        rng = np.random.default_rng(11)
        coeffs = {j: rng.uniform(-1, 1) for j in range(2, 16)}
        spots = capture(uniform_field(screen_from(coeffs)), GEOMETRY)
        fit = modal_fit(extract_slopes(spots), j_max=15,
                        aperture_radius=R_AP)
        fitted = dict(fit.spectrum.coefficients)
        got = np.array([fitted[j] for j in range(2, 16)])
        want = np.array([coeffs[j] for j in range(2, 16)])
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 0.02

    def test_fit_linearity(self):
        coeffs = {3: 0.5, 7: -0.3, 12: 0.2}
        results = {}
        for alpha in (0.1, 1.0, 2.0):
            scaled = {j: alpha * a for j, a in coeffs.items()}
            spots = capture(uniform_field(screen_from(scaled)), GEOMETRY)
            fit = modal_fit(extract_slopes(spots), j_max=15,
                            aperture_radius=R_AP)
            results[alpha] = np.array(
                [dict(fit.spectrum.coefficients)[j] for j in (3, 7, 12)])
        base = results[1.0]
        for alpha in (0.1, 2.0):
            np.testing.assert_allclose(results[alpha], alpha * base,
                                       rtol=0.02, atol=2e-3)

    def test_piston_blindness(self):
        coeffs = {4: 0.3, 9: -0.2}
        screen = screen_from(coeffs)
        shifted = ComplexField(GRID, WAVELENGTH,
                               np.exp(1j * (screen.phase + 1.7)))
        plain = uniform_field(screen)
        f1 = modal_fit(extract_slopes(capture(plain, GEOMETRY)),
                       15, R_AP)
        f2 = modal_fit(extract_slopes(capture(shifted, GEOMETRY)),
                       15, R_AP)
        a1 = np.array([a for _, a in f1.spectrum.coefficients])
        a2 = np.array([a for _, a in f2.spectrum.coefficients])
        np.testing.assert_allclose(a1, a2, atol=1e-9)

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(3)
        coeffs = {j: rng.uniform(-0.5, 0.5) for j in range(2, 16)}
        slopes = extract_slopes(capture(uniform_field(screen_from(coeffs)),
                                        GEOMETRY))
        radius = R_AP
        cx, cy = GEOMETRY.centers()
        gx, gy = np.meshgrid(cx, cy, indexing="xy")
        use = slopes.valid & ((gx / radius) ** 2 + (gy / radius) ** 2 <= 1)
        fit = modal_fit(slopes, j_max=15, aperture_radius=radius)
        # rebuild the Gauss-averaged design matrix used by the fit
        from hydrolink.zernike import gradient_unchecked
        ux, uy = gx[use] / radius, gy[use] / radius
        off = GEOMETRY.pitch / (2 * math.sqrt(3)) / radius
        n_pts = ux.size
        basis = np.zeros((2 * n_pts, 14))
        for col, j in enumerate(range(2, 16)):
            idx = nm_from_index(j)
            for ox in (-off, off):
                for oy in (-off, off):
                    dzx, dzy = gradient_unchecked(idx, ux + ox, uy + oy)
                    basis[:n_pts, col] += dzx
                    basis[n_pts:, col] += dzy
        basis /= 4 * radius
        meas = np.concatenate([slopes.slope_x[use], slopes.slope_y[use]])
        coeff_vec = np.array([a for _, a in fit.spectrum.coefficients])
        residual = meas - basis @ coeff_vec
        for col in range(14):
            cosine = abs(basis[:, col] @ residual) \
                / (np.linalg.norm(basis[:, col]) * np.linalg.norm(residual))
            assert cosine < 1e-8

    def test_masked_lenslets_robustness(self):
        rng = np.random.default_rng(17)
        coeffs = {j: rng.uniform(-0.5, 0.5) for j in range(2, 16)}
        slopes = extract_slopes(capture(uniform_field(screen_from(coeffs)),
                                        GEOMETRY))
        full = modal_fit(slopes, j_max=15, aperture_radius=R_AP)
        mask = rng.random((23, 23)) > 0.2     # drop ~20%
        masked = SlopeField(slope_x=np.where(mask, slopes.slope_x, np.nan),
                            slope_y=np.where(mask, slopes.slope_y, np.nan),
                            valid=slopes.valid & mask, geometry=GEOMETRY)
        part = modal_fit(masked, j_max=15, aperture_radius=R_AP)
        a_full = np.array([dict(full.spectrum.coefficients)[j]
                           for j in range(2, 11)])
        a_part = np.array([dict(part.spectrum.coefficients)[j]
                           for j in range(2, 11)])
        rel = np.linalg.norm(a_part - a_full) / np.linalg.norm(a_full)
        assert rel < 0.05

    def test_too_few_lenslets(self):
        slopes = extract_slopes(capture(uniform_field(), GEOMETRY))
        starved = SlopeField(
            slope_x=slopes.slope_x, slope_y=slopes.slope_y,
            valid=np.zeros((23, 23), bool), geometry=GEOMETRY)
        starved.valid.flags.writeable = False
        keep = np.zeros((23, 23), bool)
        keep[11, 11:16] = True
        starved = SlopeField(slope_x=slopes.slope_x,
                             slope_y=slopes.slope_y, valid=keep,
                             geometry=GEOMETRY)
        with pytest.raises(ValueError, match="constrain"):
            modal_fit(starved, j_max=15, aperture_radius=R_AP)

    def test_default_aperture_is_array_half_width(self):
        # Only a 15x15 box of lenslets is valid, yet the default disk is
        # still the whole array's, so every frame of a run shares it.
        rng = np.random.default_rng(3)
        coeffs = {j: rng.uniform(-0.5, 0.5) for j in range(2, 16)}
        slopes = extract_slopes(capture(uniform_field(screen_from(coeffs)),
                                        GEOMETRY))
        box = np.zeros((23, 23), bool)
        box[4:19, 4:19] = True
        starved = SlopeField(slope_x=np.where(box, slopes.slope_x, np.nan),
                             slope_y=np.where(box, slopes.slope_y, np.nan),
                             valid=slopes.valid & box, geometry=GEOMETRY)
        fit = modal_fit(starved, j_max=15)
        assert fit.spectrum.aperture_radius == 0.0017249999999999998 \
            == GEOMETRY.half_width
        assert fit == modal_fit(starved, j_max=15,
                                aperture_radius=GEOMETRY.half_width)

    def test_collinear_pattern_rank_deficient(self):
        # a single row of lenslets cannot constrain the 2-d mode set
        slopes = extract_slopes(capture(uniform_field(), GEOMETRY))
        keep = np.zeros((23, 23), bool)
        keep[11, :] = True
        starved = SlopeField(slope_x=slopes.slope_x,
                             slope_y=slopes.slope_y, valid=keep,
                             geometry=GEOMETRY)
        with pytest.raises(ValueError, match="rank|constrain"):
            modal_fit(starved, j_max=15, aperture_radius=R_AP)

    def test_normal_equations_within_the_condition_limit(self, monkeypatch):
        rng = np.random.default_rng(8)
        coeffs = {j: rng.uniform(-0.5, 0.5) for j in range(2, 16)}
        slopes = extract_slopes(capture(uniform_field(screen_from(coeffs)),
                                        GEOMETRY))
        in_disk, full = _gradient_basis(GEOMETRY, R_AP, 15)
        use = slopes.valid & in_disk
        basis = full[:, use].reshape(-1, 14)
        meas = np.concatenate([slopes.slope_x[use], slopes.slope_y[use]])
        svd, *_ = np.linalg.lstsq(basis, meas, rcond=None)

        def refuse(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        fit = modal_fit(slopes, j_max=15, aperture_radius=R_AP)
        got = np.array([a for _, a in fit.spectrum.coefficients])
        np.testing.assert_allclose(got, svd, rtol=0.0,
                                   atol=1e-12 * np.abs(svd).max())
        assert fit.condition_number == pytest.approx(np.linalg.cond(basis),
                                                     rel=1e-9)
        assert fit.condition_number < FIT_CONDITION_LIMIT

    def test_svd_fallback_above_the_condition_limit(self, monkeypatch):
        # Four lenslet rows carry all 14 modes, but barely: kappa ~ 2.4e3.
        slopes = extract_slopes(capture(uniform_field(screen_from(
            {5: 0.3, 8: 0.1})), GEOMETRY))
        keep = np.zeros((23, 23), bool)
        keep[9:13, :] = True
        rows = SlopeField(slope_x=slopes.slope_x, slope_y=slopes.slope_y,
                          valid=keep, geometry=GEOMETRY)
        calls = []
        real_lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k:
                            calls.append(1) or real_lstsq(*a, **k))
        fit = modal_fit(rows, j_max=15, aperture_radius=R_AP)
        assert len(calls) == 1
        in_disk, full = _gradient_basis(GEOMETRY, R_AP, 15)
        basis = full[:, keep & in_disk].reshape(-1, 14)
        assert fit.condition_number == pytest.approx(np.linalg.cond(basis),
                                                     rel=1e-9)
        assert fit.condition_number > FIT_CONDITION_LIMIT


def _per_frame_basis(geometry, radius, valid, j_max):
    """The fit's design matrix as modal_fit built it on every frame before
    the basis was kept per (geometry, radius, j_max)."""
    cx, cy = geometry.centers()
    gx, gy = np.meshgrid(cx, cy, indexing="xy")
    ux = gx / radius
    uy = gy / radius
    use = valid & (ux**2 + uy**2 <= 1.0)
    n_pts = int(np.count_nonzero(use))
    ux = ux[use]
    uy = uy[use]
    gauss = geometry.pitch / (2.0 * math.sqrt(3.0)) / radius
    basis = np.zeros((2 * n_pts, j_max - 1))
    for col, j in enumerate(range(2, j_max + 1)):
        idx = nm_from_index(j)
        for ox in (-gauss, gauss):
            for oy in (-gauss, gauss):
                dzx, dzy = gradient_unchecked(idx, ux + ox, uy + oy)
                basis[:n_pts, col] += dzx
                basis[n_pts:, col] += dzy
    basis /= 4.0 * radius
    return use, basis


def _invert_scalar(com, measured, true):
    """Response inversion one displacement at a time, as extract_slopes did
    before it inverted all lenslets in one array call."""
    mag = abs(com)
    if mag >= measured[-1]:
        slope = (true[-1] - true[-2]) / (measured[-1] - measured[-2])
        val = true[-1] + (mag - measured[-1]) * slope
    else:
        val = float(np.interp(mag, measured, true))
    return math.copysign(val, com)


class TestFitCaches:
    @pytest.mark.parametrize("radius", [R_AP, 1.425e-3])
    @pytest.mark.parametrize("drop", [0.0, 0.3])
    def test_cached_basis_rows_equal_per_frame_basis(self, radius, drop):
        valid = np.random.default_rng(8).random((23, 23)) >= drop
        in_disk, full = _gradient_basis(GEOMETRY, radius, 15)
        ref_use, ref = _per_frame_basis(GEOMETRY, radius, valid, 15)
        use = valid & in_disk
        assert np.array_equal(use, ref_use)
        got = full[:, use].reshape(ref.shape)
        assert np.array_equal(got, ref)
        assert not full.flags.writeable and not in_disk.flags.writeable
        with pytest.raises(ValueError):
            full[0, 0, 0] = 0.0

    def test_array_inversion_equals_scalar_loop(self):
        *_, meas, true = _lenslet_plan(GEOMETRY, WAVELENGTH, 12)
        top = meas[-1]
        com = np.concatenate([
            np.random.default_rng(4).uniform(-1.5 * top, 1.5 * top, 200),
            meas, -meas, [top, -top, 2.5 * top, -2.5 * top, -0.0]])
        got = _invert_response(com, meas, true)
        ref = np.array([_invert_scalar(c, meas, true) for c in com])
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.count_nonzero(np.abs(com) >= top) > 4   # extrapolated


def _windowed_com_scalar(img, pix, half):
    """One sub-image's re-centered center of mass, as extract_slopes
    computed it lenslet by lenslet before the stack centroider; None when
    the frame or a window holds no light above the floor."""
    work = img - CENTROID_FLOOR * img.max()
    np.clip(work, 0.0, None, out=work)
    tot = work.sum()
    if tot <= 0.0:
        return None
    p = img.shape[0]
    cu = float((work.sum(axis=0) @ pix) / tot)
    cv = float((work.sum(axis=1) @ pix) / tot)
    step = pix[1] - pix[0]

    def bounds(c):
        lo = int(math.ceil((c - half * step - pix[0]) / step - 1e-9))
        hi = int(math.floor((c + half * step - pix[0]) / step + 1e-9)) + 1
        return max(0, lo), min(p, hi)

    for _ in range(2):
        u0, u1 = bounds(cu)
        v0, v1 = bounds(cv)
        win = work[v0:v1, u0:u1]
        wtot = win.sum()
        if wtot <= 0.0:
            return None
        cu = float((win.sum(axis=0) @ pix[u0:u1]) / wtot)
        cv = float((win.sum(axis=1) @ pix[v0:v1]) / wtot)
    return cu, cv


def _assert_stack_matches_scalar(stack):
    _, pix, half, _, _ = _lenslet_plan(GEOMETRY, WAVELENGTH, 12)
    com, ok = _windowed_com(stack, pix, half)
    assert com.shape == (2, *stack.shape[:-2]) and ok.shape == com.shape[1:]
    assert np.all(np.isfinite(com))
    for pos in np.ndindex(ok.shape):
        ref = _windowed_com_scalar(stack[pos], pix, half)
        assert ok[pos] == (ref is not None), pos
        if ref is not None:
            assert np.abs(com[(slice(None), *pos)] - ref).max() \
                < 1e-12 * GEOMETRY.pixel_size, pos
    return ok


class TestStackCentroider:
    def test_turbulent_frame_matches_per_lenslet_reference(self):
        spectrum = modal_spectrum(
            {j: 0.8 for j in range(2, 16)}, R_AP, seed=11)
        field = lg_mode(3, 0, 1.2e-3, GRID, WAVELENGTH)
        field = ComplexField(GRID, WAVELENGTH, field.amplitude * np.exp(
            1j * phase_from_spectrum(spectrum, GRID).phase))
        ok = _assert_stack_matches_scalar(capture(field, GEOMETRY).images)
        assert ok.shape == (23, 23) and ok.all()

    def test_dark_and_split_sub_images_flagged_without_nan(self):
        images = capture(uniform_field(screen_from({2: 0.7})),
                         GEOMETRY).images[:3, :3].copy()
        images[0, 1] = 0.0                   # all dark
        images[2, 2] = 0.0                   # light only in two far corners:
        images[2, 2, 0, 0] = images[2, 2, -1, -1] = 1.0   # empty window
        ok = _assert_stack_matches_scalar(images)
        assert not ok[0, 1] and not ok[2, 2]
        assert np.count_nonzero(ok) == 7

    def test_calibration_equals_per_tilt_reference_loop(self):
        _, pix, half, measured, true = _lenslet_plan(GEOMETRY, WAVELENGTH,
                                                     12)
        local = (np.arange(12) - 5.5) * (GEOMETRY.pitch / 12)
        lam_f = WAVELENGTH * GEOMETRY.focal_length
        kern = np.exp(-2j * math.pi * np.outer(pix, local) / lam_f)
        ref = [0.0]
        for disp in true[1:]:
            grad = disp * 2.0 * math.pi / lam_f
            block = np.exp(1j * grad * local)[None, :] * np.ones((12, 1))
            spot = np.abs(kern @ block @ kern.T) ** 2
            ref.append(_windowed_com_scalar(spot, pix, half)[0])
        assert np.abs(measured - ref).max() < 1e-12 * GEOMETRY.pixel_size

    @pytest.mark.parametrize("seed", [1, 2])
    def test_survey_matches_the_three_pass_oracle(self, seed, tmp_path,
                                                  monkeypatch):
        # Masked window sums move only rounding: on wavefront-survey
        # frames the same lenslets are valid, the slopes agree with the
        # three-pass centroider within 1e-12 of the largest |slope|, and
        # the calibration table within 1e-12 relative.
        seen = []

        def recording(spots, **kwargs):
            seen.append((spots, kwargs, extract_slopes(spots, **kwargs)))
            return seen[-1][2]

        monkeypatch.setattr(runner, "extract_slopes", recording)
        runner.run_scenario(load_scenario("wavefront-survey", seed=seed,
                                          frames=4), tmp_path)
        spots = seen[0][0]
        key = (spots.geometry, spots.wavelength,
               spots.field_samples_per_lenslet)
        measured = _lenslet_plan(*key)[3]
        with monkeypatch.context() as m:
            m.setattr(shm, "_windowed_com", oracles.windowed_com)
            _lenslet_plan.cache_clear()
            try:
                want = [extract_slopes(s, **kw) for s, kw, _ in seen]
                ref = _lenslet_plan(*key)[3]
            finally:
                _lenslet_plan.cache_clear()
        assert len(seen) == 4
        for (*_, g), w in zip(seen, want):
            assert np.array_equal(g.valid, w.valid) and g.valid.sum() > 300
            new, old = (np.stack([f.slope_x, f.slope_y])[:, f.valid]
                        for f in (g, w))
            assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()
        assert np.all(np.abs(measured - ref) <= 1e-12 * ref)
        assert np.all(np.diff(measured) > 0)

    def test_plan_is_shared_and_read_only(self):
        plan = _lenslet_plan(GEOMETRY, WAVELENGTH, 12)
        assert plan is _lenslet_plan(GEOMETRY, WAVELENGTH, 12)
        kern, pix, half, measured, true = plan
        assert half == 9 and kern.shape == (30, 12)
        for arr in (kern, pix, measured, true):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _turbulent_vortex():
    """A vortex beam under strong modal turbulence on the sensor grid: a
    dark core of invalid lenslets and displaced spots elsewhere."""
    spectrum = modal_spectrum(
        {j: 0.8 for j in range(2, 16)}, R_AP, seed=11)
    field = lg_mode(3, 0, 1.2e-3, GRID, WAVELENGTH)
    return ComplexField(GRID, WAVELENGTH, field.amplitude * np.exp(
        1j * phase_from_spectrum(spectrum, GRID).phase))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestMemoryDiet:
    """Each sensor stage holds one frame's result plus a small working
    set, and gives the bits the whole-stack expressions give."""

    def test_row_by_row_spots_equal_the_whole_batch(self):
        field = _turbulent_vortex()
        kern = _lenslet_plan(GEOMETRY, WAVELENGTH, 12)[0]
        blocks = field.amplitude[:23 * 12, :23 * 12].reshape(
            23, 12, 23, 12).transpose(0, 2, 1, 3)
        assert _same_bits(_focal_spots(kern, blocks),
                          np.abs(kern @ blocks @ kern.T) ** 2)

    def test_capture_peak_is_its_result_plus_one_row(self):
        field = _turbulent_vortex()
        capture(field, GEOMETRY)                 # plans built outside
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            spots = capture(field, GEOMETRY)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        p = GEOMETRY.pixels_per_lenslet
        # K @ blocks and its product with K^T, for one row of lenslets
        row_spectra = GEOMETRY.count_x * p * (12 + p) * 16
        assert peak <= spots.images.nbytes + row_spectra + 16 * 1024
        # capture's fresh array is the one the SpotImage keeps
        assert spots.images.flags.owndata
        assert not spots.images.flags.writeable

    def test_spot_image_rejects_nonfinite_and_negative(self):
        images = capture(_turbulent_vortex(), GEOMETRY).images
        for bad in (np.nan, np.inf, -1.0):
            broken = images.copy()
            broken[3, 4, 5, 6] = bad
            with pytest.raises(ValueError, match="finite and >= 0"):
                SpotImage(images=broken, geometry=GEOMETRY,
                          wavelength=WAVELENGTH)

    @pytest.mark.parametrize("samples", [2.5, True, np.int64(12)],
                             ids=["float", "bool", "numpy"])
    def test_field_samples_follow_the_integer_rule(self, samples):
        # A fractional sample count has no lenslet tiling; a numpy integer
        # is kept as given.
        images = capture(uniform_field(), GEOMETRY).images
        if isinstance(samples, np.integer):
            spots = SpotImage(images=images, geometry=GEOMETRY,
                              wavelength=WAVELENGTH,
                              field_samples_per_lenslet=samples)
            assert spots.field_samples_per_lenslet == 12
            return
        with pytest.raises(ConfigError, match=re.escape(
                "field_samples_per_lenslet must be an integer, "
                f"got {samples!r}")):
            SpotImage(images=images, geometry=GEOMETRY,
                      wavelength=WAVELENGTH,
                      field_samples_per_lenslet=samples)

    def test_chunked_centroids_equal_one_gathered_stack(self, monkeypatch):
        images = capture(_turbulent_vortex(), GEOMETRY).images
        energy = images.sum(axis=(2, 3))
        valid = energy >= 0.01 * energy.max()
        assert 0 < np.count_nonzero(valid) < valid.size
        _, pix, half, _, _ = _lenslet_plan(GEOMETRY, WAVELENGTH, 12)
        monkeypatch.setattr(shm, "CENTROID_CHUNK", valid.size)
        want = _windowed_com(images[valid], pix, half)
        monkeypatch.setattr(shm, "CENTROID_CHUNK", 7)
        got = _windowed_com(images, pix, half, valid)
        assert _same_bits(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestReconstruct:
    def test_empty_spectrum_flat(self, grid256):
        screen = reconstruct_wavefront(ZernikeSpectrum((), 1e-3), grid256)
        assert np.all(screen.phase == 0.0)

    def test_round_trip_reconstruction_error(self):
        rng = np.random.default_rng(23)
        coeffs = {j: rng.uniform(-0.8, 0.8) for j in range(2, 16)}
        screen = screen_from(coeffs)
        fit = modal_fit(extract_slopes(capture(uniform_field(screen),
                                               GEOMETRY)),
                        j_max=15, aperture_radius=R_AP)
        recon = reconstruct_wavefront(fit.spectrum, GRID)
        x, y = GRID.mesh()
        inside = np.hypot(x, y) <= R_AP
        err = recon.phase[inside] - screen.phase[inside]
        rms_in = np.sqrt(np.mean(screen.phase[inside] ** 2))
        assert np.sqrt(np.mean(err**2)) < 0.05 * rms_in

    def test_tip_only_plane_ramp(self):
        fit = modal_fit(extract_slopes(capture(
            uniform_field(screen_from({2: 1.0})), GEOMETRY)),
            j_max=3, aperture_radius=R_AP)
        recon = reconstruct_wavefront(fit.spectrum, GRID)
        x, y = GRID.mesh()
        inside = np.hypot(x, y) <= 0.9 * R_AP
        grad_y = np.gradient(recon.phase, GRID.spacing, axis=0)
        vals = grad_y[inside]
        assert np.std(vals) < 0.05 * abs(np.mean(vals))


class TestAverageMagnitudes:
    def _result(self, coeffs):
        from hydrolink.shack_hartmann import WfsResult
        return WfsResult(spectrum=ZernikeSpectrum(tuple(coeffs.items()), 1e-3),
                         residual_rms=0.0, n_valid_lenslets=1)

    def test_single_result(self):
        avg = average_magnitudes([self._result({2: -0.4, 3: 0.1})])
        assert avg.mean_abs == (0.4, 0.1)
        assert avg.n_frames == 1
        assert avg.aperture_radius == 1e-3

    def test_magnitudes_not_signed_mean(self):
        avg = average_magnitudes([self._result({3: 0.2}),
                                  self._result({3: -0.2})])
        assert avg.mean_abs[avg.j_values.index(3)] == pytest.approx(0.2)

    def test_order_insensitive(self):
        rng = np.random.default_rng(5)
        results = [self._result({2: rng.normal(), 3: rng.normal()})
                   for _ in range(20)]
        fwd = average_magnitudes(results)
        rev = average_magnitudes(list(reversed(results)))
        assert fwd.mean_abs == rev.mean_abs
        assert fwd.std == rev.std

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_magnitudes([])

    def test_mixed_disks_rejected(self):
        from hydrolink.shack_hartmann import WfsResult
        wider = WfsResult(spectrum=ZernikeSpectrum(((2, 0.1),), 2e-3),
                          residual_rms=0.0, n_valid_lenslets=1)
        with pytest.raises(ValueError, match="disks"):
            average_magnitudes([self._result({2: 0.1}), wider])

    def test_mismatched_ranges_rejected(self):
        with pytest.raises(ValueError):
            average_magnitudes([self._result({2: 0.1}),
                                self._result({2: 0.1, 3: 0.2})])

    def test_thirty_frame_half_normal_statistics(self):
        # 30 frames at sigma = 0.1: pooled mean |a_j| near 0.0798
        sigma = 0.1
        stats = {j: sigma for j in range(2, 16)}
        results = []
        for frame in range(30):
            screen = phase_from_spectrum(
                modal_spectrum(stats, R_AP, seed=frame), GRID)
            spots = capture(uniform_field(screen), GEOMETRY)
            results.append(modal_fit(extract_slopes(spots), j_max=15,
                                     aperture_radius=R_AP))
        avg = average_magnitudes(results)
        pooled = float(np.mean(avg.mean_abs))
        target = sigma * math.sqrt(2 / math.pi)    # 0.0798
        assert pooled == pytest.approx(target, rel=0.20)


@pytest.mark.parametrize("j_max", [7.5, True, np.int64(15)],
                         ids=["float", "bool", "numpy"])
def test_fit_mode_count_follows_the_integer_rule(j_max):
    # check_fit_modes, and so modal_fit, refuses a float or a bool at the
    # j_max key; a numpy integer fits as its int does.
    slopes = extract_slopes(capture(uniform_field(), GEOMETRY))
    if isinstance(j_max, np.integer):
        assert check_fit_modes(GEOMETRY, j_max) == \
            check_fit_modes(GEOMETRY, int(j_max))
        assert modal_fit(slopes, j_max) == modal_fit(slopes, int(j_max))
        return
    for call in (lambda: check_fit_modes(GEOMETRY, j_max),
                 lambda: modal_fit(slopes, j_max)):
        with pytest.raises(ConfigError, match=re.escape(
                f"j_max must be an integer, got {j_max!r}")) as err:
            call()
        assert err.value.key == "j_max"
