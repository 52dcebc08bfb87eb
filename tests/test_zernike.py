import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolink.channel import ChannelConfig, realize_screens
from hydrolink.field import ConfigError, Grid
from hydrolink.seeding import TAG_COEFF, normals, substream
from hydrolink.shack_hartmann import LensletArray, capture, extract_slopes, \
    modal_fit
from hydrolink.field import ComplexField
from hydrolink.zernike import (PhaseScreen, ZernikeIndex, ZernikeSpectrum,
                               _disk_plan, _hole_gradient_moment,
                               _kolmogorov_plan, _radial_coeffs,
                               gradient_unchecked, index_from_nm,
                               kolmogorov_screen, nm_from_index,
                               phase_from_spectrum, zernike_eval)

from oracles import modal_spectrum, zernike_gradient


def enumerate_orders(n_max):
    """Oracle: exhaustive (n, m) table ordered by the scalar index."""
    table = {}
    for n in range(n_max + 1):
        for m in range(-n, n + 1, 2):
            table[1 + (n * (n + 2) + m) // 2] = (n, m)
    return table


class TestIndexing:
    def test_piston(self):
        assert index_from_nm(0, 0).j == 1

    @pytest.mark.parametrize("n,m,j", [(2, -2, 4), (2, 0, 5), (2, 2, 6),
                                       (1, -1, 2), (1, 1, 3)])
    def test_formula_values(self, n, m, j):
        assert index_from_nm(n, m).j == j

    @pytest.mark.parametrize("j,nm", [(1, (0, 0)), (6, (2, 2)),
                                      (15, (4, 4))])
    def test_inverse_against_enumeration_oracle(self, j, nm):
        oracle = enumerate_orders(10)
        assert oracle[j] == nm
        idx = nm_from_index(j)
        assert (idx.n, idx.m) == nm

    def test_bijection_to_n20(self):
        for n in range(21):
            for m in range(-n, n + 1, 2):
                idx = index_from_nm(n, m)
                back = nm_from_index(idx.j)
                assert (back.n, back.m) == (n, m)

    def test_scalar_index_contiguous(self):
        oracle = enumerate_orders(20)
        assert sorted(oracle) == list(range(1, len(oracle) + 1))

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (1, 2), (-1, 1)])
    def test_invalid_orders(self, n, m):
        with pytest.raises(ValueError):
            index_from_nm(n, m)

    def test_invalid_scalar(self):
        with pytest.raises(ValueError):
            nm_from_index(0)

    def test_inconsistent_triple(self):
        with pytest.raises(ValueError):
            ZernikeIndex(n=2, m=0, j=4)


class TestEval:
    def test_piston_everywhere(self):
        idx = index_from_nm(0, 0)
        for rho, phi in [(0.0, 0.0), (0.5, 1.0), (1.0, -2.0)]:
            assert zernike_eval(idx, rho, phi) == pytest.approx(1.0)

    def test_defocus_extremes(self):
        # sqrt(3) * (2 rho^2 - 1) from the closed-form radial table
        idx = index_from_nm(2, 0)
        assert zernike_eval(idx, 0.0, 0.3) == pytest.approx(-math.sqrt(3))
        assert zernike_eval(idx, 1.0, 0.3) == pytest.approx(math.sqrt(3))

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            zernike_eval(index_from_nm(2, 0), 1.2, 0.0)

    def test_orthonormality_disk_quadrature(self):
        # midpoint quadrature on a 1024^2 grid restricted to the unit disk
        n = 1024
        c = (np.arange(n) + 0.5) / n * 2.0 - 1.0
        x, y = np.meshgrid(c, c)
        rho = np.hypot(x, y)
        mask = rho <= 1.0
        rho_in, phi_in = rho[mask], np.arctan2(y, x)[mask]
        basis = np.array([zernike_eval(nm_from_index(j), rho_in, phi_in)
                          for j in range(1, 16)])
        gram = basis @ basis.T / mask.sum()
        assert np.abs(gram - np.eye(15)).max() < 1e-3


class TestGradient:
    def test_piston_gradient_zero(self):
        gx, gy = zernike_gradient(index_from_nm(0, 0), 0.3, -0.2)
        assert gx == 0.0 and gy == 0.0

    def test_tip_constant_gradient(self):
        # (1, 1) is 2x: gradient (2, 0) everywhere on the disk
        idx = index_from_nm(1, 1)
        for x, y in [(0.0, 0.0), (0.5, 0.2), (-0.7, 0.1)]:
            gx, gy = zernike_gradient(idx, x, y)
            assert gx == pytest.approx(2.0, abs=1e-12)
            assert gy == pytest.approx(0.0, abs=1e-12)

    def test_defocus_point_value(self):
        # d/dx of sqrt(3)(2 rho^2 - 1) at (0.5, 0) is 2 sqrt(3)
        gx, gy = zernike_gradient(index_from_nm(2, 0), 0.5, 0.0)
        fd = _fd_gradient(index_from_nm(2, 0), 0.5, 0.0)
        assert gx == pytest.approx(2 * math.sqrt(3), abs=1e-9)
        assert gx == pytest.approx(fd[0], abs=1e-6)
        assert gy == pytest.approx(fd[1], abs=1e-6)

    def test_matches_finite_differences(self):
        # On the disk for j <= 15, and for j <= 28 on the continuation the
        # modal fit averages over: up to rho ~ 1.39 on the 1.725 mm fit
        # disk of the bundled sensor and ~ 1.68 on its 1.425 mm disk.
        rng = np.random.default_rng(42)
        for rho_min, rho_max, j_max, rel in ((0.0, 0.95, 15, 0.0),
                                             (1.0, 1.75, 28, 1e-6)):
            pts = []
            while len(pts) < 100:
                x, y = rng.uniform(-1, 1, size=2) * rho_max
                if rho_min < math.hypot(x, y) <= rho_max:
                    pts.append((x, y))
            for j in range(1, j_max + 1):
                idx = nm_from_index(j)
                for x, y in pts:
                    fd = _fd_gradient(idx, x, y)
                    gx, gy = gradient_unchecked(idx, x, y)
                    assert gx == pytest.approx(fd[0], rel=rel, abs=1e-6)
                    assert gy == pytest.approx(fd[1], rel=rel, abs=1e-6)

    def test_outside_disk(self):
        with pytest.raises(ValueError):
            zernike_gradient(index_from_nm(2, 0), 0.9, 0.9)


def _continued(idx, x, y):
    """N R(rho) A(|m| phi) at any (x, y), the disk's polynomial continued."""
    a = abs(idx.m)
    rho, phi = math.hypot(x, y), math.atan2(y, x)
    angular = math.cos(a * phi) if idx.m >= 0 else math.sin(a * phi)
    norm = math.sqrt((2.0 if idx.m else 1.0) * (idx.n + 1))
    return norm * np.polyval(_radial_coeffs(idx.n, a), rho) * angular


def _fd_gradient(idx, x, y, h=1e-5):
    def ev(xx, yy):
        if math.hypot(xx, yy) <= 1.0:
            return zernike_eval(idx, math.hypot(xx, yy), math.atan2(yy, xx))
        return _continued(idx, xx, yy)
    return ((ev(x + h, y) - ev(x - h, y)) / (2 * h),
            (ev(x, y + h) - ev(x, y - h)) / (2 * h))


class TestPhaseFromSpectrum:
    def test_empty_spectrum(self, grid256):
        screen = phase_from_spectrum(ZernikeSpectrum((), 1e-3), grid256)
        assert np.all(screen.phase == 0.0)

    def test_tip_peak_to_valley(self, grid256):
        # Noll tip 2*rho*sin(phi) peaks at 2: max - min = 4 per radian
        r_ap = 0.45 * grid256.extent
        screen = phase_from_spectrum(ZernikeSpectrum(((2, 1.0),), r_ap),
                                     grid256)
        ptv = screen.phase.max() - screen.phase.min()
        assert ptv == pytest.approx(4.0, rel=0.01)

    def test_zero_outside_aperture(self, grid256):
        r_ap = 0.25 * grid256.extent
        screen = phase_from_spectrum(ZernikeSpectrum(((5, 1.0),), r_ap),
                                     grid256)
        x, y = grid256.mesh()
        outside = np.hypot(x, y) > r_ap
        assert np.all(screen.phase[outside] == 0.0)

    def test_linearity(self, grid256):
        r_ap = 0.45 * grid256.extent
        a = ZernikeSpectrum(((4, 0.7), (11, -0.3)), r_ap)
        b = ZernikeSpectrum(((4, -0.1), (7, 0.5)), r_ap)
        combo = ZernikeSpectrum(((4, 2 * 0.7 + 3 * -0.1), (11, 2 * -0.3),
                                 (7, 3 * 0.5)), r_ap)
        lhs = phase_from_spectrum(combo, grid256).phase
        rhs = 2 * phase_from_spectrum(a, grid256).phase \
            + 3 * phase_from_spectrum(b, grid256).phase
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_aperture_too_large(self, grid256):
        with pytest.raises(ValueError):
            phase_from_spectrum(
                ZernikeSpectrum(((2, 1.0),), grid256.extent), grid256)

    def test_refit_round_trip(self):
        # render {a4: 0.5, a6: 0.5} and recover it through the sensor chain
        geometry = LensletArray()
        grid = Grid(512, 12.5e-6)
        r_ap = 12 * geometry.pitch * math.sqrt(2) + 1e-6
        spec = ZernikeSpectrum(((4, 0.5), (6, 0.5)), r_ap)
        screen = phase_from_spectrum(spec, grid)
        field = ComplexField(grid, 532e-9, np.exp(1j * screen.phase))
        fit = modal_fit(extract_slopes(capture(field, geometry)),
                        j_max=15, aperture_radius=r_ap)
        got = dict(fit.spectrum.coefficients)
        assert got[4] == pytest.approx(0.5, rel=0.02)
        assert got[6] == pytest.approx(0.5, rel=0.02)


def _disk_samples(grid, radius):
    """(inside mask, normalized radius, azimuth) of the disk's inside
    samples, in the mask's row-major order."""
    x, y = grid.mesh()
    rho = np.hypot(x, y) / radius
    inside = rho <= 1.0
    return inside, rho[inside], np.arctan2(y, x)[inside]


def _reference_phase(spec, grid, rim_taper):
    """The modal screen as rendered before its disk geometry was cached."""
    from scipy.special import erf
    inside, rho_in, phi_in = _disk_samples(grid, spec.aperture_radius)
    phase = np.zeros(inside.shape)
    for j, a in spec.coefficients:
        if a == 0.0:
            continue
        phase[inside] += a * zernike_eval(nm_from_index(j), rho_in, phi_in)
    if rim_taper > 0.0:
        phase[inside] *= 0.5 * (1.0 - erf((rho_in - (1.0 - rim_taper / 2.0))
                                          / (rim_taper / 5.0)))
    return phase


class TestPhaseFromSpectrumCache:
    @pytest.mark.parametrize("rim_taper", [0.0, 0.1])
    def test_matches_reference_bitwise(self, grid256, rim_taper):
        spec = ZernikeSpectrum(((2, 0.3), (5, -1.1), (9, 0.0), (13, 0.4)),
                               0.45 * grid256.extent)
        for _ in range(2):      # cold, then from the cached geometry
            screen = phase_from_spectrum(spec, grid256, rim_taper=rim_taper)
            assert np.array_equal(screen.phase,
                                  _reference_phase(spec, grid256, rim_taper))


def _per_mode_phase(spec, grid, rim_taper):
    """One screen as rendered before screens shared each mode's values."""
    from scipy.special import erf
    inside, rho_in, phi_in = _disk_samples(grid, spec.aperture_radius)
    acc = np.zeros(rho_in.shape)
    for j, a in spec.coefficients:
        if a == 0.0:
            continue
        acc += a * zernike_eval(nm_from_index(j), rho_in, phi_in)
    if rim_taper > 0.0:
        acc *= 0.5 * (1.0 - erf((rho_in - (1.0 - rim_taper / 2.0))
                                / (rim_taper / 5.0)))
    phase = np.zeros(inside.shape)
    phase[inside] = acc
    return phase


def _sequential_phase(spec, grid, rim_taper):
    """The render as a loop of ``acc += a_j * Z_j`` over the disk plan's
    maps, nonzero modes in ascending j, from zero: the sum before each row
    band became one einsum."""
    js = tuple(j for j, a in spec.coefficients if a != 0.0)
    inside, _, maps, taper = _disk_plan(grid, spec.aperture_radius, js,
                                        rim_taper)
    acc = np.zeros(maps.shape[1])
    for a, z in zip((a for _, a in spec.coefficients if a != 0.0), maps):
        acc += a * z
    if taper is not None:
        acc *= taper
    phase = np.zeros(inside.shape)
    phase[inside] = acc
    return phase


class TestEinsumRender:
    @pytest.mark.parametrize("rim_taper", [0.0, 0.1])
    @pytest.mark.parametrize("n", [64, 128, 256, 384])
    def test_equals_the_sequential_sum_bitwise(self, n, rim_taper):
        grid = Grid(n, 1e-2 / n)
        rng = np.random.default_rng(n)
        coeffs = rng.normal(0.0, 1.0, 20)
        coeffs[[0, 7, 19]] = 0.0          # zero coefficients are dropped
        spec = ZernikeSpectrum(tuple(zip(range(2, 22), coeffs.tolist())),
                               0.45 * grid.extent)
        got = phase_from_spectrum(spec, grid, rim_taper=rim_taper).phase
        assert got.tobytes() == _sequential_phase(spec, grid,
                                                  rim_taper).tobytes()


@pytest.fixture
def eval_calls(monkeypatch):
    """The j of every later ``zernike_eval`` call, from an empty disk
    plan."""
    import hydrolink.zernike as zmod
    _disk_plan.cache_clear()
    calls = []

    def counting(idx, rho, phi):
        calls.append(idx.j)
        return zernike_eval(idx, rho, phi)

    monkeypatch.setattr(zmod, "zernike_eval", counting)
    return calls


_COEFFICIENT = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


class TestSingleRender:
    @settings(max_examples=30, deadline=None)
    @given(table=st.dictionaries(st.integers(2, 21), _COEFFICIENT,
                                 max_size=8),
           rim_taper=st.sampled_from([0.0, 0.1]))
    def test_render_equals_per_mode_sum_bitwise(self, table, rim_taper):
        grid = Grid(64, 1e-4)
        spec = ZernikeSpectrum(tuple(table.items()), 0.45 * grid.extent)
        for _ in range(2):      # a fresh disk plan, then the cached one
            screen = phase_from_spectrum(spec, grid, rim_taper=rim_taper)
            assert np.array_equal(screen.phase,
                                  _per_mode_phase(spec, grid, rim_taper))

    def test_each_mode_evaluated_once(self, grid256, eval_calls):
        # Renders one at a time, as a transit makes them, on one disk with
        # the same nonzero modes: each mode is evaluated by the first only.
        r_ap = 0.4 * grid256.extent
        spectra = (ZernikeSpectrum(((2, 0.1), (5, 0.0), (7, 0.2)), r_ap),
                   ZernikeSpectrum(((2, -0.3), (7, 0.4)), r_ap),
                   ZernikeSpectrum(((2, 0.5), (7, -0.1), (9, 0.0)), r_ap))
        for spec in spectra:
            phase_from_spectrum(spec, grid256, rim_taper=0.1)
        assert eval_calls == [2, 7]


class TestRimTaperPlan:
    @pytest.mark.parametrize("n, spacing", [(128, 4e-5), (200, 3e-5),
                                            (384, 12.5e-6)])
    @pytest.mark.parametrize("t", [0.05, 0.1, 0.3])
    def test_equals_per_render_expression(self, n, spacing, t):
        from scipy.special import erf
        grid = Grid(n, spacing)
        r_ap = 0.45 * grid.extent
        _, rho_in, _ = _disk_samples(grid, r_ap)
        taper = _disk_plan(grid, r_ap, (), t)[3]
        want = 0.5 * (1.0 - erf((rho_in - (1.0 - t / 2.0)) / (t / 5.0)))
        assert np.array_equal(taper.view(np.int64), want.view(np.int64))
        assert not taper.flags.writeable

    def test_computed_once_per_run(self, grid256):
        _disk_plan.cache_clear()
        sigmas = ((2, 0.3), (5, 0.2))
        for seed in (1, 2, 3):
            realize_screens(ChannelConfig(
                n_screens=2, screen_source="modal", modal_sigmas=sigmas,
                seed=seed), grid256)
        assert _disk_plan.cache_info().misses == 1

    @pytest.mark.parametrize("n", [130, 384])
    def test_row_bands_render_any_grid(self, n):
        # 130 and 384 rows split into bands that do not divide them.
        grid = Grid(n, 1e-2 / n)
        spec = ZernikeSpectrum(((2, 0.3), (4, 0.2), (7, -0.5), (11, 0.1)),
                               0.45 * grid.extent)
        screen = phase_from_spectrum(spec, grid, rim_taper=0.1)
        assert np.array_equal(screen.phase,
                              _reference_phase(spec, grid, 0.1))


class TestModeMapPlan:
    def test_rows_equal_fresh_evaluations(self, grid256):
        r_ap = 0.45 * grid256.extent
        js = (2, 3, 5, 9, 14)
        _, rho_in, phi_in = _disk_samples(grid256, r_ap)
        maps = _disk_plan(grid256, r_ap, js, 0.0)[2]
        assert maps.shape == (len(js), rho_in.size)
        for j, row in zip(js, maps):
            assert np.array_equal(
                row, zernike_eval(nm_from_index(j), rho_in, phi_in))

    def test_each_mode_evaluated_once_per_disk(self, grid256, eval_calls):
        sigmas = ((2, 0.3), (3, 0.3), (5, 0.2), (7, 0.1))
        for seed in (1, 2, 3):
            screens, spectra = realize_screens(ChannelConfig(
                n_screens=3, screen_source="modal", modal_sigmas=sigmas,
                seed=seed), grid256)
            assert len(screens) == len(spectra) == 3
        assert eval_calls == [2, 3, 5, 7]

    def test_second_disk_replaces_the_first(self, grid256, eval_calls):
        coeffs = ((2, 0.1), (5, -0.2))
        first, second = (ZernikeSpectrum(coeffs, f * grid256.extent)
                         for f in (0.45, 0.3))
        for spec in (first, first, second):
            phase_from_spectrum(spec, grid256)
        assert _disk_plan.cache_info().currsize == 1
        assert eval_calls == [2, 5, 2, 5]
        again = phase_from_spectrum(first, grid256)
        assert eval_calls == [2, 5, 2, 5, 2, 5]
        assert np.array_equal(again.phase,
                              _per_mode_phase(first, grid256, 0.0))


class TestSpectrumType:
    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            ZernikeSpectrum(((2, 0.1), (2, 0.2)), 1e-3)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            ZernikeSpectrum(((0, 0.1),), 1e-3)


class TestModalScreen:
    def test_zero_sigma_zero_screen(self, grid256):
        stats = {j: 0.0 for j in range(2, 16)}
        spec = modal_spectrum(stats, 0.4 * grid256.extent, seed=3)
        screen = phase_from_spectrum(spec, grid256)
        assert np.all(screen.phase == 0.0)
        assert all(a == 0.0 for _, a in spec.coefficients)

    def test_half_normal_mean(self):
        # 1e4 draws per mode: sample mean of |a| near sigma*sqrt(2/pi)
        from hydrolink.seeding import TAG_COEFF, substream
        sigma = 0.1
        target = sigma * math.sqrt(2 / math.pi)
        for j in (2, 9, 15):
            vals = [abs(substream(seed, TAG_COEFF, j).normal(0.0, sigma))
                    for seed in range(10000)]
            assert np.mean(vals) == pytest.approx(target, rel=0.03)

    def test_per_mode_variance(self):
        from hydrolink.seeding import TAG_COEFF, substream
        sigma = 0.25
        n_seeds = 200
        for j in (2, 8):
            draws = [substream(seed, TAG_COEFF, j).normal(0.0, sigma)
                     for seed in range(n_seeds)]
            var = float(np.var(draws))
            assert abs(var - sigma**2) < 5 * sigma**2 / math.sqrt(n_seeds)

    def test_deterministic(self, grid256):
        stats = {j: 0.2 for j in range(2, 16)}
        s1, s2 = (phase_from_spectrum(modal_spectrum(
            stats, 0.4 * grid256.extent, 99), grid256) for _ in range(2))
        assert np.array_equal(s1.phase, s2.phase)

    def test_draws_independent_of_dict_order(self, grid256):
        stats = {j: 0.2 for j in range(2, 16)}
        reverse = dict(sorted(stats.items(), reverse=True))
        spec1 = modal_spectrum(stats, 0.4 * grid256.extent, 5)
        spec2 = modal_spectrum(reverse, 0.4 * grid256.extent, 5)
        assert spec1 == spec2
        assert np.array_equal(phase_from_spectrum(spec1, grid256).phase,
                              phase_from_spectrum(spec2, grid256).phase)

    def test_piston_rejected(self):
        with pytest.raises(ValueError):
            modal_spectrum({1: 0.1, 2: 0.1}, 1e-3, 0)

    def test_rekeyed_draws_equal_fresh_streams(self):
        # One re-keyed generator draws what a fresh (seed, TAG_COEFF, j)
        # stream draws first, for seeds of one, two and three 32-bit words
        # (the CLI takes seeds of 2**64 and up) and a two-word j.
        rng = np.random.default_rng(27)
        seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5] + [
            int(s) for s in rng.integers(0, 2**63, 95)]
        scales = [(j, float(s)) for j, s in zip(
            [*range(2, 11), 2**32 + 3], rng.uniform(0.01, 3.0, 10))]
        scales.insert(4, (40, 0.0))
        got = normals(seeds, TAG_COEFF, scales)
        want = np.array([[substream(seed, TAG_COEFF, j).normal(0.0, sigma)
                          if sigma > 0 else 0.0 for j, sigma in scales]
                         for seed in seeds])
        assert got.shape == (100, 11)       # 1,000 drawn pairs
        assert got.tobytes() == want.tobytes()
        assert not got[:, 4].any()
        spectrum = modal_spectrum(dict(scales[:5]), 1e-3, 2**64 + 5)
        assert [a for _, a in spectrum.coefficients] == got[4, :5].tolist()
        with pytest.raises(ValueError):
            normals([-1], TAG_COEFF, scales)


def _kolmogorov_screen_reference(r0, grid, seed, subharmonic_levels=0):
    """The screen as kolmogorov_screen drew it before its input-only work
    moved into a cached plan, with its two cell integrators inlined."""
    n = grid.n_samples
    df = 1.0 / grid.extent
    f = np.fft.fftfreq(n, d=grid.spacing)
    fx, fy = np.meshgrid(f, f, indexing="xy")
    fr = np.hypot(fx, fy)
    fr[0, 0] = np.inf
    scale = 0.023 * r0 ** (-5.0 / 3.0)
    psd = scale * fr ** (-11.0 / 3.0)
    sub = (np.arange(16) + 0.5) / 16.0 - 0.5
    sx, sy = np.meshgrid(sub, sub, indexing="xy")
    for kx in range(-4, 5):
        for ky in range(-4, 5):
            if kx == 0 and ky == 0:
                continue
            cell = np.hypot(kx + sx, ky + sy) * df
            psd[ky % n, kx % n] = scale * float(np.mean(cell ** (-11 / 3)))
    if subharmonic_levels > 0:
        for kx in (-1, 0, 1):
            for ky in (-1, 0, 1):
                psd[ky % n, kx % n] = 0.0
    rng = substream(seed, TAG_COEFF)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    spectrum = noise * np.sqrt(psd) * df
    phase = np.real(np.fft.ifft2(spectrum)) * n * n
    if subharmonic_levels > 0:
        cells = [(kx, ky, df / 3.0 ** level)
                 for level in range(subharmonic_levels + 1)
                 for kx in (-1, 0, 1) for ky in (-1, 0, 1)
                 if (kx, ky) != (0, 0)]
        coords = np.arange(n) * grid.spacing
        for kx, ky, dfc in cells:
            fxs = (kx + sx) * dfc
            fys = (ky + sy) * dfc
            w = scale * np.hypot(fxs, fys) ** (-11.0 / 3.0)
            var = float(np.mean(w)) * dfc * dfc
            wsum = float(np.sum(w))
            fx_eff = math.copysign(math.sqrt(float(np.sum(w * fxs**2))
                                             / wsum), kx)
            fy_eff = math.copysign(math.sqrt(float(np.sum(w * fys**2))
                                             / wsum), ky)
            c = math.sqrt(var) * (rng.standard_normal()
                                  + 1j * rng.standard_normal())
            ex = np.exp(2j * np.pi * fx_eff * coords)
            ey = np.exp(2j * np.pi * fy_eff * coords)
            phase = phase + np.real(c * ey[:, None] * ex[None, :])
        half = df / (2.0 * 3.0 ** subharmonic_levels)
        grad_var = (2.0 * math.pi) ** 2 * _hole_gradient_moment(scale, half)
        gx = math.sqrt(grad_var) * rng.standard_normal()
        gy = math.sqrt(grad_var) * rng.standard_normal()
        phase = phase + gx * coords[None, :] + gy * coords[:, None]
    return phase


class TestKolmogorovPlan:
    CASES = [(0.01, Grid(64, 1e-4), 0), (0.2, Grid(128, 8e-5), 5),
             (0.05, Grid(96, 2.5e-4), 11), (3e-3, Grid(256, 4e-5), 1234)]

    @pytest.mark.parametrize("r0, grid, seed", CASES)
    def test_plain_screen_bit_identical_to_reference(self, r0, grid, seed):
        got = kolmogorov_screen(r0, grid, seed).phase
        assert np.array_equal(got, _kolmogorov_screen_reference(r0, grid,
                                                                seed))

    @pytest.mark.parametrize("levels", [0, 2])
    @pytest.mark.parametrize("r0, grid, seed", CASES)
    def test_a_generator_seed_is_the_int_seeds_stream(self, r0, grid, seed,
                                                      levels):
        # a transit renders from the noise key drawn ahead, through a
        # generator: the screen the int seed gives
        want = kolmogorov_screen(r0, grid, seed, levels).phase
        got = kolmogorov_screen(r0, grid, substream(seed, TAG_COEFF),
                                levels).phase
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("r0, grid, seed", CASES)
    def test_subharmonic_screen_matches_reference(self, r0, grid, seed,
                                                  levels):
        # the merged cell integrator rounds the mode amplitudes and
        # frequencies differently, so only the last bits may move
        ref = _kolmogorov_screen_reference(r0, grid, seed, levels)
        got = kolmogorov_screen(r0, grid, seed,
                                subharmonic_levels=levels).phase
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_plan_built_once_per_key(self, grid256):
        _kolmogorov_plan.cache_clear()
        cfg = ChannelConfig(n_screens=3, screen_source="kolmogorov",
                            r0=0.02, subharmonic_levels=2, seed=4)
        realize_screens(cfg, grid256)
        info = _kolmogorov_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestKolmogorovScreen:
    def test_vanishing_turbulence_limit(self, grid256):
        # variance scales as (extent/r0)^(5/3); huge r0 -> negligible phase
        var3 = kolmogorov_screen(1e3 * grid256.extent, grid256, 0).phase.var()
        assert var3 < 1e-5
        var4 = kolmogorov_screen(4e3 * grid256.extent, grid256, 0).phase.var()
        assert var4 < 1e-6
        assert var4 < var3

    def test_deterministic(self, grid256):
        r0 = 8 * grid256.spacing
        s1 = kolmogorov_screen(r0, grid256, 42, subharmonic_levels=2)
        s2 = kolmogorov_screen(r0, grid256, 42, subharmonic_levels=2)
        assert np.array_equal(s1.phase, s2.phase)

    def test_structure_function_monte_carlo(self, grid256):
        # ensemble D(r) against 6.88 (r/r0)^(5/3) with low frequencies
        # completed (the plain FFT screen is documented to undershoot)
        r0_px = 8
        r0 = r0_px * grid256.spacing
        lags = (r0_px // 2, r0_px, 2 * r0_px)
        acc = {lag: [] for lag in lags}
        for seed in range(200):
            ph = kolmogorov_screen(r0, grid256, seed,
                                   subharmonic_levels=2).phase
            for lag in lags:
                acc[lag].append(np.mean((ph[:, lag:] - ph[:, :-lag]) ** 2))
                acc[lag].append(np.mean((ph[lag:, :] - ph[:-lag, :]) ** 2))
        for lag in lags:
            target = 6.88 * (lag / r0_px) ** (5 / 3)
            assert np.mean(acc[lag]) == pytest.approx(target, rel=0.15)

    def test_plain_screen_undershoots_low_frequencies(self, grid256):
        # documents the default's truncation deficit at separation 2 r0
        r0_px = 8
        r0 = r0_px * grid256.spacing
        lag = 2 * r0_px
        vals = []
        for seed in range(50):
            ph = kolmogorov_screen(r0, grid256, seed).phase
            vals.append(np.mean((ph[:, lag:] - ph[:, :-lag]) ** 2))
        ratio = np.mean(vals) / (6.88 * 2 ** (5 / 3))
        assert 0.5 < ratio < 0.85

    def test_invalid_r0(self, grid256):
        with pytest.raises(ValueError):
            kolmogorov_screen(0.0, grid256, 0)


class TestPhaseScreenType:
    def test_shape_checked(self, grid256):
        with pytest.raises(ValueError):
            PhaseScreen(grid256, np.zeros((4, 4)))

    def test_nonfinite_rejected(self, grid256):
        ph = np.zeros((256, 256))
        ph[1, 1] = np.inf
        with pytest.raises(ValueError):
            PhaseScreen(grid256, ph)

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_negative_inf_and_nan_rejected(self, grid256, bad):
        ph = np.zeros((256, 256))
        ph[1, 1] = bad
        with pytest.raises(ValueError):
            PhaseScreen(grid256, ph)


@pytest.mark.parametrize("levels", [1.5, True, np.int64(2)],
                         ids=["float", "bool", "numpy"])
def test_subharmonic_levels_follow_the_integer_rule(levels):
    # A float or a bool is refused by name; a numpy integer draws the
    # screen its int does.
    grid = Grid(64, 1e-3)
    if isinstance(levels, np.integer):
        got, want = (kolmogorov_screen(0.2, grid, 7, subharmonic_levels=k)
                     for k in (levels, int(levels)))
        assert got.phase.tobytes() == want.phase.tobytes()
        return
    with pytest.raises(ConfigError, match=re.escape(
            f"subharmonic_levels must be an integer, got {levels!r}")):
        kolmogorov_screen(0.2, grid, 7, subharmonic_levels=levels)
