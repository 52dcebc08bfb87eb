"""Zernike polynomials, modal spectra, and random phase screens.

Single-index convention
-----------------------
Modes are ordered by ``j = 1 + (n*(n+2) + m) / 2`` with radial degree ``n``
and signed azimuthal index ``m``. This runs j = 1 (piston), 2/3 (tilt pair
(1,-1)/(1,1)), 4/5/6 ((2,-2) astigmatism, (2,0) defocus, (2,2) astigmatism),
..., 15 ((4,4)); the first 15 modes are exactly all n <= 4. Note: this is
the OSA/ANSI ordering shifted to start at 1, which differs from Noll's
classic sequence (where defocus is j = 4) even though the formula is often
labeled a "Noll index". The README carries a conversion table.

Polynomials are RMS-normalized over the unit disk (Noll normalization), so a
coefficient's magnitude in radians is directly the RMS phase it contributes.
Negative m pairs with sin(|m| phi), non-negative m with cos(|m| phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
import numpy.fft

from .field import ConfigError, Grid, check_count, frozen, plan, row_bands
from .seeding import TAG_COEFF, substream
from .special import erf


@dataclass(frozen=True)
class ZernikeIndex:
    """A validated (n, m, j) index triple."""

    n: int
    m: int
    j: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"radial degree n must be >= 0, got {self.n}")
        if abs(self.m) > self.n:
            raise ValueError(f"|m| must be <= n, got (n={self.n}, m={self.m})")
        if (self.n - abs(self.m)) % 2 != 0:
            raise ValueError(
                f"n - |m| must be even, got (n={self.n}, m={self.m})")
        expected = 1 + (self.n * (self.n + 2) + self.m) // 2
        if self.j != expected:
            raise ValueError(
                f"j={self.j} inconsistent with (n={self.n}, m={self.m}); "
                f"expected {expected}")


def index_from_nm(n: int, m: int) -> ZernikeIndex:
    """Build the scalar index from (n, m) via j = 1 + (n(n+2) + m)/2."""
    return ZernikeIndex(n=n, m=m, j=1 + (n * (n + 2) + m) // 2)


def nm_from_index(j: int) -> ZernikeIndex:
    """Invert the scalar index; round-trips exactly with index_from_nm."""
    if j < 1:
        raise ValueError(f"scalar index j must be >= 1, got {j}")
    k = j - 1
    n = int(math.ceil((-3.0 + math.sqrt(9.0 + 8.0 * k)) / 2.0))
    m = 2 * k - n * (n + 2)
    return index_from_nm(n, m)


def _noll_norm(n: int, m: int) -> float:
    return math.sqrt(n + 1.0) if m == 0 else math.sqrt(2.0 * (n + 1.0))


@lru_cache(maxsize=None)
def _radial_coeffs(n: int, a: int) -> tuple[float, ...]:
    """Coefficients of R_n^a in descending powers rho^n .. rho^0."""
    coeffs = [0.0] * (n + 1)
    for k in range((n - a) // 2 + 1):
        c = ((-1) ** k * math.factorial(n - k)
             // (math.factorial(k)
                 * math.factorial((n + a) // 2 - k)
                 * math.factorial((n - a) // 2 - k)))
        coeffs[n - (n - 2 * k)] = float(c)   # position of power n-2k
    return tuple(coeffs)


def zernike_eval(idx: ZernikeIndex, rho, phi):
    """Evaluate Z_j at unit-disk radius rho and azimuth phi (radians).

    Accepts scalars or arrays. rho must lie in [0, 1].
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(rho < 0.0) or np.any(rho > 1.0 + 1e-12):
        raise ValueError("rho outside the unit disk")
    a = abs(idx.m)
    radial = np.polyval(_radial_coeffs(idx.n, a), rho)
    if idx.m >= 0:
        angular = np.cos(a * phi)
    else:
        angular = np.sin(a * phi)
    out = _noll_norm(idx.n, idx.m) * radial * angular
    return out if out.ndim else float(out)


def gradient_unchecked(idx: ZernikeIndex, x, y):
    """Gradient of the polynomial continuation of Z_n^m, any (x, y).

    The polynomials extend smoothly beyond the unit disk; sensor code uses
    this to average gradients over sub-apertures that straddle the analysis
    circle. The polar chain rule on :func:`zernike_eval`'s radial
    coefficients gives N [R' cos t A - (R/rho) sin t A'] and
    N [R' sin t A + (R/rho) cos t A'] for A = cos/sin(|m| t). For |m| >= 1,
    R/rho is R's coefficients without their zero constant term, a
    polynomial, and for m = 0 its term has A' = 0; so the gradient is exact
    at the origin too.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = abs(idx.m)
    coeffs = _radial_coeffs(idx.n, a)
    rho = np.hypot(x, y)
    t = np.arctan2(y, x)
    if idx.m >= 0:
        ang, d_ang = np.cos(a * t), -a * np.sin(a * t)
    else:
        ang, d_ang = np.sin(a * t), a * np.cos(a * t)
    radial = np.polyval(np.polyder(coeffs), rho) * ang
    azimuthal = np.polyval(coeffs[:-1], rho) * d_ang
    norm = _noll_norm(idx.n, idx.m)
    dzdx = norm * (radial * np.cos(t) - azimuthal * np.sin(t))
    dzdy = norm * (radial * np.sin(t) + azimuthal * np.cos(t))
    if np.ndim(dzdx) == 0:
        return float(dzdx), float(dzdy)
    return dzdx, dzdy


@dataclass(frozen=True)
class ZernikeSpectrum:
    """Ordered modal coefficients a_j (radians) over a disk of given radius."""

    coefficients: tuple[tuple[int, float], ...]
    aperture_radius: float

    def __post_init__(self):
        if not self.aperture_radius > 0:
            raise ValueError("aperture_radius must be > 0")
        coeffs = tuple(sorted((int(j), float(a))
                              for j, a in self.coefficients))
        js = [j for j, _ in coeffs]
        if any(j < 1 for j in js):
            raise ValueError("scalar indices must be >= 1")
        if len(set(js)) != len(js):
            raise ValueError("duplicate scalar index in spectrum")
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class PhaseScreen:
    """A thin slab of accumulated phase in radians on a grid."""

    grid: Grid
    phase: np.ndarray

    def __post_init__(self):
        ph = np.asarray(self.phase, dtype=float)
        n = self.grid.n_samples
        if ph.shape != (n, n):
            raise ValueError(
                f"phase shape {ph.shape} does not match grid {n}x{n}")
        if not (math.isfinite(ph.min()) and math.isfinite(ph.max())):
            raise ValueError("phase contains non-finite samples")
        object.__setattr__(self, "phase", frozen(ph))


def check_aperture(radius: float, grid: Grid) -> None:
    """Raise ValueError unless a disk of ``radius`` fits inside the grid."""
    if radius > grid.extent / 2:
        raise ValueError(
            f"aperture radius {radius} exceeds half extent {grid.extent / 2}")


@plan
def _disk_plan(grid: Grid, aperture_radius: float, js: tuple[int, ...],
               rim_taper: float) -> tuple[np.ndarray, tuple, np.ndarray,
                                          np.ndarray | None]:
    """What every render on one aperture disk shares: (inside mask, row
    bands, mode maps, rim taper).

    Each row band pairs a slice of the grid's rows with the slice of the
    inside samples, in the mask's row-major order, that those rows hold.
    The maps, shape (len(js), inside samples), hold Z_j over the disk, one
    row per j of ``js``, each ``zernike_eval``'s array bit for bit. The
    taper, for ``rim_taper`` t > 0 (else None), is the roll-off
    0.5 * (1 - erf((rho - (1 - t/2)) / (t/5))) over the inside samples.
    """
    x, y = grid.mesh()
    rho = np.hypot(x, y) / aperture_radius
    inside = rho <= 1.0
    phi = np.arctan2(y, x)
    rho_in = rho[inside]
    phi_in = phi[inside]
    del x, y, rho, phi             # free the full grids before the maps
    offsets = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
    bands = tuple((rows, slice(offsets[rows.start], offsets[rows.stop]))
                  for rows in row_bands(len(inside)))
    maps = np.empty((len(js), rho_in.size))
    for row, j in zip(maps, js):
        row[:] = zernike_eval(nm_from_index(j), rho_in, phi_in)
    taper = None
    if rim_taper > 0.0:
        taper = rho_in - (1.0 - rim_taper / 2.0)
        taper /= rim_taper / 5.0
        erf(taper, out=taper)
        np.subtract(1.0, taper, out=taper)
        taper *= 0.5
    return inside, bands, maps, taper


def phase_from_spectrum(spec: ZernikeSpectrum, grid: Grid,
                        rim_taper: float = 0.0) -> PhaseScreen:
    """Render a truncated modal sum onto a grid; zero outside the aperture.

    The disk must fit inside the grid extent. The mode maps come from the
    disk's :func:`_disk_plan`, so a mode is evaluated once however many
    screens with the same modes are rendered on the disk; the modes with a
    nonzero coefficient are added in ascending j, from zero, the bits of
    ``acc += a_j * Z_j``. Each row band is one ``einsum`` call rather than
    that loop's 2J ufunc calls, since every ufunc call on a band releases
    and retakes the GIL, which stalls renders on the other threads. Its
    default ``optimize=False`` keeps numpy's own loop: a BLAS product
    would sum in another order and start OpenBLAS threads. With the default
    ``rim_taper = 0`` the phase cuts off hard at the aperture edge. A
    positive ``rim_taper`` (fraction of the radius) instead rolls the phase
    smoothly to zero across the outer rim; split-step propagation uses this
    so the screen's complex exponential stays band-limited, at the cost of
    attenuating the modes in the rim band.
    """
    check_aperture(spec.aperture_radius, grid)
    if not 0.0 <= rim_taper < 1.0:
        raise ValueError("rim_taper must be in [0, 1)")
    coeffs = [a for _, a in spec.coefficients if a != 0.0]
    js = tuple(j for j, a in spec.coefficients if a != 0.0)
    inside, bands, maps, taper = _disk_plan(grid, spec.aperture_radius, js,
                                            rim_taper)
    # Summed and scattered one row band at a time, so a render holds its
    # screen and little more.
    phase = np.zeros(inside.shape)
    for rows, band in bands:
        acc = np.einsum("j,jn->n", coeffs, maps[:, band])
        if taper is not None:
            acc *= taper[band]
        phase[rows][inside[rows]] = acc
    phase.flags.writeable = False
    return PhaseScreen(grid, phase)


def sigma_table(entries: Iterable[tuple], key: str = "",
                ) -> tuple[tuple[int, float], ...]:
    """Per-mode deviations as (j, sigma) pairs sorted by j, if every j is a
    distinct integer >= 2 (piston j = 1 is unobservable in slope data) and
    every sigma a finite number >= 0; else a ConfigError at ``key``."""
    table = {}
    for j, sigma in entries:
        check_count("mode index", j, 2, key)
        j = int(j)
        if j in table:
            raise ConfigError(f"mode index {j} is listed twice", key)
        try:
            value = math.nan if isinstance(sigma, bool) else float(sigma)
        except (TypeError, ValueError):
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise ConfigError(f"sigma for j={j} must be a finite number "
                              f">= 0, got {sigma!r}", key)
        table[j] = value
    return tuple(sorted(table.items()))


def _cell_moments(kx: int, ky: int, df: float) -> tuple[float, float, float]:
    """Unit-scale mean of f^(-11/3) over one df x df frequency cell, and the
    power-weighted RMS fx and fy over it, signed as kx and ky.

    Near the origin the power law varies by orders of magnitude across a
    cell, so the midpoint value badly underweights it; a 16x16 midpoint
    subsample of the cell fixes that. A plane wave at the RMS frequency
    matches the cell's second moments, which keeps its structure-function
    contribution exact to quadratic order in the lag, the regime where
    these long-wavelength cells act.
    """
    sub = (np.arange(16) + 0.5) / 16.0 - 0.5
    sx, sy = np.meshgrid(sub, sub, indexing="xy")
    fxs = (kx + sx) * df
    fys = (ky + sy) * df
    # hypot before the df scaling: the plain screens' cell means keep their
    # last digits
    w = (np.hypot(kx + sx, ky + sy) * df) ** (-11.0 / 3.0)
    wsum = float(np.sum(w))
    fx_eff = math.copysign(math.sqrt(float(np.sum(w * fxs**2)) / wsum), kx)
    fy_eff = math.copysign(math.sqrt(float(np.sum(w * fys**2)) / wsum), ky)
    return float(np.mean(w)), fx_eff, fy_eff


def _hole_gradient_moment(scale: float, half: float) -> float:
    """Per-axis second moment of the power law over the square |fx|,|fy|<half.

    Computed as the analytic integral over the inscribed disk plus a
    numerical remainder for the corners (where the integrand is regular).
    """
    disk = 3.0 * math.pi * scale * half ** (1.0 / 3.0)
    sub = (np.arange(64) + 0.5) / 64.0 - 0.5
    sx, sy = np.meshgrid(sub, sub, indexing="xy")
    fxs = 2.0 * half * sx
    fys = 2.0 * half * sy
    fr = np.hypot(fxs, fys)
    corner = (fr > half) & (fr > 0)
    w = scale * fr[corner] ** (-11.0 / 3.0)
    cell_area = (2.0 * half / 64.0) ** 2
    return disk + float(np.sum(w * fxs[corner] ** 2)) * cell_area


@plan
def _kolmogorov_plan(r0: float, grid: Grid, subharmonic_levels: int):
    """The parts of :func:`kolmogorov_screen` that depend only on the
    arguments: (sqrt(psd), df, mode amplitudes, the modes' exp(2 pi i f x)
    column and row factors, hole-tilt sigma, sample coordinates).
    """
    n = grid.n_samples
    df = 1.0 / grid.extent
    f = np.fft.fftfreq(n, d=grid.spacing)
    fx, fy = np.meshgrid(f, f, indexing="xy")
    fr = np.hypot(fx, fy)
    fr[0, 0] = np.inf                       # kill DC before the power law
    scale = 0.023 * r0 ** (-5.0 / 3.0)
    psd = scale * fr ** (-11.0 / 3.0)
    for kx in range(-4, 5):
        for ky in range(-4, 5):
            if (kx, ky) != (0, 0):
                psd[ky % n, kx % n] = scale * _cell_moments(kx, ky, df)[0]
    # With subharmonics, the ring of cells around DC plus each nested 3x3
    # refinement of the DC hole becomes one moment-matched mode. Ring-1
    # lattice cells are steep enough that a fixed on-lattice frequency
    # misplaces their second moment, so they leave the FFT spectrum.
    levels = range(subharmonic_levels + 1) if subharmonic_levels else ()
    cells = [(kx, ky, df / 3.0 ** level) for level in levels
             for kx in (-1, 0, 1) for ky in (-1, 0, 1) if (kx, ky) != (0, 0)]
    if cells:
        psd[np.ix_([0, 1, n - 1], [0, 1, n - 1])] = 0.0
    mean, fxe, fye = np.array([_cell_moments(*c) for c in cells]
                              ).reshape(-1, 3).T
    amps = np.sqrt(scale * mean) * np.array([c[2] for c in cells])
    coords = np.arange(n) * grid.spacing     # same origin as the IFFT
    ex = np.exp(2j * np.pi * fxe[:, None] * coords)
    ey = np.exp(2j * np.pi * fye[:, None] * coords)
    # The hole left below the deepest level acts as a pure random tilt at
    # any lag well inside the grid; close it with a tilt whose per-axis
    # gradient variance equals the hole's exactly (its total variance
    # diverges, but that is all piston).
    half = df / (2.0 * 3.0 ** subharmonic_levels)
    tilt = math.sqrt((2.0 * math.pi) ** 2 * _hole_gradient_moment(scale, half))
    return np.sqrt(psd), df, amps, ex, ey, tilt, coords


def kolmogorov_screen(r0: float, grid: Grid,
                      seed: int | np.random.Generator,
                      subharmonic_levels: int = 0) -> PhaseScreen:
    """FFT-filtered Gaussian noise with Kolmogorov phase statistics, drawn
    from ``substream(seed, TAG_COEFF)``, or from ``seed`` if it is a
    generator.

    The spectral density is 0.023 * r0^(-5/3) * f^(-11/3) (f in cycles/m),
    the pairing that yields the structure function 6.88 * (r/r0)^(5/3). The
    zero-frequency bin is removed.

    By default no subharmonic enhancement is applied: frequencies below half
    the grid resolution 1/extent are then absent, which suppresses tip/tilt
    power and leaves the measured structure function roughly
    (r/extent)^(1/3) below the 6.88 law even at separations of order r0.
    Passing ``subharmonic_levels=k`` completes the low-frequency end with
    moment-matched plane-wave modes: the ring of cells around DC plus k
    nested 3x3 refinements of the DC hole, each mode carrying its cell's
    integrated power at the power-weighted RMS frequency. This recovers the
    6.88 law to a few percent for k >= 2 on grids a few tens of r0 wide; it
    also raises the total screen variance, which is dominated by the lowest
    represented frequencies.
    """
    if not r0 > 0:
        raise ValueError(f"Fried parameter must be > 0, got {r0}")
    check_count("subharmonic_levels", subharmonic_levels, 0)
    sqrt_psd, df, amps, ex, ey, tilt, coords = _kolmogorov_plan(
        r0, grid, subharmonic_levels)
    n = grid.n_samples
    rng = seed if isinstance(seed, np.random.Generator) \
        else substream(seed, TAG_COEFF)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    spectrum = noise * sqrt_psd * df
    phase = np.real(np.fft.ifftn(spectrum, axes=(-2, -1), out=spectrum)) \
        * n * n
    if subharmonic_levels > 0:
        g = rng.standard_normal(2 * amps.size + 2)
        for a, re, im, exm, eym in zip(amps, g[:-2:2], g[1:-2:2], ex, ey):
            c = a * (re + 1j * im)
            phase = phase + np.real(c * eym[:, None] * exm[None, :])
        gx, gy = tilt * g[-2:]
        phase = phase + gx * coords[None, :] + gy * coords[:, None]
    phase.flags.writeable = False
    return PhaseScreen(grid, phase)

