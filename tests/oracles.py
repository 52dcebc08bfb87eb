"""Reference implementations that only the tests use.

The package writes 16-bit PGMs but never reads them, fits Zernike modes
from averaged lenslet gradients but never asks for a gradient at a point,
attenuates whole stacks of fields inside the split-step chain but never one
field on its own, never measures a beam's width, and does not look for
phase singularities. The tests need all of these to check it: reading back
an image, the exact gradient of Z_j on the unit disk, the one-field
attenuation step of the chain (``apply_attenuation``), the second-moment
beam radius (``beam_width``), and the vortex count and total charge a beam
carries through the channel. ``kolmogorov_coherence`` is a closed form the
channel's statistics must meet: the coherence a plane wave keeps through
Kolmogorov screens. ``modal_spectrum`` draws one modal screen's spectrum
from a seed, as the channel draws each screen of a realization, and
``substream`` is the generator of the Philox stream keyed by (seed,
*path), the reference for the channel's own draws, which it keys with
``seeding.stream_key``. ``centroid_law`` predicts where a realization
moves a beam's centroid, and ``rytov_log_amplitude_variance`` how much
diffraction between Kolmogorov screens makes a plane wave's amplitude
fluctuate. ``windowed_com`` is the three-pass centroider the sensor used
before it took masked window sums.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hydrolink.channel import ChannelConfig, angular_spectrum_propagate, \
    apply_phase_screen, realize_screens
from hydrolink.field import ComplexField, Grid, centroid
from hydrolink.seeding import TAG_COEFF, normals, stream_key
from hydrolink.shack_hartmann import CENTROID_CHUNK, CENTROID_FLOOR
from hydrolink.zernike import ZernikeIndex, ZernikeSpectrum, \
    _kolmogorov_plan, gradient_unchecked, sigma_table


def apply_attenuation(field: ComplexField, alpha_db_per_m: float,
                      dz: float) -> ComplexField:
    """Scale amplitude by 10^(-alpha*dz/20); power drops by 10^(-alpha*dz/10).

    The amplitude factor is the chain's own expression, so a step composed
    from this matches ``hydrolink.channel.run_channel`` bit for bit.
    """
    if alpha_db_per_m < 0 or dz < 0:
        raise ValueError("attenuation and distance must be >= 0")
    factor = 10.0 ** (-alpha_db_per_m * dz / 20.0)
    if factor == 1.0:
        return field
    return field.with_amplitude(field.amplitude * factor)


def beam_width(field: ComplexField) -> float:
    """1/e^2 intensity radius from second moments: w = 2 * rms(x - <x>)."""
    inten = field.intensity()
    p = float(inten.sum())
    if p <= 0.0:
        raise ValueError("beam width undefined for zero-power field")
    cx, cy = centroid(field)
    x, y = field.grid.mesh()
    var = float((inten * ((x - cx) ** 2 + (y - cy) ** 2)).sum() / p)
    return 2.0 * math.sqrt(var / 2.0)


def centroid_law(field: ComplexField, config: ChannelConfig,
                 ) -> tuple[float, float]:
    """The centroid (x, y) ``run_channel(field, config)`` must leave, from
    the chain rebuilt step by step: ``realize_screens``' screens, each
    applied by ``apply_phase_screen`` before its step, and
    ``angular_spectrum_propagate`` over each of the n_screens + 1 steps of
    dz. No occluders, so every operation but propagation leaves the
    intensity's shape alone: a phase screen keeps it, attenuation scales
    it. Propagation keeps |A(f)|^2 (nothing evanescent) and moves the
    centroid by dz * sum |A|^2 (k_x, k_y) / k_z / sum |A|^2, with
    k_z = sqrt(k^2 - k_x^2 - k_y^2) and k = 2 pi n / lambda.
    """
    if config.occlusion_rate > 0:
        raise ValueError("the centroid law holds without occluders")
    screens, _ = realize_screens(config, field.grid)
    dz = config.length / (config.n_screens + 1)
    k = 2.0 * math.pi * config.refractive_index / field.wavelength
    f = 2.0 * math.pi * np.fft.fftfreq(field.grid.n_samples,
                                       d=field.grid.spacing)
    kx, ky = np.meshgrid(f, f, indexing="xy")
    kz = np.sqrt(k * k - kx * kx - ky * ky)
    cx, cy = centroid(field)
    for step in range(config.n_screens + 1):
        if step:
            field = apply_phase_screen(field, screens[step - 1])
        power = np.abs(np.fft.fft2(field.amplitude)) ** 2
        cx += dz * float((power * kx / kz).sum() / power.sum())
        cy += dz * float((power * ky / kz).sum() / power.sum())
        field = angular_spectrum_propagate(field, dz,
                                           config.refractive_index)
    return cx, cy


def kolmogorov_coherence(r0: float, grid: Grid, n_screens: int,
                         lags) -> np.ndarray:
    """The mutual coherence Gamma(d) = <u(r) u*(r + d)> / <|u|^2> a unit
    plane wave keeps after ``n_screens`` independent Kolmogorov screens
    (``subharmonic_levels`` 0) at ``r0`` and any free propagation between
    them, at lags d of ``lags`` samples along one axis.

    A screen is the real part of sum_f c_f (a_f + i b_f) exp(2 pi i f.r),
    c_f = sqrt(PSD) df, with a_f, b_f independent standard normals: a
    homogeneous Gaussian field with structure function
    D(d) = 2 sum_f c_f^2 (1 - cos 2 pi f.d), read here from the
    generator's own ``_kolmogorov_plan``. So a screen multiplies a
    homogeneous field's coherence by exp(-D/2), and on the periodic grid
    propagation keeps it (|H| = 1, nothing evanescent): Gamma =
    prod_i exp(-D_i / 2) exactly, whatever the diffraction between screens.
    """
    sqrt_psd, df = _kolmogorov_plan(r0, grid, 0)[:2]
    power = ((sqrt_psd * df) ** 2).sum(axis=0)     # per fx, over fy
    fx = np.fft.fftfreq(grid.n_samples, d=grid.spacing)
    d = np.asarray(lags, dtype=float)[:, None] * grid.spacing
    structure = 2.0 * (power * (1.0 - np.cos(2.0 * np.pi * fx * d))).sum(1)
    return np.exp(-0.5 * n_screens * structure)


def rytov_log_amplitude_variance(config: ChannelConfig, grid: Grid,
                                  wavelength: float) -> float:
    """The first-order Rytov variance of chi = ln|u| a unit plane wave
    shows after ``config``'s Kolmogorov screens (``subharmonic_levels`` 0),
    without attenuation.

    A screen phi at distance D from the output leaves u = exp(i phi) as
    1 + i phi to first order; each of its components at frequency f then
    gains exp(-i alpha), alpha = pi (lambda / n) D |f|^2, so chi is phi
    filtered by sin(alpha) and its variance is sum_f c_f^2 sin^2(alpha)
    with c_f = sqrt(PSD) df, read from the generator's own
    ``_kolmogorov_plan`` (see :func:`kolmogorov_coherence`). Independent
    screens add. Screen i of n sits at D_i = L - i L / (n + 1), as
    ``run_channel`` spaces them.
    """
    sqrt_psd, df = _kolmogorov_plan(config.r0, grid, 0)[:2]
    power = (sqrt_psd * df) ** 2
    f = np.fft.fftfreq(grid.n_samples, d=grid.spacing)
    fr2 = f[None, :] ** 2 + f[:, None] ** 2
    n = config.n_screens
    lam = wavelength / config.refractive_index
    return float(sum(
        (power * np.sin(np.pi * lam * (config.length * (1 - i / (n + 1)))
                        * fr2) ** 2).sum()
        for i in range(1, n + 1)))


def modal_spectrum(stats: Mapping[int, float], aperture_radius: float,
                   seed: int) -> ZernikeSpectrum:
    """Random modal coefficients from per-mode deviations.

    Each a_j is an independent zero-mean Gaussian with the given standard
    deviation (radians), drawn from its own (seed, ``TAG_COEFF``, j)-keyed
    stream, so the result does not depend on dict ordering; ``stats`` must
    keep the rules of ``zernike.sigma_table``. A screen of a realization
    whose screen seed is ``seed`` has these coefficients.
    """
    table = sigma_table(stats.items())
    coeffs = normals([seed], TAG_COEFF, table)[0].tolist()
    return ZernikeSpectrum(tuple((j, a) for (j, _), a in zip(table, coeffs)),
                           aperture_radius)


def substream(seed: int, *path: int) -> np.random.Generator:
    """The generator of the Philox stream keyed by (seed, *path)."""
    key = stream_key(seed, *path)
    return np.random.Generator(np.random.Philox(key=key))


def read_pgm16(path: Path | str) -> np.ndarray:
    """Read back a 16-bit binary PGM written by ``hydrolink.io.write_pgm16``."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or parts[2] != b"65535":
        raise ValueError(f"{path} is not a 16-bit binary PGM")
    width, height = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=">u2", count=width * height)
    return pixels.reshape(height, width).astype(np.uint16)


def zernike_gradient(idx: ZernikeIndex, x, y):
    """Cartesian gradient (dZ/dx, dZ/dy) at unit-disk coordinates.

    The package's chain-rule gradient on the radial polynomial, exact at
    the origin too, restricted to the disk: points must satisfy
    x^2 + y^2 <= 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x * x + y * y > 1.0 + 1e-12):
        raise ValueError("point outside the unit disk")
    return gradient_unchecked(idx, x, y)


@dataclass(frozen=True)
class Vortex:
    """A phase singularity: position in meters and signed winding number."""

    position: tuple[float, float]
    charge: int

    def __post_init__(self):
        if self.charge == 0:
            raise ValueError("vortex charge must be nonzero")


def _wrap_phase(d: np.ndarray) -> np.ndarray:
    """Wrap phase differences to (-pi, pi]."""
    return np.pi - np.mod(np.pi - d, 2.0 * np.pi)


def find_vortices(field: ComplexField,
                  min_intensity_frac: float = 1e-4) -> list[Vortex]:
    """Locate phase singularities by 2x2-plaquette winding summation.

    A plaquette whose wrapped phase circulation rounds to a nonzero multiple
    of 2*pi is reported as a vortex at the plaquette center. Because genuine
    singularities sit in locally dark cores, the intensity gate is applied to
    the *surroundings*: a candidate is kept only if some pixel within
    max(2, n_samples // 16) samples reaches ``min_intensity_frac`` of the
    global peak intensity. This suppresses spurious windings in numerically
    dark regions while keeping dark-core vortices embedded in bright
    structure. A created vortex pair shares one neighborhood, so the gate
    preserves total charge.

    Parameters
    ----------
    field : ComplexField
    min_intensity_frac : float
        Relative intensity floor in [0, 1).
    """
    if not 0.0 <= min_intensity_frac < 1.0:
        raise ValueError(
            f"min_intensity_frac must be in [0, 1), got {min_intensity_frac}")
    inten = field.intensity()
    peak = float(inten.max())
    if peak == 0.0:
        return []
    n = field.grid.n_samples

    phase = np.angle(field.amplitude)
    ddx = _wrap_phase(np.diff(phase, axis=1))   # (n, n-1) step i -> i+1
    ddy = _wrap_phase(np.diff(phase, axis=0))   # (n-1, n) step j -> j+1
    # Counter-clockwise circulation around plaquette with lower-left (j, i).
    circ = (ddx[:-1, :] + ddy[:, 1:] - ddx[1:, :] - ddy[:, :-1])
    charge = np.rint(circ / (2.0 * np.pi)).astype(int)

    # Brightest pixel within ``reach`` samples along each axis, the edge
    # rows and columns repeated beyond the grid: one axis at a time, since
    # a square window's maximum is the maximum of its rows' maxima.
    reach = max(2, n // 16)
    bright = np.pad(inten, reach, mode="edge")
    for axis in (0, 1):
        bright = sliding_window_view(bright, 2 * reach + 1, axis=axis
                                     ).max(axis=-1)
    gate = bright[:-1, :-1] >= min_intensity_frac * peak

    js, is_ = np.nonzero((charge != 0) & gate)
    s = field.grid.spacing
    half = n // 2
    out = []
    for j, i in zip(js.tolist(), is_.tolist()):
        pos = ((i + 0.5 - half) * s, (j + 0.5 - half) * s)
        out.append(Vortex(position=pos, charge=int(charge[j, i])))
    return out


def total_vortex_charge(vortices: list[Vortex]) -> int:
    return sum(v.charge for v in vortices)


def windowed_com(stack: np.ndarray, pix: np.ndarray, half: int,
                 select: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``shack_hartmann._windowed_com`` as three passes over the whole
    selection: each pass gathers, floors and clips every sub-image again,
    multiplies it by its row and column window masks and sums the product
    three ways, and the row and column sums are weighted by the pixel
    positions over all sub-images at once. The package floors each
    sub-image once and takes masked sums, which agree in exact arithmetic;
    this is the reference its rounding is held to.
    """
    p = stack.shape[-1]
    flat = stack.reshape(-1, p, p)
    shape = stack.shape[:-2]
    rows = np.arange(len(flat))
    if select is not None:
        rows, shape = rows[select.reshape(-1)], (int(select.sum()),)
    n = len(rows)
    sums = np.empty((2, n, p))      # column sums, then row sums
    tot = np.empty(n)
    ok = np.ones(n, dtype=bool)
    step = pix[1] - pix[0]
    index = np.arange(p)
    for window in range(3):
        for a in range(0, n, CENTROID_CHUNK):
            part = slice(a, a + CENTROID_CHUNK)
            work = flat[rows[part]]
            work -= CENTROID_FLOOR * work.max(axis=(-2, -1), keepdims=True)
            np.clip(work, 0.0, None, out=work)
            if window:
                c = com[:, part]
                lo = np.ceil((c - half * step - pix[0]) / step - 1e-9)
                hi = np.floor((c + half * step - pix[0]) / step + 1e-9)
                inside = (index >= lo[..., None]) & (index <= hi[..., None])
                work *= inside[1][..., :, None]
                work *= inside[0][..., None, :]
            work.sum(axis=-2, out=sums[0, part])
            work.sum(axis=-1, out=sums[1, part])
            work.sum(axis=(-2, -1), out=tot[part])
        ok &= tot > 0.0
        com = np.stack([sums[0] @ pix, sums[1] @ pix]) \
            / np.where(ok, tot, 1.0)
    return com.reshape(2, *shape), ok.reshape(shape)
