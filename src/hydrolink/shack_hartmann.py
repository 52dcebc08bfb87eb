"""Shack-Hartmann wavefront sensing and modal reconstruction.

The sensor model forms each lenslet's focal spot physically (far-field
transform of the sub-aperture field), so spots degrade realistically on
vortex cores and speckle; geometric spot-displacement predictions remain
available to tests as an independent oracle. Slopes are extracted by
center-of-mass centroiding, and modal coefficients by a least-squares fit of
the slope field against the Zernike gradient basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import (ComplexField, ConfigError, Grid, check_count, frozen,
                    plan)
from .zernike import (PhaseScreen, ZernikeSpectrum, gradient_unchecked,
                      nm_from_index, phase_from_spectrum)

#: Fraction of a sub-image's own peak subtracted before centroiding.
CENTROID_FLOOR = 0.01

#: Sub-images the centroider floors and windows at once.
CENTROID_CHUNK = 64

#: Largest slope-system condition number the fit solves through its normal
#: equations; above it the fit falls back to an SVD least-squares solve.
FIT_CONDITION_LIMIT = 1e3


@dataclass(frozen=True)
class LensletArray:
    """Geometry of the micro-lens array and its camera.

    Defaults describe a 23x23 array with 150 um pitch and 5.2 mm focal
    length; the camera pixel size and per-lenslet pixel count are package
    defaults chosen so one sub-image exactly tiles one pitch.
    """

    count_x: int = 23
    count_y: int = 23
    pitch: float = 150e-6
    focal_length: float = 5.2e-3
    pixel_size: float = 5e-6
    pixels_per_lenslet: int = 30

    def __post_init__(self):
        for name, least in (("count_x", 1), ("count_y", 1),
                            ("pixels_per_lenslet", 2)):
            check_count(name, getattr(self, name), least)
        for name in ("pitch", "focal_length", "pixel_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def extent_x(self) -> float:
        return self.count_x * self.pitch

    @property
    def extent_y(self) -> float:
        return self.count_y * self.pitch

    @property
    def half_width(self) -> float:
        """The default fit disk radius: axis to the nearer array edge."""
        cx, cy = self.centers()
        return float(min(np.abs(cx).max(), np.abs(cy).max()) + self.pitch / 2)

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical (x, y) lenslet-center coordinate vectors, array centered
        on the optical axis."""
        cx = (np.arange(self.count_x) + 0.5) * self.pitch - self.extent_x / 2
        cy = (np.arange(self.count_y) + 0.5) * self.pitch - self.extent_y / 2
        return cx, cy


@dataclass(frozen=True)
class SpotImage:
    """Focal-plane intensities, one sub-image per lenslet.

    ``images`` has shape (count_y, count_x, P, P) with P pixels per lenslet
    side; ``wavelength`` and the field sampling density are carried along so
    slope extraction can convert spot displacement into phase gradient and
    calibrate its centroid gain against the same optical model.
    """

    images: np.ndarray
    geometry: LensletArray
    wavelength: float
    field_samples_per_lenslet: int = 16

    def __post_init__(self):
        img = np.asarray(self.images, dtype=float)
        p = self.geometry.pixels_per_lenslet
        want = (self.geometry.count_y, self.geometry.count_x, p, p)
        if img.shape != want:
            raise ValueError(f"images shape {img.shape}, expected {want}")
        # min and max make no temporary the size of the images; NaN fails
        # the first test, +inf the second.
        if not (img.min() >= 0.0 and np.isfinite(img.max())):
            raise ValueError("spot intensities must be finite and >= 0")
        check_count("field_samples_per_lenslet",
                    self.field_samples_per_lenslet, 2)
        # capture's read-only array is kept; anything else is copied so no
        # caller can change it later.
        object.__setattr__(self, "images", frozen(img))


@dataclass(frozen=True)
class SlopeField:
    """Per-lenslet wavefront phase gradients in radians per meter.

    Lenslets without enough light are flagged invalid rather than
    zero-filled; their slope entries are NaN.
    """

    slope_x: np.ndarray
    slope_y: np.ndarray
    valid: np.ndarray
    geometry: LensletArray

    def __post_init__(self):
        shape = (self.geometry.count_y, self.geometry.count_x)
        for name in ("slope_x", "slope_y", "valid"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape}, want {shape}")
            object.__setattr__(self, name, frozen(arr))


@dataclass(frozen=True)
class WfsResult:
    """A modal fit; ``condition_number`` is the slope system's kappa."""

    spectrum: ZernikeSpectrum
    residual_rms: float
    n_valid_lenslets: int
    condition_number: float = math.nan

    def __post_init__(self):
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be >= 0")


def capture(field: ComplexField, geometry: LensletArray) -> SpotImage:
    """Image the field through the lenslet array onto the camera.

    Each sub-aperture is Fourier-transformed to the lenslet's focal plane
    (focal-plane coordinate x = lambda * f * fx) and sampled at the camera
    pixel positions, so a mean phase gradient g displaces the spot by
    ~ f * g * lambda / (2 pi) as the geometric model predicts.

    The array must tile the field grid (see :func:`lenslet_tiling`).
    Detector noise is not modelled.
    """
    samples, ix0, iy0 = lenslet_tiling(geometry, field.grid)
    # Block view (count_y, count_x, samples_y, samples_x); the array is
    # contiguous on the grid so one reshape suffices.
    amp = field.amplitude[iy0[0]:iy0[-1] + samples,
                          ix0[0]:ix0[-1] + samples]
    blocks = amp.reshape(geometry.count_y, samples,
                         geometry.count_x, samples).transpose(0, 2, 1, 3)
    kern = _lenslet_plan(geometry, field.wavelength, samples)[0]
    images = _focal_spots(kern, blocks)
    images.flags.writeable = False
    return SpotImage(images=images, geometry=geometry,
                     wavelength=field.wavelength,
                     field_samples_per_lenslet=samples)


def lenslet_tiling(geometry: LensletArray, grid: Grid,
                   ) -> tuple[int, np.ndarray, np.ndarray]:
    """Samples per lenslet and the first grid index of each lenslet column
    and row, if the array tiles the grid: an integer pitch of >= 8 samples
    (else a ConfigError at sensor.pitch) and the whole array inside the
    grid (else at grid.n_samples)."""
    ratio = geometry.pitch / grid.spacing
    samples = int(round(ratio))
    if abs(ratio - samples) > 1e-9 * ratio or samples < 8:
        raise ConfigError(
            "the lenslet pitch must be an integer multiple (>= 8) of the "
            f"grid spacing; got pitch/spacing = {ratio:.6g}", "sensor.pitch")
    coords = grid.coords()
    cx, cy = geometry.centers()
    ix0 = np.rint((cx - geometry.pitch / 2 - coords[0])
                  / grid.spacing).astype(int)
    iy0 = np.rint((cy - geometry.pitch / 2 - coords[0])
                  / grid.spacing).astype(int)
    n = grid.n_samples
    if ix0.min() < 0 or iy0.min() < 0 or ix0.max() + samples > n \
            or iy0.max() + samples > n:
        raise ConfigError(
            f"the {geometry.extent_x:.6g} x {geometry.extent_y:.6g} m lenslet "
            f"array does not fit inside the {grid.extent:.6g} m grid",
            "grid.n_samples")
    return samples, ix0, iy0


def _focal_spots(kern: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Focal-plane intensities of a (rows, ..., samples, samples) field
    stack, one row of lenslets at a time.

    Only one row's complex spectra exist at once; each is written into the
    float result as its magnitude, then squared in place. Every lenslet's
    product is its own matrix product, so the bits do not depend on how
    many lenslets one call takes.
    """
    p = len(kern)
    spots = np.empty((*blocks.shape[:-2], p, p))
    for row, out in zip(blocks, spots):
        np.abs(kern @ row @ kern.T, out=out)
        out *= out
    return spots


def _windowed_com(stack: np.ndarray, pix: np.ndarray, half: int,
                  select: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Iteratively re-centered centers of mass of a (..., P, P) stack, or of
    the sub-images ``stack[select]`` for a boolean mask ``select`` over its
    leading axes: the (x, y) centroids, shape (2, ...) as for those
    sub-images, and where they exist.

    A full-frame center of mass drags the slowly decaying diffraction tails
    against the window edges, biasing displacements low by several percent;
    re-centering a smaller window on the spot keeps the truncation symmetric
    about the spot itself. Two re-centering passes are enough since the
    initial estimate is already within a fraction of a pixel. Sub-images
    whose frame or window holds no light get finite, meaningless entries.

    ``CENTROID_CHUNK`` sub-images at a time, never the whole stack, are
    floored and clipped once. Each pass takes a window's column and row
    sums as contractions against its 0/1 row and column vectors, making no
    masked image (windowed centre of gravity: Thomas et al., MNRAS 371,
    323, 2006); no sum mixes sub-images, so no bit depends on the chunk.
    """
    p = stack.shape[-1]
    flat = stack.reshape(-1, p, p)
    shape = stack.shape[:-2]
    rows = np.arange(len(flat))
    if select is not None:
        rows, shape = rows[select.reshape(-1)], (int(select.sum()),)
    com = np.empty((2, len(rows)))
    ok = np.ones(len(rows), dtype=bool)
    step = pix[1] - pix[0]
    index = np.arange(p)
    for a in range(0, len(rows), CENTROID_CHUNK):
        c, found = com[:, a:a + CENTROID_CHUNK], ok[a:a + CENTROID_CHUNK]
        work = flat[rows[a:a + CENTROID_CHUNK]]
        work -= CENTROID_FLOOR * work.max(axis=(-2, -1), keepdims=True)
        np.clip(work, 0.0, None, out=work)
        inside = np.ones((2, len(work), p))    # x then y: the whole frame
        for window in range(3):
            if window:
                # pixels within +-(half * step) of the centroid, symmetric
                # about it so the truncation itself stays unbiased
                lo = np.ceil((c - half * step - pix[0]) / step - 1e-9)
                hi = np.floor((c + half * step - pix[0]) / step + 1e-9)
                inside = ((index >= lo[..., None])
                          & (index <= hi[..., None])).astype(float)
            sums = np.stack([
                np.einsum("nij,ni->nj", work, inside[1]) * inside[0],
                np.einsum("nij,nj->ni", work, inside[0]) * inside[1]])
            tot = sums[0].sum(axis=-1)
            found &= tot > 0.0
            c[...] = np.einsum("knj,j->kn", sums, pix) \
                / np.where(found, tot, 1.0)
    return com.reshape(2, *shape), ok.reshape(shape)


@plan
def _lenslet_plan(geometry: LensletArray, wavelength: float, samples: int,
                  ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray,
                             np.ndarray]:
    """One lenslet's optics and its centroid calibration: (the DFT matrix K
    from sub-aperture samples to camera pixels, the pixel centers, the
    centroid window half-width in pixels, measured, true).

    Coordinates are centered on the lenslet; every lenslet tiles the grid
    alike, so K serves both axes of every sub-aperture. The window spans
    ~2.5 diffraction lobes of one sub-aperture.

    The diffraction tails a hard-edged sub-aperture throws across the finite
    centroiding window make the measured spot displacement a few percent
    smaller than f * tilt, with a pixel-quantization ripple on top. Calibrate
    the response the way a bench sensor is calibrated: push uniform
    sub-aperture fields with known tilts through the spot former and the
    centroider of :func:`capture` and :func:`extract_slopes`. The
    (measured, true) displacement tables serve inverse interpolation; both
    start at 0 and are strictly increasing.
    """
    p = geometry.pixels_per_lenslet
    pix = (np.arange(p) - (p - 1) / 2.0) * geometry.pixel_size
    local = (np.arange(samples) - (samples - 1) / 2.0) \
        * (geometry.pitch / samples)
    lam_f = wavelength * geometry.focal_length
    kern = np.exp(-2j * math.pi * np.outer(pix, local) / lam_f)
    half = max(3, int(round(2.5 * lam_f / (geometry.pitch
                                            * geometry.pixel_size))))
    true = np.arange(0.0, 3.001, 0.0625) * geometry.pixel_size
    # phase slopes giving each displacement, one tilted field per row
    grad = true[1:] * 2.0 * math.pi / lam_f
    tilts = np.exp(1j * grad[:, None] * local)
    blocks = np.broadcast_to(tilts[:, None, :], (*tilts.shape, samples))
    com, ok = _windowed_com(_focal_spots(kern, blocks), pix, half)
    if not ok.all():
        raise RuntimeError("centroid calibration produced an empty window; "
                           "unusable sensor configuration")
    measured = np.concatenate(([0.0], com[0]))
    if np.any(np.diff(measured) <= 0):
        raise RuntimeError("centroid response is not monotone; "
                           "unusable sensor configuration")
    return kern, pix, half, measured, true


def _invert_response(com: np.ndarray, measured: np.ndarray,
                     true: np.ndarray) -> np.ndarray:
    """Signed true displacements from the response table, linear past it."""
    mag = np.abs(com)
    slope = (true[-1] - true[-2]) / (measured[-1] - measured[-2])
    val = np.where(mag >= measured[-1],
                   true[-1] + (mag - measured[-1]) * slope,
                   np.interp(mag, measured, true))
    return np.copysign(val, com)


def check_intensity_floor(intensity_floor: float) -> None:
    """Raise ValueError unless the lenslet validity floor is in [0, 1)."""
    if not 0.0 <= intensity_floor < 1.0:
        raise ValueError("intensity_floor must be in [0, 1)")


def extract_slopes(spots: SpotImage,
                   intensity_floor: float = 0.01) -> SlopeField:
    """Centroid each sub-image and convert displacements to phase slopes.

    Lenslets whose total energy falls below ``intensity_floor`` times the
    brightest lenslet's energy are flagged invalid. Each valid sub-image is
    floored once at ``CENTROID_FLOOR`` of its peak and centroided from
    masked sums over windows re-centered on the spot; the displacement is
    corrected by the model's own centroid gain, and the slope in radians
    per meter is (2 pi / lambda) * displacement / focal_length.
    """
    check_intensity_floor(intensity_floor)
    geom = spots.geometry
    images = spots.images
    energy = images.sum(axis=(2, 3))
    peak = energy.max()
    valid = (energy > 0) & (energy >= intensity_floor * peak)
    if peak <= 0.0 or not valid.any():
        raise ValueError("all lenslets below the intensity floor")

    _, pix, half, measured, true = _lenslet_plan(
        geom, spots.wavelength, spots.field_samples_per_lenslet)
    com, found = _windowed_com(images, pix, half, valid)
    ok = np.zeros_like(valid)
    ok[valid] = found
    scale = 2.0 * math.pi / (spots.wavelength * geom.focal_length)
    slopes = np.full((2, geom.count_y, geom.count_x), np.nan)
    slopes[:, ok] = _invert_response(com[:, found], measured, true) * scale
    return SlopeField(slope_x=slopes[0], slope_y=slopes[1], valid=ok,
                      geometry=geom)


def _in_disk(geometry: LensletArray, radius: float) -> np.ndarray:
    """Which lenslet centers lie inside the fit disk, shape (count_y,
    count_x)."""
    cx, cy = geometry.centers()
    ux, uy = np.meshgrid(cx / radius, cy / radius, indexing="xy")
    return ux**2 + uy**2 <= 1.0


def check_fit_modes(geometry: LensletArray, j_max: int,
                    aperture_radius: float | None = None) -> float:
    """The fit disk radius: ``aperture_radius``, else the array's
    half-width. Raise ValueError unless it is > 0, j_max is an integer >= 2
    and the disk holds a lenslet center per fitted mode (ConfigError at
    j_max for both)."""
    radius = geometry.half_width if aperture_radius is None \
        else float(aperture_radius)
    if not radius > 0:
        raise ValueError("aperture_radius must be > 0")
    check_count("j_max", j_max, 2, "j_max")
    inside = int(np.count_nonzero(_in_disk(geometry, radius)))
    if j_max - 1 > inside:
        raise ConfigError(
            f"j_max {j_max} fits {j_max - 1} modes, but only {inside} "
            f"lenslet centers lie inside the {radius:.6g} m fit disk", "j_max")
    return radius


@plan
def _gradient_basis(geometry: LensletArray, radius: float, j_max: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(In-disk mask, gradient basis) of every lenslet center.

    The basis, shape (2, count_y, count_x, j_max - 1), holds dZ_j/dx then
    dZ_j/dy for j = 2..j_max in radians per meter. Each entry is the
    gradient averaged over the lenslet square (2x2 Gauss points, exact
    through cubic gradients, i.e. all n <= 4 modes), because a uniformly lit
    sub-aperture measures its area-mean gradient, not the center value.
    """
    cx, cy = geometry.centers()
    ux, uy = np.meshgrid(cx / radius, cy / radius, indexing="xy")
    in_disk = _in_disk(geometry, radius)
    gauss = geometry.pitch / (2.0 * math.sqrt(3.0)) / radius
    basis = np.zeros((2, *ux.shape, j_max - 1))
    for col, j in enumerate(range(2, j_max + 1)):
        idx = nm_from_index(j)
        for ox in (-gauss, gauss):
            for oy in (-gauss, gauss):
                dzx, dzy = gradient_unchecked(idx, ux + ox, uy + oy)
                basis[0, ..., col] += dzx
                basis[1, ..., col] += dzy
    basis /= 4.0 * radius
    return in_disk, basis


def modal_fit(slopes: SlopeField, j_max: int = 15,
              aperture_radius: float | None = None) -> WfsResult:
    """Least-squares Zernike coefficients (j = 2..j_max) from slopes.

    Lenslet centers are mapped to unit-disk coordinates over the fit disk,
    ``aperture_radius`` or else the array's half-width: one disk for every
    frame, whichever lenslets it lights, so coefficients can be averaged.
    Both slope components of every valid lenslet inside the disk enter the
    system B a = m. The system's rows are taken from
    :func:`_gradient_basis`, built once per (geometry, radius, j_max).
    Piston is excluded as unobservable. ``residual_rms`` is the RMS slope
    residual expressed in radians per unit disk radius.

    The fit solves the normal equations (B^T B) a = B^T m, summed with
    ``einsum`` and solved as one (j_max - 1)-square system, whenever the
    condition number kappa(B) = sqrt(lambda_max / lambda_min) of B^T B is
    at most :data:`FIT_CONDITION_LIMIT`. They lose about kappa^2 * eps of
    relative accuracy against an SVD solve, under 1e-10 there, and the
    bundled sensor's kappa is about 6. Unlike the SVD solve, they start no
    BLAS worker threads, which would otherwise keep spinning through the
    next frame. Above the limit, or for a singular system, the fit falls
    back to the SVD least-squares solve, which refuses a rank-deficient
    system. ``condition_number`` reports kappa(B).
    """
    geom = slopes.geometry
    radius = check_fit_modes(geom, j_max, aperture_radius)

    in_disk, full = _gradient_basis(geom, radius, j_max)
    use = slopes.valid & in_disk
    n_pts = int(np.count_nonzero(use))
    n_modes = j_max - 1
    if n_pts < n_modes:
        raise ValueError(
            f"{n_pts} usable lenslets cannot constrain {n_modes} modes")
    basis = full[:, use].reshape(2 * n_pts, n_modes)
    meas = np.concatenate([slopes.slope_x[use], slopes.slope_y[use]])

    # einsum sums without BLAS, so no product below wakes its threads.
    gram = np.einsum("pi,pj->ij", basis, basis)
    eig = np.linalg.eigvalsh(gram)
    kappa = math.sqrt(eig[-1] / eig[0]) if eig[0] > 0.0 else math.inf
    if kappa <= FIT_CONDITION_LIMIT:
        coeffs = np.linalg.solve(gram, np.einsum("pi,p->i", basis, meas))
    else:
        coeffs, _, rank, sv = np.linalg.lstsq(basis, meas, rcond=None)
        if rank < n_modes:
            raise ValueError(
                f"rank-deficient slope system (rank {rank} < {n_modes}); "
                "lenslet pattern is degenerate")
        kappa = float(sv[0] / sv[-1])
    residual = meas - np.einsum("pi,i->p", basis, coeffs)
    residual_rms = float(np.sqrt(np.mean(residual**2))) * radius

    spectrum = ZernikeSpectrum(
        tuple((j, float(a)) for j, a in zip(range(2, j_max + 1), coeffs)),
        aperture_radius=radius)
    return WfsResult(spectrum=spectrum, residual_rms=residual_rms,
                     n_valid_lenslets=int(np.count_nonzero(slopes.valid)),
                     condition_number=kappa)


def reconstruct_wavefront(spectrum: ZernikeSpectrum,
                          grid: Grid) -> PhaseScreen:
    """Render a fitted spectrum back onto a grid (radians)."""
    return phase_from_spectrum(spectrum, grid)


@dataclass(frozen=True)
class ModalAverage:
    """Per-mode |a_j| statistics over frames all fitted on one disk, of
    radius ``aperture_radius`` in meters."""

    aperture_radius: float
    j_values: tuple[int, ...]
    mean_abs: tuple[float, ...]
    std: tuple[float, ...]
    stderr: tuple[float, ...]
    n_frames: int


def average_magnitudes(results: Sequence[WfsResult]) -> ModalAverage:
    """Mean of |a_j| across frames, with spread.

    Magnitudes are averaged (not signed coefficients), matching how randomly
    fluctuating aberrations are summarized; compensated summation keeps the
    result independent of frame order. Both the standard deviation and the
    standard error of the mean are reported. Coefficients compare only over
    one normalization radius, so results from different disks raise.
    """
    if not results:
        raise ValueError("average_magnitudes needs at least one result")
    first = results[0].spectrum
    j_values = tuple(j for j, _ in first.coefficients)
    for r in results[1:]:
        if r.spectrum.aperture_radius != first.aperture_radius:
            raise ValueError("results fitted over different disks")
        if tuple(j for j, _ in r.spectrum.coefficients) != j_values:
            raise ValueError("results do not share a common mode range")
    n = len(results)
    mean_abs = []
    std = []
    for pos, j in enumerate(j_values):
        mags = [abs(r.spectrum.coefficients[pos][1]) for r in results]
        m = math.fsum(mags) / n
        var = math.fsum((x - m) ** 2 for x in mags) / (n - 1) if n > 1 else 0.0
        mean_abs.append(m)
        std.append(math.sqrt(var))
    stderr = tuple(s / math.sqrt(n) for s in std)
    return ModalAverage(aperture_radius=first.aperture_radius,
                        j_values=j_values, mean_abs=tuple(mean_abs),
                        std=tuple(std), stderr=stderr, n_frames=n)
