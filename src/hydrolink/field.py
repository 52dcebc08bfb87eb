"""Sampled complex optical fields on square grids.

Provides Laguerre-Gauss mode synthesis, superpositions, overlap integrals
and intensity centroids. All values are immutable after construction and
all functions are pure, so they are safe to share across parallel workers.

Conventions: amplitude arrays are indexed ``[iy, ix]``; the sample at index
``n // 2`` sits at physical coordinate 0 (FFT-aligned grid). Azimuthal modes
carry ``exp(+i * ell * phi)`` with ``phi = atan2(y, x)``.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import wraps
from numbers import Integral

import numpy as np

from .special import genlaguerre

#: Default vacuum wavelength in meters (green diode, near the blue-green
#: transmission window of natural water).
DEFAULT_WAVELENGTH = 532e-9


class GridMismatchError(ValueError):
    """Two fields (or a field and a screen) do not share the same sampling."""


class ConfigError(ValueError):
    """A broken configuration rule at the dotted scenario ``key``, relative
    to the section its caller validates ("" for the section itself)."""

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


def check_count(name: str, value, least: float, key: str = "") -> None:
    """Raise ConfigError at ``key`` unless ``value`` is an integer, numpy's
    included, of at least ``least``; a bool is not, though Python counts it
    an int."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}", key)
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}", key)


@dataclass(frozen=True)
class Grid:
    """Uniform square sampling of the transverse plane.

    Parameters
    ----------
    n_samples : int
        Samples per side. Must be even and at least 16 so FFT-based
        propagation has an unambiguous zero-frequency bin.
    spacing : float
        Physical size of one sample in meters.
    """

    n_samples: int
    spacing: float

    def __post_init__(self):
        check_count("n_samples", self.n_samples, 16)
        if self.n_samples % 2 != 0:
            raise ValueError(
                f"n_samples must be even and >= 16, got {self.n_samples}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")

    @property
    def extent(self) -> float:
        """Physical side length in meters."""
        return self.n_samples * self.spacing

    def coords(self) -> np.ndarray:
        """Centered 1-D sample coordinates in meters."""
        n = self.n_samples
        return (np.arange(n) - n // 2) * self.spacing

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) coordinate arrays matching amplitude indexing [iy, ix]."""
        c = self.coords()
        return np.meshgrid(c, c, indexing="xy")


#: Sampling used when neither a scenario nor a caller names a grid.
DEFAULT_GRID = Grid(256, 4e-5)
#: A beam without a given waist gets the grid extent divided by this.
DEFAULT_WAIST_DIVISOR = 16.0


def waist_or_default(waist: float | None, grid: Grid) -> float:
    """``waist``, or the grid extent / DEFAULT_WAIST_DIVISOR when None."""
    return grid.extent / DEFAULT_WAIST_DIVISOR if waist is None else waist


def check_waist(waist: float, grid: Grid) -> None:
    """Raise ValueError unless 0 < waist <= extent / 4 (beam fits grid)."""
    if not waist > 0:
        raise ValueError(f"waist must be > 0, got {waist}")
    if waist > grid.extent / 4:
        raise ValueError(
            f"beam too large for grid: waist {waist} > extent/4 "
            f"({grid.extent / 4})")


#: Samples per row band of the loops that work on a grid a band at a time.
BAND_SAMPLES = 1 << 14


def row_bands(n: int) -> list[slice]:
    """Slices covering the rows of an n x n grid, in order, each of about
    ``BAND_SAMPLES`` samples (at least one row)."""
    step = max(1, BAND_SAMPLES // n)
    return [slice(top, min(top + step, n)) for top in range(0, n, step)]


def frozen(a: np.ndarray) -> np.ndarray:
    """The array a value object keeps for ``a``: ``a`` itself when it is
    read-only and owns its data, or is a read-only view of such an array,
    since no one can then change it without first making it writable
    again; else a read-only copy of it."""
    owner = a if a.base is None else a.base
    if not a.flags.writeable and isinstance(owner, np.ndarray) \
            and owner.flags.owndata and not owner.flags.writeable:
        return a
    kept = a.copy()
    kept.flags.writeable = False
    return kept


#: What a plan's ``cache_info()`` reports, as ``lru_cache``'s.
_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


def plan(build):
    """Cache ``build``'s value for its latest arguments only, with every
    array in it (the value itself, or the items of a tuple) made
    read-only, since every later call with those arguments shares it.

    On new arguments the old value is dropped before ``build`` runs, so a
    plan never holds two entries at once. One lock serializes lookups and
    builds, so threads that need the same entry build it once.
    ``cache_info`` and ``cache_clear`` behave as ``lru_cache``'s.
    """
    lock = threading.Lock()
    entry = {}                       # at most one: arguments -> value
    hits = misses = 0

    @wraps(build)
    def cached(*args):
        nonlocal hits, misses
        with lock:
            if args in entry:
                hits += 1
                return entry[args]
            misses += 1
            entry.clear()
            value = build(*args)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            entry[args] = value
            return value

    def cache_clear():
        nonlocal hits, misses
        with lock:
            entry.clear()
            hits = misses = 0

    cached.cache_info = lambda: _CacheInfo(hits, misses, 1, len(entry))
    cached.cache_clear = cache_clear
    return cached


@dataclass(frozen=True)
class ComplexField:
    """A sampled scalar optical field with physical metadata.

    ``amplitude`` is stored as a read-only complex128 array of shape
    (n_samples, n_samples).
    """

    grid: Grid
    wavelength: float
    amplitude: np.ndarray

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        amp = np.asarray(self.amplitude, dtype=np.complex128)
        n = self.grid.n_samples
        if amp.shape != (n, n):
            raise ValueError(
                f"amplitude shape {amp.shape} does not match grid {n}x{n}")
        parts = amp.view(np.float64)
        if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
            raise ValueError("amplitude contains non-finite samples")
        object.__setattr__(self, "amplitude", frozen(amp))

    def intensity(self) -> np.ndarray:
        inten = np.abs(self.amplitude)
        inten *= inten
        return inten

    def with_amplitude(self, amplitude: np.ndarray) -> "ComplexField":
        """New field on the same grid/wavelength with different samples."""
        return ComplexField(self.grid, self.wavelength, amplitude)


def _check_same_grid(a: ComplexField, b: ComplexField) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    if a.wavelength != b.wavelength:
        raise GridMismatchError(
            f"wavelengths differ: {a.wavelength} vs {b.wavelength}")


def total_power(field: ComplexField) -> float:
    """Total power sum(|amp|^2) * spacing^2."""
    power = np.abs(field.amplitude)
    return float(np.sum(np.square(power, out=power))) * field.grid.spacing**2


def lg_mode(ell: int, p: int, waist: float, grid: Grid,
            wavelength: float = DEFAULT_WAVELENGTH) -> ComplexField:
    """Sample a Laguerre-Gauss mode LG_{ell,p} at its waist plane.

    The azimuthal index ``ell`` (topological charge) comes first, then the
    radial index ``p``. The mode carries the helical phase exp(+i*ell*phi);
    for ell != 0 the intensity is doughnut-shaped with a charge-``ell``
    singularity on axis. The returned field is normalized to unit power on
    the grid.

    Parameters
    ----------
    ell : int
        Azimuthal index (any sign).
    p : int
        Radial index, >= 0. Adds ``p`` radial nodes.
    waist : float
        Beam waist w0 in meters. Must satisfy waist <= extent/4 so the mode
        is well contained by the grid.
    grid : Grid
    wavelength : float
        Vacuum wavelength in meters.
    """
    check_count("azimuthal index ell", ell, -math.inf, "ell")
    check_count("radial index p", p, 0, "p")
    check_waist(waist, grid)
    x, y = grid.mesh()
    r2 = x * x + y * y
    phi = np.arctan2(y, x)
    a = abs(ell)
    # Unit-power continuum normalization; re-normalized on the grid below.
    norm = math.sqrt(2.0 * math.factorial(p)
                     / (math.pi * math.factorial(p + a))) / waist
    radial = (np.sqrt(2.0 * r2) / waist) ** a
    if p:   # L_0 is exactly 1
        radial = radial * genlaguerre(p, a, 2.0 * r2 / waist**2)
    radial = radial * np.exp(-r2 / waist**2)
    amp = norm * radial * np.exp(1j * ell * phi)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)) * grid.spacing**2)
    return ComplexField(grid, wavelength, amp)


def superpose(fields: list[ComplexField],
              weights: list[complex]) -> ComplexField:
    """Pointwise weighted sum of fields sharing one grid and wavelength.

    No renormalization is applied; the caller chooses the weights (e.g.
    1/sqrt(2) each for an equal two-mode petal superposition).
    """
    if not fields:
        raise ValueError("superpose needs at least one field")
    if len(fields) != len(weights):
        raise ValueError("fields and weights must have equal length")
    first = fields[0]
    for other in fields[1:]:
        _check_same_grid(first, other)
    amp = np.zeros_like(first.amplitude)
    for f, w in zip(fields, weights):
        amp = amp + w * f.amplitude
    return ComplexField(first.grid, first.wavelength, amp)


def petal_mode(ell: int, waist: float, grid: Grid,
               wavelength: float = DEFAULT_WAVELENGTH) -> ComplexField:
    """Equal superposition (LG_{ell,0} + LG_{-ell,0})/sqrt(2).

    Produces a 2|ell|-lobed petal intensity pattern.
    """
    plus = lg_mode(ell, 0, waist, grid, wavelength)
    minus = lg_mode(-ell, 0, waist, grid, wavelength)
    s = 1.0 / math.sqrt(2.0)
    return superpose([plus, minus], [s, s])


def mode_overlap(a: ComplexField, b: ComplexField) -> complex:
    """Discrete inner product sum(a * conj(b)) * spacing^2.

    |result| <= sqrt(P_a * P_b) (Cauchy-Schwarz); for unit-power fields the
    magnitude squared is the projection probability used in crosstalk
    matrices.
    """
    _check_same_grid(a, b)
    # conj(b) * a into conj(b), spelled out: numpy elides the temporary of
    # a * conj(b) into this on large arrays only, and the two orders round
    # the imaginary part differently.
    product = np.conj(b.amplitude)
    np.multiply(product, a.amplitude, out=product)
    return complex(np.sum(product) * a.grid.spacing**2)


def centroid(field: ComplexField) -> tuple[float, float]:
    """Intensity-weighted first moment (x, y) in meters."""
    inten = field.intensity()
    p = float(inten.sum())
    if p <= 0.0:
        raise ValueError("centroid undefined for zero-power field")
    x, y = field.grid.mesh()
    x *= inten
    y *= inten
    return float(x.sum() / p), float(y.sum() / p)


@dataclass(frozen=True)
class JonesVector:
    """Normalized two-component polarization state (H, V amplitudes)."""

    components: tuple[complex, complex]

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex)
        if c.shape != (2,):
            raise ValueError("JonesVector needs exactly 2 components")
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            raise ValueError("cannot normalize zero polarization vector")
        c = c / norm
        object.__setattr__(self, "components",
                           (complex(c[0]), complex(c[1])))

    def inner(self, other: "JonesVector") -> complex:
        """Hermitian inner product <self|other>."""
        a, b = self.components, other.components
        return a[0].conjugate() * b[0] + a[1].conjugate() * b[1]


#: The four linear polarization states used for 2-d BB84 encoding.
HORIZONTAL = JonesVector((1.0, 0.0))
VERTICAL = JonesVector((0.0, 1.0))
DIAGONAL = JonesVector((1.0, 1.0))
ANTIDIAGONAL = JonesVector((1.0, -1.0))
