"""Split-step propagation through an absorbing, turbulent water channel.

The chain alternates angular-spectrum diffraction substeps with thin phase
screens, distributes Beer-Lambert attenuation uniformly along the path, and
optionally drops opaque floating occluders into the beam. Everything is
deterministic given the configured seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import numpy.fft

from .field import (ComplexField, ConfigError, Grid, GridMismatchError,
                    check_count, plan, row_bands, total_power)
from .seeding import TAG_COEFF, TAG_OCCLUSION, TAG_SCREEN, child_seed, \
    normals, realize, stream_key
from .special import ERF_ONE, erf
from .zernike import PhaseScreen, ZernikeSpectrum, kolmogorov_screen, \
    phase_from_spectrum, sigma_table

#: Refractive index of water at the green design wavelength.
WATER_REFRACTIVE_INDEX = 1.33

#: Fraction of the Nyquist band treated as the guard zone, and the energy
#: fraction allowed there before propagation refuses to run.
NYQUIST_GUARD_FRACTION = 0.8
ALIASING_ENERGY_FRACTION = 1e-6

#: The channel.screens.kind choices.
SCREEN_SOURCES = ("none", "modal", "kolmogorov")

#: Rim roll-off fraction for channel-generated modal screens, keeping the
#: screen exponential band-limited under the split-step aliasing guard.
SCREEN_RIM_TAPER = 0.1


class AliasingError(ValueError):
    """Field energy near the Nyquist limit would alias under propagation."""

    def at(self, where: str) -> "AliasingError":
        """The same error with ``where`` (a trial or frame) in front."""
        return AliasingError(f"{where}: {self}")


def transmittance(alpha_db_per_m: float, length: float) -> float:
    """Beer-Lambert power ratio 10^(-alpha * L / 10)."""
    if alpha_db_per_m < 0:
        raise ValueError("attenuation must be >= 0")
    if length < 0:
        raise ValueError("length must be >= 0")
    return 10.0 ** (-alpha_db_per_m * length / 10.0)


def apply_phase_screen(field: ComplexField,
                       screen: PhaseScreen) -> ComplexField:
    """Multiply by exp(i * phase). Conserves power exactly.

    This is the one-field call of the screen product :func:`run_channel`
    takes for a whole stack of fields.
    """
    if field.grid != screen.grid:
        raise GridMismatchError(
            f"screen grid {screen.grid} does not match field {field.grid}")
    stack = field.amplitude[None]
    return field.with_amplitude(
        _apply_screen(stack, screen.phase, np.empty_like(stack))[0])


def _apply_screen(stack: np.ndarray, phase: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """exp(i * phase) * stack into ``out`` (which may be ``stack``), one
    row band at a time, so a step holds one band of the rotor instead of a
    whole complex grid."""
    for rows in row_bands(len(phase)):
        rot = 1j * phase[rows]
        np.multiply(np.exp(rot, out=rot), stack[:, rows], out=out[:, rows])
    return out


@plan
def _propagation_plan(grid: Grid, wavelength: float, refractive_index: float,
                      dz: float) -> tuple[np.ndarray, np.ndarray]:
    """Guard band (flat indices) and transfer function H for a step.

    Both depend only on the arguments, so a split-step chain builds them
    once per (grid, wavelength, medium, step length) instead of per call.
    """
    n = grid.n_samples
    f = np.fft.fftfreq(n, d=grid.spacing)
    fx, fy = np.meshgrid(f, f, indexing="xy")
    fr2 = fx * fx + fy * fy
    guard = np.flatnonzero(
        fr2 > (NYQUIST_GUARD_FRACTION / (2.0 * grid.spacing)) ** 2)

    k_med = 2.0 * math.pi * refractive_index / wavelength
    kz2 = k_med * k_med - (2.0 * math.pi) ** 2 * fr2
    kz = np.sqrt(np.abs(kz2))
    # kz - k = -kt^2 / (kz + k), evaluated in this form to avoid cancellation.
    kt2 = (2.0 * math.pi) ** 2 * fr2
    h = np.where(kz2 >= 0.0,
                 np.exp(-1j * dz * kt2 / (kz + k_med)),
                 np.exp(-kz * dz))
    return guard, h


def angular_spectrum_propagate(field: ComplexField, dz: float,
                               refractive_index: float = 1.0) -> ComplexField:
    """Exact scalar free-space propagation over distance dz in a medium.

    Uses the non-paraxial angular-spectrum transfer function with the medium
    wavenumber 2*pi*n/lambda. The on-axis carrier phase exp(i*k*dz) is
    omitted: it carries no transverse information and its magnitude (~1e7
    rad per meter) would otherwise dominate floating-point rounding over
    meter-scale paths. Propagating components keep unit magnitude, so total
    power is conserved to FFT round-off; any evanescent components decay
    physically. Raises :class:`AliasingError` when more than
    ``ALIASING_ENERGY_FRACTION`` of the energy sits beyond
    ``NYQUIST_GUARD_FRACTION`` of the Nyquist frequency, since such content
    would wrap around the periodic grid. This is the one-field call of the
    substep :func:`_diffract`, which :func:`run_channel` takes for a whole
    stack of fields, here over one lossless substep of length dz.
    """
    if dz < 0:
        raise ValueError(f"propagation distance must be >= 0, got {dz}")
    if refractive_index < 1.0:
        raise ValueError("refractive index must be >= 1")
    if dz == 0.0:
        return field
    one = ChannelConfig(length=dz, refractive_index=refractive_index,
                        attenuation_db_per_m=0.0)
    out, _ = _diffract(field.amplitude[None], (field,), one, np.ones((1, 1)),
                       None)
    return field.with_amplitude(out[0])


def _guard_fractions(spec: np.ndarray, guard: np.ndarray,
                     states: np.ndarray) -> np.ndarray:
    """Exact share of each formed state's energy in the ``guard`` indices.

    Row c of ``states`` forms the spectrum sum_i c_i S_i from the stack of
    spectra S, shape (d, N, N); its energy over a region is c G c* with
    G_ij = sum S_i S_j* over that region, so the d x d sums over the band
    and over the whole grid decide every row. A row without energy has
    fraction 0.
    """
    flat = spec.reshape(len(spec), -1)
    g_band = sum(_gram(flat.take(guard[k:k + _DOT_CHUNK], axis=1))
                 for k in range(0, len(guard), _DOT_CHUNK))
    total, band = (np.einsum("ri,ij,rj->r", states, g, states.conj()).real
                   for g in (_gram(spec).sum(axis=-1), g_band))
    return np.divide(band, total, out=np.zeros_like(total), where=total > 0)


#: Samples per dot product of the guard band and of :func:`_project`:
#: OpenBLAS threads longer ones, and its threads spin beside ours (16,384
#: took 185 us, not 6 us, on 2 vCPUs).
_DOT_CHUNK = 8192


def _gram(c: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """G_ij = sum c_i t_j* along the last axis of (d, ..., n) arrays c and
    t (by default c itself)."""
    return np.vecdot((c if t is None else t)[None], c[:, None])


@dataclass(frozen=True)
class Occluder:
    """A floating object crossing the beam: an opaque (or gray) disk.

    ``position`` is the disk center (x, y) in meters. The rim is softened
    over the larger of 5% of the radius and three grid spacings so the
    blocked field stays band-limited, as a physical floating object rather
    than a knife edge would.
    """

    radius: float
    position: tuple[float, float]
    opacity: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("occluder radius must be > 0")
        if not 0.0 <= self.opacity <= 1.0:
            raise ValueError("opacity must be in [0, 1]")


def apply_occlusion(field: ComplexField,
                    occluder: Occluder) -> ComplexField:
    """Multiply amplitude by (1 - opacity) inside the occluder footprint.

    The erf rim is symmetric about the nominal radius, so the
    effective blocked area equals the hard-disk area to second order in the
    edge width.
    """
    if occluder.opacity == 0.0:
        return field
    rows, cols, factor = _occluder_box(occluder, field.grid)
    amplitude = field.amplitude.copy()
    amplitude[rows, cols] *= factor
    amplitude.flags.writeable = False
    return field.with_amplitude(amplitude)


def _occluder_box(occluder: Occluder, grid: Grid,
                  ) -> tuple[slice, slice, np.ndarray]:
    """The rows and columns of the occluder's footprint on the grid, and
    the amplitude factor 1 - opacity * blocked-fraction over them.

    ``erf`` is exactly 1 from ``ERF_ONE`` on, so beyond radius +
    ``ERF_ONE`` * edge from the centre the factor is exactly 1. The box
    covers that square plus one sample on each side, clipped to the grid.
    """
    edge = max(0.05 * occluder.radius, 3.0 * grid.spacing)
    reach = occluder.radius + ERF_ONE * edge
    c = grid.coords()
    x0, y0 = occluder.position
    rows, cols = (slice(max(int(np.searchsorted(c, c0 - reach)) - 1, 0),
                        int(np.searchsorted(c, c0 + reach, "right")) + 1)
                  for c0 in (y0, x0))
    r = np.hypot((c[cols] - x0)[None, :], (c[rows] - y0)[:, None])
    # Gaussian-convolved rim: spectrally compact, area-preserving:
    # 0.5 * (1 - erf((r - radius) / edge)).
    r -= occluder.radius
    r /= edge
    blocked = erf(r, out=r)
    np.subtract(1.0, blocked, out=blocked)
    blocked *= 0.5
    blocked *= occluder.opacity
    return rows, cols, np.subtract(1.0, blocked, out=blocked)


@dataclass(frozen=True)
class ChannelConfig:
    """Everything needed to realize one deterministic channel transit.

    Defaults describe the measured river link: 5.5 m of water with
    5.4 dB/m of bulk extinction. ``modal_sigmas`` are per-mode coefficient
    deviations in radians applied per screen; ``screen_aperture_radius``
    defaults to 45% of the grid extent at realization time. A ConfigError's
    key is relative to a scenario's channel section.
    """

    length: float = 5.5
    refractive_index: float = WATER_REFRACTIVE_INDEX
    attenuation_db_per_m: float = 5.4
    n_screens: int = 0
    screen_source: str = "none"
    modal_sigmas: tuple[tuple[int, float], ...] | None = None
    screen_aperture_radius: float | None = None
    r0: float | None = None
    subharmonic_levels: int = 0
    occlusion_rate: float = 0.0
    occluder_radius: float | None = None
    occluder_opacity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ConfigError("channel length must be finite and > 0",
                              "length")
        if not self.refractive_index >= 1.0:
            raise ValueError("refractive index must be >= 1")
        if not self.attenuation_db_per_m >= 0:
            raise ValueError("attenuation must be >= 0")
        for name, key in (("n_screens", "n_screens"), ("subharmonic_levels",
                          "screens.subharmonic_levels"), ("seed", "")):
            check_count(name, getattr(self, name), 0, key)
        if not self.occlusion_rate >= 0:
            raise ValueError("occlusion_rate must be >= 0")
        for name, key in (
                ("screen_aperture_radius", "screens.aperture_radius"),
                ("occluder_radius", "occlusion.radius"), ("r0", "screens.r0")):
            if getattr(self, name) is not None and not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0", key)
        if not 0.0 <= self.occluder_opacity <= 1.0:
            raise ConfigError("opacity must be in [0, 1]", "occlusion.opacity")
        if self.screen_source not in SCREEN_SOURCES:
            raise ValueError(
                f"screen_source must be one of {SCREEN_SOURCES}, "
                f"got {self.screen_source!r}")
        if self.modal_sigmas is not None:
            object.__setattr__(self, "modal_sigmas", sigma_table(
                self.modal_sigmas, "screens.sigmas"))
        if self.n_screens > 0:
            if self.screen_source == "none":
                raise ConfigError("n_screens > 0 requires a screen kind",
                                  "n_screens")
            if self.screen_source == "modal" and not self.modal_sigmas:
                raise ConfigError("modal screens require a non-empty sigma "
                                  "table", "screens.sigmas")
            if self.screen_source == "kolmogorov" and not self.r0:
                raise ConfigError("kolmogorov screens require r0",
                                  "screens.r0")


@dataclass(frozen=True)
class ChannelResult:
    """One field's transit. ``guard_fraction_max`` is the largest energy
    fraction the aliasing guard compared with its limit over the launch's
    step and the realization's steps, for every state of the launch."""

    output_field: ComplexField
    transmittance: float
    ground_truth_spectra: tuple[ZernikeSpectrum, ...] | None = None
    guard_fraction_max: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transmittance <= 1.0 + 1e-12:
            raise ValueError(
                f"transmittance {self.transmittance} outside [0, 1]")


def realize_screens(config: ChannelConfig, grid: Grid,
                    ) -> tuple[tuple[PhaseScreen, ...],
                               tuple[ZernikeSpectrum, ...] | None]:
    """The channel's phase screens and modal spectra (None for Kolmogorov
    screens), for inspecting or storing a realization without running it.
    Each screen is the one :func:`run_channel` renders at its step."""
    screens = draw_realizations(config, grid)[0].screens
    draws, spectra = _screen_draws(config, grid, screens)
    return tuple(_render_screen(config, grid, d) for d in draws), spectra


def _screen_draws(config: ChannelConfig, grid: Grid, screens: np.ndarray,
                  ) -> tuple[tuple, tuple[ZernikeSpectrum, ...] | None]:
    """What :func:`_render_screen` takes for each of a :class:`Draws`'
    ``screens``, and their modal spectra (else None)."""
    if config.screen_source != "modal" or not len(screens):
        return screens, None
    r_ap = config.screen_aperture_radius or 0.45 * grid.extent
    js = [j for j, _ in config.modal_sigmas]
    spectra = tuple(ZernikeSpectrum(tuple(zip(js, row.tolist())), r_ap)
                    for row in screens)
    return spectra, spectra


def _render_screen(config: ChannelConfig, grid: Grid,
                   draw: ZernikeSpectrum | np.ndarray) -> PhaseScreen:
    """The screen of one of :func:`_screen_draws`' draws."""
    if config.screen_source == "modal":
        return phase_from_spectrum(draw, grid, rim_taper=SCREEN_RIM_TAPER)
    noise = np.random.Generator(np.random.Philox(key=draw))
    return kolmogorov_screen(config.r0, grid, noise,
                             subharmonic_levels=config.subharmonic_levels)


@dataclass(frozen=True, eq=False)
class Launch:
    """Sources after the channel's first diffraction step, for every
    realization of a run.

    Step 0 (propagation over dz, then its share of the attenuation) comes
    before any screen and depends only on the sources and on the config's
    ``path``: (length, n_screens, refractive_index, attenuation_db_per_m).
    ``stack`` is the read-only (d, N, N) result, which the aliasing guard
    checked once for every row of ``states``, finding at most
    ``guard_fraction``; ``powers`` are the sources' input powers.
    :func:`run_channel` starts each realization from it. ``targets``, if
    not None, are the (d, N, N) spectra that realizations are projected
    onto (see :func:`launch`); with no screens, step 0 is then every
    realization's last step, and ``stack`` its guarded spectrum.
    """

    fields: tuple[ComplexField, ...]
    powers: tuple[float, ...]
    states: np.ndarray
    stack: np.ndarray
    path: tuple[float, int, float, float]
    guard_fraction: float
    targets: np.ndarray | None = None


def _path(config: ChannelConfig) -> tuple[float, int, float, float]:
    return (config.length, config.n_screens, config.refractive_index,
            config.attenuation_db_per_m)


def _substep(config: ChannelConfig) -> tuple[float, float]:
    """The length dz of each of the chain's n_screens + 1 diffraction
    substeps, and the amplitude factor of its share of the attenuation."""
    dz = config.length / (config.n_screens + 1)
    return dz, 10.0 ** (-config.attenuation_db_per_m * dz / 20.0)


def _diffract(stack: np.ndarray, fields: tuple[ComplexField, ...],
              config: ChannelConfig, states: np.ndarray, step: int | None,
              occluders: Sequence[Occluder] = (), finish: bool = True,
              ) -> tuple[np.ndarray, float]:
    """One diffraction substep of the chain on a (d, N, N) stack of the
    ``fields``' amplitudes: ``occluders`` (in place), propagation over dz
    after checking every state formed from the stack (each row of
    ``states``, a (k, d) coefficient matrix) against the aliasing guard,
    then the substep's attenuation; returns the stack and the largest guard
    fraction compared. A tripped guard names the chain's split ``step`` and
    the row, and the keys that weaken it; with ``step`` None (one field on
    its own) it names only the fraction. Without ``finish`` the step stops
    right after its guard and returns the guarded spectrum, the stack's
    ``fft2`` before H, for :func:`_project`.

    A writable ``stack`` is the caller's scratch buffer: both transforms
    run in it and it comes back as the result. A read-only one (a field's
    amplitude, a launched stack) is left untouched. The inverse transform
    is ``ifftn`` over the last two axes, which is ``ifft2`` but honours
    ``out=`` (numpy 2.4's ``ifft2`` drops it and allocates).
    """
    grid = fields[0].grid
    for occ in occluders:
        if occ.opacity != 0.0:
            rows, cols, factor = _occluder_box(occ, grid)
            stack[:, rows, cols] *= factor
    dz, factor = _substep(config)
    spec = np.fft.fft2(stack, out=stack if stack.flags.writeable else None)
    guard, h = _propagation_plan(grid, fields[0].wavelength,
                                 config.refractive_index, dz)
    fractions = _guard_fractions(spec, guard, states)
    row = int(np.argmax(fractions))
    worst = float(fractions[row])
    if worst > ALIASING_ENERGY_FRACTION:
        msg = (f"{worst:.2e} of field energy beyond "
               f"{NYQUIST_GUARD_FRACTION:.0%} of Nyquist (limit "
               f"{ALIASING_ENERGY_FRACTION:.0e})")
        if step is not None:
            msg = (f"split step {step}, row {row}: {msg}; weaken the screens "
                   f"(channel.screens.sigma or channel.screens.r0) or sample "
                   f"finer (grid.n_samples, grid.spacing)")
        raise AliasingError(msg)
    if not finish:
        return spec, worst
    spec *= h
    stack = np.fft.ifftn(spec, axes=(-2, -1), out=spec)
    if factor != 1.0:
        stack *= factor
    return stack, worst


def _targets(fields: tuple[ComplexField, ...],
             config: ChannelConfig) -> np.ndarray:
    """T_b = conj(H) FFT(field_b) f dx^2 / N^2 for each of the launched
    ``fields``: with H and f the last substep's transfer function and
    attenuation factor, a guarded spectrum S_a of that step overlaps field
    b, after H, the inverse FFT and f, by sum_k S_a(k) T_b(k)*
    (Parseval)."""
    grid = fields[0].grid
    dz, factor = _substep(config)
    _, h = _propagation_plan(grid, fields[0].wavelength,
                             config.refractive_index, dz)
    stack = np.stack([f.amplitude for f in fields])
    targets = np.fft.fft2(stack, out=stack)
    targets *= h.conj()
    targets *= factor * grid.spacing ** 2 / grid.n_samples ** 2
    targets.flags.writeable = False
    return targets


def _project(spec: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The (d, d) overlaps sum_k spec_a(k) targets_b(k)* of a guarded
    spectrum with :func:`_targets`, ``_DOT_CHUNK`` samples per dot."""
    s, t = (a.reshape(len(a), -1) for a in (spec, targets))
    return sum(_gram(s[:, k:k + _DOT_CHUNK], t[:, k:k + _DOT_CHUNK])
               for k in range(0, s.shape[1], _DOT_CHUNK))


def launch(input_field: ComplexField | Sequence[ComplexField],
           config: ChannelConfig, states: np.ndarray | None = None,
           project: bool = False) -> Launch:
    """Run step 0 of the chain once, for every realization of ``config``.

    ``input_field`` is one field or a sequence of d fields on one grid and
    wavelength. ``states``, a (k, d) coefficient matrix (default: the
    identity), names the combinations of the fields the caller will form
    from their outputs; the aliasing guard checks each of them exactly at
    every step. With ``project``, :func:`run_channel` returns each
    realization's (d, d) overlaps of the outputs with the sent fields (as
    :func:`field.mode_overlap`) instead of the outputs: its last step
    stops at the guard, and the overlaps are taken from the guarded
    spectrum. The seed is irrelevant here. Raises :class:`AliasingError`
    if a source (or a row of ``states``) already aliases over the first dz.
    """
    fields = (input_field,) if isinstance(input_field, ComplexField) \
        else tuple(input_field)
    if not fields:
        raise ValueError("launch needs at least one field")
    grid, wavelength = fields[0].grid, fields[0].wavelength
    for f in fields[1:]:
        if f.grid != grid or f.wavelength != wavelength:
            raise GridMismatchError(
                "batched fields must share one grid and wavelength")
    coeffs = np.eye(len(fields)) if states is None else np.array(states)
    if coeffs.ndim != 2 or coeffs.shape[1] != len(fields) \
            or not np.all(np.isfinite(coeffs)) \
            or not np.all(coeffs.any(axis=1)):
        raise ValueError(
            f"states must be a (k, {len(fields)}) matrix of finite "
            f"coefficients with a nonzero entry in every row")
    coeffs.flags.writeable = False
    stack, worst = _diffract(np.stack([f.amplitude for f in fields]), fields,
                             config, coeffs, 0,
                             finish=not project or config.n_screens > 0)
    stack.flags.writeable = False
    return Launch(fields=fields,
                  powers=tuple(total_power(f) for f in fields),
                  states=coeffs, stack=stack, path=_path(config),
                  guard_fraction=worst,
                  targets=_targets(fields, config) if project else None)


class Draws(NamedTuple):
    """One realization's scalar draws: each screen's modal coefficients (a
    row) or the Philox key of its Kolmogorov noise stream, (screen seed,
    ``TAG_COEFF``), and the occluders by split step."""

    screens: np.ndarray
    occluders: dict[int, list[Occluder]]


def draw_realizations(config: ChannelConfig, grid: Grid,
                      *path: int | np.ndarray) -> list[Draws]:
    """The draws of the realizations seeded by (``config.seed``, *path),
    the one way to choose them: the path entries are ints or 1-d arrays of
    ints, broadcast together, one realization per element. Frame k is path
    (``TAG_FRAME``, k[, mode]), trial k is (``TAG_TRIAL``, k), and no path
    gives ``config.seed``'s own.

    Realization seeds, screen seeds, and modal coefficients or Kolmogorov
    noise keys each come from one :mod:`seeding` pass over the batch; the
    coefficients are :func:`seeding.normals` over ``config``'s checked
    sigma table. The noise itself is drawn when the screen is rendered.
    Occluders are Poisson-counted from the occlusion rate, each
    realization's from the stream ``stream_key(seed, TAG_OCCLUSION)``."""
    seeds = np.atleast_1d(child_seed(config.seed, *path) if path
                          else np.asarray(config.seed))
    screens = child_seed(seeds[:, None], TAG_SCREEN,
                         np.arange(config.n_screens))
    if config.screen_source == "modal" and config.n_screens:
        screens = normals(screens.ravel(), TAG_COEFF, config.modal_sigmas
                          ).reshape(len(seeds), config.n_screens, -1)
    else:
        screens = stream_key(screens, TAG_COEFF)
    if config.occlusion_rate > 0.0:
        occluders = [_occluders(config, grid, np.random.Generator(
            np.random.Philox(key=key)))
            for key in stream_key(seeds, TAG_OCCLUSION)]
    else:
        occluders = [{} for _ in seeds]
    return [Draws(*draws) for draws in zip(screens, occluders)]


def _occluders(config: ChannelConfig, grid: Grid,
               rng: np.random.Generator) -> dict[int, list[Occluder]]:
    """One realization's occluders by split step, drawn from ``rng``."""
    occluders: dict[int, list[Occluder]] = {}
    count = int(rng.poisson(config.occlusion_rate))
    radius = config.occluder_radius or grid.extent / 10.0
    half = grid.extent / 4.0
    for _ in range(count):
        step = int(rng.integers(0, config.n_screens + 1))
        pos = (float(rng.uniform(-half, half)),
               float(rng.uniform(-half, half)))
        occluders.setdefault(step, []).append(
            Occluder(radius=radius, opacity=config.occluder_opacity,
                     position=pos))
    return occluders


def run_channel(input_field: ComplexField | Sequence[ComplexField]
                | Launch, config: ChannelConfig, draws: Draws | None = None,
                ) -> ChannelResult | tuple[ChannelResult, ...] | np.ndarray:
    """Run the full split-step chain and report the power ratio.

    ``n_screens`` phase screens are spaced evenly along the path, giving
    ``n_screens + 1`` equal diffraction substeps, each carrying its share of
    the bulk attenuation. Occluders (Poisson-counted from the occlusion
    rate) are inserted at seeded random screen interfaces. With no screens
    and no attenuation the result equals plain propagation over the full
    length.

    ``input_field`` is a :class:`Launch`, made once per run by
    :func:`launch`, or the fields :func:`launch` takes, which are launched
    here first. The d launched fields cross the same realization as one
    (d, N, N) stack: one FFT pair, one screen product and one occluder mask
    per step for all of them. A transit has two phases: every scalar draw
    (``draws``, one of :func:`draw_realizations`', ``config.seed``'s own if
    None; :func:`realizations` draws on the calling thread), then the numpy
    run, which renders screen k only when step k + 1 takes its product.
    Kolmogorov noise fields are drawn at render, as numpy's fills release
    it. One result per field comes back, each what a single call would
    return: a tuple, unless ``input_field`` is one field. Every channel
    operation is linear, so a combination of the fields leaves as the same
    combination of their outputs; the launch's ``states`` are checked by
    the aliasing guard at every step. A launch made with ``project``
    returns the (d, d) overlaps of the outputs with the sent fields
    instead: the last step stops at its guard and :func:`_project` takes
    them from its spectrum.

    Step 0 does not depend on the seed, so each realization starts at step
    1 from the launched stack. A realization with an occluder on step 0
    starts at step 0 from the fields instead. A config whose ``length``,
    ``n_screens``, ``refractive_index`` or ``attenuation_db_per_m`` differs
    from the launch's raises ValueError.
    """
    start = input_field if isinstance(input_field, Launch) \
        else launch(input_field, config)
    if start.path != _path(config):
        raise ValueError(
            f"config (length, n_screens, refractive_index, "
            f"attenuation_db_per_m) {_path(config)} differs from the "
            f"launch's {start.path}")
    fields = start.fields
    grid = fields[0].grid
    screens, occluders = draws or draw_realizations(config, grid)[0]
    if 0 in occluders:
        first, stack = 0, np.stack([f.amplitude for f in fields])
        work = stack
    else:
        first, stack = 1, start.stack
        work = np.empty_like(stack) if config.n_screens else None
    # Each screen is dropped once its product is taken, so a transit holds
    # its working stack (none if no screen step follows) and at most
    # one screen.
    screens, spectra = _screen_draws(config, grid, screens)
    worst = start.guard_fraction
    last = config.n_screens
    for step in range(first, last + 1):
        if step:
            stack = _apply_screen(
                stack, _render_screen(config, grid, screens[step - 1]).phase,
                work)
        stack, fraction = _diffract(
            stack, fields, config, start.states, step,
            occluders.get(step, ()), start.targets is None or step < last)
        worst = max(worst, fraction)
    if start.targets is not None:
        return _project(stack, start.targets)

    # The results keep read-only views of the stack rather than copies.
    stack.flags.writeable = False
    results = []
    for f, p_in, amplitude in zip(fields, start.powers, stack):
        out = f.with_amplitude(amplitude)
        ratio = total_power(out) / p_in if p_in > 0 else 0.0
        results.append(ChannelResult(output_field=out,
                                     transmittance=min(ratio, 1.0),
                                     ground_truth_spectra=spectra,
                                     guard_fraction_max=worst))
    return results[0] if isinstance(input_field, ComplexField) \
        else tuple(results)


def realizations(fields: ComplexField | Sequence[ComplexField],
                 config: ChannelConfig, each: Callable, count: int, tag: int,
                 *path: int, states: np.ndarray | None = None,
                 project: bool = False, sources: str, name: str) -> list:
    """``[each(k, run) for k in range(count)]`` on :func:`seeding.realize`'s
    threads, the one loop of a run's frames and trials.

    ``fields`` are launched once with ``states`` and ``project`` (step 0
    depends on no seed); a tripped guard names ``sources``. Realization k
    is drawn at (``tag``, k, *path), all in one :func:`draw_realizations`
    batch on the calling thread first, as scalar draws hold the GIL, so the
    threads run only numpy, the same bits on any thread. ``run()`` is
    realization k's transit from the launch (its overlaps with ``fields``
    if ``project``), and a tripped guard names it ``name`` k: the lowest
    failing k, as in a serial loop. Only ``each`` holds a transit's output.
    """
    try:
        source = launch(fields, config, states, project)
    except AliasingError as exc:
        raise exc.at(sources) from exc
    draws = draw_realizations(config, source.fields[0].grid, tag,
                              np.arange(count), *path)

    def transit(k: int) -> tuple[ChannelResult, ...] | np.ndarray:
        try:
            return run_channel(source, config, draws[k])
        except AliasingError as exc:
            raise exc.at(f"{name} {k}") from exc

    return realize(lambda k: each(k, partial(transit, k)), count)
