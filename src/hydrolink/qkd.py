"""BB84 feasibility metrics for polarization and spatial-mode encodings.

Covers mutually unbiased basis construction, probability-of-detection
matrices (analytic for polarization, Monte Carlo over channel realizations
for orbital-angular-momentum modes), the sifted error rate, binary entropy,
the asymptotic two-dimensional key rate r = 1 - 2*h(Q), and the error-rate
threshold where that rate vanishes. The OAM Monte Carlo forms every
(sent, measured) amplitude from the overlaps of the computational modes'
outputs with those modes, by linearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

# Only test_perfbench.py:72-81 binds run_channel here; ROADMAP item 1 drops it.
from .channel import ChannelConfig, realizations, run_channel  # noqa: F401
from .field import (ANTIDIAGONAL, DEFAULT_GRID, DEFAULT_WAVELENGTH,
                    DIAGONAL, HORIZONTAL, VERTICAL, ConfigError, Grid,
                    JonesVector, check_count, lg_mode, waist_or_default)
from .seeding import TAG_TRIAL


def mub_overlap(a: JonesVector, b: JonesVector) -> float:
    """Projection probability |<a|b>|^2."""
    return abs(a.inner(b)) ** 2


@dataclass(frozen=True)
class PolarizationBasis:
    """One measurement basis: an orthogonal pair of polarization states."""

    name: str
    states: tuple[JonesVector, JonesVector]
    labels: tuple[str, str]

    def __post_init__(self):
        if mub_overlap(self.states[0], self.states[1]) > 1e-12:
            raise ValueError(f"basis {self.name!r} is not orthogonal")


RECTILINEAR = PolarizationBasis("rectilinear", (HORIZONTAL, VERTICAL),
                                ("H", "V"))
DIAGONAL_BASIS = PolarizationBasis("diagonal", (ANTIDIAGONAL, DIAGONAL),
                                   ("A", "D"))


@dataclass(frozen=True)
class PolarizationChannel:
    """Two-parameter perturbation: rotation by theta, depolarization q.

    With probability 1-q the state reaches the analyzer rotated by theta;
    with probability q the measurement outcome is uniformly random. This is
    a calibration device for reproducing a measured error rate, not a claim
    about the physical error mechanism: q = 2 * QBER inverts a measured
    sifted error rate when theta = 0.
    """

    theta: float = 0.0
    depolarization: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.depolarization <= 1.0:
            raise ValueError("depolarization must be in [0, 1]")

    def rotated(self, state: JonesVector) -> JonesVector:
        c, s = math.cos(self.theta), math.sin(self.theta)
        h, v = state.components
        return JonesVector((c * h - s * v, s * h + c * v))

    def outcome_probability(self, sent: JonesVector,
                            analyzer: JonesVector) -> float:
        coherent = mub_overlap(self.rotated(sent), analyzer)
        q = self.depolarization
        return (1.0 - q) * coherent + q * 0.5


@dataclass(frozen=True)
class DetectionMatrix:
    """P(measured | sent) with rows conditioned on the receiver's basis.

    ``bases`` groups the labels into measurement bases; within each basis
    block every row sums to 1 (to 1e-9), so the matrix is conditionally
    stochastic. ``standard_errors`` accompanies Monte Carlo estimates and
    is all zeros for an exact matrix.
    """

    sent_labels: tuple[str, ...]
    measured_labels: tuple[str, ...]
    probabilities: np.ndarray
    bases: tuple[tuple[str, ...], ...]
    standard_errors: np.ndarray | None = None

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=float)
        shape = (len(self.sent_labels), len(self.measured_labels))
        if probs.shape != shape:
            raise ValueError(f"probabilities shape {probs.shape} != {shape}")
        if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
            raise ValueError("probabilities outside [0, 1]")
        flat = [lbl for basis in self.bases for lbl in basis]
        if sorted(flat) != sorted(self.measured_labels):
            raise ValueError("bases must partition the measured labels")
        for basis in self.bases:
            cols = [self.measured_labels.index(lbl) for lbl in basis]
            sums = probs[:, cols].sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValueError(
                    f"rows are not normalized within basis {basis}")
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        se = np.zeros(shape) if self.standard_errors is None else \
            np.array(self.standard_errors, dtype=float)
        if se.shape != shape:
            raise ValueError("standard_errors shape mismatch")
        se.flags.writeable = False
        object.__setattr__(self, "standard_errors", se)

    def basis_of(self, label: str) -> tuple[str, ...]:
        for basis in self.bases:
            if label in basis:
                return basis
        raise KeyError(label)

    def probability(self, sent: str, measured: str) -> float:
        return float(self.probabilities[self.sent_labels.index(sent),
                                        self.measured_labels.index(measured)])


def detection_matrix_polarization(
        channel: PolarizationChannel) -> DetectionMatrix:
    """Analytic 4x4 matrix over sent/measured {H, V, A, D}.

    Each entry is the projection probability conditioned on the receiver
    choosing the basis that contains the measured state.
    """
    bases = (RECTILINEAR, DIAGONAL_BASIS)
    labels = tuple(lbl for b in bases for lbl in b.labels)
    states = {lbl: s for b in bases for lbl, s in zip(b.labels, b.states)}
    probs = np.array([[channel.outcome_probability(states[s], states[m])
                       for m in labels] for s in labels])
    return DetectionMatrix(sent_labels=labels, measured_labels=labels,
                           probabilities=probs,
                           bases=tuple(b.labels for b in bases))


def oam_alphabet(ell_values: Sequence[int], superposition_basis: bool,
                 waist: float, grid: Grid) -> tuple[int, ...]:
    """The sorted alphabet if it keeps every rule, else ConfigError: at
    least two distinct integers, exactly two with the superposition basis,
    every |l| resolvable on the grid for a beam of this waist."""
    for ell in ell_values:
        check_count("ell value", ell, -math.inf, "ell_values")
    ells = sorted({int(ell) for ell in ell_values})
    if len(ells) != len(ell_values) or len(ells) < 2:
        raise ConfigError("ell_values must be at least two distinct values",
                          "ell_values")
    if superposition_basis and len(ells) != 2:
        raise ConfigError("superposition basis needs exactly two ell values",
                          "superposition_basis")
    max_ell = max(abs(ells[0]), abs(ells[-1]))
    ring = waist * math.sqrt(max_ell / 2.0)
    if 2.0 * math.pi * ring / grid.spacing < 8.0 * max_ell:
        raise ConfigError(
            f"grid cannot resolve the azimuthal structure of |l|={max_ell}",
            "ell_values")
    return tuple(ells)


def _oam_bases(ells: tuple[int, ...], include_superposition: bool,
               ) -> tuple[tuple[tuple[str, ...], ...], np.ndarray]:
    """(bases, each label's coefficients over the computational modes
    ``ells``, one row per label in basis order)."""
    bases = [tuple(f"l{ell:+d}" for ell in ells)]
    rows = np.eye(len(ells))
    if include_superposition:
        s = 1.0 / math.sqrt(2.0)
        bases.append(("s+", "s-"))
        rows = np.vstack((rows, [[s, s], [s, -s]]))
    return tuple(bases), rows


def detection_matrix_oam(channel_config: ChannelConfig,
                         ell_values: Sequence[int],
                         include_superposition_basis: bool = False,
                         waist: float | None = None,
                         grid: Grid = DEFAULT_GRID,
                         wavelength: float = DEFAULT_WAVELENGTH,
                         n_trials: int = 100) -> DetectionMatrix:
    """Monte Carlo crosstalk matrix for orbital-angular-momentum encoding.

    Trial k sends the d computational modes through the channel's
    realization at (``TAG_TRIAL``, k) by :func:`channel.realizations`, whose
    guard checks every sent state. The d outputs are projected onto the d
    computational modes in the spectral domain, from the last split step's
    guarded spectrum (see :func:`channel.launch`), and every (sent,
    measured) amplitude is formed from those d x d overlaps O as
    ``states @ O @ states^H``, by linearity on both sides. The
    probabilities are renormalized within each measurement basis (ideal
    projective mode sorting, post-selected on detection). The trials'
    blocks are stacked in trial order; their mean and its standard error
    are returned.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    waist = waist_or_default(waist, grid)
    ells = oam_alphabet(ell_values, include_superposition_basis, waist,
                        grid)
    bases, rows = _oam_bases(ells, include_superposition_basis)
    labels = tuple(lbl for b in bases for lbl in b)
    modes = tuple(lg_mode(ell, 0, waist, grid, wavelength) for ell in ells)

    def trial(_: int, run: Callable) -> np.ndarray:
        amplitudes = rows @ run() @ rows.conj().T
        # abs() and ** 2 on Python complexes, not numpy's: they round as
        # a direct projection of a computational output always has.
        return np.array([[abs(a) ** 2 for a in row]
                         for row in amplitudes.tolist()])

    blocks = np.array(realizations(
        modes, channel_config, trial, n_trials, TAG_TRIAL, states=rows,
        modes=modes, sources=f"sources {', '.join(labels)}", name="trial"))
    mean = _renormalize(blocks, bases).sum(axis=0) / n_trials
    # Two passes (deviations from the mean), so identical trials give 0.
    stderr = blocks.std(axis=0, ddof=1) / math.sqrt(n_trials) \
        if n_trials > 1 else np.zeros_like(mean)
    return DetectionMatrix(sent_labels=labels, measured_labels=labels,
                           probabilities=_renormalize(mean, bases),
                           bases=bases, standard_errors=stderr)


def _renormalize(probs: np.ndarray, bases: tuple) -> np.ndarray:
    """Scale ``probs`` in place so that each row sums to 1 over each basis's
    columns, which follow one another in basis order; a row with nothing in
    a basis becomes uniform over it."""
    cuts = np.cumsum([len(basis) for basis in bases[:-1]])
    for part in np.split(probs, cuts, axis=-1):
        tot = part.sum(axis=-1, keepdims=True)
        part[tot[..., 0] <= 0.0] = 1.0 / part.shape[-1]
        part /= np.where(tot > 0.0, tot, 1.0)
    return probs


def _error_stats(matrix: DetectionMatrix
                 ) -> tuple[float, float, float, float]:
    """(qber, qber_stderr, crosstalk_mean, crosstalk_stderr) from one walk
    over each sent state's wrong outcomes within its own basis. e ** 2 and
    e * e can differ in the last bit; each keeps its historical spelling so
    sweep CSVs stay byte-identical."""
    rates, vals, ses, qber_var = [], [], [], 0.0
    for i, s in enumerate(matrix.sent_labels):
        basis = matrix.basis_of(s)
        cols = [matrix.measured_labels.index(m) for m in basis if m != s]
        wrong = [float(matrix.probabilities[i, k]) for k in cols]
        total = math.fsum(matrix.probability(s, m) for m in basis)
        rates.append(math.fsum(wrong) / total)
        vals += wrong
        for k in cols:
            ses.append(float(matrix.standard_errors[i, k]))
            qber_var += ses[-1] ** 2
    n, n_wrong = len(matrix.sent_labels), max(len(vals), 1)
    return (math.fsum(rates) / n, math.sqrt(qber_var) / n,
            sum(vals) / n_wrong, math.sqrt(sum(e * e for e in ses)) / n_wrong)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability outside [0, 1]: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bb84_key_rate(qber: float) -> float:
    """Asymptotic 2-d BB84 secret fraction max(0, 1 - 2*h(Q)) per sifted photon."""
    if not 0.0 <= qber <= 0.5:
        raise ValueError(f"qber outside [0, 0.5]: {qber}")
    return max(0.0, 1.0 - 2.0 * binary_entropy(qber))


@lru_cache(maxsize=1)
def qber_threshold() -> float:
    """Error rate where the 2-d BB84 key rate reaches zero (~11.0%).

    Root of 1 - 2*h(Q) on (0, 0.5), located by bisection to 1e-6.
    """
    lo, hi = 1e-9, 0.5 - 1e-9
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if 1.0 - 2.0 * binary_entropy(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class QkdReport:
    """Summary of a BB84 feasibility evaluation."""

    qber: float
    key_rate: float
    threshold_margin: float
    sifted_fraction: float
    qber_stderr: float = 0.0
    crosstalk_mean: float = 0.0
    crosstalk_stderr: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.qber <= 1.0:
            raise ValueError("qber outside [0, 1]")

    def feasible(self) -> bool:
        return self.threshold_margin > 0.0


def report_from_matrix(matrix: DetectionMatrix) -> QkdReport:
    """Derive QBER, key rate, threshold margin, sifted fraction, and the
    QBER's and the wrong-outcome mean's standard errors.

    The sifted fraction assumes sender and receiver pick among the bases
    uniformly and independently.
    """
    q, q_se, cross, cross_se = _error_stats(matrix)
    rate = bb84_key_rate(min(q, 0.5))
    return QkdReport(qber=q, key_rate=rate,
                     threshold_margin=qber_threshold() - q,
                     sifted_fraction=1.0 / len(matrix.bases),
                     qber_stderr=q_se, crosstalk_mean=cross,
                     crosstalk_stderr=cross_se)
