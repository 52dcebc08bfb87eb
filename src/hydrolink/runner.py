"""Execute scenarios and parameter sweeps, writing figure-ready artifacts.

Every run writes CSV tables (the numeric source of truth), PGM images, a
re-runnable scenario echo and a digest manifest, and returns one record of
named scalars; a sweep is one run per value. Identical scenario + seed
reproduces every CSV byte for byte.
"""

from __future__ import annotations

import copy
import math
import shutil
import tempfile
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import io as hio
# Only test_perfbench.py:72-81 binds run_channel here; ROADMAP item 1 drops it.
from .channel import realizations, run_channel, transmittance  # noqa: F401
from .field import (ComplexField, Grid, centroid, lg_mode, petal_mode,
                    waist_or_default)
from .qkd import (DetectionMatrix, PolarizationChannel, QkdReport,
                  detection_matrix_oam, detection_matrix_polarization,
                  qber_threshold, report_from_matrix)
from .scenario import (QKD_KINDS, Scenario, ScenarioError, SourceSpec,
                       parse_document)
from .seeding import TAG_FRAME
from .shack_hartmann import (average_magnitudes, capture, extract_slopes,
                             modal_fit, reconstruct_wavefront)
from .zernike import ZernikeSpectrum, nm_from_index

SWEEPABLE_PARAMETERS = ("attenuation_db_per_m", "length", "r0",
                        "sigma_scale")


@dataclass(frozen=True)
class RunResult:
    output_dir: Path
    files: tuple[Path, ...]
    summary: dict[str, float]


def build_source_field(spec: SourceSpec, grid: Grid) -> ComplexField:
    waist = waist_or_default(spec.waist, grid)
    if spec.kind == "gaussian":
        return lg_mode(0, 0, waist, grid, spec.wavelength)
    if spec.kind == "lg":
        return lg_mode(spec.ell, spec.p, waist, grid, spec.wavelength)
    if spec.kind == "petal":
        return petal_mode(spec.ell, waist, grid, spec.wavelength)
    raise ValueError(f"unknown source kind {spec.kind!r}")


def _write_manifest(out: Path, scenario: Scenario, files: list[Path],
                    wall: float) -> Path:
    lines = ["hydrolink run manifest",
             f"scenario: {scenario.name}",
             f"seed: {scenario.seed}",
             f"package: hydrolink {__version__}",
             f"numpy: {np.__version__}",
             f"wall_time_s: {wall:.3f}",
             "outputs:"]
    for path in sorted(files):
        digest = hio.sha256_of(path)
        lines.append(f"  {digest}  {path.stat().st_size:>10}  {path.name}")
    text = "\n".join(lines) + "\n"
    manifest = out / "manifest.txt"
    manifest.write_text(text)
    return manifest


def _run_wavefront(scenario: Scenario, out: Path) -> tuple[list[Path], dict]:
    files = []
    frame_rows = []
    coeff_rows = []
    truth_rows = []
    ana = scenario.analysis

    def frame(_: int, run: Callable) -> tuple:
        # A frame's transmittance, ground-truth spectra and modal fit. The
        # output field is dropped before centroiding and nothing of the
        # frame outlives the call, so frames side by side hold little.
        (res,) = run()
        spots = capture(res.output_field, scenario.sensor)
        tau, truth = res.transmittance, res.ground_truth_spectra
        del res
        slopes = extract_slopes(spots, intensity_floor=ana.intensity_floor)
        return tau, truth, modal_fit(slopes, j_max=ana.j_max,
                                     aperture_radius=ana.fit_aperture_radius)

    frames = realizations(
        build_source_field(scenario.source, scenario.grid), scenario.channel,
        frame, scenario.frames, TAG_FRAME,
        sources=f"source {scenario.source.label}", name="frame")
    results = [fit for *_, fit in frames]
    for k, (tau, truth, fit) in enumerate(frames):
        frame_rows.append((k, tau, fit.n_valid_lenslets, fit.residual_rms))
        for j, a in fit.spectrum.coefficients:
            idx = nm_from_index(j)
            coeff_rows.append((k, j, idx.n, idx.m, a))
        for s_i, spec in enumerate(truth or ()):
            for j, a in spec.coefficients:
                idx = nm_from_index(j)
                truth_rows.append((k, s_i, j, idx.n, idx.m, a))

    files.append(hio.write_csv(out / "coefficients_frames.csv",
                               ("frame_id", "j", "n", "m", "a_j_radians"),
                               coeff_rows))
    avg = average_magnitudes(results)
    files.append(hio.write_csv(
        out / "coefficients_mean.csv",
        ("j", "n", "m", "mean_abs", "std", "stderr"),
        [(j, nm_from_index(j).n, nm_from_index(j).m, m, s, se)
         for j, m, s, se in zip(avg.j_values, avg.mean_abs, avg.std,
                                avg.stderr)]))
    files.append(hio.write_csv(
        out / "frames_summary.csv",
        ("frame_id", "transmittance", "n_valid_lenslets",
         "residual_rms_radians"), frame_rows))
    if truth_rows:
        files.append(hio.write_csv(
            out / "screens_ground_truth.csv",
            ("frame_id", "screen_id", "j", "n", "m", "a_j_radians"),
            truth_rows))

    mean_spec = ZernikeSpectrum(tuple(zip(avg.j_values, avg.mean_abs)),
                                avg.aperture_radius)
    recon = reconstruct_wavefront(mean_spec, scenario.grid)
    files.append(hio.write_pgm16(out / "wavefront_mean.pgm",
                                 recon.phase - recon.phase.min()))
    files.append(hio.screen_to_csv(recon, out / "wavefront_mean.csv"))
    record = {}
    for j, mean_abs, stderr in zip(avg.j_values, avg.mean_abs, avg.stderr):
        record[f"mean_abs_j{j}"], record[f"stderr_j{j}"] = mean_abs, stderr
    record["residual_rms_radians_mean"] = math.fsum(
        r.residual_rms for r in results) / len(results)
    record["n_valid_lenslets_mean"] = math.fsum(
        r.n_valid_lenslets for r in results) / len(results)
    record["slope_condition_max"] = max(r.condition_number for r in results)
    return files, record


def _qkd_outputs(out: Path, matrix: DetectionMatrix,
                 report: QkdReport) -> list[Path]:
    header = ("sent",) + tuple(matrix.measured_labels)
    files = [hio.write_csv(out / name, header,
                           [(s,) + tuple(table[i])
                            for i, s in enumerate(matrix.sent_labels)])
             for name, table in (
                 ("detection_matrix.csv", matrix.probabilities),
                 ("detection_matrix_stderr.csv", matrix.standard_errors))]
    files.append(hio.write_csv(
        out / "qkd_report.csv",
        ("qber", "key_rate_bits_per_sifted_photon", "threshold_margin",
         "sifted_fraction"),
        [(report.qber, report.key_rate, report.threshold_margin,
          report.sifted_fraction)]))
    text = (f"sifted error rate : {report.qber * 100:.3f} %\n"
            f"key rate          : {report.key_rate:.4f} bits per sifted "
            f"photon\n"
            f"threshold margin  : {report.threshold_margin * 100:.3f} "
            f"percentage points below the {qber_threshold() * 100:.1f} % "
            f"limit\n"
            f"sifted fraction   : {report.sifted_fraction:.3f}\n"
            f"feasible          : {'yes' if report.feasible() else 'no'}\n")
    path = out / "qkd_report.txt"
    path.write_text(text)
    files.append(path)
    return files


def _run_qkd(scenario: Scenario, out: Path) -> tuple[list[Path], dict]:
    ana = scenario.analysis
    if ana.kind == "qkd-pol":
        matrix = detection_matrix_polarization(PolarizationChannel(
            theta=ana.theta, depolarization=ana.depolarization))
    else:
        matrix = detection_matrix_oam(
            scenario.channel, ana.ell_values,
            include_superposition_basis=ana.superposition_basis,
            waist=scenario.source.waist, grid=scenario.grid,
            wavelength=scenario.source.wavelength, n_trials=ana.trials)
    report = report_from_matrix(matrix)
    files = _qkd_outputs(out, matrix, report)
    return files, {"qber": report.qber, "qber_stderr": report.qber_stderr,
                   "key_rate": report.key_rate,
                   "crosstalk_mean": report.crosstalk_mean,
                   "crosstalk_stderr": report.crosstalk_stderr}


def _run_images(scenario: Scenario, out: Path) -> tuple[list[Path], dict]:
    files = []
    rows = []
    for m_i, mode in enumerate(scenario.analysis.modes):
        label = mode.label

        def frame(k: int, run: Callable) -> tuple:
            (res,) = run()
            inten = res.output_field.intensity()
            cx, cy = centroid(res.output_field)
            return ((label, k, res.transmittance, cx, cy),
                    hio.write_pgm16(out / f"{label}_frame{k:03d}.pgm", inten),
                    inten if scenario.analysis.time_average else None)

        frames = realizations(
            build_source_field(mode, scenario.grid), scenario.channel, frame,
            scenario.frames, TAG_FRAME, m_i, sources=f"source {label}",
            name=f"mode {label}, frame")
        rows += [row for row, _, _ in frames]
        files += [path for _, path, _ in frames]
        if scenario.analysis.time_average:
            files.append(hio.write_pgm16(
                out / f"{label}_mean.pgm",
                np.mean(np.stack([inten for *_, inten in frames]), axis=0)))
        # The next mode launches without this mode's frames.
        del frames
    files.append(hio.write_csv(
        out / "frames_summary.csv",
        ("mode", "frame_id", "transmittance", "centroid_x_m",
         "centroid_y_m"), rows))
    # Beam wander: RMS centroid distance from the axis over all rows.
    return files, {
        "transmittance_mean": math.fsum(r[2] for r in rows) / len(rows),
        "beam_wander_rms_m": math.sqrt(math.fsum(
            cx * cx + cy * cy for *_, cx, cy in rows) / len(rows))}


_RUNNERS = {"wavefront": _run_wavefront, **dict.fromkeys(QKD_KINDS, _run_qkd),
            "images": _run_images}


@contextmanager
def _staging(out: Path) -> Iterator[Path]:
    """A hidden sibling directory of ``out`` to write into, removed with
    whatever is left in it when the block ends; a file at ``out`` is
    refused before the block runs."""
    target = out.resolve()
    if target.exists() and not target.is_dir():
        raise NotADirectoryError(f"output path {out} is a file")
    target.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{target.name}.",
                                  dir=target.parent))
    try:
        yield stage
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _publish(stage: Path, files: list[Path], out: Path) -> list[Path]:
    """Move ``files`` from ``stage`` to the same relative paths in ``out``."""
    moved = []
    for path in files:
        dest = out / path.relative_to(stage)
        dest.parent.mkdir(parents=True, exist_ok=True)
        path.replace(dest)
        moved.append(dest)
    return moved


def _run_into(scenario: Scenario, out: Path) -> tuple[list[Path], dict]:
    """Every artifact of one run, the manifest last, written into ``out``."""
    start = time.perf_counter()
    files, record = _RUNNERS[scenario.analysis.kind](scenario, out)
    echo = out / "scenario-echo.yaml"
    echo.write_text(scenario.to_yaml())
    files.append(echo)
    wall = time.perf_counter() - start
    files.append(_write_manifest(out, scenario, files, wall))
    return files, record


def run_scenario(scenario: Scenario, output_dir: Path | str) -> RunResult:
    """Run one scenario end to end, writing artifacts plus the manifest.

    The run writes into a hidden sibling of ``output_dir`` and moves its
    files there only once every one of them is written; a run that fails
    removes that staging directory and leaves ``output_dir`` as it was.
    """
    out = Path(output_dir)
    with _staging(out) as stage:
        files, record = _run_into(scenario, stage)
        files = _publish(stage, files, out)
    return RunResult(output_dir=out, files=tuple(sorted(files)),
                     summary=record)


def _scaled_scenario(scenario: Scenario, parameter: str,
                     value: float) -> Scenario:
    doc = copy.deepcopy(scenario.resolved)
    scr = doc["channel"]["screens"]
    kind = {"r0": "kolmogorov", "sigma_scale": "modal"}.get(parameter)
    if kind and scr["kind"] != kind:
        raise ScenarioError(f"a {parameter} sweep needs {kind} screens",
                            "channel.screens.kind")
    if parameter == "r0":
        scr["r0"] = value
    elif parameter == "sigma_scale" and scr["sigmas"] is not None:
        scr["sigmas"] = {j: float(s) * value
                         for j, s in scr["sigmas"].items()}
    elif parameter == "sigma_scale":
        scr["sigma"] = scr["sigma"] * value
    else:
        doc["channel"][parameter] = value
    return parse_document(doc)


def sweep(scenario: Scenario, parameter: str, values: list[float],
          output_dir: Path | str) -> RunResult:
    """Run a scenario of any kind once per value, value k into
    ``valueNNN/``, after validating every value. ``sweep_summary.csv`` gets
    one row per value: parameter, value, Beer-Lambert transmittance and the
    run's summary record. The whole sweep is staged as one run is: its
    files reach ``output_dir`` only once every value has run, and a sweep
    that fails leaves ``output_dir`` as it was."""
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ScenarioError(
            f"unknown sweep parameter {parameter!r}; declared sweepables: "
            f"{SWEEPABLE_PARAMETERS}")
    if not values:
        raise ScenarioError("sweep needs at least one value")
    start = time.perf_counter()
    scaled = [_scaled_scenario(scenario, parameter, float(v))
              for v in values]
    out = Path(output_dir)
    with _staging(out) as stage:
        files, rows = [], []
        for k, (value, s) in enumerate(zip(values, scaled)):
            run_dir = stage / f"value{k:03d}"
            run_dir.mkdir()
            run_files, record = _run_into(s, run_dir)
            files += sorted(run_files)
            rows.append((parameter, value,
                         transmittance(s.channel.attenuation_db_per_m,
                                       s.channel.length),
                         *record.values()))
        summary = hio.write_csv(stage / "sweep_summary.csv",
                                ("parameter", "value", "transmittance",
                                 *record), rows)
        wall = time.perf_counter() - start
        files += [summary, _write_manifest(stage, scenario, [summary], wall)]
        files = _publish(stage, files, out)
    return RunResult(output_dir=out, files=tuple(files),
                     summary={"rows": len(rows)})
