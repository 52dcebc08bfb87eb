"""Execute scenarios and parameter sweeps, writing figure-ready artifacts.

Every run writes CSV tables (the numeric source of truth), PGM images
(conveniences for eyeballing), a re-runnable scenario echo, and a manifest
listing every output with a content digest. Identical scenario + seed
reproduces every CSV byte for byte.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np
import scipy

from . import io as hio
from .channel import ChannelConfig, run_channel, transmittance
from .field import (DEFAULT_WAIST_DIVISOR, ComplexField, Grid, centroid,
                    lg_mode, petal_mode)
from .qkd import (DetectionMatrix, QkdReport, detection_matrix_oam,
                  detection_matrix_polarization, polarization_channel,
                  report_from_matrix)
from .scenario import (QKD_KINDS, Scenario, ScenarioError, SourceSpec,
                       parse_document)
from .seeding import TAG_FRAME, child_seed
from .shack_hartmann import (WfsResult, average_magnitudes, capture,
                             extract_slopes, modal_fit,
                             reconstruct_wavefront)
from .zernike import ZernikeSpectrum, nm_from_index

SWEEPABLE_PARAMETERS = ("attenuation_db_per_m", "length", "r0",
                        "sigma_scale")


@dataclass(frozen=True)
class RunResult:
    output_dir: Path
    files: tuple[Path, ...]
    summary: dict


def build_source_field(spec: SourceSpec, grid: Grid) -> ComplexField:
    waist = spec.waist if spec.waist is not None \
        else grid.extent / DEFAULT_WAIST_DIVISOR
    if spec.kind == "gaussian":
        return lg_mode(0, 0, waist, grid, spec.wavelength)
    if spec.kind == "lg":
        return lg_mode(spec.ell, spec.p, waist, grid, spec.wavelength)
    if spec.kind == "petal":
        return petal_mode(spec.ell, waist, grid, spec.wavelength)
    raise ValueError(f"unknown source kind {spec.kind!r}")


def _source_label(spec: SourceSpec) -> str:
    if spec.kind == "gaussian":
        return "gaussian"
    if spec.kind == "lg":
        return f"lg{spec.ell:+d}" + (f"p{spec.p}" if spec.p else "")
    return f"petal{abs(spec.ell)}"


def _write_manifest(out: Path, scenario: Scenario, files: list[Path],
                    wall: float) -> Path:
    lines = ["hydrolink run manifest",
             f"scenario: {scenario.name}",
             f"seed: {scenario.seed}",
             f"package: hydrolink {_version()}",
             f"numpy: {np.__version__}",
             f"scipy: {scipy.__version__}",
             f"wall_time_s: {wall:.3f}",
             "outputs:"]
    for path in sorted(files):
        digest = hio.sha256_of(path)
        lines.append(f"  {digest}  {path.stat().st_size:>10}  {path.name}")
    text = "\n".join(lines) + "\n"
    manifest = out / "manifest.txt"
    manifest.write_text(text)
    return manifest


def _version() -> str:
    try:
        return metadata.version("hydrolink")
    except metadata.PackageNotFoundError:
        return "unknown"


def _frame_channel(scenario: Scenario, *path: int) -> ChannelConfig:
    return scenario.channel.with_seed(
        child_seed(scenario.seed, TAG_FRAME, *path))


def _run_wavefront(scenario: Scenario, out: Path) -> tuple[list[Path], dict]:
    ana = scenario.analysis
    files = []
    results: list[WfsResult] = []
    frame_rows = []
    coeff_rows = []
    truth_rows = []
    source = build_source_field(scenario.source, scenario.grid)
    for k in range(scenario.frames):
        cfg = _frame_channel(scenario, k)
        res = run_channel(source, cfg)
        spots = capture(res.output_field, scenario.sensor)
        slopes = extract_slopes(spots, intensity_floor=ana.intensity_floor)
        fit = modal_fit(slopes, j_max=ana.j_max,
                        aperture_radius=ana.fit_aperture_radius)
        results.append(fit)
        frame_rows.append((k, res.transmittance, fit.n_valid_lenslets,
                           fit.residual_rms))
        for j, a in fit.spectrum.coefficients:
            idx = nm_from_index(j)
            coeff_rows.append((k, j, idx.n, idx.m, a))
        if res.ground_truth_spectra:
            for s_i, spec in enumerate(res.ground_truth_spectra):
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
                                results[0].spectrum.aperture_radius)
    recon = reconstruct_wavefront(
        WfsResult(spectrum=mean_spec, residual_rms=0.0,
                  n_valid_lenslets=results[0].n_valid_lenslets),
        scenario.grid)
    files.append(hio.screen_to_pgm(recon, out / "wavefront_mean.pgm"))
    files.append(hio.screen_to_csv(recon, out / "wavefront_mean.csv"))
    summary = {"frames": scenario.frames,
               "mean_abs": dict(zip(avg.j_values, avg.mean_abs))}
    return files, summary


def _qkd_outputs(out: Path, matrix: DetectionMatrix,
                 report: QkdReport) -> list[Path]:
    files = []
    header = ("sent",) + tuple(matrix.measured_labels)
    rows = [(s,) + tuple(matrix.probabilities[i])
            for i, s in enumerate(matrix.sent_labels)]
    files.append(hio.write_csv(out / "detection_matrix.csv", header, rows))
    se_rows = [(s,) + tuple(matrix.standard_errors[i])
               for i, s in enumerate(matrix.sent_labels)]
    files.append(hio.write_csv(out / "detection_matrix_stderr.csv", header,
                               se_rows))
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
            f"percentage points below the 11.0 % limit\n"
            f"sifted fraction   : {report.sifted_fraction:.3f}\n"
            f"feasible          : {'yes' if report.feasible() else 'no'}\n")
    path = out / "qkd_report.txt"
    path.write_text(text)
    files.append(path)
    return files


def _qkd_matrix(scenario: Scenario) -> DetectionMatrix:
    ana = scenario.analysis
    if ana.kind == "qkd-pol":
        return detection_matrix_polarization(polarization_channel(
            theta=ana.theta, depolarization=ana.depolarization))
    return detection_matrix_oam(
        scenario.channel, ana.ell_values,
        include_superposition_basis=ana.superposition_basis,
        waist=scenario.source.waist, grid=scenario.grid,
        wavelength=scenario.source.wavelength, n_trials=ana.trials)


def _run_qkd(scenario: Scenario, out: Path) -> tuple[list[Path], dict]:
    matrix = _qkd_matrix(scenario)
    report = report_from_matrix(matrix)
    files = _qkd_outputs(out, matrix, report)
    return files, {"qber": report.qber, "key_rate": report.key_rate}


def _run_images(scenario: Scenario, out: Path) -> tuple[list[Path], dict]:
    files = []
    rows = []
    for m_i, mode in enumerate(scenario.analysis.modes):
        label = _source_label(mode)
        source = build_source_field(mode, scenario.grid)
        stack = []
        for k in range(scenario.frames):
            cfg = _frame_channel(scenario, k, m_i)
            res = run_channel(source, cfg)
            inten = res.output_field.intensity()
            stack.append(inten)
            cx, cy = centroid(res.output_field)
            rows.append((label, k, res.transmittance, cx, cy))
            files.append(hio.write_pgm16(
                out / f"{label}_frame{k:03d}.pgm", inten))
        if scenario.time_average:
            files.append(hio.write_pgm16(
                out / f"{label}_mean.pgm",
                np.mean(np.stack(stack), axis=0)))
    files.append(hio.write_csv(
        out / "frames_summary.csv",
        ("mode", "frame_id", "transmittance", "centroid_x_m",
         "centroid_y_m"), rows))
    return files, {"modes": len(scenario.analysis.modes),
                   "frames": scenario.frames}


_RUNNERS = {"wavefront": _run_wavefront, **dict.fromkeys(QKD_KINDS, _run_qkd),
            "images": _run_images}


def run_scenario(scenario: Scenario, output_dir: Path | str) -> RunResult:
    """Run one scenario end to end, writing artifacts plus the manifest."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files, summary = _RUNNERS[scenario.analysis.kind](scenario, out)
    echo = out / "scenario-echo.yaml"
    echo.write_text(scenario.to_yaml())
    files.append(echo)
    wall = time.perf_counter() - start
    manifest = _write_manifest(out, scenario, files, wall)
    return RunResult(output_dir=out, files=tuple(sorted(files + [manifest])),
                     summary=summary)


def _scaled_scenario(scenario: Scenario, parameter: str,
                     value: float) -> Scenario:
    doc = copy.deepcopy(scenario.resolved)
    ch = doc["channel"]
    if parameter in ("attenuation_db_per_m", "length"):
        ch[parameter] = float(value)
    elif parameter == "r0":
        if ch["screens"]["kind"] != "kolmogorov":
            raise ScenarioError(
                "r0 sweep needs channel.screens.kind = kolmogorov")
        ch["screens"]["r0"] = float(value)
    else:   # sigma_scale: sweep has already rejected unknown parameters
        scr = ch["screens"]
        if scr["kind"] != "modal":
            raise ScenarioError(
                "sigma_scale sweep needs channel.screens.kind = modal")
        if scr["sigmas"] is not None:
            scr["sigmas"] = {j: s * float(value)
                             for j, s in scr["sigmas"].items()}
        else:
            scr["sigma"] = scr["sigma"] * float(value)
    return parse_document(doc)


def sweep(scenario: Scenario, parameter: str, values: list[float],
          output_dir: Path | str) -> RunResult:
    """Run a qkd-pol or qkd-oam scenario across parameter values, one
    summary row per value: analytic transmittance, QBER, key rate and
    crosstalk, with Monte Carlo standard errors."""
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ScenarioError(
            f"unknown sweep parameter {parameter!r}; declared sweepables: "
            f"{SWEEPABLE_PARAMETERS}")
    if scenario.analysis.kind not in QKD_KINDS:
        raise ScenarioError(
            f"sweep summarizes {' and '.join(QKD_KINDS)} scenarios, got "
            f"{scenario.analysis.kind!r}", "analysis.kind")
    if not values:
        raise ScenarioError("sweep needs at least one value")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    rows = []
    for value in values:
        s = _scaled_scenario(scenario, parameter, float(value))
        trans = transmittance(s.channel.attenuation_db_per_m,
                              s.channel.length)
        r = report_from_matrix(_qkd_matrix(s))
        rows.append((parameter, value, trans, r.qber, r.qber_stderr,
                     r.key_rate, r.crosstalk_mean, r.crosstalk_stderr))
    path = hio.write_csv(
        out / "sweep_summary.csv",
        ("parameter", "value", "transmittance", "qber", "qber_stderr",
         "key_rate", "crosstalk_mean", "crosstalk_stderr"), rows)
    wall = time.perf_counter() - start
    manifest = _write_manifest(out, scenario, [path], wall)
    return RunResult(output_dir=out, files=(path, manifest),
                     summary={"rows": len(rows)})
