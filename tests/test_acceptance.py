"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion. Each test pins its tolerance explicitly.
"""

import math
import time

import numpy as np
import pytest

from hydrolink.channel import (ChannelConfig, angular_spectrum_propagate,
                               apply_phase_screen, transmittance)
from hydrolink.field import (ComplexField, DIAGONAL, Grid, HORIZONTAL,
                             lg_mode, total_power)
from hydrolink.qkd import (bb84_key_rate, detection_matrix_oam,
                           detection_matrix_polarization, mub_overlap,
                           PolarizationChannel, qber_threshold,
                           report_from_matrix)
from hydrolink.runner import run_scenario
from hydrolink.scenario import modal_sigma_table, parse_scenario
from hydrolink.shack_hartmann import (LensletArray, capture, extract_slopes,
                                      modal_fit)
from hydrolink.zernike import (ZernikeSpectrum, index_from_nm, nm_from_index,
                               phase_from_spectrum, zernike_eval)

from oracles import (beam_width, find_vortices, modal_spectrum,
                     total_vortex_charge, zernike_gradient)

WAVELENGTH = 532e-9
WATER_N = 1.33


def _report(number, text):
    print(f"[criterion {number:2d}] PASS  {text}")


def test_criterion_01_key_rate_reproduction():
    rate = bb84_key_rate(0.0401)
    assert 0.510 <= rate <= 0.520
    _report(1, f"bb84_key_rate(0.0401) = {rate:.4f} in [0.510, 0.520]")


def test_criterion_02_threshold_reproduction():
    q = qber_threshold()
    assert 0.1099 <= q <= 0.1101
    _report(2, f"qber_threshold() = {q:.6f} in [0.1099, 0.1101]")


def test_criterion_03_link_budget_reproduction():
    river = transmittance(5.4, 5.5)
    assert abs(river - 10**-2.97) / 10**-2.97 < 1e-6
    for alpha, length in ((1.3, 10.0), (0.13, 100.0)):
        got = transmittance(alpha, length)
        want = 10.0 ** (-alpha * length / 10.0)
        assert abs(got - want) / want < 1e-9
    _report(3, f"transmittance(5.4, 5.5) = {river:.6e} = 10^-2.97; "
               "Beer-Lambert arithmetic to 1e-9")


def test_criterion_04_sensor_round_trip_at_sensor_geometry():
    geometry = LensletArray()               # 23x23 / 150 um / 5.2 mm
    grid = Grid(688, 7.5e-6)                # 20 field samples per lenslet
    r_ap = 12 * geometry.pitch * math.sqrt(2) + 1e-6
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    errors = []
    for _ in range(50):
        coeffs = {j: float(rng.uniform(-1.0, 1.0)) for j in range(2, 16)}
        screen = phase_from_spectrum(
            ZernikeSpectrum(tuple(coeffs.items()), r_ap), grid)
        field = ComplexField(grid, WAVELENGTH, np.exp(1j * screen.phase))
        fit = modal_fit(extract_slopes(capture(field, geometry)),
                        j_max=15, aperture_radius=r_ap)
        fitted = dict(fit.spectrum.coefficients)
        got = np.array([fitted[j] for j in range(2, 16)])
        want = np.array([coeffs[j] for j in range(2, 16)])
        errors.append(float(np.linalg.norm(got - want)
                            / np.linalg.norm(want)))
    elapsed = time.perf_counter() - start
    assert max(errors) < 0.02
    assert elapsed < 60.0
    _report(4, f"50 round trips at 23x23/150um/5.2mm: worst relative RMS "
               f"error {max(errors):.4f} < 2% in {elapsed:.1f} s")


def test_criterion_05_zernike_basis_integrity():
    for n in range(21):
        for m in range(-n, n + 1, 2):
            idx = index_from_nm(n, m)
            back = nm_from_index(idx.j)
            assert (back.n, back.m, back.j) == (n, m, idx.j)

    n_quad = 1024
    c = (np.arange(n_quad) + 0.5) / n_quad * 2.0 - 1.0
    x, y = np.meshgrid(c, c)
    rho = np.hypot(x, y)
    mask = rho <= 1.0
    rho_in, phi_in = rho[mask], np.arctan2(y, x)[mask]
    basis = np.array([zernike_eval(nm_from_index(j), rho_in, phi_in)
                      for j in range(1, 16)])
    gram = basis @ basis.T / mask.sum()
    gram_err = float(np.abs(gram - np.eye(15)).max())
    assert gram_err < 1e-3

    rng = np.random.default_rng(99)
    worst = 0.0
    pts = []
    while len(pts) < 100:
        px, py = rng.uniform(-1, 1, size=2)
        if px * px + py * py <= 0.95**2:
            pts.append((px, py))
    h = 1e-5
    for j in range(1, 16):
        idx = nm_from_index(j)

        def ev(xx, yy):
            return zernike_eval(idx, math.hypot(xx, yy),
                                math.atan2(yy, xx))

        for px, py in pts:
            fdx = (ev(px + h, py) - ev(px - h, py)) / (2 * h)
            fdy = (ev(px, py + h) - ev(px, py - h)) / (2 * h)
            gx, gy = zernike_gradient(idx, px, py)
            worst = max(worst, abs(gx - fdx), abs(gy - fdy))
    assert worst < 1e-6
    _report(5, f"index bijection exact to n=20; Gram error {gram_err:.1e} "
               f"< 1e-3; gradient vs finite differences {worst:.1e} < 1e-6")


def test_criterion_06_propagation_physics():
    grid = Grid(512, 20e-6)
    waist = grid.extent / 16
    beam = lg_mode(0, 0, waist, grid, WAVELENGTH)

    out = angular_spectrum_propagate(beam, 5.5, WATER_N)
    drift = abs(total_power(out) - total_power(beam))
    assert drift < 1e-10

    z_r = math.pi * waist**2 * WATER_N / WAVELENGTH
    grown = angular_spectrum_propagate(beam, z_r, WATER_N)
    ratio = beam_width(grown) / beam_width(beam)
    assert ratio == pytest.approx(math.sqrt(2), rel=5e-3)

    two_step = angular_spectrum_propagate(
        angular_spectrum_propagate(beam, 2.0, WATER_N), 3.5, WATER_N)
    one_step = angular_spectrum_propagate(beam, 5.5, WATER_N)
    rel = float(np.linalg.norm(two_step.amplitude - one_step.amplitude)
                / np.linalg.norm(one_step.amplitude))
    assert rel < 1e-9
    _report(6, f"power drift {drift:.1e} < 1e-10; width ratio {ratio:.6f} "
               f"vs sqrt(2); semigroup error {rel:.1e} < 1e-9")


def test_criterion_07_vortex_phenomenology():
    grid = Grid(512, 20e-6)
    waist = grid.extent / 16
    z_r = math.pi * waist**2 * WATER_N / WAVELENGTH
    beam = lg_mode(4, 0, waist, grid, WAVELENGTH)

    astig = phase_from_spectrum(
        ZernikeSpectrum(((6, 0.3 * 2 * math.pi),), 0.45 * grid.extent),
        grid)
    out = angular_spectrum_propagate(apply_phase_screen(beam, astig),
                                     z_r, WATER_N)
    vortices = find_vortices(out)
    assert len(vortices) == 4
    assert all(v.charge == 1 for v in vortices)
    assert total_vortex_charge(vortices) == 4

    stats = modal_sigma_table(0.25, 15)
    conserved = 0
    for seed in range(20):
        screen = phase_from_spectrum(
            modal_spectrum(stats, 0.45 * grid.extent, seed), grid)
        turb = angular_spectrum_propagate(
            apply_phase_screen(beam, screen), z_r, WATER_N)
        conserved += (total_vortex_charge(find_vortices(turb)) == 4)
    assert conserved == 20
    _report(7, "astigmatic splitting gives exactly 4 unit vortices; total "
               "charge 4 conserved in 20/20 turbulence realizations")


def test_criterion_08_mub_and_identity_channel_qkd():
    assert abs(mub_overlap(HORIZONTAL, DIAGONAL) - 0.5) < 1e-12

    identity = report_from_matrix(
        detection_matrix_polarization(PolarizationChannel()))
    assert identity.qber == pytest.approx(0.0, abs=1e-12)
    assert identity.key_rate == pytest.approx(1.0, abs=1e-12)

    matrix = detection_matrix_polarization(
        PolarizationChannel(depolarization=2 * 0.0401))
    for s in "HVAD":
        assert matrix.probability(s, s) == pytest.approx(0.9599, abs=1e-9)
    qber = report_from_matrix(matrix).qber
    assert qber == pytest.approx(0.0401, abs=1e-9)
    _report(8, "|<H|D>|^2 = 1/2 to 1e-12; identity channel QBER 0 / rate 1; "
               f"calibrated diagonal 0.9599, QBER {qber:.6f}")


def test_criterion_09_turbulence_error_monotonicity():
    grid = Grid(128, 8e-5)
    start = time.perf_counter()
    qbers = []
    errors = []
    for scale in (2.0, 3.0, 5.0):
        cfg = ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                            n_screens=1, screen_source="modal",
                            modal_sigmas=tuple(
                                modal_sigma_table(scale, 15).items()),
                            seed=0)
        matrix = detection_matrix_oam(cfg, [-4, 4],
                                      include_superposition_basis=True,
                                      grid=grid, n_trials=200)
        qbers.append(report_from_matrix(matrix).qber)
        se = matrix.standard_errors
        per_sent = []
        for i, s in enumerate(matrix.sent_labels):
            basis = matrix.basis_of(s)
            per_sent.append(sum(
                float(se[i, matrix.measured_labels.index(m)]) ** 2
                for m in basis if m != s))
        errors.append(math.sqrt(sum(per_sent)) / len(matrix.sent_labels))
    elapsed = time.perf_counter() - start
    for (q1, e1), (q2, e2) in zip(zip(qbers, errors),
                                  zip(qbers[1:], errors[1:])):
        assert q2 >= q1 - 2.0 * math.hypot(e1, e2)
    assert elapsed < 180.0
    _report(9, "OAM QBER non-decreasing over 3 turbulence levels "
               f"({', '.join(f'{q:.2e}' for q in qbers)}; 200 seeds each) "
               f"in {elapsed:.0f} s")


def test_criterion_10_bundled_scenario_determinism(tmp_path):
    runs = [
        ("polarization-qkd", []),
        ("oam-crosstalk", ["analysis.trials=20"]),
        ("wavefront-survey", ["frames=3"]),
        ("oam-gallery", ["frames=2"]),
    ]
    import yaml

    from hydrolink.scenario import bundled_scenarios, set_by_path
    checked = 0
    for name, overrides in runs:
        doc = yaml.safe_load(bundled_scenarios()[name])
        for item in overrides:
            key, value = item.split("=", 1)
            set_by_path(doc, key, value)
        scenario = parse_scenario(yaml.safe_dump(doc, sort_keys=True))
        first = run_scenario(scenario, tmp_path / name / "a")
        # re-run from the echoed manifest companion
        echo = (tmp_path / name / "a" / "scenario-echo.yaml").read_text()
        run_scenario(parse_scenario(echo), tmp_path / name / "b")
        for path in first.files:
            if path.suffix != ".csv":
                continue
            twin = tmp_path / name / "b" / path.name
            assert path.read_bytes() == twin.read_bytes(), path.name
            checked += 1
    assert checked > 0
    _report(10, f"rerunning 4 bundled scenarios reproduced {checked} CSV "
                "files byte-identically")
