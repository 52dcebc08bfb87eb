import csv
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hydrolink.channel import AliasingError, launch
from hydrolink.cli import _RUN_COMMANDS, build_parser, main
from hydrolink.field import superpose
from hydrolink.io import (fmt, screen_to_csv, sha256_of, write_csv,
                          write_pgm16)
from hydrolink import channel, runner
from hydrolink.runner import _scaled_scenario, run_scenario, sweep
from hydrolink.scenario import (_ANALYSIS, bundled_scenarios, load_scenario,
                                parse_scenario)
from hydrolink.shack_hartmann import modal_fit

from oracles import read_pgm16

FAST_WAVEFRONT = """
name: tiny-wavefront
seed: 7
frames: 3
grid:
  n_samples: 384
  spacing: 12.5e-6
source:
  kind: gaussian
  waist: 1.1e-3
channel:
  length: 5.5
  attenuation_db_per_m: 5.4
  n_screens: 2
  screens:
    kind: modal
    sigma: 0.25
analysis:
  kind: wavefront
"""

FAST_GALLERY = """
name: tiny-gallery
seed: 3
frames: 2
grid:
  n_samples: 128
  spacing: 8.0e-5
channel:
  length: 5.5
  attenuation_db_per_m: 5.4
  n_screens: 1
  screens:
    kind: modal
    sigma: 0.2
  occlusion:
    rate: 1.0
    opacity: 0.8
analysis:
  kind: images
  time_average: true
  modes:
    - kind: gaussian
    - kind: petal
      ell: 4
"""


SWEEP_OAM = """
name: sweep-oam
seed: 5
grid: {n_samples: 128, spacing: 8.0e-5}
channel:
  length: 5.5
  attenuation_db_per_m: 0.0
  n_screens: 1
  screens: {kind: modal, sigma: 0.4}
analysis:
  kind: qkd-oam
  ell_values: [-4, 4]
  trials: 4
"""


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestIo:
    def test_csv_header_and_quoting(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ("a", "b"),
                         [(1.5, 'x,"y'), (2, "plain")])
        rows = read_rows(path)
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1.5", 'x,"y']

    def test_pgm_round_trip(self, tmp_path):
        img = np.linspace(0, 1, 12).reshape(3, 4)
        path = write_pgm16(tmp_path / "t.pgm", img)
        back = read_pgm16(path)
        assert back.shape == (3, 4)
        assert back.max() == 65535
        assert back[0, 0] == 0

    def test_pgm_rejects_negative(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm16(tmp_path / "t.pgm", np.array([[-1.0, 0.0]]))

    def test_screen_csv_equals_cell_writer(self, tmp_path):
        from hydrolink.field import Grid
        from hydrolink.zernike import PhaseScreen
        phase = np.random.default_rng(2).normal(0.0, 3.0, (16, 16))
        phase[0, :10] = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0,
                         0.1, 1e17, -1e17]
        phase[4:12, 2:] = 0.0           # +0.0 cells, as outside a disk
        phase[7, 5] = -0.0
        screen = PhaseScreen(Grid(16, 1e-4), phase)

        def rows():     # the cell-by-cell rows the writer used to send
            for iy in range(16):
                for ix in range(16):
                    yield (ix, iy, screen.phase[iy, ix])

        ref = write_csv(tmp_path / "ref.csv",
                        ("x_index", "y_index", "phase_radians"), rows())
        got = screen_to_csv(screen, tmp_path / "new" / "screen.csv")
        assert got.read_bytes() == ref.read_bytes()


class TestRunScenario:
    def test_wavefront_outputs(self, tmp_path):
        s = parse_scenario(FAST_WAVEFRONT)
        result = run_scenario(s, tmp_path / "out")
        names = {p.name for p in result.files}
        assert {"coefficients_frames.csv", "coefficients_mean.csv",
                "frames_summary.csv", "screens_ground_truth.csv",
                "wavefront_mean.pgm", "wavefront_mean.csv",
                "scenario-echo.yaml", "manifest.txt"} <= names
        frames = read_rows(tmp_path / "out" / "coefficients_frames.csv")
        assert frames[0] == ["frame_id", "j", "n", "m", "a_j_radians"]
        assert len(frames) == 1 + 3 * 14
        mean = read_rows(tmp_path / "out" / "coefficients_mean.csv")
        assert mean[0] == ["j", "n", "m", "mean_abs", "std", "stderr"]
        assert len(mean) == 15

    def test_manifest_lists_every_output_with_digest(self, tmp_path):
        s = parse_scenario(FAST_WAVEFRONT)
        result = run_scenario(s, tmp_path / "out")
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        for path in result.files:
            if path.name == "manifest.txt":
                continue
            assert path.name in manifest
            assert sha256_of(path) in manifest

    def test_manifest_names_the_package_version(self, tmp_path):
        import hydrolink
        run_scenario(load_scenario("polarization-qkd"), tmp_path / "out")
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert f"package: hydrolink {hydrolink.__version__}" in lines

    def test_package_version_is_the_project_version(self):
        import tomllib

        import hydrolink
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            project = tomllib.load(f)["project"]
        assert hydrolink.__version__ == project["version"]

    def test_gallery_writes_frames_and_averages(self, tmp_path):
        s = parse_scenario(FAST_GALLERY)
        result = run_scenario(s, tmp_path / "out")
        names = {p.name for p in result.files}
        assert "gaussian_frame000.pgm" in names
        assert "petal4_frame001.pgm" in names
        assert "gaussian_mean.pgm" in names
        rows = read_rows(tmp_path / "out" / "frames_summary.csv")
        assert rows[0][0] == "mode"
        assert len(rows) == 1 + 2 * 2

    def test_time_average_is_the_mean_of_the_frames(self, tmp_path):
        from hydrolink.channel import run_channel
        from hydrolink.runner import build_source_field
        from hydrolink.seeding import TAG_FRAME, child_seed
        s = parse_scenario(FAST_GALLERY)
        run_scenario(s, tmp_path / "out")
        for m_i, (mode, label) in enumerate(zip(s.analysis.modes,
                                                ("gaussian", "petal4"))):
            source = build_source_field(mode, s.grid)
            frames = [run_channel(source, replace(
                s.channel, seed=child_seed(s.seed, TAG_FRAME, k, m_i)))
                .output_field.intensity() for k in range(s.frames)]
            want = write_pgm16(tmp_path / f"{label}_want.pgm",
                               np.mean(np.stack(frames), axis=0))
            got = tmp_path / "out" / f"{label}_mean.pgm"
            assert got.read_bytes() == want.read_bytes()

    def test_no_time_average_writes_no_mean(self, tmp_path):
        s = parse_scenario(FAST_GALLERY.replace("time_average: true",
                                                "time_average: false"))
        run_scenario(s, tmp_path / "out")
        assert (tmp_path / "out" / "gaussian_frame001.pgm").exists()
        assert not list((tmp_path / "out").glob("*_mean.pgm"))

    def test_run_moves_every_file_out_of_its_staging(self, tmp_path):
        result = run_scenario(parse_scenario(FAST_GALLERY), tmp_path / "out")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert sorted(result.files) == sorted((tmp_path / "out").iterdir())
        assert result.output_dir == tmp_path / "out"

    def test_rerun_from_echo_is_byte_identical(self, tmp_path):
        s = parse_scenario(FAST_WAVEFRONT)
        first = run_scenario(s, tmp_path / "a")
        echo = (tmp_path / "a" / "scenario-echo.yaml").read_text()
        second = run_scenario(parse_scenario(echo), tmp_path / "b")
        for path in first.files:
            if path.suffix != ".csv":
                continue
            twin = tmp_path / "b" / path.name
            assert path.read_bytes() == twin.read_bytes()

    def test_sources_launched_once_per_run_and_mode(self, tmp_path,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "launch", lambda *a: calls.append(1)
                            or launch(*a))
        run_scenario(parse_scenario(FAST_WAVEFRONT), tmp_path / "w")
        assert len(calls) == 1                      # 3 frames
        calls.clear()
        run_scenario(parse_scenario(FAST_GALLERY), tmp_path / "g")
        assert len(calls) == 2                      # 2 modes x 2 frames

    def test_frames_free_what_they_no_longer_need(self, tmp_path,
                                                  monkeypatch):
        # A wavefront frame drops its output field before centroiding, and
        # the next images mode launches once the last mode's frames are
        # freed.
        import threading
        import weakref
        from hydrolink.shack_hartmann import capture, extract_slopes
        held, freed = threading.local(), []

        def capturing(field, geometry):
            held.field = weakref.ref(field)
            return capture(field, geometry)

        def centroiding(*args, **kwargs):
            freed.append(held.field() is None)
            return extract_slopes(*args, **kwargs)

        monkeypatch.setattr(runner, "capture", capturing)
        monkeypatch.setattr(runner, "extract_slopes", centroiding)
        run_scenario(parse_scenario(FAST_WAVEFRONT), tmp_path / "w")
        assert freed == [True] * 3

        images, alive = [], []

        def writing(path, image):
            if "_frame" in path.name:
                images.append(weakref.ref(image))
            return write_pgm16(path, image)

        def launching(*args):
            alive.append(sum(ref() is not None for ref in images))
            return launch(*args)

        monkeypatch.setattr(runner.hio, "write_pgm16", writing)
        monkeypatch.setattr(channel, "launch", launching)
        run_scenario(parse_scenario(FAST_GALLERY), tmp_path / "g")
        assert len(images) == 4 and alive == [0, 0]

    def test_launch_error_names_the_source(self, tmp_path):
        s = parse_scenario("""
name: alias
grid: {n_samples: 64, spacing: 1.0e-5}
channel: {length: 5.5, attenuation_db_per_m: 0.0}
analysis:
  kind: images
  modes:
    - {kind: lg, ell: 9, waist: 1.5e-4}
""")
        with pytest.raises(AliasingError) as err:
            run_scenario(s, tmp_path / "r")
        assert str(err.value).startswith("source lg+9: split step 0, "
                                         "row 0: ")

    def test_bundled_fit_solves_normal_equations(self, tmp_path,
                                                 monkeypatch):
        # The bundled sensor's slope system has kappa ~ 6, far inside the
        # normal equations' limit, so no frame reaches the SVD solve.
        def refuse(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        run = run_scenario(load_scenario("wavefront-survey", frames=3),
                           tmp_path / "w")
        assert 5.0 < run.summary["slope_condition_max"] < 8.0

    def test_every_frame_fits_one_disk(self, tmp_path, monkeypatch):
        # At seed 1234 frame 4 lights a narrower box of lenslets than the
        # other frames; it is still fitted over the array's half-width.
        radii = []

        def recording(*args, **kwargs):
            fit = modal_fit(*args, **kwargs)
            radii.append(fit.spectrum.aperture_radius)
            return fit

        monkeypatch.setattr(runner, "modal_fit", recording)
        scenario = load_scenario("wavefront-survey", seed=1234)
        run_scenario(scenario, tmp_path / "w")
        assert len(radii) == scenario.frames == 30
        assert set(radii) == {scenario.sensor.half_width}

    def test_qkd_pol_outputs(self, tmp_path):
        s = load_scenario("polarization-qkd")
        run_scenario(s, tmp_path / "out")
        rows = read_rows(tmp_path / "out" / "qkd_report.csv")
        assert float(rows[1][0]) == pytest.approx(0.0401, abs=1e-9)
        assert 0.510 <= float(rows[1][1]) <= 0.520
        text = (tmp_path / "out" / "qkd_report.txt").read_text()
        assert "4.010 %" in text


class TestBundledRuntime:
    def test_all_bundled_scenarios_complete_quickly(self, bundled_runs):
        dirs, seconds = bundled_runs
        assert sorted(dirs) == sorted(bundled_scenarios())
        assert seconds < 300.0

    @pytest.mark.parametrize("name, qber, rate, margin", [
        ("polarization-qkd", "4.010", "0.5145", "6.993"),
        ("oam-crosstalk", "0.006", "0.9983", "10.997")])
    def test_qkd_report_text_pinned(self, bundled_runs, name, qber, rate,
                                    margin):
        # the limit is formatted from qber_threshold(); the bytes must not
        # move from the hard-coded "11.0 %" text they replaced
        text = (bundled_runs[0][name] / "qkd_report.txt").read_text()
        assert text == (
            f"sifted error rate : {qber} %\n"
            f"key rate          : {rate} bits per sifted photon\n"
            f"threshold margin  : {margin} percentage points below the "
            "11.0 % limit\n"
            "sifted fraction   : 0.500\n"
            "feasible          : yes\n")


class TestSweep:
    def test_attenuation_sweep_values(self, tmp_path):
        s = load_scenario("polarization-qkd")
        sweep(s, "attenuation_db_per_m", [0.13, 1.3, 5.4], tmp_path / "sw")
        rows = read_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert rows[0][:3] == ["parameter", "value", "transmittance"]
        trans = [float(r[2]) for r in rows[1:]]
        assert trans[0] == pytest.approx(0.848, abs=5e-4)
        assert trans[1] == pytest.approx(0.193, abs=5e-4)
        assert trans[2] == pytest.approx(1.07e-3, abs=5e-6)

    def test_zero_sigma_sweep_zero_qber(self, tmp_path):
        s = parse_scenario(SWEEP_OAM)
        sweep(s, "sigma_scale", [0.0, 0.0], tmp_path / "sw")
        rows = read_rows(tmp_path / "sw" / "sweep_summary.csv")
        for row in rows[1:]:
            assert float(row[3]) == pytest.approx(0.0, abs=1e-9)

    def test_increasing_sigma_sweep_qber_nondecreasing(self, tmp_path):
        doc = """
name: sweep-oam
seed: 5
grid: {n_samples: 128, spacing: 8.0e-5}
channel:
  length: 5.5
  attenuation_db_per_m: 0.0
  n_screens: 1
  screens: {kind: modal, sigma: 1.0}
analysis:
  kind: qkd-oam
  ell_values: [-4, 4]
  superposition_basis: true
  trials: 40
"""
        s = parse_scenario(doc)
        sweep(s, "sigma_scale", [0.5, 1.5, 4.0], tmp_path / "sw")
        rows = read_rows(tmp_path / "sw" / "sweep_summary.csv")
        qbers = [float(r[3]) for r in rows[1:]]
        errs = [float(r[4]) for r in rows[1:]]
        for (q1, e1), (q2, e2) in zip(zip(qbers, errs),
                                      zip(qbers[1:], errs[1:])):
            assert q2 >= q1 - 2 * (e1 + e2)

    def test_polarization_sweep_csv_pinned(self, tmp_path):
        sweep(load_scenario("polarization-qkd"), "attenuation_db_per_m",
              [0.13, 1.3, 5.4], tmp_path / "sw")
        row = "0.040099999999999997,0,0.51449900473719523," \
              "0.040099999999999997,0\n"
        assert (tmp_path / "sw" / "sweep_summary.csv").read_text() == (
            "parameter,value,transmittance,qber,qber_stderr,key_rate,"
            "crosstalk_mean,crosstalk_stderr\n"
            "attenuation_db_per_m,0.13,0.84820338245240423," + row +
            "attenuation_db_per_m,1.3,0.19275249131909356," + row +
            "attenuation_db_per_m,5.4000000000000004,0.001071519305237606,"
            + row)

    def test_qkd_rows_are_the_runs_records(self, tmp_path):
        s = parse_scenario(SWEEP_OAM)
        values = [0.5, 2.0]
        sweep(s, "sigma_scale", values, tmp_path / "sw")
        rows = read_rows(tmp_path / "sw" / "sweep_summary.csv")
        for k, (value, row) in enumerate(zip(values, rows[1:])):
            report = read_rows(tmp_path / "sw" / f"value{k:03d}" /
                               "qkd_report.csv")
            assert row[3] == report[1][0]           # qber
            assert row[5] == report[1][1]           # key rate
            record = run_scenario(_scaled_scenario(s, "sigma_scale", value),
                                  tmp_path / f"alone{k}").summary
            assert rows[0][3:] == list(record)
            assert row[3:] == [fmt(v) for v in record.values()]
        assert float(rows[1][4]) > 0.0              # Monte Carlo stderr

    def test_wavefront_sweep_mean_abs_grows(self, tmp_path):
        s = parse_scenario(FAST_WAVEFRONT.replace("frames: 3", "frames: 2"))
        sweep(s, "sigma_scale", [0.5, 2.0], tmp_path / "sw")
        header, *rows = read_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert header[3:5] == ["mean_abs_j2", "stderr_j2"]
        assert header[-3:] == ["residual_rms_radians_mean",
                               "n_valid_lenslets_mean",
                               "slope_condition_max"]
        assert len(header) == 3 + 2 * 14 + 3
        j2 = [float(r[3]) for r in rows]
        assert 0.0 < j2[0] < j2[1]

    def test_images_sweep_one_row_per_value(self, tmp_path):
        s = parse_scenario(FAST_GALLERY.replace("frames: 2", "frames: 1"))
        result = sweep(s, "length", [1.0, 2.0], tmp_path / "sw")
        header, *rows = read_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert header == ["parameter", "value", "transmittance",
                          "transmittance_mean", "beam_wander_rms_m"]
        assert [r[1] for r in rows] == ["1", "2"]
        for k in range(2):
            assert (tmp_path / "sw" / f"value{k:03d}" /
                    "manifest.txt") in result.files

    def test_sweep_moves_every_file_out_of_its_staging(self, tmp_path):
        s = parse_scenario(FAST_GALLERY.replace("frames: 2", "frames: 1"))
        result = sweep(s, "length", [1.0, 2.0], tmp_path / "sw")
        assert [p.name for p in tmp_path.iterdir()] == ["sw"]
        assert sorted(result.files) == sorted(
            p for p in (tmp_path / "sw").rglob("*") if p.is_file())
        assert result.files[-2:] == (tmp_path / "sw" / "sweep_summary.csv",
                                     tmp_path / "sw" / "manifest.txt")

    def test_unknown_parameter(self, tmp_path):
        s = load_scenario("polarization-qkd")
        with pytest.raises(Exception, match="sweepable"):
            sweep(s, "bogus", [1.0], tmp_path / "sw")


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "polarization-qkd" in out
        assert "wavefront-survey" in out

    def test_schema(self, capsys):
        assert main(["schema"]) == 0
        assert "channel.screens" in capsys.readouterr().out

    def test_simulate_bundled_with_overrides(self, tmp_path, capsys):
        code = main(["simulate", "polarization-qkd", "-o",
                     str(tmp_path / "r"),
                     "--set", "analysis.depolarization=0.2"])
        assert code == 0
        rows = read_rows(tmp_path / "r" / "qkd_report.csv")
        assert float(rows[1][0]) == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("command, scenario",
                             [("qkd", "wavefront-survey"),
                              ("wfs", "polarization-qkd")])
    def test_qkd_subcommand_type_checked(self, tmp_path, capsys, command,
                                         scenario):
        code = main([command, scenario, "-o", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "analysis.kind" in err
        assert command in err

    def test_wfs_subcommand(self, tmp_path, scope_file=FAST_WAVEFRONT):
        path = tmp_path / "s.yaml"
        path.write_text(scope_file)
        assert main(["wfs", str(path), "-o", str(tmp_path / "r"),
                     "--frames", "2"]) == 0
        rows = read_rows(tmp_path / "r" / "coefficients_frames.csv")
        assert len(rows) == 1 + 2 * 14

    def test_validation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nframes: 0\nanalysis:\n  kind: qkd-pol\n")
        assert main(["simulate", str(path)]) == 1

    @pytest.mark.parametrize("name, frames, kind", [
        ("oam-crosstalk", "7", "qkd-oam"),
        ("polarization-qkd", "2", "qkd-pol")])
    def test_qkd_kinds_refuse_frames(self, tmp_path, capsys, name, frames,
                                     kind):
        # A QKD run reads no frames (a qkd-oam run's realizations are
        # analysis.trials), so a frame count other than 1 fails at parse.
        assert main(["qkd", name, "--frames", frames,
                     "-o", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: frames: a {kind} analysis reads no "
                              f"frames; must be 1, got {frames} ")
        assert "analysis.trials" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("override, key", [
        ("frames: null", "frames"),
        ("grid: {n_samples: null}", "grid.n_samples"),
        ("analysis: {kind: qkd-oam, ell_values: null}",
         "analysis.ell_values")], ids=["frames", "n_samples", "ell_values"])
    def test_null_for_defaulted_key_exit_code(self, tmp_path, capsys,
                                              override, key):
        doc = {"name": "name: x", "analysis": "analysis: {kind: qkd-pol}"}
        doc[override.split(":")[0]] = override
        path = tmp_path / "null.yaml"
        path.write_text("\n".join(doc.values()) + "\n")
        assert main(["qkd", str(path), "-o", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert key in err and "null" in err
        assert not (tmp_path / "r").exists()

    def test_missing_scenario_exit_code(self, capsys):
        assert main(["simulate", "does-not-exist"]) == 1

    def test_malformed_set_value_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "polarization-qkd", "--set",
                     "channel.length=[", "-o", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: channel.length: cannot parse value")
        assert not (tmp_path / "r").exists()

    def test_non_utf8_scenario_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"name: x\n# \xff\nanalysis: {kind: qkd-pol}\n")
        assert main(["simulate", str(path), "-o", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode")

    def test_runtime_exit_code(self, tmp_path, capsys):
        # waist too large for propagation grid trips the aliasing guard
        path = tmp_path / "alias.yaml"
        path.write_text("""
name: alias
grid: {n_samples: 64, spacing: 1.0e-5}
source: {kind: lg, ell: 9, waist: 1.5e-4}
channel: {length: 5.5, attenuation_db_per_m: 0.0}
analysis:
  kind: images
  modes:
    - {kind: lg, ell: 9, waist: 1.5e-4}
""")
        assert main(["simulate", str(path), "-o",
                     str(tmp_path / "r")]) == 2

    def test_aliasing_error_names_frame_and_keys(self, tmp_path, capsys):
        code = main(["simulate", "oam-gallery", "--set",
                     "channel.screens.sigma=4", "-o", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: mode gaussian, frame 4: split "
                              "step 2, row 0: 9.33e-05 of field energy")
        for key in ("channel.screens.sigma", "grid.n_samples",
                    "grid.spacing"):
            assert key in err

    def test_wavefront_error_names_the_frame(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.mkdir()
        (out / "kept.txt").write_text("from an earlier run")
        code = main(["wfs", "wavefront-survey", "--set",
                     "channel.screens.sigma=3", "--frames", "3", "--seed",
                     "1", "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "runtime error: frame 0: split step 2, row 0: ")
        assert [p.name for p in tmp_path.iterdir()] == ["r"]
        assert [p.name for p in out.iterdir()] == ["kept.txt"]

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        # The guard trips at frame 4 of the first mode, after four frames
        # were written (and more may be, on other threads): none of them
        # reaches the output directory, and no staging directory is left.
        out = tmp_path / "r"
        out.mkdir()
        (out / "kept.txt").write_text("from an earlier run")
        code = main(["simulate", "oam-gallery", "--set",
                     "channel.screens.sigma=4", "-o", str(out)])
        assert code == 2
        assert "mode gaussian, frame 4: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["r"]
        assert [p.name for p in out.iterdir()] == ["kept.txt"]

    @pytest.mark.parametrize("first, second, label", [
        ("{kind: lg, ell: 1, wavelength: 532.0e-9}",
         "{kind: lg, ell: 1, wavelength: 450.0e-9}", "lg+1"),
        ("{kind: petal, ell: 1}", "{kind: petal, ell: -1}", "petal1")],
        ids=["lg", "petal"])
    def test_repeated_mode_label_fails_at_parse(self, tmp_path, capsys,
                                                first, second, label):
        # Frames are named by their mode's label, so a second mode under
        # the same label would overwrite the first one's images.
        path = tmp_path / "twins.yaml"
        path.write_text(f"""
name: twins
grid: {{n_samples: 64, spacing: 2.0e-5}}
frames: 2
analysis:
  kind: images
  modes:
    - {first}
    - {second}
""")
        out = tmp_path / "r"
        out.mkdir()
        assert main(["simulate", str(path), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "analysis.modes[1]" in err and repr(label) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["r", "twins.yaml"]
        assert not any(out.iterdir())

    def test_failed_sweep_leaves_no_output(self, tmp_path, capsys):
        # r0 = 0.02 m trips the guard in the second value's first trial,
        # after the first value's run was written: neither run reaches the
        # output directory, and no staging directory is left.
        out = tmp_path / "OUT"
        out.mkdir()
        (out / "kept.txt").write_text("from an earlier run")
        code = main(["sweep", "oam-crosstalk",
                     "--set", "channel.screens.kind=kolmogorov",
                     "--set", "channel.screens.r0=0.2",
                     "--set", "analysis.trials=3", "--parameter", "r0",
                     "--values", "0.4,0.02", "-o", str(out)])
        assert code == 2
        assert "runtime error: trial 0: split step 1, row 2: " in \
            capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["OUT"]
        assert [p.name for p in out.iterdir()] == ["kept.txt"]

    def test_io_exit_code(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["simulate", "polarization-qkd", "-o",
                     str(blocker / "sub")])
        assert code == 3

    @pytest.mark.parametrize("command", [
        ["simulate", "polarization-qkd"],
        ["sweep", "polarization-qkd", "--parameter", "attenuation_db_per_m",
         "--values", "0.13,5.4"]], ids=["run", "sweep"])
    def test_file_as_output_refused_before_running(
            self, tmp_path, capsys, monkeypatch, command):
        # Refused before any runner starts, not after every value ran.
        blocker = tmp_path / "F"
        blocker.write_text("a file, not a directory")
        kind = load_scenario("polarization-qkd").analysis.kind
        calls = []
        run = runner._RUNNERS[kind]
        monkeypatch.setitem(runner._RUNNERS, kind,
                            lambda *a: calls.append(a) or run(*a))
        assert main([*command, "-o", str(blocker)]) == 3
        assert f"output path {blocker} is a file" in capsys.readouterr().err
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["F"]
        assert blocker.read_text() == "a file, not a directory"

    def test_sweep_subcommand(self, tmp_path):
        assert main(["sweep", "polarization-qkd", "--parameter",
                     "attenuation_db_per_m", "--values", "0.13,5.4",
                     "-o", str(tmp_path / "sw")]) == 0
        rows = read_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert len(rows) == 3

    def test_run_prints_its_record(self, tmp_path, capsys):
        assert main(["qkd", "polarization-qkd", "-o",
                     str(tmp_path / "r")]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(":")[0] for line in lines] == [
            "  qber", "  qber_stderr", "  key_rate", "  crosstalk_mean",
            "  crosstalk_stderr"]
        assert lines[0] == "  qber: 0.0401"

    @pytest.mark.parametrize("args, key", [
        (["polarization-qkd", "--parameter", "r0", "--values", "0.2"],
         "channel.screens.kind"),
        (["oam-crosstalk", "--parameter", "length", "--values", "1,0",
          "--set", "analysis.trials=2"], "channel.length"),
        (["oam-crosstalk", "--set", "channel.screens.sigmas={2: 0.1}",
          "--set", "analysis.trials=2", "--parameter", "sigma_scale",
          "--values", "1,-1"], "channel.screens.sigmas")],
        ids=["r0", "length", "sigma_scale"])
    def test_sweep_validates_every_value_before_writing(self, tmp_path,
                                                        capsys, args, key):
        code = main(["sweep", *args, "-o", str(tmp_path / "sw")])
        assert code == 1
        assert f"error: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("key, scenario", [
        ("grid.spacing", "oam-crosstalk"),
        ("source.waist", "oam-crosstalk"),
        ("source.wavelength", "wavefront-survey"),
        ("channel.length", "oam-crosstalk"),
        ("channel.screens.aperture_radius", "wavefront-survey"),
        ("channel.screens.r0", "oam-crosstalk"),
        ("channel.occlusion.radius", "oam-gallery"),
        ("sensor.pitch", "wavefront-survey"),
        ("sensor.focal_length", "wavefront-survey"),
        ("sensor.pixel_size", "wavefront-survey"),
        ("analysis.fit_aperture_radius", "wavefront-survey")])
    def test_zero_for_positive_key_refused_before_writing(
            self, tmp_path, capsys, key, scenario):
        code = main(["simulate", scenario, "--set", f"{key}=0", "-o",
                     str(tmp_path / "r")])
        assert code == 1
        assert f"error: {key}: must be > 0.0, got 0.0" in \
            capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, key", [
        ("qkd oam-crosstalk --set 'analysis.ell_values=[-40, 40]' "
         "--set analysis.superposition_basis=false", "analysis.ell_values"),
        ("qkd oam-crosstalk --set 'analysis.ell_values=[-2, 0, 2]'",
         "analysis.superposition_basis"),
        ("qkd oam-crosstalk --set grid.n_samples=129", "grid.n_samples"),
        ("qkd oam-crosstalk --set 'channel.screens.sigmas={}'",
         "channel.screens.sigmas"),
        ("wfs wavefront-survey --set analysis.fit_aperture_radius=0.0025",
         "analysis.fit_aperture_radius"),
        ("qkd oam-crosstalk --set channel.screens.aperture_radius=0.006",
         "channel.screens.aperture_radius"),
        *((f"qkd oam-crosstalk --set 'channel.screens.sigmas={{{table}}}'",
           "channel.screens.sigmas")
          for table in ("1: 0.1", "2: -0.1", "true: 0.1", "2: .nan",
                        "2.7: 0.1")),
        ("wfs wavefront-survey --set analysis.intensity_floor=1.0",
         "analysis.intensity_floor"),
        ("qkd oam-crosstalk --seed -1", "seed"),
        ("wfs wavefront-survey --set analysis.j_max=500 --frames 2",
         "analysis.j_max"),
        ("simulate polarization-qkd "
         "--set 'analysis.modes=[{kindd: x, waist: -3}]'", "analysis.modes"),
        ("wfs wavefront-survey --set 'analysis.modes=[{kind: gaussian}]'",
         "analysis.modes"),
        ("simulate polarization-qkd --set analysis.time_average=true",
         "analysis.time_average"),
        ("wfs wavefront-survey --set analysis.time_average=true",
         "analysis.time_average")],
        ids=["unresolvable", "three-letter-superposition", "odd-n-samples",
             "empty-sigmas", "fit-aperture", "screen-aperture",
             "piston-sigma", "negative-sigma", "bool-index", "nan-sigma",
             "float-index", "intensity-floor-one", "negative-seed",
             "j-max-over-lenslets", "modes-on-qkd-pol", "modes-on-wavefront",
             "time-average-on-qkd-pol", "time-average-on-wavefront"])
    def test_oam_alphabet_checked_before_writing(self, tmp_path, capsys,
                                                 command, key):
        argv = [*shlex.split(command), "-o", str(tmp_path / "r")]
        assert main(argv) == 1
        assert f"error: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("scenario, key, reader", [
        pytest.param(scenario, f.name, other, id=f"{f.name}-on-{kind}")
        for scenario, kind in [("wavefront-survey", "wavefront"),
                               ("polarization-qkd", "qkd-pol"),
                               ("oam-crosstalk", "qkd-oam"),
                               ("oam-gallery", "images")]
        for other, fields in _ANALYSIS.items() if other != kind
        for f in fields])
    def test_another_kinds_key_refused_before_writing(self, tmp_path, capsys,
                                                      scenario, key, reader):
        code = main(["simulate", scenario, "--set", f"analysis.{key}=1",
                     "-o", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: analysis.{key}: only {reader} analysis reads this key")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("override", [["--seed", "3"],
                                          ["--set", "seed=3"]])
    def test_yaml_syntax_error_with_overrides(self, tmp_path, capsys,
                                              override):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nanalysis:\n  kind: [unclosed\n")
        assert main(["simulate", str(path)] + override) == 1
        assert "line 4, column 1" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_command_lines():
    """Argument lists of the README's "Command line" block, continuation
    lines joined and comments dropped."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("hydrolink ")]


def _readme_library_block():
    """The README's "Library" Python block."""
    return README.read_text().split("## Library", 1)[1] \
        .split("```python", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_library_block_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        names = {}
        exec(_readme_library_block(), names)
        # mixed is the combination formed from the two outputs.
        s = names["s"]
        formed = superpose([names["through_beam"].output_field,
                            names["through_ring"].output_field], [s, s])
        assert np.array_equal(names["mixed"].amplitude, formed.amplitude)
        assert (tmp_path / "runs" / "oam-lib" / "manifest.txt").is_file()

    def test_command_line_block_parses(self):
        lines = _readme_command_lines()
        assert len(lines) >= 7
        bundled = bundled_scenarios()
        for argv in lines:
            try:
                args = build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {argv}")
            if args.command not in _RUN_COMMANDS:
                continue
            assert args.scenario in bundled or \
                args.scenario.endswith(".yaml"), argv
            if args.scenario in bundled:
                kind = load_scenario(args.scenario).analysis.kind
                assert kind in _RUN_COMMANDS[args.command][1], argv
