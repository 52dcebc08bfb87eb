import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolink.channel import ChannelConfig
from hydrolink.field import ConfigError, DEFAULT_WAVELENGTH, Grid, lg_mode
from hydrolink.qkd import oam_alphabet
from hydrolink.scenario import (QKD_KINDS, ScenarioError, bundled_scenarios,
                                load_scenario, modal_sigma_table,
                                parse_document, parse_scenario,
                                schema_reference, set_by_path)
from hydrolink.shack_hartmann import (LensletArray, SlopeField, SpotImage,
                                      extract_slopes, lenslet_tiling,
                                      modal_fit)
from hydrolink.zernike import (ZernikeSpectrum, phase_from_spectrum,
                               sigma_table)

MINIMAL_WAVEFRONT = """
name: minimal
grid:
  n_samples: 384
  spacing: 12.5e-6
analysis:
  kind: wavefront
"""

#: The analysis keys each kind reads.
ANALYSIS_KEYS = {
    "wavefront": ["j_max", "fit_aperture_radius", "intensity_floor"],
    "qkd-pol": ["theta", "depolarization"],
    "qkd-oam": ["ell_values", "superposition_basis", "trials"],
    "images": ["modes", "time_average"],
}


class TestParse:
    def test_minimal_wavefront_gets_sensor_defaults(self):
        s = parse_scenario(MINIMAL_WAVEFRONT)
        assert s.sensor.count_x == 23
        assert s.sensor.count_y == 23
        assert s.sensor.pitch == pytest.approx(150e-6)
        assert s.sensor.focal_length == pytest.approx(5.2e-3)
        assert s.seed == 1234
        assert s.channel.length == 5.5
        assert s.channel.attenuation_db_per_m == 5.4

    def test_defaults_are_the_library_defaults(self):
        s = parse_scenario(MINIMAL_WAVEFRONT)
        assert s.sensor == LensletArray()
        library = ChannelConfig()
        for name in ("length", "refractive_index", "attenuation_db_per_m",
                     "n_screens", "subharmonic_levels", "occlusion_rate",
                     "occluder_opacity"):
            assert getattr(s.channel, name) == getattr(library, name), name
        assert s.source.wavelength == DEFAULT_WAVELENGTH

    def test_zero_frames_rejected_with_range_diagnostic(self):
        with pytest.raises(ScenarioError, match="frames"):
            parse_scenario(MINIMAL_WAVEFRONT + "frames: 0\n")

    def test_misspelled_key_gets_suggestion(self):
        doc = MINIMAL_WAVEFRONT.replace(
            "analysis:", "sensor:\n  lenslet_pich: 1.0e-4\nanalysis:")
        with pytest.raises(ScenarioError, match="pitch"):
            parse_scenario(doc)

    def test_unknown_top_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(MINIMAL_WAVEFRONT + "extra_section: 1\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError, match=r"line \d+"):
            parse_scenario("name: x\nanalysis:\n  kind: [unclosed\n")

    def test_missing_required_name(self):
        with pytest.raises(ScenarioError, match="name"):
            parse_scenario("analysis:\n  kind: wavefront\n")

    def test_missing_analysis_kind(self):
        with pytest.raises(ScenarioError, match="analysis.kind"):
            parse_scenario("name: x\n")

    def test_bad_enum_value(self):
        with pytest.raises(ScenarioError, match="one of"):
            parse_scenario("name: x\nanalysis:\n  kind: wavelet\n")

    def test_out_of_range_value(self):
        with pytest.raises(ScenarioError,
                           match=r"^channel\.length: must be > 0\.0, got -2"):
            parse_scenario(
                "name: x\nanalysis:\n  kind: qkd-pol\n"
                "channel:\n  length: -2.0\n")

    def test_below_inclusive_minimum(self):
        with pytest.raises(ScenarioError, match=r"^channel\."
                           r"attenuation_db_per_m: must be >= 0\.0, got -1"):
            parse_scenario(
                "name: x\nanalysis:\n  kind: qkd-pol\n"
                "channel:\n  attenuation_db_per_m: -1.0\n")

    def test_wrong_type(self):
        with pytest.raises(ScenarioError, match="integer"):
            parse_scenario(
                "name: x\nframes: two\nanalysis:\n  kind: qkd-pol\n")

    def test_empty_document(self):
        with pytest.raises(ScenarioError, match="empty"):
            parse_scenario("")

    def test_images_needs_modes(self):
        with pytest.raises(ScenarioError, match="modes"):
            parse_scenario("name: x\nanalysis:\n  kind: images\n")

    def test_misspelled_kind_reported_at_kind(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario("name: x\nanalysis:\n  kind: qkd-pl\n"
                           "  theta: 0.1\n")
        assert info.value.where == "analysis.kind"
        assert "qkd-pol" in str(info.value)

    def test_top_level_time_average_refused(self):
        with pytest.raises(ScenarioError, match="unknown key 'time_average'"):
            parse_scenario("name: x\ntime_average: true\nanalysis:\n"
                           "  kind: images\n  modes: [{kind: gaussian}]\n")

    def test_parse_does_not_share_schema_defaults(self):
        doc = "name: x\nanalysis: {kind: qkd-oam}\n"
        parse_scenario(doc).resolved["analysis"]["ell_values"].append(9)
        assert parse_scenario(doc).analysis.ell_values == (-4, 4)

    def test_oam_ell_values_validated(self):
        with pytest.raises(ScenarioError, match="distinct"):
            parse_scenario(
                "name: x\nanalysis:\n  kind: qkd-oam\n"
                "  ell_values: [4, 4]\n")

    def test_oam_alphabet_needs_two_letters(self):
        # One ell value carries no key: BB84 needs two states per basis.
        with pytest.raises(ScenarioError, match="analysis.ell_values"):
            parse_scenario(
                "name: x\nanalysis:\n  kind: qkd-oam\n"
                "  ell_values: [4]\n")

    @pytest.mark.parametrize("keys, where, match", [
        ("ell_values: [-40, 40]", "analysis.ell_values", "resolve"),
        ("ell_values: [-2, 0, 2], superposition_basis: true",
         "analysis.superposition_basis", "exactly two")],
        ids=["unresolvable", "three-letter-superposition"])
    def test_oam_alphabet_rules_checked_at_parse_time(self, keys, where,
                                                      match):
        with pytest.raises(ScenarioError, match=match) as info:
            parse_scenario(
                "name: x\ngrid: {n_samples: 128, spacing: 8.0e-5}\n"
                f"analysis: {{kind: qkd-oam, {keys}}}\n")
        assert info.value.where == where

    def test_incommensurate_sensor_grid_rejected(self):
        with pytest.raises(ScenarioError, match="pitch"):
            parse_scenario(
                "name: x\ngrid:\n  n_samples: 384\n  spacing: 1.3e-5\n"
                "analysis:\n  kind: wavefront\n")

    def test_kolmogorov_requires_r0(self):
        with pytest.raises(ScenarioError, match="r0"):
            parse_scenario(
                "name: x\nanalysis:\n  kind: qkd-pol\n"
                "channel:\n  n_screens: 2\n  screens:\n"
                "    kind: kolmogorov\n")

    def test_waist_must_fit_grid(self):
        with pytest.raises(ScenarioError, match="waist"):
            parse_scenario(
                "name: x\nsource:\n  waist: 0.01\nanalysis:\n"
                "  kind: qkd-pol\n")

    def test_scientific_notation_strings_accepted(self):
        # YAML 1.1 parses dotless exponents as strings; coerce them
        s = parse_scenario(
            "name: x\nsensor:\n  pitch: 150e-6\nanalysis:\n"
            "  kind: qkd-pol\n")
        assert s.sensor.pitch == pytest.approx(150e-6)

    def test_null_kept_only_where_the_default_is_none(self):
        s = parse_scenario("name: x\nsource: {waist: null}\n"
                           "analysis: {kind: qkd-pol}\n")
        assert s.source.waist is None
        with pytest.raises(ScenarioError, match="source.wavelength"):
            parse_scenario("name: x\nsource: {wavelength: null}\n"
                           "analysis: {kind: qkd-pol}\n")
        with pytest.raises(ScenarioError, match="^name: .*null"):
            parse_scenario("name: null\nanalysis: {kind: qkd-pol}\n")

    def test_explicit_sigma_table(self):
        s = parse_scenario(
            "name: x\nanalysis:\n  kind: qkd-pol\n"
            "channel:\n  n_screens: 1\n  screens:\n"
            "    kind: modal\n    sigmas: {2: 0.4, 5: 0.1}\n")
        assert s.channel.modal_sigmas == ((2, 0.4), (5, 0.1))


class TestMessages:
    """The parser's exact texts: one wrong type per kind, one out-of-range
    value per bound, and the schema page's line of a key per bound and of
    a key with choices."""

    @pytest.mark.parametrize("item, message", [
        ("channel.length=true", "channel.length: expected a number, got True"),
        ("frames=2.5", "frames: expected an integer, got 2.5"),
        ("analysis.superposition_basis=1",
         "analysis.superposition_basis: expected true/false, got 1"),
        ("name=3", "name: expected a string, got 3"),
        ("analysis.ell_values=4",
         "analysis.ell_values: expected a list, got 4"),
        ("channel.screens.sigmas=[1]",
         "channel.screens.sigmas: expected a mapping, got [1]"),
        ("grid.n_samples=8", "grid.n_samples: must be >= 16, got 8"),
        ("channel.length=0", "channel.length: must be > 0.0, got 0.0"),
        ("channel.occlusion.opacity=1.5",
         "channel.occlusion.opacity: must be <= 1.0, got 1.5"),
    ])
    def test_parse_error_text(self, item, message):
        with pytest.raises(ScenarioError) as info:
            load_scenario("oam-crosstalk", [item])
        assert str(info.value) == message

    @pytest.mark.parametrize("line", [
        "  n_samples              int    default 256 (>= 16)",
        "  spacing                float  default 4e-05 (> 0.0)",
        "  opacity                float  default 1.0 (>= 0.0, <= 1.0)",
        "  kind                   str    default 'gaussian' "
        "(one of ['gaussian', 'lg', 'petal'])",
    ])
    def test_schema_line(self, line):
        assert line in schema_reference().splitlines()

    @pytest.mark.parametrize("item, message", [
        ("channel.screen.kind=modal",
         "channel: unknown key 'screen'; did you mean 'screens'?"),
        ("channel.occlusions.rate=1",
         "channel: unknown key 'occlusions'; did you mean 'occlusion'?"),
        ("chanel.length=1", "unknown key 'chanel'; did you mean 'channel'?"),
        ("seeed=1", "unknown key 'seeed'; did you mean 'seed'?"),
    ])
    def test_misspelled_section_gets_suggestion(self, item, message):
        with pytest.raises(ScenarioError) as info:
            load_scenario("oam-crosstalk", [item])
        assert str(info.value) == message


class TestWalkOrder:
    """The parser checks the top level, then each section in the order
    grid, source, channel, channel.screens, channel.occlusion, sensor,
    analysis; a document with two faults reports the first one met."""

    QKD = {"kind": "qkd-pol"}

    @pytest.mark.parametrize("doc, where, message", [
        ({"bogus": 1, "channel": {"lenght": 1}, "analysis": QKD},
         "", "unknown key 'bogus'"),
        ({"channel": {"lenght": 1, "screens": {"kind": "wavy"}},
          "analysis": QKD},
         "channel", "unknown key 'lenght'; did you mean 'length'?"),
        ({"channel": {"screens": {"kind": "wavy"}}, "sensor": {"pitch": -1},
          "analysis": QKD}, "channel.screens.kind",
         "must be one of ['none', 'modal', 'kolmogorov'], got 'wavy'"),
        ({"sensor": {"pitch": -1}, "analysis": {"kind": "wavy"}},
         "sensor.pitch", "must be > 0.0, got -1.0"),
        ({"grid": {"n_samples": 15}, "source": {"kind": "wavy"},
          "analysis": QKD}, "grid.n_samples", "must be >= 16, got 15"),
        ({"analysis": 3}, "analysis", "expected a mapping section, got 3"),
        ({"analysis": None}, "analysis.kind", "missing required key"),
        ({}, "analysis.kind", "missing required key"),
        ({"channel": "abc", "analysis": QKD},
         "channel", "expected a mapping section, got 'abc'"),
    ], ids=["top-before-channel", "channel-before-screens",
            "screens-before-sensor", "sensor-before-analysis",
            "grid-before-source", "analysis-not-a-mapping", "analysis-null",
            "analysis-absent", "channel-not-a-mapping"])
    def test_first_fault_in_walk_order(self, doc, where, message):
        with pytest.raises(ScenarioError) as info:
            parse_document({"name": "x", **doc})
        assert info.value.where == where
        assert str(info.value) == (f"{where}: {message}" if where
                                   else message)


class TestDuplicateKeys:
    """A key repeated within one mapping is a syntax error, not a silent
    last-one-wins; a ``<<`` merge may still be overridden."""

    def test_top_level_repeat_refused(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario("name: dup\nname: dup2\nanalysis: {kind: qkd-pol}\n")
        assert str(info.value) == \
            "line 2, column 1: syntax error: found duplicate key 'name'"

    def test_nested_repeat_refused(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario("name: dup\nchannel:\n  length: 5.5\n"
                           "  length: 1.0\nanalysis: {kind: qkd-pol}\n")
        assert str(info.value) == \
            "line 4, column 3: syntax error: found duplicate key 'length'"

    def test_set_value_repeat_refused(self):
        with pytest.raises(ScenarioError) as info:
            load_scenario("polarization-qkd",
                          ["channel={length: 2.0, length: 3.0}"])
        assert info.value.where == "channel"
        assert "found duplicate key 'length'" in str(info.value)

    def test_merge_key_may_be_overridden(self):
        s = parse_scenario(
            "name: merged\nchannel:\n"
            "  <<: {length: 5.5, attenuation_db_per_m: 1.3}\n"
            "  length: 2.0\nanalysis: {kind: qkd-pol}\n")
        assert (s.channel.length, s.channel.attenuation_db_per_m) == \
            (2.0, 1.3)

    def test_merged_anchor_may_be_overridden(self):
        s = parse_scenario(
            "name: x\nsource: &beam {kind: lg, ell: 1}\nanalysis:\n"
            "  kind: images\n  modes: [{<<: *beam, ell: 2}, *beam]\n")
        assert [m.label for m in s.analysis.modes] == ["lg+2", "lg+1"]


class TestKernelRules:
    """The parser reports a kernel's own rule: its message, at the key."""

    BASE = {"name": "x", "grid": {"n_samples": 128, "spacing": 8e-5},
            "analysis": {"kind": "qkd-pol"}}
    GRID = Grid(128, 8e-5)

    @pytest.mark.parametrize("kernel, sections, key", [
        (lambda: lg_mode(0, 0, 0.01, TestKernelRules.GRID),
         {"source": {"waist": 0.01}}, "source.waist"),
        (lambda: lenslet_tiling(LensletArray(), Grid(384, 1.3e-5)),
         {"grid": {"n_samples": 384, "spacing": 1.3e-5},
          "analysis": {"kind": "wavefront"}}, "sensor.pitch"),
        (lambda: lenslet_tiling(LensletArray(), Grid(256, 12.5e-6)),
         {"grid": {"n_samples": 256, "spacing": 12.5e-6},
          "analysis": {"kind": "wavefront"}}, "grid.n_samples"),
        (lambda: sigma_table({2: math.nan}.items()),
         {"channel": {"n_screens": 1, "screens": {
             "kind": "modal", "sigmas": {2: math.nan}}}},
         "channel.screens.sigmas"),
        (lambda: phase_from_spectrum(ZernikeSpectrum(((2, 0.1),), 0.006),
                                     TestKernelRules.GRID),
         {"channel": {"screens": {"aperture_radius": 0.006}}},
         "channel.screens.aperture_radius"),
        (lambda: extract_slopes(SpotImage(np.ones((23, 23, 30, 30)),
                                          LensletArray(), 532e-9), 1.0),
         {"grid": {"n_samples": 384, "spacing": 12.5e-6},
          "analysis": {"kind": "wavefront", "intensity_floor": 1.0}},
         "analysis.intensity_floor"),
        (lambda: modal_fit(SlopeField(*np.zeros((2, 23, 23)),
                                      np.ones((23, 23), bool),
                                      LensletArray()), j_max=500),
         {"grid": {"n_samples": 384, "spacing": 12.5e-6},
          "analysis": {"kind": "wavefront", "j_max": 500}},
         "analysis.j_max")],
        ids=["waist", "pitch", "array-extent", "nan-sigma", "aperture",
             "intensity-floor", "j-max"])
    def test_parser_reports_the_kernel_rule(self, kernel, sections, key):
        with pytest.raises(ValueError) as direct:
            kernel()
        with pytest.raises(ScenarioError) as parsed:
            parse_document({**self.BASE, **sections})
        assert str(parsed.value) == f"{key}: {direct.value}"


class TestIntegerRule:
    """Mode indices and ell values keep ``field.check_count``'s rule: a
    bool or a float is refused, a numpy integer passes as its int."""

    @pytest.mark.parametrize("j, message", [
        (True, "mode index must be an integer, got True"),
        (2.0, "mode index must be an integer, got 2.0"),
        (1, "mode index must be >= 2, got 1")])
    def test_sigma_table_refuses(self, j, message):
        with pytest.raises(ConfigError) as err:
            sigma_table([(j, 0.1)], "screens.sigmas")
        assert (str(err.value), err.value.key) == (message,
                                                   "screens.sigmas")

    def test_sigma_table_keeps_indices_distinct(self):
        with pytest.raises(ConfigError, match="^mode index 4 is listed "
                                              "twice$"):
            sigma_table([(4, 0.1), (np.int64(4), 0.2)])

    def test_sigma_table_takes_numpy_integers(self):
        table = sigma_table([(np.int64(4), 0.1), (2, 0.3)])
        assert table == ((2, 0.3), (4, 0.1))
        assert all(type(j) is int for j, _ in table)

    @pytest.mark.parametrize("ell", [True, 2.0],
                             ids=["bool", "float"])
    def test_ell_values_refused(self, ell):
        with pytest.raises(ConfigError) as err:
            oam_alphabet([-4, ell], False, 8e-4, Grid(128, 8e-5))
        assert (str(err.value), err.value.key) == (
            f"ell value must be an integer, got {ell!r}", "ell_values")

    def test_ell_values_take_numpy_integers(self):
        ells = oam_alphabet([np.int64(4), -4], True, 8e-4, Grid(128, 8e-5))
        assert ells == (-4, 4) and all(type(e) is int for e in ells)

    def test_ell_value_message_at_parse_time(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("name: x\nanalysis: {kind: qkd-oam, "
                           "ell_values: [-4, true]}\n")
        assert str(err.value) == ("analysis.ell_values: ell value must be "
                                  "an integer, got True")


class TestRoundTrip:
    def test_yaml_echo_reparses_identically(self):
        s1 = parse_scenario(MINIMAL_WAVEFRONT)
        s2 = parse_scenario(s1.to_yaml())
        assert s1.resolved == s2.resolved
        assert s1.channel == s2.channel
        assert s1.sensor == s2.sensor

    def test_bundled_scenarios_parse(self):
        bundled = bundled_scenarios()
        assert set(bundled) == {"wavefront-survey", "polarization-qkd",
                                "oam-crosstalk", "oam-gallery"}
        for name, text in bundled.items():
            s = parse_scenario(text)
            assert s.name == name

    def test_load_by_name_and_path(self, tmp_path):
        s = load_scenario("polarization-qkd")
        assert s.analysis.kind == "qkd-pol"
        path = tmp_path / "custom.yaml"
        path.write_text(MINIMAL_WAVEFRONT)
        assert load_scenario(path).name == "minimal"

    def test_bundled_name_not_shadowed_by_directory(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "polarization-qkd").mkdir()
        assert load_scenario("polarization-qkd").name == "polarization-qkd"

    def test_load_missing(self):
        with pytest.raises(ScenarioError, match="bundled"):
            load_scenario("no-such-scenario")

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(bundled_scenarios())),
           seed=st.integers(0, 2**32 - 1),
           frames=st.integers(1, 500),
           length=st.floats(1e-3, 100.0),
           attenuation=st.floats(0.0, 50.0))
    def test_loaded_overrides_round_trip(self, name, seed, frames, length,
                                         attenuation):
        sets = [f"channel.length={length!r}",
                f"channel.attenuation_db_per_m={attenuation!r}"]
        if load_scenario(name).analysis.kind in QKD_KINDS and frames != 1:
            # QKD kinds read no frames: any other count fails at parse.
            with pytest.raises(ScenarioError, match="^frames: "):
                load_scenario(name, sets, seed, frames)
            frames = 1
        s = load_scenario(name, sets, seed, frames)
        assert (s.seed, s.frames) == (seed, frames)
        assert (s.channel.length, s.channel.attenuation_db_per_m) == \
            (length, attenuation)
        assert parse_scenario(s.to_yaml()).to_yaml() == s.to_yaml()

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_echo_lists_only_its_kinds_keys(self, name):
        s = load_scenario(name)
        echo = yaml.safe_load(s.to_yaml())["analysis"]
        assert sorted(echo) == sorted(["kind",
                                       *ANALYSIS_KEYS[s.analysis.kind]])
        again = parse_scenario(s.to_yaml())
        assert again.resolved == s.resolved
        assert again.analysis == s.analysis

    def test_load_rejects_malformed_set(self):
        with pytest.raises(ScenarioError, match="key.path=value"):
            load_scenario("polarization-qkd", ["seed"])


class TestHelpers:
    def test_modal_sigma_table_tilt_dominated(self):
        table = modal_sigma_table(0.3, 15)
        assert set(table) == set(range(2, 16))
        assert table[2] == pytest.approx(0.3)         # n = 1 anchor
        assert table[2] > table[5] > table[15]

    def test_set_by_path(self):
        doc = {"channel": {"length": 5.5}}
        set_by_path(doc, "channel.length", "3.0")
        set_by_path(doc, "frames", "7")
        assert doc["channel"]["length"] == 3.0
        assert doc["frames"] == 7

    def test_schema_lists_each_analysis_key_once_under_its_kind(self):
        listed = []
        for block in schema_reference().split("\n\n"):
            title, *rows = block.splitlines()
            listed += [(title, row.split()[0]) for row in rows
                       if title.startswith("analysis") and row[2] != " "]
        assert listed == [("analysis", "kind")] + [
            (f"analysis, kind {kind}", key)
            for kind, keys in ANALYSIS_KEYS.items() for key in keys]

    def test_schema_reference_mentions_every_section(self):
        text = schema_reference()
        for token in ("grid", "source", "channel.screens", "sensor",
                      "analysis", "default", "required"):
            assert token in text
