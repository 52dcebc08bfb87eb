import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hydrolink import channel, seeding
from hydrolink.channel import AliasingError, ChannelConfig, run_channel
from hydrolink.field import (ANTIDIAGONAL, DIAGONAL, HORIZONTAL, VERTICAL,
                             Grid, lg_mode, mode_overlap, superpose)
from hydrolink.qkd import (DetectionMatrix, PolarizationBasis,
                           PolarizationChannel, QkdReport,
                           bb84_key_rate, binary_entropy,
                           detection_matrix_oam,
                           detection_matrix_polarization, mub_overlap,
                           qber_threshold, report_from_matrix)
from hydrolink.runner import build_source_field
from hydrolink.scenario import (load_scenario, modal_sigma_table,
                                parse_scenario)
from hydrolink.seeding import TAG_TRIAL, child_seed

# 50-digit arithmetic oracle values, frozen:
#   h(0.0401)        = 0.24275049763140234...
#   1 - 2 h(0.0401)  = 0.51449900473719531...
H_0401 = 0.24275049763140234
RATE_0401 = 0.51449900473719531

#: Depolarization q = 2 * QBER reproduces the measured 4.01% error rate.
CALIBRATED = PolarizationChannel(depolarization=2 * 0.0401)


class TestMubOverlap:
    def test_same_state(self):
        assert mub_overlap(HORIZONTAL, HORIZONTAL) == pytest.approx(1.0)

    def test_cross_basis_is_half(self):
        for a in (HORIZONTAL, VERTICAL):
            for b in (ANTIDIAGONAL, DIAGONAL):
                assert abs(mub_overlap(a, b) - 0.5) < 1e-12

    def test_intra_basis_orthogonal(self):
        assert mub_overlap(ANTIDIAGONAL, DIAGONAL) < 1e-12
        assert mub_overlap(HORIZONTAL, VERTICAL) < 1e-12

    def test_basis_type_validates_orthogonality(self):
        with pytest.raises(ValueError):
            PolarizationBasis("bad", (HORIZONTAL, DIAGONAL), ("H", "D"))


class TestPolarizationChannel:
    def test_identity_statistics(self):
        ch = PolarizationChannel(0.0, 0.0)
        assert ch.outcome_probability(HORIZONTAL, HORIZONTAL) == 1.0
        assert ch.outcome_probability(HORIZONTAL, VERTICAL) == 0.0

    def test_calibrated_depolarization(self):
        matrix = detection_matrix_polarization(CALIBRATED)
        assert report_from_matrix(matrix).qber == pytest.approx(0.0401,
                                                                abs=1e-9)

    def test_quarter_rotation_randomizes_rectilinear(self):
        ch = PolarizationChannel(theta=math.pi / 4, depolarization=0.0)
        matrix = detection_matrix_polarization(ch)
        assert matrix.probability("H", "V") == pytest.approx(0.5, abs=1e-12)

    def test_invalid_depolarization(self):
        with pytest.raises(ValueError):
            PolarizationChannel(0.0, 1.2)


class TestDetectionMatrixPolarization:
    def test_identity_channel(self):
        m = detection_matrix_polarization(PolarizationChannel())
        for s in "HVAD":
            assert m.probability(s, s) == pytest.approx(1.0, abs=1e-12)
        for s in "HV":
            for meas in "AD":
                assert m.probability(s, meas) == pytest.approx(0.5,
                                                               abs=1e-12)

    def test_calibrated_diagonal(self):
        m = detection_matrix_polarization(CALIBRATED)
        for s in "HVAD":
            assert m.probability(s, s) == pytest.approx(0.9599, abs=1e-9)
        assert m.probability("H", "V") == pytest.approx(0.0401, abs=1e-9)

    def test_half_rotation_swaps_rectilinear(self):
        m = detection_matrix_polarization(
            PolarizationChannel(theta=math.pi / 2))
        assert m.probability("H", "V") == pytest.approx(1.0, abs=1e-12)
        assert m.probability("H", "H") == pytest.approx(0.0, abs=1e-12)

    def test_rows_conditionally_stochastic(self):
        m = detection_matrix_polarization(
            PolarizationChannel(theta=0.3, depolarization=0.2))
        for i in range(4):
            assert m.probabilities[i, :2].sum() == pytest.approx(1.0,
                                                                 abs=1e-9)
            assert m.probabilities[i, 2:].sum() == pytest.approx(1.0,
                                                                 abs=1e-9)


class TestQberFromMatrix:
    def test_identity_gives_zero(self):
        m = detection_matrix_polarization(PolarizationChannel())
        assert report_from_matrix(m).qber == pytest.approx(0.0, abs=1e-15)

    def test_uniform_gives_half(self):
        probs = np.full((4, 4), 0.5)
        m = DetectionMatrix(sent_labels=("H", "V", "A", "D"),
                            measured_labels=("H", "V", "A", "D"),
                            probabilities=probs,
                            bases=(("H", "V"), ("A", "D")))
        assert report_from_matrix(m).qber == pytest.approx(0.5)

    def test_relabeling_invariance(self):
        ch = PolarizationChannel(theta=0.2, depolarization=0.1)
        m = detection_matrix_polarization(ch)
        q = report_from_matrix(m).qber
        perm = [1, 0, 3, 2]      # swap within each basis, sender+receiver
        relabeled = DetectionMatrix(
            sent_labels=m.sent_labels,
            measured_labels=m.measured_labels,
            probabilities=m.probabilities[np.ix_(perm, perm)],
            bases=m.bases)
        assert report_from_matrix(relabeled).qber == pytest.approx(
            q, abs=1e-12)


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_measured_error_rate(self):
        assert binary_entropy(0.0401) == pytest.approx(H_0401, abs=1e-12)
        assert binary_entropy(0.0401) == pytest.approx(0.2428, abs=1e-4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestKeyRate:
    def test_perfect_channel(self):
        assert bb84_key_rate(0.0) == 1.0

    def test_measured_error_rate(self):
        rate = bb84_key_rate(0.0401)
        assert rate == pytest.approx(RATE_0401, abs=1e-12)
        assert 0.510 <= rate <= 0.520

    def test_near_threshold(self):
        assert abs(bb84_key_rate(0.11)) < 2e-3

    def test_monotone_nonincreasing(self):
        qs = np.linspace(0.0, 0.5, 10001)
        rates = [bb84_key_rate(float(q)) for q in qs]
        assert all(r1 >= r2 - 1e-15 for r1, r2 in zip(rates, rates[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bb84_key_rate(0.6)


class TestThreshold:
    def test_value(self):
        assert 0.1099 <= qber_threshold() <= 0.1101

    def test_is_root(self):
        assert abs(bb84_key_rate(qber_threshold())) < 1e-5

    @given(q=st.floats(1e-9, 0.5 - 1e-9))
    def test_property_threshold_is_root_to_1e6(self, q):
        # 1 - 2h(Q) is positive below the root and negative above it, so a
        # threshold within 1e-6 of the root splits the signs 1e-6 away.
        t = qber_threshold()
        assume(abs(q - t) > 1e-6)
        assert (1.0 - 2.0 * binary_entropy(q) > 0.0) == (q < t)

    def test_unique_root_by_scan(self):
        # key rate (before clamping) strictly decreasing on (0, 0.5)
        qs = np.linspace(1e-6, 0.5 - 1e-6, 10000)
        vals = 1.0 - 2.0 * np.array([binary_entropy(float(q)) for q in qs])
        assert np.all(np.diff(vals) < 0)
        signs = np.sign(vals)
        assert int(np.sum(signs[1:] != signs[:-1])) == 1


class TestReport:
    def test_identity_channel_report(self):
        report = report_from_matrix(
            detection_matrix_polarization(PolarizationChannel()))
        assert report.qber == pytest.approx(0.0, abs=1e-12)
        assert report.key_rate == pytest.approx(1.0, abs=1e-9)
        assert report.sifted_fraction == 0.5
        assert report.feasible()

    def test_calibrated_report(self):
        report = report_from_matrix(detection_matrix_polarization(CALIBRATED))
        assert report.qber == pytest.approx(0.0401, abs=1e-9)
        assert report.key_rate == pytest.approx(RATE_0401, abs=1e-9)
        assert report.threshold_margin == pytest.approx(
            qber_threshold() - 0.0401, abs=1e-9)

    def test_invalid_qber(self):
        with pytest.raises(ValueError):
            QkdReport(qber=1.5, key_rate=0.0, threshold_margin=0.0,
                      sifted_fraction=0.5)

    def test_error_statistics_closed_form(self):
        # One three-state basis: six wrong outcomes over three sent states.
        p = np.array([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.0, 0.25, 0.75]])
        se = np.arange(1, 10).reshape(3, 3) / 100.0
        m = DetectionMatrix(sent_labels=("a", "b", "c"),
                            measured_labels=("a", "b", "c"), probabilities=p,
                            bases=(("a", "b", "c"),), standard_errors=se)
        report = report_from_matrix(m)
        wrong_se = [0.02, 0.03, 0.04, 0.06, 0.07, 0.08]
        root = math.sqrt(sum(e * e for e in wrong_se))
        assert report.qber == pytest.approx((0.2 + 0.3 + 0.25) / 3)
        assert report.qber_stderr == pytest.approx(root / 3)
        assert report.crosstalk_mean == pytest.approx(0.75 / 6)
        assert report.crosstalk_stderr == pytest.approx(root / 6)

    def test_analytic_matrix_has_zero_errors(self):
        m = detection_matrix_polarization(CALIBRATED)
        assert np.array_equal(m.standard_errors, np.zeros((4, 4)))
        report = report_from_matrix(m)
        # Cross-basis entries (1/2) are not crosstalk.
        assert report.crosstalk_mean == pytest.approx(0.0401, abs=1e-12)
        assert report.qber_stderr == 0.0
        assert report.crosstalk_stderr == 0.0


OAM_GRID = Grid(128, 8e-5)


def _clean_channel():
    return ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                         n_screens=0, screen_source="none")


def _turbulent_channel(scale, seed=0):
    return ChannelConfig(length=5.5, attenuation_db_per_m=0.0,
                         n_screens=1, screen_source="modal",
                         modal_sigmas=tuple(
                             modal_sigma_table(scale, 15).items()),
                         seed=seed)


class TestDetectionMatrixOam:
    def test_trial_outputs_freed_before_the_next_trial(self, monkeypatch):
        # A trial's outputs are views of its (2, N, N) working stack; kept
        # into the thread's next trial, they would hold a second stack.
        # Trials run on WORKERS threads but are taken in turn, each alone,
        # so the peak does not depend on how the threads' transients
        # happen to overlap; every worker then runs two trials or more, and
        # the peak must stay that of one trial.
        import threading
        import tracemalloc
        monkeypatch.setattr(seeding, "WORKERS", 2)
        realize = seeding.realize

        def in_turn(fn, count):
            turn, finished = threading.Condition(), [0]

            def taken_in_turn(k):
                with turn:
                    turn.wait_for(lambda: finished[0] == k)
                try:
                    return fn(k)
                finally:
                    with turn:
                        finished[0] += 1
                        turn.notify_all()

            return realize(taken_in_turn, count)

        monkeypatch.setattr(channel, "realize", in_turn)
        cfg = _turbulent_channel(0.3)

        def peak(n_trials):
            tracemalloc.start()
            try:
                detection_matrix_oam(cfg, [-4, 4], grid=OAM_GRID,
                                     n_trials=n_trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)                                 # fill the plans
        stack = 2 * OAM_GRID.n_samples ** 2 * 16
        workers = seeding.WORKERS
        assert peak(1 + 2 * workers) - peak(1) < stack / 2

    def test_zero_turbulence_identity(self):
        m = detection_matrix_oam(_clean_channel(), [-4, 4], grid=OAM_GRID,
                                 n_trials=2)
        np.testing.assert_allclose(m.probabilities, np.eye(2), atol=1e-6)
        assert report_from_matrix(m).qber < 1e-6

    def test_superposition_basis_identity_and_mub(self):
        m = detection_matrix_oam(_clean_channel(), [-4, 4],
                                 include_superposition_basis=True,
                                 grid=OAM_GRID, n_trials=2)
        assert m.sent_labels == ("l-4", "l+4", "s+", "s-")
        for i in range(4):
            assert m.probabilities[i, i] == pytest.approx(1.0, abs=1e-6)
        # cross-basis projections are unbiased at 1/2
        assert m.probability("l+4", "s+") == pytest.approx(0.5, abs=1e-6)
        assert m.probability("s-", "l-4") == pytest.approx(0.5, abs=1e-6)

    def test_attenuation_drops_out_after_sifting(self):
        lossy = ChannelConfig(length=5.5, attenuation_db_per_m=5.4,
                              n_screens=0, screen_source="none")
        m = detection_matrix_oam(lossy, [-4, 4], grid=OAM_GRID, n_trials=2)
        np.testing.assert_allclose(m.probabilities, np.eye(2), atol=1e-6)

    def test_crosstalk_grows_with_turbulence(self):
        offdiag = []
        for scale in (0.5, 1.5, 4.0):
            m = detection_matrix_oam(_turbulent_channel(scale), [-4, 4],
                                     include_superposition_basis=True,
                                     grid=OAM_GRID, n_trials=60)
            offdiag.append(report_from_matrix(m).qber)
        assert offdiag[0] < offdiag[1] < offdiag[2]

    def test_symmetric_crosstalk_under_isotropic_turbulence(self):
        m = detection_matrix_oam(_turbulent_channel(2.0), [-4, 4],
                                 grid=OAM_GRID, n_trials=120)
        p_up = m.probability("l-4", "l+4")
        p_dn = m.probability("l+4", "l-4")
        se = math.hypot(
            m.standard_errors[0, 1], m.standard_errors[1, 0])
        assert abs(p_up - p_dn) <= 3 * max(se, 1e-12)

    def test_identical_trials_have_zero_standard_error(self):
        # Without screens every trial is the same transit, so the spread is
        # zero; a one-pass variance reports ~2e-9 here from cancellation.
        m = detection_matrix_oam(ChannelConfig(n_screens=0), [-4, 4],
                                 include_superposition_basis=True,
                                 grid=OAM_GRID, n_trials=10)
        assert m.standard_errors.max() <= 1e-15

    def test_aliasing_error_names_the_trial(self):
        with pytest.raises(AliasingError) as err:
            detection_matrix_oam(_turbulent_channel(12.0), [-4, 4], True,
                                 grid=OAM_GRID, n_trials=3)
        assert str(err.value).startswith("trial 0: split step 1, row 0: ")

    def test_one_transit_matches_per_state_transits(self):
        # Reference: each state sent on its own through the trial's
        # realization and projected in real space, as the Monte Carlo did
        # before it batched them; the trial seed fixes the screens and
        # occluders of every call. Only l-4 and l+4 cross the channel now,
        # projected on l-4 and l+4 from the last step's guarded spectrum
        # (Parseval), and every s+- amplitude is formed from theirs by
        # linearity, so every cell moves by rounding only.
        cfg = replace(_turbulent_channel(0.5, seed=3), n_screens=2,
                      occlusion_rate=1.5)
        m = detection_matrix_oam(cfg, [-4, 4],
                                 include_superposition_basis=True,
                                 grid=OAM_GRID, n_trials=3)
        lg = [lg_mode(ell, 0, OAM_GRID.extent / 16.0, OAM_GRID, 532e-9)
              for ell in (-4, 4)]
        h = 1.0 / math.sqrt(2.0)
        modes = {"l-4": lg[0], "l+4": lg[1], "s+": superpose(lg, [h, h]),
                 "s-": superpose(lg, [h, -h])}
        bases = (("l-4", "l+4"), ("s+", "s-"))
        labels = m.sent_labels
        acc = np.zeros((4, 4))
        for trial in range(3):
            trial_cfg = replace(cfg, seed=child_seed(cfg.seed, TAG_TRIAL,
                                                     trial))
            for i, s in enumerate(labels):
                out = run_channel(modes[s], trial_cfg).output_field
                for basis in bases:
                    raw = np.array([abs(mode_overlap(out, modes[b])) ** 2
                                    for b in basis])
                    for b, p in zip(basis, raw / raw.sum()):
                        acc[i, labels.index(b)] += p
        mean = acc / 3
        for basis in bases:
            idx = [labels.index(b) for b in basis]
            mean[:, idx] /= mean[:, idx].sum(axis=1, keepdims=True)
        assert labels == ("l-4", "l+4", "s+", "s-")
        np.testing.assert_allclose(m.probabilities, mean, rtol=0.0,
                                   atol=1e-15)

    def test_projects_by_linearity(self, monkeypatch):
        # d outputs x d computational modes per trial; one projection per
        # (output, label) pair would be d x 4, and per (sent state, label)
        # pair 4 x 4.
        pairs = []

        def counted(spec, targets):
            pairs.append(len(spec) * len(targets))
            return project(spec, targets)

        project = channel._project
        monkeypatch.setattr(channel, "_project", counted)
        detection_matrix_oam(_turbulent_channel(0.5), [-4, 4],
                             include_superposition_basis=True,
                             grid=OAM_GRID, n_trials=3)
        assert pairs == [2 * 2] * 3

    def test_sources_launched_once(self, monkeypatch):
        # The oam-crosstalk run: 100 trials through 2 screens. Step 0 is
        # the same for every trial, so it runs once: 1 + 100 x 2 forward
        # FFTs, not 100 x 3, plus one for the projection targets. Each
        # trial's last step stops at its guard, so the inverse FFTs are
        # the launch's and one per trial: 101, not 201.
        s = load_scenario("oam-crosstalk")
        ana = s.analysis
        calls = {"fft2": 0, "ifftn": 0}
        for name in calls:
            def counted(*args, _real=getattr(np.fft, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        detection_matrix_oam(s.channel, ana.ell_values,
                             ana.superposition_basis, s.source.waist,
                             s.grid, s.source.wavelength, ana.trials)
        assert (ana.trials, s.channel.n_screens) == (100, 2)
        assert calls == {"fft2": 1 + 200 + 1, "ifftn": 1 + 100}

    def test_launch_error_names_the_sources(self):
        # l = +-9 on 64 samples of 10 um already aliases over the first
        # step; the error names every sent state.
        with pytest.raises(AliasingError) as err:
            detection_matrix_oam(ChannelConfig(attenuation_db_per_m=0.0),
                                 [-9, 9], True, waist=1.5e-4,
                                 grid=Grid(64, 1e-5), n_trials=2)
        assert str(err.value).startswith(
            "sources l-9, l+9, s+, s-: split step 0, row 2: ")

    def test_bad_trial_count_builds_no_mode(self, monkeypatch):
        import hydrolink.qkd as qmod

        def refuse(*args):
            raise AssertionError("a mode was built")

        monkeypatch.setattr(qmod, "lg_mode", refuse)
        with pytest.raises(ValueError, match="n_trials"):
            detection_matrix_oam(_clean_channel(), [-4, 4], grid=OAM_GRID,
                                 n_trials=0)

    @pytest.mark.parametrize("ells, superposition", [
        ([4, 4], False), ([4], False), ([-2, 0, 2], True), ([-40, 40], False),
        ([4.0, -4.0], False)], ids=["duplicate", "one-letter",
                                    "three-letter-superposition",
                                    "unresolvable", "not-integers"])
    def test_alphabet_rules_shared_with_parser(self, ells, superposition):
        with pytest.raises(ValueError) as direct:
            detection_matrix_oam(_clean_channel(), ells, superposition,
                                 grid=OAM_GRID, n_trials=1)
        with pytest.raises(ValueError) as parsed:
            parse_scenario(
                f"name: x\ngrid: {{n_samples: {OAM_GRID.n_samples}, "
                f"spacing: {OAM_GRID.spacing}}}\nanalysis: {{kind: qkd-oam, "
                f"ell_values: {ells}, superposition_basis: "
                f"{str(superposition).lower()}}}\n")
        assert str(parsed.value).endswith(f": {direct.value}")

    def test_resolution_guard(self):
        tiny = Grid(16, 1e-4)
        with pytest.raises(ValueError, match="resolve"):
            detection_matrix_oam(_clean_channel(), [-40, 40], grid=tiny,
                                 n_trials=1)

    def test_duplicate_ell_rejected(self):
        with pytest.raises(ValueError):
            detection_matrix_oam(_clean_channel(), [4, 4], grid=OAM_GRID,
                                 n_trials=1)

    def test_one_letter_alphabet_rejected(self):
        with pytest.raises(ValueError, match="two"):
            detection_matrix_oam(_clean_channel(), [4], grid=OAM_GRID,
                                 n_trials=1)

    def test_default_beam_is_the_scenario_default(self, monkeypatch):
        import hydrolink.qkd as qmod
        used = {}

        def record(ell, p, waist, grid, wavelength):
            used.update(waist=waist, grid=grid, wavelength=wavelength)
            raise LookupError("recorded")

        monkeypatch.setattr(qmod, "lg_mode", record)
        with pytest.raises(LookupError):
            detection_matrix_oam(_clean_channel(), [-1, 1])
        scenario = parse_scenario("name: x\nanalysis: {kind: qkd-oam}\n")
        assert scenario.source.waist is None
        assert used["grid"] == scenario.grid
        beam = lg_mode(0, 0, used["waist"], used["grid"], used["wavelength"])
        assert np.array_equal(
            beam.amplitude,
            build_source_field(scenario.source, scenario.grid).amplitude)

    @settings(max_examples=8, deadline=None)
    @given(ells=st.lists(st.integers(-3, 3), min_size=2, max_size=3,
                         unique=True),
           superposition=st.booleans(), sigma=st.floats(0.0, 0.4),
           seed=st.integers(0, 2**16), trials=st.integers(1, 3))
    def test_property_random_channel_row_stochastic(self, ells,
                                                    superposition, sigma,
                                                    seed, trials):
        if superposition:
            ells = ells[:2]
        cfg = ChannelConfig(n_screens=2, screen_source="modal",
                            modal_sigmas=tuple(
                                modal_sigma_table(sigma, 10).items()),
                            seed=seed)
        m = detection_matrix_oam(cfg, ells, superposition,
                                 grid=Grid(64, 1.5e-4), n_trials=trials)
        p = m.probabilities
        assert np.all(p >= 0.0) and np.all(p <= 1.0 + 1e-12)
        for basis in m.bases:
            cols = [m.measured_labels.index(b) for b in basis]
            np.testing.assert_allclose(p[:, cols].sum(axis=1), 1.0,
                                       rtol=0.0, atol=1e-12)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            DetectionMatrix(sent_labels=("a", "b"),
                            measured_labels=("a", "b"),
                            probabilities=np.array([[0.9, 0.3],
                                                    [0.1, 0.7]]),
                            bases=(("a", "b"),))
