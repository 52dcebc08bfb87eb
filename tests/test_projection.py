"""The OAM Monte Carlo's spectral projection against a real-space oracle.

``detection_matrix_oam`` stops each trial's last split step at its
aliasing guard and takes the overlaps from the guarded spectrum
(Parseval). The oracle sends every labelled state on its own through the
trial's realization with ``run_channel``'s fields path, projects each
output in real space with ``mode_overlap``, and renormalizes within each
basis: the detection matrix before the projection moved to the spectrum.
Channels come from one seeded generator of small qkd-oam cases.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hydrolink import channel
from hydrolink.channel import (AliasingError, ChannelConfig,
                               draw_realizations, run_channel)
from hydrolink.field import ConfigError, Grid, lg_mode, mode_overlap, \
    superpose
from hydrolink.qkd import detection_matrix_oam, oam_alphabet
from hydrolink.scenario import modal_sigma_table
from hydrolink.seeding import TAG_TRIAL

WAVELENGTH = 532e-9
#: (ell values, superposition basis) of the generated alphabets.
ALPHABETS = (((-1, 1), True), ((-4, 4), True), ((-3, 1, 4), False))
TRIALS = 3
#: Largest difference allowed between a cell and the oracle's.
TOLERANCE = 1e-15


def oracle(cfg: ChannelConfig, ells, superposition: bool, waist: float,
           grid: Grid, trials: int) -> np.ndarray:
    """The mean detection matrix from per-state real-space projections."""
    modes = [lg_mode(ell, 0, waist, grid, WAVELENGTH) for ell in ells]
    states, bases = list(modes), [list(range(len(ells)))]
    if superposition:
        h = 1.0 / math.sqrt(2.0)
        states += [superpose(modes, [h, h]), superpose(modes, [h, -h])]
        bases.append([2, 3])
    acc = np.zeros((len(states), len(states)))
    for k in range(trials):
        draws = draw_realizations(cfg, grid, TAG_TRIAL, k)[0]
        for i, state in enumerate(states):
            out = run_channel(state, cfg, draws).output_field
            for basis in bases:
                raw = np.array([abs(mode_overlap(out, states[b])) ** 2
                                for b in basis])
                acc[i, basis] += raw / raw.sum()
    mean = acc / trials
    for basis in bases:
        mean[:, basis] /= mean[:, basis].sum(axis=1, keepdims=True)
    return mean


def draw_case(rng: np.random.Generator, n_screens: int,
              occlusion_rate: float) -> tuple:
    """One small qkd-oam channel that ``oam_alphabet`` and the guard
    accept: (config, ells, superposition, waist, grid). Other draws are
    made again."""
    while True:
        n = int(rng.choice((32, 48, 64)))
        grid = Grid(n, float(rng.uniform(2e-5, 6e-5)))
        ells, superposition = ALPHABETS[rng.integers(len(ALPHABETS))]
        waist = grid.extent / float(rng.uniform(6.0, 8.0))
        kind = ("modal", "kolmogorov")[rng.integers(2)] if n_screens \
            else "none"
        cfg = ChannelConfig(
            length=float(rng.uniform(0.05, 0.5)),
            attenuation_db_per_m=(0.0, 5.4)[rng.integers(2)],
            n_screens=n_screens, screen_source=kind,
            modal_sigmas=tuple(modal_sigma_table(
                float(rng.uniform(0.1, 0.6)), 10).items()),
            r0=grid.extent * float(rng.uniform(60.0, 300.0)),
            occlusion_rate=occlusion_rate,
            seed=int(rng.integers(2**31)))
        try:
            oam_alphabet(ells, superposition, waist, grid)
            detection_matrix_oam(cfg, ells, superposition, waist, grid,
                                 WAVELENGTH, TRIALS)
        except (AliasingError, ConfigError):
            continue
        return cfg, ells, superposition, waist, grid


#: Every screen count with and without occluders, two draws each.
CASES = [(n_screens, rate, draw)
         for n_screens in range(4) for rate in (0.0, 1.5)
         for draw in range(2)]


@pytest.mark.parametrize("n_screens, rate, draw", CASES,
                         ids=[f"screens{s}-rate{r}-{d}" for s, r, d in CASES])
def test_generated_channels_match_the_oracle(n_screens, rate, draw):
    rng = np.random.default_rng([2026, n_screens, int(rate * 10), draw])
    cfg, ells, superposition, waist, grid = draw_case(rng, n_screens, rate)
    m = detection_matrix_oam(cfg, ells, superposition, waist, grid,
                             WAVELENGTH, TRIALS)
    want = oracle(cfg, ells, superposition, waist, grid, TRIALS)
    np.testing.assert_allclose(m.probabilities, want, rtol=0.0,
                               atol=TOLERANCE)


def test_generated_cases_cover_the_corners():
    # Some drawn case has an occluder on its last split step in one of
    # its trials, some on step 0 with no screens (the launch is then the
    # last step for its other trials); every grid size, alphabet,
    # attenuation and screen kind runs.
    last, first_and_last, seen = False, False, set()
    for n_screens, rate, draw in CASES:
        rng = np.random.default_rng([2026, n_screens, int(rate * 10), draw])
        cfg, ells, _, _, grid = draw_case(rng, n_screens, rate)
        seen |= {grid.n_samples, ells, cfg.screen_source,
                 cfg.attenuation_db_per_m}
        steps = {s for d in draw_realizations(cfg, grid, TAG_TRIAL,
                                              np.arange(TRIALS))
                 for s in d.occluders}
        last |= n_screens > 0 and n_screens in steps
        first_and_last |= n_screens == 0 and 0 in steps
    assert last and first_and_last
    assert seen == {32, 48, 64, *(ells for ells, _ in ALPHABETS), "none",
                    "modal", "kolmogorov", 0.0, 5.4}


GRID = Grid(64, 4e-5)
WAIST = GRID.extent / 7.0


def _seed_with_occluders(cfg: ChannelConfig, steps: set) -> ChannelConfig:
    """``cfg`` at the first seed whose trial 0 has occluders on exactly
    ``steps``."""
    for seed in range(1000):
        cfg = replace(cfg, seed=seed)
        if set(draw_realizations(cfg, GRID, TAG_TRIAL,
                                 0)[0].occluders) == steps:
            return cfg
    raise AssertionError(f"no seed puts occluders on {steps}")


@pytest.mark.parametrize("n_screens, steps", [
    (0, set()), (0, {0}), (2, {2}), (2, {0, 2})],
    ids=["launch-is-last", "occluder-on-step-0-is-last",
         "occluder-on-last", "occluders-first-and-last"])
def test_last_step_corners(n_screens, steps):
    cfg = ChannelConfig(length=0.3, attenuation_db_per_m=5.4,
                        n_screens=n_screens,
                        screen_source="modal" if n_screens else "none",
                        modal_sigmas=tuple(modal_sigma_table(0.1, 10)
                                           .items()),
                        occlusion_rate=1.5 if steps else 0.0)
    cfg = _seed_with_occluders(cfg, steps)
    m = detection_matrix_oam(cfg, (-4, 4), True, WAIST, GRID, WAVELENGTH, 1)
    want = oracle(cfg, (-4, 4), True, WAIST, GRID, 1)
    np.testing.assert_allclose(m.probabilities, want, rtol=0.0,
                               atol=TOLERANCE)


@pytest.mark.parametrize("n_screens", [0, 2])
def test_overlaps_are_the_real_space_overlaps(n_screens):
    # Not only the probabilities: each overlap of an output with a sent
    # field, attenuation included, is mode_overlap's of the fields path's
    # output.
    cfg = ChannelConfig(length=0.3, attenuation_db_per_m=5.4,
                        n_screens=n_screens,
                        screen_source="modal" if n_screens else "none",
                        modal_sigmas=tuple(modal_sigma_table(0.1, 10)
                                           .items()), occlusion_rate=1.5)
    sent = [lg_mode(ell, 0, WAIST, GRID, WAVELENGTH) for ell in (-4, 4)]
    for k in range(3):
        draws = draw_realizations(cfg, GRID, TAG_TRIAL, k)[0]
        got = run_channel(channel.launch(sent, cfg, None, True), cfg, draws)
        outs = run_channel(channel.launch(sent, cfg), cfg, draws)
        want = [[mode_overlap(out.output_field, m) for m in sent]
                for out in outs]
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=TOLERANCE)


def test_identity_channel_projects_to_the_identity():
    # No screens: every trial's last step is the launch, whose guarded
    # spectrum is projected; a lossless channel maps each mode to itself.
    cfg = ChannelConfig(length=0.3, attenuation_db_per_m=0.0)
    m = detection_matrix_oam(cfg, (-4, 4), True, WAIST, GRID, WAVELENGTH, 2)
    np.testing.assert_allclose(m.probabilities,
                               oracle(cfg, (-4, 4), True, WAIST, GRID, 2),
                               rtol=0.0, atol=TOLERANCE)
    assert np.allclose(np.diag(m.probabilities), 1.0, atol=1e-6)


def test_guard_trips_on_the_last_step_as_in_the_fields_path():
    # Two screens: split step 2 is the last step, which stops at its
    # guard. The guard still checks every sent state there (row 3 is s-),
    # and the trip names the trial and the step, as the fields path's
    # does for the same realization.
    cfg = ChannelConfig(length=0.3, attenuation_db_per_m=5.4, n_screens=2,
                        screen_source="modal", modal_sigmas=tuple(
                            modal_sigma_table(0.2, 10).items()), seed=5)
    with pytest.raises(AliasingError) as err:
        detection_matrix_oam(cfg, (-4, 4), True, WAIST, GRID, WAVELENGTH, 8)
    assert str(err.value).startswith("trial 6: split step 2, row 3: ")
    modes = [lg_mode(ell, 0, WAIST, GRID, WAVELENGTH) for ell in (-4, 4)]
    h = 1.0 / math.sqrt(2.0)
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [h, h], [h, -h]])
    draws = draw_realizations(cfg, GRID, TAG_TRIAL, 6)[0]
    for project in (False, True):
        launched = channel.launch(modes, cfg, rows, project)
        with pytest.raises(AliasingError) as alone:
            run_channel(launched, cfg, draws)
        assert str(err.value) == f"trial 6: {alone.value}"


def test_screenless_transit_allocates_no_working_stack():
    # With no screen, the launch is every trial's last step: a projected
    # transit reads its guarded spectrum and allocates no (d, N, N) stack.
    import tracemalloc
    grid = Grid(128, 4e-5)
    waist = grid.extent / 7.0
    cfg = ChannelConfig(length=0.3, attenuation_db_per_m=5.4)
    sent = channel.launch([lg_mode(ell, 0, waist, grid, WAVELENGTH)
                           for ell in (-4, 4)], cfg, None, True)
    draws = draw_realizations(cfg, grid, TAG_TRIAL, 0)[0]
    assert not draws.occluders
    run_channel(sent, cfg, draws)
    tracemalloc.start()
    try:
        run_channel(sent, cfg, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.n_samples ** 2 * 16
