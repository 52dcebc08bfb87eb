"""Frames and OAM trials mapped over threads by ``seeding.realize``:
results in index order, the first index alone on the calling thread, the
serial loop's error, and outputs that do not depend on the number of
threads."""

import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hydrolink import channel, seeding, shack_hartmann, zernike
from hydrolink.channel import AliasingError
from hydrolink.qkd import detection_matrix_oam
from hydrolink.runner import run_scenario, sweep
from hydrolink.scenario import load_scenario
from hydrolink.seeding import TAG_FRAME, TAG_TRIAL, realize


def test_results_in_index_order(monkeypatch):
    monkeypatch.setattr(seeding, "WORKERS", 3)

    def fn(k):
        time.sleep(0.002 * (12 - k))       # later indices finish first
        return k * k

    assert realize(fn, 12) == [k * k for k in range(12)]
    assert realize(fn, 1) == [0]
    assert realize(fn, 0) == []


def test_every_index_runs_once_under_frequent_switches(monkeypatch):
    # More threads than cores, switching as often as the interpreter can.
    monkeypatch.setattr(seeding, "WORKERS", 8)
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        got = realize(lambda k: calls.append(k) or -k, 3000)
        assert time.perf_counter() - start < 30.0
    finally:
        sys.setswitchinterval(interval)
    assert got == [-k for k in range(3000)]
    assert sorted(calls) == list(range(3000))


def test_first_index_runs_alone_on_the_caller(monkeypatch):
    monkeypatch.setattr(seeding, "WORKERS", 3)
    idle = threading.active_count()
    seen = {}

    def fn(k):
        seen[k] = (threading.current_thread(), threading.active_count())

    realize(fn, 6)
    assert seen[0] == (threading.current_thread(), idle)
    assert len({thread for thread, _ in seen.values()}) <= 3
    assert threading.active_count() == idle


_KOLMOGOROV = ("channel.screens.kind=kolmogorov", "channel.screens.r0=0.2",
               "analysis.trials=4")
_PLANS = {"propagation": channel._propagation_plan,
          "disk": zernike._disk_plan,
          "lenslet": shack_hartmann._lenslet_plan,
          "gradient basis": shack_hartmann._gradient_basis,
          "kolmogorov": zernike._kolmogorov_plan}


def _run(name, sets=(), frames=None, sweep_of=None, out=None):
    """One short run of a bundled scenario, or a sweep of it over
    ``sweep_of`` = (parameter, values)."""
    scenario = load_scenario(name, sets, seed=1, frames=frames)
    if sweep_of:
        sweep(scenario, *sweep_of, out)
    else:
        run_scenario(scenario, out)


#: Each short run, (scenario, --set pairs, frames, (swept parameter,
#: values) or None), with the builds of each plan it uses.
_TRAFFIC = {
    "wavefront-survey": (("wavefront-survey", (), 2, None),
                         {"propagation": 1, "disk": 2, "lenslet": 1,
                          "gradient basis": 1}),
    "oam-crosstalk": (("oam-crosstalk", ("analysis.trials=3",), None, None),
                      {"propagation": 1, "disk": 1}),
    "oam-gallery": (("oam-gallery", (), 2, None),
                    {"propagation": 1, "disk": 1}),
    "sweep-kolmogorov": (("oam-crosstalk",
                          _KOLMOGOROV[:2] + ("analysis.trials=3",), None,
                          ("r0", [0.2, 0.4, 0.8])),
                         {"propagation": 1, "kolmogorov": 3}),
}


def test_plans_built_once_per_run(tmp_path, monkeypatch):
    # Each plan sees its keys in runs, so its one entry is built once per
    # distinct key: the first frame or trial runs alone on the calling
    # thread and builds the run's entries before any helper starts, and a
    # wavefront run's screens and its fitted wavefront sit on two disks.
    monkeypatch.setattr(seeding, "WORKERS", 2)
    got = {}
    for workload, (run, _) in _TRAFFIC.items():
        for plan in _PLANS.values():
            plan.cache_clear()
        _run(*run, tmp_path / workload)
        got[workload] = {what: plan.cache_info().misses
                         for what, plan in _PLANS.items()
                         if plan.cache_info().misses}
    assert got == {workload: builds
                   for workload, (_, builds) in _TRAFFIC.items()}


@pytest.mark.parametrize("name, sets, frames, sweep_of, plan", [
    pytest.param("wavefront-survey", (), 2, ("length", [1.0, 3.0, 5.5]),
                 channel._propagation_plan, id="length"),
    pytest.param("oam-crosstalk", _KOLMOGOROV, None, ("r0", [0.2, 0.4, 0.8]),
                 zernike._kolmogorov_plan, id="r0")])
def test_a_sweep_keeps_one_plan_entry(tmp_path, name, sets, frames, sweep_of,
                                      plan):
    # Each value's plan has its own key; a plan keeps only the last one.
    _run(name, sets, frames, sweep_of, tmp_path / "out")
    assert plan.cache_info().currsize == 1


def test_lowest_failure_raised_after_every_lower_index(monkeypatch):
    monkeypatch.setattr(seeding, "WORKERS", 3)
    started, done = [], []

    def fn(k):
        started.append(k)
        if k == 4:                         # fails first
            raise ValueError("four")
        time.sleep({1: 0.05, 2: 0.3, 3: 0.15}.get(k, 0.0))
        if k == 3:                         # fails later, at a lower index
            raise ValueError("three")
        done.append(k)

    with pytest.raises(ValueError, match="^three$"):
        realize(fn, 40)
    assert sorted(done) == [0, 1, 2]       # 2 ended after both failures
    assert sorted(started) == list(range(len(started)))
    assert len(started) <= 6               # no index started after a failure


@pytest.mark.parametrize("name, sets, frames, r0_values, n_files", [
    pytest.param("wavefront-survey", (), 4, None, 6, id="wavefront-survey-4"),
    pytest.param("oam-gallery", (), None, None, 6, id="oam-gallery-None"),
    pytest.param("oam-crosstalk", ("analysis.trials=7",), None, None, 3,
                 id="oam-crosstalk"),
    pytest.param("oam-crosstalk", _KOLMOGOROV, None, [0.2, 0.4], 7,
                 id="sweep-kolmogorov")])
def test_outputs_do_not_depend_on_the_thread_count(tmp_path, monkeypatch,
                                                   name, sets, frames,
                                                   r0_values, n_files):
    scenario = load_scenario(name, sets, seed=1, frames=frames)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(seeding, "WORKERS", workers)
        out = tmp_path / str(workers)
        if r0_values:
            sweep(scenario, "r0", r0_values, out)
        else:
            run_scenario(scenario, out)
        outputs.append({str(p.relative_to(out)): p.read_bytes()
                        for p in out.rglob("*")
                        if p.suffix in (".csv", ".pgm")})
    assert len(outputs[0]) >= n_files
    assert outputs[0] == outputs[1]


def _oam_trials(scenario, out):
    detection_matrix_oam(scenario.channel, [-4, 4],
                         waist=scenario.source.waist, grid=scenario.grid,
                         n_trials=40)


#: Each caller of the one realization loop: (scenario, frames, the tag
#: and the path after the index that its realizations are drawn at, how
#: it runs, how its error names realization k).
_LOOPS = {
    "wavefront-frame": ("wavefront-survey", 40, TAG_FRAME, (), run_scenario,
                        "frame {}"),
    "images-frame": ("oam-gallery", 40, TAG_FRAME, (0,), run_scenario,
                     "mode gaussian, frame {}"),
    "oam-trial": ("oam-crosstalk", None, TAG_TRIAL, (), _oam_trials,
                  "trial {}"),
}


@pytest.mark.parametrize("loop", sorted(_LOOPS))
def test_failing_trial_named_as_in_the_serial_loop(tmp_path, monkeypatch,
                                                   loop):
    # Realizations 5 and later trip the guard; with three threads, later
    # ones may fail first, but the error names realization 5, for frames
    # and trials alike. A transit's index is known by its drawn screens
    # (an images frame's, of the first mode).
    monkeypatch.setattr(seeding, "WORKERS", 3)
    name, frames, tag, path, runs, named = _LOOPS[loop]
    scenario = load_scenario(name, seed=1, frames=frames)
    cfg = scenario.channel
    tripping = {channel.draw_realizations(cfg, scenario.grid, tag, k,
                                          *path)[0].screens.tobytes(): k
                for k in range(5, 40)}
    run = channel.run_channel

    def guarded(source, config, draws):
        k = tripping.get(draws.screens.tobytes())
        if k is not None:
            time.sleep(0.01 * (40 - k))        # later ones fail sooner
            raise AliasingError(f"tripped at {k}")
        return run(source, config, draws)

    monkeypatch.setattr(channel, "run_channel", guarded)
    with pytest.raises(AliasingError) as err:
        runs(scenario, tmp_path / "out")
    assert str(err.value) == f"{named.format(5)}: tripped at 5"


def test_every_draw_runs_on_the_calling_thread(tmp_path, monkeypatch):
    # Runs make every frame's and trial's scalar draws in one batch before
    # the workers start, so every seed hash, modal coefficient and
    # occluder draw (oam-gallery's, keyed through stream_key) runs on the
    # calling thread.
    monkeypatch.setattr(seeding, "WORKERS", 2)
    threads = {}

    def recording(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.setdefault(fn.__name__, set()).add(
                threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    for fn in (seeding.child_seed, seeding.normals, seeding.stream_key,
               channel.draw_realizations, channel.run_channel):
        wrapper = recording(fn)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hydrolink":
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    _run("oam-crosstalk", ("analysis.trials=7",), out=tmp_path / "oam")
    _run("wavefront-survey", frames=4, out=tmp_path / "wfs")
    _run("oam-gallery", frames=2, out=tmp_path / "gallery")
    transits = threads.pop("run_channel")
    assert {"child_seed", "normals", "stream_key",
            "draw_realizations"} <= set(threads)
    assert all(seen == {threading.current_thread()}
               for seen in threads.values())
    assert len(transits) > 1               # helpers ran transits too


def test_drawn_realizations_are_compact():
    # A run holds every frame's or trial's draws at once: 2,000
    # oam-crosstalk realizations (two screens of 14 coefficients each),
    # drawn one by one or in one batch, take well under 1 KB apiece.
    scenario = load_scenario("oam-crosstalk", seed=1)
    cfg, grid = scenario.channel, scenario.grid
    channel.draw_realizations(cfg, grid, TAG_TRIAL, 0)
    for draw in (lambda: [channel.draw_realizations(cfg, grid, TAG_TRIAL,
                                                    k)[0]
                          for k in range(2000)],
                 lambda: channel.draw_realizations(cfg, grid, TAG_TRIAL,
                                                   np.arange(2000))):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            drawn = draw()
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert drawn[1999].screens.shape == (2, 14)
        assert peak < 2 << 20
