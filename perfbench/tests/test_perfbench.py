"""Tests of the benchmark itself: span arithmetic, wrapper removal, workload
determinism, output checks, and metric names against BENCHMARK.json.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, Span  # noqa: E402
from workloads import WORKLOADS, load  # noqa: E402

import hydrolink  # noqa: E402
import hydrolink.channel  # noqa: E402
import hydrolink.qkd  # noqa: E402
import hydrolink.runner  # noqa: E402
import numpy as np  # noqa: E402
from hydrolink.field import Grid, lg_mode  # noqa: E402


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    tree = [Span("root", 0.0, 10.0, -1),
            Span("a", 1.0, 4.0, 0),
            Span("a.x", 1.5, 2.0, 1),
            Span("b", 5.0, 9.0, 0),
            Span("b.y", 5.0, 6.0, 3),
            Span("b.z", 8.0, 9.0, 3)]
    assert spans.self_times(tree) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 0.5, 0.5, 4.0 - 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [Span("root", 0.0, 10.0, -1),
            Span("a", 2.0, 6.0, 0),
            Span("b", 4.0, 8.0, 0),
            Span("c", 9.0, 12.0, 0)]   # clipped to the parent's end
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_trace_errors_want_one_root_span_covering_the_call():
    root = Span("runner.run_scenario", 2.0, 5.0, -1)
    tree = [Span("scenario.parse_scenario", 0.0, 1.0, -1), root,
            Span("channel.run_channel", 3.0, 4.0, 1)]
    assert spans.top_level(tree, ("runner.run_scenario",)) == [1]
    assert sample.trace_errors(tree, 3.0 + 1e-3) == []
    assert "lasts" in sample.trace_errors(tree, 3.5)[0]
    assert "0 top-level" in sample.trace_errors(tree[2:], 1.0)[0]


# --- wrappers ----------------------------------------------------------------

def test_recorder_wraps_every_binding_and_restores_them():
    original = hydrolink.channel.run_channel
    assert hydrolink.qkd.run_channel is original
    grid = Grid(64, 4e-5)
    beam = lg_mode(1, 0, grid.extent / 16, grid)
    cfg = hydrolink.channel.ChannelConfig(length=1.0, n_screens=1,
                                          screen_source="modal",
                                          modal_sigmas=((2, 0.1),), seed=3)
    with Recorder() as rec:
        assert hydrolink.channel.run_channel is not original
        assert hydrolink.qkd.run_channel is hydrolink.channel.run_channel
        assert hydrolink.runner.run_channel is hydrolink.channel.run_channel
        assert hydrolink.run_channel is hydrolink.channel.run_channel
        traced = hydrolink.runner.run_channel(beam, cfg)
    assert hydrolink.channel.run_channel is original
    assert hydrolink.qkd.run_channel is original
    assert hydrolink.run_channel is original
    assert np.fft.fft2.__module__ == "numpy.fft"
    assert spans.leftover_wrappers() == []
    # Tracing leaves the result unchanged.
    plain = original(beam, cfg)
    assert np.array_equal(traced.output_field.amplitude,
                          plain.output_field.amplitude)

    names = [s.name for s in rec.spans]
    assert names[0] == "channel.run_channel"
    props = [i for i, n in enumerate(names)
             if n == "channel.angular_spectrum_propagate"]
    assert len(props) == 2
    assert all(rec.spans[i].parent == 0 for i in props)
    ffts = [s for s in rec.spans if s.name.startswith("numpy.fft.")]
    assert ffts and all(rec.spans[s.parent].name
                        == "channel.angular_spectrum_propagate"
                        for s in ffts if s.parent in props)
    metrics = spans.layer_metrics(rec.spans, rec.counters, trials=0)
    assert metrics["channel.run_channel.calls"] == 1
    assert 0.0 < metrics["channel.angular_spectrum_propagate.fft_share"] < 1


def test_restore_after_exception():
    with pytest.raises(ValueError):
        with Recorder():
            hydrolink.channel.angular_spectrum_propagate(
                lg_mode(0, 0, 1e-4, Grid(32, 1e-5)), -1.0)
    assert spans.leftover_wrappers() == []


# --- workloads -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_workload(name):
    w = WORKLOADS[name]
    assert load(w, 7).to_yaml() == load(w, 7).to_yaml()
    assert load(w, 7).seed == 7
    assert load(w, 7).to_yaml() != load(w, 8).to_yaml()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_cli_scenario(name):
    import hydrolink.cli as cli
    w = WORKLOADS[name]
    args = cli.build_parser().parse_args(w.cli_args(5))
    scenario = cli._load_with_overrides(args.scenario, args.sets, args.seed,
                                        args.frames)
    assert scenario.to_yaml() == load(w, 5).to_yaml()
    if w.sweep:
        assert args.parameter == w.sweep[0]
        assert [float(v) for v in args.values.split(",")] == \
            list(w.sweep[1])


# --- output checks ---------------------------------------------------------

def test_sifted_error_rate_and_row_sums():
    labels = ["l-4", "l+4", "s+", "s-"]
    matrix = [[0.9, 0.1, 0.5, 0.5],
              [0.2, 0.8, 0.5, 0.5],
              [0.5, 0.5, 0.7, 0.3],
              [0.5, 0.5, 0.4, 0.6]]
    qber, errors = checks.sifted_error_rate(labels, matrix)
    assert qber == pytest.approx((0.1 + 0.2 + 0.3 + 0.4) / 4)
    assert errors == []
    matrix[0][1] = 0.2
    assert checks.sifted_error_rate(labels, matrix)[1]


def test_sweep_check_flags_blank_qber(tmp_path):
    header = "parameter,value,transmittance,qber,qber_stderr,key_rate," \
             "crosstalk_mean,crosstalk_stderr\n"
    (tmp_path / "sweep_summary.csv").write_text(
        header + "r0,0.2,0.5,0.01,0,0.9,0.01,0\nr0,0.4,0.5,,0,0.9,0.01,0\n")
    errors = checks.check_sweep((0.2, 0.4), tmp_path)
    assert len(errors) == 1 and "0.4" in errors[0]


# --- metric names ----------------------------------------------------------

def test_end_to_end_metrics_are_declared():
    sample = {"run_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 60.0,
              "setup_s": 0.5}
    meas = {"samples": {"run": [sample]}, "setups": [0.5]}
    assert list(run.end_to_end(meas)) == declared("end_to_end")


def test_per_layer_metrics_are_declared():
    tree = [Span("runner.run_scenario", 0.0, 1.0, -1)]
    layers = spans.layer_metrics(tree, {}, trials=0)
    layers["trace.run_s"] = 1.0
    meas = {"samples": {"run": [{"run_s": 0.9}],
                        "trace": [{"layers": layers}]}}
    metrics = run.per_layer(meas)
    assert sorted(metrics) == sorted(declared("per_layer"))
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)


def test_declared_names_follow_the_naming_rules():
    import re
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for k in ("end_to_end", "per_layer", "workloads")
             for m in spec[k]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]
