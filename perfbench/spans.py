"""Span recorder that times calls into hydrolink's modules from outside.

The traced run replaces each public function in ``TARGETS`` in every module
namespace that binds it (``hydrolink.runner.run_channel`` and
``hydrolink.qkd.run_channel`` are the same function under two names), plus
``numpy.fft.fft2``/``ifft2``. Each wrapped call records a span
``(name, start, end, parent)`` in memory; self time is a span's duration
minus the part of it that child spans cover. Leaving the recorder's
``with`` block puts every original back, so untraced runs measure the plain
program.

Span names are ``<module>.<function>``; an in-program stage recorder should
reuse them so its trace lines up with this one.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass

#: (module, function) pairs timed by the traced run.
TARGETS = (
    ("channel", "angular_spectrum_propagate"),
    ("channel", "run_channel"),
    ("channel", "realize_screens"),
    ("channel", "apply_phase_screen"),
    ("channel", "apply_occlusion"),
    ("zernike", "phase_from_spectrum"),
    ("zernike", "zernike_eval"),
    ("zernike", "kolmogorov_screen"),
    ("shack_hartmann", "capture"),
    ("shack_hartmann", "extract_slopes"),
    ("shack_hartmann", "modal_fit"),
    ("shack_hartmann", "reconstruct_wavefront"),
    ("io", "write_csv"),
    ("io", "screen_to_csv"),
    ("io", "write_pgm16"),
    ("io", "sha256_of"),
    ("field", "lg_mode"),
    ("field", "mode_overlap"),
    ("qkd", "detection_matrix_oam"),
    ("scenario", "parse_scenario"),
    ("runner", "run_scenario"),
    ("runner", "sweep"),
)

FFT_TARGETS = ("fft2", "ifft2")

PACKAGE = "hydrolink"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span


class Recorder:
    """Keeps spans and per-name counters in memory for one traced run.

    Use it as a context manager: entering wraps every target, leaving puts
    every original back, also when the block raises.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def __enter__(self):
        """Wrap every target in every hydrolink namespace that binds it."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original,
                                _HOOKS.get(fn_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        fft = importlib.import_module("numpy.fft")
        for fn_name in FFT_TARGETS:
            self._patch(fft, fn_name,
                        self.wrap(f"numpy.fft.{fn_name}",
                                  getattr(fft, fn_name)))
        return self

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __exit__(self, *exc):
        """Put every original back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False


def leftover_wrappers() -> list[str]:
    """Names of hydrolink/numpy.fft bindings still holding a wrapper."""
    names = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == PACKAGE
                                  or name.startswith(PACKAGE + ".")
                                  or name == "numpy.fft"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, "__wrapped_by_perfbench__", False):
                names.append(f"{name}.{attr}")
    return names


def _count_slopes(rec: Recorder, slopes) -> None:
    rec.count("lenslets_valid", int(slopes.valid.sum()))
    rec.count("lenslets_attempted", int(slopes.valid.size))


def _count_bytes(key: str):
    def hook(rec: Recorder, path) -> None:
        rec.count(key, path.stat().st_size)
    return hook


_HOOKS = {
    "extract_slopes": _count_slopes,
    "write_csv": _count_bytes("write_csv_bytes"),
    "write_pgm16": _count_bytes("write_pgm16_bytes"),
}


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(kids):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def _ancestor_names(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent


def layer_metrics(spans: list[Span], counters: dict[str, float],
                  trials: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by their declared names.

    ``trials`` is the number of Monte Carlo trials each
    ``detection_matrix_oam`` call runs (0 when the workload has none).
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, s in zip(spans, selfs):
        d = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + d
        own[span.name] = own.get(span.name, 0.0) + s
        durations.setdefault(span.name, []).append(d)

    fft_s = sum(span.end - span.start for i, span in enumerate(spans)
                if span.name.startswith("numpy.fft.")
                and "channel.angular_spectrum_propagate"
                in _ancestor_names(spans, i))
    # Transits sent by the qkd Monte Carlo, not by other callers.
    qkd_transits = sum(1 for i, span in enumerate(spans)
                       if span.name == "channel.run_channel"
                       and "qkd.detection_matrix_oam"
                       in _ancestor_names(spans, i))

    def pct(name: str, q: int) -> float:
        values = durations.get(name, [])
        if len(values) < 2:
            return 1e3 * values[0] if values else 0.0
        return 1e3 * statistics.quantiles(values, n=100,
                                          method="inclusive")[q - 1]

    prop = "channel.angular_spectrum_propagate"
    m: dict[str, float] = {}
    m[f"{prop}.calls"] = calls.get(prop, 0)
    m[f"{prop}.self_s"] = own.get(prop, 0.0)
    m[f"{prop}.ms_per_call"] = (1e3 * total[prop] / calls[prop]
                                if calls.get(prop) else 0.0)
    m[f"{prop}.fft_s"] = fft_s
    m[f"{prop}.fft_share"] = fft_s / total[prop] if total.get(prop) else 0.0
    rc = "channel.run_channel"
    m[f"{rc}.calls"] = calls.get(rc, 0)
    m[f"{rc}.total_s"] = total.get(rc, 0.0)
    m[f"{rc}.p50_ms"] = pct(rc, 50)
    m[f"{rc}.p90_ms"] = pct(rc, 90)
    m["channel.realize_screens.total_s"] = total.get(
        "channel.realize_screens", 0.0)
    m["channel.apply_phase_screen.self_s"] = own.get(
        "channel.apply_phase_screen", 0.0)
    for name in ("channel.apply_occlusion", "zernike.phase_from_spectrum",
                 "zernike.zernike_eval", "zernike.kolmogorov_screen",
                 "field.mode_overlap"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = own.get(name, 0.0)
    m["shack_hartmann.capture.self_s"] = own.get(
        "shack_hartmann.capture", 0.0)
    m["shack_hartmann.extract_slopes.self_s"] = own.get(
        "shack_hartmann.extract_slopes", 0.0)
    valid = counters.get("lenslets_valid", 0)
    attempted = counters.get("lenslets_attempted", 0)
    m["shack_hartmann.extract_slopes.lenslets_valid"] = valid
    m["shack_hartmann.extract_slopes.valid_fraction"] = (
        valid / attempted if attempted else 0.0)
    m["shack_hartmann.modal_fit.self_s"] = own.get(
        "shack_hartmann.modal_fit", 0.0)
    m["shack_hartmann.reconstruct_wavefront.total_s"] = total.get(
        "shack_hartmann.reconstruct_wavefront", 0.0)
    for name in ("write_csv", "write_pgm16"):
        m[f"io.{name}.calls"] = calls.get(f"io.{name}", 0)
        m[f"io.{name}.self_s"] = own.get(f"io.{name}", 0.0)
        m[f"io.{name}.bytes"] = counters.get(f"{name}_bytes", 0)
    m["io.screen_to_csv.total_s"] = total.get("io.screen_to_csv", 0.0)
    m["io.sha256_of.total_s"] = total.get("io.sha256_of", 0.0)
    m["field.lg_mode.calls"] = calls.get("field.lg_mode", 0)
    m["field.lg_mode.total_s"] = total.get("field.lg_mode", 0.0)
    dm = "qkd.detection_matrix_oam"
    m[f"{dm}.self_s"] = own.get(dm, 0.0)
    m["qkd.transits_per_trial"] = (
        qkd_transits / (calls[dm] * trials) if calls.get(dm) and trials
        else 0.0)
    m["scenario.parse_scenario.calls"] = calls.get(
        "scenario.parse_scenario", 0)
    m["scenario.parse_scenario.total_s"] = total.get(
        "scenario.parse_scenario", 0.0)
    m["runner.run_scenario.self_s"] = own.get("runner.run_scenario", 0.0)
    m["runner.sweep.self_s"] = own.get("runner.sweep", 0.0)
    return m


def top_level(spans: list[Span], names: tuple[str, ...]) -> list[int]:
    """Indices of top-level spans with one of the given names."""
    return [i for i, s in enumerate(spans)
            if s.parent < 0 and s.name in names]


def to_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent] for s in spans]
