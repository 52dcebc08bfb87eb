"""One benchmark sample in a fresh process, as a CLI user pays for it.

Usage: python3 perfbench/sample.py ROOT WORKLOAD SEED MODE OUT_DIR

MODE is ``setup`` (import and load only), ``run`` (one untraced
``run_scenario``/``sweep`` call) or ``trace`` (the same call with the span
recorder installed, which also checks that its runner root span covers
the timed call). Lazy caches inside the package are cold, since the
process is new. Prints one JSON object on its last line of output; a run
that raises exits non-zero.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

#: Seconds by which the runner root span and the timed call may differ:
#: the span starts and ends inside the timed interval, by a few calls.
ROOT_COVER_S = 1e-2


def main(argv: list[str]) -> int:
    root, name, seed, mode, out = (Path(argv[1]), argv[2], int(argv[3]),
                                   argv[4], Path(argv[5]))
    src = root / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import hydrolink
    import workloads
    workload = workloads.WORKLOADS[name]
    if mode == "trace":
        import spans
        recorder = spans.Recorder()
    else:
        recorder = contextlib.nullcontext()
    with recorder:
        scenario = workloads.load(workload, seed)
        setup_s = time.perf_counter() - t0
        if Path(hydrolink.__file__).resolve().parent != (
                src / "hydrolink").resolve():
            print(f"imported hydrolink from {hydrolink.__file__}, not {src}",
                  file=sys.stderr)
            return 3
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        c0 = time.process_time()
        w0 = time.perf_counter()
        workloads.execute(workload, scenario, out)
        run_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import checks
    import envinfo
    result = {"setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_kib / 1024.0,
              "errors": checks.check(workload, scenario, out),
              "digests": checks.digests(out),
              "libraries": envinfo.libraries()}
    if mode == "trace":
        result["errors"] += trace_errors(recorder.spans, run_s)
        trials = (scenario.analysis.trials
                  if scenario.analysis.kind == "qkd-oam" else 0)
        layers = spans.layer_metrics(recorder.spans, recorder.counters,
                                     trials)
        layers["trace.run_s"] = run_s
        result["layers"] = layers
        (out.parent / f"{name}.spans.json").write_text(
            json.dumps(spans.to_json(recorder.spans)))
    print(json.dumps(result))
    return 0


def trace_errors(recorded, run_s: float) -> list[str]:
    """A traced run leaves no wrapper behind and has one runner root span
    that covers the timed call."""
    import spans
    errors = []
    leftover = spans.leftover_wrappers()
    if leftover:
        errors.append(f"wrappers left installed: {leftover}")
    roots = spans.top_level(recorded, ("runner.run_scenario", "runner.sweep"))
    if len(roots) != 1:
        errors.append(f"{len(roots)} top-level runner spans, want 1")
    else:
        root = recorded[roots[0]]
        if abs((root.end - root.start) - run_s) > ROOT_COVER_S:
            errors.append(f"runner span lasts {root.end - root.start} s, "
                          f"timed call {run_s} s")
    return errors


if __name__ == "__main__":
    sys.exit(main(sys.argv))
