"""hydrolink benchmark: cold scenario runs, end to end or traced by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload oam-crosstalk --seed 1 --seconds 30 \
        --trace 0

Every sample is one fresh process running one ``run_scenario`` (or one
``sweep``) call on the workload's scenario with ``--seed`` as its seed, the
way a CLI user pays for it. Samples run back to back for ``--seconds``;
each is checked for correct outputs and the run reports medians.

``--trace 0`` prints the end-to-end metrics declared in BENCHMARK.json;
``--trace 1`` alternates untraced and traced samples and prints the
per-layer metrics, including the tracing overhead. The last line of
standard output is one JSON object; the lines before it are a readable
table, the environment record and the CSV digests. The full record is also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Setup-only processes started before the samples, so setup_s is a median
#: over at least this many values plus one per sample.
SETUP_PROCESSES = 4
#: Every process must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0


def declared(root: Path) -> dict[str, dict[str, str]]:
    """Declared metric units, keyed by ``end_to_end``/``per_layer``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def run_child(root: Path, workload: str, seed: int, mode: str, out: Path,
              timeout: float) -> tuple[dict | None, float, str]:
    """One sample process; returns (result or None, wall seconds, error)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "sample.py"), str(root), workload,
           str(seed), mode, str(out)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"{mode} timed out"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, wall, f"{mode} exited {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall, ""


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run samples for ``seconds`` and collect everything they report."""
    start = time.perf_counter()
    deadline = start + seconds
    out_root = root / ".perfbench_out"
    modes = ("run", "trace") if trace else ("run",)
    samples: dict[str, list[dict]] = {m: [] for m in modes}
    setups: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    if not trace:
        for _ in range(SETUP_PROCESSES):
            res, _, err = run_child(root, workload, seed, "setup",
                                    out_root / workload, RUN_LIMIT_S)
            if res is None:
                errors.append(err)
                break
            setups.append(res["setup_s"])
    longest = 0.0
    while True:
        mode = modes[attempted % len(modes)]
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        res, wall, err = run_child(root, workload, seed, mode,
                                   out_root / workload, left)
        attempted += 1
        longest = max(longest, wall)
        if res is None or res["errors"]:
            failed += 1
            errors.append(err or "; ".join(res["errors"]))
        if res is not None:
            samples[mode].append(res)
            setups.append(res["setup_s"])
        # Two samples at least: one seed's outputs are compared byte for
        # byte, and a traced run needs an untraced one to subtract.
        if err.endswith("timed out") or (
                attempted >= 2 and time.perf_counter() + longest > deadline):
            break
    return {"samples": samples, "setups": setups, "errors": errors,
            "attempted": attempted, "failed": failed,
            "elapsed_s": time.perf_counter() - start}


def digest_errors(samples: list[dict]) -> list[str]:
    """Samples of one seed must write byte-identical CSVs."""
    first = samples[0]["digests"] if samples else {}
    return [f"sample {i} CSV digests differ from sample 0"
            for i, s in enumerate(samples[1:], 1) if s["digests"] != first]


def end_to_end(meas: dict) -> dict[str, float]:
    runs = meas["samples"]["run"]
    return {"setup_s": statistics.median(meas["setups"]),
            "run_s": statistics.median(s["run_s"] for s in runs),
            "cpu_s": statistics.median(s["cpu_s"] for s in runs),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs)}


def per_layer(meas: dict) -> dict[str, float]:
    traced = [s["layers"] for s in meas["samples"]["trace"]]
    metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    plain = statistics.median(s["run_s"] for s in meas["samples"]["run"])
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - plain
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "hydrolink" / "__init__.py").is_file():
        print(f"error: no hydrolink sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    names = declared(root)
    host = envinfo.host()
    meas = measure(root, args.workload, args.seed, args.seconds,
                   bool(args.trace))
    ok = [s for mode in meas["samples"].values() for s in mode]
    if not meas["samples"]["run"] or (args.trace
                                      and not meas["samples"]["trace"]):
        print("error: no sample completed: " + "; ".join(meas["errors"]),
              file=sys.stderr)
        return 1
    errors = list(meas["errors"]) + digest_errors(ok)
    if args.trace:
        values = per_layer(meas)
        units = names["per_layer"]
    else:
        values = end_to_end(meas)
        units = names["end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"are computed but not declared, or declared "
                           f"but not computed")

    n_runs = len(meas["samples"]["trace" if args.trace else "run"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={meas['attempted']} failed={meas['failed']} "
          f"elapsed={meas['elapsed_s']:.1f}s")
    for name in units:
        n = len(meas["setups"]) if name == "setup_s" else n_runs
        print(f"  {name:<48} {values[name]:>14.6g} {units[name]:<6} n={n}")
    print(f"  {'failed_ratio':<48} {meas['failed'] / meas['attempted']:>14.6g}"
          f" {'ratio':<6} n={meas['attempted']}")
    for err in errors:
        print(f"  FAILED: {err}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host,
              "libraries": ok[0]["libraries"],
              "digests": ok[0]["digests"], "metrics": values,
              "run_s": [s["run_s"] for s in meas["samples"]["run"]],
              "setup_s": meas["setups"], "errors": errors}
    print("env: " + json.dumps({"host": host,
                                "libraries": record["libraries"]}))
    print("digests: " + json.dumps(record["digests"], sort_keys=True))
    (root / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
     f"-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not errors,
        "attempted": meas["attempted"],
        "failed": meas["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
