"""Interleaved benchmark pairs: a parent checkout against a changed one.

Usage: ``python tests/bench_pairs.py PARENT_ROOT CHANGE_ROOT WORKLOAD N
[--seed S]``.

Runs ``ROOT/perfbench/sample.py ROOT WORKLOAD S run OUT`` N times for
each root, one pair at a time; the parent goes first in even pairs, the
change in odd ones, so a drift in machine load falls on both sides. Then
prints, for every end-to-end metric of ``BENCHMARK.json``: the parent's
and the change's medians, the parent's quartiles, the number of pairs in
which the change was better, and whether a gain claim on that metric
holds. It holds when the change is better in at least 9 of every 10
pairs and its median is better than the parent's by more than the
parent's interquartile range. Then it says whether every pair wrote
outputs with the same digests on both sides, and lists the runs' check
errors; the exit status is 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Share of pairs the change must win for a gain claim.
WIN_SHARE = 0.9


def sample(root: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/sample.py ... run`` of ``root`` in a new process."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "sample.py"),
             str(root), workload, str(seed), "run", out],
            capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(parent: list[float], change: list[float],
              better: str) -> dict:
    """Medians, the parent's quartiles, the change's wins over the pairs
    and whether a gain claim holds, for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gap = sign * (statistics.median(parent) - statistics.median(change))
    return {"parent": statistics.median(parent),
            "change": statistics.median(change), "q1": q1, "q3": q3,
            "wins": wins, "pairs": len(parent),
            "gain": wins >= WIN_SHARE * len(parent) and gap > q3 - q1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    metrics = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(sample(getattr(args, side), args.workload,
                                     args.seed))
        print(f"pair {k + 1}/{args.pairs}: run_s "
              f"{runs['parent'][-1]['run_s']:.3f} -> "
              f"{runs['change'][-1]['run_s']:.3f}", file=sys.stderr)
    print(f"{args.workload}, {args.pairs} pairs, parent -> change "
          f"(parent quartiles; pairs the change won)")
    for metric in metrics:
        name = metric["name"]
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], metric["better"])
        print(f"  {name}: {s['parent']:.4g} -> {s['change']:.4g} "
              f"({s['q1']:.4g}-{s['q3']:.4g}; {s['wins']}/{s['pairs']}) "
              f"gain {'holds' if s['gain'] else 'does not hold'}")
    same = all(p["digests"] == c["digests"]
               for p, c in zip(runs["parent"], runs["change"]))
    print(f"  outputs: {'same' if same else 'DIFFERENT'} digests")
    errors = [e for side in runs.values() for r in side for e in r["errors"]]
    for error in errors:
        print(f"  error: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
