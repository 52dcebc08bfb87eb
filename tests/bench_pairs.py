"""Interleaved benchmark pairs: a parent checkout against a changed one.

Usage: ``python tests/bench_pairs.py PARENT_ROOT CHANGE_ROOT WORKLOADS N
[--seed S] [--json OUT]``.

``WORKLOADS`` is one workload or several, separated by commas. For each,
runs ``ROOT/perfbench/sample.py ROOT WORKLOAD S run OUT`` N times for
each root, one pair at a time; the parent goes first in even pairs, the
change in odd ones, so a drift in machine load falls on both sides. Then
prints, for every end-to-end metric of ``BENCHMARK.json``: the parent's
and the change's medians, the parent's quartiles, the number of pairs in
which the change was better, whether a gain claim on that metric holds,
and whether the change is worse beyond the metric's ``bound``. A gain
holds when the change is better in at least 9 of every 10 pairs and its
median is better than the parent's by more than the parent's
interquartile range. The change is worse when its median is worse than
the parent's by more than ``bound`` times the parent's median. Then it
says whether every pair wrote outputs with the same digests on both
sides, and lists the runs' check errors; the exit status is 1 if there is
any. ``--json OUT`` also writes all of it to ``OUT``, with every pair's
metrics, the host (from ``CHANGE_ROOT/perfbench/envinfo.py``) and the
libraries each side's first sample reported.
"""

from __future__ import annotations

import argparse
import importlib.util
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


def summarize(parent: list[float], change: list[float], better: str,
              bound: float = float("inf")) -> dict:
    """Medians, the parent's quartiles, the change's wins over the pairs,
    whether a gain claim holds and whether the change is worse beyond the
    relative ``bound``, for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gap = sign * (p_med - c_med)
    return {"parent": p_med, "change": c_med, "q1": q1, "q3": q3,
            "wins": wins, "pairs": len(parent),
            "gain": wins >= WIN_SHARE * len(parent) and gap > q3 - q1,
            "bound": bound, "worse": -gap > bound * abs(p_med)}


def host(change: Path) -> dict:
    """The machine, as ``CHANGE_ROOT/perfbench/envinfo.py`` reports it."""
    spec = importlib.util.spec_from_file_location(
        "envinfo", change / "perfbench" / "envinfo.py")
    envinfo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envinfo)
    return envinfo.host()


def compare(args: argparse.Namespace, workload: str,
            metrics: list[dict]) -> dict:
    """Run one workload's pairs, print its table and return its record."""
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(sample(getattr(args, side), workload,
                                     args.seed))
        print(f"{workload} pair {k + 1}/{args.pairs}: run_s "
              f"{runs['parent'][-1]['run_s']:.3f} -> "
              f"{runs['change'][-1]['run_s']:.3f}", file=sys.stderr)
    print(f"{workload}, {args.pairs} pairs, seed {args.seed}, parent -> "
          f"change (parent quartiles; pairs the change won)")
    summaries = {}
    for metric in metrics:
        name = metric["name"]
        s = summaries[name] = summarize(
            [r[name] for r in runs["parent"]],
            [r[name] for r in runs["change"]], metric["better"],
            metric["bound"])
        print(f"  {name}: {s['parent']:.4g} -> {s['change']:.4g} "
              f"({s['q1']:.4g}-{s['q3']:.4g}; {s['wins']}/{s['pairs']}) "
              f"gain {'holds' if s['gain'] else 'does not hold'}; "
              f"{'WORSE' if s['worse'] else 'not worse'} beyond bound "
              f"{s['bound']:g}")
    same = all(p["digests"] == c["digests"]
               for p, c in zip(runs["parent"], runs["change"]))
    print(f"  outputs: {'same' if same else 'DIFFERENT'} digests")
    errors = [e for side in runs.values() for r in side for e in r["errors"]]
    for error in errors:
        print(f"  error: {error}")
    names = [m["name"] for m in metrics]
    return {"metrics": summaries, "digests_match": same, "errors": errors,
            "libraries": {side: runs[side][0]["libraries"] for side in runs},
            "pairs": [{"first": "parent" if k % 2 == 0 else "change",
                       **{side: {n: runs[side][k][n] for n in names}
                          for side in runs}}
                      for k in range(args.pairs)]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workloads", help="one or more, comma-separated")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="also write the results as JSON to OUT")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    metrics = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = {w: compare(args, w, metrics)
                 for w in args.workloads.split(",")}
    if args.json:
        args.json.write_text(json.dumps({
            "command": " ".join(["python", "tests/bench_pairs.py",
                                 *(argv if argv is not None
                                   else sys.argv[1:])]),
            "parent": str(args.parent), "change": str(args.change),
            "seed": args.seed, "pairs": args.pairs,
            "order": "pair k (from 0) runs the parent first when k is even",
            "rule": {"win_share": WIN_SHARE,
                     "gain": "wins >= win_share * pairs and the median gap "
                             "> the parent's interquartile range",
                     "worse": "the change's median is worse than the "
                              "parent's by more than bound * the parent's "
                              "median"},
            "host": host(args.change), "workloads": workloads},
            indent=1) + "\n")
    return 1 if any(w["errors"] for w in workloads.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
