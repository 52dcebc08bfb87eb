"""Write the SHA-256 of every file the benchmarked runs write, except each
``manifest.txt`` (it holds the wall time).

Usage: ``python tests/output_digests.py OUT [--keep DIR] [--against
PARENT_FILE [--parent-tree PARENT_DIR]]``.
The four bundled scenarios,
the Kolmogorov r0 sweep of oam-crosstalk (``channel.screens.kind=
kolmogorov``, ``r0=0.2``, ``analysis.trials=25``, r0 = 0.2/0.4/0.8 m) and a
two-frame length sweep of wavefront-survey (1/3/5.5 m, so the cached plans
change key within one process) run at seeds 1, 2 and 1234, into a
temporary directory, or into ``DIR`` with ``--keep DIR``. ``OUT`` gets one
``<digest>  <seed>/<run>/<file>`` line per file, sorted by path (the file
is ``DIR/<seed>/<run>/<file>``): the CSVs and PGMs, each
``scenario-echo.yaml`` and each ``qkd_report.txt``. A change that claims
byte-identical outputs checks this file against the one its parent writes:
with ``--against PARENT_FILE``, every path whose digest differs, or that
only one of the two files lists, is printed, and the exit status is 1 if
there is any. With ``--parent-tree PARENT_DIR``, the parent's run kept by
``--keep PARENT_DIR``, each differing CSV also gets the largest absolute
and relative difference over its numeric cells (a text cell or a row count
that differs is named instead), which is how a change says which digits
moved.
"""

import argparse
import csv
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from hydrolink.io import sha256_of  # noqa: E402
from hydrolink.runner import run_scenario, sweep  # noqa: E402
from hydrolink.scenario import bundled_scenarios, load_scenario  # noqa: E402

SEEDS = (1, 2, 1234)
KOLMOGOROV = ("channel.screens.kind=kolmogorov", "channel.screens.r0=0.2",
              "analysis.trials=25")
R0_VALUES = [0.2, 0.4, 0.8]
LENGTHS = [1.0, 3.0, 5.5]


def digests(seed: int, base: Path) -> dict[str, str]:
    """``{relative path: SHA-256}`` of every file of one seed but the
    manifests."""
    for name in bundled_scenarios():
        run_scenario(load_scenario(name, seed=seed), base / name)
    sweep(load_scenario("oam-crosstalk", KOLMOGOROV, seed=seed), "r0",
          R0_VALUES, base / "sweep-kolmogorov")
    sweep(load_scenario("wavefront-survey", seed=seed, frames=2), "length",
          LENGTHS, base / "sweep-length")
    return {f"{seed}/{path.relative_to(base).as_posix()}": sha256_of(path)
            for path in base.rglob("*")
            if path.is_file() and path.name != "manifest.txt"}


def read_digests(path: Path) -> dict[str, str]:
    """``{relative path: digest}`` of a file this script wrote."""
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in path.read_text().splitlines())}


def differences(found: dict[str, str], parent: dict[str, str]) -> list[str]:
    """Every path whose digest differs, or that only one side lists."""
    return sorted(path for path in found.keys() | parent.keys()
                  if found.get(path) != parent.get(path))


def _cells(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def cell_differences(found: Path, parent: Path) -> str:
    """The largest absolute and relative difference over the numeric cells
    of two CSVs (relative to the parent's cell; inf where it is 0), or
    what keeps them from being compared cell by cell."""
    rows, parent_rows = _cells(found), _cells(parent)
    if [len(r) for r in rows] != [len(r) for r in parent_rows]:
        return "rows or columns differ"
    worst_abs = worst_rel = 0.0
    for row, parent_row in zip(rows, parent_rows):
        for cell, parent_cell in zip(row, parent_row):
            a, b = _number(cell), _number(parent_cell)
            if a is None or b is None:
                if cell != parent_cell:
                    return f"text cell differs: {parent_cell!r} -> {cell!r}"
                continue
            gap = abs(a - b)
            worst_abs = max(worst_abs, gap)
            if gap:
                worst_rel = max(worst_rel, gap / abs(b) if b else math.inf)
    return f"max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python tests/output_digests.py",
        description="Write the SHA-256 of every benchmarked output but "
                    "the manifests.")
    parser.add_argument("out", type=Path, help="digest file to write")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="run into DIR (new or empty) and keep it")
    parser.add_argument("--against", type=Path, metavar="PARENT_FILE",
                        help="digest file of the parent to compare with")
    parser.add_argument("--parent-tree", type=Path, metavar="PARENT_DIR",
                        help="the parent's --keep directory, to compare "
                             "differing CSVs cell by cell")
    args = parser.parse_args(argv)
    if args.parent_tree and not args.against:
        parser.error("--parent-tree needs --against")
    if args.keep and args.keep.exists() and any(args.keep.iterdir()):
        parser.error(f"--keep {args.keep} is not empty")
    parent = read_digests(args.against) if args.against else None
    with tempfile.TemporaryDirectory() as tmp:
        tree = args.keep or Path(tmp)
        found = {}
        for seed in SEEDS:
            found.update(digests(seed, tree / str(seed)))
        lines = [f"{digest}  {path}\n"
                 for path, digest in sorted(found.items())]
        args.out.write_text("".join(lines))
        print(f"{len(found)} files")
        if parent is None:
            return 0
        moved = differences(found, parent)
        for path in moved:
            both = path in found and path in parent
            if args.parent_tree and both and path.endswith(".csv"):
                print(f"differs: {path}: " + cell_differences(
                    tree / path, args.parent_tree / path))
            else:
                print(f"differs: {path}")
    print(f"{len(moved)} of {len(found.keys() | parent.keys())} paths "
          f"differ from {args.against}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
