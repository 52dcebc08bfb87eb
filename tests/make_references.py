"""Rewrite ``tests/data/`` from the current tree.

Usage: ``python tests/make_references.py``. Every case in
``reference_harness.CASES`` is run into a temporary directory and its
reference files replace ``tests/data/<case>/``. Runs are deterministic, so
running it twice leaves the tree unchanged. Use it only in a change that
states an intended output change, and list the old and new values there.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from reference_harness import CASES, DATA, artifacts, run_case  # noqa: E402


def main() -> int:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            found = artifacts(run_case(case, Path(tmp)))
        target = DATA / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, text in found.items():
            (target / name).write_text(text)
        print(f"{case}: {len(found)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
