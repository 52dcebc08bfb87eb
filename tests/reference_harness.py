"""Stored reference outputs and the one tolerance table they are held to.

``tests/data/<case>/`` holds what one run of each case below wrote: its CSV
tables as written, every 8th sample on each axis of the 2.5 MB
``wavefront_mean.csv`` and of ``wavefront_mean.pgm``, and the SHA-256 of
every other PGM. ``tests/test_references.py`` reruns the cases and compares
cell by cell with :data:`TOLERANCES`; ``tests/make_references.py`` rewrites
the references from the current tree. Regenerate them only in a change that
states an intended output change and lists the old and new values.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

#: Where the references live.
DATA = Path(__file__).parent / "data"

#: Every case: (bundled scenario, --set overrides, sweep or None). The
#: bundled scenarios run at their defaults (seed 1234).
CASES = {
    "polarization-qkd": ("polarization-qkd", (), None),
    "oam-crosstalk": ("oam-crosstalk", (), None),
    "oam-gallery": ("oam-gallery", (), None),
    "wavefront-survey": ("wavefront-survey", (), None),
    "sweep-polarization": ("polarization-qkd", (), (
        "attenuation_db_per_m", (0.13, 1.3, 5.4))),
    "sweep-kolmogorov": ("oam-crosstalk", (
        "channel.screens.kind=kolmogorov", "channel.screens.r0=0.2",
        "analysis.trials=5"), ("r0", (0.2, 0.4, 0.8))),
}
BUNDLED = ("polarization-qkd", "oam-crosstalk", "oam-gallery",
           "wavefront-survey")
SWEEPS = ("sweep-polarization", "sweep-kolmogorov")

#: Tolerance classes as (relative, absolute): a cell passes when
#: |got - ref| <= relative * |ref| + absolute. Cells of any column not named
#: in COLUMN_CLASS (transmittance, counts, labels, ids) must match as text.
TOLERANCES = {
    "probability": (0.0, 1e-12),      # probabilities, QBER, key rate
    "coefficient": (1e-9, 1e-12),     # Zernike coefficients, residuals (rad)
    "pgm_count": (0.0, 1.0),          # a last-bit phase change may cross
                                      # one quantization step
}
_PROBABILITY = ("qber", "qber_stderr", "key_rate", "crosstalk_mean",
                "crosstalk_stderr", "key_rate_bits_per_sifted_photon",
                "threshold_margin", "sifted_fraction")
_COEFFICIENT = ("a_j_radians", "mean_abs", "std", "stderr",
                "residual_rms_radians", "phase_radians")
COLUMN_CLASS = {**dict.fromkeys(_PROBABILITY, "probability"),
                **dict.fromkeys(_COEFFICIENT, "coefficient"),
                "count": "pgm_count"}
#: Tables whose every column after the first (the sent label) holds
#: probabilities under the measured label's name.
PROBABILITY_TABLES = ("detection_matrix.csv", "detection_matrix_stderr.csv")

STORED_CSVS = ("detection_matrix.csv", "detection_matrix_stderr.csv",
               "qkd_report.csv", "coefficients_frames.csv",
               "coefficients_mean.csv", "frames_summary.csv",
               "screens_ground_truth.csv", "sweep_summary.csv")
#: Large outputs stored as every EVERY-th sample on each axis.
EVERY = 8
_REGENERATE = ("references are regenerated with `python "
               "tests/make_references.py`, and only in a change that states "
               "an intended output change (README, 'Reference outputs')")


def run_case(case: str, out: Path) -> Path:
    """Run one case into ``out`` exactly as the command line would."""
    from hydrolink.runner import run_scenario, sweep
    from hydrolink.scenario import load_scenario
    scenario, sets, swp = CASES[case]
    loaded = load_scenario(scenario, sets)
    if swp is None:
        run_scenario(loaded, out)
    else:
        sweep(loaded, swp[0], list(swp[1]), out)
    return out


def _table(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def artifacts(out: Path) -> dict[str, str]:
    """Reference file name -> text for the outputs in run directory ``out``."""
    from hydrolink.io import sha256_of
    from oracles import read_pgm16
    found = {p.name: p.read_text() for p in sorted(out.glob("*.csv"))
             if p.name in STORED_CSVS}
    mean_csv = out / "wavefront_mean.csv"
    if mean_csv.exists():
        lines = mean_csv.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        found["wavefront_mean_every8.csv"] = _table(
            lines[0].split(","),
            [r for r in rows if int(r[0]) % EVERY == 0
             and int(r[1]) % EVERY == 0])
    digests = []
    for pgm in sorted(out.glob("*.pgm")):
        if pgm.name == "wavefront_mean.pgm":
            counts = read_pgm16(pgm)[::EVERY, ::EVERY]
            found["wavefront_mean_pgm_every8.csv"] = _table(
                ("x_index", "y_index", "count"),
                [(ix * EVERY, iy * EVERY, int(v))
                 for iy, row in enumerate(counts)
                 for ix, v in enumerate(row)])
        else:
            digests.append((pgm.name, sha256_of(pgm)))
    if digests:
        found["pgm_sha256.csv"] = _table(("file", "sha256"), digests)
    return found


def load_references(case: str) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted((DATA / case).iterdir())}


def _column_class(name: str, position: int, column: str) -> str | None:
    if name in PROBABILITY_TABLES and position > 0:
        return "probability"
    return COLUMN_CLASS.get(column)


def compare_table(where: str, ref_text: str, got_text: str) -> list[str]:
    """Problems found comparing one table with its reference, worst cell
    per column; empty when every cell is within its tolerance."""
    ref = list(csv.reader(io.StringIO(ref_text)))
    got = list(csv.reader(io.StringIO(got_text)))
    if ref[0] != got[0]:
        return [f"{where}: header {got[0]} differs from reference {ref[0]}"]
    if len(ref) != len(got):
        return [f"{where}: {len(got) - 1} rows, reference has "
                f"{len(ref) - 1}"]
    problems = []
    name = where.rpartition("/")[2]
    for c, column in enumerate(ref[0]):
        klass = _column_class(name, c, column)
        if klass is None:
            for r, (a, b) in enumerate(zip(ref[1:], got[1:]), start=1):
                if a[c] != b[c]:
                    problems.append(
                        f"{where}: row {r}, column {column!r}: {b[c]!r} "
                        f"!= reference {a[c]!r} (exact match required)")
                    break
            continue
        rel, tol_abs = TOLERANCES[klass]
        worst = None                      # (excess, row, abs, rel)
        for r, (a, b) in enumerate(zip(ref[1:], got[1:]), start=1):
            want, have = float(a[c]), float(b[c])
            diff = abs(have - want)
            excess = diff - (rel * abs(want) + tol_abs)
            if worst is None or excess > worst[0]:
                worst = (excess, r, diff, diff / abs(want) if want
                         else math.inf if diff else 0.0)
        if worst is not None and worst[0] > 0:
            _, r, diff, rdiff = worst
            problems.append(
                f"{where}: row {r}, column {column!r}: worst absolute "
                f"difference {diff:.3g}, relative {rdiff:.3g}, exceeds the "
                f"{klass} tolerance (relative {rel:g}, absolute {tol_abs:g})")
    return problems


def compare_case(case: str, got: dict[str, str],
                 ref: dict[str, str]) -> list[str]:
    problems = []
    if sorted(got) != sorted(ref):
        problems.append(f"{case}: produced files {sorted(got)}, references "
                        f"{sorted(ref)}")
    for name in sorted(set(got) & set(ref)):
        problems += compare_table(f"{case}/{name}", ref[name], got[name])
    return problems


def assert_matches(case: str, out: Path) -> None:
    """Fail, naming every differing table, unless the run in ``out``
    matches the stored references of ``case`` within the tolerances."""
    problems = compare_case(case, artifacts(out), load_references(case))
    assert not problems, "\n".join(problems + [_REGENERATE])
