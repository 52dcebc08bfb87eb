"""Output checks for one benchmark sample.

Each check reads the files a run wrote and recomputes what it can without
the package: Beer-Lambert transmittance, the sifted error rate from the
detection matrix, PGM headers and row counts. A sample whose checks return
any message counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

#: Relative tolerance for values that equal a closed form up to FFT
#: round-off (observed <= 1e-15).
ROUND_OFF = 1e-12


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every CSV the run wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    return table[0], table[1:]


def _close(a: float, b: float, rel: float = ROUND_OFF) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_wavefront(scenario, out: Path) -> list[str]:
    errors = []
    ch = scenario.channel
    expected = 10.0 ** (-ch.attenuation_db_per_m * ch.length / 10.0)
    header, rows = _rows(out / "frames_summary.csv")
    if len(rows) != scenario.frames:
        errors.append(f"frames_summary.csv has {len(rows)} rows, want "
                      f"{scenario.frames}")
    col = header.index("transmittance")
    for row in rows:
        if not _close(float(row[col]), expected):
            errors.append(f"frame {row[0]} transmittance {row[col]} != "
                          f"{expected!r}")
    n = scenario.grid.n_samples
    with open(out / "wavefront_mean.csv") as fh:
        lines = sum(1 for _ in fh)
    if lines != n * n + 1:
        errors.append(f"wavefront_mean.csv has {lines} lines, want "
                      f"{n * n + 1}")
    return errors


def sifted_error_rate(labels: list[str], matrix: list[list[float]]
                      ) -> tuple[float, list[str]]:
    """QBER recomputed from the matrix, and any row-sum violations.

    Labels ``l<ell>`` form the OAM basis; the rest form the superposition
    basis.
    """
    bases = [[i for i, lb in enumerate(labels) if lb.startswith("l")],
             [i for i, lb in enumerate(labels) if not lb.startswith("l")]]
    bases = [b for b in bases if b]
    errors = []
    rates = []
    for s, row in enumerate(matrix):
        for basis in bases:
            total = math.fsum(row[i] for i in basis)
            if abs(total - 1.0) > 1e-9:
                errors.append(f"row {labels[s]} sums to {total!r} over "
                              f"{[labels[i] for i in basis]}")
        own = next(b for b in bases if s in b)
        wrong = math.fsum(row[i] for i in own if i != s)
        rates.append(wrong / math.fsum(row[i] for i in own))
    return math.fsum(rates) / len(rates), errors


def check_qkd_oam(scenario, out: Path) -> list[str]:
    header, rows = _rows(out / "detection_matrix.csv")
    labels = header[1:]
    if [r[0] for r in rows] != labels:
        return [f"detection_matrix.csv rows {[r[0] for r in rows]} do not "
                f"match columns {labels}"]
    qber, errors = sifted_error_rate(
        labels, [[float(v) for v in r[1:]] for r in rows])
    rheader, rrows = _rows(out / "qkd_report.csv")
    reported = float(rrows[0][rheader.index("qber")])
    if not _close(reported, qber):
        errors.append(f"qkd_report.csv qber {reported!r} != recomputed "
                      f"{qber!r}")
    return errors


def _pgm_error(path: Path, n: int) -> str | None:
    data = path.read_bytes()
    head = f"P5\n{n} {n}\n65535\n".encode()
    if not data.startswith(head) or len(data) != len(head) + 2 * n * n:
        return f"{path.name} is not a {n}x{n} 16-bit PGM"
    return None


def check_images(scenario, out: Path) -> list[str]:
    errors = []
    modes = len(scenario.analysis.modes)
    want = modes * scenario.frames
    frames = sorted(out.glob("*_frame*.pgm"))
    if len(frames) != want:
        errors.append(f"{len(frames)} frame PGMs, want {want}")
    n = scenario.grid.n_samples
    errors += [e for e in (_pgm_error(p, n) for p in frames) if e]
    _, rows = _rows(out / "frames_summary.csv")
    if len(rows) != want:
        errors.append(f"frames_summary.csv has {len(rows)} rows, want "
                      f"{want}")
    return errors


def check_sweep(values: tuple[float, ...], out: Path) -> list[str]:
    errors = []
    header, rows = _rows(out / "sweep_summary.csv")
    if [float(r[header.index("value")]) for r in rows] != list(values):
        errors.append(f"sweep_summary.csv values "
                      f"{[r[1] for r in rows]} != {list(values)}")
    q = header.index("qber")
    for row in rows:
        if row[q] == "" or not 0.0 <= float(row[q]) <= 0.5:
            errors.append(f"value {row[1]}: qber cell {row[q]!r}")
    return errors


def check(workload, scenario, out: Path) -> list[str]:
    """Every output check that applies to the workload's run."""
    out = Path(out)
    if workload.sweep:
        return check_sweep(workload.sweep[1], out)
    kind = scenario.analysis.kind
    if kind == "wavefront":
        return check_wavefront(scenario, out)
    if kind == "qkd-oam":
        return check_qkd_oam(scenario, out)
    if kind == "images":
        return check_images(scenario, out)
    return [f"no output check for analysis kind {kind!r}"]
