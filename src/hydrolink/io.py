"""Deterministic file outputs: 16-bit PGM images and CSV tables.

Every writer produces byte-identical output for identical inputs: no
timestamps, fixed float formatting (shortest round-trip repr via %.17g),
LF newlines, RFC-4180-style quoting.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .zernike import PhaseScreen


def fmt(value) -> str:
    """Canonical text form for one CSV cell."""
    if isinstance(value, (float, np.floating)):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path | str, header: Sequence[str],
              rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return path


def write_pgm16(path: Path | str, intensity: np.ndarray) -> Path:
    """Write a 16-bit big-endian binary PGM of a non-negative image."""
    arr = np.asarray(intensity, dtype=float)
    if arr.ndim != 2:
        raise ValueError("PGM export needs a 2-D array")
    top = float(arr.max())
    # NaN fails the first test, +inf the second; neither makes a temporary.
    if not (arr.min() >= 0.0 and math.isfinite(top)):
        raise ValueError("PGM export needs finite non-negative values")
    if top <= 0:
        scaled = np.zeros(arr.shape, dtype=">u2")
    else:
        # arr / top * 65535 clipped to [0, 65535], in one scratch array
        scaled = arr / top
        scaled *= 65535.0
        scaled = np.clip(scaled, 0, 65535, out=scaled).astype(">u2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode())
        fh.write(scaled.tobytes())
    return path


def screen_to_csv(screen: PhaseScreen, path: Path | str) -> Path:
    """Rows as :func:`write_csv` writes them, sent one grid row at a time;
    a +0.0 cell (no bit set) is written "0" without formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("x_index,y_index,phase_radians\n")
        for iy, row in enumerate(screen.phase):
            fh.write("".join(
                f"{ix},{iy},{v:.17g}\n" if bits else f"{ix},{iy},0\n"
                for ix, v, bits in zip(range(len(row)), row.tolist(),
                                       row.view(np.int64).tolist())))
    return path


def sha256_of(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
