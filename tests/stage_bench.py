"""Per-stage timings: each stage of a run timed on its own, plans warm.

Usage: ``python tests/stage_bench.py [--sizes 128,256,384] [--repeats 5]
[--json OUT]``.

For each grid size N (``Grid(N, 12.5 um)``, the bundled wavefront-survey
spacing) it builds one stage's inputs, calls the stage once to fill its
plans, then times ``--repeats`` calls, one at a time, each on inputs made
outside the timed call. It prints the best and the median in ms per call
and writes them, with the host and the library versions read from
``perfbench/envinfo.py``, to ``OUT`` (default ``BENCH_stages.json`` at the
root of the repository). Every stage works on one field:

- ``modal_screen``: a 14-mode (j = 2..15) Zernike screen on the disk of
  0.45 x the extent, with the channel's rim taper;
- ``kolmogorov_screen``: an FFT screen at r0 = 0.2 m, with the channel's
  default subharmonic levels;
- ``screen_product``: exp(i * phase) times the field into a work stack;
- ``substep``: one diffraction substep of wavefront-survey's channel
  (5.5 m, 3 screens, 5.4 dB/m) with its aliasing guard;
- ``capture``, ``slopes`` and ``modal_fit``: the Shack-Hartmann sensor
  with 150 um lenslets, int(0.9 N / 12) across, on the field after a
  modal screen, and the fit up to the highest mode its disk allows (15 at
  most);
- ``write_pgm16`` and ``screen_to_csv``: the intensity image and the
  screen's CSV, into a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from hydrolink import io as hio  # noqa: E402
from hydrolink.channel import (SCREEN_RIM_TAPER, ChannelConfig,  # noqa: E402
                               _apply_screen, _diffract, apply_phase_screen)
from hydrolink.field import Grid, lg_mode  # noqa: E402
from hydrolink.scenario import modal_sigma_table  # noqa: E402
from hydrolink.shack_hartmann import (LensletArray, _in_disk,  # noqa: E402
                                      capture, extract_slopes, modal_fit)
from hydrolink.zernike import (  # noqa: E402
    ZernikeSpectrum, kolmogorov_screen, phase_from_spectrum)

from bench_pairs import envinfo  # noqa: E402

SPACING = 12.5e-6
PITCH = 150e-6
J_MAX = 15
R0 = 0.2
#: wavefront-survey's channel: its substep is the one timed.
CHANNEL = ChannelConfig(length=5.5, attenuation_db_per_m=5.4, n_screens=3,
                        screen_source="modal", modal_sigmas=tuple(
                            modal_sigma_table(0.3, J_MAX).items()))
STAGES = ("modal_screen", "kolmogorov_screen", "screen_product", "substep",
          "capture", "slopes", "modal_fit", "write_pgm16", "screen_to_csv")


def timed(call, args, repeats: int) -> list[float]:
    """ms of ``repeats`` calls ``call(*args())``, after one untimed call;
    ``args()`` runs outside the timed span."""
    call(*args())
    times = []
    for _ in range(repeats):
        a = args()
        t0 = time.perf_counter()
        call(*a)
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def stages(n: int, out: Path) -> tuple[dict, dict]:
    """{stage: (call, args)} at grid size ``n``, and the sensor's setup."""
    grid = Grid(n, SPACING)
    field = lg_mode(0, 0, 0.23 * grid.extent, grid)
    rng = np.random.default_rng(n)
    sigmas = CHANNEL.modal_sigmas
    spectrum = ZernikeSpectrum(
        tuple((j, float(s * rng.standard_normal())) for j, s in sigmas),
        0.45 * grid.extent)
    screen = phase_from_spectrum(spectrum, grid, rim_taper=SCREEN_RIM_TAPER)
    lit = apply_phase_screen(field, screen)
    stack = field.amplitude[None]
    work = np.empty_like(stack)

    def refill():
        np.copyto(work, stack)
        return work, (field,), CHANNEL, np.ones((1, 1)), 1

    count = int(0.9 * n / (PITCH / SPACING))
    sensor = LensletArray(count_x=count, count_y=count, pitch=PITCH)
    j_max = min(J_MAX, int(np.count_nonzero(
        _in_disk(sensor, sensor.half_width))) + 1)
    spots = capture(lit, sensor)
    slopes = extract_slopes(spots)
    image = lit.intensity()
    return {
        "modal_screen": (phase_from_spectrum,
                         lambda: (spectrum, grid, SCREEN_RIM_TAPER)),
        "kolmogorov_screen": (kolmogorov_screen, lambda: (
            R0, grid, np.random.default_rng(1), CHANNEL.subharmonic_levels)),
        "screen_product": (_apply_screen, lambda: (stack, screen.phase,
                                                   work)),
        "substep": (_diffract, refill),
        "capture": (capture, lambda: (lit, sensor)),
        "slopes": (extract_slopes, lambda: (spots,)),
        "modal_fit": (modal_fit, lambda: (slopes, j_max)),
        "write_pgm16": (hio.write_pgm16, lambda: (out / "frame.pgm", image)),
        "screen_to_csv": (hio.screen_to_csv, lambda: (screen,
                                                      out / "screen.csv")),
    }, {"lenslets_across": count, "j_max": j_max,
        "lenslets_valid": int(np.count_nonzero(slopes.valid))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="128,256,384",
                        help="grid sizes N, comma-separated")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", type=Path, metavar="OUT",
                        default=HERE.parent / "BENCH_stages.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("need at least 1 repeat")
    sizes = [int(n) for n in args.sizes.split(",")]
    table = {stage: {} for stage in STAGES}
    setup = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            calls, setup[str(n)] = stages(n, Path(tmp))
            for stage in STAGES:
                times = timed(*calls[stage], args.repeats)
                table[stage][str(n)] = {"best_ms": min(times),
                                        "median_ms": statistics.median(times)}
    print(f"ms per call, best (median) of {args.repeats}")
    print("stage".ljust(18) + "".join(f"N = {n}".rjust(18) for n in sizes))
    for stage, row in table.items():
        print(stage.ljust(18) + "".join(
            f"{row[str(n)]['best_ms']:.3f} ({row[str(n)]['median_ms']:.3f})"
            .rjust(18) for n in sizes))
    info = envinfo(HERE.parent)
    args.json.write_text(json.dumps({
        "command": " ".join(["python", "tests/stage_bench.py",
                             *(argv if argv is not None else sys.argv[1:])]),
        "unit": "ms per call", "repeats": args.repeats, "sizes": sizes,
        "grid_spacing": SPACING, "fields": 1, "setup": setup,
        "host": info.host(), "libraries": info.libraries(),
        "stages": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
