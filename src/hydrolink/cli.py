"""Command-line front end.

The run commands ``simulate``, ``wfs``, ``qkd`` and ``sweep`` come from one
table, ``_RUN_COMMANDS``, of help text and accepted analysis kinds; a
scenario of any other kind is refused on ``analysis.kind`` before anything
runs. A run prints its summary record one ``key: value`` line per key.
``sweep`` takes any kind plus ``--parameter`` and ``--values`` and runs it
once per value into ``valueNNN/``. ``scenarios list`` names the bundled
scenarios and ``schema`` prints the scenario schema reference.

Every command loads its scenario through ``scenario.load_scenario``.
Value precedence: --seed/--frames > --set overrides > scenario file >
defaults.
Exit codes: 0 success, 1 validation error, 2 runtime error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .runner import SWEEPABLE_PARAMETERS, run_scenario, sweep
from .scenario import (ANALYSIS_KINDS, QKD_KINDS, ScenarioError,
                       bundled_scenarios, load_scenario, schema_reference)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


#: The benchmark's tests load a workload's command-line scenario by this
#: name; it is ``load_scenario`` itself, not a second loader.
_load_with_overrides = load_scenario

#: Run command -> (help text, analysis kinds it accepts).
_RUN_COMMANDS = {
    "simulate": ("run any scenario", ANALYSIS_KINDS),
    "wfs": ("run a wavefront-analysis scenario", ("wavefront",)),
    "qkd": (f"run a {' or '.join(QKD_KINDS)} scenario", QKD_KINDS),
    "sweep": ("summarize a scenario across one parameter", ANALYSIS_KINDS),
}


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario file path or bundled name")
    p.add_argument("--output", "-o", default=None,
                   help="output directory (default: ./runs/<name>)")
    p.add_argument("--set", dest="sets", action="append", default=[],
                   metavar="KEY.PATH=VALUE",
                   help="override one scenario value (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--frames", type=int, default=None,
                   help="override the frame count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrolink",
        description="Underwater optical link simulator: structured beams, "
                    "turbulence, wavefront sensing, and BB84 feasibility.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (doc, _) in _RUN_COMMANDS.items():
        _add_run_options(sub.add_parser(name, help=doc))
    p = sub.choices["sweep"]
    p.add_argument("--parameter", required=True,
                   choices=SWEEPABLE_PARAMETERS)
    p.add_argument("--values", required=True,
                   help="comma-separated numeric values")

    p = sub.add_parser("scenarios", help="bundled scenario tools")
    p.add_argument("action", choices=("list",))

    sub.add_parser("schema", help="print the scenario schema reference")
    return parser


def _run(args) -> int:
    scenario = load_scenario(args.scenario, args.sets, args.seed,
                             args.frames)
    kinds = _RUN_COMMANDS[args.command][1]
    if scenario.analysis.kind not in kinds:
        raise ScenarioError(
            f"{args.command!r} needs a {' or '.join(kinds)} scenario, got "
            f"{scenario.analysis.kind!r}", "analysis.kind")
    out = Path(args.output) if args.output else Path("runs") / scenario.name
    if getattr(args, "parameter", None):
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioError(
                f"--values must be comma-separated numbers, got "
                f"{args.values!r}") from None
        result = sweep(scenario, args.parameter, values, out)
    else:
        result = run_scenario(scenario, out)
    print(f"{scenario.name}: wrote {len(result.files)} files to "
          f"{result.output_dir}")
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scenarios":
            for name in sorted(bundled_scenarios()):
                print(name)
            return EXIT_OK
        if args.command == "schema":
            print(schema_reference())
            return EXIT_OK
        return _run(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:   # keep the contract: nonzero on any failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
