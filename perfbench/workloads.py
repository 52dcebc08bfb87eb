"""The benchmark's workloads: bundled scenarios with the seed as input.

Each workload is one bundled scenario plus command-line style ``--set``
overrides; the seed given to the benchmark becomes the scenario seed. The
scenario is built exactly as ``hydrolink simulate <name> --set ... --seed``
builds it, so a plain CLI run with the same arguments writes CSVs with the
same digests. Why each workload was chosen, and which layers it loads and
bypasses, is recorded in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    sets: tuple[tuple[str, str], ...] = ()
    #: (parameter, values) for a ``runner.sweep`` workload.
    sweep: tuple[str, tuple[float, ...]] | None = None

    def cli_args(self, seed: int) -> list[str]:
        """The ``hydrolink`` arguments that run the same scenario."""
        args = ["sweep" if self.sweep else "simulate", self.scenario]
        for key, value in self.sets:
            args += ["--set", f"{key}={value}"]
        args += ["--seed", str(seed)]
        if self.sweep:
            args += ["--parameter", self.sweep[0], "--values",
                     ",".join(repr(v) for v in self.sweep[1])]
        return args


WORKLOADS = {w.name: w for w in (
    Workload("wavefront-survey", "wavefront-survey"),
    Workload("oam-crosstalk", "oam-crosstalk"),
    Workload("oam-gallery", "oam-gallery"),
    # r0 <= 0.1 m trips the 1e-6 aliasing guard on this 128-sample grid
    # (1.19e-06 at seeds 1, 7 and 99), so the sweep stays at r0 >= 0.2 m.
    Workload("sweep-kolmogorov", "oam-crosstalk",
             sets=(("channel.screens.kind", "kolmogorov"),
                   ("channel.screens.r0", "0.2"),
                   ("analysis.trials", "25")),
             sweep=("r0", (0.2, 0.4, 0.8))),
)}


def load(workload: Workload, seed: int):
    """Parse and validate the workload's scenario for ``seed``."""
    from hydrolink.scenario import (bundled_scenarios, parse_scenario,
                                    set_by_path)
    doc = yaml.safe_load(bundled_scenarios()[workload.scenario])
    for key, value in workload.sets:
        set_by_path(doc, key, value)
    doc["seed"] = seed
    return parse_scenario(yaml.safe_dump(doc, sort_keys=True))


def execute(workload: Workload, scenario, out_dir):
    """Run the workload once: one ``run_scenario`` or one ``sweep`` call."""
    import hydrolink.runner as runner
    if workload.sweep:
        parameter, values = workload.sweep
        return runner.sweep(scenario, parameter, list(values), out_dir)
    return runner.run_scenario(scenario, out_dir)

