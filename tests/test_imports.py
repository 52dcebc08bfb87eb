"""What importing and running the package loads, in a fresh interpreter.

scipy is a test dependency only, and numpy's lazily loaded submodules are
imported with the package, so a run's time holds no import. The package
reads its version from ``hydrolink.__version__``, so importing it loads no
``importlib.metadata``. The physics kernels import neither ``seeding`` nor
``channel``: seeds become streams only in the channel's draws.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hydrolink

SRC = Path(hydrolink.__file__).resolve().parents[1]

PROGRAM = """
import json, sys, tempfile
metadata_before = "importlib.metadata" in sys.modules
import hydrolink
metadata = "importlib.metadata" in sys.modules and not metadata_before
from hydrolink.runner import run_scenario
from hydrolink.scenario import load_scenario

scenarios = [load_scenario("oam-crosstalk"),
             load_scenario("oam-crosstalk", sets=["analysis.trials=2"]),
             load_scenario("wavefront-survey", frames=2),
             load_scenario("oam-gallery", frames=1),
             load_scenario("polarization-qkd")]
loaded = set(sys.modules)
with tempfile.TemporaryDirectory() as tmp:
    for k, scenario in enumerate(scenarios[1:]):
        run_scenario(scenario, f"{tmp}/{k}")
print(json.dumps({"metadata": metadata,
                  "scipy": sorted(m for m in loaded
                                  if m.split(".")[0] == "scipy"),
                  "numpy_in_run": sorted(m for m in set(sys.modules) - loaded
                                         if m.split(".")[0] == "numpy")}))
"""


def test_no_scipy_and_no_numpy_import_during_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"metadata": False, "scipy": [], "numpy_in_run": []}


def test_kernels_import_no_seeding_or_channel():
    package = Path(hydrolink.__file__).parent
    for name in ("field", "special", "zernike", "shack_hartmann"):
        imported = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # the module of "from .m import x", "from . import m" or
                # "import hydrolink.m"
                modules = [getattr(node, "module", None) or "",
                           *(alias.name for alias in node.names)]
                imported |= {m.rsplit(".", 1)[-1] for m in modules}
        assert not imported & {"seeding", "channel"}, name


def test_import_without_sched_getaffinity():
    # macOS and Windows have no os.sched_getaffinity: the worker count
    # falls back to os.cpu_count()
    program = ("import os\ndel os.sched_getaffinity\nimport hydrolink\n"
               "from hydrolink.seeding import WORKERS\n"
               "assert WORKERS == (os.cpu_count() or 1), WORKERS\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", program], env=env, timeout=300,
                   check=True)
