"""The benchmark binds package names in code the test suite does not run:
its traced run wraps functions by name, and its files and tests import
names from the package. A renamed or removed name would break only
``perfbench/``. Check that every traced name, and every name the
benchmark's files read off the package, resolves."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
PACKAGE = "hydrolink"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for module_name, function in spans.TARGETS:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        if not callable(getattr(module, function, None)):
            missing.append(f"{module_name}.{function}")
    assert not missing, f"traced names missing from hydrolink: {missing}"


def _in_package(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == PACKAGE


def _package_names(path: Path) -> set[str]:
    """Every dotted package name a file binds: each name of a ``from
    hydrolink.X import ...`` line, and each attribute chain read off an
    imported package module, as ``hydrolink.qkd.run_channel`` or, after
    ``import hydrolink.cli as cli``, ``cli._load_with_overrides``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _in_package(node.module):
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if _in_package(a.name):
                    bound = a.asname or a.name.split(".")[0]
                    modules[bound] = a.name if a.asname else PACKAGE
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root, *rest = ast.unparse(node).split(".")
            if root in modules and all(p.isidentifier() for p in rest):
                names.add(".".join([modules[root], *rest]))
    return names


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an object, importing submodules on the way
    (the package does not import ``hydrolink.cli`` itself)."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(".".join(parts[:k]))
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_binds_resolves():
    names = set().union(*(_package_names(path)
                          for path in PERFBENCH.rglob("*.py")))
    assert {"hydrolink.cli._load_with_overrides",
            "hydrolink.scenario.set_by_path",
            "hydrolink.qkd.run_channel"} <= names
    missing = sorted(n for n in names if not _resolves(n))
    assert not missing, f"benchmark names missing from hydrolink: {missing}"
