"""Public names: every module's ``__all__`` resolves, and a package's
re-export of a name is the very object the defining module holds, so code
that finds a function by identity (a profiler patching it in every module
that holds it, say) sees every path to it. Every function the benchmark's
tracer wraps by name exists."""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import scenforest

LEAVES = sorted(m.name for m in pkgutil.walk_packages(scenforest.__path__, "scenforest.") if not m.ispkg)
PACKAGES = ("scenforest", "scenforest.sim", "scenforest.xmurf")


@pytest.mark.parametrize("name", [*PACKAGES, *LEAVES])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_reexports_are_the_defining_objects(package):
    owners = {}
    for leaf in LEAVES:
        if leaf.startswith(package + "."):
            for n in getattr(importlib.import_module(leaf), "__all__", ()):
                owners.setdefault(n, []).append(leaf)
    pkg = importlib.import_module(package)
    for n in pkg.__all__:
        if n == "__version__":
            continue
        assert len(owners.get(n, [])) == 1, f"{package}.{n} is listed by {owners.get(n)}"
        obj = getattr(pkg, n)
        assert obj is getattr(importlib.import_module(owners[n][0]), n), f"{package}.{n}"
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == owners[n][0], f"{package}.{n} is defined in {obj.__module__}"


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # perfbench/tracer.py finds its targets by module and function name, and
    # a target that is gone only drops its metrics from a traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look their module up there
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.missing == []
