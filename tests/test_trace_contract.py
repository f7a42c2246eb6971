"""The names the benchmark's tracer and set-up probe reach into ffverify by.

`tracing.install` wraps only the names that exist and skips the rest without
a word, so a renamed function would read as a per-layer metric of zero.
These tests load the two benchmark scripts read-only and resolve every name
they use.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name: str, monkeypatch):
    """The benchmark script as a module, without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return load("tracing", monkeypatch)


@pytest.fixture
def replay(monkeypatch):
    return load("replay", monkeypatch)


def traced_names(tracing) -> set[str]:
    names = set(tracing.DENSE) | set(tracing.KRYLOV)
    for group in tracing.TIMED.values():
        names |= set(group)
    for group, _ in tracing.COUNTED.values():
        names |= set(group)
    names |= {".".join(m) for m in tracing.METHODS}
    return names


def test_every_traced_name_resolves(tracing):
    names = traced_names(tracing)
    assert "protocol.measured_gap" in names and "hamiltonian.ground_space" in names
    for name in sorted(names):
        short, *path = name.split(".")
        assert short in tracing.TRACED_MODULES, name
        module = importlib.import_module(f"ffverify.{short}")
        if len(path) == 1:
            # the filter `install` applies to module-level functions
            obj = getattr(module, path[0], None)
            assert inspect.isfunction(obj), f"{name} is not a function of ffverify.{short}"
            assert obj.__module__ == module.__name__ and not path[0].startswith("_"), name
        else:
            cls_name, method = path
            cls = getattr(module, cls_name, None)
            assert inspect.isclass(cls), f"{name}: no class {cls_name}"
            assert inspect.isfunction(getattr(cls, method, None)), f"{name} is not a method"


def test_setup_probe_names_resolve(replay):
    from ffverify import aklt, cli, graph, protocol

    aliases = {"aklt": aklt, "cli": cli, "graphs": graph, "proto": protocol}
    source = inspect.getsource(replay._setup)
    used = set(re.findall(r"\b(aklt|cli|graphs|proto)\.(\w+)", source))
    cli_names = {attr for alias, attr in used if alias == "cli"}
    assert {"build_parser", "_build_graph", "_check_dim", "_load_design"} <= cli_names
    for alias, attr in sorted(used):
        assert callable(getattr(aliases[alias], attr, None)), f"{alias}.{attr}"
