"""The benchmark (bench/) calls the package by name: it wraps functions at
the module attributes their callers look up, and bench/workload.py calls
`hx.<name>` and loaders named as strings. A refactor that drops one of
those names would crash the benchmark instead of failing a test, so they
are pinned here. The bench/ files are read from the checkout, not edited."""

import importlib.util
import pkgutil
import re
from functools import reduce
from pathlib import Path

import hashexit
import hashexit.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOAD = BENCH / "workload.py"
SUBMODULES = {m.name for m in pkgutil.iter_modules(hashexit.__path__)}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_api():
    """Attribute paths below `hashexit` that bench/workload.py looks up:
    every `hx.<name>[.<attr>...]`, every loader its `input_files` name,
    every loader its LoadTimer wraps on `hashexit.cli`, and every
    ("<module>", "<function>") hook it samples."""
    source = WORKLOAD.read_text(encoding="utf-8")
    paths = {tuple(chain.split("."))
             for chain in re.findall(r"\bhx\.(\w+(?:\.\w+)*)", source)}
    paths |= {(name,) for name in re.findall(r'\("(load_\w+)", run\.', source)}
    timed, = re.findall(r"NAMES = \(([^)]*)\)", source)
    paths |= {("cli", name) for name in re.findall(r'"(\w+)"', timed)}
    paths |= {pair for pair in re.findall(r'\("(\w+)", "(\w+)"\)', source)
              if pair[0] in SUBMODULES}
    return paths


def test_trace_targets_resolve():
    tracing = load_tracing()
    assert tracing.TARGETS
    for mod_name, attr, _ in tracing.TARGETS:
        assert callable(getattr(getattr(hashexit, mod_name), attr)), (mod_name, attr)


def test_class_targets_resolve():
    tracing = load_tracing()
    assert tracing.CLASS_TARGETS
    for mod_name, cls_name, attr, _ in tracing.CLASS_TARGETS:
        cls = getattr(getattr(hashexit, mod_name), cls_name)
        assert attr in cls.__dict__, (cls_name, attr)


def test_workload_hooks_resolve():
    paths = workload_api()
    # the scan finds what the benchmark is known to use
    assert {("forward",), ("saved_macs",), ("load_model",), ("cli", "main"),
            ("cli", "load_embeddings"), ("cli", "forward"),
            ("difficulty", "forward"), ("experiments", "train_toy")} <= paths
    for path in sorted(paths):
        try:
            reduce(getattr, path, hashexit)
        except AttributeError:
            raise AssertionError(f"bench/workload.py uses hashexit."
                                 f"{'.'.join(path)}, which is gone") from None


def test_cli_exposes_encoder_entry_points():
    from hashexit import encoder
    for name in ("forward", "schedule", "classify"):
        assert getattr(hashexit.cli, name) is getattr(encoder, name)
