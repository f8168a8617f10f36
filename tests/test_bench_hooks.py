"""The benchmark (bench/) wraps package functions at the module attributes
its callers look up, by name. A refactor that drops one of those names
would crash the benchmark instead of failing a test, so they are pinned
here. bench/tracing.py is loaded from the checkout, not edited."""

import importlib.util
from pathlib import Path

import hashexit
import hashexit.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# (module, attribute) pairs bench/workload.py samples during its commands
WORKLOAD_HOOKS = (
    ("cli", "forward"),
    ("cli", "schedule"),
    ("difficulty", "forward"),
    ("experiments", "train_toy"),
    ("hashing", "token_label_mi"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    for mod_name, attr in WORKLOAD_HOOKS:
        assert callable(getattr(getattr(hashexit, mod_name), attr)), (mod_name, attr)


def test_cli_exposes_encoder_entry_points():
    from hashexit import encoder
    for name in ("forward", "schedule", "classify"):
        assert getattr(hashexit.cli, name) is getattr(encoder, name)
