"""Smoke test of the benchmark at tiny sizes (a few seconds per run).

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, in
the summary and in the JSON line, and that a corrupted reference output is
counted as a failure rather than passing silently.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

import reference  # noqa: E402  (bench/ is on sys.path under pytest)
import workload  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(name, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    summary = "\n".join(lines[:-1])
    for metric, unit in want.items():
        pattern = rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}$"
        assert re.search(pattern, summary, re.M), metric
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_reference_state_is_a_failure(monkeypatch):
    encode = reference.encode
    monkeypatch.setattr(reference, "encode",
                        lambda w, ids, exits: encode(w, ids, exits) + 1e-6)
    result = workload.run_workload("toy", 3, 0.5, 0, "tiny")
    assert result["failed"] > 0
    assert any("within" in f for f in result["failures"])


def test_corrupted_closed_form_is_a_failure(monkeypatch):
    macs = reference.layer_macs
    monkeypatch.setattr(reference, "layer_macs",
                        lambda *args: macs(*args) + 1)
    result = workload.run_workload("price-bert", 3, 0.5, 0, "tiny")
    assert any("closed form" in f for f in result["failures"])
