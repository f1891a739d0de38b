"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced at a tiny trial count and checks
that the result line carries every metric named in BENCHMARK.json with
its unit, and that the tracer puts back every module attribute it wraps.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from record import SMOKE_TRIALS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(run.DEFAULT_SEED),
         "--seconds", "0", "--trace", str(trace), "--trials", str(SMOKE_TRIALS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, [ln for ln in lines if "FAILED" in ln]
    assert doc["failed"] == 0
    assert doc["attempted"] == SMOKE_TRIALS * (1 + trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert "recorded match" in proc.stdout
    for m in spec:
        assert any(ln.startswith(f"# {m['name']} ") and f" {m['unit']} samples=" in ln for ln in lines)


def test_tracer_restores_every_wrapped_attribute():
    run.check_checkout()
    from tracer import Tracer, bindings

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = bindings()
    finally:
        tracer.uninstall()
    assert all(during[k] != before[k] for k in before)
    assert bindings() == before


def test_checkout_without_sources_exits_nonzero():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cheb_clean", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
