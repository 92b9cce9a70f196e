"""Smoke test of the benchmark harness itself, at tiny problem sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("name", sorted(workloads.SCALES))
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, kind):
    result, ctx = run.run(name, 1, 0.01, trace, scale="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert ctx["sizes"] and ctx["seed"] == 1
    json.dumps(result, allow_nan=False)


def _tight_distance(wl):
    wl.sa_distance_bound = 0.0


def _wrong_sqrt_c_rho(wl):
    wl.sqrt_c_rho += 1e-6


def _missing_config(wl):
    wl.calls = [workloads.Call("analyze", "no-such-config")]


@pytest.mark.parametrize("name, adjust", [
    ("sa-grid", _tight_distance),
    ("projected-ring", _wrong_sqrt_c_rho),
    ("analyze-grid", _missing_config),
])
def test_failing_check_shows_in_ok_frac(name, adjust):
    result, ctx = run.run(name, 1, 0.01, False, scale="tiny", adjust=adjust)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert ctx["fail_frac"] == 1.0


def test_exits_nonzero_without_the_program():
    bare = run.ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sa-grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
