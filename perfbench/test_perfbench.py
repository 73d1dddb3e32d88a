"""Self-tests of the benchmark, on its smoke scale (a few seconds per workload).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root of a
checkout.  They check that every metric is printed with its unit, that the
traced split accounts for the traced wall time, and that the correctness
checks can fail.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
host = _load("host")
compare = _load("compare")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in list(expected.items()) + [("host_wall_s", "s"), ("fail_frac", "ratio")]:
        assert any(
            line.split()[:1] == [name] and f" {unit} " in line + " "
            for line in proc.stdout.splitlines()
        ), f"{name} not printed with {unit}"


def test_traced_smoke_run_accounts_for_the_traced_wall_time():
    proc = _bench("--workload", "beacon-city", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    result = _result(proc)
    assert result["correct"] and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    summed = sum(metrics[name]["value"] for name in run.ACCOUNTED)
    assert summed == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-3)
    # Work the design expects on this workload actually shows up.
    for name in ("medium.frames", "node.deliveries", "workload.receives", "stats.calls"):
        assert metrics[name]["value"] > 0, name


def test_repeats_with_a_different_digest_fail():
    good = {"digest": "a" * 64, "failures": []}
    altered = {"digest": "b" * 64, "failures": []}
    crashed = {"error": "exit 1: boom"}
    checked = {"digest": "a" * 64, "failures": ["warm re-run executed 3 cells, reused 12"]}
    passed, reasons = run.judge([good, dict(good), altered, crashed, checked])
    assert passed == [good, good]
    assert len(reasons) == 3
    assert any("digest" in reason for reason in reasons)
    assert any("boom" in reason for reason in reasons)
    assert any("warm re-run" in reason for reason in reasons)


def test_an_altered_reference_digest_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    run.record_digest("c" * 64, "storm-core", 7, "smoke")
    assert "matches" in run.reference_status("c" * 64, "storm-core", 7, "smoke")
    assert "DIFFERS" in run.reference_status("d" * 64, "storm-core", 7, "smoke")
    assert "no reference" in run.reference_status("c" * 64, "storm-core", 8, "smoke")


def test_results_from_another_host_are_refused(tmp_path):
    facts = host.host_facts(ROOT)
    base = {
        "host": facts,
        "workload": "storm-core",
        "seed": 1,
        "scale": "full",
        "trace": 0,
        "code_version": "0" * 64,
        "digest": "a",
        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
    }
    other = json.loads(json.dumps(base))
    other["host"]["cpu_model"] = "some other processor"
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    other["host"] = facts
    other["metrics"]["wall_s"]["value"] = 2.0
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "storm-core", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
