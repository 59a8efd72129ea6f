"""Tests of the benchmark itself: one short pass of each workload, a
negative control, the traced run's accounting, the scaling to the
reference speed and the refusal to run without the package.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import speed

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_pass(workload):
    result, info = run.measure(workload, seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    assert info["passes"] == 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert info["counts"] == {**dict.fromkeys(run.COUNT_NAMES, 0), **run.EXPECTED_COUNTS[workload]}
    assert info["speed_samples"] > 0 and all(f > 0 for f in info["pass_speed"])


def test_negative_control(monkeypatch):
    """A wrong expected group and a changed work count are both failures."""
    reference = copy.deepcopy(run.REFERENCE)
    reference["factorizable-s3"]["groups"][3] = "Z/12"
    counts = copy.deepcopy(run.EXPECTED_COUNTS)
    counts["factorizable-s3"]["complexes.nnz"] += 1
    monkeypatch.setattr(run, "REFERENCE", reference)
    monkeypatch.setattr(run, "EXPECTED_COUNTS", counts)
    result, info = run.measure("factorizable-s3", seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 2
    assert info["error_rate"] == 2 / result["attempted"]
    assert any("H_3 = Z/6, expected Z/12" in f for f in info["failures"])
    assert any("complexes.nnz" in f for f in info["failures"])


def test_speed_probe_scales_to_the_reference_speed():
    ref = speed.PROBE_REFERENCE_S
    probe = speed.SpeedProbe()
    # a sample every 10 ms: one second at the reference speed, one at half
    # of it, and one sample slowed a hundredfold by an interrupt
    probe.at = [i / 100 for i in range(200)]
    probe.took = [ref] * 100 + [2 * ref] * 100
    probe.took[50] = 100 * ref
    probe.smooth()
    assert probe.factor(0.0, 0.995) == pytest.approx(1.0)
    assert probe.factor(1.0, 1.995) == pytest.approx(0.5)
    assert probe.factor(0.5, 1.495) == pytest.approx(0.75)
    # an interval shorter than the sampling period: the sample before it
    assert probe.factor(1.503, 1.507) == pytest.approx(0.5)
    assert probe.factor(0.003, 0.007) == pytest.approx(1.0)


def test_traced_run_accounts_for_wall():
    result, info = run.measure("factorizable-s3", seed=4, seconds=0, trace=True)
    assert result["correct"], info["failures"]
    assert info["passes"] == 2  # one traced, one untraced
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    layers = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS if layer != "cli")
    layers += metrics["cli.overhead_s"]
    assert layers + metrics["bench.unattributed_s"] == pytest.approx(metrics["bench.traced_wall_s"])
    # spans inside the package were recorded through the wrapped calls
    assert 0 < metrics["hochschild.totalize_s"] < metrics["hochschild.double_s"]
    assert 0 < metrics["zlinalg.induced_s"] < metrics["hochschild.compare_s"] < metrics["cli.compare_s"]
    assert metrics["hochschild.monoid_size"] == 6
    spans = json.loads((run.ROOT / info["trace_file"]).read_text())
    assert {"name", "start", "end", "parent", "run"} == set(spans[0])
    # the wrappers are removed after the traced pass
    assert run.hochschild.totalize.__module__ == "braidhom.hochschild"
    assert not hasattr(run.hochschild.totalize, "__wrapped__")


def test_traced_sweep_leaves_the_check_out_of_the_pass():
    result, info = run.measure("catalog-sweep", seed=4, seconds=0, trace=True)
    assert result["correct"], info["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS if layer != "cli")
    assert layers + metrics["bench.unattributed_s"] == pytest.approx(metrics["bench.traced_wall_s"])
    assert metrics["bench.traced_wall_s"] == pytest.approx(info["traced_pass_s"][0], rel=1e-3)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "crit-s4", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import braidhom" in proc.stderr
