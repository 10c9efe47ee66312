"""Self-tests for the benchmark, kept out of tier-1.

Run from the checkout root with ``python3 -m pytest -q bench/selftest``.
Each workload runs at ``--tiny`` size for one second, so the whole file
takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def parsed(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(record, result) from a run's last two stdout lines."""
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload: str, seed: int, trace: int):
        key = (workload, seed, trace)
        if key not in cache:
            proc = run_bench("--workload", workload, "--seed", str(seed),
                             "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            cache[key] = parsed(proc)
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    record, result = runs(workload, 3, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        for key in ("python", "numpy", "numpy_cpu_features", "cpu_count",
                    "cpu_affinity"):
            assert key in record["provenance"]
        assert len(record["loadavg_start"]) == len(record["loadavg_end"]) == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_digests_agree(runs, workload):
    untraced, _ = runs(workload, 3, 0)
    traced, _ = runs(workload, 3, 1)
    assert traced["digest"] == untraced["digest"]
    assert traced["froc_mean_sens"] == untraced["froc_mean_sens"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_changing_the_seed_changes_the_digest(runs, workload):
    assert runs(workload, 3, 0)[0]["digest"] != runs(workload, 4, 0)[0]["digest"]


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_recorded_digest_is_checked(tmp_path):
    proc = run_bench("--workload", "loop_clean", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    record, result = parsed(proc)
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())
    assert recorded["loop_clean"]["0"] == {
        "digest": record["digest"], "froc_mean_sens": record["froc_mean_sens"]
    }

    root = copy_checkout(tmp_path, with_src=True)
    recorded["loop_clean"]["0"]["digest"] = "0" * 64
    (root / "bench" / "digests.json").write_text(json.dumps(recorded))
    proc = run_bench("--workload", "loop_clean", "--seed", "0", root=root)
    _, result = parsed(proc)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_it_fails_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc = run_bench("--workload", "loop_clean", "--seed", "0", root=root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_scales_by_the_nearest_samples():
    speed = HostSpeed()
    # kernel samples at t = 1, 2, 3: at reference speed, then twice as slow
    speed.midpoints = [1.0, 2.0, 3.0]
    speed.seconds = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S]
    assert speed.scaled(1.2, 1.8) == pytest.approx(0.6)
    assert speed.scaled(2.2, 2.8) == pytest.approx(0.6 / 1.5)
    assert speed.scaled(3.5, 4.5) == pytest.approx(0.5)  # only a sample before
    assert speed.scaled(0.0, 0.5) == pytest.approx(0.5)  # only a sample after
