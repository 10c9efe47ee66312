#!/usr/bin/env python3
"""Closed-loop benchmark for recistkit.

Run from the root of a checkout:

    python3 bench/run.py --workload loop_noisy --seed 1 --seconds 25 --trace 0

builds nothing, imports ``recistkit`` from the checkout's ``src``, runs one
workload for ``--seconds`` seconds and checks its outputs. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones from a separate, traced run. End-to-end
timings are scaled to a reference host speed, see hostspeed.py. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs the four workloads one
after another, each in its own process. README.md defines every metric and
explains the choice of workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hostspeed import LONG_SAMPLE, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("loop_clean", "loop_noisy", "train_targets", "cli_batch")
SETUP_RUNS = 9


def import_library():
    """Import recistkit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "recistkit" / "__init__.py").is_file():
        sys.exit(f"error: no recistkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import recistkit

    if SRC not in Path(recistkit.__file__).resolve().parents:
        sys.exit(f"error: recistkit imported from {recistkit.__file__}, not {SRC}")
    return recistkit


def setup_seconds(speed: HostSpeed) -> list[float]:
    """Fresh-interpreter import of the package and its CLI, several times,
    in reference-host seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    intervals = []
    for _ in range(SETUP_RUNS):
        speed.sample(LONG_SAMPLE)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import recistkit, recistkit.cli"],
            env=env, cwd=ROOT, check=True, timeout=60,
        )
        intervals.append((t0, time.perf_counter()))
    speed.sample(LONG_SAMPLE)
    return [speed.scaled(t0, t1) for t0, t1 in intervals]


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU of those it may use.

    The two vCPUs of the baseline host change speed independently of each
    other, so a process that moves between them, or a child on the other
    one, is timed at a speed the reference kernel did not see.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    import workloads as wl

    spec = load_spec()
    size = wl.TINY if args.tiny else wl.FULL
    workload = wl.all_workloads(SRC)[args.workload]
    ledger = wl.Ledger()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(), "loadavg_start": os.getloadavg()}
    record["pinned_cpu"] = pin_to_one_cpu()

    speed = None if args.trace else HostSpeed()
    setup = [] if args.trace else setup_seconds(speed)
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        outcome = workload.run(
            workdir, args.seed, args.seconds, size, bool(args.trace), ledger, speed
        )
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        ledger.exception(args.workload, exc)
        outcome = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass
    record["loadavg_end"] = os.getloadavg()
    if speed is not None:
        record["host_speed"] = speed.summary()

    metrics: dict[str, tuple[float, str, int]] = {}
    named: dict[str, tuple[float, str, int]] = {}
    if outcome is not None and outcome.latencies:
        digest = wl.digest_of(outcome.digest_bytes)
        record["digest"] = digest
        sens = outcome.extra.get("froc_mean_sens", (None,))[0]
        record["froc_mean_sens"] = sens
        check_digest(args, size, digest, sens, ledger)

        n = len(outcome.latencies)
        values = {
            "items_per_s": (outcome.items_per_s, "1/s", n),
            "item_ms_p50": (1000 * statistics.median(outcome.latencies), "ms", n),
            "item_ms_p95": (1000 * float(np.percentile(outcome.latencies, 95)), "ms", n),
            "core_ms_p50": (1000 * statistics.median(outcome.core), "ms", n),
            "core_ms_p95": (1000 * float(np.percentile(outcome.core, 95)), "ms", n),
            "peak_rss_mb": (peak_rss_mb(args.workload == "cli_batch"), "MB", 1),
        }
        if setup:
            values["setup_s"] = (statistics.median(setup), "s", len(setup))
        if args.trace:
            layers = dict(outcome.layers, **{"trace.overhead_ratio": outcome.overhead_ratio})
            for m in spec["per_layer"]:
                metrics[m["name"]] = (layers.get(m["name"], 0.0), m["unit"],
                                      outcome.traced_items)
        else:
            for m in spec["end_to_end"]:
                value = values.get(m["name"])
                if ledger.check(value is not None and value[1] == m["unit"],
                                f"metric {m['name']} ({m['unit']}) not measured"):
                    metrics[m["name"]] = value
            for generic, value in values.items():
                named[workload.aliases.get(generic, generic)] = value
            named.update(outcome.extra)
    elif outcome is not None:
        ledger.check(False, "no item completed")

    named["failed_ratio"] = (ledger.failed / max(ledger.attempted, 1), "1",
                             ledger.attempted)
    record["named"] = {k: {"value": v, "unit": u, "samples": c}
                       for k, (v, u, c) in named.items()}
    record["metric_samples"] = {k: c for k, (_v, _u, c) in metrics.items()}
    record["errors"] = ledger.errors[:20]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit, count) in named.items():
        print(f"  {name:<18} {value:>12.6g} {unit:<6} (n={count})")
    for message in ledger.errors[:20]:
        print(f"  FAILED: {message}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _c) in metrics.items()},
    }))
    return 0 if correct else 1


def check_digest(args, size, digest, sens, ledger) -> None:
    """Compare with the digest recorded for this seed, if there is one."""
    if args.tiny:
        return
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = recorded.get(args.workload, {}).get(str(args.seed))
    if expected is not None:
        entry = {"digest": digest, "froc_mean_sens": sens}
        ledger.check(expected == entry,
                     f"output digest {entry} differs from recorded {expected}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        correct &= proc.returncode == 0 and result.get("correct", False)
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        metrics.update({f"{name}.{k}": v for k, v in result.get("metrics", {}).items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the fixed-size inputs, for the self-tests; "
                             "recorded digests are not checked")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    import_library()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
