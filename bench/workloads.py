"""The benchmark's four closed-loop workloads.

Each workload is a single-process closed loop: the next image or sample
starts only after the previous one has finished, and nothing runs
concurrently except the two ``detect --workers 2`` threads of
``cli_batch``. Inputs come only from the ``--seed`` argument. Why each
workload exists is in a comment in :func:`all_workloads` and, at more
length, in README.md.

A workload's ``run`` returns a :class:`Outcome`: per-item latencies, the
output bytes that go into the digest, and, for the traced run, the tracer
whose spans and counts give the per-layer numbers. In an untraced run the
latencies are in reference-host seconds (see :mod:`hostspeed`). Every
workload also checks its own outputs against an independent computation, so
a seed that has no recorded digest is still checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from recistkit import (
    DegradationConfig,
    GroupingConfig,
    SoftNmsConfig,
    SyntheticScene,
    detect,
    enumerate_quadruples,
    extract_peaks,
    finite_diff_check,
    flip_scene,
    focal_loss,
    focal_loss_grad,
    froc,
    fuse_tta,
    generate_scene,
    match_detections,
    offset_loss,
    offset_loss_grad,
    parse_annotations,
    read_detections,
    read_heatmaps,
    refine_with_offsets,
    render_targets,
    simulate_heatmaps,
    soft_nms,
    stratified_froc,
    unflip_detections,
    write_annotations,
    write_detections,
    write_heatmaps,
)
from recistkit.dataio import detection_to_dict
from recistkit.evaluation import diameter_bucket
from recistkit.geometry import ExtremePoints, Point2
from recistkit.targets import EXTREME_ROLES

from hostspeed import LONG_SAMPLE, HostSpeed
from tracing import NullTracer, Tracer

IMAGE_SIZE = (768, 768)
STRIDE = 4
GRID = IMAGE_SIZE[0] // STRIDE
GROUPING = GroupingConfig()
SOFT_NMS = SoftNmsConfig()
NOISY = {
    "noise_sigma": 0.05,
    "peak_drop_prob": 0.1,
    "spurious_rate": 2.0,
    "jitter_cells": 1,
}

# train_targets cycles through this many annotation CSVs and prediction sets
TRAIN_SCENES = 16
TRAIN_PREDICTIONS = 8

# the per-workload names of the generic metrics, for workloads whose items
# are images
IMAGE_ALIASES = {
    "items_per_s": "images_per_s",
    "item_ms_p50": "image_ms_p50",
    "item_ms_p95": "image_ms_p95",
    "core_ms_p50": "decode_ms_p50",
    "core_ms_p95": "decode_ms_p95",
}

# a workload stops counting after this many failed items: one defect would
# otherwise fail every item for the whole run
MAX_FAILURES = 10
# cli_batch runs a fixed number of sessions, one per SESSION_S seconds of
# --seconds and at least MIN_SESSIONS, so its sample count depends on the
# arguments only, not on how fast the host happens to be
SESSION_S = 6.0
MIN_SESSIONS = 2


@dataclass(frozen=True)
class Size:
    """How much work the checks and the fixed-size inputs hold."""

    check_items: int  # leading items digested and re-verified
    cli_images: int  # bundles per view in cli_batch
    focal_trials: int  # gradient check, as check-gradients --trials
    offset_trials: int


FULL = Size(check_items=8, cli_images=50, focal_trials=100, offset_trials=10)
TINY = Size(check_items=2, cli_images=4, focal_trials=10, offset_trials=1)


class Ledger:
    """Operations attempted and failed; every failure keeps a message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def exception(self, what: str, exc: BaseException) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Outcome:
    """What one workload run measured and produced."""

    latencies: list[float]  # seconds per item, whole loop
    core: list[float]  # seconds per item, the workload's inner stage
    items_per_s: float  # per second of item time, a final step included
    digest_bytes: bytes
    # workload-named figures beyond the generic ones: name -> (value, unit, n)
    extra: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    traced_items: int = 0
    overhead_ratio: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


def scene_seed(seed: int, index: int) -> int:
    """Scene seed of item ``index``; its views degrade with this seed and +1."""
    return seed * 1_000_000 + 2 * index


def detections_bytes(key: str, dets) -> bytes:
    """The bytes ``write_detections`` writes for one image without config."""
    doc = {"config": None, "images": {key: [detection_to_dict(d) for d in dets]}}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def froc_dict(result) -> dict:
    return {
        "n_images": result.n_images,
        "n_lesions": result.n_lesions,
        "points": [
            {
                "fp_target": p.fp_target,
                "sensitivity": p.sensitivity,
                "threshold": None if math.isinf(p.threshold) else p.threshold,
                "fp_per_image": p.fp_per_image,
            }
            for p in result.points
        ],
    }


def same_planes(a, b) -> bool:
    """Whether two heatmap bundles hold the same float32 bits."""
    return np.array_equal(
        a.keypoint_maps.view(np.uint32), b.keypoint_maps.view(np.uint32)
    ) and np.array_equal(a.offset_maps.view(np.uint32), b.offset_maps.view(np.uint32))


def mean_sensitivity(points) -> float:
    return sum(p["sensitivity"] for p in points) / len(points)


def timed_loop(
    ledger, run_item, tracer, seconds, min_items, before=None, after=None, keep=None,
    speed: HostSpeed | None = None,
):
    """Closed loop of items for ``seconds`` and at least ``min_items``.

    Returns (latencies, core seconds, kept results, loop start). ``before``
    and ``after`` run on each item outside its timing; only the first
    ``min_items`` results are kept, passed through ``keep`` to drop what
    the checks do not need. With ``speed``, the reference kernel runs after
    each item, and the latencies and core seconds come back scaled to the
    reference host.
    """
    latencies, core, kept, midpoints = [], [], [], []
    if speed is not None:
        speed.sample()
    start = time.perf_counter()
    index = 0
    while index < min_items or time.perf_counter() - start < seconds:
        if before is not None:
            before(index)
        tracer.item = index
        t0 = time.perf_counter()
        try:
            with tracer.span("item"):
                result = run_item(index, tracer)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            ledger.exception(f"item {index}", exc)
            if ledger.failed >= MAX_FAILURES:
                break
            index += 1
            continue
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        midpoints.append((t0 + t1) / 2)
        ledger.check(True, "")
        core.append(result.core_s)
        if speed is not None:
            speed.sample()
        if after is not None:
            after(index, result)
        if index < min_items:
            kept.append(keep(result) if keep is not None else result)
        index += 1
    tracer.item = None
    if speed is not None:
        scales = [speed.scale_at(m) for m in midpoints]
        latencies = [t * k for t, k in zip(latencies, scales)]
        core = [t * k for t, k in zip(core, scales)]
    return latencies, core, kept, start


class Untraced:
    """Runs each item untraced just before its traced run and times it.

    Pairing the two runs of an item lets machine drift hit both alike, so
    ``overhead`` measures tracing rather than the neighbours.
    """

    def __init__(self, run_item):
        self.run_item = run_item
        self.seconds: list[float] = []

    def __call__(self, index: int) -> None:
        t0 = time.perf_counter()
        self.run_item(index, NullTracer())
        self.seconds.append(time.perf_counter() - t0)


def overhead(untraced: list[float], traced: list[float]) -> float:
    """Traced over untraced time for the items both runs had, minus 1."""
    n = min(len(untraced), len(traced))
    if n == 0:
        return 0.0
    return sum(traced[:n]) / sum(untraced[:n]) - 1.0


def per_item_ms(tracer: Tracer, items: int) -> dict[str, float]:
    return {
        f"{name}.ms": 1000.0 * total / max(items, 1)
        for name, total in tracer.self_seconds().items()
    }


# ---------------------------------------------------------------------------
# loop_clean, loop_noisy


@dataclass
class LoopItem:
    key: str
    annotations: list
    simulated: tuple  # the two bundles as simulated
    read: tuple  # the two bundles as read back from .rkhm
    detections: tuple  # the two views' detections as read back from JSON
    fused: list
    match: object
    core_s: float


class LoopWorkload:
    """One image at a time through the whole pipeline, both flip views."""

    aliases = IMAGE_ALIASES

    def __init__(self, name: str, degradation: dict, perfect: bool):
        self.name = name
        self.degradation = degradation
        self.perfect = perfect  # every lesion must be found

    def degrade(self, seed: int) -> DegradationConfig:
        return DegradationConfig(seed=seed, **self.degradation)

    def decode(self, bundle, tracer, staged):
        """``detect``, or in the traced run the stages it is made of."""
        if not staged:
            return detect(bundle, GROUPING, workers=1)
        peaks = {
            role: tracer.call(
                "grouping.extract_peaks", extract_peaks,
                bundle.keypoint_map(role), GROUPING, role,
            )
            for role in EXTREME_ROLES
        }
        sizes = [len(p) for p in peaks.values()]
        candidates = tracer.call(
            "grouping.enumerate_quadruples", enumerate_quadruples,
            peaks, bundle.keypoint_map("center"), GROUPING, workers=1,
        )
        tracer.count("grouping.peak_lists", len(sizes))
        tracer.count("grouping.peaks", sum(sizes))
        tracer.count("grouping.k1_saturated", sum(s == GROUPING.k1 for s in sizes))
        tracer.count("grouping.quadruples_considered", math.prod(sizes))
        tracer.count("grouping.candidates_kept", len(candidates))
        return tracer.call(
            "grouping.refine_with_offsets", refine_with_offsets,
            candidates, bundle.offset_maps, bundle.stride,
        )

    def fuse(self, original, flipped, tracer, staged):
        """``fuse_tta``, or in the traced run the stages it is made of."""
        if not staged:
            return fuse_tta(original, flipped, IMAGE_SIZE[0], SOFT_NMS)
        pooled = list(original) + tracer.call(
            "fusion.unflip_detections", unflip_detections, flipped, IMAGE_SIZE[0]
        )
        fused = tracer.call("fusion.soft_nms", soft_nms, pooled, SOFT_NMS)
        tracer.count("fusion.pool_size", len(pooled))
        tracer.count("fusion.kept", len(fused))
        return fused

    def run_item(self, workdir: Path, seed: int, index: int, tracer, staged):
        s = scene_seed(seed, index)
        scene = tracer.call(
            "synthetic.generate_scene", generate_scene, 3,
            image_size=IMAGE_SIZE, seed=s,
        )
        key = scene.annotations[0].file_name
        views = (scene, flip_scene(scene))
        # one file name per image, as a user's run has; overwriting one name
        # would add the file system's truncate-and-flush cost to every write
        hm_paths = [workdir / f"{key}.view{v}.rkhm" for v in (0, 1)]
        det_paths = [workdir / f"{key}.view{v}.json" for v in (0, 1)]
        simulated = []
        for v, view in enumerate(views):
            bundle = tracer.call(
                "synthetic.simulate_heatmaps", simulate_heatmaps,
                view, self.degrade(s + v), STRIDE,
            )
            tracer.call("dataio.write_heatmaps", write_heatmaps, bundle, hm_paths[v])
            simulated.append(bundle)

        t0 = time.perf_counter()
        read = [
            tracer.call("dataio.read_heatmaps", read_heatmaps, path)
            for path in hm_paths
        ]
        dets = [self.decode(bundle, tracer, staged) for bundle in read]
        core_s = time.perf_counter() - t0

        for v in (0, 1):
            tracer.call(
                "dataio.write_detections", write_detections,
                {key: dets[v]}, det_paths[v],
            )
        for v in (0, 1):
            docs, _ = tracer.call("dataio.read_detections", read_detections, det_paths[v])
            dets[v] = docs[key]

        t0 = time.perf_counter()
        fused = self.fuse(dets[0], dets[1], tracer, staged)
        match = tracer.call(
            "evaluation.match_detections", match_detections,
            fused, [ann.bbox for ann in scene.annotations],
        )
        core_s += time.perf_counter() - t0

        if tracer.enabled:
            tracer.count("dataio.rkhm_files", 2)
            tracer.count("dataio.rkhm_bytes", sum(p.stat().st_size for p in hm_paths))
            tracer.count(
                "dataio.detections_bytes", sum(p.stat().st_size for p in det_paths)
            )
            tp = sum(r.is_tp for r in match.records)
            tracer.count("evaluation.tp", tp)
            tracer.count("evaluation.fp", len(match.records) - tp)
        for path in hm_paths + det_paths:
            path.unlink()
        return LoopItem(
            key, scene.annotations, tuple(simulated), tuple(read), tuple(dets),
            fused, match, core_s,
        )

    def one_call(self, item: LoopItem) -> LoopItem:
        """``detect`` and ``fuse_tta`` on the inputs a staged item saw."""
        return replace(
            item,
            detections=tuple(detect(b, GROUPING, workers=1) for b in item.read),
            fused=fuse_tta(*item.detections, IMAGE_SIZE[0], SOFT_NMS),
        )

    def verify(self, staged: LoopItem, reference: LoopItem) -> list[str]:
        """Differences between a staged item and the one-call ``reference``."""
        key = staged.key
        problems = []
        for v in (0, 1):
            if not same_planes(staged.simulated[v], staged.read[v]):
                problems.append(f"{key} view {v}: .rkhm round trip not bit-exact")
            if detections_bytes(key, staged.detections[v]) != detections_bytes(
                key, reference.detections[v]
            ):
                problems.append(f"{key} view {v}: stages differ from detect")
        if detections_bytes(key, staged.fused) != detections_bytes(key, reference.fused):
            problems.append(f"{key}: stages differ from fuse_tta")
        found = sum(r.is_tp for r in staged.match.records)
        if self.perfect and found != len(staged.annotations):
            problems.append(f"{key}: a clean image missed a lesion")
        return problems

    def outcome(self, latencies, core, busy, checked: list[LoopItem]) -> Outcome:
        """Digest the checked items' fused detections and their FROC report."""
        report = froc_dict(froc([item.match for item in checked]))
        parts = [detections_bytes(item.key, item.fused) for item in checked]
        parts.append(json.dumps(report, sort_keys=True).encode())
        out = Outcome(latencies, core, len(latencies) / busy, b"".join(parts))
        out.extra["froc_mean_sens"] = (
            mean_sensitivity(report["points"]), "1", len(checked)
        )
        return out

    def run(self, workdir, seed, seconds, size, traced, ledger, speed) -> Outcome:
        def item(staged):
            return lambda index, tracer: self.run_item(
                workdir, seed, index, tracer, staged
            )

        null = NullTracer()
        item(False)(0, null)  # warm-up: lazy imports, page cache
        matches = []

        def slim(result):
            return replace(result, simulated=(), read=())

        if not traced:
            lat, core, checked, _ = timed_loop(
                ledger, item(False), null, seconds, size.check_items,
                after=lambda index, r: matches.append(r.match), keep=slim,
                speed=speed,
            )
            t0 = time.perf_counter()
            froc(matches)
            t1 = time.perf_counter()
            speed.sample()
            busy = sum(lat) + speed.scaled(t0, t1)
            # recompute the digested items stage by stage and compare bytes
            for index, timed in enumerate(checked):
                again = self.run_item(workdir, seed, index, null, staged=True)
                problems = self.verify(again, timed)
                ledger.check(not problems, "; ".join(problems))
            return self.outcome(lat, core, busy, checked)

        untraced = Untraced(item(False))
        tracer = Tracer()

        def verify(index, result):
            problems = self.verify(result, self.one_call(result))
            ledger.check(not problems, "; ".join(problems))
            matches.append(result.match)

        lat, core, checked, start = timed_loop(
            ledger, item(True), tracer, seconds, size.check_items,
            before=untraced, after=verify, keep=slim,
        )
        tracer.call("evaluation.froc", froc, matches)
        wall = time.perf_counter() - start
        out = self.outcome(lat, core, wall, checked)
        out.traced_items = len(lat)
        out.overhead_ratio = overhead(untraced.seconds, lat)
        out.layers = loop_layers(tracer, len(lat))
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def loop_layers(tracer: Tracer, items: int) -> dict[str, float]:
    c = tracer.counts.get
    layers = per_item_ms(tracer, items)
    layers["evaluation.froc.ms"] = 1000.0 * sum(tracer.durations("evaluation.froc"))
    layers.update(
        {
            "dataio.rkhm_bytes": ratio(c("dataio.rkhm_bytes", 0), c("dataio.rkhm_files", 0)),
            "dataio.detections_bytes": ratio(c("dataio.detections_bytes", 0), items),
            "grouping.peaks_per_role": ratio(c("grouping.peaks", 0), c("grouping.peak_lists", 0)),
            "grouping.k1_saturated_share": ratio(
                c("grouping.k1_saturated", 0), c("grouping.peak_lists", 0)
            ),
            "grouping.quadruples_considered": ratio(
                c("grouping.quadruples_considered", 0), items
            ),
            "grouping.candidates_kept": ratio(c("grouping.candidates_kept", 0), items),
            "grouping.candidate_yield": ratio(
                c("grouping.candidates_kept", 0), c("grouping.quadruples_considered", 0)
            ),
            "fusion.pool_size": ratio(c("fusion.pool_size", 0), items),
            "fusion.kept_ratio": ratio(c("fusion.kept", 0), c("fusion.pool_size", 0)),
            "evaluation.tp": ratio(c("evaluation.tp", 0), items),
            "evaluation.fp": ratio(c("evaluation.fp", 0), items),
        }
    )
    return layers


# ---------------------------------------------------------------------------
# train_targets


@dataclass
class TrainItem:
    targets: object
    losses: tuple[float, float]
    grads: tuple[np.ndarray, np.ndarray]
    core_s: float

    def output_hash(self) -> bytes:
        """SHA-256 of the loss values' float64 bits and both gradients' bits."""
        h = hashlib.sha256(np.array(self.losses, dtype="<f8").tobytes())
        for g in self.grads:
            h.update(np.ascontiguousarray(g, dtype="<f8").tobytes())
        return h.digest()


def small_offset_targets():
    """Two lesions on a 12x12 grid, the planes ``check-gradients`` sweeps."""

    def diamond(cx, cy, hw, hh):
        return ExtremePoints(
            top=Point2(cx, cy - hh), left=Point2(cx - hw, cy),
            bottom=Point2(cx, cy + hh), right=Point2(cx + hw, cy),
            center=Point2(cx, cy),
        )

    return render_targets(
        [diamond(14.5, 16.25, 9, 10), diamond(34.0, 30.75, 10, 8)], 12, 12, 4
    )


class TrainWorkload:
    """Training-side targets and losses, plus one gradient check per run."""

    name = "train_targets"
    aliases = {
        "items_per_s": "samples_per_s",
        "item_ms_p50": "sample_ms_p50",
        "item_ms_p95": "sample_ms_p95",
        "core_ms_p50": "loss_ms_p50",
        "core_ms_p95": "loss_ms_p95",
    }

    def prepare(self, workdir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.csvs = []
        for j in range(TRAIN_SCENES):
            n = 1 + int(rng.integers(4))
            scene = generate_scene(n, image_size=IMAGE_SIZE, seed=scene_seed(seed, j))
            path = workdir / f"scene{j}.csv"
            write_annotations(scene.annotations, path)
            self.csvs.append(path)
        # network predictions stand-ins: heatmaps mostly low, offsets anywhere
        self.predictions = [
            (
                rng.uniform(0.001, 0.5, (5, GRID, GRID)).astype(np.float32),
                rng.uniform(0.0, 1.0, (8, GRID, GRID)).astype(np.float32),
            )
            for _ in range(TRAIN_PREDICTIONS)
        ]

    def run_item(self, index: int, tracer) -> TrainItem:
        parsed = tracer.call(
            "dataio.parse_annotations", parse_annotations,
            self.csvs[index % TRAIN_SCENES],
        )
        targets = tracer.call(
            "targets.render_targets", render_targets,
            [ann.extremes() for ann in parsed.annotations], GRID, GRID, STRIDE,
            input_size=IMAGE_SIZE,
        )
        heat, offsets = self.predictions[index % TRAIN_PREDICTIONS]
        planes, n = targets.bundle.keypoint_maps, targets.n_objects
        t0 = time.perf_counter()
        fl = tracer.call("losses.focal_loss", focal_loss, heat, planes, n)
        fg = tracer.call("losses.focal_loss_grad", focal_loss_grad, heat, planes, n)
        ol = tracer.call("losses.offset_loss", offset_loss, offsets, targets)
        og = tracer.call("losses.offset_loss_grad", offset_loss_grad, offsets, targets)
        core_s = time.perf_counter() - t0
        return TrainItem(targets, (fl, ol), (fg, og), core_s)

    def verify(self, index: int, output_hash: bytes) -> list[str]:
        """Same bits on a rerun, finite losses, and both render paths agree."""
        problems = []
        again = self.run_item(index, NullTracer())
        if again.output_hash() != output_hash:
            problems.append(f"sample {index}: losses differ on a rerun")
        if not all(math.isfinite(v) for v in again.losses):
            problems.append(f"sample {index}: non-finite loss")
        annotations = parse_annotations(self.csvs[index % TRAIN_SCENES]).annotations
        scene = SyntheticScene(IMAGE_SIZE, annotations, seed=0)
        simulated = simulate_heatmaps(scene, DegradationConfig(), STRIDE)
        if not same_planes(simulated, again.targets.bundle):
            problems.append(
                f"sample {index}: render_targets and clean simulate_heatmaps differ"
            )
        return problems

    def gradient_check(self, seed, size, tracer, ledger) -> list[float]:
        """``check-gradients``'s trials; returns each trial's max_rel_err."""
        rng = np.random.default_rng(seed)
        calls = [0]

        def counted(fn):
            def loss(x):
                calls[0] += 1
                return fn(x)

            return loss if tracer.enabled else fn

        errors = []
        for trial in range(size.focal_trials):
            pred = rng.uniform(0.05, 0.95, size=(8, 8))
            target = np.zeros((8, 8))
            peaks = int(rng.integers(1, 4))
            for _ in range(peaks):
                r, c = rng.integers(0, 8, size=2)
                target[r, c] = 1.0
            shoulders = rng.uniform(0.0, 0.99, size=(8, 8))
            target = np.where(target == 1.0, 1.0, shoulders * (rng.random((8, 8)) < 0.3))
            report = tracer.call(
                "losses.finite_diff_check", finite_diff_check,
                counted(lambda x: focal_loss(x, target, peaks)),
                lambda x: focal_loss_grad(x, target, peaks),
                pred,
            )
            ledger.check(report.passed, f"focal trial {trial}: max_rel_err "
                                        f"{report.max_rel_err:.3e}")
            errors.append(report.max_rel_err)

        targets = small_offset_targets()
        shape = targets.bundle.offset_maps.shape
        for trial in range(size.offset_trials):
            pred = rng.uniform(0.0, 1.0, size=shape)
            report = tracer.call(
                "losses.finite_diff_check", finite_diff_check,
                counted(lambda x: offset_loss(x, targets)),
                lambda x: offset_loss_grad(x, targets),
                pred,
            )
            ledger.check(report.passed, f"offset trial {trial}: max_rel_err "
                                        f"{report.max_rel_err:.3e}")
            errors.append(report.max_rel_err)
        tracer.count("losses.finite_diff_check.loss_calls", calls[0])
        return errors

    def run(self, workdir, seed, seconds, size, traced, ledger, speed) -> Outcome:
        self.prepare(workdir, seed)
        null = NullTracer()
        self.run_item(0, null)  # warm-up
        tracer = Tracer() if traced else null
        untraced = Untraced(self.run_item) if traced else None
        lat, core, checked, start = timed_loop(
            ledger, self.run_item, tracer, seconds, size.check_items,
            before=untraced, keep=TrainItem.output_hash, speed=speed,
        )
        busy = sum(lat) if speed is not None else time.perf_counter() - start
        for index, output_hash in enumerate(checked):
            problems = self.verify(index, output_hash)
            ledger.check(not problems, "; ".join(problems))

        t0 = time.perf_counter()
        errors = self.gradient_check(seed, size, tracer, ledger)
        t1 = time.perf_counter()
        gradcheck_s = t1 - t0
        if speed is not None:
            speed.sample(LONG_SAMPLE)
            gradcheck_s = speed.scaled(t0, t1)

        data = b"".join(checked)
        data += np.array(errors, dtype="<f8").tobytes()
        out = Outcome(lat, core, len(lat) / busy, data)
        out.extra["gradcheck_s"] = (gradcheck_s, "s", 1)
        if traced:
            out.traced_items = len(lat)
            out.overhead_ratio = overhead(untraced.seconds, lat)
            out.layers = per_item_ms(tracer, len(lat))
            out.layers["losses.finite_diff_check.ms"] = 1000.0 * sum(
                tracer.durations("losses.finite_diff_check")
            )
            out.layers["losses.finite_diff_check.loss_calls"] = tracer.counts.get(
                "losses.finite_diff_check.loss_calls", 0
            )
        return out


# ---------------------------------------------------------------------------
# cli_batch


class CliWorkload:
    """Directories of bundles through ``detect``, ``fuse`` and ``eval``."""

    name = "cli_batch"
    aliases = IMAGE_ALIASES
    workers = 2

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.cwd = src.parent

    def cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "recistkit.cli", *args],
            cwd=self.cwd, env=self.env, capture_output=True, text=True, timeout=150,
        )

    def prepare(self, workdir: Path, seed: int, size: Size, tracer) -> None:
        self.dirs = [workdir / "original", workdir / "flipped"]
        for d in self.dirs:
            d.mkdir()
        annotations = []
        for j in range(size.cli_images):
            tracer.item = j
            s = scene_seed(seed, j)
            scene = tracer.call(
                "synthetic.generate_scene", generate_scene, 3,
                image_size=IMAGE_SIZE, seed=s,
            )
            for v, view in enumerate((scene, flip_scene(scene))):
                bundle = tracer.call(
                    "synthetic.simulate_heatmaps", simulate_heatmaps,
                    view, DegradationConfig(seed=s + v, **NOISY), STRIDE,
                )
                path = self.dirs[v] / f"{scene.annotations[0].file_name}.rkhm"
                tracer.call("dataio.write_heatmaps", write_heatmaps, bundle, path)
                self.rkhm_bytes = path.stat().st_size
            annotations.extend(scene.annotations)
        tracer.item = None
        self.csv = workdir / "annotations.csv"
        write_annotations(annotations, self.csv)
        self.outs = {
            name: workdir / f"{name}.json" for name in ("original", "flipped", "fused")
        }
        self.report = workdir / "report"

    def session(self, tracer, ledger, speed=None):
        """The four CLI calls; returns ((start, end) per call by command,
        output bytes). With ``speed``, the reference kernel runs before each
        call.
        """
        o = self.outs
        calls = [
            ("detect", ["detect", "--heatmaps", str(self.dirs[0]),
                        "--workers", str(self.workers), "--out", str(o["original"])]),
            ("detect", ["detect", "--heatmaps", str(self.dirs[1]),
                        "--workers", str(self.workers), "--out", str(o["flipped"])]),
            ("fuse", ["fuse", "--original", str(o["original"]),
                      "--flipped", str(o["flipped"]),
                      "--image-width", str(IMAGE_SIZE[0]), "--out", str(o["fused"])]),
            ("eval", ["eval", "--detections", str(o["fused"]),
                      "--annotations", str(self.csv), "--stratify", "diameter",
                      "--out", str(self.report)]),
        ]
        spans = {"detect": [], "fuse": [], "eval": []}
        for command, args in calls:
            if speed is not None:
                speed.sample(LONG_SAMPLE)
            t0 = time.perf_counter()
            with tracer.span(f"cli.{command}"):
                proc = self.cli(*args)
            spans[command].append((t0, time.perf_counter()))
            if not ledger.check(
                proc.returncode == 0,
                f"recistkit {command} exited {proc.returncode}: {proc.stderr.strip()}",
            ):
                return None
        fused = o["fused"].read_bytes()
        report = Path(f"{self.report}.json").read_bytes()
        return spans, fused + report

    @staticmethod
    def seconds(intervals: dict, speed=None) -> dict[str, float]:
        """Seconds per command, scaled to the reference host with ``speed``."""
        length = (lambda t0, t1: t1 - t0) if speed is None else speed.scaled
        return {c: sum(length(*i) for i in spans) for c, spans in intervals.items()}

    def sessions(self, tracer, ledger, count, untraced=None, speed=None):
        """``count`` sessions, or fewer if one fails; seconds per command.

        With an ``untraced`` list, an untraced session runs just before each
        traced one and its time is appended there.
        """
        out = []
        for _ in range(count):
            if untraced is not None:
                result = self.session(NullTracer(), ledger)
                if result is None:
                    break
                untraced.append(sum(self.seconds(result[0]).values()))
            result = self.session(tracer, ledger, speed)
            if result is None:
                break
            out.append(result)
        if speed is not None:
            speed.sample(LONG_SAMPLE)
        return [(self.seconds(spans, speed), data) for spans, data in out]

    def reference(self, size: Size, tracer, ledger) -> float:
        """Recompute part of the session in process and compare with the CLI.

        The first ``check_items`` images are decoded and fused with the
        library; the whole report is re-evaluated from the CLI's fused file.
        Returns the mean sensitivity the CLI reported.
        """
        doc = json.loads(self.outs["fused"].read_text())["images"]
        keys = sorted(doc)
        for key in keys[: size.check_items]:
            views = [read_heatmaps(d / f"{key}.rkhm") for d in self.dirs]
            dets = [detect(b, GROUPING, workers=1) for b in views]
            fused = fuse_tta(*dets, IMAGE_SIZE[0], SOFT_NMS)
            expected = json.loads(detections_bytes(key, fused))["images"][key]
            ledger.check(doc[key] == expected, f"{key}: CLI fuse differs from fuse_tta")

        detections, _ = tracer.call(
            "dataio.read_detections", read_detections, self.outs["fused"]
        )
        parsed = tracer.call("dataio.parse_annotations", parse_annotations, self.csv)
        by_image = {}
        for ann in parsed.annotations:
            by_image.setdefault(ann.file_name, []).append(ann)
        matches, labels = [], []
        for index, key in enumerate(sorted(set(detections) | set(by_image))):
            tracer.item = index
            anns = by_image.get(key, [])
            match = tracer.call(
                "evaluation.match_detections", match_detections,
                detections.get(key, []), [a.bbox for a in anns],
            )
            tp = sum(r.is_tp for r in match.records)
            tracer.count("evaluation.tp", tp)
            tracer.count("evaluation.fp", len(match.records) - tp)
            matches.append(match)
            labels.append([diameter_bucket(a.long_diameter_mm) for a in anns])
        tracer.item = None
        result = tracer.call("evaluation.froc", froc, matches)
        strata = tracer.call(
            "evaluation.stratified_froc", stratified_froc, matches, labels, "diameter"
        )
        report = json.loads(Path(f"{self.report}.json").read_text())
        ledger.check(
            report["froc"] == froc_dict(result)
            and report["strata"]["per_stratum"]
            == {k: froc_dict(v) for k, v in strata.per_stratum.items()},
            "CLI eval report differs from froc/stratified_froc",
        )
        return mean_sensitivity(report["froc"]["points"])

    def startup_s(self) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.cli("--help")
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    def run(self, workdir, seed, seconds, size, traced, ledger, speed) -> Outcome:
        tracer = Tracer() if traced else NullTracer()
        self.prepare(workdir, seed, size, tracer)
        untraced = [] if traced else None
        count = max(MIN_SESSIONS, int(seconds // SESSION_S))
        done = self.sessions(tracer, ledger, count, untraced, speed)
        if not done:
            raise RuntimeError("no CLI session completed")
        outputs = {data for _, data in done}
        ledger.check(len(outputs) == 1, "CLI sessions wrote different bytes")
        sens = self.reference(size, tracer, ledger)

        n = size.cli_images
        totals = [sum(s.values()) for s, _ in done]
        out = Outcome(
            latencies=[t / n for t in totals],
            core=[(s["detect"] + s["fuse"]) / n for s, _ in done],
            items_per_s=n * len(done) / sum(totals),
            digest_bytes=done[0][1],
        )
        out.extra["froc_mean_sens"] = (sens, "1", n)
        out.extra["session_s"] = (float(np.median(totals)), "s", len(done))
        if traced:
            out.traced_items = n
            out.overhead_ratio = overhead(untraced, totals)
            out.layers = per_item_ms(tracer, n)
            for name in ("evaluation.froc", "evaluation.stratified_froc"):
                out.layers[f"{name}.ms"] = 1000.0 * sum(tracer.durations(name))
            for command in ("detect", "fuse", "eval"):
                out.layers[f"cli.{command}.s"] = float(
                    np.median([s[command] for s, _ in done])
                )
            out.layers["cli.startup_s"] = self.startup_s()
            c = tracer.counts.get
            out.layers["evaluation.tp"] = c("evaluation.tp", 0) / n
            out.layers["evaluation.fp"] = c("evaluation.fp", 0) / n
            out.layers["dataio.rkhm_bytes"] = float(self.rkhm_bytes)
            out.layers["dataio.detections_bytes"] = (
                sum(p.stat().st_size for p in self.outs.values()) / n
            )
        return out


def digest_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def all_workloads(src: Path) -> dict:
    workloads = [
        # Bypass case for grouping and Soft-NMS (3 peaks per role, a pool of
        # about 6): .rkhm I/O and rendering set its time.
        LoopWorkload("loop_clean", {}, perfect=True),
        # Exercises grouping and Soft-NMS: all four extreme roles hit k1=40
        # and the fusion pool holds about 200 detections.
        LoopWorkload("loop_noisy", NOISY, perfect=False),
        # The only workload for losses and the render_targets path of
        # targets, plus one gradient check per run.
        TrainWorkload(),
        # The only workload for cli and config: process start-up, directory
        # I/O and the detect thread pool.
        CliWorkload(src),
    ]
    return {w.name: w for w in workloads}
