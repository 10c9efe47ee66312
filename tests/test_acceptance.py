"""Acceptance suite: ten end-to-end criteria, one test each.

Every test prints a single PASS line with its measured values (visible with
``pytest -s``); a failure raises with the offending numbers. Tolerances are
pinned here, not configurable.
"""

import math
import time

import numpy as np

import recistkit as rk
from recistkit.cli import main as cli_main
from recistkit.evaluation import froc, match_detections
from recistkit.fusion import SoftNmsConfig, soft_nms
from recistkit.grouping import (
    Detections,
    GroupingConfig,
    detect,
    enumerate_quadruples,
    extract_peaks,
)
from recistkit.losses import finite_diff_check, focal_loss, focal_loss_grad, offset_loss
from recistkit.synthetic import DegradationConfig, generate_scene, simulate_heatmaps
from recistkit.targets import HeatmapBundle, render_targets, offset_target
from recistkit.geometry import Point2, pad_bbox

from tests.test_evaluation import crafted_three_image_matches, random_matches
from tests.test_fusion import box_of, make_detection, random_detections
from tests.test_geometry import iou
from tests.test_grouping import (
    detection_tuple,
    exhaustive_quadruples,
    extreme_row,
    naive_peaks,
    peak_tuples,
    random_peak_bundle,
)
from tests.test_losses import random_focal_instance
from tests.test_targets import square_extremes


def report(criterion: int, message: str) -> None:
    print(f"[acceptance {criterion}] PASS: {message}")


def test_criterion_01_zero_noise_round_trip():
    """200 synthetic scenes decode to their own lesions exactly."""
    start = time.perf_counter()
    worst_err = 0.0
    matches = []
    for seed in range(200):
        n = seed % 5 + 1
        scene = generate_scene(n, seed=seed)
        detections = detect(simulate_heatmaps(scene))
        extremes = scene.extremes()
        assert len(detections) == n, f"seed {seed}: {len(detections)} != {n}"
        for e in extremes:
            errs = []
            for d in detections:
                # the four extremes' coordinates; the center follows from them
                err = max(abs(a - b) for a, b in zip(d.row[:8], extreme_row(e)))
                errs.append((err, d))
            err, best = min(errs, key=lambda item: item[0])
            assert err < 1e-6, f"seed {seed}: coordinate error {err}"
            worst_err = max(worst_err, err)
            tight = (e.left.x, e.top.y, e.right.x, e.bottom.y)
            overlap = iou(pad_bbox(box_of(best), 5), pad_bbox(tight, 5))
            assert overlap == 1.0, f"seed {seed}: padded IoU {overlap}"
        matches.append(
            match_detections(detections, [a.bbox for a in scene.annotations])
        )
    result = froc(matches)
    point = result.points[0]
    assert point.fp_target == 0.5
    assert point.sensitivity == 1.0, f"sensitivity {point.sensitivity}"
    assert point.fp_per_image == 0.0, f"achieved FP rate {point.fp_per_image}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"round trip took {elapsed:.1f}s"
    report(
        1,
        f"200 scenes, {result.n_lesions} lesions, worst coord err "
        f"{worst_err:.2e}, sens@0.5FP {point.sensitivity:.3f} with "
        f"{point.fp_per_image:.0f} FPs, {elapsed:.1f}s",
    )


def test_criterion_02_focal_loss_and_gradient():
    """Worked 2x2 focal value plus 100 finite-difference gradient checks."""
    pred = np.full((2, 2), 0.5)
    target = np.array([[1.0, 0.0], [0.0, 0.0]])
    value = focal_loss(pred, target, n_objects=1)
    assert abs(value - 0.693147) <= 1e-6, value

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        p, t, n = random_focal_instance(rng)  # preds in [0.05, 0.95]: interior
        check = finite_diff_check(
            lambda x: focal_loss(x, t, n),
            lambda x: focal_loss_grad(x, t, n),
            p,
            tol=1e-5,
        )
        assert check.passed, check
        worst = max(worst, check.max_rel_err)
    report(2, f"worked value {value:.6f}, 100 instances, max rel err {worst:.2e}")


def test_criterion_03_offset_exactness():
    """Exact stride reconstruction for 10,000 points and the 0.5 example."""
    rng = np.random.default_rng(3)
    count = 0
    for stride in (1, 2, 4, 8):
        xs = rng.uniform(0, 2000, size=2500)
        ys = rng.uniform(0, 2000, size=2500)
        for x, y in zip(xs, ys):
            dx, dy = offset_target(Point2(x, y), stride)
            assert stride * (math.floor(x / stride) + dx) == x
            assert stride * (math.floor(y / stride) + dy) == y
            count += 1
    assert count == 10000

    tb = render_targets([square_extremes(20.5, 24.25, 8, 9)], 24, 24, 4)
    pred = tb.bundle.offset_maps.astype(np.float64) + 0.5
    loss = offset_loss(pred, tb)
    assert loss == 1.0, loss
    report(3, f"{count} exact reconstructions over strides 1/2/4/8, "
              f"off-by-0.5 loss = {loss}")


def test_criterion_04_grouping_oracle_equivalence():
    """Vectorized enumeration equals the nested-loop oracle, exactly."""
    rng = np.random.default_rng(4)
    cfg = GroupingConfig(k2=2000)
    total = 0
    for _ in range(100):
        peaks, center = random_peak_bundle(rng, grid=24, n_per_role=6)
        got = [detection_tuple(d) for d in enumerate_quadruples(peaks, center, cfg)]
        expected = exhaustive_quadruples(peaks, center, cfg.tau_c)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[1:5] == e[1:5] and g[5] == e[5]
        total += len(got)
    report(4, f"100 bundles, {total} detections, exact score and cell equality")


def test_criterion_05_extract_peak_oracle_equivalence():
    """Windowed-max peak sets equal the naive scan; K1 tie-break holds."""
    rng = np.random.default_rng(5)
    cfg = GroupingConfig(k1=100000)
    total = 0
    for _ in range(100):
        grid = rng.uniform(0, 1, size=(64, 64)).astype(np.float32)
        got = peak_tuples(extract_peaks(grid, cfg, "top"))
        expected = naive_peaks(grid, cfg.tau_e)
        assert got == expected
        total += len(got)

    flat = np.full((64, 64), 0.5, dtype=np.float32)
    peaks = extract_peaks(flat, GroupingConfig(k1=40), "top")
    assert [cell for cell, _ in peak_tuples(peaks)] == [(0, c) for c in range(40)]
    report(5, f"100 grids, {total} peaks, naive-scan equality and K1=40 tie-break")


def test_criterion_06_soft_nms():
    """The e^-2 decay example and 1,000 random property instances."""
    dets = [make_detection(0, 0, 10, 10, 0.9), make_detection(0, 0, 10, 10, 0.8)]
    out = soft_nms(Detections.of(dets), SoftNmsConfig(sigma=0.5))
    decayed = out.scores[1]
    assert abs(decayed - 0.10827) <= 1e-5, decayed

    rng = np.random.default_rng(6)
    cfg = SoftNmsConfig()
    for _ in range(1000):
        sample = random_detections(rng, int(rng.integers(1, 10)))
        result = soft_nms(sample, cfg)
        assert len(result) <= len(sample)
        assert result.scores[0] == max(d.score for d in sample)
        by_box = {}
        for d in sample:
            by_box.setdefault(box_of(d), []).append(d.score)
        for d in result:
            assert any(d.score <= s for s in by_box[box_of(d)])
        far = [make_detection(1000 + 30 * i, 0, 1015 + 30 * i, 15, 0.5 + i / 10)
               for i in range(3)]
        untouched = soft_nms(Detections.of(far), cfg)
        assert [d.score for d in untouched] == sorted(
            (d.score for d in far), reverse=True
        )
    report(6, f"decayed score {decayed:.5f} (= 0.8e^-2), 1000 property instances")


def test_criterion_07_froc():
    """Hand-enumerated 3-image scenario and 1,000 monotonicity instances."""
    result = froc(crafted_three_image_matches(), fp_targets=(0.5, 1, 2, 3, 4))
    sens = [p.sensitivity for p in result.points]
    assert sens == [0.6, 0.8, 0.8, 0.8, 0.8], sens

    rng = np.random.default_rng(7)
    for _ in range(1000):
        matches = random_matches(rng)
        points = froc(matches, fp_targets=(0.5, 1, 2, 3, 4)).points
        values = [p.sensitivity for p in points]
        assert values == sorted(values)
        thresholds = [p.threshold for p in points]
        assert thresholds == sorted(thresholds, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in values)
    report(7, f"hand-enumerated sensitivities {sens}, 1000 monotone sweeps")


def test_criterion_08_degradation_monotonicity():
    """Mean sensitivity at 1 FP/image never rises with heatmap noise."""
    levels = (0.0, 0.05, 0.1, 0.2)
    means = []
    for sigma in levels:
        values = []
        for seed in range(20):
            scene = generate_scene(3, seed=seed)
            bundle = simulate_heatmaps(
                scene, DegradationConfig(noise_sigma=sigma, seed=seed)
            )
            detections = detect(bundle)
            m = match_detections(detections, [a.bbox for a in scene.annotations])
            values.append(froc([m], fp_targets=(1.0,)).points[0].sensitivity)
        means.append(float(np.mean(values)))
    for lower, higher in zip(means[1:], means[:-1]):
        assert lower <= higher + 0.02, f"noise sweep means {means}"
    report(8, "mean sens@1FP over 20 seeds: "
              + ", ".join(f"{s:g}->{m:.3f}" for s, m in zip(levels, means)))


def test_criterion_09_performance_budget():
    """Worst-case 40^4 enumeration under 2 s."""
    rng = np.random.default_rng(9)
    bundle = HeatmapBundle(
        keypoint_maps=rng.uniform(0, 1, size=(5, 160, 160)).astype(np.float32),
        offset_maps=rng.uniform(0, 1, size=(8, 160, 160)).astype(np.float32),
        stride=4,
        input_size=(640, 640),
    )
    cfg = GroupingConfig()
    for role in ("top", "left", "bottom", "right"):
        assert len(extract_peaks(bundle.keypoint_map(role), cfg, role)) == 40

    elapsed = math.inf
    for _ in range(3):  # best-of-3: sub-100ms timings are noisy
        start = time.perf_counter()
        detect(bundle, cfg)
        elapsed = min(elapsed, time.perf_counter() - start)
    assert elapsed < 2.0, f"detect took {elapsed:.2f}s"
    report(9, f"2.56M quadruples: {elapsed*1000:.0f} ms, best of 3")


def test_criterion_10_bit_exact_io(tmp_path):
    """50 heatmap round trips bitwise; CLI reruns write identical bytes."""
    rng = np.random.default_rng(10)
    for i in range(50):
        h, w = int(rng.integers(4, 40)), int(rng.integers(4, 40))
        bundle = HeatmapBundle(
            keypoint_maps=rng.random((5, h, w), dtype=np.float32),
            offset_maps=rng.random((8, h, w), dtype=np.float32),
            stride=int(rng.integers(1, 8)),
            input_size=(w * 4, h * 4),
        )
        path = tmp_path / f"b{i}.rkhm"
        rk.write_heatmaps(bundle, path)
        back = rk.read_heatmaps(path)
        assert np.array_equal(
            back.keypoint_maps.view(np.uint32), bundle.keypoint_maps.view(np.uint32)
        )
        assert np.array_equal(
            back.offset_maps.view(np.uint32), bundle.offset_maps.view(np.uint32)
        )

    digests = []
    for run in ("one", "two"):
        base = tmp_path / run
        sim, flip = base / "sim", base / "flip"
        dets, dets_flip = base / "d.json", base / "df.json"
        fused, rep = base / "fused.json", base / "report"
        assert cli_main(["simulate", "--out", str(sim), "--flipped-out", str(flip),
                         "--scene-seed", "17", "--n-lesions", "3",
                         "--noise", "0.02"]) == 0
        assert cli_main(["detect", "--heatmaps", str(sim), "--out", str(dets)]) == 0
        assert cli_main(["detect", "--heatmaps", str(flip), "--out", str(dets_flip)]) == 0
        assert cli_main(["fuse", "--original", str(dets), "--flipped", str(dets_flip),
                         "--image-width", "768", "--out", str(fused)]) == 0
        assert cli_main(["eval", "--detections", str(fused),
                         "--annotations", str(sim / "annotations.csv"),
                         "--out", str(rep)]) == 0
        digest = {}
        for f in sorted(base.rglob("*")):
            if f.is_file():
                digest[str(f.relative_to(base))] = f.read_bytes()
        digests.append(digest)
    assert digests[0] == digests[1]
    report(10, f"50 bundles round-tripped bitwise, "
               f"{len(digests[0])} CLI artifacts byte-identical across reruns")
